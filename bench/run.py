"""normlab benchmark: one workload per call, or all three in turn.

    python3 bench/run.py --workload survey|seq_scenarios|insertion_traces|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout (it reads ``src/normlab``; nothing
needs installing).  Each measurement runs in its own fresh, single-threaded
Python process (``bench/worker.py``), one after another.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median of five
processes, each timed from its start to its first timed op; the rest come from
one process that runs whole passes over the seeded inputs for ``--seconds``.
``--trace 1`` runs the same untraced process, then one traced process over
exactly one pass, and prints the per-layer metrics.

A table for people comes first; the last line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from cpus import fastest_cpu  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNGATED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170

NOT_APPLICABLE = {
    ("survey", "replay_p50_ms"): "survey emits no certificate, so nothing is replayed",
    ("survey", "replay_p99_ms"): "survey emits no certificate, so nothing is replayed",
}


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, mode, deadline):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    pin = None
    if mode == "setup":
        # start on the fastest CPU; measuring processes pick CPUs themselves
        allowed = os.sched_getaffinity(0)
        cpu = fastest_cpu(sorted(allowed))
        os.sched_setaffinity(0, allowed)
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    t0 = time.monotonic()
    remaining = deadline - t0
    if remaining <= 0:
        raise BenchError("out of time before the next process")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, preexec_fn=pin,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} ran out of time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ungated(workload, m):
    """The end-to-end numbers that cannot be gated on every workload."""
    return {"replay_p50_ms": m["replay_p50_ms"], "replay_p99_ms": m["replay_p99_ms"],
            "failed_frac": m["failed"] / m["attempted"]}


def table(workload, values, units, m):
    rows = []
    for name, unit in units:
        v = values.get(name)
        if v is None:
            why = NOT_APPLICABLE.get((workload, name), "not measured")
            rows.append(f"{workload:17s} {name:15s} not applicable: {why}")
        else:
            rows.append(f"{workload:17s} {name:15s} {v:14.6g} {unit}")
    gaps = ", ".join(f"{k}: {n}" for k, n in sorted(m["gaps"].items())) or "none"
    rows.append(f"{workload:17s} {'ops':15s} {m['attempted']} attempted, "
                f"{m['failed']} failed (known replay gaps: {gaps}), "
                f"{m['wrong']} wrong; {m['samples']} latency samples")
    for problem in m["problems"]:
        rows.append(f"{workload:17s} problem: {problem}")
    return rows


def run_workload(workload, seed, seconds, trace, deadline):
    if trace:
        m = spawn(workload, seed, seconds, "measure", deadline)
        t = spawn(workload, seed, seconds, "trace", deadline)
        values = dict(t["per_layer"])
        values["trace_overhead_frac"] = 1 - t["ops_per_s"] / m["first_pass_ops_per_s"]
        values.update(ungated(workload, m))
        for where, name in NOT_APPLICABLE:
            if where == workload:
                values[name] = 0.0  # per-layer zero: nothing of the kind runs
        units = [(name, unit) for name, unit, _, _ in PER_LAYER]
        lines = [f"{workload:17s} {name:15s} {values[name]:14.6g} {unit}"
                 for name, unit in units]
        lines.append(f"{workload:17s} traced pass kept {t['spans']} spans")
        wrong = m["wrong"] + t["wrong"]
    else:
        setups = [spawn(workload, seed, seconds, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        m = spawn(workload, seed, seconds, "measure", deadline)
        setups.append(m["setup_s"])
        values = {name: m[name] for name in
                  ("ops_per_s", "check_p50_ms", "check_p99_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        shown = {**values, **ungated(workload, m)}
        units = [(n, u) for n, u, _, _ in END_TO_END] + [(n, u) for n, u, _ in UNGATED]
        lines = table(workload, shown, units, m)
        units = [(n, u) for n, u, _, _ in END_TO_END]
        wrong = m["wrong"]
    result = {
        "correct": wrong == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "normlab", "cli.py")):
        print(f"no normlab sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in chosen:
            lines, result = run_workload(workload, args.seed, args.seconds, args.trace,
                                         time.monotonic() + DEADLINE_S)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
