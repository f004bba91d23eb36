"""One workload in one fresh process; prints one JSON line.

Modes:

* ``setup``   -- import normlab, generate inputs, warm up; report ``setup_s``
  (from ``--t0``, the parent's clock reading just before this process was
  started, to the point where the first timed op would begin).
* ``measure`` -- set up, then run whole passes over the inputs, untraced,
  until ``--seconds`` have elapsed; report end-to-end numbers.
* ``trace``   -- set up, install the tracer, run exactly one pass; report the
  per-layer numbers.  One fixed pass makes every count repeat exactly for a
  given seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]

import workloads  # noqa: E402
from cpus import CpuPicker  # noqa: E402


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(ops, best):
    """Counts over every op run; timings over each distinct op's fastest run.

    ``best`` holds one (check seconds, replay seconds or None) pair per
    distinct op.  Contention from other work on the host only ever slows an
    op down, so an op's fastest repetition in the run is its cost.
    """
    checks = [c * 1e3 for c, _ in best]
    replays = [r * 1e3 for _, r in best if r is not None]
    gaps: dict[str, int] = {}
    for o in ops:
        if o.gap:
            gaps[o.gap] = gaps.get(o.gap, 0) + 1
    return {
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "wrong": sum(o.wrong for o in ops),
        "gaps": gaps,
        "problems": sorted({o.detail for o in ops if o.wrong})[:5],
        "ops_per_s": len(best) / sum(c + (r or 0.0) for c, r in best),
        "check_p50_ms": statistics.median(checks),
        "check_p99_ms": percentile(checks, 99),
        "replay_p50_ms": statistics.median(replays) if replays else None,
        "replay_p99_ms": percentile(replays, 99) if replays else None,
        "samples": len(checks),
    }


def fastest(best, ops):
    """Per-op minimum of check and replay time, over the passes so far."""
    times = [(o.check_s, o.replay_s) for o in ops]
    if best is None:
        return times
    return [(min(bc, c), r if br is None else br if r is None else min(br, r))
            for (bc, br), (c, r) in zip(best, times, strict=True)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOAD_CLASSES[args.workload](args.seed, workdir)
        wl.warm_up()
        setup_s = time.monotonic() - args.t0
        out = {"mode": args.mode, "setup_s": setup_s}
        if args.mode == "measure":
            pick_cpu = CpuPicker()
            if args.workload == "survey":
                wl.time_spaces(pick_cpu)
            ops, best, start = [], None, time.perf_counter()
            while not ops or time.perf_counter() - start < args.seconds:
                batch = wl.run_pass(between=pick_cpu)
                if args.workload == "survey":
                    for o, took in zip(batch, wl.space_s[-len(batch):], strict=True):
                        o.check_s = took
                ops.extend(batch)
                best = fastest(best, batch)
            out.update(summarize(ops, best))
            out["passes"] = len(ops) // len(best)
            # one plain pass, to compare with the traced run's single pass
            first = ops[:len(best)]
            out["first_pass_ops_per_s"] = summarize(first, fastest(None, first))["ops_per_s"]
        elif args.mode == "trace":
            import tracer as tracing
            tr = tracing.Tracer()
            tracing.install(tr)
            ops = wl.run_pass(tr, between=CpuPicker())
            out.update(summarize(ops, fastest(None, ops)))
            out["per_layer"] = tr.metrics(SRC)
            out["spans"] = len(tr.spans)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
