"""Tests of the benchmark itself: inputs, oracles, output shape, traced counts.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNGATED, WORKLOADS  # noqa: E402

COUNT_SUFFIXES = (".calls", ".constructed", ".pairs", ".members_scanned",
                  ".span_points", ".report_bytes")


def bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def worker(workload, mode, seed=3):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                          "--workload", workload, "--seed", str(seed), "--seconds", "0",
                          "--mode", mode, "--t0", "0"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["seq_scenarios", "insertion_traces"])
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.inputs_digest(workload, 7) == workloads.inputs_digest(workload, 7)
    assert workloads.inputs_digest(workload, 7) != workloads.inputs_digest(workload, 8)


def test_scenario_files_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    workloads.SeqScenarios(11, str(first))
    workloads.SeqScenarios(11, str(second))
    names = sorted(os.listdir(first))
    assert names and names == sorted(os.listdir(second))
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_scenario_pool_covers_every_stratum():
    pool = workloads.seq_scenarios(5)
    strata = {(s["model"], s["condition"], s["depth"]) for s in pool}
    assert len(strata) == len(workloads.SEQ_MODELS) * len(workloads.CONDITIONS) * \
        len(workloads.DEPTHS)
    verdicts = {s["expect"] for s in pool if s["model"] == "seq_x_end" and
                s["condition"] in ("N", "D", "SL")}
    assert verdicts == {"holds", "fails"}


# -- oracles -----------------------------------------------------------------

def test_seq_oracle_accepts_the_library_and_flags_a_tampered_verdict(tmp_path):
    wl = workloads.SeqScenarios(2, str(tmp_path))
    for i in range(len(wl.pool)):
        assert not wl.run_one(i, None).failed
    i = next(i for i, s in enumerate(wl.pool) if s["condition"] == "N")
    wl.pool[i]["expect"] = "fails" if wl.pool[i]["expect"] == "holds" else "holds"
    op = wl.run_one(i, None)
    assert op.failed and op.wrong and "built to be" in op.detail


def test_seq_oracle_flags_a_corrupted_report(tmp_path):
    wl = workloads.SeqScenarios(2, str(tmp_path))
    assert not wl.run_one(0, None).failed
    with open(wl.paths[0][1]) as fh:
        report = json.load(fh)
    scen = wl.pool[0]
    assert workloads.check_scenario_report(scen, report) == []
    for key, bad in (("verdict", "unknown_at_depth"), ("condition", "XX"), ("depth", 0)):
        assert workloads.check_scenario_report(scen, {**report, key: bad})


def test_insertion_oracle_flags_corrupted_outputs(tmp_path):
    wl = workloads.InsertionTraces(4, str(tmp_path))
    flagged = set()
    for i, spec in enumerate(wl.specs):
        op = wl.run_one(i, None)
        assert not op.wrong, op.detail
        if spec["kind"] == "reproduce":
            continue
        data = json.loads(json.dumps(wl.serialize.to_jsonable(wl.jobs[i]())))
        assert workloads.check_job(spec, data) == []
        bad = copy.deepcopy(data)
        elem = {"tong_merge": lambda d: d["result"],
                "dieudonne_iterate": lambda d: d["a_seq"][-1],
                "urysohn_join_stream": lambda d: d["result"],
                "block_indicators": lambda d: d["block_replay"]["indicators"][0],
                "increasing_approx": lambda d: d["a_seq"][0]}[spec["kind"]](bad)
        values = elem["values"] if "values" in elem else elem["cycle"]
        values[0] = str(workloads.Fraction(values[0]) + 50)
        assert workloads.check_job(spec, bad), spec["kind"]
        flagged.add(spec["kind"])
    assert flagged == {kind for kind, *_ in workloads.JOB_PLAN}


def test_catalog_oracle_flags_a_corrupted_report(tmp_path):
    wl = workloads.InsertionTraces(4, str(tmp_path))
    i = wl.specs.index({"kind": "reproduce", "id": "tong-merge"})
    assert not wl.run_one(i, None).failed
    with open(os.path.join(str(tmp_path), f"catalog-{i:03d}.json")) as fh:
        report = json.load(fh)
    assert workloads.check_catalog("tong-merge", report) == []
    report["certificates"][0]["result"]["values"] = ["2"]
    assert workloads.check_catalog("tong-merge", report)


def test_known_replay_gaps_fail_without_being_wrong(tmp_path):
    wl = workloads.InsertionTraces(4, str(tmp_path))
    ops = wl.run_pass()
    gaps = sorted(spec.get("id", spec["kind"]) for spec, op in zip(wl.specs, ops) if op.failed)
    assert not any(op.wrong for op in ops)
    expected = sorted(workloads.KNOWN_REPLAY_GAPS["reproduce"]) + \
        [kind for kind, _, _, count in workloads.JOB_PLAN
         if kind in workloads.KNOWN_REPLAY_GAPS for _ in range(count)]
    assert gaps == sorted(expected)


def test_survey_oracle_flags_a_corrupted_csv():
    rows = ["points,opens_count,normal,insertion_always_feasible,agreement"]
    for n, count in enumerate(workloads.A000798, start=1):
        rows += [f"{n},2,True,True,True"] * count
    text = "\n".join(rows) + "\n"
    assert workloads.check_survey_csv(text) == ["survey: CSV differs from the recorded digest"]
    assert any("A000798" in p for p in workloads.check_survey_csv(text.replace("1,2,", "2,2,", 1)))
    assert any("agreement" in p
               for p in workloads.check_survey_csv(text.replace("True\n", "False\n", 1)))


# -- the benchmark's output --------------------------------------------------

def test_benchmark_json_matches_the_metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in PER_LAYER]


def test_smoke_run_prints_every_end_to_end_metric_for_every_workload():
    out = bench("--workload", "all", "--seconds", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for workload, result in zip(WORKLOADS, results):
        assert result["correct"] and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(n for n, *_ in END_TO_END)
        for name, unit, *_ in (*END_TO_END, *UNGATED):
            row = [line for line in lines if line.split()[:2] == [workload, name]]
            assert len(row) == 1, (workload, name)
            assert row[0].endswith(f" {unit}") or "not applicable:" in row[0]


def test_traced_counts_repeat_exactly():
    for workload in ("seq_scenarios", "insertion_traces"):
        first, second = worker(workload, "trace"), worker(workload, "trace")
        counts = [k for k in first["per_layer"] if k.endswith(COUNT_SUFFIXES)]
        assert counts
        assert {k: first["per_layer"][k] for k in counts} == \
            {k: second["per_layer"][k] for k in counts}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("--workload", "survey", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path), timeout=60)
    assert out.returncode != 0
    assert not [line for line in out.stdout.splitlines() if line.startswith("{")]
