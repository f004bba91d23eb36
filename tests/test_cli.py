"""CLI surface: scenarios, the scenario reader, catalog, survey, replay."""

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from normlab.cli import CATALOG, main, reproduce, survey_rows
from normlab.conditions import CONDITIONS
from normlab.errors import PreconditionViolation, UnknownExampleId
from normlab.finite_space import FiniteSpace
from normlab.rationals import rat
from normlab.replay import MalformedPayload, verify_report
from normlab.seq_model import GeoTail, SeqFunc, ideal_membership
from normlab.serialize import MAX_FAMILY, MAX_POINTS, MODELS, parse_scenario, to_jsonable


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SCENARIO_N_FAILS = {
    "model": "seq_x_end",
    "condition": "N",
    "instance": {"f": {"cycle": ["1", "0"]}, "g": {"cycle": ["1", "0"]}},
    "depth": 64,
    "expect": "fails",
}


def test_check_expected_verdict(tmp_path, capsys):
    path = write(tmp_path, "s.json", SCENARIO_N_FAILS)
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "fails"
    assert report["certificate"]["limsup_f"] == "1"


def test_check_verdict_mismatch(tmp_path, capsys):
    bad = dict(SCENARIO_N_FAILS, expect="holds")
    path = write(tmp_path, "s.json", bad)
    assert main(["check", path]) == 1
    assert "verdict mismatch" in capsys.readouterr().err


def test_check_malformed_rational_pointer(tmp_path, capsys):
    payload = {
        "model": "seq_x_end",
        "condition": "N",
        "instance": {"f": {"cycle": ["1/0"]}, "g": {"cycle": ["1"]}},
    }
    path = write(tmp_path, "s.json", payload)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "/instance/f/cycle/0" in err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/scenario.json"]) == 2


def test_check_finite_model_scenario(tmp_path):
    payload = {
        "model": "finite_full",
        "space": {"points": 2, "up": [[0], [0, 1]]},
        "condition": "N",
        "instance": {
            "f": {"space": {"points": 2, "up": [[0], [0, 1]]},
                  "values": ["0", "1/2"]},
            "g": {"space": {"points": 2, "up": [[0], [0, 1]]},
                  "values": ["1", "1"]},
        },
        "expect": "holds",
    }
    path = write(tmp_path, "s.json", payload)
    assert main(["check", path]) == 0


def test_check_deterministic_reports(tmp_path):
    path = write(tmp_path, "s.json", SCENARIO_N_FAILS)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", path, "--out", str(out1)]) == 0
    assert main(["check", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reproduce_all_catalog_entries(tmp_path, capsys):
    for example_id in CATALOG:
        assert main(["reproduce", example_id]) == 0, example_id
        capsys.readouterr()


def test_reproduce_unknown_id(capsys):
    assert main(["reproduce", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "radical-gap" in err
    with pytest.raises(UnknownExampleId):
        reproduce("nonexistent")


def test_survey_row_counts():
    rows = survey_rows(3)
    by_n = {}
    for r in rows:
        by_n[r["points"]] = by_n.get(r["points"], 0) + 1
    assert by_n == {1: 1, 2: 4, 3: 29}
    assert all(r["agreement"] for r in rows)


def test_survey_csv_output(tmp_path, capsys):
    out = tmp_path / "survey.csv"
    assert main(["survey", "--max-size", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("points,opens_count,normal")
    assert len(lines) == 6  # header + 1 + 4 topologies


@pytest.mark.parametrize("size", ["0", "-3", "6"])
def test_survey_size_out_of_range_exits_2_before_any_work(size, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--max-size", size])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "invalid choice" in captured.err


def test_replay_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "s.json", SCENARIO_N_FAILS)
    report = tmp_path / "report.json"
    assert main(["check", path, "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["replay", str(report)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["verified"] >= 1


def _compact(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_reports_are_one_line_of_sorted_compact_json(tmp_path, capsys):
    """check, replay and reproduce write one line of sorted-key JSON without
    spaces, and --out holds the bytes written to stdout."""
    path = write(tmp_path, "s.json", SCENARIO_N_FAILS)
    report = tmp_path / "report.json"
    for argv in (["check", path, "--out", str(report)], ["replay", str(report)],
                 ["reproduce", "tong-merge"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out == _compact(out), argv[0]
        if argv[0] == "check":
            assert report.read_text() == out


@dataclass
class _Report:
    verdict: str
    bound: Fraction
    witness: SeqFunc
    rows: list


def test_to_jsonable_lowers_a_dataclass_alike_on_every_call_and_refuses_unknown_types():
    report = _Report("holds", Fraction(1, 3), SeqFunc([Fraction(1)], [Fraction(0)]),
                     [(Fraction(2), None), {"n": 3}])
    lowered = {"verdict": "holds", "bound": "1/3",
               "witness": {"prefix": ["1"], "cycle": ["0"], "omega": None},
               "rows": [["2", None], {"n": 3}]}
    assert to_jsonable(report) == lowered  # the first call records _Report's fields
    assert to_jsonable(report) == lowered
    for value in (object(), {1}, 1.5, _Report):
        with pytest.raises(PreconditionViolation, match="cannot serialize"):
            to_jsonable(value)


def test_replay_detects_tampering(tmp_path, capsys):
    path = write(tmp_path, "s.json", SCENARIO_N_FAILS)
    report_path = tmp_path / "report.json"
    main(["check", path, "--out", str(report_path)])
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    report["certificate"]["limsup_f"] = "2"  # forged certificate
    tampered = write(tmp_path, "tampered.json", report)
    assert main(["replay", tampered]) == 1


@pytest.mark.parametrize("up,named", [
    ([[0], [-1, 1]], "/space/up/1/0"),
    ([[0], [1, 5]], "/space/up/1/1: point index 5"),
    ([[0, 1], [0]], "/space/up: preorder"),
])
def test_check_bad_point_indices(tmp_path, capsys, up, named):
    payload = {
        "model": "finite_full",
        "space": {"points": 2, "up": up},
        "condition": "N",
        "instance": {},
    }
    path = write(tmp_path, "s.json", payload)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and named in err


@pytest.mark.parametrize("model", ["seq_x_end", "seq_y_end"])
@pytest.mark.parametrize("cond", ["T", "BS", "S", "N", "D", "SL"])
@pytest.mark.parametrize("present,missing", [((), "f"), (("f",), "g")])
def test_check_missing_pair_is_input_error(tmp_path, capsys, model, cond, present, missing):
    elem = {"cycle": ["1"], "omega": "1"} if model == "seq_y_end" else {"cycle": ["1"]}
    instance = {key: elem for key in present}
    if cond == "SL":  # the cover (L) reads, which the reader asks for first
        instance.update(_x_cover("L") if model == "seq_x_end" else
                        {"epsilon": "1", "family": [elem]})
    payload = {"model": model, "condition": cond, "instance": instance}
    path = write(tmp_path, "s.json", payload)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and f"/instance/{missing}" in err


def test_parser_reuse_keeps_no_options(tmp_path, capsys):
    path = write(tmp_path, "s.json", SCENARIO_N_FAILS)
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 0
    out.unlink()
    assert main(["check", path]) == 0
    assert not out.exists()


def test_check_echoes_the_scenario_depth(tmp_path, capsys):
    """No route reads ``depth``: the report echoes the scenario's value (null
    when it gives none) and is otherwise the same at every depth."""
    reports = []
    for depth in (1, 64, 512, None):
        scenario = dict(SCENARIO_N_FAILS, depth=depth)
        if depth is None:
            del scenario["depth"]
        assert main(["check", write(tmp_path, "s.json", scenario)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("depth") == depth
        reports.append(report)
    assert all(report == reports[0] for report in reports)


@pytest.mark.parametrize("flag", ["5", "0"])
def test_check_takes_no_depth_flag(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["check", write(tmp_path, "s.json", SCENARIO_N_FAILS), "--depth", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth" in capsys.readouterr().err


FINITE_SPACE_2 = {"points": 2, "up": [[0], [0, 1]]}
FINITE_ELEM = {"space": FINITE_SPACE_2, "values": ["1", "2"]}
MODEL_ELEMS = {
    "seq_x_end": {"cycle": ["1"]},
    "seq_y_end": {"cycle": ["2"], "omega": "2"},
    "finite_full": FINITE_ELEM,
}


def _scenario(model, cond, instance):
    payload = {"model": model, "condition": cond, "instance": instance}
    if model == "finite_full":
        payload["space"] = FINITE_SPACE_2
    return payload


@pytest.mark.parametrize("model", ["seq_y_end", "finite_full"])
@pytest.mark.parametrize("cond", ["C", "L", "SL"])
def test_check_family_without_epsilon_is_input_error(tmp_path, capsys, model, cond):
    elem = MODEL_ELEMS[model]
    instance = {"family": [elem]}
    if cond == "SL":
        instance.update(f=elem, g=elem)
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "/instance/epsilon" in err
    instance["epsilon"] = "1"
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    assert main(["check", path]) == 0


@pytest.mark.parametrize("model", ["seq_y_end", "finite_full"])
@pytest.mark.parametrize("cond", ["C", "L", "SL"])
def test_check_epsilon_without_family_is_input_error(tmp_path, capsys, model, cond):
    """A cover is stated in full: an epsilon given alone is refused at
    ``/instance/family``, and with no cover at all at ``/instance/epsilon``."""
    elem = MODEL_ELEMS[model]
    instance = {"epsilon": "1"}
    if cond == "SL":
        instance.update(f=elem, g=elem)
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"input error: /instance/family: missing key, which condition ({cond}) on {model} reads")
    del instance["epsilon"]
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith("input error: /instance/epsilon: missing key")
    instance.update(epsilon="1", family=[elem])
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    assert main(["check", path]) == 0


@pytest.mark.parametrize("model,alien", [
    ("seq_x_end", FINITE_ELEM),
    ("seq_y_end", FINITE_ELEM),
    ("finite_full", {"cycle": ["1"]}),
    ("finite_full", {"cycle": ["1"], "omega": "1"}),
])
@pytest.mark.parametrize("cond,key,named", [
    ("N", "f", "/instance/f"),
    ("T", "g", "/instance/g"),
    ("C", "family", "/instance/family/3"),
])
def test_check_element_off_the_model_carrier_is_input_error(
        tmp_path, capsys, model, alien, cond, key, named):
    own = MODEL_ELEMS[model]
    instance = {"f": own, "g": own, "epsilon": "1", "family": [own] * 4}
    if key == "family":
        instance["family"][3] = alien
    else:
        instance[key] = alien
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and named in err


X_COVER = {"epsilon": "1", "delta": "1/2", "subfamily_cap": 2}


def _x_cover(cond):
    """The built-in family's keys that (C), or (L) and (SL), read on seq_x_end."""
    return dict(X_COVER) if cond == "C" else {"epsilon": "1", "delta": "1/2"}


@pytest.mark.parametrize("cond", ["C", "L", "SL"])
def test_check_family_on_seq_x_end_is_input_error(tmp_path, capsys, cond):
    own = MODEL_ELEMS["seq_x_end"]
    instance = dict(_x_cover(cond), f=own, g=own) if cond == "SL" else _x_cover(cond)
    path = write(tmp_path, "s.json", _scenario("seq_x_end", cond, instance))
    assert main(["check", path]) == 0
    capsys.readouterr()
    instance["family"] = [own]
    path = write(tmp_path, "s.json", _scenario("seq_x_end", cond, instance))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: /instance/family: condition ({cond}) on seq_x_end "
                          "reads no family")


@pytest.mark.parametrize("model,cond,extra", [
    ("seq_x_end", "N", {"epsilon": "1", "delta": "1/2", "subfamily_cap": 2}),
    ("seq_x_end", "L", {"subfamily_cap": 2}),
    ("seq_x_end", "SL", {"subfamily_cap": 2}),
    ("seq_x_end", "D", {"delta": "1/2"}),
    ("seq_y_end", "T", {"delta": "1/2"}),
    ("seq_y_end", "N", {"epsilon": "1/2"}),
    ("finite_full", "C", {"delta": "1/2"}),
])
def test_check_refuses_an_instance_key_its_route_does_not_read(
        tmp_path, capsys, model, cond, extra):
    """Each key the route does not read is refused at its own pointer, rather
    than echoed in a report that nothing reads it from."""
    own = MODEL_ELEMS[model]
    instance = {}
    if cond in ("T", "N", "D", "SL"):
        instance.update(f=own, g={"cycle": ["5"]} if cond == "D" else own)
    if cond == "D":
        instance.update(epsilon="1")
    if cond in ("L", "SL") and model == "seq_x_end":
        instance.update(epsilon="1", delta="1/2")
    if cond == "C" and model != "seq_x_end":
        instance.update(epsilon="1", family=[own])
    assert _check_exit(tmp_path, capsys, _scenario(model, cond, instance))[0] == 0
    for key, value in extra.items():
        code, err = _check_exit(tmp_path, capsys, _scenario(model, cond, {**instance, key: value}))
        assert code == 2
        assert err.startswith(f"input error: /instance/{key}: condition ({cond}) on {model} "
                              f"reads no {key}")


GAP_ELEMS = {  # each model's element lifted by 1 over MODEL_ELEMS, for the (D) gap
    "seq_x_end": {"cycle": ["2"]},
    "seq_y_end": {"cycle": ["3"], "omega": "3"},
    "finite_full": {"space": FINITE_SPACE_2, "values": ["2", "3"]},
}


@pytest.mark.parametrize("model", sorted(MODEL_ELEMS))
@pytest.mark.parametrize("cond", CONDITIONS)
def test_check_refuses_a_missing_instance_key(tmp_path, capsys, model, cond):
    """An instance holds every key its route reads, with no default: each one
    left out is refused at its own pointer."""
    own = MODEL_ELEMS[model]
    values = {"f": own, "g": GAP_ELEMS[model], "epsilon": "1", "delta": "1/2",
              "subfamily_cap": 2, "family": [own]}
    instance = {key: values[key] for key in MODELS[model].instance_keys(cond)}
    assert _check_exit(tmp_path, capsys, _scenario(model, cond, instance))[0] == 0
    for key in instance:
        partial = {k: v for k, v in instance.items() if k != key}
        code, err = _check_exit(tmp_path, capsys, _scenario(model, cond, partial))
        assert code == 2
        assert err.startswith(f"input error: /instance/{key}: missing key, which condition "
                              f"({cond}) on {model} reads")


def test_check_seed_key_is_input_error(tmp_path, capsys):
    path = write(tmp_path, "s.json", dict(SCENARIO_N_FAILS, seed=3))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err.startswith("input error: /seed:")


def seq(*cycle):
    """The periodic sequence on the naturals with this cycle, spelled as replay
    reads it."""
    return {"prefix": [], "cycle": list(cycle), "omega": None}


SEQ_0, SEQ_1 = seq("0"), seq("1")


@pytest.mark.parametrize("report,pointer,kind", [
    ({"trace": "iteration", "a_seq": [SEQ_0, seq("1/4")], "step_bounds": ["1/2"],
      "f": SEQ_0, "g": SEQ_1}, "/", "iteration"),
    ({"certificates": [{"trace": "merge", "a_norm": [], "b_norm": [], "u_seq": [],
                        "v_seq": [], "result": SEQ_0}]}, "/certificates/0", "merge"),
    ({"condition": "N", "verdict": "holds", "model": "seq_x_end",
      "instance": {"f": SEQ_0, "g": SEQ_1}, "certificate": {"limit": "0"}}, "/certificate",
     "condition"),
    ({"ideal_membership": {"element": seq("x"), "in_I_alpha": True,
                           "in_J_radical": True, "cert": {}}}, "/", "ideal"),
], ids=["iteration-bounds-short", "merge-empty", "N-holds-no-witness", "ideal-unparsed-value"])
def test_replay_malformed_report_is_input_error(tmp_path, capsys, report, pointer, kind):
    path = write(tmp_path, "report.json", report)
    assert main(["replay", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {pointer}: malformed {kind} payload")


# Respellings of two sequences of `reproduce dieudonne-rate`, each naming the
# same function as the one written or none at all, and replay's reason for
# refusing it.  a_seq/0 is 3/4 then 1/4 forever, g is 1 forever.
RESPELLINGS = [
    ("a_seq/0", {"prefix": ["3/4", "1/4"], "cycle": ["1/4", "1/4"], "omega": None},
     "cycle is not its minimal period"),
    ("a_seq/0", {"prefix": ["3/4", "1/4"], "cycle": ["1/4", "1/4"]}, "exactly the keys"),
    ("a_seq/0", {"prefix": ["3/4"], "cycle": ["1/4"]}, "exactly the keys"),
    ("a_seq/0", {"prefix": ["3/4"], "cycle": ["1/4", "1/4", "1/4"], "omega": None},
     "cycle is not its minimal period"),
    ("a_seq/0", {"prefix": ["3/4", "1/4"], "cycle": ["1/4"], "omega": None},
     "prefix ends with an entry its cycle absorbs"),
    ("a_seq/0", {"prefix": ["3/4"], "cycle": ["1/4"], "omega": None, "note": "x"},
     "exactly the keys"),
    ("a_seq/0", {"prefix": "3/4", "cycle": ["1/4"], "omega": None}, "is an array"),
    ("g", {"cycle": ["1"], "omega": None}, "exactly the keys"),
    ("g", {"prefix": [], "cycle": [], "omega": None}, "a nonempty one"),
]


@pytest.mark.parametrize("where,spelling,reason", RESPELLINGS,
                         ids=[f"{w}-{i}" for i, (w, _, _) in enumerate(RESPELLINGS)])
def test_replay_refuses_a_sequence_spelled_otherwise(tmp_path, capsys, where, spelling, reason):
    """Replay reads a sequence only as the library writes it: prefix, cycle and
    omega, the cycle its minimal period, no prefix entry the cycle absorbs."""
    path = tmp_path / "report.json"
    assert main(["reproduce", "dieudonne-rate", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert main(["replay", str(path)]) == 0
    trace = report["certificates"][0]
    if where == "g":
        trace["g"] = spelling
    else:
        trace["a_seq"][0] = spelling
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: /certificates/0: malformed iteration payload "
                                   "(ValueError: a sequence")
    assert reason in captured.err


INFEASIBLE_CERT = {"limsup_f": "1", "liminf_g": "0"}


@pytest.mark.parametrize("infinity", [math.inf, -math.inf], ids=["Infinity", "-Infinity"])
@pytest.mark.parametrize("payload", [
    lambda inf: {"condition": "N", "verdict": "fails", "model": "seq_x_end",
                 "instance": {"f": seq(inf), "g": SEQ_0}, "certificate": INFEASIBLE_CERT},
    lambda inf: {"condition": "D", "verdict": "fails", "model": "seq_x_end",
                 "instance": {"f": SEQ_1, "g": SEQ_0, "epsilon": inf},
                 "certificate": INFEASIBLE_CERT},
], ids=["N-fails-cycle", "D-epsilon"])
def test_replay_infinite_value_is_input_error(tmp_path, capsys, payload, infinity):
    path = write(tmp_path, "report.json", {"certificates": [payload(infinity)]})
    assert "Infinity" in open(path).read()
    assert main(["replay", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: /certificates/0: malformed condition payload "
                                   f"(ValueError: not a rational: {infinity!r})")


def test_replay_refuses_an_exponent_at_once(tmp_path, capsys):
    """A (D) epsilon written with an exponent is outside replay's grammar, so
    it is refused before any number is built from it."""
    payload = {"condition": "D", "verdict": "fails", "model": "seq_x_end",
               "instance": {"f": SEQ_1, "g": SEQ_0, "epsilon": "1e10000000"},
               "certificate": INFEASIBLE_CERT}
    path = write(tmp_path, "report.json", {"certificates": [payload]})
    start = time.perf_counter()
    assert main(["replay", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: /certificates/0: malformed condition payload "
                                   "(ValueError: not a rational: '1e10000000')")


def test_replay_rejects_c_failure_without_defeats(tmp_path, capsys):
    path = write(tmp_path, "s.json", _scenario("seq_x_end", "C", dict(X_COVER)))
    report_path = tmp_path / "report.json"
    assert main(["check", path, "--out", str(report_path)]) == 0
    assert main(["replay", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["certificate"]["defeats"]
    report["certificate"]["defeats"] = []  # a verdict with no evidence
    assert main(["replay", write(tmp_path, "tampered.json", report)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def _drop_first(xs):
    del xs[0]


def _keep_one(xs):
    del xs[1:]


def _swap(xs):
    xs[3], xs[4] = xs[4], xs[3]


LIST_EDITS = {"drop-first": _drop_first, "drop-last": list.pop, "keep-one": _keep_one,
              "duplicate": lambda xs: xs.append(dict(xs[0])), "swap": _swap}


@pytest.mark.parametrize("edit", sorted(LIST_EDITS))
def test_replay_derives_every_defeat(tmp_path, capsys, edit):
    """Replay derives the (C) defeats (162 at subfamily_cap 4, over the first 8
    members) and compares the lists, so a dropped, duplicated or swapped entry
    fails replay."""
    report = json.loads(json.dumps(CATALOG["noncompact-C-failure"]()["certificates"][0]))
    assert verify_report(report)["ok"]
    assert len(report["certificate"]["defeats"]) == 162
    LIST_EDITS[edit](report["certificate"]["defeats"])
    capsys.readouterr()
    assert main(["replay", write(tmp_path, "tampered.json", report)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


@pytest.mark.parametrize("epsilon", ["0", "-5"])
def test_replay_refuses_the_catalog_c_failure_at_nonpositive_epsilon(epsilon):
    """The catalog's (C) report states its epsilon in its instance, the one
    copy replay reads, and replay checks it is positive."""
    report = json.loads(json.dumps(CATALOG["noncompact-C-failure"]()["certificates"][0]))
    assert report["instance"] == {"delta": "1/2", "epsilon": "1", "subfamily_cap": 4}
    report["instance"]["epsilon"] = epsilon
    out = verify_report(report)
    assert not out["ok"] and out["checks"] == [
        {"check": "C fails: every listed subfamily defeated", "ok": False}]


def _report(tmp_path, capsys, model, cond, instance):
    """The check report of a scenario, which replays ok."""
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    report_path = tmp_path / "report.json"
    assert main(["check", path, "--out", str(report_path)]) == 0
    assert main(["replay", str(report_path)]) == 0
    capsys.readouterr()
    return json.loads(report_path.read_text())


def _replay_fails(tmp_path, capsys, report) -> list:
    """The rows that fail when a tampered report is replayed (exit 1)."""
    assert main(["replay", write(tmp_path, "tampered.json", report)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    return [c["check"] for c in out["checks"] if not c["ok"]]


@pytest.mark.parametrize("cond", ["C", "L", "SL"])
@pytest.mark.parametrize("key,value", [("epsilon", "0"), ("epsilon", "-5"),
                                       ("delta", "0"), ("delta", "-1/4")])
def test_replay_refuses_a_nonpositive_built_in_family(tmp_path, capsys, cond, key, value):
    """The built-in family needs epsilon > 0 and delta > 0, which the producer
    enforces: a report with either set to 0 or below in its instance, the one
    copy replay reads, fails replay (at epsilon -5 the (C) claim is false, as
    the join -delta of any subfamily covers at level -5)."""
    instance = dict(_x_cover(cond))
    if cond == "SL":
        instance.update(f={"cycle": ["0"]}, g={"cycle": ["1"]})
    report = _report(tmp_path, capsys, "seq_x_end", cond, instance)
    report["instance"][key] = value
    row = ("C fails: every listed subfamily defeated" if cond == "C"
           else "L holds: member k is eps + delta > eps/2 at index k")
    assert _replay_fails(tmp_path, capsys, report) == [row]


@pytest.mark.parametrize("cond", ["T", "BS", "S"])
@pytest.mark.parametrize("side", ["meet_side", "join_side"])
def test_replay_rejects_a_closed_form_off_its_endpoint(tmp_path, capsys, cond, side):
    """Each side's closed form must be the endpoint whose countable meet or
    join it stands for; the constant 5, or the other endpoint, fails."""
    instance = {"f": seq("0", "1"), "g": seq("2")}
    report = _report(tmp_path, capsys, "seq_x_end", cond, instance)
    key = f"closed_form_{side[:-5]}"
    endpoint = report["certificate"][side][key]
    others = [seq("5"),
              instance["g"] if endpoint["cycle"] == instance["f"]["cycle"] else instance["f"]]
    for other in others:
        report["certificate"][side][key] = other
        assert _replay_fails(tmp_path, capsys, report) == \
            [f"{cond} holds: {side} closed form is its endpoint"]


Y_N_INSTANCE = {"f": {"prefix": ["0"], "cycle": ["1"], "omega": "1"},
                "g": {"prefix": ["1"], "cycle": ["2"], "omega": "2"}}
X_D_INSTANCE = {"f": {"cycle": ["0", "1/2"]}, "g": {"cycle": ["2"]}, "epsilon": "1"}
Y_COVER = {"epsilon": "1", "family": [
    {"prefix": ["1", "0"], "cycle": ["2"], "omega": "2"},
    {"prefix": ["-1", "3/2"], "cycle": ["1/2"], "omega": "1/2"}]}


@pytest.mark.parametrize("model,cond,instance,key,row", [
    ("seq_y_end", "N", Y_N_INSTANCE, ["limit"], "N holds: limit = the witness's cycle value"),
    ("seq_x_end", "D", X_D_INSTANCE, ["limit"], "D holds: limit = the witness's cycle value"),
    ("seq_y_end", "C", Y_COVER, ["join_omega"], "C holds: recorded join at omega matches"),
    ("seq_y_end", "SL", {**Y_COVER, "f": MODEL_ELEMS["seq_y_end"], "g": MODEL_ELEMS["seq_y_end"]},
     ["L", "join_omega"], "L holds: recorded join at omega matches"),
], ids=["y-N-limit", "x-D-limit", "y-C-join_omega", "y-SL-join_omega"])
def test_replay_rejects_a_recorded_value_off_its_members(
        tmp_path, capsys, model, cond, instance, key, row):
    path = write(tmp_path, "s.json", _scenario(model, cond, instance))
    report_path = tmp_path / "report.json"
    assert main(["check", path, "--out", str(report_path)]) == 0
    assert main(["replay", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    node = report["certificate"]
    for step in key[:-1]:
        node = node[step]
    node[key[-1]] = "50"
    assert main(["replay", write(tmp_path, "tampered.json", report)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["check"] for c in out["checks"] if not c["ok"]] == [row]


@pytest.mark.parametrize("model,cond,instance,witness,rows", [
    ("seq_y_end", "N", Y_N_INSTANCE, {"prefix": [], "cycle": ["1"], "omega": "2"},
     ["N holds: witness convergent"]),
    ("seq_y_end", "N", Y_N_INSTANCE, {"prefix": [], "cycle": ["1", "2"], "omega": "1"},
     ["N holds: witness convergent", "N holds: limit = the witness's cycle value"]),
    ("seq_x_end", "D", X_D_INSTANCE, {"prefix": [], "cycle": ["1", "3/2"], "omega": None},
     ["D holds: witness convergent", "D holds: limit = the witness's cycle value"]),
], ids=["y-omega-off-cycle", "y-two-values", "x-two-values"])
def test_replay_rejects_a_witness_that_does_not_converge(
        tmp_path, capsys, model, cond, instance, witness, rows):
    """A witness between f and g whose cycle is not one value, or whose omega
    value is not its cycle value, fails "witness convergent"; its limit row
    reads the cycle alone."""
    report = _report(tmp_path, capsys, model, cond, instance)
    report["certificate"]["witness"] = witness
    assert _replay_fails(tmp_path, capsys, report) == rows


@pytest.mark.parametrize("key,value", [("limsup_f", "3"), ("limsup_f", "1/2"),
                                       ("liminf_g", "1/2"), ("liminf_g", "-1")])
def test_replay_recomputes_limsup_and_liminf_from_the_cycles(tmp_path, capsys, key, value):
    """limsup f and liminf g are read from the cycles alone (f's prefix is 3,
    g's is 5); a value off either fails its one row, while limsup f still
    exceeds liminf g."""
    instance = {"f": {"prefix": ["3"], "cycle": ["1", "0"]},
                "g": {"prefix": ["5"], "cycle": ["1", "0"]}}
    report = _report(tmp_path, capsys, "seq_x_end", "N", instance)
    assert (report["certificate"]["limsup_f"], report["certificate"]["liminf_g"]) == ("1", "0")
    report["certificate"][key] = value
    side = "limsup f" if key == "limsup_f" else "liminf g"
    assert _replay_fails(tmp_path, capsys, report) == [f"infeasible: {side} recomputed"]


def _ideal(elem) -> dict:
    """An ideal-membership payload of a library element, which replays ok."""
    payload = {"ideal_membership": {"element": to_jsonable(elem),
                                    **to_jsonable(ideal_membership(elem))}}
    assert verify_report(payload)["ok"]
    return payload


@pytest.mark.parametrize("elem,path,value,row", [
    (SeqFunc([0, 1], [0], omega=0), ["element", "omega"], "1", "ideal: element convergent"),
    (SeqFunc([0, 1], [2], omega=2), ["element", "omega"], "0", "ideal: element convergent"),
    (SeqFunc([0, 1], [0], omega=0), ["cert", "members"], [0],
     "ideal: closure certificate is the finite support"),
    (SeqFunc([0, 1], [2], omega=2), ["cert", "members"], [0, 1],
     "ideal: closure certificate is cofinite with omega"),
    (GeoTail([0, 1], q=1), ["cert", "members"], [],
     "ideal: closure certificate is cofinite with omega"),
    (GeoTail([0, 1], q=1), ["element", "ratio"], "1", "ideal: tail lies in the radical"),
    (GeoTail([0, 1], q=1), ["element", "ratio"], "3/2", "ideal: tail lies in the radical"),
    (GeoTail([0, 1], q=1), ["element", "ratio"], "-1/2", "ideal: tail lies in the radical"),
], ids=["omega-off-zero-cycle", "omega-off-cycle", "finite-members", "cofinite-members",
        "tail-members", "ratio-1", "ratio-3/2", "ratio--1/2"])
def test_replay_rejects_a_tampered_ideal_payload(elem, path, value, row):
    out = verify_report(_with(_ideal(elem), ["ideal_membership", *path], value))
    assert [c["check"] for c in out["checks"] if not c["ok"]] == [row]


@pytest.mark.parametrize("edit", [lambda t: t.pop("prefix"), lambda t: t.update(omega=None)],
                         ids=["no-prefix", "extra-key"])
def test_replay_refuses_a_tail_spelled_otherwise(edit):
    payload = _ideal(GeoTail([1], q=0))
    edit(payload["ideal_membership"]["element"])
    with pytest.raises(MalformedPayload, match="^/certificates/0: malformed ideal payload "
                                                "\\(ValueError: a geometric tail is exactly"):
        verify_report({"certificates": [payload]})


@pytest.mark.parametrize("elem,path,value", [
    (SeqFunc([0, 1], [0], omega=0), ["in_I_alpha"], 1),
    (SeqFunc([0, 1], [0], omega=0), ["in_J_radical"], 1),
    (SeqFunc([0, 1], [2], omega=2), ["in_I_alpha"], 0),
    (SeqFunc([0, 1], [2], omega=2), ["in_J_radical"], 0),
    (GeoTail([0, 1], q=0), ["in_I_alpha"], 1),
    (GeoTail([0, 1], q=1), ["in_J_radical"], 1),
    (SeqFunc.from_support({1: 5}, 0, 0), ["cert", "members"], [True]),
    (SeqFunc.from_support({0: 5, 1: 5}, 0, 0), ["cert", "members"], [1, 0]),
], ids=["seq-I-1", "seq-J-1", "seq-I-0", "seq-J-0", "tail-I-1", "tail-J-1",
        "members-true", "members-decreasing"])
def test_replay_reads_ideal_flags_and_members_in_one_spelling(elem, path, value):
    """The two flags are JSON booleans and the members increasing indices;
    1, 0 and [true] equal true, false and [1] in Python, and are refused."""
    payload = _with(_ideal(elem), ["ideal_membership", *path], value)
    with pytest.raises(MalformedPayload, match="^/certificates/0: malformed ideal payload "
                                                "\\(ValueError: "):
        verify_report({"certificates": [payload]})


def _respelled_index(report, path, value):
    with pytest.raises(MalformedPayload) as exc:
        verify_report({"certificates": [_with(report, path, value)]})
    return str(exc.value)


@pytest.mark.parametrize("value", [[-2], [False], [0, 0], [0, 2], 1],
                         ids=["negative", "false", "repeated", "out-of-range", "not-array"])
def test_replay_reads_a_subfamily_as_distinct_indices(tmp_path, capsys, value):
    """A (C) subfamily names family members once each, by exact ints in range;
    [-2] and [false] stand for member 0 in Python, and [0, 0] repeats it."""
    report = _report(tmp_path, capsys, "seq_y_end", "C", Y_COVER)
    assert report["certificate"]["subfamily"] == [0, 1]
    assert _respelled_index(report, ["certificate", "subfamily"], value).startswith(
        "/certificates/0: malformed condition payload (ValueError: ")


@pytest.mark.parametrize("at,key,value", [(1, "subfamily", [True]), (0, "index", True),
                                          (0, "subfamily", [-1]), (0, "index", -1)])
def test_replay_reads_each_defeat_by_exact_ints(at, key, value):
    """The first two (C) defeats are subfamily [0] at index 1 and [1] at index
    2; true equals 1 in Python, and is refused as the spelling of an index."""
    report = json.loads(json.dumps(CATALOG["noncompact-C-failure"]()["certificates"][0]))
    assert [(e["subfamily"], e["index"]) for e in report["certificate"]["defeats"][:2]] == \
        [([0], 1), ([1], 2)]
    msg = _respelled_index(report, ["certificate", "defeats", at, key], value)
    assert msg.startswith("/certificates/0: malformed condition payload "
                          "(ValueError: not distinct indices in range: ")


@pytest.mark.parametrize("value", [True, False, 0])
def test_replay_reads_subfamily_cap_as_an_int(tmp_path, capsys, value):
    """A cap-1 (C) report lists 8 defeats; a cap spelled true, which equals 1
    in Python, or below 1 is malformed."""
    report = _report(tmp_path, capsys, "seq_x_end", "C", {**X_COVER, "subfamily_cap": 1})
    assert len(report["certificate"]["defeats"]) == 8
    assert _respelled_index(report, ["instance", "subfamily_cap"], value).startswith(
        "/certificates/0: malformed condition payload (ValueError: subfamily_cap is not an "
        "integer at least 1: ")


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,code", [
    (["check", "{scenario}"], 0),
    (["check", "{mismatch}"], 1),
    (["replay", "{report}"], 0),
    (["reproduce", "tong-merge"], 0),
    (["survey", "--max-size", "2"], 0),
], ids=["check", "check-mismatch", "replay", "reproduce", "survey"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, capsys, monkeypatch, argv, code):
    files = {"scenario": write(tmp_path, "s.json", SCENARIO_N_FAILS),
             "mismatch": write(tmp_path, "m.json", dict(SCENARIO_N_FAILS, expect="holds")),
             "report": str(tmp_path / "report.json")}
    assert main(["check", files["scenario"], "--out", files["report"]]) == 0
    sink = tmp_path / "stdout"
    with open(sink, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert main([a.format(**files) for a in argv]) == code
        os.write(fh.fileno(), b"flushed at exit")  # the descriptor now discards
    assert sink.read_bytes() == b""


def _check_exit(tmp_path, capsys, payload, *flags):
    code = main(["check", write(tmp_path, "s.json", payload), *flags])
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
    return code, captured.err


X_C = _scenario("seq_x_end", "C", dict(X_COVER))
F_N = _scenario("finite_full", "N", {"f": FINITE_ELEM, "g": FINITE_ELEM})
F_C = _scenario("finite_full", "C", {"epsilon": "1", "family": [FINITE_ELEM]})
Y_C = _scenario("seq_y_end", "C", {"epsilon": "1", "family": [MODEL_ELEMS["seq_y_end"]]})
Y_N = _scenario("seq_y_end", "N", {"f": MODEL_ELEMS["seq_y_end"], "g": MODEL_ELEMS["seq_y_end"]})


def _with(payload, path, value):
    """A deep copy of payload with the value at a key path replaced."""
    out = json.loads(json.dumps(payload))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("payload,pointer,named", [
    # integer fields must be ints, not floats or booleans
    (_with(SCENARIO_N_FAILS, ["depth"], 64.0), "/depth", "MAX_DEPTH"),
    (_with(SCENARIO_N_FAILS, ["depth"], True), "/depth", "MAX_DEPTH"),
    (_with(SCENARIO_N_FAILS, ["depth"], 0), "/depth", "MAX_DEPTH"),
    (_with(X_C, ["instance", "subfamily_cap"], 2.0), "/instance/subfamily_cap", "MAX_SUBFAMILY_CAP"),
    (_with(F_N, ["space", "points"], 2.0), "/space/points", "MAX_POINTS"),
    (_with(F_N, ["instance", "f", "space", "points"], 2.0), "/instance/f/space/points",
     "MAX_POINTS"),
    (_with(F_N, ["space", "up", 1, 0], 0.0), "/space/up/1/0", "integer"),
    # every limit is named
    (_with(SCENARIO_N_FAILS, ["depth"], 513), "/depth", "MAX_DEPTH = 512"),
    (_with(F_N, ["space", "points"], 33), "/space/points", "MAX_POINTS = 32"),
    (_with(Y_C, ["instance", "family"], [MODEL_ELEMS["seq_y_end"]] * 65), "/instance/family",
     "MAX_FAMILY = 64"),
    (_with(SCENARIO_N_FAILS, ["instance", "f"], {"prefix": ["0"], "cycle": ["1"] * 256}),
     "/instance/f", "MAX_SPAN = 256"),
    # (C) on seq_x_end defeats subfamilies of 1 to 6 members, never none
    (_with(X_C, ["instance", "subfamily_cap"], 0), "/instance/subfamily_cap",
     "MAX_SUBFAMILY_CAP = 6"),
    (_with(X_C, ["instance", "subfamily_cap"], -1), "/instance/subfamily_cap",
     "MAX_SUBFAMILY_CAP = 6"),
    (_with(X_C, ["instance", "subfamily_cap"], 7), "/instance/subfamily_cap",
     "MAX_SUBFAMILY_CAP = 6"),
    # unknown keys at their own pointer
    (_with(SCENARIO_N_FAILS, ["instance", "zz"], 1), "/instance/zz", "unexpected key"),
    (_with(SCENARIO_N_FAILS, ["instance", "f", "zz"], 1), "/instance/f/zz", "unexpected key"),
    (_with(F_N, ["instance", "f", "space", "zz"], 1), "/instance/f/space/zz", "unexpected key"),
    (_with(SCENARIO_N_FAILS, ["a/b~c"], 1), "/a~1b~0c", "unexpected key"),
    # rationals are ints or p/q strings
    (_with(SCENARIO_N_FAILS, ["instance", "f", "cycle", 0], "1.5"), "/instance/f/cycle/0", "p/q"),
    (_with(SCENARIO_N_FAILS, ["instance", "f", "cycle", 1], "1/0"), "/instance/f/cycle/1", "p/q"),
    (_with(SCENARIO_N_FAILS, ["instance", "g", "cycle", 0], 1.5), "/instance/g/cycle/0", "p/q"),
    (_with(SCENARIO_N_FAILS, ["instance", "g", "cycle", 0], True), "/instance/g/cycle/0", "p/q"),
    (_with(X_C, ["instance", "epsilon"], "1/2/3"), "/instance/epsilon", "p/q"),
    (_with(SCENARIO_N_FAILS, ["instance", "f", "omega"], "x"), "/instance/f/omega", "p/q"),
    # empty cycles, bad enum values, missing keys
    (_with(SCENARIO_N_FAILS, ["instance", "f", "cycle"], []), "/instance/f/cycle", "empty"),
    (_with(SCENARIO_N_FAILS, ["model"], "seq_z_end"), "/model", "seq_x_end"),
    (_with(SCENARIO_N_FAILS, ["condition"], "Q"), "/condition", "SL"),
    (_with(SCENARIO_N_FAILS, ["expect"], None), "/expect", "unknown_at_depth"),
    ({"model": "seq_x_end", "condition": "N"}, "/", "'instance'"),
    ({"model": "finite_full", "condition": "N", "instance": {}}, "/", "'space'"),
    (_with(F_N, ["instance", "f"], {"space": FINITE_SPACE_2}), "/instance/f",
     "finite functions"),
    (_with(F_N, ["instance", "f"], {"values": ["1", "2"]}), "/instance/f", "'space'"),
    (_with(F_N, ["instance", "f", "values"], ["1"]), "/instance/f/values", "expected 2 values"),
    (_with(F_N, ["space", "up"], [[0]]), "/space/up", "is not 2 reflexive rows"),
    (_with(F_N, ["space"], {"points": 3, "up": [[0, 1], [1, 2], [2]]}), "/space/up",
     "is not transitive at 0 <= 1"),
    ([], "/", "object"),
    # read against the model: finite_full alone takes a space, and its elements live on it
    (_with(SCENARIO_N_FAILS, ["space"], FINITE_SPACE_2), "/space", "takes no space"),
    (_with(F_N, ["instance", "f", "space", "up"], [[1], [1]]), "/instance/f/space/up",
     "is not 2 reflexive rows"),
    (_with(F_N, ["instance", "f", "space", "up"], [[0, 1], [0, 1]]), "/instance/f/space",
     "scenario's space"),
    (_with(F_C, ["instance", "family"], []), "/instance/family", "empty"),
    # values the model would refuse after the read
    (_with(X_C, ["instance", "epsilon"], "0"), "/instance/epsilon", "must be positive"),
    (_with(Y_N, ["instance", "f"], {"cycle": ["1"]}), "/instance/f/omega", "omega value"),
    (_with(SCENARIO_N_FAILS, ["instance", "f", "omega"], "1"), "/instance/f", "naturals"),
    # the pair the model reads: f <= g everywhere, and on seq_y_end f usc and g lsc
    (_scenario("seq_x_end", "N", {"f": {"cycle": ["2"]}, "g": {"cycle": ["1"]}}),
     "/instance/g", "f <= g fails at point 0"),
    (_with(Y_N, ["instance", "f"], {"cycle": ["1", "0"], "omega": "0"}), "/instance/f/omega",
     "f is not upper semicontinuous"),
    (_with(Y_N, ["instance", "g"], {"cycle": ["2", "3"], "omega": "3"}), "/instance/g/omega",
     "g is not lower semicontinuous"),
    # (D) reads the gap f + epsilon <= g
    (_scenario("finite_full", "D", {"f": FINITE_ELEM, "g": FINITE_ELEM, "epsilon": "1/2"}),
     "/instance/epsilon", "gap f + epsilon <= g fails at point 0"),
    (_scenario("seq_y_end", "D", {"f": MODEL_ELEMS["seq_y_end"], "g": MODEL_ELEMS["seq_y_end"],
                                  "epsilon": "1/2"}),
     "/instance/epsilon", "gap f + epsilon <= g fails at point 0"),
    (_scenario("seq_x_end", "D", {"f": {"cycle": ["1"]}, "g": {"cycle": ["3/2", "1"]},
                                  "epsilon": "1/2"}),
     "/instance/epsilon", "gap f + epsilon <= g fails at point 1"),
    (_scenario("finite_full", "D", {"f": FINITE_ELEM, "g": FINITE_ELEM, "epsilon": "-1"}),
     "/instance/epsilon", "epsilon must be positive"),
    # the cover (C) reads: convergent members on seq_y_end, whose sup is at least epsilon
    (_with(Y_C, ["instance", "family", 0], {"cycle": ["2"]}), "/instance/family/0",
     "family members must be convergent"),
    (_with(Y_C, ["instance", "family", 0], {"cycle": ["2", "3"], "omega": "2"}),
     "/instance/family/0", "family members must be convergent"),
    (_with(F_C, ["instance", "epsilon"], "3"), "/instance/epsilon",
     "cover bound violated at 0: sup 1 < 3"),
    (_with(Y_C, ["instance", "epsilon"], "3"), "/instance/epsilon",
     "cover bound violated at 0: sup 2 < 3"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_check_rejects_at_pointer(tmp_path, capsys, payload, pointer, named):
    code, err = _check_exit(tmp_path, capsys, payload)
    assert code == 2
    assert err.startswith(f"input error: {pointer}: ") and named in err


@pytest.mark.parametrize("points,up,error", [
    (2, [[0], [True]], "/instance/f/space/up/1/0: expected an integer at least 0, got true"),
    (2, [[0], [0, -1]], "/instance/f/space/up/1/1: expected an integer at least 0, got -1"),
    (2, [[0], "x"], '/instance/f/space/up/1: expected an array, got "x"'),
    (2, "x", '/instance/f/space/up: expected an array, got "x"'),
    (2, [[0], [0, 5]], "/instance/f/space/up/1/1: point index 5 outside the space of 2 points"),
    # every entry is read before any index is held to the space
    (2, [[0], [5, True]], "/instance/f/space/up/1/1: expected an integer at least 0, got true"),
    (2, [[0], [0, 1], [2]], "/instance/f/space/up/2/0: point index 2 outside the space of 2 "
                            "points"),
    (2, [[0, 1], [0]], "/instance/f/space/up: preorder [3, 1] is not 2 reflexive rows inside "
                       "the space"),
    (3, [[0], [0, 1]], "/instance/f/space/up: preorder [1, 3] is not 3 reflexive rows inside "
                       "the space"),
    (2, [[0, 1], [1]], "/instance/f/space: not the scenario's space"),
    (2, [[0], [1, 0]], None),  # the scenario's space, its row spelled in another order
])
def test_element_space_is_read_at_its_pointers(points, up, error):
    """An element's space rows are checked in one pass, and a bad, off-space
    or non-preorder row is named at the pointer its entry-by-entry read
    names."""
    scenario = _with(F_N, ["instance", "f", "space"], {"points": points, "up": up})
    if error is None:
        assert parse_scenario(scenario)[2]["f"].space == FiniteSpace(2, [1, 3])
        return
    with pytest.raises(PreconditionViolation) as exc:
        parse_scenario(scenario)
    assert str(exc.value) == error


def _densest_cover(n):
    """A finite_full (C) scenario on the indiscrete space of n points, whose
    rows are the densest, with MAX_FAMILY members: member i is 1 at point
    i mod n and 0 elsewhere, so together they cover at epsilon 1."""
    space = {"points": n, "up": [list(range(n)) for _ in range(n)]}
    family = [{"space": space, "values": ["1" if x == i % n else "0" for x in range(n)]}
              for i in range(MAX_FAMILY)]
    return {**_scenario("finite_full", "C", {"epsilon": "1", "family": family}), "space": space}


def test_finite_space_at_max_points_checks_and_replays(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["check", write(tmp_path, "s.json", _densest_cover(MAX_POINTS)),
                 "--out", str(report)]) == 0
    assert main(["replay", str(report)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["ok"] is True


def test_finite_space_past_max_points_is_refused(tmp_path, capsys):
    code, err = _check_exit(tmp_path, capsys, _densest_cover(MAX_POINTS + 1))
    assert code == 2
    assert err.startswith("input error: /space/points: ") and f"MAX_POINTS = {MAX_POINTS}" in err


def test_check_reads_a_rational_string_in_full(tmp_path, capsys):
    """The scenario reader takes "p" or "p/q" only as the whole string: a
    trailing newline is outside the grammar."""
    instance = {"f": {"cycle": ["0"], "omega": "0"}, "g": {"cycle": ["1"], "omega": "1"}}
    assert _check_exit(tmp_path, capsys,
                       _scenario("seq_y_end", "D", dict(instance, epsilon="1/2")))[0] == 0
    code, err = _check_exit(tmp_path, capsys,
                            _scenario("seq_y_end", "D", dict(instance, epsilon="1/2\n")))
    assert code == 2
    assert err.startswith("input error: /instance/epsilon: ") and "p/q" in err


@pytest.mark.parametrize("text", ["1.5", " 3 ", "1e3", "1_000", "1/2\n", "+1", "01", "1/0",
                                  "1/-2", "1 / 2", "\uff11"])
def test_rat_refuses_a_string_outside_the_grammar(text):
    with pytest.raises(ValueError, match="rational"):
        rat(text)


def test_rat_reads_the_grammar():
    assert [rat(t) for t in ("0", "-0", "7", "-3/4", "6/8", "10/1")] == [
        0, 0, 7, Fraction(-3, 4), Fraction(3, 4), 10]


@pytest.mark.parametrize("model", ["seq_x_end", "seq_y_end", "finite_full"])
@pytest.mark.parametrize("cond", ["T", "BS", "S", "N", "D", "SL"])
def test_check_pair_out_of_order_is_input_error(tmp_path, capsys, model, cond):
    below = {  # each model's element lowered to 0 at point 0 alone
        "seq_x_end": {"prefix": ["0"], "cycle": ["1"]},
        "seq_y_end": {"prefix": ["0"], "cycle": ["2"], "omega": "2"},
        "finite_full": {"space": FINITE_SPACE_2, "values": ["0", "2"]},
    }
    instance = {"f": MODEL_ELEMS[model], "g": below[model]}
    if cond == "D":
        instance.update(epsilon="1")
    if cond == "SL":
        instance.update(_x_cover("L") if model == "seq_x_end" else
                        {"epsilon": "1", "family": [MODEL_ELEMS[model]]})
    code, err = _check_exit(tmp_path, capsys, _scenario(model, cond, instance))
    assert code == 2
    assert err.startswith("input error: /instance/g: f <= g fails at point 0")


@pytest.mark.parametrize("command", ["check", "replay"])
@pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100_000, b"1" * 5000],
                         ids=["not-utf8", "deep", "long-integer"])
def test_unreadable_json_is_input_error(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_bytes(text)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error")


def test_scenario_reader_reads_every_element_space(monkeypatch):
    """Each element's space is read and must be the scenario's: the densest
    (C) scenario builds one FiniteSpace, since each member's rows are those
    the scenario's space is written with; a member's space written in another
    key order is the same space, one whose rows list their points in another
    order is built and found equal, and a member on another space is refused
    at its ``space``."""
    built = []
    init = FiniteSpace.__init__

    def counted(self, n, up):
        built.append(n)
        init(self, n, up)

    monkeypatch.setattr(FiniteSpace, "__init__", counted)
    scenario = _densest_cover(MAX_POINTS)
    assert len(parse_scenario(scenario)[2]["family"]) == MAX_FAMILY
    assert built == [MAX_POINTS]
    member = scenario["instance"]["family"][5]
    member["space"] = {"up": member["space"]["up"], "points": MAX_POINTS}  # another key order
    parse_scenario(scenario)
    assert built == [MAX_POINTS] * 2
    member["space"] = {"points": MAX_POINTS, "up": [list(range(MAX_POINTS))[::-1]] * MAX_POINTS}
    parse_scenario(scenario)
    assert built == [MAX_POINTS] * 4
    member["space"] = {"points": MAX_POINTS, "up": [[x] for x in range(MAX_POINTS)]}
    with pytest.raises(PreconditionViolation,
                       match="^/instance/family/5/space: not the scenario's space$"):
        parse_scenario(scenario)


@pytest.mark.parametrize("model", ["seq_x_end", "seq_y_end", "finite_full"])
@pytest.mark.parametrize("cond", ["C", "L"])
@pytest.mark.parametrize("key", ["f", "g"])
def test_cover_scenario_with_an_unread_pair_is_refused(tmp_path, capsys, model, cond, key):
    """(C) and (L) read no f or g, so a scenario carrying either is refused at
    that key's pointer rather than written into a report that replay ignores."""
    instance = _x_cover(cond) if model == "seq_x_end" else {
        "epsilon": "1", "family": [MODEL_ELEMS[model]]}
    assert _check_exit(tmp_path, capsys, _scenario(model, cond, instance))[0] == 0
    code, err = _check_exit(tmp_path, capsys,
                            _scenario(model, cond, {**instance, key: MODEL_ELEMS[model]}))
    assert code == 2
    assert err.startswith(f"input error: /instance/{key}: condition ({cond}) on {model} "
                          f"reads no {key}")
