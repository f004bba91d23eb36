"""Batch front door: scenario checks, canned examples, surveys, replay.

Subcommands:

* ``check <scenario.json>``: read the scenario in one walk against its model
  (``serialize.parse_scenario``), run the requested condition check, write a
  JSON report, which echoes the scenario's ``expect`` and ``depth`` (read by
  no route).  Exit 0 when the verdict matches the scenario's expectation (or
  none is stated), 1 on a verdict mismatch, 2 on input errors, each named by
  its JSON pointer: the reader's own, or ``/instance/`` and the key of a value
  the model's check rejected.
* ``reproduce <id>``: run a canned example and assert its golden facts.
* ``survey --max-size N``: exhaustive finite-topology survey as CSV, for N
  from 1 to ``MAX_ENUM_POINTS`` (any other N exits 2 before any work).
* ``replay <report.json>``: re-verify every certificate in a report through
  the independent verifier.

All mathematics is exact, so there are no tolerance flags, and reports are
deterministic given the scenario.  The argument parser is built once per
process, on the first call to :func:`main`, and reused by later calls.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import replay as replay_mod
from .conditions import SeqXEndModel, SeqYEndModel, check_condition
from .errors import NormlabError, UnknownExampleId
from .finite_space import (
    MAX_ENUM_POINTS,
    FiniteFunc,
    FiniteSpace,
    enumerate_spaces,
    indicator,
    insert_finite,
    Infeasible,
    is_normal,
)
from .insertion_engine import dieudonne_iterate, midpoint_oracle, tong_merge
from .rationals import ONE
from .seq_model import (
    GeoTail,
    InfeasibleCert,
    SeqFunc,
    brute_force_insertable,
    ideal_membership,
    insert_convergent,
    insert_on_y,
    local_compact_minorants,
    threshold_indicator,
)
from .serialize import parse_scenario, to_jsonable


def _print(text: str) -> None:
    """Write to stdout.  When the reader has closed the pipe (``| head``), the
    rest is dropped: stdout's descriptor is pointed at the null device, so the
    interpreter's flush at exit raises nothing either."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _emit(report: dict, out_path: str | None) -> None:
    """Write a report as one line of sorted-key JSON.  Without an indent,
    ``json.dumps`` runs CPython's C encoder."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    _print(text)


def _read_json(path: str):
    """A file's JSON value; a file that cannot be read or parsed is an input error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or JSON
        raise NormlabError(str(exc)) from None


def cmd_check(args) -> int:
    try:
        model, condition, instance, depth, expected = parse_scenario(_read_json(args.scenario))
        report = check_condition(model, condition, instance)
    except NormlabError as exc:  # a model's value check names the instance key it read
        where = "" if exc.key is None else f"/instance/{exc.key}: "
        print(f"input error: {where}{exc}", file=sys.stderr)
        return 2
    payload = to_jsonable(report)
    payload["expected"], payload["depth"] = expected, depth
    _emit(payload, args.out)
    if expected is not None and expected != report.verdict:
        print(f"verdict mismatch: expected {expected}, got {report.verdict}",
              file=sys.stderr)
        return 1
    return 0


# -- reproduction catalog ----------------------------------------------------

def _ex_tong_merge():
    space = FiniteSpace.discrete(1)
    const = lambda v: FiniteFunc(space, [v])
    trace = tong_merge([const(3), const(2), const(1)],
                       [const(0), const(1), const(2)])
    asserts = {
        "u_steps": [t.values[0] for t in trace.u_seq] == [Fraction(0), Fraction(1), Fraction(1)],
        "v_steps": [t.values[0] for t in trace.v_seq] == [Fraction(3), Fraction(2), Fraction(1)],
        "merged_value_is_1": trace.result.values[0] == 1,
    }
    return {"example": "tong-merge", "assertions": asserts,
            "certificates": [to_jsonable(trace)]}


def _ex_chi_evens():
    f = SeqFunc.periodic([1, 0])
    result = insert_convergent(f, f)
    report = check_condition(SeqXEndModel(), "N", {"f": f, "g": f})
    asserts = {
        "infeasible": isinstance(result, InfeasibleCert),
        "limsup_is_1": result.limsup_f == 1,
        "liminf_is_0": result.liminf_g == 0,
        "brute_force_agrees": brute_force_insertable(f, f) is None,
        "refutes_constant_0": result.refute(SeqFunc.constant(0)) == 0,
        "refutes_constant_1": result.refute(SeqFunc.constant(1)) == 1,
    }
    return {"example": "chi-evens-no-insertion", "assertions": asserts,
            "certificates": [to_jsonable(report)]}


def _ex_noncompact():
    report = check_condition(SeqXEndModel(), "C", {"epsilon": ONE, "delta": Fraction(1, 2),
                                                   "subfamily_cap": 4})
    members = ideal_membership(SeqFunc.constant(1, with_omega=True))
    asserts = {
        "C_fails": report.verdict == "fails",
        "all_listed_subfamilies_defeated": all(
            d["join_value"] < 0 for d in report.certificate["defeats"]),
        "unit_not_in_I_alpha": not members["in_I_alpha"],
    }
    return {"example": "noncompact-C-failure", "assertions": asserts,
            "certificates": [to_jsonable(report)]}


def _ex_i_alpha():
    finite = SeqFunc.from_support({0: 2, 3: Fraction(-1, 2)}, 0, 0)
    tail = SeqFunc.constant(Fraction(1, 3), with_omega=True)
    m_fin = ideal_membership(finite)
    m_tail = ideal_membership(tail)
    asserts = {
        "finite_support_in_ideal": m_fin["in_I_alpha"],
        "finite_support_cert_is_finite": m_fin["cert"].is_finite(),
        "nonvanishing_not_in_ideal": not m_tail["in_I_alpha"],
        "nonvanishing_cert_contains_omega": m_tail["cert"].contains_omega,
    }
    return {"example": "I-alpha-finite-support", "assertions": asserts,
            "certificates": [{"finite_support": to_jsonable(m_fin),
                              "nonvanishing": to_jsonable(m_tail)}]}


def _ex_radical_gap():
    tail = GeoTail(prefix=[], q=1, ratio=Fraction(1, 2))
    m = ideal_membership(tail)
    asserts = {
        "in_radical": m["in_J_radical"],
        "not_in_I_alpha": not m["in_I_alpha"],
        "tail_vanishes_at_omega": tail.omega == 0,
        "tail_has_infinite_support": not tail.has_finite_support(),
    }
    return {"example": "radical-gap", "assertions": asserts,
            "certificates": [to_jsonable(m)]}


def _ex_local_compact():
    b = SeqFunc([3, 1, 2, 1], (Fraction(1, 2),), Fraction(1, 2))
    ok_member, ok_below, ok_agree = True, True, True
    for n in (0, 2, 5):
        a_n = local_compact_minorants(b, n)
        ok_member &= ideal_membership(a_n)["in_I_alpha"]
        ok_below &= a_n.le(b)
        ok_agree &= all(a_n.at(k) == b.at(k) for k in range(n + 1))
    asserts = {"minorants_in_I_alpha": ok_member,
               "minorants_below_b": ok_below,
               "minorants_agree_to_depth": ok_agree}
    return {"example": "local-compact-witness", "assertions": asserts,
            "certificates": [to_jsonable(local_compact_minorants(b, 5))]}


def _ex_minimality():
    # common zero set of the compactness ideal is exactly {omega}
    killers = [SeqFunc.from_support({k: 1}, 0, 0) for k in range(8)]
    every_k_covered = all(k.omega == 0 and ideal_membership(k)["in_I_alpha"]
                          for k in killers)
    no_common_natural_zero = all(
        any(killers[k].at(j) != 0 for k in range(8)) for j in range(8))
    # radical at omega: membership is exactly vanishing at omega, and any
    # function outside it is invertible modulo it (certifying maximality)
    inside = SeqFunc.from_support({1: 5}, 0, 0)
    outside = SeqFunc.constant(Fraction(2, 3), with_omega=True)
    inv_mod = outside * Fraction(3, 2)
    asserts = {
        "killers_lie_in_I_alpha": every_k_covered,
        "no_shared_zero_below_omega": no_common_natural_zero,
        "vanishing_at_omega_in_radical": ideal_membership(inside)["in_J_radical"],
        "nonvanishing_escapes_radical": not ideal_membership(outside)["in_J_radical"],
        "escapee_invertible_mod_radical": (
            (inv_mod - 1).omega == 0),
    }
    return {"example": "one-point-minimality-criteria", "assertions": asserts,
            "certificates": [to_jsonable(ideal_membership(inside))]}


def _ex_kt_thresholds():
    # disjoint closed sets on the compactification: evens-with-omega vs a finite set
    c_set = SeqFunc.periodic([1, 0], omega=1)
    d_set = SeqFunc.from_support({1: 1, 3: 1}, 0, 0)
    f = c_set
    g = ONE - d_set
    w = insert_on_y(f, g)
    c = w.func
    u_ind = threshold_indicator(c, Fraction(2, 3), strict=True)
    v_ind = ONE - threshold_indicator(c, Fraction(1, 3))
    asserts = {
        "witness_between": f.le(c) and c.le(g),
        "witness_convergent": c.is_convergent(),
        "U_covers_first_closed_set": c_set.le(u_ind),
        "V_covers_second_closed_set": d_set.le(v_ind),
        "U_V_disjoint": (u_ind.meet(v_ind)).value_bounds()[1] == 0,
    }
    report = check_condition(SeqYEndModel(), "N", {"f": f, "g": g})
    return {"example": "KT-thresholds", "assertions": asserts,
            "certificates": [to_jsonable(report)]}


def _ex_dieudonne_rate():
    f = SeqFunc.from_support({0: 1}, 0)
    g = SeqFunc.constant(1)
    trace = dieudonne_iterate(midpoint_oracle, f, g, 20)
    gap = (trace.a_seq[19] - trace.a_seq[9]).norm()
    asserts = {
        "twenty_steps": len(trace.a_seq) == 20,
        "tail_10_to_20_within_2^-9": gap <= Fraction(1, 512),
    }
    return {"example": "dieudonne-rate", "assertions": asserts,
            "certificates": [to_jsonable(trace)]}


CATALOG = {
    "tong-merge": _ex_tong_merge,
    "chi-evens-no-insertion": _ex_chi_evens,
    "noncompact-C-failure": _ex_noncompact,
    "I-alpha-finite-support": _ex_i_alpha,
    "radical-gap": _ex_radical_gap,
    "local-compact-witness": _ex_local_compact,
    "one-point-minimality-criteria": _ex_minimality,
    "KT-thresholds": _ex_kt_thresholds,
    "dieudonne-rate": _ex_dieudonne_rate,
}


def reproduce(example_id: str) -> dict:
    if example_id not in CATALOG:
        raise UnknownExampleId(example_id, CATALOG)
    return CATALOG[example_id]()


def cmd_reproduce(args) -> int:
    try:
        report = reproduce(args.example_id)
    except UnknownExampleId as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.out)
    if not all(report["assertions"].values()):
        failed = [k for k, v in report["assertions"].items() if not v]
        print(f"golden assertions failed: {failed}", file=sys.stderr)
        return 1
    return 0


# -- survey ------------------------------------------------------------------

def _insertion_always_feasible(space: FiniteSpace) -> bool:
    """Exhaustive 0/1 check: every closed-below-open pair admits an insertion."""
    closed = space.closed_sets()
    for c in closed:
        for o in space.opens:
            if c & ~o:
                continue
            result = insert_finite(indicator(space, c), indicator(space, o))
            if isinstance(result, Infeasible):
                return False
    return True


def survey_rows(n_max: int) -> list[dict]:
    rows = []
    for n in range(1, n_max + 1):
        for space in enumerate_spaces(n):
            normal, _ = is_normal(space)
            feasible = _insertion_always_feasible(space)
            rows.append({
                "points": n,
                "opens_count": len(space.opens),
                "normal": normal,
                "insertion_always_feasible": feasible,
                "agreement": (not feasible) or normal,
            })
    return rows


def cmd_survey(args) -> int:
    rows = survey_rows(args.max_size)  # argparse holds --max-size to 1..MAX_ENUM_POINTS
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[
        "points", "opens_count", "normal", "insertion_always_feasible", "agreement"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    _print(text)
    if any(not r["agreement"] for r in rows):
        print("counterexample found: insertion feasible on a non-normal space",
              file=sys.stderr)
        return 1
    return 0


def cmd_replay(args) -> int:
    try:
        result = replay_mod.verify_report(_read_json(args.report))
    except (NormlabError, replay_mod.MalformedPayload) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    _emit(result, args.out)
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="exact insertion, separation, and compactness checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario file")
    p_check.add_argument("scenario")
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("reproduce", help="run a canned example")
    p_rep.add_argument("example_id")
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_reproduce)

    p_sur = sub.add_parser("survey", help="exhaustive finite-topology survey")
    p_sur.add_argument("--max-size", type=int, default=3,
                       choices=range(1, MAX_ENUM_POINTS + 1))
    p_sur.add_argument("--out")
    p_sur.set_defaults(func=cmd_survey)

    p_play = sub.add_parser("replay", help="re-verify certificates in a report")
    p_play.add_argument("report")
    p_play.add_argument("--out")
    p_play.set_defaults(func=cmd_replay)

    return parser


_parser = functools.cache(build_parser)  # built on the first call to main, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
