"""The insertion procedures on one frame of int rows against their pairwise
element chains (``oracles.*_pairwise``): equal elements, byte-equal JSON,
and the same error at the same point or step."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.cli import reproduce
from normlab.errors import CarrierMismatch, NormlabError, PreconditionViolation
from normlab.finite_space import FiniteFunc, FiniteSpace, block_indicators
from normlab.insertion_engine import (dieudonne_iterate, increasing_approx, midpoint_oracle,
                                      tong_merge)
from normlab.lattice_core import finite_join, lay_out
from normlab.replay import MalformedPayload, verify_report
from normlab.seq_model import SeqFunc
from normlab.serialize import to_jsonable
from oracles import (block_indicators_pairwise, dieudonne_iterate_pairwise,
                     finite_join_pairwise, increasing_approx_pairwise, tong_merge_pairwise)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
SPACES = [FiniteSpace.discrete(3), FiniteSpace(4, [0b0011, 0b0010, 0b1100, 0b1000])]
CARRIERS = ("finite", "seq_x", "y")


def elements(carrier, space=SPACES[1]):
    """Elements of one carrier: functions on ``space``, sequences on the
    naturals, or sequences with an omega value."""
    if carrier == "finite":
        return st.lists(rationals, min_size=space.n, max_size=space.n).map(
            lambda vals: FiniteFunc(space, vals))
    omega = rationals if carrier == "y" else st.none()
    return st.builds(SeqFunc, st.lists(rationals, max_size=3),
                     st.lists(rationals, min_size=1, max_size=4), omega)


def outcome(fn, *args):
    """The JSON a call's result lowers to, or its error's type and message."""
    try:
        return "ok", json.dumps(to_jsonable(fn(*args)), sort_keys=True)
    except NormlabError as exc:
        return type(exc).__name__, str(exc)


def nonnegative(elem):
    return elem.join(elem.const_like(0))


@given(st.sampled_from(CARRIERS).flatmap(lambda c: st.lists(elements(c), min_size=1,
                                                            max_size=5)))
def test_finite_join_matches_pairwise(family):
    got, want = finite_join(family), finite_join_pairwise(family)
    assert got == want
    assert outcome(finite_join, family) == outcome(finite_join_pairwise, family)


@st.composite
def merge_inputs(draw):
    carrier = draw(st.sampled_from(CARRIERS))
    a_seq = draw(st.lists(elements(carrier), min_size=1, max_size=5))
    b_seq = draw(st.lists(elements(carrier), min_size=1, max_size=5))
    lift = draw(st.sampled_from([0, 1, 6]))  # 6 lifts b above every a: a feasible merge
    return a_seq, [b + lift for b in b_seq]


@given(merge_inputs())
def test_tong_merge_matches_pairwise(inputs):
    a_seq, b_seq = inputs
    got = outcome(tong_merge, a_seq, b_seq)
    assert got == outcome(tong_merge_pairwise, a_seq, b_seq)
    if got[0] == "ok":
        frame, pairwise = tong_merge(a_seq, b_seq), tong_merge_pairwise(a_seq, b_seq)
        for key in ("a_norm", "b_norm", "u_seq", "v_seq"):
            assert getattr(frame, key) == getattr(pairwise, key)
        assert frame.result == pairwise.result


def _convex_oracle(t):
    """The point a fraction t of the way from lower to upper."""
    return lambda lower, upper, eps: lower * (1 - t) + upper * t


@st.composite
def iteration_inputs(draw):
    carrier = draw(st.sampled_from(CARRIERS))
    f = draw(elements(carrier))
    g = f + nonnegative(draw(elements(carrier))) * draw(st.sampled_from([0, 1, 3]))
    if draw(st.booleans()):  # f <= g may fail: both raise at the same point
        f, g = g, f
    t = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3, 7), Fraction(1)]))
    return f, g, draw(st.integers(1, 8)), t


@given(iteration_inputs())
@settings(max_examples=60)
def test_dieudonne_iterate_matches_pairwise(inputs):
    f, g, steps, t = inputs
    for oracle in (midpoint_oracle, _convex_oracle(t)):
        got = outcome(dieudonne_iterate, oracle, f, g, steps)
        assert got == outcome(dieudonne_iterate_pairwise, oracle, f, g, steps)
        if got[0] == "ok":
            assert dieudonne_iterate(oracle, f, g, steps).a_seq == \
                dieudonne_iterate_pairwise(oracle, f, g, steps).a_seq


@st.composite
def approx_inputs(draw):
    carrier = draw(st.sampled_from(CARRIERS))
    reference = draw(elements(carrier))
    rates = draw(st.lists(st.sampled_from([Fraction(1, 2 ** i) for i in range(5)]),
                          min_size=1, max_size=5))
    c_seq = []
    for r in rates:  # reference + e with ||e|| <= r, or at times just beyond it
        e = draw(elements(carrier))
        scale = r / max(e.norm(), 1) * draw(st.sampled_from([0, Fraction(1, 2), 1, 2]))
        c_seq.append(reference + e * scale)
    return reference, c_seq, rates


@given(approx_inputs())
def test_increasing_approx_matches_pairwise(inputs):
    reference, c_seq, rates = inputs
    got = outcome(increasing_approx, reference, c_seq, rates)
    assert got == outcome(increasing_approx_pairwise, reference, c_seq, rates)
    if got[0] == "ok":
        assert increasing_approx(reference, c_seq, rates) == \
            increasing_approx_pairwise(reference, c_seq, rates)


@given(st.sampled_from(SPACES).flatmap(lambda space: st.tuples(st.just(space), st.lists(
    st.lists(st.sampled_from([Fraction(-1), Fraction(1, 3), Fraction(1, 2), Fraction(2)]),
             min_size=space.n, max_size=space.n), min_size=1, max_size=3))))
def test_block_indicators_match_pairwise(inputs):
    space, values = inputs
    gens = [FiniteFunc(space, v) for v in values]
    got, want = block_indicators(space, gens), block_indicators_pairwise(space, gens)
    assert got == want
    assert json.dumps(to_jsonable(got)) == json.dumps(to_jsonable(want))


# -- errors at the same point or step ------------------------------------------

def test_lay_out_is_one_shape_and_one_denominator():
    a, b = SeqFunc([1], [Fraction(1, 2), 0]), SeqFunc([], [Fraction(1, 3), 1, 2])
    shape, den, rows = lay_out([a, b])
    assert shape == (1, 6, False) and den == 6
    assert rows == [[6, 3, 0, 3, 0, 3, 0], [2, 6, 12, 2, 6, 12, 2]]
    with pytest.raises(CarrierMismatch, match="omega"):
        lay_out([a, SeqFunc([], [1], 1)])
    with pytest.raises(PreconditionViolation, match="not a sequence function"):
        lay_out([a, FiniteFunc(SPACES[0], [0, 0, 0])])
    with pytest.raises(PreconditionViolation, match="different spaces"):
        lay_out([FiniteFunc(SPACES[0], [0, 0, 0]), FiniteFunc(FiniteSpace.discrete(3), [1, 1, 1]),
                 FiniteFunc(FiniteSpace(3, [7, 6, 4]), [1, 1, 1])])


@pytest.mark.parametrize("a_seq,b_seq,point", [
    ([SeqFunc([0, 2], [0]), SeqFunc([], [1])], [SeqFunc([1], [0])], "1"),
    ([SeqFunc([], [0], 2)], [SeqFunc([3], [0, 1], 1)], "omega"),
    ([FiniteFunc(SPACES[0], [0, 0, 1])], [FiniteFunc(SPACES[0], [0, 0, 0])], "2"),
])
def test_merge_names_the_same_point_where_a_exceeds_b(a_seq, b_seq, point):
    want = outcome(tong_merge_pairwise, a_seq, b_seq)
    assert want == ("PreconditionViolation", f"meet of a_seq exceeds join of b_seq at {point}")
    assert outcome(tong_merge, a_seq, b_seq) == want


@pytest.mark.parametrize("a_seq,b_seq", [
    ([SeqFunc([], [0])], [SeqFunc([], [1], 1)]),
    ([SeqFunc([], [0]), SeqFunc([], [0], 0)], [SeqFunc([], [1])]),
    ([SeqFunc([], [0])], [FiniteFunc(SPACES[0], [1, 1, 1])]),
    ([FiniteFunc(SPACES[0], [0, 0, 0])], [SeqFunc([], [1])]),
    ([FiniteFunc(SPACES[0], [0, 0, 0])], [FiniteFunc(FiniteSpace(3, [7, 6, 4]), [1, 1, 1])]),
])
def test_merge_refuses_mixed_carriers_as_the_pairwise_chain_does(a_seq, b_seq):
    want = outcome(tong_merge_pairwise, a_seq, b_seq)
    assert want[0] in ("CarrierMismatch", "PreconditionViolation")
    assert outcome(tong_merge, a_seq, b_seq) == want


def test_approximation_refuses_mixed_carriers_as_the_pairwise_chain_does():
    ref = SeqFunc([], [0])
    for c in (SeqFunc([], [0], 0), FiniteFunc(SPACES[0], [0, 0, 0])):
        want = outcome(increasing_approx_pairwise, ref, [c], [1])
        assert want[0] in ("CarrierMismatch", "PreconditionViolation")
        assert outcome(increasing_approx, ref, [c], [1]) == want


@pytest.mark.parametrize("carrier", CARRIERS)
@pytest.mark.parametrize("k", [1, 2, 5])
def test_iteration_names_the_step_whose_witness_leaves_its_sandwich(carrier, k):
    f = {"finite": FiniteFunc(SPACES[1], [0, 1, 0, 1]), "seq_x": SeqFunc([0], [1, 0]),
         "y": SeqFunc([0], [1, 0], 1)}[carrier]
    g = f + 1
    for leave in ("above", "below"):
        def breaks_at_k(lower, upper, eps):
            if eps == Fraction(1, 2 ** k):
                return upper + eps if leave == "above" else lower - eps
            return midpoint_oracle(lower, upper, eps)
        want = outcome(dieudonne_iterate_pairwise, breaks_at_k, f, g, 6)
        assert want == ("OracleContractViolation",
                        f"oracle contract broken at step {k}: witness outside its sandwich")
        assert outcome(dieudonne_iterate, breaks_at_k, f, g, 6) == want


@pytest.mark.parametrize("h", [
    SeqFunc([1, 0, 1, 0, 1], [0]),           # a longer prefix than the frame's
    SeqFunc([], [0, 0, 1, 0, 1]),            # a cycle of 5, which does not divide 2
    SeqFunc([0, 1, 0, 1, 0, 1, 1], [1, 0, Fraction(1, 2)]),
])
def test_iteration_widens_its_frame_for_a_wider_witness(h):
    """A witness lower + (upper - lower) * h, for h of another shape valued in
    [0, 1], has a longer prefix or a cycle the frame's span does not divide;
    the frame widens and the trace is the pairwise chain's."""
    f, g = SeqFunc([0], [0, 1]), SeqFunc([1], [2, 1])

    def clamped(lower, upper, eps):
        return lower + (upper - lower) * h

    frame = dieudonne_iterate(clamped, f, g, 8)
    assert frame.a_seq == dieudonne_iterate_pairwise(clamped, f, g, 8).a_seq
    shapes = {a._shape for a in frame.a_seq}
    assert any(k > 1 or 2 % c for k, c, _ in shapes)
    assert verify_report(to_jsonable(frame))["ok"]

    def wide_and_outside(lower, upper, eps):  # widens the frame, then breaks at step 3
        a = clamped(lower, upper, eps)
        return a + 1 if eps == Fraction(1, 8) else a

    want = outcome(dieudonne_iterate_pairwise, wide_and_outside, f, g, 8)
    assert want[0] == "OracleContractViolation" and "step 3" in want[1]
    assert outcome(dieudonne_iterate, wide_and_outside, f, g, 8) == want


def test_iteration_refuses_a_witness_on_another_carrier():
    f, g = SeqFunc([], [0]), SeqFunc([], [1])
    for other in (SeqFunc([], [0], 0), FiniteFunc(SPACES[0], [0, 0, 0])):
        want = outcome(dieudonne_iterate_pairwise, lambda lo, up, eps: other, f, g, 3)
        assert want[0] in ("CarrierMismatch", "PreconditionViolation")
        assert outcome(dieudonne_iterate, lambda lo, up, eps: other, f, g, 3) == want


# -- replay reads one spelling per value -----------------------------------------

def _respelled(path, spelling):
    """The dieudonne-rate report with the value at ``path`` under its first
    certificate respelled, and that value as written."""
    report = json.loads(json.dumps(reproduce("dieudonne-rate")))
    node = report["certificates"][0]
    for key in path[:-1]:
        node = node[key]
    written, node[path[-1]] = node[path[-1]], spelling(node[path[-1]])
    return report, written


@pytest.mark.parametrize("path,spelling,reason", [
    (("a_seq", 0, "prefix", 0), lambda v: "6/8", "not a rational in lowest terms: '6/8'"),
    (("g", "cycle", 0), lambda v: "1/1", "not a rational: '1/1'"),
    (("g", "cycle", 0), lambda v: 1, "not a rational: 1"),
    (("f", "cycle", 0), lambda v: "-0", "not a rational: '-0'"),
    (("f", "cycle", 0), lambda v: 0, "not a rational: 0"),
    (("step_bounds", 0), lambda v: "2/4", "not a rational in lowest terms: '2/4'"),
])
def test_replay_refuses_another_spelling_of_a_value(path, spelling, reason):
    report, written = _respelled(path, spelling)
    assert {"a_seq": "3/4", "g": "1", "f": "0", "step_bounds": "1/2"}[path[0]] == written
    with pytest.raises(MalformedPayload) as exc:
        verify_report(report)
    assert str(exc.value) == \
        f"/certificates/0: malformed iteration payload (ValueError: {reason})"
    assert verify_report(_respelled(path, lambda v: v)[0])["ok"]
