"""Merge, iterative refinement, join streams, monotone approximation."""

import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from normlab import conditions
from normlab.cli import main
from normlab.errors import (
    BoundViolation,
    EmptyFamily,
    NormlabError,
    OracleContractViolation,
    PreconditionViolation,
)
from normlab.finite_space import (
    FiniteFunc,
    FiniteSpace,
    NotSeparable,
    block_indicators,
    enumerate_spaces,
    envelopes,
    indicator,
)
from normlab.insertion_engine import (
    FiniteUrysohnCarrier,
    IterationTrace,
    YUrysohnCarrier,
    _level_pairs,
    dieudonne_iterate,
    farey_fractions,
    increasing_approx,
    midpoint_oracle,
    tong_merge,
    urysohn_join_stream,
)
from normlab.lattice_core import AlgElement, finite_join, rescale_to_unit, unscale
from normlab.rationals import ZERO
from normlab import replay
from normlab.replay import (
    MAX_FRAME,
    MalformedPayload,
    _check,
    _continuous,
    _frac,
    _Reader,
    _verify_block_replay,
    _verify_iteration,
    _verify_merge,
    _verify_urysohn,
    verify_report,
)
from normlab.seq_model import SeqFunc, threshold_indicator
from normlab.serialize import to_jsonable
from oracles import (continuous_by_fibers, level_pairs_by_scan, probe_points,
                     random_finite_func, random_seq_func, random_usc_lsc_pair,
                     threshold_by_fractions,
                     up_sets_scan, urysohn_by_components, urysohn_y_by_cases, with_omega)

POINT = FiniteSpace.discrete(1)


def const(v):
    return FiniteFunc(POINT, [v])


def test_merge_single_point_worked_example():
    trace = tong_merge([const(3), const(2), const(1)],
                       [const(0), const(1), const(2)])
    assert [t.values[0] for t in trace.u_seq] == [0, 1, 1]
    assert [t.values[0] for t in trace.v_seq] == [3, 2, 1]
    assert trace.result.values[0] == 1
    assert verify_report(to_jsonable(trace))["ok"]


def test_merge_constant_sandwich():
    trace = tong_merge([const(Fraction(5, 3))], [const(Fraction(5, 3))])
    assert trace.result.values[0] == Fraction(5, 3)


def test_merge_two_point_discrete_example():
    space = FiniteSpace.discrete(2)
    mk = lambda a, b: FiniteFunc(space, [a, b])
    trace = tong_merge([mk(2, 2), mk(1, 2)], [mk(0, 1), mk(1, 2)])
    assert trace.result.values == (Fraction(1), Fraction(2))


def test_merge_valid_under_permutation():
    # the merged element may depend on enumeration order (a = [5, 0] with
    # b = [1, 1] yields 1, while a = [0, 5] yields 0), but every order
    # produces a valid insertion between the normalized endpoints
    assert tong_merge([const(5), const(0)],
                      [const(1), const(1)]).result.values[0] == 1
    assert tong_merge([const(0), const(5)],
                      [const(1), const(1)]).result.values[0] == 0
    rng = random.Random(5)
    space = FiniteSpace.discrete(3)
    mk = lambda: FiniteFunc(space, [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                                    for _ in range(3)])
    a_seq = [mk() for _ in range(4)]
    b_seq = [f + 5 for f in a_seq]
    lo = tong_merge(a_seq, b_seq).a_norm[-1]
    hi = tong_merge(a_seq, b_seq).b_norm[-1]
    for _ in range(5):
        pa, pb = list(a_seq), list(b_seq)
        rng.shuffle(pa)
        rng.shuffle(pb)
        trace = tong_merge(pa, pb)
        assert verify_report(to_jsonable(trace))["ok"]
        assert lo.le(trace.result) and trace.result.le(hi)


def test_merge_preconditions():
    with pytest.raises(EmptyFamily):
        tong_merge([], [const(1)])
    with pytest.raises(PreconditionViolation):
        tong_merge([const(2)], [const(1)])


def test_merge_sandwich_between_normalized_ends():
    rng = random.Random(11)
    space = FiniteSpace.discrete(2)
    for _ in range(30):
        a_seq = [FiniteFunc(space, [rng.randint(-3, 3), rng.randint(-3, 3)])
                 for _ in range(4)]
        b_seq = [f + rng.randint(4, 6) for f in a_seq]
        trace = tong_merge(a_seq, b_seq)
        assert trace.a_norm[-1].le(trace.result)
        assert trace.result.le(trace.b_norm[-1])


def test_iterate_constant_pair():
    f = SeqFunc.constant(1)
    trace = dieudonne_iterate(midpoint_oracle, f, f, 6)
    for n, a in enumerate(trace.a_seq, start=1):
        assert (a - f).norm() <= Fraction(2, 2 ** n)


def test_iterate_worked_instance_rate():
    f = SeqFunc.from_support({0: 1}, 0)
    g = SeqFunc.constant(1)
    trace = dieudonne_iterate(midpoint_oracle, f, g, 20)
    assert len(trace.a_seq) == 20
    for n, a in enumerate(trace.a_seq, start=1):
        assert (f - Fraction(1, 2 ** n)).le(a)
        assert a.le(g)
    assert (trace.a_seq[19] - trace.a_seq[9]).norm() <= Fraction(1, 512)


def test_iterate_single_step():
    f, g = SeqFunc.constant(0), SeqFunc.constant(1)
    trace = dieudonne_iterate(midpoint_oracle, f, g, 1)
    assert (f - Fraction(1, 2)).le(trace.a_seq[0])
    assert trace.a_seq[0].le(g)


@pytest.mark.parametrize("leave_at", [1, 3])
def test_iterate_rejects_faulty_oracle(leave_at):
    """An oracle that honours every step before ``leave_at`` and then returns
    a witness above its upper end is caught at that step."""
    steps = []

    def faulty(lower, upper, eps):
        steps.append(eps)
        return midpoint_oracle(lower, upper, eps) if len(steps) < leave_at else upper + eps

    with pytest.raises(OracleContractViolation) as exc:
        dieudonne_iterate(faulty, SeqFunc.constant(0), SeqFunc.constant(1), 6)
    assert exc.value.step == leave_at and "witness outside its sandwich" in str(exc.value)


def test_farey_enumeration():
    f4 = sorted(set(farey_fractions(4)))
    assert f4[0] == 0 and f4[-1] == 1
    assert Fraction(1, 3) in f4 and Fraction(3, 4) in f4
    gaps = [b - a for a, b in zip(f4, f4[1:])]
    assert max(gaps) <= Fraction(1, 4)


def _farey_by_list(q_max):
    """The list-membership enumeration farey_fractions replaced."""
    seen = []
    for den in range(1, q_max + 1):
        for num in range(den + 1):
            v = Fraction(num, den)
            if v not in seen:
                seen.append(v)
    return seen


def test_farey_order_and_count():
    for q in range(1, 13):
        grid = farey_fractions(q)
        assert grid == _farey_by_list(q)
        phi = [sum(math.gcd(j, k) == 1 for j in range(1, k + 1)) for k in range(1, q + 1)]
        assert len(grid) == 1 + sum(phi)
    with pytest.raises(PreconditionViolation):
        farey_fractions(0)


def test_join_stream_continuous_pair_on_y():
    carrier = YUrysohnCarrier()
    f = SeqFunc([Fraction(1, 2)], (Fraction(3, 4),), Fraction(3, 4))
    joined, cert = urysohn_join_stream(carrier, f, f, 4)
    assert joined.le(f)
    assert (f - Fraction(1, 4)).le(joined)
    assert verify_report(to_jsonable(cert))["ok"]


def test_join_stream_bottom_case():
    carrier = YUrysohnCarrier()
    f = SeqFunc.constant(0, with_omega=True)
    g = SeqFunc.constant(1, with_omega=True)
    joined, _ = urysohn_join_stream(carrier, f, g, 3)
    assert joined.le(g)
    assert (f - Fraction(1, 3)).le(joined)


def test_join_stream_chi_evens_on_y():
    carrier = YUrysohnCarrier()
    f = SeqFunc.periodic([1, 0], omega=1)
    g = SeqFunc.constant(1, with_omega=True)
    joined, _ = urysohn_join_stream(carrier, f, g, 5)
    for k in (0, 2, 4, 6):
        assert joined.at(k) >= 1 - Fraction(1, 5)
    assert joined.le(g)


def test_join_stream_monotone_in_q():
    carrier = YUrysohnCarrier()
    f = SeqFunc.periodic([1, 0], omega=1)
    g = SeqFunc.constant(1, with_omega=True)
    j2, _ = urysohn_join_stream(carrier, f, g, 2)
    j4, _ = urysohn_join_stream(carrier, f, g, 4)
    assert j2.le(j4)


def test_join_stream_on_finite_space():
    space = FiniteSpace.discrete(3)
    carrier = FiniteUrysohnCarrier(space)
    f = FiniteFunc(space, [0, Fraction(1, 2), 1])
    g = FiniteFunc(space, [Fraction(1, 2), 1, 1])
    joined, cert = urysohn_join_stream(carrier, f, g, 4)
    assert joined.le(g)
    assert (f - Fraction(1, 4)).le(joined)
    assert verify_report(to_jsonable(cert))["ok"]


def test_join_stream_rejects_non_semicontinuous():
    carrier = YUrysohnCarrier()
    not_usc = SeqFunc.periodic([1, 0], omega=0)
    g = SeqFunc.constant(1, with_omega=True)
    with pytest.raises(PreconditionViolation):
        urysohn_join_stream(carrier, not_usc, g, 3)


def test_increasing_approx_exact_approximants():
    t = const(Fraction(7, 2))
    out = increasing_approx(t, [t, t, t], [0, 0, 0])
    assert all(a.eq_pointwise(t) for a in out)


def test_increasing_approx_alternating_pattern():
    t = const(1)
    c_seq = [const(1 + Fraction((-1) ** n, 2 ** n)) for n in range(1, 5)]
    r_seq = [Fraction(1, 2 ** n) for n in range(1, 5)]
    out = increasing_approx(t, c_seq, r_seq)
    for prev, cur in zip(out, out[1:]):
        assert prev.le(cur)
    for a_n, r_n in zip(out, r_seq):
        assert a_n.le(t)
        assert (t - a_n).norm() <= 2 * r_n


def test_increasing_approx_rejects_bad_bound():
    t = const(0)
    with pytest.raises(BoundViolation) as exc:
        increasing_approx(t, [const(0), const(1)], [0, Fraction(1, 2)])
    assert exc.value.step == 2


def _per_pair_stream(carrier, f, g, q_max):
    """The plain loop: level sets, separation and c_rs rebuilt for every pair,
    each level set the indicator the Fraction threshold oracle builds.

    Returns the joined result and, for each distinct level pair, a row
    {r, s, h} at its first pair in scan order.
    """
    carrier.check_pair(f, g)
    f1, g1, transform = rescale_to_unit(f, g)
    grid = farey_fractions(q_max)
    mesh = Fraction(1, q_max)
    parts = [f1.const_like(ZERO)]
    first = {}
    for s in grid:
        for r in grid:
            if not r < s:
                continue
            level_f = threshold_by_fractions(f1, s)
            level_g = threshold_by_fractions(g1, r, strict=True)
            try:
                h = carrier.urysohn(level_f, level_g)
            except NormlabError as exc:
                raise PreconditionViolation(
                    f"urysohn oracle failed on pair (r={r}, s={s}): {exc}") from exc
            first.setdefault((level_f, level_g), {"r": r, "s": s, "h": h})
            c_rs = h * r
            if not c_rs.le(g1):
                raise PreconditionViolation(f"c_rs exceeds g on pair (r={r}, s={s})")
            parts.append(c_rs)
    joined = finite_join(parts)
    grid_set = set(grid)
    for p in probe_points(f1):
        fv = f1.value_at(p)
        if fv in grid_set and joined.value_at(p) < fv - mesh:
            raise BoundViolation(p, f"join below f - 1/{q_max}")
    return unscale(joined, transform), list(first.values())


def _joined_and_rows(carrier, f, g, q_max):
    joined, cert = urysohn_join_stream(carrier, f, g, q_max)
    return joined, cert["pairs"]


def _outcome(stream, carrier, f, g, q):
    """Serialized (joined, rows), or the error type and message."""
    try:
        return to_jsonable(stream(carrier, f, g, q))
    except NormlabError as exc:
        return type(exc).__name__, str(exc)


def _random_finite_cases(rng, count):
    spaces = [s for n in range(1, 5) for s in enumerate_spaces(n)]
    cases = []
    while len(cases) < count:
        space = rng.choice(spaces)
        f, _ = envelopes(random_finite_func(space, rng, -2, 2, 4))
        _, g = envelopes(random_finite_func(space, rng, -1, 3, 4))
        if f.le(g):
            cases.append((FiniteUrysohnCarrier(space), f, g))
    return cases


def _random_y_cases(rng, count):
    return [(YUrysohnCarrier(), *random_usc_lsc_pair(rng).values()) for _ in range(count)]


def _representation(func):
    return func._shape, func._row, func._den


def test_finite_carrier_separates_as_the_component_rule_does():
    """On every space up to 4 points, for every closed C inside an open U,
    the carrier's insertion between the indicators of C and U is the
    mask-based Urysohn function 0 off U and 1 on C, and it refuses exactly
    the pairs that rule finds inseparable."""
    refused = 0
    for n in range(1, 5):
        for space in enumerate_spaces(n):
            carrier = FiniteUrysohnCarrier(space)
            for u in space.opens:
                for c in space.closed_sets():
                    if c & ~u:
                        continue
                    expected = urysohn_by_components(space, space.full & ~u, c)
                    closed_f, open_g = indicator(space, c), indicator(space, u)
                    if isinstance(expected, NotSeparable):
                        refused += 1
                        with pytest.raises(PreconditionViolation, match="not separable"):
                            carrier.urysohn(closed_f, open_g)
                    else:
                        h = carrier.urysohn(closed_f, open_g)
                        assert _representation(h) == _representation(expected)
    assert refused > 0


def _random_y_closed(rng):
    """A random closed 0/1 indicator on the compactification: a finite set of
    naturals, or any eventually periodic set with omega."""
    if rng.random() < 0.5:
        return SeqFunc.from_support({k: 1 for k in rng.sample(range(8), rng.randint(0, 4))}, 0, 0)
    return SeqFunc([rng.randint(0, 1) for _ in range(rng.randint(0, 4))],
                   [rng.randint(0, 1) for _ in range(rng.randint(1, 3))], 1)


def test_y_carrier_separates_as_the_case_rule_does():
    """On random closed C and open U of the compactification (each the
    complement of a random closed set), the carrier's insertion between the
    indicators of C and U is the two-case Urysohn function 0 off U and 1 on
    C, in the same canonical form; where C leaves U both refuse."""
    rng = random.Random(21)
    refused = 0
    for _ in range(400):
        closed_f, off = _random_y_closed(rng), _random_y_closed(rng)
        open_g = 1 - off
        try:
            expected = urysohn_y_by_cases(off, closed_f)
        except PreconditionViolation:
            refused += 1
            with pytest.raises(PreconditionViolation):
                YUrysohnCarrier().urysohn(closed_f, open_g)
            continue
        h = YUrysohnCarrier().urysohn(closed_f, open_g)
        assert _representation(h) == _representation(expected)
    assert 0 < refused < 400


@pytest.mark.parametrize("carrier,f,g", [
    (FiniteUrysohnCarrier(FiniteSpace.discrete(3)),
     FiniteFunc(FiniteSpace.discrete(3), [2, 0, 0]), FiniteFunc(FiniteSpace.discrete(3), [1, 1, 1])),
    (YUrysohnCarrier(), SeqFunc.constant(2, with_omega=True), SeqFunc.constant(1, with_omega=True)),
], ids=["finite", "y"])
def test_join_stream_rejects_disorder_at_key_g(carrier, f, g):
    with pytest.raises(PreconditionViolation, match="f <= g fails at point 0") as exc:
        urysohn_join_stream(carrier, f, g, 4)
    assert exc.value.key == "g"


def test_join_stream_matches_per_pair_loop():
    rng = random.Random(2024)
    # a V-shaped space: closed points 0 and 1 share the open point 2
    vee = FiniteSpace(3, [0b101, 0b110, 0b100])
    infeasible = (FiniteUrysohnCarrier(vee), FiniteFunc(vee, [1, 0, 0]),
                  FiniteFunc(vee, [1, 0, 1]))
    cases = [infeasible] + _random_finite_cases(rng, 40) + _random_y_cases(rng, 25)
    failures = 0
    for carrier, f, g in cases:
        q = rng.randint(1, 6)
        expected = _outcome(_per_pair_stream, carrier, f, g, q)
        assert _outcome(_joined_and_rows, carrier, f, g, q) == expected
        failures += isinstance(expected, tuple)
        if not isinstance(expected, tuple):
            _, cert = urysohn_join_stream(carrier, f, g, q)
            assert verify_report(to_jsonable(cert))["ok"]
    assert 0 < failures < len(cases)  # both the certificate and the error path ran


def _y_func(prefix, cycle, omega):
    return SeqFunc([Fraction(v) for v in prefix], [Fraction(v) for v in cycle], Fraction(omega))


# The two fixed heavy-base pairs of the insertion benchmark's q = 12 jobs.
HEAVY_Y_PAIRS = [
    (_y_func(["3", "-1"], ["1/2", "3/4", "15/11"], "15/11"),
     _y_func(["3"], ["27/7", "3", "25/6", "18/5"], "3")),
    (_y_func(["-3", "-1/2"], ["0", "4/5", "7/4"], "7/4"),
     _y_func(["89/28"], ["97/28", "37/12", "37/12", "15/4"], "7/4")),
]


def _counting(base):
    class Counting(base):
        def __init__(self, *args):
            super().__init__(*args)
            self.separated = Counter()

        def urysohn(self, closed_f, open_g):
            self.separated[closed_f, open_g] += 1
            return super().urysohn(closed_f, open_g)

    return Counting


def test_join_stream_separates_each_level_pair_once():
    space = FiniteSpace.from_preorder(5, [17, 2, 4, 25, 16])
    finite_f = FiniteFunc(space, [Fraction(-71, 40), Fraction(-8, 3), Fraction(-35, 22),
                                  Fraction(-71, 40), Fraction(-46, 15)])
    finite_g = FiniteFunc(space, [Fraction(7, 20), Fraction(-5, 3), Fraction(-1, 11),
                                  Fraction(1, 10), Fraction(7, 20)])
    cases = [(FiniteUrysohnCarrier, (space,), finite_f, finite_g),
             (YUrysohnCarrier, (), *HEAVY_Y_PAIRS[0])]
    for base, args, f, g in cases:
        q = 8
        order = _level_pairs_in_scan_order(f, g, q)
        carrier = _counting(base)(*args)
        _, cert = urysohn_join_stream(carrier, f, g, q)
        # each level pair separated once, in order of first occurrence
        assert list(carrier.separated) == order
        assert set(carrier.separated.values()) == {1}
        assert len(cert["pairs"]) == len(order)


def _level_pairs_in_scan_order(f, g, q):
    """The distinct level pairs ({f1 >= s}, {g1 > r}) of the rescaled f and g,
    as 0/1 indicators, at their first pair r < s in scan order (s outer, r
    inner, both in grid order)."""
    f1, g1, _ = rescale_to_unit(f, g)
    grid = farey_fractions(q)
    order = []
    for s in grid:
        for r in grid:
            key = (threshold_indicator(f1, s), threshold_indicator(g1, r, strict=True))
            if r < s and key not in order:
                order.append(key)
    return order


def _one_level_pair_altered(key, alter):
    class Altered(YUrysohnCarrier):
        def urysohn(self, closed_f, open_g):
            h = super().urysohn(closed_f, open_g)
            return alter(h) if (closed_f, open_g) == key else h
    return Altered()


def test_join_stream_oracle_error_matches_per_pair_loop():
    f, g = HEAVY_Y_PAIRS[1]
    order = _level_pairs_in_scan_order(f, g, 6)
    assert len(order) > 3

    def refuse(h):
        raise PreconditionViolation("refused")

    expected = _outcome(_per_pair_stream, _one_level_pair_altered(order[3], refuse), f, g, 6)
    assert expected[0] == "PreconditionViolation" and "refused" in expected[1]
    assert _outcome(_joined_and_rows, _one_level_pair_altered(order[3], refuse),
                    f, g, 6) == expected


def test_join_stream_separation_off_the_unit_interval_matches_per_pair_loop():
    """h - 1/2 on one level pair changes no outcome: r*h <= 0 where h < 0.  2h
    puts a c_rs above g exactly when the per-pair loop finds one; the stream
    then names a pair of the altered level pair, its largest r, whose c_rs
    really exceeds g, where the loop named its first failing pair."""
    f, g = HEAVY_Y_PAIRS[1]
    q = 6
    plain = YUrysohnCarrier()
    f1, g1, _ = rescale_to_unit(f, g)
    grid = farey_fractions(q)
    order = _level_pairs_in_scan_order(f, g, q)

    def level_pair(r, s):
        return threshold_indicator(f1, s), threshold_indicator(g1, r, strict=True)

    for key in order:
        lowered = _one_level_pair_altered(key, lambda h: h - Fraction(1, 2))
        assert _outcome(_joined_and_rows, lowered, f, g, q) == \
            _outcome(_per_pair_stream, lowered, f, g, q)
    errors = 0
    for key in order:
        doubled = _one_level_pair_altered(key, lambda h: h * 2)
        expected = _outcome(_per_pair_stream, doubled, f, g, q)
        got = _outcome(_joined_and_rows, doubled, f, g, q)
        if not isinstance(expected, tuple):
            assert got == expected
            continue
        errors += 1
        assert expected[0] == got[0] == "PreconditionViolation"
        named = re.fullmatch(r"c_rs exceeds g on pair \(r=(\S+), s=(\S+)\)", got[1])
        assert named and "c_rs exceeds g" in expected[1]
        r, s = Fraction(named[1]), Fraction(named[2])
        assert r in grid and s in grid and r < s
        assert level_pair(r, s) == key
        assert r == max(r2 for s2 in grid for r2 in grid if r2 < s2 and level_pair(r2, s2) == key)
        assert not (plain.urysohn(*key) * 2 * r).le(g1)
    assert 0 < errors < len(order)


# -- Cauchy tail of the Dieudonné iteration ---------------------------------

def _pairwise_tail(a_seq):
    """The tail bound ||a_j - a_i|| <= 2^{1-i} on every pair i < j; the first failing pair raises."""
    for i in range(len(a_seq)):
        tail = Fraction(2, 2 ** (i + 1))
        for j in range(i + 1, len(a_seq)):
            delta = (a_seq[j] - a_seq[i]).norm()
            if delta > tail:
                raise BoundViolation(i + 1, f"tail {delta} exceeds {tail}")


def _random_element(rng, carrier):
    """A random element on the finite, sequence or compactified carrier."""
    if carrier == "finite":
        return random_finite_func(FiniteSpace.discrete(4), rng)
    f = random_seq_func(rng)
    return with_omega(f, f.cycle[0]) if carrier == "y" else f


def _random_refining_seq(rng, carrier, steps):
    """a_n = a_1 + sum of increments of size about scale/2^k: a Cauchy tail or not."""
    scale = rng.choice([Fraction(1, 2), 1, 2, 4])
    a_seq = [_random_element(rng, carrier)]
    for k in range(2, steps + 1):
        step = _random_element(rng, carrier) * Fraction(scale, 3 * 2 ** k)
        a_seq.append(a_seq[-1] + step)
    return a_seq


def _sandwich_oracle(rng, carrier):
    """An oracle returning some element of [lower, upper]: a random element
    clamped into it, or a random convex combination of its ends."""
    def oracle(lower, upper, eps):
        if rng.random() < 0.5:
            return _random_element(rng, carrier).join(lower).meet(upper)
        t = Fraction(rng.randint(0, 8), 8)
        return lower * (1 - t) + upper * t
    return oracle


def test_iterate_with_any_sandwiched_witness_replays():
    """Whatever the oracle returns inside its sandwich, the trace replays and
    has a Cauchy tail, with no check of either inside the iteration."""
    rng = random.Random(47)
    for carrier in ("finite", "seq", "y"):
        for _ in range(12):
            f = _random_element(rng, carrier)
            g = f + _random_element(rng, carrier).join(f.const_like(0)) * rng.choice([0, 1])
            trace = dieudonne_iterate(_sandwich_oracle(rng, carrier), f, g, rng.randint(1, 9))
            assert verify_report(to_jsonable(trace))["ok"]
            _pairwise_tail(trace.a_seq)


def test_iterate_builds_linearly_many_elements(monkeypatch):
    calls = Counter()
    from_row = AlgElement._from_row

    def counting(self, shape, row, den):
        calls["built"] += 1
        return from_row(self, shape, row, den)

    monkeypatch.setattr(AlgElement, "_from_row", counting)
    f = SeqFunc([Fraction(1, 3), -2], [0, Fraction(5, 4), Fraction(-1, 2)])
    g = SeqFunc([2, -1], [Fraction(3, 2), Fraction(7, 4), Fraction(5, 4), Fraction(3, 2)])
    steps = 24
    dieudonne_iterate(midpoint_oracle, f, g, steps)
    # one fixed set of element operations per step; the 276 pairs of a
    # pairwise tail check alone would be 11.5 per step more
    assert 0 < calls["built"] <= 20 * steps


# -- replay of iteration and merge traces ------------------------------------

def _value(d, p) -> Fraction:
    """One value of a serialized element, parsed where it is read."""
    if "values" in d:
        return _frac(d["values"][p])
    if p == "omega":
        return _frac(d["omega"])
    prefix, cycle = d.get("prefix", []), d["cycle"]
    return _frac(prefix[p] if p < len(prefix) else cycle[(p - len(prefix)) % len(cycle)])


def _points(*elems) -> list:
    """The probe points of the replay frame over the elements: each point of
    the space, or each index the frame lays out, then "omega" on that carrier."""
    rd = _Reader()
    _, rows = rd.frame(*elems)
    pts = list(range(len(rows[0]) - rd.omega))
    return pts + ["omega"] if rd.omega else pts


def _le(a, b, pts) -> bool:
    return all(_value(a, p) <= _value(b, p) for p in pts)


def _eq(a, b, pts) -> bool:
    return all(_value(a, p) == _value(b, p) for p in pts)


def _verify_merge_per_value(trace, checks) -> None:
    """Merge verifier that parses each value where it is read."""
    a, b = trace["a_norm"], trace["b_norm"]
    u, v = trace["u_seq"], trace["v_seq"]
    res = trace["result"]
    pts = _points(*(a + b + u + v + [res]))
    n = len(a)
    ok_shape = len(b) == n and len(u) == n and len(v) == n
    _check(checks, "merge: aligned sequence lengths", ok_shape)
    if not ok_shape:
        return
    _check(checks, "merge: a nonincreasing", all(_le(a[i + 1], a[i], pts) for i in range(n - 1)))
    _check(checks, "merge: b nondecreasing", all(_le(b[i], b[i + 1], pts) for i in range(n - 1)))
    for p in pts:
        run = None
        for i in range(n):
            term = min(_value(a[i], p), _value(b[i], p))
            run = term if run is None else max(run, term)
            if run != _value(u[i], p):
                _check(checks, f"merge: u_{i + 1} recomputed", False)
                return
            if max(run, _value(a[i], p)) != _value(v[i], p):
                _check(checks, f"merge: v_{i + 1} recomputed", False)
                return
    _check(checks, "merge: u, v recomputed", True)
    _check(checks, "merge: result = last u", _eq(res, u[-1], pts))
    _check(checks, "merge: result = meet of v",
           all(_value(res, p) == min(_value(vi, p) for vi in v) for p in pts))
    _check(checks, "merge: meet a <= result <= join b",
           _le(a[-1], res, pts) and _le(res, b[-1], pts))
    for i in range(n):
        if not _le(u[-1], v[i], pts):
            _check(checks, f"merge: u <= v_{i + 1}", False)
            return
    _check(checks, "merge: u below every v_n", True)


def _verify_iteration_pairwise(trace, checks) -> None:
    """Iteration verifier that checks the Cauchy tail pair by pair."""
    a = trace["a_seq"]
    bounds = [_frac(b) for b in trace["step_bounds"]]
    pts = _points(*a)
    _check(checks, "iteration: bounds are 1/2^n", len(bounds) == len(a) >= 1
           and all(b == Fraction(1, 2 ** (i + 1)) for i, b in enumerate(bounds)))
    ok = True
    for i in range(len(a) - 1):
        for p in pts:
            if abs(_value(a[i + 1], p) - _value(a[i], p)) > bounds[i]:
                ok = False
    _check(checks, "iteration: step bound |a_{n+1} - a_n| <= 1/2^n", ok)
    ok = True
    for i in range(len(a)):
        tail = Fraction(2, 2 ** (i + 1))
        for j in range(i + 1, len(a)):
            delta = max(abs(_value(a[j], p) - _value(a[i], p)) for p in pts)
            if delta > tail:
                ok = False
    _check(checks, "iteration: Cauchy tail ||a_{n+p} - a_n|| <= 2^{1-n}", ok)
    f, g = trace["f"], trace["g"]
    ok = True
    for i in range(len(a)):
        eps = bounds[i]
        for p in _points(f, g, a[i]):
            if not _value(f, p) - eps <= _value(a[i], p) <= _value(g, p):
                ok = False
    _check(checks, "iteration: sandwich f - 1/2^n <= a_n <= g", ok)


def _continuous_per_value(d) -> bool:
    """Each fiber of a finite function is open; a sequence with an omega value
    is that value on its whole cycle."""
    if "values" in d:
        n, rows = d["space"]["points"], d["space"]["up"]
        opens = up_sets_scan(n, [sum(1 << y for y in row) for row in rows])
        return continuous_by_fibers([_value(d, x) for x in range(n)], opens)
    return d.get("omega") is None or all(_frac(v) == _frac(d["omega"]) for v in d["cycle"])


def _verify_urysohn_per_value(cert, checks) -> None:
    """Urysohn verifier that parses each value where it is read, and names each
    level set by counting the distinct rescaled values in it."""
    f, g, res, q_max = cert["f"], cert["g"], cert["result"], cert["q_max"]
    hs = [row["h"] for row in cert["pairs"]]
    pts = _points(f, g, res, *hs)
    a = -min(_value(f, p) for p in pts)
    b = max(_value(g, p) for p in pts) + a or Fraction(1)
    _check(checks, "urysohn: transform recomputed",
           [_frac(v) for v in cert["transform"]] == [a, b])
    f1 = {p: (_value(f, p) + a) / b for p in pts}
    g1 = {p: (_value(g, p) + a) / b for p in pts}
    grid = [Fraction(n, d) for d in range(1, q_max + 1) for n in range(d + 1)
            if math.gcd(n, d) == 1]
    first, top = {}, {}
    for s in grid:
        for r in grid:
            if r < s:
                key = (len({v for v in f1.values() if v >= s}),
                       len({v for v in g1.values() if v > r}))
                first.setdefault(key, (r, s))
                top[key] = max(top.get(key, r), r)
    rows = [(_frac(row["r"]), _frac(row["s"])) for row in cert["pairs"]]
    if not _check(checks, "urysohn: one row per distinct level pair, at its first pair",
                  rows == list(first.values())):
        return
    ok = True
    for (r, s), h in zip(rows, hs):
        ok = ok and _continuous_per_value(h) and all(
            0 <= _value(h, p) <= 1 and (_value(h, p) == 1 or f1[p] < s)
            and (_value(h, p) == 0 or g1[p] > r) for p in pts)
    _check(checks, "urysohn: each h in [0, 1], continuous, 1 on {f >= s}, 0 off {g > r}", ok)
    tops = list(top.values())
    _check(checks, "urysohn: result = b * join of r_top * h - a",
           all(_value(res, p) == b * max([Fraction(0)] + [t * _value(h, p)
                                                          for t, h in zip(tops, hs)]) - a
               for p in pts))
    _check(checks, "urysohn: result <= g", _le(res, g, pts))
    _check(checks, "urysohn: result >= f - b/q_max where f1 is on the grid",
           all(_value(res, p) >= _value(f, p) - b / q_max
               for p in pts if f1[p].denominator <= q_max))


def _verify_block_per_value(payload, checks) -> None:
    """Block verifier that parses each value where it is read; each choice's
    g(x) and g(y) come from the generator, with x the block's first point."""
    gens = payload["generators"]
    n = gens[0]["space"]["points"]
    traces, indicators = payload["traces"], payload["indicators"]
    points = sorted(x for trace in traces for x in trace["block"])
    if not _check(checks, "block traces: one per indicator, blocks partition the points",
                  len(traces) == len(indicators) and points == list(range(n))):
        return
    for trace, ind in zip(traces, indicators):
        block = set(trace["block"])
        ok = len(ind["values"]) == n
        for x in range(n):
            v = Fraction(1)
            for ch in trace["choices"]:
                g = gens[ch["g_index"]]
                gx, gy = _value(g, trace["block"][0]), _value(g, ch["y"])
                if gx == gy:
                    ok = False
                    continue
                v = min(v, max((_value(g, x) - gy) / (gx - gy), Fraction(0)))
            ok = ok and v == _value(ind, x) and v == (1 if x in block else 0)
        if not _check(checks, f"block {sorted(block)}: trace replays to 0/1 indicator", ok):
            return
    _check(checks, "block traces: all replayed", True)


def _element_values(d):
    """The value strings of a serialized element, for tampering in place."""
    return d["values"] if "values" in d else d["cycle"]


def _tamper(rng, payload, keys):
    """A copy with one value of one element under a random key moved by a random amount."""
    out = json.loads(json.dumps(payload))
    key = rng.choice(keys)
    elem = out[key] if isinstance(out[key], dict) else rng.choice(out[key])
    values = _element_values(elem)
    k = rng.randrange(len(values))
    values[k] = to_jsonable(Fraction(values[k]) + rng.choice([-1, 1]) * Fraction(1, 2 ** rng.randint(0, 30)))
    return out


def _hidden_jump_payloads(sign):
    """A trace whose steps move by their full bound, and the same trace with the
    jump a_3 -> a_4 doubled along with its recorded bound."""
    bump = SeqFunc.from_support({0: 1, 2: 1}, 0) * sign
    a_seq = [bump * (1 - Fraction(1, 2 ** n)) for n in range(8)]
    bounds = [Fraction(1, 2 ** n) for n in range(1, 9)]
    k = 2
    jump = a_seq[k + 1] - a_seq[k]
    hidden = a_seq[:k + 1] + [a + jump for a in a_seq[k + 1:]]
    doubled = bounds[:k] + [2 * bounds[k]] + bounds[k + 1:]
    f, g = SeqFunc.constant(-2), SeqFunc.constant(2)
    return [to_jsonable(IterationTrace(a, b, f, g))
            for a, b in ((a_seq, bounds), (hidden, doubled))]


def _iteration_payloads(rng):
    out = _hidden_jump_payloads(1) + _hidden_jump_payloads(-1)
    for carrier in ("finite", "seq", "y"):
        for steps in (1, 2, 7, 12):
            f = _random_element(rng, carrier)
            g = f + _random_element(rng, carrier).join(f.const_like(0)) + Fraction(1, 8)
            trace = to_jsonable(dieudonne_iterate(midpoint_oracle, f, g, steps))
            out.append(trace)
            for _ in range(3):
                out.append(_tamper(rng, trace, ["a_seq", "f", "g"]))
            a_seq = _random_refining_seq(rng, carrier, steps)
            bounds = [Fraction(1, 2 ** n) for n in range(1, steps + 1)]
            out.append(to_jsonable(IterationTrace(a_seq, bounds, f, g)))
    return out


def _merge_payloads(rng):
    out = []
    for carrier in ("finite", "seq", "y"):
        for length in (1, 3, 6):
            a_seq = [_random_element(rng, carrier) for _ in range(length)]
            lift = max(a.value_bounds()[1] for a in a_seq) - min(a.value_bounds()[0] for a in a_seq)
            b_seq = [_random_element(rng, carrier) + lift * rng.choice([0, 1])
                     for _ in range(length)]
            b_seq[-1] = b_seq[-1] + 2 * lift
            payload = to_jsonable(tong_merge(a_seq, b_seq))
            out.append(payload)
            for _ in range(4):
                out.append(_tamper(rng, payload, ["a_norm", "b_norm", "u_seq", "v_seq", "result"]))
    return out


def _value_slots(node):
    """(holder, key) of every value of every serialized element in a JSON value."""
    if isinstance(node, dict):
        if "values" in node and "space" in node:
            return [(node["values"], k) for k in range(len(node["values"]))]
        if "cycle" in node:
            slots = [(node[key], k) for key in ("prefix", "cycle") for k in range(len(node[key]))]
            return slots + ([(node, "omega")] if node.get("omega") is not None else [])
        node = list(node.values())
    if isinstance(node, list):
        return [slot for child in node for slot in _value_slots(child)]
    return []


def _one_value_moved(rng, payload):
    """A copy with one value of one element moved by +-1/2^k, k <= 30."""
    out = json.loads(json.dumps(payload))
    holder, key = rng.choice(_value_slots(out))
    step = rng.choice([-1, 1]) * Fraction(1, 2 ** rng.randint(0, 30))
    holder[key] = to_jsonable(Fraction(holder[key]) + step)
    return out


def _urysohn_payloads(rng):
    out = []
    for carrier, f, g in _random_finite_cases(rng, 12) + _random_y_cases(rng, 12):
        try:
            _, cert = urysohn_join_stream(carrier, f, g, rng.randint(1, 6))
        except NormlabError:
            continue
        payload = json.loads(json.dumps(to_jsonable(cert)))
        out += [payload] + [_one_value_moved(rng, payload) for _ in range(4)]
    return out


def _block_payloads(rng):
    out = []
    for n in (1, 3, 5, 7):
        space = FiniteSpace.discrete(n)
        for count in (1, 2, 3):
            gens = [FiniteFunc(space, [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                       for _ in range(n)]) for _ in range(count)]
            indicators, traces = block_indicators(space, gens)
            payload = json.loads(json.dumps(to_jsonable(
                {"generators": gens, "traces": traces, "indicators": indicators})))
            out += [payload] + [_one_value_moved(rng, payload) for _ in range(4)]
    return out


REFERENCE_VERIFIERS = {
    "iteration": (_iteration_payloads, _verify_iteration, _verify_iteration_pairwise),
    "merge": (_merge_payloads, _verify_merge, _verify_merge_per_value),
    "urysohn": (_urysohn_payloads, _verify_urysohn, _verify_urysohn_per_value),
    "block": (_block_payloads, _verify_block_replay, _verify_block_per_value),
}


@pytest.mark.parametrize("kind", sorted(REFERENCE_VERIFIERS))
def test_replay_rows_match_per_value_verifiers(kind):
    rng = random.Random(17)
    payloads, new, old = REFERENCE_VERIFIERS[kind]
    payloads = payloads(rng)
    verdicts = set()
    for payload in payloads:
        expected, got = [], []
        old(payload, expected)
        new(payload, got)
        assert got == expected
        verdicts.add(all(c["ok"] for c in expected))
    assert verdicts == {True, False}  # clean and tampered payloads both present


def _failed_rows(payload):
    return [c["check"] for c in verify_report(payload)["checks"] if not c["ok"]]


def _seq_iteration_payload():
    f = SeqFunc([Fraction(1, 3), -2], [0, Fraction(5, 4), Fraction(-1, 2)])
    g = SeqFunc([2, -1], [Fraction(3, 2), Fraction(7, 4), Fraction(5, 4), Fraction(3, 2)])
    return to_jsonable(dieudonne_iterate(midpoint_oracle, f, g, 12))


STEP_ROW = "iteration: step bound |a_{n+1} - a_n| <= 1/2^n"
TAIL_ROW = "iteration: Cauchy tail ||a_{n+p} - a_n|| <= 2^{1-n}"
BOUNDS_ROW = "iteration: bounds are 1/2^n"
SANDWICH_ROW = "iteration: sandwich f - 1/2^n <= a_n <= g"


def test_iteration_replay_accepts_untampered_trace():
    assert _failed_rows(_seq_iteration_payload()) == []


def test_iteration_tamper_wrong_step_bound():
    payload = _seq_iteration_payload()
    payload["step_bounds"][4] = "1/31"
    assert BOUNDS_ROW in _failed_rows(payload)
    assert not verify_report(payload)["ok"]


def test_iteration_tamper_move_past_step_bound():
    payload = _seq_iteration_payload()
    cycle = payload["a_seq"][6]["cycle"]
    cycle[0] = to_jsonable(Fraction(cycle[0]) + Fraction(1, 32))
    assert STEP_ROW in _failed_rows(payload)
    assert not verify_report(payload)["ok"]


def test_iteration_tamper_hidden_jump_fails_bounds_and_tail_only():
    for sign in (1, -1):
        valid, hidden = _hidden_jump_payloads(sign)
        assert _failed_rows(valid) == []
        # the doubled jump stays within its doubled recorded bound
        assert _failed_rows(hidden) == [BOUNDS_ROW, TAIL_ROW]


def test_iteration_tamper_below_lower_envelope():
    payload = _seq_iteration_payload()
    n = len(payload["a_seq"])
    last = payload["a_seq"][-1]
    # raise f at index 0 to just above a_n + 1/2^n
    f_prefix = payload["f"]["prefix"]
    f_prefix[0] = to_jsonable(Fraction(last["prefix"][0]) + Fraction(1, 2 ** n) + Fraction(1, 2 ** 40))
    assert _failed_rows(payload) == [SANDWICH_ROW]


def test_iteration_tamper_empty_trace():
    """A trace of no steps certifies nothing, though its other rows hold vacuously."""
    payload = _seq_iteration_payload()
    payload["a_seq"], payload["step_bounds"] = [], []
    assert _failed_rows(payload) == [BOUNDS_ROW]
    assert not verify_report(payload)["ok"]


def test_iteration_tamper_more_bounds_than_steps():
    payload = _seq_iteration_payload()
    payload["a_seq"], payload["step_bounds"] = payload["a_seq"][:1], payload["step_bounds"][:2]
    assert _failed_rows(payload) == [BOUNDS_ROW]
    assert not verify_report(payload)["ok"]


@pytest.mark.parametrize("key", ["f", "g"])
def test_iteration_payload_without_f_or_g_is_malformed(key, tmp_path, capsys):
    payload = _seq_iteration_payload()
    del payload[key]
    with pytest.raises(MalformedPayload, match=f"malformed iteration payload .KeyError: '{key}'"):
        verify_report(payload)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed iteration payload" in captured.err


def _malformed_iteration(cause):
    return f"/: malformed iteration payload ({cause})"


# Each value in one element of an iteration trace, and replay's outcome: the
# ok flags of its four rows (bounds, step, tail, sandwich) or its error text.
# Replay reads only the spelling the serializer writes: an ASCII "p" or "p/q"
# in lowest terms, without leading zeros, "-0" or a denominator 1.
PARSED_VALUES = [
    ("0", [True, True, True, True]),
    ("1/2", [True, False, True, True]),
    ("-7/2", [True, False, False, False]),
    *((value, _malformed_iteration(f"ValueError: not a rational: {value!r}")) for value in [
        "0/5", "-0", 3, 0, "+3", " 3 ", "3\n", "03", "3/04", "1_000", "1.5", "1e3",
        "3/0", "3/-4", "3/1", "1/1",
        "٣",  # ARABIC-INDIC DIGIT THREE
        True, None, 1.5, []]),
    *((value, _malformed_iteration(
        f"ValueError: not a rational in lowest terms: {value!r}")) for value in [
        "2/4", "6/8", "-4/2"]),
]


@pytest.mark.parametrize("value,outcome", PARSED_VALUES, ids=repr)
def test_replay_parses_values_by_one_grammar(value, outcome):
    def seq(v):
        return {"prefix": [], "cycle": [v], "omega": None}

    payload = {"trace": "iteration", "step_bounds": ["1/2", "1/4", "1/8"],
               "a_seq": [seq("0"), seq(value), seq("0")], "f": seq("-1"), "g": seq("2")}
    try:
        got = [c["ok"] for c in verify_report(payload)["checks"]]
    except MalformedPayload as exc:
        got = str(exc)
    assert got == outcome


def test_merge_tamper_one_u_value():
    a_seq = [SeqFunc([3], [2, 1]), SeqFunc([1], [2, 2, 0]), SeqFunc([], [Fraction(5, 2)])]
    b_seq = [SeqFunc([0], [1]), SeqFunc([], [1, 2]), SeqFunc([2], [0, 1, 1])]
    payload = to_jsonable(tong_merge(a_seq, b_seq))
    assert verify_report(payload)["ok"]
    cycle = payload["u_seq"][1]["cycle"]
    cycle[-1] = to_jsonable(Fraction(cycle[-1]) + Fraction(1, 3))
    assert _failed_rows(payload) == ["merge: u_2 recomputed"]


# -- replay of the Urysohn join ----------------------------------------------

SPACE_5PT = FiniteSpace.from_preorder(5, [17, 2, 4, 25, 16])


def _urysohn_payload(carrier):
    """A serialized Urysohn certificate at q_max = 6, on a finite space or on Y.

    The rescaled f is f itself, with every value on the grid, so the lower
    bound is checked at every point."""
    if carrier == "finite":
        f = FiniteFunc(SPACE_5PT, [Fraction(v) for v in ("2/3", "1", "0", "2/3", "1/6")])
        g = FiniteFunc(SPACE_5PT, [Fraction(v) for v in ("5/6", "1", "1/2", "2/3", "5/6")])
        stream = urysohn_join_stream(FiniteUrysohnCarrier(SPACE_5PT), f, g, 6)
    else:
        f = _y_func(["0", "1/2"], ["0", "1/3"], "1/2")
        g = _y_func(["1/2", "1"], ["1", "2/3"], "1/2")
        stream = urysohn_join_stream(YUrysohnCarrier(), f, g, 6)
    return json.loads(json.dumps(to_jsonable(stream[1])))


def _value_list(d):
    """The list that holds an element's value at point 0."""
    return d["values"] if "values" in d else d["prefix"] or d["cycle"]


def _set_everywhere(d, value):
    for key in ("values", "prefix", "cycle"):
        if key in d:
            d[key] = [value] * len(d[key])
    if d.get("omega") is not None:
        d["omega"] = value


def _double_scale(c):
    c["transform"][1] = str(2 * Fraction(c["transform"][1]))


def _h_above_one(c):
    _value_list(c["pairs"][0]["h"])[0] = "3/2"


def _result_nudged(c):
    values = _value_list(c["result"])
    values[0] = str(Fraction(values[0]) + Fraction(1, 7))


def _result_above_g(c):
    _value_list(c["result"])[0] = str(Fraction(_value_list(c["g"])[0]) + 1)


def _separations_zeroed(c):
    """Every h = 0 and the result recomputed from them: only the rows on h and
    on the lower bound can notice."""
    for row in c["pairs"]:
        _set_everywhere(row["h"], "0")
    _set_everywhere(c["result"], str(-Fraction(c["transform"][0])))


URYSOHN_TAMPERS = [
    (_double_scale, "urysohn: transform recomputed"),
    (lambda c: c["pairs"].pop(), "urysohn: one row per distinct level pair, at its first pair"),
    (lambda c: c["pairs"].reverse(), "urysohn: one row per distinct level pair, at its first pair"),
    (_h_above_one, "urysohn: each h in [0, 1], continuous, 1 on {f >= s}, 0 off {g > r}"),
    (_result_nudged, "urysohn: result = b * join of r_top * h - a"),
    (_result_above_g, "urysohn: result <= g"),
    (_separations_zeroed, "urysohn: result >= f - b/q_max where f1 is on the grid"),
]


@pytest.mark.parametrize("carrier", ["finite", "y"])
def test_urysohn_replay_accepts_untampered_certificate(carrier):
    payload = _urysohn_payload(carrier)
    report = verify_report({"job": "urysohn_join_stream", "certificate": payload})
    assert report["ok"] and report["verified"] == 1
    assert len(report["checks"]) == 6


@pytest.mark.parametrize("carrier", ["finite", "y"])
@pytest.mark.parametrize("tamper,row", URYSOHN_TAMPERS,
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_urysohn_replay_tamper_fails_its_row(carrier, tamper, row):
    payload = _urysohn_payload(carrier)
    tamper(payload)
    assert row in _failed_rows(payload)
    assert not verify_report(payload)["ok"]


def _edit_up(c, edit):
    """Apply edit to the up rows of every element's space, so that all stay
    on one space."""
    for d in (c["f"], c["g"], c["result"], *(row["h"] for row in c["pairs"])):
        edit(d["space"]["up"])


@pytest.mark.parametrize("edit", [
    lambda up: up[0].remove(0),
    lambda up: up[1].append(3),
    lambda up: up.pop(),
    lambda up: up[2].append(5),
    lambda up: up[2].append(-1),
], ids=["not-reflexive", "not-transitive", "row-missing", "point-5", "point-minus-1"])
def test_urysohn_replay_refuses_a_space_that_is_no_preorder(edit):
    """Rows that are not a preorder on the points make the payload malformed:
    a row without its own point, a row missing the row of a point in it (row
    1 gains 3, whose row holds 0), too few rows, or a point outside the space."""
    payload = _urysohn_payload("finite")
    assert verify_report(payload)["ok"]
    _edit_up(payload, edit)
    with pytest.raises(MalformedPayload, match="/: malformed urysohn payload .ValueError: "):
        verify_report(payload)


def _continuous_alone(d):
    # a reader and a frame per element: the reader keys what it parsed by id
    rd = _Reader()
    _, (row,) = rd.frame(d)
    return _continuous(rd, row)


def test_urysohn_replay_continuity():
    sierpinski = {"points": 2, "up": [[0, 1], [1]]}  # opens {}, {1}, {0, 1}
    assert _continuous_alone({"space": sierpinski, "values": ["1", "1"]})
    assert not _continuous_alone({"space": sierpinski, "values": ["0", "1"]})
    assert _continuous_alone({"space": {"points": 2, "up": [[0], [1]]}, "values": ["0", "1"]})
    assert _continuous_alone({"prefix": ["1/2"], "cycle": ["1"], "omega": "1"})
    assert not _continuous_alone({"prefix": [], "cycle": ["1", "0"], "omega": "1"})
    assert not _continuous_alone({"prefix": [], "cycle": ["0"], "omega": "1"})
    assert _continuous_alone({"prefix": [], "cycle": ["1", "0"], "omega": None})


def test_continuity_on_up_rows_is_every_fiber_open():
    """h(y) = h(x) for every y in up[x] holds iff every fiber of h is open,
    on every space up to 4 points and every function valued in {0, 1, 2}."""
    checked = 0
    for n in range(1, 5):
        for space in enumerate_spaces(n):
            written = to_jsonable(space)
            for values in itertools.product(range(3), repeat=n):
                d = {"space": written, "values": list(map(str, values))}
                assert _continuous_alone(d) == continuous_by_fibers(values, space.opens)
                checked += 1
    assert checked == 3 + 4 * 9 + 29 * 27 + 355 * 81


def _drop_omega_of_result_and_h(c):
    c["result"]["omega"] = "50"  # above g at omega, out of sight without omega values
    for d in (c["result"], *(row["h"] for row in c["pairs"])):
        del d["omega"]


@pytest.mark.parametrize("tamper", [
    lambda c: c.__setitem__("q_max", 0),
    lambda c: c.__setitem__("q_max", 65),
    lambda c: c.__setitem__("q_max", True),
    lambda c: c.__setitem__("q_max", "6"),
    _drop_omega_of_result_and_h,
])
def test_urysohn_replay_rejects_malformed_certificates(tamper):
    payload = _urysohn_payload("y")
    tamper(payload)
    with pytest.raises(MalformedPayload, match="/certificate: malformed urysohn payload"):
        verify_report({"certificate": payload})


def _monotone_levels(rng, q_max):
    """The rank of each Farey value up to q_max, and the level set ids of two
    random monotone rescaled functions: {f1 >= s} named by how many of f's
    distinct values are at least s, {g1 > r} by how many of g's exceed r."""
    grid = farey_fractions(q_max)
    common = math.lcm(*range(1, q_max + 1))
    rank = [r.numerator * (common // r.denominator) for r in grid]
    fvals, gvals = ({Fraction(rng.randint(0, 12), 12) for _ in range(rng.randint(1, 5))}
                    for _ in range(2))
    closed = [sum(v >= s for v in fvals) for s in grid]
    opened = [100 + sum(v > r for v in gvals) for r in grid]
    return rank, closed, opened


def test_level_pair_sweeps_match_the_pair_scan():
    """The producer's and replay's run sweeps give the level pairs, in order,
    their first pairs and their largest r, that visiting every grid pair gives."""
    rng = random.Random(25)
    for _ in range(1000):
        rank, closed, opened = _monotone_levels(rng, rng.randint(1, 14))
        first, top = level_pairs_by_scan(rank, closed, opened)
        made_first, made_top = _level_pairs(rank, closed, opened)
        assert list(made_first.items()) == list(first.items()) and made_top == top
        read_first, read_top = replay._level_pairs(rank, closed, opened)
        assert list(read_first.items()) == list(first.items())
        assert read_top == {key: i for key, (i, _) in top.items()}


def _mixed_carrier_payloads():
    """One payload of each kind with one element moved to another carrier."""
    merge = to_jsonable(tong_merge([SeqFunc([1], (0, 2))], [SeqFunc((), (3,))]))
    merge["u_seq"][0]["omega"] = "1"
    iteration = _seq_iteration_payload()
    iteration["f"]["omega"] = "0"  # a_seq has none: each step's frame would drop omega
    urysohn = _urysohn_payload("finite")
    urysohn["pairs"][0]["h"] = {"prefix": [], "cycle": ["0"], "omega": None}
    report = json.loads(json.dumps(to_jsonable(
        conditions.check_condition(conditions.SeqYEndModel(), "T", {
            "f": SeqFunc((), (0,), 0), "g": SeqFunc((), (1,), 1)}))))
    report["certificate"]["a_seq"][0]["omega"] = None
    space = FiniteSpace.discrete(3)
    gens = [FiniteFunc(space, [0, 1, 1])]
    indicators, traces = block_indicators(space, gens)
    block = json.loads(json.dumps(to_jsonable(
        {"generators": gens, "traces": traces, "indicators": indicators})))
    block["indicators"][1] = {"prefix": [], "cycle": ["0", "1", "1"], "omega": None}
    return {"merge": merge, "iteration": iteration, "urysohn": urysohn, "condition": report,
            "block": {"block_replay": block}}


@pytest.mark.parametrize("kind", ["merge", "iteration", "urysohn", "condition", "block"])
def test_payload_on_two_carriers_is_malformed(kind):
    """A payload's elements share one frame, so they must share one carrier:
    each kind refuses one element moved off it."""
    payload = _mixed_carrier_payloads()[kind]
    with pytest.raises(MalformedPayload, match=f"malformed {kind} payload .ValueError: "
                                               "elements on different carriers"):
        verify_report(payload)


def test_frame_past_max_frame_is_refused_at_once(tmp_path, capsys):
    """A 767-byte merge payload whose nine sequences have cycles 2, 3, 5, ...,
    17 would align over 510,510 points; replay refuses it (exit 2) before
    laying out a row."""
    def seq(c):
        return {"prefix": [], "cycle": [str(i % 3) for i in range(c)], "omega": None}

    payload = {"trace": "merge", "a_norm": [seq(2), seq(3)], "b_norm": [seq(5), seq(7)],
               "u_seq": [seq(11), seq(13)], "v_seq": [seq(17), seq(2)], "result": seq(3)}
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(payload))
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and (f"a frame of 510510 points exceeds MAX_FRAME = {MAX_FRAME}"
                                   in captured.err)
    payload["v_seq"][0] = payload["v_seq"][1]  # 2 * 3 * 5 * 7 * 11 * 13 = 30,030 points
    assert verify_report(payload)["verified"] == 1
