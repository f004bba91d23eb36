"""Algebra and order laws of the shared element kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.errors import EmptyFamily, PreconditionViolation
from normlab.finite_space import (FiniteFunc, FiniteSpace, block_indicators, envelopes,
                                  indicator, insert_finite)
from normlab.lattice_core import finite_join, rescale_to_unit, unscale
from normlab.seq_model import OMEGA, SeqFunc, threshold_indicator
from oracles import probe_points, shift_by_constant_element, superlevel_mask_by_values, threshold_by_fractions

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)

SPACE = FiniteSpace.discrete(3)


@st.composite
def finite_funcs(draw):
    return FiniteFunc(SPACE, [draw(rationals) for _ in range(3)])


@st.composite
def seq_funcs(draw):
    prefix = draw(st.lists(rationals, max_size=4))
    cycle = draw(st.lists(rationals, min_size=1, max_size=4))
    return SeqFunc(prefix, cycle)


elements = st.one_of(finite_funcs(), seq_funcs())


@given(finite_funcs(), finite_funcs(), finite_funcs())
def test_lattice_laws_finite(a, b, c):
    assert a.join(b).eq_pointwise(b.join(a))
    assert a.meet(b).eq_pointwise(b.meet(a))
    assert a.join(b.join(c)).eq_pointwise(a.join(b).join(c))
    assert a.meet(a.join(b)).eq_pointwise(a)
    assert a.join(a.meet(b)).eq_pointwise(a)


@given(seq_funcs(), seq_funcs(), seq_funcs())
@settings(max_examples=60)
def test_ring_laws_seq(a, b, c):
    assert (a + b).eq_pointwise(b + a)
    assert ((a + b) + c).eq_pointwise(a + (b + c))
    assert (a * (b + c)).eq_pointwise(a * b + a * c)
    assert (a - a).eq_pointwise(a.const_like(0))


@given(elements)
def test_abs_is_join_with_negation(a):
    absolute, norm = a.join(-a), a.norm()  # |a| = a v (-a)
    assert norm == max(abs(a.value_at(p)) for p in probe_points(a))
    assert absolute.le(a.const_like(norm))


@given(elements, st.data())
def test_abs_sum_dominated_by_doubled_join(a, data):
    # |a + b| <= 2(|a| v |b|) on a matching carrier
    if isinstance(a, FiniteFunc):
        b = data.draw(finite_funcs())
    else:
        b = data.draw(seq_funcs())
    lhs = (a + b).join(-(a + b))
    rhs = a.join(-a).join(b.join(-b)) * 2
    assert lhs.le(rhs)


@given(seq_funcs())
def test_scalar_coercions(a):
    assert (a + 1).eq_pointwise(a + Fraction(1))
    assert (a + "1/2").eq_pointwise(a + Fraction(1, 2))
    assert (2 * a).eq_pointwise(a * 2)
    assert (1 - a).eq_pointwise(-(a - 1))


def test_first_violation_names_a_point():
    f = FiniteFunc(SPACE, [0, 2, 0])
    g = FiniteFunc(SPACE, [1, 1, 1])
    assert f.first_violation(g) == 1
    assert g.first_violation(g) is None
    assert not f.le(g)
    assert f.meet(g).le(g)


def test_idempotent_detection():
    chi = FiniteFunc(SPACE, [1, 0, 1])
    assert (chi * chi).eq_pointwise(chi)
    other = FiniteFunc(SPACE, [1, 2, 0])
    assert not (other * other).eq_pointwise(other)


def test_finite_join_empty_family():
    with pytest.raises(EmptyFamily):
        finite_join([])


@given(finite_funcs(), finite_funcs())
def test_rescale_roundtrip(f, extra):
    g = f.join(extra) + 1
    f1, g1, transform = rescale_to_unit(f, g)
    lo, _ = f1.value_bounds()
    _, hi = g1.value_bounds()
    assert lo >= 0 and hi <= 1
    assert f1.le(g1)
    assert unscale(f1, transform).eq_pointwise(f)
    assert unscale(g1, transform).eq_pointwise(g)


# -- the int kernel against a Fraction reference --------------------------------

kernel_values = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def kernel_pairs(draw):
    """Two elements of one carrier: a finite space, or sequences with or
    without omega (cycle lengths 1 to 5, so coprime pairs occur); each one
    is built from Fractions or by arithmetic."""
    kind = draw(st.sampled_from(["finite", "seq", "seq_omega"]))

    def one():
        if kind == "finite":
            e = FiniteFunc(SPACE, draw(st.lists(kernel_values, min_size=3, max_size=3)))
        else:
            e = SeqFunc(draw(st.lists(kernel_values, max_size=4)),
                        draw(st.lists(kernel_values, min_size=1, max_size=5)),
                        draw(kernel_values) if kind == "seq_omega" else None)
        return e * 1 if draw(st.booleans()) else e

    a = one()
    return a, (_fraction_copy(a) if draw(st.integers(0, 4)) == 0 else one())


def _fraction_copy(e):
    """The same element, built again from its Fraction view."""
    if isinstance(e, FiniteFunc):
        return FiniteFunc(e.space, e.values)
    return SeqFunc(e.prefix, e.cycle, e.omega)


def _points(a, b):
    """Every probe point of the pair: one span of the aligned sequences."""
    if isinstance(a, FiniteFunc):
        return list(range(a.space.n))
    span = max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.cycle), len(b.cycle))
    return list(range(span)) + ([OMEGA] if a.has_omega else [])


def _assert_canonical(e):
    assert e._den > 0 and math.gcd(e._den, *e._row) == 1
    if isinstance(e, SeqFunc):
        n = len(e.cycle)
        assert all(e.cycle[d:] != e.cycle[:n - d] for d in range(1, n) if n % d == 0)
        assert not e.prefix or e.prefix[-1] != e.cycle[-1]


@given(kernel_pairs(), kernel_values)
@settings(max_examples=200)
def test_int_kernel_matches_fraction_reference(pair, r):
    a, b = pair
    pts = _points(a, b)
    fa, fb = [a.value_at(p) for p in pts], [b.value_at(p) for p in pts]
    cases = [
        (a + b, [x + y for x, y in zip(fa, fb)]),
        (a - b, [x - y for x, y in zip(fa, fb)]),
        (a * b, [x * y for x, y in zip(fa, fb)]),
        (a * r, [x * r for x in fa]),
        (r - a, [r - x for x in fa]),
        (-a, [-x for x in fa]),
        (a.join(b), [max(x, y) for x, y in zip(fa, fb)]),
        (a.meet(b), [min(x, y) for x, y in zip(fa, fb)]),
    ]
    for result, expected in cases:
        _assert_canonical(result)
        assert [result.value_at(p) for p in pts] == expected
    diffs = [p for p, x, y in zip(pts, fa, fb) if x > y]
    assert a.first_violation(b) == (diffs[0] if diffs else None)
    assert a.le(b) == (not diffs)
    assert a.eq_pointwise(b) == (fa == fb)
    assert a.norm() == max(abs(x) for x in fa)
    assert a.value_bounds() == (min(fa), max(fa))


@given(kernel_pairs())
def test_equal_elements_hash_equal_whichever_view_came_first(pair):
    a, _ = pair
    by_ints, by_fractions = a * 1, _fraction_copy(a)
    assert by_ints == by_fractions and by_fractions == by_ints
    assert hash(by_ints) == hash(by_fractions) == hash(_fraction_copy(a))
    read_first = a * 1
    assert read_first.value_at(0) == a.value_at(0)  # the Fraction view is built first
    assert hash(read_first) == hash(a) and read_first == _fraction_copy(a)


# -- every element holds its int row -----------------------------------------

# the open point 0 lies below 1 and 2
FORK = FiniteSpace(3, [0b001, 0b011, 0b101])


def _f():
    return FiniteFunc(FORK, [Fraction(1, 2), Fraction(-1, 3), 2])


def _s():
    return SeqFunc([Fraction(1, 2)], [1, Fraction(2, 3)], Fraction(1, 4))


BUILT = {  # one element from each way an element is built
    "FiniteFunc": _f,
    "SeqFunc": _s,
    "from_pairs": lambda: SeqFunc.from_pairs([(1, 2)], [(3, 4), (1, 6)], (3, 4)),
    "const_like finite": lambda: _f().const_like(Fraction(5, 6)),
    "const_like seq": lambda: _s().const_like(Fraction(5, 6)),
    "kernel finite": lambda: (_f() * _f() - Fraction(1, 3)).join(_f()),
    "kernel seq": lambda: (_s() * _s() + _s()).meet(_s() - 1),
    "threshold_indicator": lambda: threshold_indicator(_s(), Fraction(1, 2)),
    "indicator": lambda: indicator(FORK, [0, 2]),
    "upper envelope": lambda: envelopes(_f())[0],
    "lower envelope": lambda: envelopes(_f())[1],
    # usc f (f(1), f(2) >= f(0)) below lsc g (g(1), g(2) <= g(0))
    "insert_finite": lambda: insert_finite(FiniteFunc(FORK, [0, 1, Fraction(1, 2)]),
                                           FiniteFunc(FORK, [2, 1, Fraction(3, 2)])),
    "block_indicators": lambda: block_indicators(FORK, [_f()])[0][1],
}


@pytest.mark.parametrize("path", sorted(BUILT))
def test_every_element_holds_its_int_row_from_construction(path):
    """Each way of building an element stores its int row and denominator,
    and the Fraction view read later is that row over that denominator."""
    e = BUILT[path]()
    assert "_row" in vars(e) and "_den" in vars(e)
    view = e.values if isinstance(e, FiniteFunc) else \
        e.prefix + e.cycle + (() if e.omega is None else (e.omega,))
    assert view == tuple(Fraction(x, e._den) for x in e._row)


# -- superlevel rows and scalar shifts against their Fraction paths -------------

@st.composite
def leveled_elements(draw):
    """An element of either carrier, with or without omega, built from
    Fractions or by arithmetic, and a level: any rational or a value the
    element attains."""
    kind = draw(st.sampled_from(["finite", "seq", "seq_omega"]))
    if kind == "finite":
        values = draw(st.lists(kernel_values, min_size=3, max_size=3))
        e = FiniteFunc(SPACE, values)
    else:
        prefix = draw(st.lists(kernel_values, max_size=4))
        cycle = draw(st.lists(kernel_values, min_size=1, max_size=5))
        omega = draw(kernel_values) if kind == "seq_omega" else None
        e = SeqFunc(prefix, cycle, omega)
        values = prefix + cycle + ([] if omega is None else [omega])
    e = e * 1 if draw(st.booleans()) else e
    return e, draw(st.one_of(kernel_values, st.sampled_from(values)))


def _kernel_view(e):
    return e._shape, e._row, e._den


@given(leveled_elements(), st.booleans())
@settings(max_examples=200)
def test_superlevel_sets_match_the_fraction_threshold(pair, strict):
    e, level = pair
    got = threshold_indicator(e, level, strict)
    assert _kernel_view(got) == _kernel_view(threshold_by_fractions(e, level, strict))
    if isinstance(e, FiniteFunc):
        # the finite Urysohn carrier reads its bitmasks from the indicator's row
        row = e.superlevel_row(level, strict)
        assert list(got._row) == row
        assert sum(bit << x for x, bit in enumerate(row)) == \
            superlevel_mask_by_values(e, level, strict)


shifts = st.one_of(st.sampled_from([0, Fraction(0), -2, Fraction(-7, 3), Fraction(5, 6)]),
                   st.integers(-4, 4), kernel_values)


@given(leveled_elements(), shifts, st.sampled_from(["add", "sub", "rsub"]))
@settings(max_examples=200)
def test_scalar_shifts_match_the_constant_element_path(pair, c, op):
    e, _ = pair
    got = {"add": lambda: e + c, "sub": lambda: e - c, "rsub": lambda: c - e}[op]()
    assert type(got) is type(e)
    assert _kernel_view(got) == _kernel_view(shift_by_constant_element(e, c, op))


def test_operands_on_one_shape_skip_the_alignment(monkeypatch):
    """Every binary operation pairs its rows through ``_pair``: operands on one
    shape (equal spaces need not be one object) never reach the carrier's
    ``_widen``; operands on different shapes do, and different spaces raise."""
    aligned = []
    for cls in (SeqFunc, FiniteFunc):
        def counted(self, shape, other, _widen=cls._widen):
            aligned.append(type(self).__name__)
            return _widen(self, shape, other)
        monkeypatch.setattr(cls, "_widen", counted)
    a, b = SeqFunc([1], (2, 3)), SeqFunc([0], (5, 1))
    f, g = FiniteFunc(FiniteSpace.discrete(2), [1, 2]), FiniteFunc(FiniteSpace.discrete(2), [3, 1])
    for x, y in ((a, b), (f, g)):
        assert x._shape == y._shape
        x + y, x - y, x * y, x.join(y), x.meet(y), x.le(y), x.eq_pointwise(y)
        x.zip_with(y, max)
    assert aligned == []
    assert (a + SeqFunc((), (1, 2, 3))).at(7) == 2 + 2
    assert aligned == ["SeqFunc"]
    with pytest.raises(PreconditionViolation, match="different spaces"):
        f + FiniteFunc(FiniteSpace(2, [3, 2]), [1, 1])
    assert aligned == ["SeqFunc", "FiniteFunc"]
