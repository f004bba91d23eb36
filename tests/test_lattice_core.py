"""Algebra and order laws of the shared element kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab.errors import EmptyFamily, OrderViolation
from normlab.finite_space import FiniteFunc, FiniteSpace
from normlab.lattice_core import (
    finite_join,
    finite_meet,
    rescale_to_unit,
    unscale,
)
from normlab.seq_model import SeqFunc

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
    absolute, norm = a.abs_elem(), a.norm()
    assert absolute.eq_pointwise(a.join(-a))
    assert norm == max(abs(v) for v in a.sample_values())
    assert absolute.le(a.const_like(norm))


@given(elements, st.data())
def test_abs_sum_dominated_by_doubled_join(a, data):
    # |a + b| <= 2(|a| v |b|) on a matching carrier
    if isinstance(a, FiniteFunc):
        b = data.draw(finite_funcs())
    else:
        b = data.draw(seq_funcs())
    lhs = (a + b).abs_elem()
    rhs = (a.abs_elem().join(b.abs_elem())) * 2
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
    assert chi.is_idempotent()
    assert chi.is_zero_one_valued()
    assert not FiniteFunc(SPACE, [1, 2, 0]).is_idempotent()


def test_finite_meet_join_empty_family():
    with pytest.raises(EmptyFamily):
        finite_meet([])
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


def test_rescale_rejects_disorder():
    f = FiniteFunc(SPACE, [2, 0, 0])
    g = FiniteFunc(SPACE, [1, 1, 1])
    with pytest.raises(OrderViolation) as exc:
        rescale_to_unit(f, g)
    assert exc.value.point == 0
