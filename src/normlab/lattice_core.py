"""Exact arithmetic kernel for bounded lattice-ordered function algebras.

Carriers (functions on a finite space, eventually periodic sequences)
implement :class:`AlgElement`; everything here is derived from a small set
of primitives: pointwise zipping, a finite probe set of points that covers
every attained value, and evaluation.  Ring and lattice axioms then hold
exactly, and order, norm, and equality are all decidable.

The archimedean axiom (na <= b for all n forces a <= 0) holds by
construction on both carriers and is not asserted dynamically: it is
universally quantified over the naturals, while every element here attains
only finitely many values.
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import EmptyFamily, OrderViolation
from .rationals import ONE, ZERO, rat


class AlgElement(abc.ABC):
    """An element of a bounded archimedean lattice-ordered function algebra.

    Concrete carriers supply pointwise combination and a finite probe set;
    the algebra operations, order, absolute value, and sup-norm are derived.
    All values are immutable after construction and all operations are pure.
    """

    @abc.abstractmethod
    def zip_with(self, other: "AlgElement", fn: Callable[[Fraction, Fraction], Fraction]) -> "AlgElement":
        """Pointwise combination with an element of the same carrier."""

    @abc.abstractmethod
    def map_values(self, fn: Callable[[Fraction], Fraction]) -> "AlgElement":
        """Pointwise transformation."""

    @abc.abstractmethod
    def const_like(self, value) -> "AlgElement":
        """The constant function with the given value, on this carrier."""

    @abc.abstractmethod
    def probe_points(self) -> Sequence:
        """A finite set of points covering every value this element attains."""

    @abc.abstractmethod
    def value_at(self, point) -> Fraction:
        """Exact evaluation at a probe point."""

    # ring and lattice structure, all pointwise

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.const_like(rat(other))
        return other

    def __add__(self, other):
        return self.zip_with(self._coerce(other), lambda x, y: x + y)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.zip_with(self._coerce(other), lambda x, y: x - y)

    def __rsub__(self, other):
        return self._coerce(other).zip_with(self, lambda x, y: x - y)

    def __neg__(self):
        return self.map_values(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = rat(other)
            return self.map_values(lambda x: r * x)
        return self.zip_with(other, lambda x, y: x * y)

    def __rmul__(self, other):
        return self.__mul__(other)

    def join(self, other):
        return self.zip_with(self._coerce(other), max)

    def meet(self, other):
        return self.zip_with(self._coerce(other), min)

    # order and norm

    def sample_values(self) -> list[Fraction]:
        return [self.value_at(p) for p in self.probe_points()]

    def value_bounds(self) -> tuple[Fraction, Fraction]:
        vals = self.sample_values()
        return min(vals), max(vals)

    def first_violation(self, other) -> object | None:
        """The first probe point where self <= other fails, or None."""
        diff = self - self._coerce(other)
        for p in diff.probe_points():
            if diff.value_at(p) > 0:
                return p
        return None

    def le(self, other) -> bool:
        return self.first_violation(other) is None

    def __le__(self, other):
        return self.le(other)

    def __ge__(self, other):
        return self._coerce(other).le(self)

    def eq_pointwise(self, other) -> bool:
        diff = self - self._coerce(other)
        lo, hi = diff.value_bounds()
        return lo == 0 and hi == 0

    def norm(self) -> Fraction:
        """The least rational r with |self| <= r, exact on these carriers."""
        return max(abs(v) for v in self.sample_values())

    def abs_elem(self):
        """|a| = a v (-a)."""
        return self.join(-self)

    def is_idempotent(self) -> bool:
        return (self * self).eq_pointwise(self)

    def is_zero_one_valued(self) -> bool:
        return all(v in (ZERO, ONE) for v in self.sample_values())


def finite_meet(elems: Iterable[AlgElement]) -> AlgElement:
    elems = list(elems)
    if not elems:
        raise EmptyFamily("meet of an empty family is not formed")
    out = elems[0]
    for e in elems[1:]:
        out = out.meet(e)
    return out


def finite_join(elems: Iterable[AlgElement]) -> AlgElement:
    elems = list(elems)
    if not elems:
        raise EmptyFamily("join of an empty family is not formed")
    out = elems[0]
    for e in elems[1:]:
        out = out.join(e)
    return out


def rescale_to_unit(f: AlgElement, g: AlgElement):
    """Translate and scale a pair f <= g into the unit interval.

    Returns (f', g', (a, b)) with f' = (f+a)/b, g' = (g+a)/b and
    0 <= f' <= g' <= 1, where a is the negated infimum of f's values and b
    the supremum of (g+a)'s values (1 when that supremum is 0).  The
    transform is recorded so callers can invert the scaling exactly.
    """
    bad = f.first_violation(g)
    if bad is not None:
        raise OrderViolation(bad, f.value_at(bad), g.value_at(bad))
    a = -f.value_bounds()[0]
    b = (g + a).value_bounds()[1]
    if b == 0:
        b = ONE
    inv = Fraction(1, 1) / b
    return (f + a) * inv, (g + a) * inv, (a, b)


def unscale(h: AlgElement, transform: tuple[Fraction, Fraction]) -> AlgElement:
    """Invert :func:`rescale_to_unit`: h * b - a."""
    a, b = transform
    return h * b - a
