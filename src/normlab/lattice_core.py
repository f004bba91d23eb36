"""Exact arithmetic kernel for bounded lattice-ordered function algebras.

An element holds its values as int numerators over one reduced positive
denominator, in a flat row with one entry per probe position, plus the
carrier's shape, which says which point each position stands for.  Each
element operation is written once, here, as one scan of two rows that
``_scaled`` puts on one shape and denominator; a carrier (functions on a
finite space, eventually periodic sequences) supplies only the least shape
holding two (``_widen``, which ``_scaled`` skips for rows on one shape), a
row on a wider shape (``_on``), the point of each row position, and its
canonical form.  ``lay_out`` puts many elements on one shape and
denominator, for procedures on rows.  Two operations need no second row
and keep the shape as it is, and are written once here too: the 0/1
superlevel row of an element, by integer comparison with the level, and a
shift by a rational constant, rescaled to the common denominator and
reduced.  Ring and lattice axioms then hold exactly, and order, norm, and
equality are all decidable.  Every constructor builds the int row; every
value the API returns is still a ``Fraction``, read off the row when first
read (a finite function built from Fractions keeps them).

The archimedean axiom (na <= b for all n forces a <= 0) holds by
construction on both carriers and is not asserted dynamically: it is
universally quantified over the naturals, while every element here attains
only finitely many values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import CoverViolation, EmptyFamily, GapViolation, PreconditionViolation
from .rationals import rat


def _to_row(values) -> tuple[tuple[int, ...], int]:
    """Fractions as numerators over their least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _lowest_terms(row, den: int):
    """(row, den) divided by the gcd of den and every entry."""
    if den != 1:
        g = math.gcd(den, *row)
        if g != 1:
            return [x // g for x in row], den // g
    return row, den


class AlgElement:
    """An element of a bounded archimedean lattice-ordered function algebra.

    Every constructor sets ``_shape`` and the int view, ``_row`` over
    ``_den``, in lowest terms.  A carrier implements ``_widen``, ``_on``,
    ``_point``, ``const_like`` and ``value_at``, and overrides
    ``_canonical_row`` when a row has more than one representation.
    All values are immutable after construction and all operations are pure.
    """

    @classmethod
    def _new(cls, shape, row: tuple, den: int):
        """Trusted constructor: a canonical row, already in lowest terms."""
        obj = object.__new__(cls)
        obj._shape, obj._row, obj._den = shape, row, den
        return obj

    def _from_row(self, shape, row, den: int):
        """The canonical element of a row of numerators over den."""
        row, den = _lowest_terms(row, den)
        shape, row = self._canonical_row(shape, row)
        return self._new(shape, tuple(row), den)

    def _canonical_row(self, shape, row):
        return shape, row

    def _scaled(self, other):
        """(xs, ys, shape, den): the rows over their common denominator, on
        one shape as they are, else on the least shape holding both."""
        shape = self._shape
        if type(other) is type(self) and (other._shape is shape or other._shape == shape):
            xs, ys = self._row, other._row
        else:
            shape = self._widen(shape, other)
            xs, ys = self._on(shape), other._on(shape)
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else math.lcm(d1, d2)
        xs = xs if den == d1 else [x * (den // d1) for x in xs]
        ys = ys if den == d2 else [y * (den // d2) for y in ys]
        return xs, ys, shape, den

    def zip_with(self, other, fn) -> "AlgElement":
        """Pointwise combination by a function on Fractions."""
        xs, ys, shape, den = self._scaled(other)
        return self._from_row(shape, *_to_row([rat(fn(Fraction(x, den), Fraction(y, den)))
                                              for x, y in zip(xs, ys)]))

    def superlevel_row(self, level, strict: bool = False) -> list[int]:
        """The 0/1 row of {x : self(x) >= level}, or > level when strict, on
        self's shape; each entry is x * q >= p * den for the level p/q."""
        s = rat(level)
        q, t = s.denominator, s.numerator * self._den
        if strict:
            return [1 if x * q > t else 0 for x in self._row]
        return [1 if x * q >= t else 0 for x in self._row]

    def _shifted(self, value, negate: bool = False):
        """self + value, or value - self when negate, for a rational value.

        Adding a constant keeps equal values equal, so a canonical shape stays
        canonical: the row is rescaled to the common denominator, shifted and
        reduced, with no constant element, alignment or canonical pass.
        """
        c = rat(value)
        d, q = self._den, c.denominator
        den = math.lcm(d, q)
        scale, t = den // d, c.numerator * (den // q)
        if negate:
            row = [t - x * scale for x in self._row]
        else:
            row = [x * scale + t for x in self._row]
        row, den = _lowest_terms(row, den)
        return self._new(self._shape, tuple(row), den)

    # ring and lattice structure, all pointwise

    def _coerce(self, other):
        return other if isinstance(other, AlgElement) else self.const_like(other)

    def __add__(self, other):
        if not isinstance(other, AlgElement):
            return self._shifted(other)
        xs, ys, shape, den = self._scaled(other)
        return self._from_row(shape, [x + y for x, y in zip(xs, ys)], den)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, AlgElement):
            return self._shifted(-rat(other))
        xs, ys, shape, den = self._scaled(other)
        return self._from_row(shape, [x - y for x, y in zip(xs, ys)], den)

    def __rsub__(self, other):
        return self._shifted(other, negate=True)

    def __neg__(self):
        return self._new(self._shape, tuple(-x for x in self._row), self._den)

    def __mul__(self, other):
        if isinstance(other, AlgElement):
            xs, ys, shape, den = self._scaled(other)
            return self._from_row(shape, [x * y for x, y in zip(xs, ys)], den * den)
        r = rat(other)
        num = r.numerator
        return self._from_row(self._shape, [x * num for x in self._row],
                              self._den * r.denominator)

    def __rmul__(self, other):
        return self.__mul__(other)

    def join(self, other):
        xs, ys, shape, den = self._scaled(self._coerce(other))
        return self._from_row(shape, [x if x >= y else y for x, y in zip(xs, ys)], den)

    def meet(self, other):
        xs, ys, shape, den = self._scaled(self._coerce(other))
        return self._from_row(shape, [x if x <= y else y for x, y in zip(xs, ys)], den)

    # order and norm

    def value_bounds(self) -> tuple[Fraction, Fraction]:
        row, den = self._row, self._den
        return Fraction(min(row), den), Fraction(max(row), den)

    def first_violation(self, other) -> object | None:
        """The first probe point where self <= other fails, or None."""
        xs, ys, shape, _ = self._scaled(self._coerce(other))
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x > y:
                return self._point(shape, i)
        return None

    def le(self, other) -> bool:
        return self.first_violation(other) is None

    def __le__(self, other):
        return self.le(other)

    def __ge__(self, other):
        return self._coerce(other).le(self)

    def eq_pointwise(self, other) -> bool:
        xs, ys, _, _ = self._scaled(self._coerce(other))
        return xs == ys

    def norm(self) -> Fraction:
        """The least rational r with |self| <= r, exact on these carriers."""
        row = self._row
        return Fraction(max(max(row), -min(row)), self._den)

    def __eq__(self, other):
        """Same carrier and values: the same shape, denominator and row."""
        return (type(other) is type(self)
                and (self._shape is other._shape or self._shape == other._shape)
                and self._den == other._den and self._row == other._row)

    def __hash__(self):
        return hash((self._shape, self._den, self._row))


def lay_out(elems: Sequence[AlgElement], shape=None) -> tuple[object, int, list]:
    """(shape, den, rows): the elements as int rows over their least common
    denominator, on the least shape holding theirs and ``shape``; raises as
    ``_scaled`` does."""
    shape = elems[0]._shape if shape is None else shape
    for e in elems:
        shape = elems[0]._widen(shape, e)
    den = math.lcm(*{e._den for e in elems})
    return shape, den, [e._on(shape) if e._den == den else
                        [x * (den // e._den) for x in e._on(shape)] for e in elems]


# Checks on the values a scenario instance holds, each raising an error keyed
# to the instance key it read; the insertion and cover routes of every carrier
# call them, and the cover rule checks its cover on the rows it picks from.

def check_positive(value, key: str) -> Fraction:
    """The value as a Fraction, if it is positive."""
    v = rat(value)
    if v <= 0:
        raise PreconditionViolation(f"{key} must be positive", key=key)
    return v


def check_order(f: AlgElement, g: AlgElement) -> None:
    """f <= g at every point; else an error keyed ``g`` at the first point it fails."""
    bad = f.first_violation(g)
    if bad is not None:
        raise PreconditionViolation(f"f <= g fails at point {bad!r}", key="g")


def check_gap(f: AlgElement, g: AlgElement, epsilon) -> Fraction:
    """The gap f + epsilon <= g of a strict insertion, epsilon positive; returns
    epsilon.  Both errors are keyed ``epsilon``."""
    eps = check_positive(epsilon, "epsilon")
    shifted = f + eps
    bad = shifted.first_violation(g)
    if bad is not None:
        raise GapViolation(bad, shifted.value_at(bad), g.value_at(bad))
    return eps


def subcover(epsilon, family) -> dict:
    """{"subfamily", "join_min"} of a cover: epsilon > 0, a nonempty family,
    and on the family's rows a column maximum at least epsilon at every
    position, else a shortfall keyed ``epsilon`` at the first position short.
    The subfamily is the indices one rule picks on those rows: the first
    member above epsilon/2 at the last position (omega, on the compactified
    naturals), then at each position where it is at most 0 the first member
    at least epsilon/2 there (each exists, as the cover is at least epsilon);
    join_min is the least value of their join, which is positive."""
    eps = check_positive(epsilon, "epsilon")
    if not family:
        raise EmptyFamily("the cover family is empty", key="family")
    shape, den, rows = lay_out(family)
    # x / den >= eps iff q * x >= p * den, for eps = p/q; likewise eps/2 with 2q
    q, p = eps.denominator, eps.numerator * den
    for k, col in enumerate(zip(*rows)):
        top = max(col)
        if q * top < p:
            raise CoverViolation(family[0]._point(shape, k), Fraction(top, den), eps)
    q2 = 2 * q
    star = next(i for i, row in enumerate(rows) if q2 * row[-1] > p)
    chosen = [star]
    for k, x in enumerate(rows[star]):
        if x <= 0:
            j = next(i for i, row in enumerate(rows) if q2 * row[k] >= p)
            if j not in chosen:
                chosen.append(j)
    join_min = min(max(col) for col in zip(*(rows[i] for i in chosen)))
    return {"subfamily": chosen, "join_min": Fraction(join_min, den)}
