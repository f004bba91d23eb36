"""Finite topological spaces as a decidable laboratory.

A finite space is held as its specialization preorder: ``up[x]``, the
points above x, is the least open set containing x.  Finite topologies are
exactly the preorders' up-set families, so closedness, normality,
connectedness and the envelopes over all neighborhoods are decided from the
``up`` and ``down`` bitmasks.  A report writes a space as its ``up`` rows
(``up_points``); the open sets are derived only where the survey counts them.

Non-T1 finite spaces are exploratory territory: under the Hausdorff
assumptions of the classical insertion theorems, finite means discrete.
Suites exercising arbitrary finite spaces treat exhaustive enumeration, not
those theorems, as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import BoundExceeded, EmptyFamily, PreconditionViolation
from .lattice_core import AlgElement, _to_row, check_order, lay_out
from .rationals import ONE, ZERO, rat

MAX_ENUM_POINTS = 5


def _bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _mask(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _union(rows: Sequence[int], mask: int) -> int:
    """The union of ``rows[x]`` over the points x of ``mask``."""
    m = 0
    for x in _bits(mask):
        m |= rows[x]
    return m


class FiniteSpace:
    """A topology on points 0..n-1, given by its specialization preorder.

    ``up[x]``, the bitmask of the points y >= x, must lie in the space, hold
    x and hold ``up[y]`` for each y in it (checked in O(n^2)).  It is kept
    as ``min_nbhd``; ``down[x]`` is the closure of x, and ``components``
    lists the connected components in order of their least points.
    """

    def __init__(self, n: int, up: Sequence[int]):
        self.n = n
        self.full = (1 << n) - 1
        up = tuple(up)
        if len(up) != n or any(row & ~self.full or not row >> x & 1
                               for x, row in enumerate(up)):
            raise PreconditionViolation(
                f"preorder {list(up)} is not {n} reflexive rows inside the space")
        down = [0] * n
        for x, row in enumerate(up):
            for y in _bits(row):
                if up[y] & ~row:
                    raise PreconditionViolation(
                        f"preorder {list(up)} is not transitive at {x} <= {y}")
                down[y] |= 1 << x
        self.min_nbhd, self.down = up, tuple(down)
        link = [u | d for u, d in zip(up, down)]
        comps, left = [], self.full
        while left:  # grow each component from its least point
            comp, prev = left & -left, 0
            while comp != prev:
                prev, comp = comp, _union(link, comp)
            comps.append(comp)
            left &= ~comp
        self.components = tuple(comps)

    @classmethod
    def discrete(cls, n: int) -> "FiniteSpace":
        return cls(n, [1 << x for x in range(n)])

    @classmethod
    def from_preorder(cls, n: int, up: Sequence[int]) -> "FiniteSpace":
        """``FiniteSpace(n, up)``, under the name the benchmark's jobs call."""
        return cls(n, up)

    @cached_property
    def opens(self) -> frozenset[int]:
        """Every open set: the unions of minimal neighborhoods."""
        opens = {0}
        for row in self.min_nbhd:
            opens |= {u | row for u in opens}
        return frozenset(opens)

    @cached_property
    def up_points(self) -> tuple[tuple[int, ...], ...]:
        """Each point's row ``up[x]`` as its points in increasing order: the
        form a report writes the space in."""
        return tuple(tuple(_bits(row)) for row in self.min_nbhd)

    def closed_sets(self) -> list[int]:
        return [self.full & ~u for u in self.opens]

    def __eq__(self, other):  # n is len(min_nbhd)
        return isinstance(other, FiniteSpace) and self.min_nbhd == other.min_nbhd

    def __hash__(self):
        return hash(self.min_nbhd)

    def __repr__(self):
        return f"FiniteSpace({self.n}, {list(self.min_nbhd)})"


class FiniteFunc(AlgElement):
    """A rational-valued function on a finite space; all operations pointwise.

    Held as int numerators over one denominator from construction on (see
    :mod:`normlab.lattice_core`); ``values`` and ``value_at`` give Fractions.
    """

    def __init__(self, space: FiniteSpace, values: Iterable):
        self._shape = space
        self.values = tuple(rat(v) for v in values)
        if len(self.values) != space.n:
            raise PreconditionViolation(
                f"expected {space.n} values, got {len(self.values)}")
        self._row, self._den = _to_row(self.values)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """The row's Fractions, for a function built by arithmetic."""
        return tuple(Fraction(x, self._den) for x in self._row)

    @property
    def space(self) -> FiniteSpace:
        return self._shape

    def _widen(self, shape, other):  # a space holds no other
        if other._shape is not shape and other._shape != shape:
            raise PreconditionViolation("operands live on different spaces")
        return shape

    def _on(self, shape):
        return self._row

    def _point(self, shape, i):
        return i

    def const_like(self, value):
        v = rat(value)
        return self._new(self._shape, (v.numerator,) * self._shape.n, v.denominator)

    def value_at(self, point):
        return self.values[point]

    def __repr__(self):
        return f"FiniteFunc({list(map(str, self.values))})"


def envelopes(f: FiniteFunc) -> tuple[FiniteFunc, FiniteFunc]:
    """Upper and lower envelopes via minimal open neighborhoods of f's space.

    Returns (upper, lower) with upper(x) = sup f(U_x) and lower(x) = inf f(U_x);
    since U_x is the least neighborhood of x, these equal the inf-of-sup and
    sup-of-inf over all neighborhoods.  f is upper semicontinuous iff it equals
    its upper envelope, lower semicontinuous iff it equals its lower envelope.
    """
    return _envelope(f, max), _envelope(f, min)


def _envelope(f: FiniteFunc, extremum) -> FiniteFunc:
    """The envelope whose value at x is ``extremum`` of f over U_x."""
    return FiniteFunc(f.space, (extremum(f.values[y] for y in _bits(row))
                                for row in f.space.min_nbhd))


def is_usc(f: FiniteFunc) -> bool:
    return _envelope(f, max) == f


def is_lsc(f: FiniteFunc) -> bool:
    return _envelope(f, min) == f


def indicator(space: FiniteSpace, subset) -> FiniteFunc:
    """The 0/1 indicator of a point set (bitmask or iterable of points)."""
    mask = subset if isinstance(subset, int) else _mask(subset)
    if mask & ~space.full:
        raise PreconditionViolation(
            f"indicator input names a point outside the {space.n}-point space")
    return FiniteFunc(space, (ONE if mask & (1 << x) else ZERO for x in range(space.n)))


@dataclass(frozen=True)
class Separated:
    """Disjoint open supersets of a pair of disjoint closed sets."""
    c: int
    d: int
    u: int
    v: int


@dataclass(frozen=True)
class NotSeparable:
    """A disjoint closed pair admitting no disjoint open supersets."""
    c: int
    d: int


def separate(space: FiniteSpace, c: int, d: int):
    """Disjoint open supersets of disjoint closed sets c, d, if any.

    Uses least open supersets: in a finite space, c and d are separable iff
    their least open supersets are disjoint (smaller open supersets do not
    exist).
    """
    u = _union(space.min_nbhd, c)
    v = _union(space.min_nbhd, d)
    if u & v:
        return NotSeparable(c, d)
    return Separated(c, d, u, v)


def is_normal(space: FiniteSpace):
    """Normality by the pair test; on failure returns the offending closed pair.

    Disjoint closed sets are separable iff their least open supersets are
    disjoint, so the space is normal iff no points a, b have a common point
    above them (``up[a] & up[b]``) and disjoint closures (``down[a]``,
    ``down[b]``); those closures are the witness.
    """
    up, down = space.min_nbhd, space.down
    for a in range(space.n):
        for b in range(a):
            if up[a] & up[b] and not down[a] & down[b]:
                return False, NotSeparable(down[a], down[b])
    return True, None


@dataclass(frozen=True)
class Infeasible:
    """A component where no continuous insertion fits: max f exceeds min g there."""
    component: int
    max_f: Fraction
    min_g: Fraction


def check_usc_lsc(f: FiniteFunc, g: FiniteFunc) -> None:
    """The pair :func:`insert_finite` reads: f usc and g lsc on their own
    spaces, and f <= g on one space; each error is keyed to ``f`` or ``g``."""
    if not is_usc(f):
        raise PreconditionViolation("f is not upper semicontinuous", key="f")
    if not is_lsc(g):
        raise PreconditionViolation("g is not lower semicontinuous", key="g")
    check_order(f, g)


def insert_finite(f: FiniteFunc, g: FiniteFunc):
    """Continuous h on f's space with f <= h <= g, for usc f <= lsc g, if any.

    Feasibility holds iff max f <= min g on every connected component; the
    canonical witness takes the value max f on each component (the least
    continuous insertion).  Returns the witness or :class:`Infeasible` with
    the violating component.
    """
    check_usc_lsc(f, g)
    values = list(f.values)  # each point's component sets its value
    for comp in f.space.components:
        hi = max(f.values[x] for x in _bits(comp))
        lo = min(g.values[x] for x in _bits(comp))
        if hi > lo:
            return Infeasible(comp, hi, lo)
        for x in _bits(comp):
            values[x] = hi
    return FiniteFunc(f.space, values)


def block_indicators(space: FiniteSpace, generators: Sequence[FiniteFunc]):
    """Exact block indicators of the fiber partition of a generator set.

    Points x, y fall in the same block iff g(x) = g(y) for every generator.
    Each indicator is assembled from the generators using only +, scalar
    multiplication, join, meet, and constants: for y outside the block pick a
    separating g and clamp the affine normalization of g into [0,1]; the
    indicator is the meet over all such y (constant 1 when nothing is
    separated).  Returns (indicators, traces); a trace names each y with its
    separating generator, so it replays from the generators' values at the
    block's first point and at y.
    The values are those of that expression, computed on the generators'
    int rows (a ratio of two differences of one row needs no denominator).
    """
    if not generators:
        raise EmptyFamily("need at least one generator")
    _, _, rows = lay_out(generators, space)
    sig = list(zip(*rows))
    blocks: dict[tuple, list[int]] = {}  # fiber signature -> its points, increasing
    for x in range(space.n):
        blocks.setdefault(sig[x], []).append(x)
    indicators, traces = [], []
    for b in blocks.values():
        x = b[0]
        choices = [{"y": y, "g_index": next(i for i, row in enumerate(rows) if row[x] != row[y])}
                   for y in range(space.n) if sig[y] != sig[x]]
        chi = [(1, 1)] * space.n  # p/q: 1 ^ clamp01((g(z) - g(y)) / (g(x) - g(y))) met over y
        for c in choices:
            row = rows[c["g_index"]]
            gy, dx = row[c["y"]], row[x] - row[c["y"]]
            for z, (p, q) in enumerate(chi):
                num, d = (row[z] - gy, dx) if dx > 0 else (gy - row[z], -dx)
                if num * q < p * d:
                    chi[z] = (num, d) if num > 0 else (0, 1)
        den = math.lcm(*(q for _, q in chi))
        indicators.append(generators[0]._from_row(space, [p * (den // q) for p, q in chi], den))
        traces.append({"block": b, "choices": choices})
    return indicators, traces


def enumerate_preorders(n: int) -> Iterator[list[int]]:
    """All reflexive transitive relations on 0..n-1, as up-set bitmask rows."""
    rows = [0] * n

    def consistent(i):
        ri = rows[i]
        for y in _bits(ri):
            if y <= i and rows[y] | ri != ri:
                return False
        for x in range(i):
            if rows[x] & (1 << i) and ri | rows[x] != rows[x]:
                return False
        return True

    def fill(i):
        if i == n:
            yield list(rows)
            return
        low = (1 << i) - 1
        for extra in range(1 << (n - 1)):  # every row holding i, in increasing order
            rows[i] = (extra & low) | ((extra & ~low) << 1) | (1 << i)
            # transitivity constraints among rows 0..i prune the search early;
            # pairs involving a later row are checked when that row is set
            if consistent(i):
                yield from fill(i + 1)

    yield from fill(0)


def enumerate_spaces(n: int) -> Iterator[FiniteSpace]:
    """Every topology on n labeled points, exactly once.

    Finite topologies correspond bijectively to preorders (the specialization
    preorder; opens are the up-closed sets), so enumeration runs over
    preorders.  A brute-force enumeration of union-intersection-closed set
    families cross-checks the counts in the test suite.
    """
    if n > MAX_ENUM_POINTS:
        raise BoundExceeded(f"enumeration limited to {MAX_ENUM_POINTS} points, got {n}")
    for up in enumerate_preorders(n):
        yield FiniteSpace(n, up)
