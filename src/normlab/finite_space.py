"""Finite topological spaces as a decidable laboratory.

Spaces are stored as their full family of open sets (bitmasks over the
points); at the sizes handled here that keeps every topological question a
set-algebra assertion.  Envelopes use the minimal open neighborhood of each
point, which exists in any finite space and realizes the inf/sup over all
neighborhoods.

Non-T1 finite spaces are exploratory territory: under the Hausdorff
assumptions of the classical insertion theorems, finite means discrete.
Suites exercising arbitrary finite spaces treat exhaustive enumeration, not
those theorems, as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import BoundExceeded, EmptyFamily, PreconditionViolation
from .lattice_core import AlgElement, LazyView, check_order
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


class FiniteSpace:
    """A topology on points 0..n-1, given by its family of open sets.

    The family must contain the empty set and the full set and be closed
    under union and intersection (checked at construction; for finite
    families that is the whole topology axiom set).  The specialization
    preorder and the minimal open neighborhoods are derived and cached.
    """

    def __init__(self, n: int, opens: Iterable[int]):
        self.n = n
        self.full = (1 << n) - 1
        opens = frozenset(opens)
        if 0 not in opens or self.full not in opens:
            raise PreconditionViolation("opens must contain the empty and full sets")
        for u in opens:
            if u & ~self.full:
                raise PreconditionViolation(f"open set {u:b} has points outside the space")
            for v in opens:
                if (u | v) not in opens or (u & v) not in opens:
                    raise PreconditionViolation(
                        f"family not closed under union/intersection on {u:b}, {v:b}")
        self.opens = opens
        # minimal open neighborhood of x: intersection of all opens containing x
        self.min_nbhd = []
        for x in range(n):
            m = self.full
            for u in opens:
                if u & (1 << x):
                    m &= u
            self.min_nbhd.append(m)
        self._components = self._compute_components()

    @classmethod
    def discrete(cls, n: int) -> "FiniteSpace":
        return cls(n, range(1 << n))

    @classmethod
    def from_preorder(cls, n: int, up: Sequence[int]) -> "FiniteSpace":
        """The Alexandrov topology whose opens are the up-closed sets of a preorder.

        ``up[x]`` is the bitmask of points reachable from x (must include x).
        """
        opens = [m for m in range(1 << n)
                 if all(up[x] | m == m for x in _bits(m))]
        return cls(n, opens)

    def is_closed(self, mask: int) -> bool:
        return (self.full & ~mask) in self.opens

    def closed_sets(self) -> list[int]:
        return [self.full & ~u for u in self.opens]

    def least_open_superset(self, mask: int) -> int:
        """The smallest open set containing the given set (union of minimal neighborhoods)."""
        m = 0
        for x in _bits(mask):
            m |= self.min_nbhd[x]
        return m

    def _compute_components(self) -> list[int]:
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for x in range(self.n):
            for y in _bits(self.min_nbhd[x]):
                parent[find(x)] = find(y)
        comps: dict[int, int] = {}
        out = []
        for x in range(self.n):
            comps.setdefault(find(x), _mask(
                z for z in range(self.n) if find(z) == find(x)))
        seen = set()
        for x in range(self.n):
            r = find(x)
            if r not in seen:
                seen.add(r)
                out.append(comps[r])
        return out

    @property
    def components(self) -> list[int]:
        """Connected components (of the specialization graph) as bitmasks."""
        return list(self._components)

    def __eq__(self, other):
        return isinstance(other, FiniteSpace) and self.n == other.n and self.opens == other.opens

    def __hash__(self):
        return hash((self.n, self.opens))

    def __repr__(self):
        sets = sorted(sorted(_bits(u)) for u in self.opens)
        return f"FiniteSpace({self.n}, {sets})"


class FiniteFunc(AlgElement):
    """A rational-valued function on a finite space; all operations pointwise.

    Held as int numerators over one denominator (see :mod:`normlab.lattice_core`);
    ``values`` and ``value_at`` still give Fractions.
    """

    values = LazyView()

    def __init__(self, space: FiniteSpace, values: Iterable):
        self._shape = space
        self.values = tuple(rat(v) for v in values)
        if len(self.values) != space.n:
            raise PreconditionViolation(
                f"expected {space.n} values, got {len(self.values)}")

    @property
    def space(self) -> FiniteSpace:
        return self._shape

    def _fraction_row(self):
        return self.values

    def _set_fractions(self, values):
        self.values = tuple(values)

    def _align(self, other):
        if not isinstance(other, FiniteFunc) or not (
                other._shape is self._shape or other._shape == self._shape):
            raise PreconditionViolation("operands live on different spaces")
        return self._row, other._row, self._shape

    def _point(self, shape, i):
        return i

    def const_like(self, value):
        v = rat(value)
        return self._new(self._shape, (v.numerator,) * self._shape.n, v.denominator)

    def probe_points(self):
        return range(self.space.n)

    def value_at(self, point):
        return self.values[point]

    def __repr__(self):
        return f"FiniteFunc({list(map(str, self.values))})"


def envelopes(space: FiniteSpace, f: FiniteFunc) -> tuple[FiniteFunc, FiniteFunc]:
    """Upper and lower envelopes via minimal open neighborhoods.

    Returns (upper, lower) with upper(x) = sup f(U_x) and lower(x) = inf f(U_x);
    since U_x is the least neighborhood of x, these equal the inf-of-sup and
    sup-of-inf over all neighborhoods.  f is upper semicontinuous iff it equals
    its upper envelope, lower semicontinuous iff it equals its lower envelope.
    """
    upper = FiniteFunc(space, (max(f.values[y] for y in _bits(space.min_nbhd[x]))
                               for x in range(space.n)))
    lower = FiniteFunc(space, (min(f.values[y] for y in _bits(space.min_nbhd[x]))
                               for x in range(space.n)))
    return upper, lower


def is_usc(space: FiniteSpace, f: FiniteFunc) -> bool:
    return envelopes(space, f)[0] == f


def is_lsc(space: FiniteSpace, f: FiniteFunc) -> bool:
    return envelopes(space, f)[1] == f


def indicator(space: FiniteSpace, subset) -> FiniteFunc:
    """The 0/1 indicator of a point set (bitmask or iterable of points)."""
    mask = subset if isinstance(subset, int) else _mask(subset)
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
    u = space.least_open_superset(c)
    v = space.least_open_superset(d)
    if u & v:
        return NotSeparable(c, d)
    return Separated(c, d, u, v)


def is_normal(space: FiniteSpace):
    """Exhaustive normality check; on failure returns the offending closed pair."""
    closed = space.closed_sets()
    for c in closed:
        for d in closed:
            if c & d:
                continue
            res = separate(space, c, d)
            if isinstance(res, NotSeparable):
                return False, res
    return True, None


def urysohn(space: FiniteSpace, c, d):
    """A continuous [0,1] function vanishing on c and equal to 1 on d.

    c, d must be closed and disjoint.  Continuous rational functions on a
    finite space are constant on connected components, so a witness exists
    iff no component meets both sets; the witness is 0 on components meeting
    c, 1 on components meeting d, 0 elsewhere.  Returns the witness or
    :class:`NotSeparable` naming an offending component.
    """
    cm = c if isinstance(c, int) else _mask(c)
    dm = d if isinstance(d, int) else _mask(d)
    if not space.is_closed(cm) or not space.is_closed(dm):
        raise PreconditionViolation("urysohn inputs must be closed sets")
    if cm & dm:
        raise PreconditionViolation("urysohn inputs must be disjoint")
    values = [ZERO] * space.n
    for comp in space.components:
        meets_c, meets_d = comp & cm, comp & dm
        if meets_c and meets_d:
            return NotSeparable(cm & comp, dm & comp)
        level = ONE if meets_d else ZERO
        for x in _bits(comp):
            values[x] = level
    return FiniteFunc(space, values)


@dataclass(frozen=True)
class Infeasible:
    """A component where no continuous insertion fits: max f exceeds min g there."""
    component: int
    max_f: Fraction
    min_g: Fraction


def check_usc_lsc(space: FiniteSpace, f: FiniteFunc, g: FiniteFunc) -> None:
    """The pair :func:`insert_finite` reads: f usc, g lsc and f <= g; each
    error is keyed to ``f`` or ``g``."""
    if not is_usc(space, f):
        raise PreconditionViolation("f is not upper semicontinuous", key="f")
    if not is_lsc(space, g):
        raise PreconditionViolation("g is not lower semicontinuous", key="g")
    check_order(f, g)


def insert_finite(space: FiniteSpace, f: FiniteFunc, g: FiniteFunc):
    """Continuous h with f <= h <= g, for usc f <= lsc g, when one exists.

    Feasibility holds iff max f <= min g on every connected component; the
    canonical witness takes the value max f on each component (the least
    continuous insertion).  Returns the witness or :class:`Infeasible` with
    the violating component.
    """
    check_usc_lsc(space, f, g)
    values = [ZERO] * space.n
    for comp in space.components:
        hi = max(f.values[x] for x in _bits(comp))
        lo = min(g.values[x] for x in _bits(comp))
        if hi > lo:
            return Infeasible(comp, hi, lo)
        for x in _bits(comp):
            values[x] = hi
    return FiniteFunc(space, values)


def _clamp01(h: FiniteFunc) -> FiniteFunc:
    return h.join(ZERO).meet(ONE)


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
    """
    if not generators:
        raise EmptyFamily("need at least one generator")
    n = space.n
    sig = [tuple(g.values[x] for g in generators) for x in range(n)]
    blocks: list[list[int]] = []
    for x in range(n):
        for b in blocks:
            if sig[b[0]] == sig[x]:
                b.append(x)
                break
        else:
            blocks.append([x])
    indicators, traces = [], []
    for b in blocks:
        x = b[0]
        chi = FiniteFunc(space, [ONE] * n)
        choices = []
        for y in range(n):
            if sig[y] == sig[x]:
                continue
            gi = next(i for i, g in enumerate(generators)
                      if g.values[x] != g.values[y])
            g = generators[gi]
            gx, gy = g.values[x], g.values[y]
            h = _clamp01((g - gy) * (Fraction(1) / (gx - gy)))
            chi = chi.meet(h)
            choices.append({"y": y, "g_index": gi})
        indicators.append(chi)
        traces.append({"block": sorted(b), "choices": choices})
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
        base = 1 << i
        for extra in range(1 << n):
            if extra & base:
                continue
            rows[i] = base | extra
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
        yield FiniteSpace.from_preorder(n, up)
