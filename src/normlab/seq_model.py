"""The one-point compactification model of the discrete naturals.

Functions on the naturals are represented as eventually periodic rational
sequences (a finite prefix plus a repeating cycle), optionally carrying a
value at the added point omega.  These fragments are closed under all the
algebra operations, so order and equality stay decidable, and each
countable extension condition is certified by a closed-form rule for its
family rather than by a truncation of it.

A function on the compactified carrier is "convergent" when its cycle is a
single repeated value equal to its omega value; convergent functions are
exactly the representable continuous functions on the compactification.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    CarrierMismatch,
    NegativeInput,
    NotConvergent,
    OmegaMissing,
    PreconditionViolation,
    SearchBudgetExceeded,
)
from .lattice_core import AlgElement, _lowest_terms, check_order, check_positive, subcover
from .rationals import ZERO, rat


class Omega:
    """The added point of the compactification; ``OMEGA`` is its one instance."""

    def __repr__(self):
        return "omega"


OMEGA = Omega()


def _period(cycle) -> int:
    """The minimal period of a cycle: its length divided by each of its primes
    while the shorter period holds (the periods dividing it are the multiples
    of the minimal one)."""
    n = m = d = len(cycle)
    p = 2
    while m > 1:
        p = p if p * p <= m else m
        while m % p == 0:
            m //= p
            if cycle[d // p:] == cycle[:n - d // p]:
                d //= p
        p += 1
    return d


def _canonical(prefix, cycle):
    """Minimal period of the cycle, then the prefix entries that the rotated
    cycle already produces absorbed into it; works on ints and Fractions alike."""
    cycle = cycle[:_period(cycle)]
    c, k, j = len(cycle), len(prefix), 0
    while j < k and prefix[k - 1 - j] == cycle[-1 - j % c]:
        j += 1
    if j:
        prefix, r = prefix[:k - j], c - j % c
        cycle = cycle[r:] + cycle[:r]
    return tuple(prefix), tuple(cycle)


def _canonical_row(shape, row):
    """A row on its shape made canonical; untouched when its cycle is minimal
    and absorbs no prefix entry."""
    p, span, om = shape
    if _period(row[p:p + span]) == span and not (p and row[p - 1] == row[p + span - 1]):
        return shape, row
    prefix, cycle = _canonical(row[:p], row[p:p + span])
    return (len(prefix), len(cycle), om), prefix + cycle + tuple(row[p + span:])


def _num_den(value) -> tuple[int, int]:
    """An int, Fraction or "p/q" string as (numerator, positive denominator)."""
    if type(value) is int:
        return value, 1
    r = rat(value)
    return r.numerator, r.denominator


def _int_row(prefix, cycle, omega):
    """(shape, row, den) of the canonical element whose prefix, cycle and omega
    value (None for none) are given as (numerator, denominator) pairs: the
    numerators over the least common denominator, reduced, then canonical."""
    if not cycle:
        raise PreconditionViolation("cycle must be nonempty")
    pairs = [*prefix, *cycle] if omega is None else [*prefix, *cycle, omega]
    den = math.lcm(*{q for _, q in pairs})
    row, den = _lowest_terms([p * (den // q) for p, q in pairs], den)
    shape, row = _canonical_row((len(prefix), len(cycle), omega is not None), row)
    return shape, tuple(row), den


class SeqFunc(AlgElement):
    """An eventually periodic rational sequence, canonical by construction.

    The value at k is prefix[k] for k below the prefix length, then the cycle
    repeats.  When an omega value is present the function lives on the
    compactified carrier; operations require both operands on the same
    carrier.  The values are held as int numerators over one denominator
    (see :mod:`normlab.lattice_core`), in a row of the prefix, one cycle and
    the omega value, built as ints from the start; ``prefix``, ``cycle``,
    ``omega`` and ``at`` read Fractions off the row, each view built when it
    is first read.  Equality is decidable via the canonical form.
    """

    def __init__(self, prefix: Iterable = (), cycle: Iterable = (0,), omega=None):
        self._shape, self._row, self._den = _int_row(
            [_num_den(v) for v in prefix], [_num_den(v) for v in cycle],
            None if omega is None else _num_den(omega))

    @classmethod
    def from_pairs(cls, prefix, cycle, omega=None) -> "SeqFunc":
        """The element whose values are given as (numerator, denominator) pairs."""
        return cls._new(*_int_row(prefix, cycle, omega))

    @classmethod
    def constant(cls, value, with_omega: bool = False) -> "SeqFunc":
        v = rat(value)
        return cls((), (v,), v if with_omega else None)

    @classmethod
    def from_support(cls, pairs: dict[int, object], default=0, omega=None) -> "SeqFunc":
        """Finitely many exceptional values over a constant background."""
        top = max(pairs) + 1 if pairs else 0
        d = rat(default)
        return cls([rat(pairs.get(k, d)) for k in range(top)], (d,), omega)

    @classmethod
    def periodic(cls, cycle: Iterable, omega=None) -> "SeqFunc":
        return cls((), cycle, omega)

    @cached_property
    def prefix(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._den) for x in self._row[:self._shape[0]])

    @cached_property
    def cycle(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self._den) for x in _cycle(self))

    @cached_property
    def omega(self) -> Fraction | None:
        return _omega(self) if self.has_omega else None

    @property
    def has_omega(self) -> bool:
        return self._shape[2]

    def _num_at(self, k: int) -> int:
        """The numerator over ``_den`` of the value at the natural k."""
        p, c, _ = self._shape
        return self._row[k if k < p else p + (k - p) % c]

    def at(self, k: int) -> Fraction:
        return Fraction(self._num_at(k), self._den)

    def is_convergent(self) -> bool:
        """Single-valued cycle, equal to the omega value when one is present."""
        p, c, om = self._shape
        return c == 1 and (not om or self._row[p] == self._row[-1])

    # the carrier's part of the element kernel

    def _on(self, shape) -> tuple:
        """The row at indices 0..p+span-1, then omega, of a shape holding self's."""
        p, span, _ = shape
        k, c, om = self._shape
        row = self._row
        if k == p and c == span:
            return row
        out = (row[:k] + row[k:k + c] * ((p - k + span + c - 1) // c))[:p + span]
        return out + row[-1:] if om else out

    def _widen(self, shape, other):
        if not isinstance(other, SeqFunc):
            raise PreconditionViolation("operand is not a sequence function")
        (k1, c1, om), (k2, c2, om2) = shape, other._shape
        if om != om2:
            raise CarrierMismatch("one operand has an omega value, the other does not")
        return max(k1, k2), c1 if c1 % c2 == 0 else math.lcm(c1, c2), om

    def _point(self, shape, i):
        return OMEGA if i == shape[0] + shape[1] else i

    def _canonical_row(self, shape, row):
        return _canonical_row(shape, row)

    def const_like(self, value):
        v = rat(value)
        om = self._shape[2]
        return self._new((0, 1, om), (v.numerator,) * (1 + om), v.denominator)

    def value_at(self, point):
        if point is OMEGA:
            if not self.has_omega:
                raise OmegaMissing("no omega value on this carrier")
            return _omega(self)
        return self.at(point)

    def __repr__(self):
        om = "" if self.omega is None else f", omega={self.omega}"
        return f"SeqFunc({list(map(str, self.prefix))}, cycle={list(map(str, self.cycle))}{om})"


# The routes below decide on rows as ints: a value over f's denominator is
# compared with one over g's by cross-multiplying.  A Fraction is made only
# for a value a route returns or writes into a certificate.

def _cycle(f: SeqFunc) -> tuple:
    """The numerators of f's cycle over ``f._den``."""
    p, c, _ = f._shape
    return f._row[p:p + c]


def _omega(f: SeqFunc) -> Fraction:
    """f's omega value, built alone rather than with every Fraction of f."""
    return Fraction(f._row[-1], f._den)


def semicontinuity_on_y(f: SeqFunc) -> dict:
    """Semicontinuity on the compactified carrier, decided at omega.

    Points of the naturals are isolated, so f is upper semicontinuous iff
    its omega value dominates the limsup, lower semicontinuous iff it is
    dominated by the liminf, continuous iff both (i.e. f is convergent).
    """
    if not f.has_omega:
        raise OmegaMissing("semicontinuity on the compactification needs an omega value")
    cycle, om = _cycle(f), f._row[-1]
    usc = om >= max(cycle)
    lsc = om <= min(cycle)
    return {"usc": usc, "lsc": lsc, "continuous": usc and lsc}


def check_naturals_pair(f: SeqFunc, g: SeqFunc) -> None:
    """The pair :func:`insert_convergent` reads: f <= g on the naturals, with
    no omega value; each error is keyed to ``f`` or ``g``."""
    for key, h in (("f", f), ("g", g)):
        if h.has_omega:
            raise PreconditionViolation("B-side instances live on the naturals, "
                                        "with no omega value", key=key)
    check_order(f, g)


def insert_convergent(f: SeqFunc, g: SeqFunc) -> dict:
    """The (N) certificate on the naturals: ``{"witness", "limit"}`` for a
    convergent a with f <= a <= g, else ``{"limsup_f", "liminf_g"}``.

    Feasible iff limsup f <= liminf g, the extrema of the two cycles; the
    witness is f v (g ^ L) for L the midpoint of that interval, the limit L
    clamped into [f(k), g(k)] at each index.  It converges to L: on the tail
    f <= limsup f <= L <= liminf g <= g, so it equals L there.  Otherwise a
    convergent candidate with limit L misses f <= a <= g infinitely often:
    where f takes its limsup when L < limsup f, else where g takes its
    liminf.  The feasibility criterion is validated against an independent
    brute-force oracle in the test suite.
    """
    check_naturals_pair(f, g)
    hi, lo, d1, d2 = max(_cycle(f)), min(_cycle(g)), f._den, g._den
    if hi * d2 > lo * d1:
        return {"limsup_f": Fraction(hi, d1), "liminf_g": Fraction(lo, d2)}
    limit = Fraction(hi * d2 + lo * d1, 2 * d1 * d2)
    return {"witness": f.join(g.meet(limit)), "limit": limit}


def brute_force_insertable(f: SeqFunc, g: SeqFunc):
    """Independent oracle: search for a limit with finitely many constraint misses.

    A convergent insertion exists iff some rational L satisfies
    f(k) <= L <= g(k) for all but finitely many k.  Candidate limits are all
    values f and g take, in their prefixes and cycles; for each, tail
    feasibility is checked over one full cycle beyond both prefixes.  Shares
    no logic with :func:`insert_convergent`.
    """
    candidates = sorted({*f.prefix, *f.cycle, *g.prefix, *g.cycle})
    start = max(len(f.prefix), len(g.prefix))
    span = math.lcm(len(f.cycle), len(g.cycle))
    for cand in candidates:
        if all(f.at(k) <= cand <= g.at(k) for k in range(start, start + span)):
            return cand
    return None


def check_y_pair(f: SeqFunc, g: SeqFunc) -> None:
    """The pair :func:`insert_on_y` reads: usc f <= lsc g on the
    compactification; each error is keyed to ``f``, ``g`` or their omega."""
    for key, h, side, kind in (("f", f, "usc", "upper"), ("g", g, "lsc", "lower")):
        if not h.has_omega:
            raise OmegaMissing("semicontinuity on the compactification needs an omega value",
                               key=f"{key}/omega")
        if not semicontinuity_on_y(h)[side]:
            raise PreconditionViolation(f"{key} is not {kind} semicontinuous", key=f"{key}/omega")
    check_order(f, g)


def insert_on_y(f: SeqFunc, g: SeqFunc) -> dict:
    """The (N) certificate on the compact carrier, ``{"witness", "limit"}``;
    the insertion always succeeds.

    For usc f <= lsc g on the compactification, the feasible limits form the
    interval [f(omega), g(omega)]; the witness is f v (g ^ L) for the limit
    L = f(omega), clamped into [f(k), g(k)] at each natural.  It is
    continuous: on the tail f <= limsup f <= L <= liminf g <= g (f usc and g
    lsc at omega), so it equals L there, and at omega f(omega) = L <= g(omega).
    """
    check_y_pair(f, g)
    limit = _omega(f)
    return {"witness": f.join(g.meet(limit)), "limit": limit}


class GeoTail:
    """A geometrically decaying tail over a finite prefix.

    Value at k beyond the prefix is q * ratio**(k - prefix length) with the
    ratio strictly between 0 and 1, so the limit is 0.  Supports only
    evaluation, limit and finite-support queries; it is not closed
    under the algebra operations and does not pretend to be.
    """

    def __init__(self, prefix: Iterable = (), q=1, ratio=Fraction(1, 2)):
        self.prefix = tuple(rat(v) for v in prefix)
        self.q = rat(q)
        self.ratio = rat(ratio)
        if not 0 < self.ratio < 1:
            raise PreconditionViolation("ratio must lie strictly between 0 and 1")

    def at(self, k: int) -> Fraction:
        if k < len(self.prefix):
            return self.prefix[k]
        return self.q * self.ratio ** (k - len(self.prefix))

    @property
    def omega(self) -> Fraction:
        return ZERO

    def has_finite_support(self) -> bool:
        return self.q == 0

    def __repr__(self):
        return f"GeoTail({list(map(str, self.prefix))}, q={self.q}, ratio={self.ratio})"


def threshold_indicator(f: AlgElement, level, strict: bool = False) -> AlgElement:
    """The 0/1 indicator of {x : f(x) >= level} (or > level when strict), on
    f's carrier.

    Level sets of eventually periodic functions are again eventually
    periodic, so the indicator is always representable; it serves as the set
    representation for subsets of the compactification.  The 0/1 row is laid
    out on f's shape and made canonical again, as unequal values of f may
    fall on the same side of the level.
    """
    return f._from_row(f._shape, f.superlevel_row(level, strict), 1)


def ideal_membership(f) -> dict:
    """Membership in the compactness ideal and in the radical at omega.

    A convergent function belongs to the compactness ideal iff the closure of
    its cozero set misses omega, i.e. the cozero set is a finite subset of
    the naturals; it belongs to the radical (the maximal ideal at omega) iff
    it vanishes at omega.  Accepts convergent :class:`SeqFunc` values and
    :class:`GeoTail` witnesses.  The certificate is the computed coz-closure,
    ``{"kind", "members"}``: kind ``finite``, a finite subset of the naturals,
    or kind ``cofinite_with_omega``, a cofinite set with omega, given by its
    excluded naturals; ``members`` lists those naturals in increasing order.
    """
    if isinstance(f, GeoTail):
        in_i, in_j = f.has_finite_support(), True
        prefix = f.prefix
    elif isinstance(f, SeqFunc) and f.has_omega and f.is_convergent():
        in_i = in_j = f._row[-1] == 0
        prefix = f._row[:f._shape[0]]  # numerators: zero exactly where the value is
    else:
        raise NotConvergent("ideal membership is defined for convergent functions on the compactification")
    if in_i:
        cert = {"kind": "finite", "members": tuple(k for k, v in enumerate(prefix) if v != 0)}
    else:
        cert = {"kind": "cofinite_with_omega",
                "members": tuple(k for k, v in enumerate(prefix) if v == 0)}
    return {"in_I_alpha": in_i, "in_J_radical": in_j, "cert": cert}


def local_compact_minorants(b: SeqFunc, depth: int) -> SeqFunc:
    """Truncation minorant: b restricted to indices 0..depth, zero beyond.

    The result has finite support (hence lies in the compactness ideal), is
    below b, and agrees with b up to the depth, so the pointwise supremum of
    the truncations recovers b on the naturals: the constructive witness that
    the model is locally compact.
    """
    if not b.is_convergent():
        raise NotConvergent("minorants are built for convergent b")
    if b.value_bounds()[0] < 0:
        raise NegativeInput("b must be nonnegative")
    values = {k: b.at(k) for k in range(depth + 1)}
    return SeqFunc.from_support(values, 0, ZERO if b.has_omega else None)


def subcover_extract(epsilon, family: Sequence[SeqFunc]) -> dict:
    """(C) and (L) on the compactified naturals: the certificate of
    :func:`normlab.lattice_core.subcover` for a cover by convergent functions
    (a member that is not is keyed ``family/<i>``), with the join's value at
    omega.  Replay re-checks the join from the family.
    """
    for i, t in enumerate(family):
        if not (t.has_omega and t.is_convergent()):
            raise NotConvergent("family members must be convergent on the compactification",
                                key=f"family/{i}")
    cert = subcover(epsilon, family)
    return {**cert, "join_omega": max(_omega(family[i]) for i in cert["subfamily"])}


def lindelof_extract(epsilon, family: Iterable[SeqFunc], budget: int = 1000):
    """Per-index witnesses from a family whose supremum exceeds epsilon.

    For each natural k the stream is searched in order for a member exceeding
    epsilon/2 at k; the emitted countable selection has join at least
    epsilon/2.  The family stream is started once per extractor and each
    member is realized once and reused across indices, so members must be
    pure values.  Exhausting the budget raises ``SearchBudgetExceeded``: the
    index is unknown at that budget, never refuted.
    """
    half = check_positive(epsilon, "epsilon") / 2
    realized: list[SeqFunc] = [] if callable(family) else list(family)
    source = None if callable(family) else iter(())

    def select(k: int):
        nonlocal source
        for count in range(max(budget, 1)):  # the first member is always scanned
            if count == len(realized):
                if source is None:
                    source = iter(family())
                g = next(source, None)
                if g is None:
                    raise SearchBudgetExceeded(k, budget)
                realized.append(g)
            if realized[count].at(k) > half:  # k is natural: omega is never read
                return count, realized[count]
        raise SearchBudgetExceeded(k, budget)

    def stream() -> Iterator[tuple[int, int, SeqFunc]]:
        k = 0
        while True:
            idx, g = select(k)
            yield k, idx, g
            k += 1

    return select, stream
