"""The four constructive insertion procedures, generic over carriers.

Each procedure consumes elements of any :class:`~normlab.lattice_core.AlgElement`
carrier (plus an injected oracle where one is needed), computes the algebra it
states on their int rows, laid out once (:func:`~normlab.lattice_core.lay_out`),
builds only the elements it returns or hands to an oracle (and the Urysohn
join's unit pair), and emits a trace whose every inequality is re-checkable
from the trace alone.  Countable sequences become finite lists: on the finite
model they stabilize, and on the sequence model a trace holds the steps or
members it was given.

A procedure checks its inputs and its injected oracles and carriers, and
nothing those checks already imply; :mod:`normlab.replay` checks the
certificates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    BoundViolation,
    EmptyFamily,
    NormlabError,
    OracleContractViolation,
    PreconditionViolation,
)
from .finite_space import FiniteFunc, FiniteSpace, Infeasible, check_usc_lsc, insert_finite
from .lattice_core import AlgElement, check_order, lay_out
from .rationals import ONE, rat
from .replay import MAX_Q
from .seq_model import SeqFunc, check_y_pair, insert_on_y


def _meet_row(xs, ys) -> list:
    return [x if x <= y else y for x, y in zip(xs, ys)]


def _join_row(xs, ys) -> list:
    return [x if x >= y else y for x, y in zip(xs, ys)]


def _elements(first: AlgElement, shape, den: int, rows) -> list[AlgElement]:
    """The rows as elements, each built once per run of equal rows."""
    return [elem for row, run in itertools.groupby(rows)
            for elem in [first._from_row(shape, row, den)] * len(list(run))]


@dataclass
class MergeTrace:
    """Full record of a merge run: both normalized sequences, u_n, v_n and the result."""
    a_norm: list
    b_norm: list
    u_seq: list
    v_seq: list
    result: AlgElement
    trace: str = field(default="merge", init=False)


def tong_merge(a_seq: Sequence[AlgElement], b_seq: Sequence[AlgElement]) -> MergeTrace:
    """Merge a decreasing and an increasing approximation into one element.

    After normalizing (prefix meets of a_seq, prefix joins of b_seq), builds
    u_n = (a_1^b_1) v ... v (a_n^b_n) and v_n = u_n v a_n; the merged element
    is u = u_n for the last n, all as running mins and maxes of rows.  The
    shorter sequence repeats its last member.

    Checked here: a_n <= b_n for the last n (input).  The rest follows from
    it.  With f = a_n, the last term a_n ^ b_n is f, so f <= u.  The terms up
    to i lie below u_i <= v_i, and each term a_j ^ b_j past i lies below
    a_j <= a_i <= v_i, as the a_j decrease; so u <= v_i for every i.  The
    meet v of the v_i is then at least u and at most v_n = u v f = u, so
    u = v <= u v f.  Replay recomputes u_n, v_n and each of these facts from
    the serialized trace.
    """
    if not a_seq or not b_seq:
        raise EmptyFamily("merge needs nonempty sequences")
    k, n = len(a_seq), max(len(a_seq), len(b_seq))
    shape, den, rows = lay_out([*a_seq, *b_seq])
    a_norm = list(itertools.accumulate(rows[:k] + rows[k - 1:k] * (n - k), _meet_row))
    b_norm = list(itertools.accumulate(rows[k:] + rows[-1:] * (n + k - len(rows)), _join_row))
    bad = next((i for i, (x, y) in enumerate(zip(a_norm[-1], b_norm[-1])) if x > y), None)
    if bad is not None:
        raise PreconditionViolation(
            f"meet of a_seq exceeds join of b_seq at {a_seq[0]._point(shape, bad)!r}")
    u_seq = list(itertools.accumulate(map(_meet_row, a_norm, b_norm), _join_row))
    trace = [_elements(a_seq[0], shape, den, rows)
             for rows in (a_norm, b_norm, u_seq, map(_join_row, u_seq, a_norm))]
    return MergeTrace(*trace, trace[2][-1])


@dataclass
class IterationTrace:
    """The refined sequence a_n, its certified step bounds, and the pair f <= g
    it is squeezed between."""
    a_seq: list
    step_bounds: list[Fraction]
    f: AlgElement
    g: AlgElement
    trace: str = field(default="iteration", init=False)

    @property
    def result(self) -> AlgElement:
        return self.a_seq[-1]


Oracle = Callable[[AlgElement, AlgElement, Fraction], AlgElement]


def dieudonne_iterate(oracle: Oracle, f: AlgElement, g: AlgElement, steps: int) -> IterationTrace:
    """Iterate a strict-insertion oracle into a Cauchy refining sequence.

    The oracle takes (lower, upper, epsilon) with lower + epsilon <= upper
    and returns some a with lower <= a <= upper.  Step m+1 squeezes between
    (f - 1/2^{m+1}) v (a_m - 1/2^m) and g ^ (a_m + 1/2^m) at gap 1/2^{m+1}.
    Each step's ends are scans of the rows of f, g and a_m, and the witness is
    checked on them; one the frame does not hold widens the frame.

    Checked here: ``steps >= 1`` and ``f <= g`` (inputs), and each witness
    against its sandwich (the oracle is caller code).  The rest follows from
    these.  The sandwich implies both loop invariants, (1) f - 1/2^n <= a_n <= g
    and (2) a_n - 1/2^n <= a_{n+1} <= a_n + 1/2^n, as lower is the join of
    their lower bounds and upper the meet of their upper bounds.  Both
    invariants at step m and f <= g give the gap lower + 1/2^{m+1} <= upper
    at step m+1.  Summing (2) gives the tail ||a_{n+p} - a_n|| < 2^{1-n}.
    Replay re-checks the step bounds, the tail and the sandwich from the
    serialized trace.
    """
    if steps < 1:
        raise PreconditionViolation("at least one step is required")
    check_order(f, g)
    shape, den, (fr, gr) = lay_out([f, g])
    a_seq, bounds, prev, dp = [], [], None, 1  # prev: a_m's frame row, over dp
    for m in range(1, steps + 1):
        eps = Fraction(1, 2 ** m)
        d = math.lcm(den, dp, 1 << m)
        s, t = d // den, d >> m
        lo, hi = [x * s - t for x in fr], [y * s for y in gr]
        if prev is not None:  # lo v (a_{m-1} - 2/2^m), hi ^ (a_{m-1} + 2/2^m)
            prev = [a * (d // dp) for a in prev]
            lo = _join_row(lo, [a - 2 * t for a in prev])
            hi = _meet_row(hi, [a + 2 * t for a in prev])
        lower, upper = f._from_row(shape, lo, d), f._from_row(shape, hi, d)
        a = oracle(lower, upper, eps)
        if f._widen(shape, a) == shape:
            prev, dp = a._on(shape), a._den
        else:  # a witness whose shape the frame does not hold widens it
            shape, den, (fr, gr, lo, hi, prev) = lay_out([f, g, lower, upper, a])
            d = dp = den
        if not all(map(operator.le, map(dp.__mul__, lo), map(d.__mul__, prev))) or \
                not all(map(operator.le, map(d.__mul__, prev), map(dp.__mul__, hi))):
            raise OracleContractViolation(m, a, "witness outside its sandwich")
        a_seq.append(a)
        bounds.append(eps)
    return IterationTrace(a_seq, bounds, f, g)


def midpoint_oracle(lower: AlgElement, upper: AlgElement, eps) -> AlgElement:
    """Reference strict-insertion oracle: the pointwise midpoint, built once."""
    xs, ys, shape, den = lower._scaled(upper)
    return lower._from_row(shape, [x + y for x, y in zip(xs, ys)], 2 * den)


def farey_fractions(q_max: int) -> list[Fraction]:
    """All fractions in [0, 1] with denominator at most q_max.

    Enumerated by increasing denominator then numerator, each value once, at
    its reduced denominator (the order of first occurrence in the unreduced
    enumeration); that is 1 + sum of phi(k) for k <= q_max values, built in
    O(q_max^2) steps.  Consecutive values in sorted order differ by at most
    1/q_max.  q_max is an int from 1 to replay's ``MAX_Q``.
    """
    if type(q_max) is not int or not 1 <= q_max <= MAX_Q:
        raise PreconditionViolation(f"q_max must be an integer from 1 to MAX_Q = {MAX_Q}")
    return [Fraction(num, den) for den in range(1, q_max + 1)
            for num in range(den + 1) if math.gcd(num, den) == 1]


class FiniteUrysohnCarrier:
    """Separation witnesses over a finite space, by insertion.

    For a closed C inside an open U, the indicator of C is usc, that of U is
    lsc and the first lies below the second, so any continuous h between
    them is 1 on C and 0 off U.  ``urysohn`` is :func:`insert_finite` on the
    two indicators; it fails iff some component meets C and leaves U.
    """

    def __init__(self, space: FiniteSpace):
        self.space = space

    def check_pair(self, f: FiniteFunc, g: FiniteFunc):
        for key, h in (("f", f), ("g", g)):
            if h.space != self.space:
                raise PreconditionViolation(f"{key} is off the carrier's {self.space!r}", key=key)
        check_usc_lsc(f, g)

    def urysohn(self, closed_f: FiniteFunc, open_g: FiniteFunc) -> FiniteFunc:
        result = insert_finite(closed_f, open_g)
        if isinstance(result, Infeasible):
            raise PreconditionViolation(
                f"level sets not separable on component {result.component:#b}")
        return result


class YUrysohnCarrier:
    """Separation witnesses over the compactified naturals, by insertion.

    ``urysohn`` is :func:`insert_on_y` on the closed set's and the open
    set's 0/1 indicators: the open set's indicator when omega is in the
    closed set, the closed set's indicator otherwise.
    """

    def check_pair(self, f: SeqFunc, g: SeqFunc):
        check_y_pair(f, g)

    def urysohn(self, closed_f: SeqFunc, open_g: SeqFunc) -> SeqFunc:
        return insert_on_y(closed_f, open_g)["witness"]


def _level_pairs(rank, closed_ids, open_ids):
    """Each level pair (closed_ids[j], open_ids[i]), r_i < s_j -> its first (i, j)
    (s outer, r inner, in grid order) and the (i, j) of its largest r, at its
    first s.  Open sets are nested in r, so each open id covers a run of
    consecutive values and gives one pair per s: G * L steps, not G^2."""
    order = sorted(range(len(rank)), key=rank.__getitem__)
    place = {i: t for t, i in enumerate(order)}
    runs = [list(run) for _, run in itertools.groupby(order, key=open_ids.__getitem__)]
    runs = [(place[run[0]], run, list(itertools.accumulate(run, min))) for run in runs]
    first, top = {}, {}
    for j, closed_id in enumerate(closed_ids):
        fresh = []
        for start, run, least in runs:
            last = min(place[j] - start, len(run)) - 1  # the run's last value below s
            if last < 0:
                break
            key = (closed_id, open_ids[run[0]])
            if key not in top:
                fresh.append((least[last], key, run[last]))
            elif place[run[last]] > place[top[key][0]]:
                top[key] = (run[last], j)
        for i, key, i_top in sorted(fresh):
            first[key], top[key] = (i, j), (i_top, j)
    return first, top


def urysohn_join_stream(carrier, f: AlgElement, g: AlgElement, q_max: int):
    """Approximate insertion from below by a finite join of scaled separations.

    For each rational pair r < s with denominators at most q_max (after
    rescaling f, g into the unit interval), a continuous h with 0 <= h <= 1
    is 1 on the closed superlevel set {f >= s} and 0 off the open set
    {g > r}, so c_rs = r*h <= g.  The join J of all c_rs satisfies J <= g
    everywhere and J >= f - 1/q_max at every point where the rescaled f
    takes a value of denominator at most q_max (at other points the Farey
    mesh only pins f down to its nearest grid values).  Results and
    certificate are reported in original coordinates.

    The rescaling is the unit pair f1 = (f + a) * (1/b), g1 = (g + a) * (1/b)
    for a = -min f and b = max g + a (1 when that is 0); the result is
    b*J - a.  Only distinct level pairs do work, in two phases.  Phase 1
    names each level set by its 0/1 superlevel row on f1's or g1's shape,
    once per grid value, and hashes the row to a small int id: the rows of
    one element share its shape, so two are equal exactly when their sets
    are.  :func:`_level_pairs` gives each distinct (closed, open) level
    pair's first pair and its pair of largest r, r_top, comparing r < s on
    the ints n*(L/d) for L the lcm of 1..q_max.  Phase 2 walks the level
    pairs in order of first occurrence: the carrier separates the two 0/1
    indicators built from phase 1's rows, once per level pair, and
    r_top*h <= g1 is checked on their rows.  So the elements built are the
    unit pair (two steps each), the indicators and the result.
    A carrier supplies only ``check_pair`` and ``urysohn``; both carriers
    here separate by their insertion route on the two 0/1 indicators, the
    closed set's usc one below the open set's lsc one.  As every r >= 0 and
    g >= 0 after rescaling, the join of 0 and all r*h is the join of 0 and
    r_top*h, and r_top*h <= g gives r*h <= g for every smaller r, whatever
    values h takes.  So an injected carrier whose h breaks c <= g raises
    exactly when some c_rs exceeds g, naming a pair (r_top, s) whose c_rs
    does; an oracle error names the level pair's first pair in scan order.

    The certificate is self-contained: f, g, q_max, the transform, the
    result, and ``pairs``, one row {r, s, h} per distinct level pair at its
    first pair, from which replay recomputes the join.  The closing join and
    its bound check run on the int rows of f1 and the h, laid out once.
    """
    carrier.check_pair(f, g)
    a = -f.value_bounds()[0]
    b = g.value_bounds()[1] + a or ONE
    f1, g1 = (f + a) * (1 / b), (g + a) * (1 / b)
    grid = farey_fractions(q_max)
    common = math.lcm(*range(1, q_max + 1))
    rank = [r.numerator * (common // r.denominator) for r in grid]  # r < s iff rank r < rank s
    level_ids = {}
    closed_ids = [level_ids.setdefault(tuple(f1.superlevel_row(s)), len(level_ids))
                  for s in grid]
    open_ids = [level_ids.setdefault(tuple(g1.superlevel_row(r, strict=True)), len(level_ids))
                for r in grid]
    first, top = _level_pairs(rank, closed_ids, open_ids)
    level_rows = list(level_ids)  # id -> its 0/1 row
    hs, rows = [], []
    for key, (i, j) in first.items():
        r, s = grid[i], grid[j]
        closed_f = f1._from_row(f1._shape, level_rows[key[0]], 1)
        open_g = g1._from_row(g1._shape, level_rows[key[1]], 1)
        try:
            h = carrier.urysohn(closed_f, open_g)
        except NormlabError as exc:
            raise PreconditionViolation(
                f"urysohn oracle failed on pair (r={r}, s={s}): {exc}") from exc
        i_top, j_top = top[key]
        r_top = grid[i_top]
        xs, ys, _, _ = h._scaled(g1)  # r_top * h <= g1, cross-multiplied
        p, q = r_top.numerator, r_top.denominator
        if any(p * x > q * y for x, y in zip(xs, ys)):
            raise PreconditionViolation(
                f"c_rs exceeds g on pair (r={r_top}, s={grid[j_top]})")
        hs.append(h)
        rows.append({"r": r, "s": s, "h": h})
    tops = [grid[i] for i, _ in top.values()]  # top lists the level pairs as first does
    shape, den, (fr, *h_rows) = lay_out([f1, *hs])
    lcd = math.lcm(*(t.denominator for t in tops))
    d = den * lcd  # the join of 0 and every r_top * h, as numerators over d
    jr = functools.reduce(_join_row, ([t.numerator * (lcd // t.denominator) * x for x in row]
                                      for t, row in zip(tops, h_rows)), [0] * len(fr))
    for i, (x, y) in enumerate(zip(fr, jr)):  # J < f - 1/q_max where f's denominator <= q_max
        if (x * lcd - y) * q_max > d and den // math.gcd(x, den) <= q_max:
            raise BoundViolation(f1._point(shape, i), f"join below f - 1/{q_max}")
    scale, shift = b.numerator * a.denominator, a.numerator * b.denominator * d  # b*J - a
    result = f1._from_row(shape, [scale * y - shift for y in jr],
                          d * a.denominator * b.denominator)
    cert = {
        "trace": "urysohn",
        "f": f,
        "g": g,
        "q_max": q_max,
        "transform": (a, b),
        "result": result,
        "pairs": rows,
    }
    return result, cert


def increasing_approx(reference: AlgElement, c_seq: Sequence[AlgElement],
                      r_seq: Sequence) -> list[AlgElement]:
    """Monotone below-approximation of a reference element from tagged approximants.

    Each c_n comes with a certified error bound r_n, ||reference - c_n|| <= r_n,
    checked here as input (BoundViolation names the first failing n).
    Returns the prefix joins a_n of the shifted elements c_n - r_n.  The
    input check gives reference - 2 r_n <= c_n - r_n <= reference, so each
    a_n lies below the reference with ||reference - a_n|| <= 2 * min(r_1..r_n).
    The factor 2 is sharp: c_n may sit r_n below the reference, and shifting
    by r_n doubles the defect.  The check and the joins run on int rows.
    """
    if len(c_seq) != len(r_seq) or not c_seq:
        raise PreconditionViolation("c_seq and r_seq must be nonempty and aligned")
    rates = [rat(r) for r in r_seq]
    shape, den, (ref, *rows) = lay_out([reference, *c_seq])
    d, shifted = math.lcm(den, *(r.denominator for r in rates)), []
    for n, (row, r) in enumerate(zip(rows, rates), start=1):
        t = r.numerator * (d // r.denominator)
        if max(abs(x - y) for x, y in zip(ref, row)) * (d // den) > t:
            raise BoundViolation(n, f"||reference - c_{n}|| > {r}")
        shifted.append([y * (d // den) - t for y in row])
    return _elements(reference, shape, d, itertools.accumulate(shifted, _join_row))
