"""Independent test oracles: slow reference constructions the suite checks the library against."""

import math
import random
from fractions import Fraction
from typing import Iterator, Sequence

from normlab.errors import (BoundExceeded, BoundViolation, CarrierMismatch, EmptyFamily,
                            OracleContractViolation, PreconditionViolation)
from normlab.finite_space import FiniteFunc, FiniteSpace, NotSeparable, separate
from normlab.insertion_engine import IterationTrace, MergeTrace
from normlab.lattice_core import _to_row, check_order, check_positive
from normlab.rationals import ONE, ZERO, rat
from normlab.seq_model import OMEGA, SeqFunc


def is_topology(n: int, fam) -> bool:
    """Whether a family of bitmasks holds the empty and full sets, names only
    points 0..n-1, and is closed under union and intersection."""
    full = (1 << n) - 1
    return (0 in fam and full in fam and all(u & ~full == 0 for u in fam)
            and all((u | v) in fam and (u & v) in fam for u in fam for v in fam))


def space_from_opens(n: int, opens) -> FiniteSpace:
    """The space whose open sets are ``opens``.  ``up[x]`` is the meet of the
    members holding x, so every member is an up-set, and the family is a
    topology iff it holds every up-set too, that is iff it equals
    ``space.opens``."""
    full, opens = (1 << n) - 1, frozenset(opens)
    if 0 not in opens or full not in opens:
        raise PreconditionViolation("opens must contain the empty and full sets")
    up = [full] * n
    for u in opens:
        if u & ~full:
            raise PreconditionViolation(f"open set {u:b} has points outside the space")
        for x in range(n):
            if u >> x & 1:
                up[x] &= u
    space = FiniteSpace(n, up)
    if space.opens != opens:
        raise PreconditionViolation("family not closed under union/intersection: "
                                    f"it lacks {min(space.opens - opens):b}")
    return space


def continuous_by_fibers(values, opens) -> bool:
    """Whether every fiber of a function, given by its values at points
    0..n-1, is one of the open-set bitmasks ``opens``."""
    fibers = {}
    for x, v in enumerate(values):
        fibers[v] = fibers.get(v, 0) | 1 << x
    return all(fiber in opens for fiber in fibers.values())


def probe_points(elem) -> list:
    """The points an element's canonical row stands for: each point of a
    finite space; the naturals below a sequence's prefix length plus its cycle
    length, then omega when it has a value there."""
    if isinstance(elem, FiniteFunc):
        return list(range(elem.space.n))
    k, c, om = elem._shape
    return list(range(k + c)) + ([OMEGA] if om else [])


def threshold_by_fractions(elem, level, strict: bool = False):
    """The 0/1 indicator of {elem >= level} (> level when strict), each value
    compared as a Fraction in the row ``zip_with`` aligns and made canonical."""
    s = Fraction(level)
    return elem.zip_with(elem, lambda v, _: ONE if (v > s if strict else v >= s) else ZERO)


def superlevel_mask_by_values(f: FiniteFunc, level, strict: bool = False) -> int:
    """The bitmask of {f >= level} (> level when strict), value by value."""
    s = Fraction(level)
    return sum(1 << x for x in range(f.space.n)
               if (f.value_at(x) > s if strict else f.value_at(x) >= s))


def shift_by_constant_element(elem, c, op: str):
    """elem + c, elem - c or c - elem ("add", "sub", "rsub") through the constant
    element of elem's carrier, aligned and made canonical as for two elements."""
    const = elem.const_like(c)
    return {"add": lambda: elem + const, "sub": lambda: elem - const,
            "rsub": lambda: const - elem}[op]()


def enumerate_spaces_bruteforce(n: int) -> Iterator[FiniteSpace]:
    """Enumerate union-intersection-closed set families directly (tiny n only)."""
    if n > 3:
        raise BoundExceeded("brute-force family enumeration is for n <= 3")
    full = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, full)]
    for pick in range(1 << len(middles)):
        fam = {0, full} | {m for i, m in enumerate(middles) if pick & (1 << i)}
        if is_topology(n, fam):
            yield space_from_opens(n, fam)


def up_sets_scan(n: int, up: Sequence[int]) -> frozenset:
    """The up-closed sets of a preorder, by a scan over all 2^n masks."""
    return frozenset(m for m in range(1 << n)
                     if all(up[x] | m == m for x in range(n) if m >> x & 1))


def is_normal_closed_pairs(space: FiniteSpace):
    """Normality by trying every disjoint pair of closed sets; on failure
    returns the first pair :func:`separate` refuses."""
    closed = space.closed_sets()
    for c in closed:
        for d in closed:
            if c & d:
                continue
            res = separate(space, c, d)
            if isinstance(res, NotSeparable):
                return False, res
    return True, None


def is_closed_by_closures(space: FiniteSpace, mask: int) -> bool:
    """Whether a point set holds the closure ``down[x]`` of each of its points."""
    return all(not space.down[x] & ~mask for x in range(space.n) if mask >> x & 1)


def urysohn_by_components(space: FiniteSpace, cm: int, dm: int):
    """The mask-based Urysohn function: 0 on cm and 1 on dm, for disjoint
    closed point sets given as bitmasks.

    Continuous rational functions on a finite space are constant on connected
    components, so it is 0 on components meeting cm, 1 on components meeting
    dm, 0 elsewhere; :class:`NotSeparable` names a component meeting both.
    """
    if not is_closed_by_closures(space, cm) or not is_closed_by_closures(space, dm):
        raise PreconditionViolation("urysohn inputs must be closed sets")
    if cm & dm:
        raise PreconditionViolation("urysohn inputs must be disjoint")
    values = [ZERO] * space.n
    for comp in space.components:
        meets_c, meets_d = comp & cm, comp & dm
        if meets_c and meets_d:
            return NotSeparable(cm & comp, dm & comp)
        for x in range(space.n):
            if comp >> x & 1:
                values[x] = ONE if meets_d else ZERO
    return FiniteFunc(space, values)


def urysohn_y_by_cases(c: SeqFunc, d: SeqFunc) -> SeqFunc:
    """Continuous h on the compactification, 0 on c and 1 on d, for disjoint
    closed sets given as 0/1 indicators.

    A closed set missing omega is finite, and at most one of the two holds
    omega, so h is 1 - c when omega is in d and d otherwise.
    """
    for ind in (c, d):
        if not ind.has_omega:
            raise PreconditionViolation("set indicators live on the compactified carrier")
        if not set(ind.prefix + ind.cycle + (ind.omega,)) <= {0, 1}:
            raise PreconditionViolation("indicator must be 0/1 valued")
        if ind.omega < max(ind.cycle):  # a closed set missing omega is finite
            raise PreconditionViolation("both sets must be closed")
    if c.meet(d).value_bounds()[1] > 0:
        raise PreconditionViolation("sets must be disjoint")
    return ONE - c if d.omega == 1 else d


def rand_rational(rng: random.Random, lo: int = -3, hi: int = 3,
                  max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_finite_func(space: FiniteSpace, rng: random.Random,
                       lo: int = -3, hi: int = 3, max_den: int = 16) -> FiniteFunc:
    return FiniteFunc(space, [rand_rational(rng, lo, hi, max_den)
                              for _ in range(space.n)])


def with_omega(f: SeqFunc, value) -> SeqFunc:
    """f on the naturals, extended to the compactification by value at omega."""
    return SeqFunc(f.prefix, f.cycle, value)


def clamped_limit_on_naturals(f: SeqFunc, g: SeqFunc, limit) -> SeqFunc:
    """limit clamped into [f(k), g(k)] at each index of the longer prefix,
    then constant at limit: the per-index convergent witness."""
    p = max(len(f.prefix), len(g.prefix))
    return SeqFunc([max(f.at(k), min(limit, g.at(k))) for k in range(p)], (limit,))


def clamped_limit_on_y(f: SeqFunc, g: SeqFunc, limit) -> SeqFunc:
    """limit clamped into [f(k), g(k)] over both prefixes and one full cycle,
    then constant at limit, with limit at omega."""
    span = max(len(f.prefix), len(g.prefix)) + math.lcm(len(f.cycle), len(g.cycle))
    return SeqFunc([max(f.at(k), min(limit, g.at(k))) for k in range(span)], (limit,), limit)


def random_seq_func(rng: random.Random, lo: int = -3, hi: int = 3,
                    max_den: int = 12, max_len: int = 8) -> SeqFunc:
    total = rng.randint(1, max_len)
    cyc_len = rng.randint(1, total)
    prefix = [rand_rational(rng, lo, hi, max_den) for _ in range(total - cyc_len)]
    cycle = [rand_rational(rng, lo, hi, max_den) for _ in range(cyc_len)]
    return SeqFunc(prefix, cycle)


def random_usc_lsc_pair(rng: random.Random) -> dict:
    """A random pair f <= g on the compactification, f usc and g lsc."""
    base = random_seq_func(rng)
    lo, hi = min(base.cycle), max(base.cycle)
    f = with_omega(base, hi)
    shift = (hi - lo) + rand_rational(rng, lo=0)
    g = with_omega(base + shift, lo + shift)
    return {"f": f, "g": g}


def random_finite_pair(space: FiniteSpace, rng: random.Random) -> dict:
    """A random pair f <= g on a finite space."""
    f = random_finite_func(space, rng)
    return {"f": f, "g": f + random_finite_func(space, rng, lo=0)}


def random_x_pair(rng: random.Random) -> dict:
    """A random pair f <= g on the naturals."""
    f = random_seq_func(rng)
    return {"f": f, "g": f + random_seq_func(rng, lo=0)}


def random_feasible_x_pair(rng: random.Random) -> dict:
    """A random pair on the naturals admitting a convergent insertion."""
    f = random_seq_func(rng)
    shift = (max(f.cycle) - min(f.cycle)) + rand_rational(rng, lo=0)
    g = f + shift
    return {"f": f, "g": g}


def unit_cover(model) -> dict:
    """The instance keys of a (C), (L) or (SL) check on the unit cover at level
    1: the constant 2 on the model's carrier, or on seq_x_end its built-in
    family at epsilon 1 and delta 1/2, with (C) listing subfamilies of up to 4
    members."""
    if model.name == "seq_x_end":
        return {"epsilon": ONE, "delta": Fraction(1, 2), "subfamily_cap": 4}
    two = SeqFunc.constant(2, with_omega=True) if model.name == "seq_y_end" else \
        FiniteFunc(model.space, [2] * model.space.n)
    return {"epsilon": ONE, "family": [two]}


def y_quotient(p: int, period: int) -> FiniteSpace:
    """Q_{P,L}, the finite quotient of the compactified naturals on which the
    elements of prefix at most P = ``p`` and cycle dividing L = ``period``
    live: points 0..P-1 are the prefix, P..P+L-1 the residue points t_i,
    which n >= P maps to by (n - P) mod L, and P + L is omega.  Each point but
    omega is isolated, and omega's up row is omega and every residue point, so
    the quotient map is continuous."""
    residues = ((1 << period) - 1) << p
    return FiniteSpace(p + period + 1,
                       [1 << x for x in range(p + period)] + [residues | 1 << (p + period)])


def on_y_quotient(f: SeqFunc, p: int, period: int) -> FiniteFunc:
    """f on Q_{P,L}: its values at 0..P+L-1 (the prefix points, then the
    residue points), then at omega."""
    return FiniteFunc(y_quotient(p, period), [f.at(k) for k in range(p + period)] + [f.omega])


def pulled_back_from_y_quotient(h: FiniteFunc, p: int, period: int) -> SeqFunc:
    """The function on the compactified naturals whose value at each point is
    h's at the point's image in Q_{P,L}."""
    values = h.values
    return SeqFunc(values[:p], values[p:p + period], values[-1])


def countable_meet_family(f: SeqFunc):
    """The classical countable selection realizing f as a meet of convergent majorants.

    Member (n, m) takes the value f(n) + 1/m at index n and the sup-norm of f
    everywhere else (including omega), so every member dominates f and the
    truncated meets descend to f pointwise.
    """
    if f.has_omega:
        raise CarrierMismatch("f lives on the naturals")
    bound = f.norm()

    def member(n: int, m: int) -> SeqFunc:
        if m <= 0:
            raise PreconditionViolation("m must be a positive integer")
        return SeqFunc.from_support({n: f.at(n) + Fraction(1, m)}, bound, bound)

    def truncated_meet_at(k: int, m_depth: int) -> Fraction:
        """Meet over members (k, m) for m up to the depth, evaluated at k."""
        return min(f.at(k) + Fraction(1, m_depth), bound)

    return member, truncated_meet_at


def countable_join_family(g: SeqFunc):
    """Dual of :func:`countable_meet_family`: convergent minorants joining up to g."""
    if g.has_omega:
        raise CarrierMismatch("g lives on the naturals")
    bound = -g.norm()

    def member(n: int, m: int) -> SeqFunc:
        if m <= 0:
            raise PreconditionViolation("m must be a positive integer")
        return SeqFunc.from_support({n: g.at(n) - Fraction(1, m)}, bound, bound)

    def truncated_join_at(k: int, m_depth: int) -> Fraction:
        return max(g.at(k) - Fraction(1, m_depth), bound)

    return member, truncated_join_at


def noncompact_family(epsilon, delta):
    """The defeating cover family witnessing the compactness failure on the naturals.

    Member n equals epsilon+delta up to index n and -delta beyond (a
    convergent function with limit -delta).  The pointwise supremum over the
    whole family is epsilon+delta everywhere, yet any finite subfamily's join
    equals -delta at every index past the largest truncation; ``defeat`` maps
    a finite subfamily to that explicit index.
    """
    eps, dlt = check_positive(epsilon, "epsilon"), check_positive(delta, "delta")
    hi = eps + dlt

    def member(n: int) -> SeqFunc:
        return SeqFunc([hi] * (n + 1), (-dlt,), -dlt)

    def stream() -> Iterator[SeqFunc]:
        n = 0
        while True:
            yield member(n)
            n += 1

    def defeat(indices: Sequence[int]):
        """(index, join value) refuting the finite subfamily with the given truncations.

        Every member is -delta past its truncation, so the join is -delta one
        index past the largest truncation; no member is built.
        """
        if not indices:
            raise EmptyFamily("a defeated subfamily needs at least one member")
        return max(indices) + 1, -dlt

    return member, stream, defeat


def level_pairs_by_scan(rank, closed_ids, open_ids):
    """Each distinct level pair (closed_ids[j], open_ids[i]) over the grid
    pairs with rank i < rank j -> its first (i, j), j outer and i inner, and
    the (i, j) of its largest r, at the first j with it; every pair visited."""
    first, top = {}, {}
    for j, rank_s in enumerate(rank):
        closed_id = closed_ids[j]
        for i, rank_r in enumerate(rank):
            if rank_r < rank_s:
                key = (closed_id, open_ids[i])
                seen = top.get(key)
                if seen is None:
                    first[key] = top[key] = (i, j)
                elif rank_r > rank[seen[0]]:
                    top[key] = (i, j)
    return first, top


def canonical_by_divisors(prefix, cycle):
    """The canonical (prefix, cycle) of an eventually periodic sequence, its
    minimal period found by trying every divisor of the cycle length in turn."""
    n = len(cycle)
    for d in range(1, n):
        if n % d == 0 and cycle[d:] == cycle[:n - d]:
            cycle = cycle[:d]
            break
    c, k, j = len(cycle), len(prefix), 0
    while j < k and prefix[k - 1 - j] == cycle[-1 - j % c]:
        j += 1
    if j:
        prefix, r = prefix[:k - j], c - j % c
        cycle = cycle[r:] + cycle[:r]
    return tuple(prefix), tuple(cycle)


# Sequences as the Fraction-built construction made them: each value a
# Fraction, the canonical form found by comparing Fractions, then the int row
# over the values' least common denominator.  The routes below decide on the
# Fraction views alone.

def fraction_built_seq(prefix, cycle, omega=None) -> dict:
    """_shape, _row, _den and the Fraction views of the sequence with these values."""
    prefix, cycle = canonical_by_divisors([Fraction(v) for v in prefix],
                                          [Fraction(v) for v in cycle])
    om = None if omega is None else Fraction(omega)
    row, den = _to_row(prefix + cycle + (() if om is None else (om,)))
    return {"_shape": (len(prefix), len(cycle), om is not None), "_row": row, "_den": den,
            "prefix": prefix, "cycle": cycle, "omega": om}


def value_by_fractions(f: SeqFunc, k: int) -> Fraction:
    p = len(f.prefix)
    return f.prefix[k] if k < p else f.cycle[(k - p) % len(f.cycle)]


def limit_data_by_fractions(f: SeqFunc):
    lo, hi = min(f.cycle), max(f.cycle)
    return lo, hi, (lo if lo == hi else None)


def is_convergent_by_fractions(f: SeqFunc) -> bool:
    return len(f.cycle) == 1 and f.omega in (None, f.cycle[0])


def semicontinuity_by_fractions(f: SeqFunc) -> dict:
    lo, hi, _ = limit_data_by_fractions(f)
    usc, lsc = f.omega >= hi, f.omega <= lo
    return {"usc": usc, "lsc": lsc, "continuous": usc and lsc}


def insert_convergent_by_fractions(f: SeqFunc, g: SeqFunc):
    """(limit, witness) of a convergent insertion, or (None, (limsup f, liminf g))."""
    hi, lo = max(f.cycle), min(g.cycle)
    if hi > lo:
        return None, (hi, lo)
    limit = (hi + lo) / 2
    return limit, clamped_limit_on_naturals(f, g, limit)


def insert_on_y_by_fractions(f: SeqFunc, g: SeqFunc):
    """(limit, witness) of the continuous insertion at f's omega value."""
    return f.omega, clamped_limit_on_y(f, g, f.omega)


def subcover_by_fractions(eps, family):
    """(chosen, join_min, join_omega) of the greedy subcover of convergent
    members: the first member above eps/2 at omega, then for each of its prefix
    indices at or below 0 the first member at least eps/2 there."""
    half = Fraction(eps) / 2
    star = next(i for i, t in enumerate(family) if t.omega > half)
    chosen = [star]
    for k in range(len(family[star].prefix)):
        if value_by_fractions(family[star], k) <= 0:
            j = next(i for i, t in enumerate(family) if value_by_fractions(t, k) >= half)
            if j not in chosen:
                chosen.append(j)
    members = [family[i] for i in chosen]
    span = max(len(t.prefix) for t in members) + 1  # convergent: one cycle value each
    joined = [max(value_by_fractions(t, k) for t in members) for k in range(span)]
    join_omega = max(t.omega for t in members)
    return chosen, min(joined + [join_omega]), join_omega


# -- the insertion procedures as chains of pairwise element operations --------
# Each builds every intermediate element the procedure's algebra names; the
# library computes the same values on one frame of int rows.

def finite_join_pairwise(elems):
    """The join of a nonempty family, one pairwise join at a time."""
    elems = list(elems)
    if not elems:
        raise EmptyFamily("join of an empty family is not formed")
    out = elems[0]
    for e in elems[1:]:
        out = out.join(e)
    return out


def tong_merge_pairwise(a_seq, b_seq) -> MergeTrace:
    """Prefix meets of a_seq, prefix joins of b_seq, then u_n and v_n, each by
    pairwise meets and joins."""
    if not a_seq or not b_seq:
        raise EmptyFamily("merge needs nonempty sequences")
    n = max(len(a_seq), len(b_seq))
    a_seq = list(a_seq) + [a_seq[-1]] * (n - len(a_seq))
    b_seq = list(b_seq) + [b_seq[-1]] * (n - len(b_seq))
    a_norm, b_norm = [], []
    for i in range(n):
        a_norm.append(a_seq[i] if i == 0 else a_norm[-1].meet(a_seq[i]))
        b_norm.append(b_seq[i] if i == 0 else b_norm[-1].join(b_seq[i]))
    bad = a_norm[-1].first_violation(b_norm[-1])
    if bad is not None:
        raise PreconditionViolation(
            f"meet of a_seq exceeds join of b_seq at {bad!r}")
    u_seq, v_seq = [], []
    for i in range(n):
        term = a_norm[i].meet(b_norm[i])
        u_seq.append(term if i == 0 else u_seq[-1].join(term))
        v_seq.append(u_seq[-1].join(a_norm[i]))
    return MergeTrace(a_norm, b_norm, u_seq, v_seq, u_seq[-1])


def dieudonne_iterate_pairwise(oracle, f, g, steps: int) -> IterationTrace:
    """Each step's sandwich (f - 1/2^m) v (a_m - 1/2^{m-1}) and
    g ^ (a_m + 1/2^{m-1}) built by element operations, the witness checked by
    ``le``."""
    if steps < 1:
        raise PreconditionViolation("at least one step is required")
    check_order(f, g)
    a_seq, bounds = [], []
    for m in range(1, steps + 1):
        eps = Fraction(1, 2 ** m)
        lower, upper = f - eps, g
        if a_seq:
            lower = lower.join(a_seq[-1] - bounds[-1])
            upper = upper.meet(a_seq[-1] + bounds[-1])
        a = oracle(lower, upper, eps)
        if not lower.le(a) or not a.le(upper):
            raise OracleContractViolation(m, a, "witness outside its sandwich")
        a_seq.append(a)
        bounds.append(eps)
    return IterationTrace(a_seq, bounds, f, g)


def increasing_approx_pairwise(reference, c_seq, r_seq) -> list:
    """||reference - c_n|| <= r_n by the norm of a difference element, and the
    prefix joins of c_n - r_n by pairwise joins."""
    if len(c_seq) != len(r_seq) or not c_seq:
        raise PreconditionViolation("c_seq and r_seq must be nonempty and aligned")
    out = []
    for n, (c, r) in enumerate(zip(c_seq, [rat(r) for r in r_seq]), start=1):
        if (reference - c).norm() > r:
            raise BoundViolation(n, f"||reference - c_{n}|| > {r}")
        shifted = c - r
        out.append(shifted if not out else out[-1].join(shifted))
    return out


def block_indicators_pairwise(space: FiniteSpace, generators):
    """Each block's indicator as the meet, from the constant 1, of the clamped
    affine normalizations (g - g(y)) / (g(x) - g(y)), one element at a time."""
    if not generators:
        raise EmptyFamily("need at least one generator")
    n = space.n
    sig = [tuple(g.values[x] for g in generators) for x in range(n)]
    blocks = {}
    for x in range(n):
        blocks.setdefault(sig[x], []).append(x)
    indicators, traces = [], []
    for b in blocks.values():
        x = b[0]
        chi = FiniteFunc(space, [ONE] * n)
        choices = []
        for y in range(n):
            if sig[y] == sig[x]:
                continue
            gi = next(i for i, g in enumerate(generators) if g.values[x] != g.values[y])
            g = generators[gi]
            gx, gy = g.values[x], g.values[y]
            h = ((g - gy) * (Fraction(1) / (gx - gy))).join(ZERO).meet(ONE)
            chi = chi.meet(h)
            choices.append({"y": y, "g_index": gi})
        indicators.append(chi)
        traces.append({"block": b, "choices": choices})
    return indicators, traces
