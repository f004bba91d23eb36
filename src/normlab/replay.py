"""Independent certificate verifier.

Re-checks serialized reports (merge traces, iteration traces, Urysohn joins,
condition reports, block-indicator traces) from the JSON alone.
The module deliberately shares no evaluation code with the checkers that
produced the certificates and imports nothing from normlab, so a bug in a
searcher cannot hide in its own replay.
Every verifier reads elements through one per-payload reader, ``_Reader``,
the only code here that knows the two carrier encodings.  It reads the
payload's one finite space from its ``up`` rows, refusing rows that are not
a preorder, and parses each element once into int numerators over its least
denominator.  It then lays every element of the payload out once over the
payload's frame (their common probe points and least common denominator),
so every check compares ints, whole rows at a time; the frame is on one
carrier and holds at most MAX_FRAME points.
Scalars (epsilon, step bounds, grid values, the transform) stay Fractions,
and a row is compared with one by cross-multiplying.

``verify_report`` walks any JSON value, verifies every recognizable payload,
and reports one line per check; a payload it cannot read raises
``MalformedPayload`` with the payload's JSON pointer.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from fractions import Fraction


_RATIONAL = re.compile(r"0|-?[1-9][0-9]*(/([2-9]|[1-9][0-9]+))?")


def _ratio(v, memo) -> tuple[int, int]:
    """A JSON rational as (numerator, positive denominator).

    Replay reads the one spelling the serializer writes: an ASCII string "p"
    or "p/q" of decimal digits with no leading zero, in lowest terms, p with
    an optional "-" unless it is 0, and q at least 2.  Any other value, a
    JSON number included, is a ValueError.  memo keeps each string a payload
    has already given.
    """
    pair = memo.get(v) if type(v) is str else None
    if pair is None:
        if type(v) is not str or not _RATIONAL.fullmatch(v):
            raise ValueError(f"not a rational: {v!r}")
        num, _, den = v.partition("/")
        p, q = int(num), int(den or 1)
        if math.gcd(p, q) != 1:
            raise ValueError(f"not a rational in lowest terms: {v!r}")
        pair = memo[v] = p, q
    return pair


def _frac(v) -> Fraction:
    return Fraction(*_ratio(v, {}))


def _ints(values, memo) -> tuple[int, list[int]]:
    """A list of JSON rationals as (den, int numerators over den), den the lcm
    of their denominators."""
    try:
        pairs = [memo.get(v) or _ratio(v, memo) for v in values]
    except TypeError:  # an unhashable value, which _ratio names
        pairs = [_ratio(v, memo) for v in values]
    den = math.lcm(*{q for _, q in pairs})
    return den, [p * (den // q) for p, q in pairs]


def _primitive(cycle) -> bool:
    """Whether a cycle is its own minimal period: for each prime p dividing its
    length n, rotating it by n/p changes it (a shorter period divides n, and
    then so does some n/p)."""
    n = m = len(cycle)
    p = 2
    while m > 1:
        p = p if p * p <= m else m
        if m % p == 0:
            d = n // p
            if cycle[d:] == cycle[:n - d]:
                return False
            while m % p == 0:
                m //= p
        p += 1
    return True


_SEQ_KEYS = {"prefix", "cycle", "omega"}


def _indices(vs, n=None) -> list[int]:
    """A JSON array of distinct indices: ints (not bools), at least 0 and below
    n when n is given; anything else is a ValueError."""
    if type(vs) is not list or not all(type(v) is int and 0 <= v and (n is None or v < n)
                                       for v in vs) or len(set(vs)) != len(vs):
        raise ValueError(f"not distinct indices in range: {vs!r}")
    return vs


def _index(v, n=None) -> int:
    return _indices([v], n)[0]


def _flag(v) -> bool:
    """A JSON boolean; anything else (1, 0, null) is a ValueError."""
    if type(v) is not bool:
        raise ValueError(f"not a JSON boolean: {v!r}")
    return v


def _mask(points) -> int:
    """A list of point indices as a bitmask; a negative index is a ValueError."""
    m = 0
    for x in points:
        m |= 1 << x
    return m


# The most points a payload's frame may hold: the scenario reader's MAX_SPAN
# squared, the most that two scenario elements align over.
MAX_FRAME = 65_536


# -- the element reader ------------------------------------------------------

class _Reader:
    """One payload's elements, each parsed once and laid out once.

    Only the reader knows the element encoding: a sequence is {"prefix",
    "cycle", "omega"}, a finite function {"values", "space"} with one value
    per point of its space (else the payload is malformed).  A sequence has
    one spelling, the one the library writes: all three keys and no other,
    arrays for its prefix and its cycle, a cycle that is its own minimal
    period, and a prefix whose last entry is not the cycle's last (the cycle
    rotated back by one would absorb it); any other is malformed.  A space
    is {"points": n, "up": rows} and no other key, row x listing the points
    y >= x of its specialization preorder in increasing order.  The
    payload's space is read once, from its first finite function, and every
    other finite function must carry the same space, as JSON.  ``frame``
    parses the payload's elements in one memoized pass over all of their
    rationals (one lcm, then int numerators over it) and lays them out,
    keyed by id (the payload outlives its reader): an element's row in the
    frame is the only view checks read.
    """

    def __init__(self):
        self.memo, self.space, self.masks = {}, None, None
        # the frame's den, rows by element id, omega flag and cycle start
        self.den, self.laid, self.omega, self.cycle_at = 1, {}, False, 0

    @staticmethod
    def is_finite(d) -> bool:
        return isinstance(d, dict) and "values" in d and "space" in d

    @classmethod
    def elements(cls, node, out=None) -> list:
        """Every element among the values of a JSON object or array, at any
        depth, in document order; only objects and arrays are descended into."""
        out = [] if out is None else out
        for child in node.values() if type(node) is dict else node:
            kind = type(child)
            if kind is dict and ("cycle" in child or "values" in child and "space" in child):
                out.append(child)  # a sequence or a finite function, written out on this hot walk
            elif kind is dict or kind is list:
                cls.elements(child, out)
        return out

    def up(self, d):
        """The up masks of a finite function's space; None for a sequence.

        Raises ValueError unless the payload's first space is exactly
        ``points`` and ``up``, its rows n arrays of JSON ints, each strictly
        increasing from 0 to n - 1, that are a preorder on the points: each
        row holding its own point and the row of every point in it; or unless
        a later space is the payload's space, with ints where it has ints
        (neither 2.0 nor true stands for one).
        """
        if not self.is_finite(d):
            return None
        space = d["space"]
        if self.space is None:
            if type(space) is not dict or space.keys() != {"points", "up"}:
                raise ValueError("a space has exactly the keys points and up")
            n, rows = space["points"], space["up"]
            if type(n) is not int or type(rows) is not list or len(rows) != n or not all(
                    type(row) is list and all(type(y) is int for y in row)
                    and all(map(operator.lt, [-1, *row], [*row, n])) for row in rows):
                raise ValueError(f"the space's up rows are not {n!r} increasing rows "
                                 "of its points")
            masks = [_mask(row) for row in rows]
            if not all(m >> x & 1 and all(masks[y] | m == m for y in row)
                       for x, (m, row) in enumerate(zip(masks, rows))):
                raise ValueError("the space's up rows are not a preorder")
            self.space, self.masks = space, masks
        elif space != self.space or type(space["points"]) is not int or not all(
                type(y) is int for row in space["up"] for y in row):
            raise ValueError("finite functions on different spaces")
        return self.masks

    def _values(self, d):
        """(values, shape): an element's JSON rationals in row order, and its
        shape; a ValueError for a sequence spelled other than as written."""
        if isinstance(d, dict) and "cycle" in d:
            if d.keys() != _SEQ_KEYS:
                raise ValueError("a sequence has exactly the keys prefix, cycle and omega")
            prefix, cycle, om = d["prefix"], d["cycle"], d["omega"]
            if type(prefix) is not list or type(cycle) is not list or not cycle:
                raise ValueError("a sequence's prefix is an array and its cycle a nonempty one")
            return prefix + cycle + ([] if om is None else [om]), \
                (len(prefix), len(cycle), om is not None)
        if self.is_finite(d):
            values = d["values"]
            if len(values) != len(self.up(d)):
                raise ValueError("a finite function needs one value per point")
            return values, None
        raise ValueError("unknown element encoding")

    def frame(self, *elems):
        """(den, rows): the elements' values as ints over the lcm of their
        denominators at each point of the space, or at each index below the
        longest prefix plus the lcm of the cycles, then omega.  A ValueError for
        a sequence not canonical, or unless all are on one carrier and the
        points number <= MAX_FRAME."""
        spelled = [self._values(d) for d in elems]
        den, nums = _ints([v for values, _ in spelled for v in values], self.memo)
        parsed, at = [], 0
        for values, shape in spelled:
            own = nums[at:at + len(values)]
            at += len(values)
            if shape is not None:
                k, c, _ = shape
                if not _primitive(own[k:k + c]):
                    raise ValueError("a sequence's cycle is not its minimal period")
                if k and own[k - 1] == own[k + c - 1]:
                    raise ValueError("a sequence's prefix ends with an entry its cycle absorbs")
            parsed.append((own, shape))
        carriers = {shape and shape[2] for _, shape in parsed}
        if len(carriers) > 1:
            raise ValueError("elements on different carriers")
        if None in carriers:
            size = len(self.masks)
        else:
            self.omega = True in carriers
            self.cycle_at = max((k for _, (k, _, _) in parsed), default=0)
            span = math.lcm(*(c for _, (_, c, _) in parsed))
            size = self.cycle_at + span + self.omega
        if size > MAX_FRAME:
            raise ValueError(f"a frame of {size} points exceeds MAX_FRAME = {MAX_FRAME}")
        self.den = den
        rows, end = [], size - self.omega
        for d, (nums, shape) in zip(elems, parsed):
            if shape is not None and len(nums) != size:
                k, c, _ = shape
                laps = -(-(end - k) // c)
                nums = (nums[:k] + nums[k:k + c] * laps)[:end] + nums[k + c:]
            rows.append(nums)
            self.laid[id(d)] = nums
        return den, rows

    def row(self, d):
        """An element's row in the frame."""
        if id(d) not in self.laid:
            raise ValueError("unknown element encoding")
        return self.laid[id(d)]


def _row_le(a, b) -> bool:
    return all(map(operator.le, a, b))


def _settles(rd, row) -> bool:
    """Whether a sequence's row in the frame is one value from the frame's cycle
    start on (whole laps of its cycle there), omega included."""
    tail = row[rd.cycle_at:]
    return tail.count(row[-1]) == len(tail)


# -- payload verifiers -------------------------------------------------------

def _check(checks, name, ok):
    checks.append({"check": name, "ok": bool(ok)})
    return ok


def _verify_merge(trace, checks) -> None:
    _keys(trace, ("trace", "a_norm", "b_norm", "u_seq", "v_seq", "result"), (), "merge")
    rd = _Reader()
    a, b = trace["a_norm"], trace["b_norm"]
    u, v = trace["u_seq"], trace["v_seq"]
    _, rows = rd.frame(*a, *b, *u, *v, trace["result"])
    n = len(a)
    ok_shape = len(b) == n and len(u) == n and len(v) == n
    _check(checks, "merge: aligned sequence lengths", ok_shape)
    if not ok_shape:
        return
    a, b, u, v = (rows[i * n:(i + 1) * n] for i in range(4))
    res = rows[-1]
    _check(checks, "merge: a nonincreasing", all(map(_row_le, a[1:], a)))
    _check(checks, "merge: b nondecreasing", all(map(_row_le, b, b[1:])))
    # u_i = (a_1 ^ b_1) v ... v (a_i ^ b_i) and v_i = u_i v a_i, row by row
    run, us, vs = None, [], []
    for ai, bi in zip(a, b):
        term = list(map(min, ai, bi))
        run = term if run is None else list(map(max, run, term))
        us.append(run)
        vs.append(list(map(max, run, ai)))
    if us != u or vs != v:  # name the first failing row: least point, then i, u before v
        _, i, name = min((k, i, name) for name, got, want in (("u", u, us), ("v", v, vs))
                         for i in range(n) for k in range(len(res)) if got[i][k] != want[i][k])
        _check(checks, f"merge: {name}_{i + 1} recomputed", False)
        return
    _check(checks, "merge: u, v recomputed", True)
    _check(checks, "merge: result = last u", res == u[-1])
    _check(checks, "merge: result = meet of v", res == [min(col) for col in zip(*v)])
    _check(checks, "merge: meet a <= result <= join b",
           _row_le(a[-1], res) and _row_le(res, b[-1]))
    for i in range(n):
        if not _row_le(u[-1], v[i]):
            _check(checks, f"merge: u <= v_{i + 1}", False)
            return
    _check(checks, "merge: u below every v_n", True)


def _verify_iteration(trace, checks) -> None:
    _keys(trace, ("trace", "a_seq", "step_bounds", "f", "g"), (), "iteration")
    rd = _Reader()
    a = trace["a_seq"]
    bounds = [_frac(b) for b in trace["step_bounds"]]
    den, (*rows, fr, gr) = rd.frame(*a, trace["f"], trace["g"])
    _check(checks, "iteration: bounds are 1/2^n", len(bounds) == len(a) >= 1
           and all(b == Fraction(1, 2 ** (i + 1)) for i, b in enumerate(bounds)))
    # an int t exceeds, or stays within, q * den exactly when it does floor(q * den)
    lims = [bounds[i].numerator * den // bounds[i].denominator for i in range(len(a))]
    sub = operator.sub
    _check(checks, "iteration: step bound |a_{n+1} - a_n| <= 1/2^n",
           all(max(map(abs, map(sub, rows[i + 1], rows[i])), default=0) <= lims[i]
               for i in range(len(a) - 1)))
    # max over j > i of |a_j - a_i| at each point, from running suffix max/min
    ok = True
    hi = lo = rows[-1] if rows else None
    for i in range(len(a) - 2, -1, -1):
        tail = den >> i  # floor(den * 2^{1-n}) for n = i + 1
        if max(map(sub, hi, rows[i]), default=0) > tail \
                or max(map(sub, rows[i], lo), default=0) > tail:
            ok = False
        hi, lo = list(map(max, hi, rows[i])), list(map(min, lo, rows[i]))
    _check(checks, "iteration: Cauchy tail ||a_{n+p} - a_n|| <= 2^{1-n}", ok)
    _check(checks, "iteration: sandwich f - 1/2^n <= a_n <= g",
           all(max(map(sub, fr, ar), default=0) <= lims[i] and _row_le(ar, gr)
               for i, ar in enumerate(rows)))


_HOLDS = dict.fromkeys(("T", "BS", "S", "N", "D", "C", "L", "SL"), ("holds",))
# model -> condition -> the verdicts its route gives; every route of seq_y_end
# and of finite_full_<n>pt gives "holds" alone, and none gives "unknown_at_depth"
_ROUTES = {"seq_y_end": _HOLDS, "seq_x_end": {
    **_HOLDS, "C": ("fails",), **dict.fromkeys(("N", "D", "SL"), ("holds", "fails"))}}


def _verify_condition(report, checks) -> None:
    """Replay a condition report by its model's route, which reads every key
    it writes; a verdict that the route does not give fails one row.  The
    instance is the one copy of every value the route read, so each check
    reads epsilon, delta, the family and the cap there.  One reader and one
    frame, laid out here over every element, serve the report and both parts
    of an (SL) certificate."""
    rd = _Reader()
    rd.frame(*rd.elements([report["instance"], report["certificate"]]))
    model = report["model"]
    on = f"finite_full_{len(rd.masks)}pt" if rd.masks else "seq_y_end" if rd.omega else "seq_x_end"
    if rd.laid and on != model:  # the frame is on one carrier: the model's
        raise ValueError(f"an element on the carrier of {on} under model {model}")
    _verify_route(report, checks, rd)


def _keys(node: dict, keys: tuple, at: tuple, kind: str = "condition") -> None:
    """Refuse a payload of ``kind``, or a part of one, at its pointer ``at``
    unless it holds exactly ``keys``, the ones its checks read, so that no value
    in it goes unread: a missing key is a KeyError, any other a ValueError."""
    missing, extra = [key for key in keys if key not in node], node.keys() - set(keys)
    if missing or extra:
        raise MalformedPayload(kind, KeyError(missing[0]) if missing else
                               ValueError(f"a key no check reads: {min(extra)!r}"), at)


def _verify_route(report, checks, rd, at=("certificate",)) -> None:
    """One route's checks, on the report's frame; ``at`` is the pointer of the
    route's certificate."""
    model, cond, verdict = report["model"], report["condition"], report["verdict"]
    inst, cert = report["instance"], report["certificate"]
    label = f"{cond} {verdict}"
    finite = re.fullmatch(r"finite_full_[1-9][0-9]*pt", model)
    routes = _HOLDS if finite else _ROUTES.get(model, {})
    if verdict not in routes.get(cond, ()):
        _check(checks, f"{label}: certificate recognized", False)
        return
    seq = model in ("seq_x_end", "seq_y_end")
    if cond == "SL":
        _keys(cert, ("L", "L_verdict", "N", "N_verdict"), at)
        for part in ("L", "N"):
            _verify_route({**report, "condition": part, "verdict": cert[f"{part}_verdict"],
                           "certificate": cert[part]}, checks, rd, (*at, part))
        both_hold = cert["L_verdict"] == cert["N_verdict"] == "holds"
        _check(checks, f"{label}: decomposition consistent", both_hold == (verdict == "holds"))
        return
    if cond in ("C", "L") and model == "seq_x_end":
        # member n of the noncompact family is eps + delta up to index n and
        # -delta beyond, for positive eps and delta
        eps, delta = _frac(inst["epsilon"]), _frac(inst["delta"])
        _keys(cert, ("defeats",) if cond == "C" else (), at)
        if cond == "C":  # each subfamily of up to subfamily_cap of the first 8 members
            cap = inst["subfamily_cap"]
            if type(cap) is not int or cap < 1:
                raise ValueError(f"subfamily_cap is not an integer at least 1: {cap!r}")
            combos = [combo for size in range(1, min(cap, 8) + 1)
                      for combo in itertools.combinations(range(8), size)]
            defeats, neg = cert["defeats"], -delta  # an empty list defeats nothing
            for i, e in enumerate(defeats):
                _keys(e, ("subfamily", "index", "join_value"), (*at, "defeats", i))

            def same(v, q):  # a JSON rational is q, compared as ints
                p, d = _ratio(v, rd.memo)
                return p * q.denominator == q.numerator * d

            _check(checks, f"{label}: every listed subfamily defeated",
                   bool(defeats) and neg < 0 < eps and len(defeats) == len(combos) and all(
                       _indices(e["subfamily"]) == list(combo)
                       and _index(e["index"]) == combo[-1] + 1
                       and same(e["join_value"], neg) for e, combo in zip(defeats, combos)))
        else:
            _check(checks, f"{label}: member k is eps + delta > eps/2 at index k",
                   eps > 0 and delta > 0)
        return
    den, row = rd.den, rd.row
    if cond in ("C", "L"):
        _keys(cert, ("subfamily", "join_min") + (("join_omega",) if seq else ()), at)
        fam = inst["family"]
        fam_rows = [row(d) for d in fam]
        chosen = [fam_rows[i] for i in _indices(cert["subfamily"], len(fam_rows))]
        ks = range(len(fam_rows[0]))
        join_min = min(max(x[k] for x in chosen) for k in ks)
        _check(checks, f"{label}: subfamily join nonnegative", join_min >= 0)
        _check(checks, f"{label}: recorded join minimum matches",
               _frac(cert["join_min"]) * den == join_min)
        if model == "seq_y_end":  # the frame ends at omega
            _check(checks, f"{label}: recorded join at omega matches",
                   max(x[-1] for x in chosen) == _frac(cert["join_omega"]) * den)
        eps = _frac(inst["epsilon"])
        _check(checks, f"{label}: full family covers at level eps", eps > 0 and all(
            max(x[k] for x in fam_rows) * eps.denominator >= eps.numerator * den for k in ks))
        return
    f, g = inst["f"], inst["g"]
    fr, gr = row(f), row(g)

    def between(w):
        wr = row(w)
        return _row_le(fr, wr) and _row_le(wr, gr)

    if cond in ("N", "D"):
        held = ("witness", "limit") if seq else ("witness",)
        _keys(cert, held if verdict == "holds" else ("limsup_f", "liminf_g"), at)
        if verdict == "holds":
            w = cert["witness"]
            wr = row(w)  # a finite function is convergent
            _check(checks, f"{label}: witness convergent",
                   rd.masks is not None or _settles(rd, wr))
            _check(checks, f"{label}: f <= witness <= g", between(w))
            if seq:
                lim = _frac(cert["limit"])
                _check(checks, f"{label}: limit = the witness's cycle value",
                       all(x * lim.denominator == lim.numerator * den
                           for x in wr[rd.cycle_at:len(wr) - rd.omega]))
        else:  # on seq_x_end, whose frame has no omega: laps of each cycle
            lsf, lig = _frac(cert["limsup_f"]), _frac(cert["liminf_g"])
            _check(checks, "infeasible: limsup f recomputed",
                   max(fr[rd.cycle_at:]) * lsf.denominator == lsf.numerator * den)
            _check(checks, "infeasible: liminf g recomputed",
                   min(gr[rd.cycle_at:]) * lig.denominator == lig.numerator * den)
            _check(checks, "infeasible: limsup exceeds liminf", lsf > lig)
        if cond == "D":
            eps = _frac(inst["epsilon"])
            _check(checks, f"{label}: gap f + eps <= g", eps > 0 and all(
                (y - x) * eps.denominator >= eps.numerator * den for x, y in zip(fr, gr)))
        return
    sides = ("meet_side", "join_side") if model == "seq_x_end" else ("a_seq", "b_seq")
    _keys(cert, sides + (("witness",) if cond == "S" else ()), at)
    _check(checks, f"{label}: f <= g", _row_le(fr, gr))
    if cond == "S":
        _check(checks, f"{label}: witness between endpoints", between(cert["witness"]))
    if model == "seq_x_end":
        # each side's countable meet or join is exactly the endpoint it stands for
        meet_of_side, join_of_side = {"T": (fr, gr), "BS": (gr, fr), "S": (fr, fr)}[cond]
        for side, key, er in (("meet_side", "closed_form_meet", meet_of_side),
                              ("join_side", "closed_form_join", join_of_side)):
            _keys(cert[side], (key,), (*at, side))
            _check(checks, f"{label}: {side} closed form is its endpoint",
                   er == row(cert[side][key]))
        return
    a, b = cert["a_seq"], cert["b_seq"]
    ar, br = [row(d) for d in a], [row(d) for d in b]
    meet_of = lambda xs, k: min(x[k] for x in xs)
    join_of = lambda xs, k: max(x[k] for x in xs)
    ks = range(len(fr))
    if cond == "T":
        ok = all(fr[k] <= meet_of(ar, k) <= join_of(br, k) <= gr[k] for k in ks)
    elif cond == "BS":
        # a_seq carries the join side, b_seq the meet side
        ok = all(fr[k] <= join_of(ar, k) <= meet_of(br, k) <= gr[k] for k in ks)
    else:
        ok = all(meet_of(ar, k) == join_of(br, k) for k in ks) and \
             all(fr[k] <= meet_of(ar, k) <= gr[k] for k in ks)
    _check(checks, f"{label}: interpolation chain", ok)


def _verify_ideal(payload, checks) -> None:
    """Re-derive ideal membership of an element from its serialized values:
    the element is read first, then the closure certificate."""
    at = ("ideal_membership",)
    _keys(payload, ("element", "in_I_alpha", "in_J_radical", "cert"), at, "ideal")
    elem = payload["element"]
    in_i, in_j = _flag(payload["in_I_alpha"]), _flag(payload["in_J_radical"])
    if "ratio" in elem:  # geometric tail, with no cycle: limit 0, finite support iff q = 0
        if elem.keys() != {"prefix", "q", "ratio"} or type(elem["prefix"]) is not list:
            raise ValueError("a geometric tail is exactly an array prefix, q and ratio")
        _, prefix = _ints(elem["prefix"], {})
        q, ratio = _frac(elem["q"]), _frac(elem["ratio"])
        facts = [("ideal: tail lies in the radical", in_j and 0 < ratio < 1),
                 ("ideal: compact-support membership matches q", in_i == (q == 0))]
    else:
        rd = _Reader()
        _, (row,) = rd.frame(elem)
        if rd.masks is not None:
            raise ValueError("a finite function has no cycle")
        ok = rd.omega and _settles(rd, row)
        facts, prefix = [("ideal: element convergent", ok)], None
        if ok:
            facts += [("ideal: radical membership = vanishing at omega", in_j == (row[-1] == 0)),
                      ("ideal: compact support iff limit zero", in_i == in_j)]
            prefix = row[:rd.cycle_at]
    cert = payload["cert"]
    _keys(cert, ("kind", "members"), (*at, "cert"), "ideal")
    members = _indices(cert["members"])
    if members != sorted(members):
        raise ValueError(f"members not in increasing order: {members!r}")
    for name, ok in facts:
        _check(checks, name, ok)
    if prefix is not None:  # the certificate lists the support when in I, else the zeros
        kind, name = ("finite", "the finite support") if in_i else \
            ("cofinite_with_omega", "cofinite with omega")
        _check(checks, f"ideal: closure certificate is {name}", cert["kind"] == kind
               and members == [k for k, v in enumerate(prefix) if (v != 0) == in_i])


def _verify_block_replay(payload, checks) -> None:
    """Rebuild block indicators from their traces with local arithmetic only.

    With x the block's first point, each choice of a generator g and a point
    y contributes h = (g - g(y)) / (g(x) - g(y)) clamped to [0, 1], read from
    g at the n points of the space; a choice with g(x) = g(y) fails its row.
    Each replayed value is a pair (num, den), den > 0, and must be exactly 1
    on the block and exactly 0 off it.
    """
    at = ("block_replay",)
    _keys(payload, ("generators", "traces", "indicators"), at, "block")
    rd = _Reader()
    gens, traces, indicators = payload["generators"], payload["traces"], payload["indicators"]
    for i, trace in enumerate(traces):
        _keys(trace, ("block", "choices"), (*at, "traces", i), "block")
        for j, ch in enumerate(trace["choices"]):
            _keys(ch, ("y", "g_index"), (*at, "traces", i, "choices", j), "block")
    den, rows = rd.frame(*gens, *indicators)
    gen_rows = rows[:len(gens)]
    pts = range(len(gen_rows[0]))
    points = sorted(_index(x, len(pts)) for trace in traces for x in trace["block"])
    if not _check(checks, "block traces: one per indicator, blocks partition the points",
                  len(traces) == len(indicators) and points == list(pts)):
        return
    for trace, expected in zip(traces, rows[len(gens):]):
        x, ok, values = trace["block"][0], True, [(1, 1)] * len(pts)
        for ch in trace["choices"]:
            row = gen_rows[_index(ch["g_index"], len(gen_rows))]
            gy = row[_index(ch["y"], len(pts))]
            span = row[x] - gy
            ok = ok and span != 0
            # h = (g - gy) / span clamped to [0, 1], as hn / hd with hd > 0
            sign = 1 if span > 0 else -1
            hd = sign * span
            for z in pts:
                hn = min(max(sign * (row[z] - gy), 0), hd)
                vn, vd = values[z]
                if hn * vd < vn * hd:
                    values[z] = hn, hd
        block = set(trace["block"])
        ok = ok and all(vn * den == e * vd and vn == (vd if z in block else 0)
                        for z, (vn, vd), e in zip(pts, values, expected))
        if not _check(checks, f"block {sorted(block)}: trace replays to 0/1 indicator", ok):
            return
    _check(checks, "block traces: all replayed", True)


# The largest Farey denominator a Urysohn certificate may name: at 64 the
# grid has 1,261 values and its pairs r < s number 794,430.
MAX_Q = 64


def _continuous(rd, row) -> bool:
    """Whether an element, given by its row in the frame, is continuous: a
    finite function iff it is constant on each up row (each fiber is then
    open, as the reals are T1); a sequence iff, with an omega value, it is
    that value from the frame's cycle on (on the naturals alone, every
    sequence is)."""
    if rd.masks is None:
        return not rd.omega or _settles(rd, row)
    return all(row[y] == v for v, m in zip(row, rd.masks)
               for y in range(len(row)) if m >> y & 1)


def _level_pairs(rank, closed, opened):
    """Each level pair (closed[j], opened[i]), r_i < s_j -> its first (i, j) (s
    outer, r inner, in grid order) and the i of its largest r: each count in
    opened covers a run of consecutive values, giving one pair per s."""
    order = sorted(range(len(rank)), key=rank.__getitem__)
    place = {i: t for t, i in enumerate(order)}
    runs = [list(run) for _, run in itertools.groupby(order, key=opened.__getitem__)]
    runs = [(place[run[0]], run, list(itertools.accumulate(run, min))) for run in runs]
    first, top = {}, {}
    for j, count in enumerate(closed):
        fresh = []
        for start, run, least in runs:
            last = min(place[j] - start, len(run)) - 1  # the run's last value below s
            if last < 0:
                break
            key = (count, opened[run[0]])
            if key not in top:
                fresh.append((least[last], key, run[last]))
            elif place[run[last]] > place[top[key]]:
                top[key] = run[last]
        for i, key, i_top in sorted(fresh):
            first[key], top[key] = (i, j), i_top
    return first, top


def _verify_urysohn(cert, checks) -> None:
    """Recompute a Urysohn join from f, g and its separations.

    The transform, the Farey grid and each grid pair's level pair are
    recomputed: with f1 and g1 the rescaled f and g, {f1 >= s} and {g1 > r}
    are named by how many distinct values of f1 are at least s and of g1
    exceed r.  No number the producer wrote is trusted.  Values are int
    numerators: f, g, the result and each h over one denominator, f1 and g1
    over another, and grid values are compared with them by cross-multiplying.
    """
    _keys(cert, ("trace", "f", "g", "q_max", "transform", "result", "pairs"), (), "urysohn")
    f, g, res, q_max = cert["f"], cert["g"], cert["result"], cert["q_max"]
    if type(q_max) is not int or not 1 <= q_max <= MAX_Q:
        raise ValueError(f"q_max must be an integer from 1 to MAX_Q = {MAX_Q}")
    for i, row in enumerate(cert["pairs"]):
        _keys(row, ("r", "s", "h"), ("pairs", i), "urysohn")
    hs = [row["h"] for row in cert["pairs"]]
    rd = _Reader()
    den, (fr, gr, rr, *hr) = rd.frame(f, g, res, *hs)
    a = -min(fr)  # a / den and b / den are the transform
    b = max(gr) + a or den
    _check(checks, "urysohn: transform recomputed",
           [_frac(v) for v in cert["transform"]] == [Fraction(a, den), Fraction(b, den)])
    # f1 = (f + a) / b and g1 = (g + a) / b, as numerators over unit > 0
    sign = 1 if b > 0 else -1
    unit = sign * b
    f1, g1 = [sign * (v + a) for v in fr], [sign * (v + a) for v in gr]
    fvals, gvals = sorted(set(f1)), sorted(set(g1))
    grid = [Fraction(n, d) for d in range(1, q_max + 1) for n in range(d + 1)
            if math.gcd(n, d) == 1]
    # an int x is >= s * unit iff x >= ceil(s * unit), and > r * unit iff x > floor(r * unit)
    closed = [len(fvals) - bisect.bisect_left(fvals, -(-s.numerator * unit // s.denominator))
              for s in grid]
    opened = [len(gvals) - bisect.bisect_right(gvals, r.numerator * unit // r.denominator)
              for r in grid]
    common = math.lcm(*range(1, q_max + 1))
    rank = [v.numerator * (common // v.denominator) for v in grid]  # r < s iff rank r < rank s
    first, top = _level_pairs(rank, closed, opened)
    rows = [(_frac(row["r"]), _frac(row["s"])) for row in cert["pairs"]]
    if not _check(checks, "urysohn: one row per distinct level pair, at its first pair",
                  rows == [(grid[i], grid[j]) for i, j in first.values()]):
        return
    ok = True
    for (r, s), h in zip(rows, hr):
        ok = ok and _continuous(rd, h) and all(
            0 <= v <= den and (v == den or x * s.denominator < s.numerator * unit)
            and (v == 0 or y * r.denominator > r.numerator * unit)
            for v, x, y in zip(h, f1, g1))
    _check(checks, "urysohn: each h in [0, 1], continuous, 1 on {f >= s}, 0 off {g > r}", ok)
    # the join of r_top * h as numerators over lcd * den
    tops = [grid[i] for i in top.values()]
    lcd = math.lcm(*(t.denominator for t in tops))
    weights = [t.numerator * (lcd // t.denominator) for t in tops]
    joined = [max([0] + [w * h[k] for w, h in zip(weights, hr)]) for k in range(len(fr))]
    _check(checks, "urysohn: result = b * join of r_top * h - a",
           len(rr) == len(joined)
           and all((y + a) * lcd * den == b * j for y, j in zip(rr, joined)))
    _check(checks, "urysohn: result <= g", _row_le(rr, gr))
    _check(checks, "urysohn: result >= f - b/q_max where f1 is on the grid",
           all(y * q_max >= x * q_max - b for x, y, x1 in zip(fr, rr, f1)
               if unit // math.gcd(x1, unit) <= q_max))


class MalformedPayload(Exception):
    """A payload the verifiers cannot read, named by its JSON pointer and kind."""

    def __init__(self, kind: str, cause: Exception, at: tuple = ()):
        self.kind, self.cause, self.path = kind, cause, list(reversed(at))

    def __str__(self):
        tokens = (str(t).replace("~", "~0").replace("/", "~1") for t in reversed(self.path))
        return (f"/{'/'.join(tokens)}: malformed {self.kind} payload "
                f"({type(self.cause).__name__}: {self.cause})")


_PAYLOAD_ERRORS = (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError,
                   AttributeError)


def verify_report(data) -> dict:
    """Verify every recognizable certificate in a JSON report.

    Returns {"ok": bool, "verified": payload count, "checks": [...]}, where
    each check entry names what was re-derived and whether it held.  Raises
    MalformedPayload, naming the payload's JSON pointer, when a payload is
    missing data or holds values of the wrong type.
    """
    checks: list[dict] = []
    count = 0

    def verify(kind, verifier, payload):
        nonlocal count
        count += 1
        try:
            verifier(payload, checks)
        except _PAYLOAD_ERRORS as exc:
            raise MalformedPayload(kind, exc) from exc

    def walk(node):
        if isinstance(node, dict):
            if node.get("trace") == "merge":
                return verify("merge", _verify_merge, node)
            if node.get("trace") == "iteration":
                return verify("iteration", _verify_iteration, node)
            if node.get("trace") == "urysohn":
                return verify("urysohn", _verify_urysohn, node)
            if "condition" in node and "verdict" in node:
                return verify("condition", _verify_condition, node)
            if "ideal_membership" in node:
                _keys(node, ("ideal_membership",), (), "ideal")
                return verify("ideal", _verify_ideal, node["ideal_membership"])
            if "block_replay" in node:
                _keys(node, ("block_replay",), (), "block")
                return verify("block", _verify_block_replay, node["block_replay"])
            children = node.items()
        elif isinstance(node, list):
            children = enumerate(node)
        else:
            return
        for key, child in children:
            try:
                walk(child)
            except MalformedPayload as exc:
                exc.path.append(key)
                raise

    walk(data)
    ok = bool(checks) and all(c["ok"] for c in checks)
    return {"ok": ok, "verified": count, "checks": checks}
