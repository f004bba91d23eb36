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
denominator.  It lays elements out as rows over their least common
denominator at their probe points, so every row check compares ints, and
gives a sequence's cycle and omega values.
Scalars (epsilon, step bounds, grid values, the transform) stay Fractions,
and a row is compared with one by cross-multiplying.

``verify_report`` walks any JSON value, verifies every recognizable payload,
and reports one line per check; a payload it cannot read raises
``MalformedPayload`` with the payload's JSON pointer.
"""

from __future__ import annotations

import bisect
import math
import re
from fractions import Fraction


_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def _ratio(v, memo) -> tuple[int, int]:
    """A JSON rational as (numerator, positive denominator).

    Replay reads the one grammar the serializer writes: an int that is not a
    bool, or an ASCII string "p" or "p/q" of decimal digits with no leading
    zero, p with an optional "-" and q positive.  Any other value is a
    ValueError.  memo keeps each string a payload has already given.
    """
    if type(v) is int:
        return v, 1
    if type(v) is not str:
        raise ValueError(f"not a rational: {v!r}")
    pair = memo.get(v)
    if pair is None:
        if not _RATIONAL.fullmatch(v):
            raise ValueError(f"not a rational: {v!r}")
        num, _, den = v.partition("/")
        pair = memo[v] = int(num), int(den or 1)
    return pair


def _frac(v) -> Fraction:
    return Fraction(*_ratio(v, {}))


def _ints(values, memo) -> tuple[int, list[int]]:
    """A list of JSON rationals as (den, int numerators over den), den least."""
    pairs = [_ratio(v, memo) for v in values]
    den = math.lcm(*{q for _, q in pairs})
    return den, [p * (den // q) for p, q in pairs]


def _mask(points) -> int:
    """A list of point indices as a bitmask; a negative index is a ValueError."""
    m = 0
    for x in points:
        m |= 1 << x
    return m


# -- the element reader ------------------------------------------------------

class _Reader:
    """One payload's elements, each parsed once.

    Only the reader knows the element encoding: a sequence is {"prefix",
    "cycle", "omega"}, a finite function {"values", "space"} with one value
    per point of its space (else the payload is malformed).  A space is
    {"points": n, "up": rows}, row x listing the points y >= x of its
    specialization preorder.  The payload's space is read once, from its
    first finite function, and every other finite function must carry the
    same space, as JSON.  An element is parsed on first use, keyed by its id
    (the payload outlives its reader), into int numerators over its least
    denominator and a shape: (len(prefix), len(cycle), has omega) for a
    sequence, None for a finite function.
    """

    def __init__(self):
        self.memo, self.parsed, self.space, self.masks = {}, {}, None, None

    @staticmethod
    def is_seq(d) -> bool:
        return isinstance(d, dict) and "cycle" in d

    @staticmethod
    def is_finite(d) -> bool:
        return isinstance(d, dict) and "values" in d and "space" in d

    def carrier(self, d):
        """A finite function's up masks, or whether a sequence has no omega value."""
        return self.up(d) if self.is_finite(d) else d.get("omega") is None

    def up(self, d):
        """The up masks of a finite function's space; None for a sequence.

        Raises ValueError unless the rows are a preorder on the points: each
        row inside the space, holding its own point, and holding the row of
        every point in it; or unless the space is the payload's space.
        """
        if not self.is_finite(d):
            return None
        space = d["space"]
        if self.space is None:
            n, rows = space["points"], space["up"]
            if type(n) is not int or len(rows) != n or not all(
                    type(y) is int and 0 <= y < n for row in rows for y in row):
                raise ValueError(f"the space's up rows are not {n!r} rows of its points")
            masks = [_mask(row) for row in rows]
            if not all(m >> x & 1 and all(masks[y] | m == m for y in row)
                       for x, (m, row) in enumerate(zip(masks, rows))):
                raise ValueError("the space's up rows are not a preorder")
            self.space, self.masks = space, masks
        elif space != self.space:
            raise ValueError("finite functions on different spaces")
        return self.masks

    def points(self, *elems):
        """Common probe points for a mix of elements."""
        if all(self.is_seq(d) for d in elems):
            span = max((len(d.get("prefix", [])) for d in elems), default=0) \
                + math.lcm(*[len(d["cycle"]) for d in elems])
            pts = list(range(span))
            if all(d.get("omega") is not None for d in elems):
                pts.append("omega")
            return pts
        if all(self.is_finite(d) for d in elems):
            sizes = [len(self.up(d)) for d in elems]  # each on the payload's space
            return list(range(sizes[0]))
        raise ValueError("mixed or unknown element encodings")

    def _parse(self, d):
        got = self.parsed.get(id(d))
        if got is None:
            if self.is_seq(d):
                prefix, cycle, om = list(d.get("prefix", [])), list(d["cycle"]), d.get("omega")
                values = prefix + cycle + ([] if om is None else [om])
                shape = len(prefix), len(cycle), om is not None
            elif self.is_finite(d):
                values, shape = d["values"], None
                if len(values) != len(self.up(d)):
                    raise ValueError("a finite function needs one value per point")
            else:
                raise ValueError("unknown element encoding")
            got = self.parsed[id(d)] = (*_ints(values, self.memo), shape)
        return got

    def rows(self, *elems, pts=None):
        """The elements' values at pts (by default their common probe points)
        as int numerators over their least common denominator; returns (den,
        rows).  pts holds "omega" only if every element has a value there."""
        if pts is None:
            pts = self.points(*elems)
        parsed = [self._parse(d) for d in elems]
        den = math.lcm(*(own for own, _, _ in parsed))
        rows = []
        for own, nums, shape in parsed:
            scale = den // own
            nums = [x * scale for x in nums]
            if shape is None:
                rows.append([nums[x] for x in pts])
            else:
                k, c, _ = shape
                rows.append([nums[-1] if x == "omega" else nums[x] if x < k
                             else nums[k + (x - k) % c] for x in pts])
        return den, rows

    def seq(self, d):
        """A sequence's prefix and cycle values and its omega value (None
        without one), as Fractions."""
        den, nums, shape = self._parse(d)
        if shape is None:
            raise ValueError("a finite function has no cycle")
        k, c, has_omega = shape
        vals = [Fraction(x, den) for x in nums]
        return vals[:k], vals[k:k + c], vals[-1] if has_omega else None

    def convergent(self, d) -> bool:
        """A finite function is; a sequence iff its cycle is one value, its
        omega value if it has one."""
        if not self.is_seq(d):
            return True
        _, cycle, om = self.seq(d)
        return len(cycle) == 1 and om in (None, cycle[0])


def _row_le(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


# -- payload verifiers -------------------------------------------------------

def _check(checks, name, ok):
    checks.append({"check": name, "ok": bool(ok)})
    return ok


def _verify_merge(trace, checks) -> None:
    rd = _Reader()
    a, b = trace["a_norm"], trace["b_norm"]
    u, v = trace["u_seq"], trace["v_seq"]
    elems = a + b + u + v + [trace["result"]]
    pts = rd.points(*elems)
    n = len(a)
    ok_shape = len(b) == n and len(u) == n and len(v) == n
    _check(checks, "merge: aligned sequence lengths", ok_shape)
    if not ok_shape:
        return
    _, rows = rd.rows(*elems, pts=pts)
    a, b, u, v = (rows[i * n:(i + 1) * n] for i in range(4))
    res = rows[-1]
    _check(checks, "merge: a nonincreasing", all(_row_le(a[i + 1], a[i]) for i in range(n - 1)))
    _check(checks, "merge: b nondecreasing", all(_row_le(b[i], b[i + 1]) for i in range(n - 1)))
    for k in range(len(pts)):
        run = None
        for i in range(n):
            term = min(a[i][k], b[i][k])
            run = term if run is None else max(run, term)
            if run != u[i][k]:
                _check(checks, f"merge: u_{i + 1} recomputed", False)
                return
            if max(run, a[i][k]) != v[i][k]:
                _check(checks, f"merge: v_{i + 1} recomputed", False)
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
    rd = _Reader()
    a = trace["a_seq"]
    bounds = [_frac(b) for b in trace["step_bounds"]]
    den, rows = rd.rows(*a)
    _check(checks, "iteration: bounds are 1/2^n", len(bounds) == len(a) >= 1
           and all(b == Fraction(1, 2 ** (i + 1)) for i, b in enumerate(bounds)))
    # an int t exceeds, or stays within, q * den exactly when it does floor(q * den)
    ok = True
    for i in range(len(a) - 1):
        lim = bounds[i].numerator * den // bounds[i].denominator
        if any(abs(y - x) > lim for x, y in zip(rows[i], rows[i + 1])):
            ok = False
    _check(checks, "iteration: step bound |a_{n+1} - a_n| <= 1/2^n", ok)
    # max over j > i of |a_j - a_i| at each point, from running suffix max/min
    ok = True
    hi = lo = rows[-1] if rows else None
    for i in range(len(a) - 2, -1, -1):
        tail = den >> i  # floor(den * 2^{1-n}) for n = i + 1
        if any(h - x > tail or x - l > tail for x, h, l in zip(rows[i], hi, lo)):
            ok = False
        hi, lo = list(map(max, hi, rows[i])), list(map(min, lo, rows[i]))
    _check(checks, "iteration: Cauchy tail ||a_{n+p} - a_n|| <= 2^{1-n}", ok)
    f, g = trace["f"], trace["g"]
    ok = True
    for i, ai in enumerate(a):
        den, (fr, gr, ar) = rd.rows(f, g, ai)
        lim = bounds[i].numerator * den // bounds[i].denominator
        if not all(x - y <= lim and y <= z for x, y, z in zip(fr, ar, gr)):
            ok = False
    _check(checks, "iteration: sandwich f - 1/2^n <= a_n <= g", ok)


_HOLDS = dict.fromkeys(("T", "BS", "S", "N", "D", "C", "L", "SL"), ("holds",))
# model -> condition -> the verdicts its route gives; every route of seq_y_end
# and of finite_full_<n>pt gives "holds" alone, and none gives "unknown_at_depth"
_ROUTES = {"seq_y_end": _HOLDS, "seq_x_end": {
    **_HOLDS, "C": ("fails",), **dict.fromkeys(("N", "D", "SL"), ("holds", "fails"))}}


def _on_carrier(rd, model, elems) -> None:
    """Raise ValueError unless each element is on the carrier the model names:
    a sequence with no omega value, one with, or a finite function on n points."""
    for d in elems:
        carrier = rd.carrier(d)
        if isinstance(carrier, bool):
            name = "seq_x_end" if carrier else "seq_y_end"
        else:  # rows first checks one value per point
            name = f"finite_full_{len(rd.rows(d)[1][0])}pt"
        if name != model:
            raise ValueError(f"an element on the carrier of {name} under model {model}")


def _agree(inst, cert, at) -> None:
    """Raise ValueError, naming the certificate key's pointer, where a
    certificate repeats the instance's family, epsilon or delta and the two
    copies differ as JSON."""
    for key in ("family", "epsilon", "delta"):
        if key in inst and key in cert and inst[key] != cert[key]:
            raise ValueError(f"{at}/{key} differs from /instance/{key}")


def _verify_condition(report, checks) -> None:
    """Replay a condition report by its model's route, which reads every key
    it writes; a verdict that the route does not give fails one row.  One
    reader serves the report and both parts of an (SL) certificate."""
    _verify_route(report, checks, _Reader(), "/certificate")


def _verify_route(report, checks, rd, at) -> None:
    model, cond, verdict = report["model"], report["condition"], report["verdict"]
    inst, cert = report["instance"], report["certificate"]
    label = f"{cond} {verdict}"
    finite = re.fullmatch(r"finite_full_[1-9][0-9]*pt", model)
    routes = _HOLDS if finite else _ROUTES.get(model, {})
    if verdict not in routes.get(cond, ()):
        _check(checks, f"{label}: certificate recognized", False)
        return
    _agree(inst, cert, at)
    if cond == "SL":
        for part in ("L", "N"):
            _verify_route({"condition": part, "model": model, "instance": inst,
                           "verdict": cert[f"{part}_verdict"], "certificate": cert[part]},
                          checks, rd, f"{at}/{part}")
        both_hold = cert["L_verdict"] == cert["N_verdict"] == "holds"
        _check(checks, f"{label}: decomposition consistent", both_hold == (verdict == "holds"))
        return
    if cond in ("C", "L") and model == "seq_x_end":
        eps, delta = _frac(cert["epsilon"]), _frac(cert["delta"])
        # member n of the noncompact family is eps + delta up to index n, -delta beyond
        member_at = lambda n, k: eps + delta if k <= n else -delta
        if cond == "C":  # an empty list defeats nothing
            _check(checks, f"{label}: every listed subfamily defeated",
                   bool(cert["defeats"]) and all(
                       e["index"] > max(e["subfamily"]) and _frac(e["join_value"])
                       == max(member_at(n, e["index"]) for n in e["subfamily"]) < 0
                       for e in cert["defeats"]))
        else:  # member k is the first one above eps/2 at index k
            _check(checks, f"{label}: each pick is its member's value, above eps/2",
                   all(_frac(p["value"]) == member_at(p["member"], p["index"]) > eps / 2
                       for p in cert["picks"]))
        return
    if cond in ("C", "L"):
        fam = cert["family"]
        _on_carrier(rd, model, fam)
        den, fam_rows = rd.rows(*fam)
        chosen = [fam_rows[i] for i in cert["subfamily"]]
        ks = range(len(fam_rows[0]))
        join_min = min(max(x[k] for x in chosen) for k in ks)
        _check(checks, f"{label}: subfamily join nonnegative", join_min >= 0)
        _check(checks, f"{label}: recorded join minimum matches",
               _frac(cert["join_min"]) * den == join_min)
        if model == "seq_y_end":
            at_omega = max(rd.seq(fam[i])[2] for i in cert["subfamily"])
            _check(checks, f"{label}: recorded join at omega matches",
                   at_omega == _frac(cert["join_omega"]))
        eps = _frac(cert["epsilon"])
        _check(checks, f"{label}: full family covers at level eps",
               all(max(x[k] for x in fam_rows) * eps.denominator >= eps.numerator * den
                   for k in ks))
        return
    f, g = inst["f"], inst["g"]
    _on_carrier(rd, model, (f, g))
    den, (fr, gr) = rd.rows(f, g)

    def between(w):
        _, (fw, gw, wr) = rd.rows(f, g, w)
        return _row_le(fw, wr) and _row_le(wr, gw)

    if cond in ("N", "D"):
        if verdict == "holds":
            w = cert["witness"]
            _check(checks, f"{label}: witness convergent", rd.convergent(w))
            _check(checks, f"{label}: f <= witness <= g", between(w))
            if model in ("seq_x_end", "seq_y_end"):
                _check(checks, f"{label}: limit = the witness's cycle value",
                       rd.seq(w)[1] == [_frac(cert["limit"])])
        else:
            lsf, lig = _frac(cert["limsup_f"]), _frac(cert["liminf_g"])
            _check(checks, "infeasible: limsup f recomputed", max(rd.seq(f)[1]) == lsf)
            _check(checks, "infeasible: liminf g recomputed", min(rd.seq(g)[1]) == lig)
            _check(checks, "infeasible: limsup exceeds liminf", lsf > lig)
        if cond == "D":
            eps = _frac(cert["epsilon"])
            _check(checks, f"{label}: gap f + eps <= g",
                   all((y - x) * eps.denominator >= eps.numerator * den
                       for x, y in zip(fr, gr)))
        return
    _check(checks, f"{label}: f <= g", _row_le(fr, gr))
    if cond == "S":
        _check(checks, f"{label}: witness between endpoints", between(cert["witness"]))
    if model == "seq_x_end":
        # each side's family collapses to the endpoint it approximates, and its
        # residual is recomputed from that endpoint's closed form
        meet_of_side, join_of_side = {"T": (f, g), "BS": (g, f), "S": (f, f)}[cond]
        for side, key, elem in (("meet_side", "closed_form_meet", meet_of_side),
                                ("join_side", "closed_form_join", join_of_side)):
            data = cert[side]
            den, (er, cr) = rd.rows(elem, data[key])
            bound = Fraction(1, data["depth"])
            norm = max(max(er), -min(er))
            spread = norm - min(er) if side == "meet_side" else max(er) + norm
            _check(checks, f"{label}: {side} residual within bound",
                   er == cr and _frac(data["residual_bound"]) == bound
                   and _frac(data["max_residual"]) == min(bound, Fraction(spread, den)))
        return
    a, b = cert["a_seq"], cert["b_seq"]
    _, (fr, gr, *ab) = rd.rows(f, g, *a, *b)
    ar, br = ab[:len(a)], ab[len(a):]
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
    """Re-derive ideal membership of an element from its serialized values."""
    elem = payload["element"]
    in_i, in_j = payload["in_I_alpha"], payload["in_J_radical"]
    cert = payload["cert"]
    if "ratio" in elem:  # geometric tail, with no cycle: limit 0, finite support iff q = 0
        prefix = [_frac(v) for v in elem.get("prefix", [])]
        q, _ = _frac(elem["q"]), _frac(elem["ratio"])
        _check(checks, "ideal: tail lies in the radical", in_j is True)
        _check(checks, "ideal: compact-support membership matches q", in_i == (q == 0))
    else:
        prefix, cycle, om = _Reader().seq(elem)
        ok = len(cycle) == 1 and om == cycle[0]
        _check(checks, "ideal: element convergent", ok)
        if not ok:
            return
        _check(checks, "ideal: radical membership = vanishing at omega",
               in_j == (om == 0))
        _check(checks, "ideal: compact support iff limit zero", in_i == in_j)
    if in_i:
        support = [k for k, v in enumerate(prefix) if v != 0]
        _check(checks, "ideal: closure certificate is the finite support",
               cert["kind"] == "finite" and list(cert["members"]) == support)
    else:
        zeros = [k for k, v in enumerate(prefix) if v == 0]
        _check(checks, "ideal: closure certificate is cofinite with omega",
               cert["kind"] == "cofinite_with_omega"
               and list(cert["members"]) == zeros)


def _verify_block_replay(payload, checks) -> None:
    """Rebuild block indicators from their traces with local arithmetic only.

    With x the block's first point, each choice of a generator g and a point
    y contributes h = (g - g(y)) / (g(x) - g(y)) clamped to [0, 1], read from
    g at the n points of the space; a choice with g(x) = g(y) fails its row.
    Each replayed value is a pair (num, den), den > 0, and must be exactly 1
    on the block and exactly 0 off it.
    """
    rd = _Reader()
    gens = payload["generators"]
    pts = rd.points(*gens)
    traces, indicators = payload["traces"], payload["indicators"]
    points = sorted(x for trace in traces for x in trace["block"])
    if not _check(checks, "block traces: one per indicator, blocks partition the points",
                  len(traces) == len(indicators) and points == pts):
        return
    for trace, ind in zip(traces, indicators):
        x, ok, values = trace["block"][0], True, [(1, 1)] * len(pts)
        for ch in trace["choices"]:
            _, (row,) = rd.rows(gens[ch["g_index"]], pts=pts)
            gy = row[ch["y"]]
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
        den, (expected,) = rd.rows(ind)
        block = set(trace["block"])
        ok = ok and len(expected) == len(pts) and all(
            vn * den == e * vd and vn == (vd if z in block else 0)
            for z, (vn, vd), e in zip(pts, values, expected))
        if not _check(checks, f"block {sorted(block)}: trace replays to 0/1 indicator", ok):
            return
    _check(checks, "block traces: all replayed", True)


# The largest Farey denominator a Urysohn certificate may name: at 64 the
# grid has 1,261 values and its pairs r < s number 794,430.
MAX_Q = 64


def _continuous(rd, d) -> bool:
    """A finite function is continuous iff it is constant on each up row
    (each fiber is then open, as the reals are T1); a sequence iff it is
    constant on its cycle at its omega value (on the naturals alone, every
    sequence is)."""
    up = rd.up(d)
    if up is None:
        _, cycle, om = rd.seq(d)
        return om is None or all(v == om for v in cycle)
    vals = rd.rows(d)[1][0]
    return all(vals[y] == vals[x] for x, row in enumerate(up)
               for y in range(len(up)) if row >> y & 1)


def _verify_urysohn(cert, checks) -> None:
    """Recompute a Urysohn join from f, g and its separations.

    The transform, the Farey grid and each grid pair's level pair are
    recomputed: with f1 and g1 the rescaled f and g, {f1 >= s} and {g1 > r}
    are named by how many distinct values of f1 are at least s and of g1
    exceed r.  No number the producer wrote is trusted.  Values are int
    numerators: f, g, the result and each h over one denominator, f1 and g1
    over another, and grid values are compared with them by cross-multiplying.
    """
    f, g, res, q_max = cert["f"], cert["g"], cert["result"], cert["q_max"]
    if type(q_max) is not int or not 1 <= q_max <= MAX_Q:
        raise ValueError(f"q_max must be an integer from 1 to MAX_Q = {MAX_Q}")
    hs = [row["h"] for row in cert["pairs"]]
    rd = _Reader()
    if any(rd.carrier(d) != rd.carrier(f) for d in (g, res, *hs)):
        raise ValueError("elements on different carriers")
    den, (fr, gr, rr, *hr) = rd.rows(f, g, res, *hs)
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
    first, top = {}, {}  # level pair -> its first (i, j) and its largest r's index
    for j in range(len(grid)):
        for i in range(len(grid)):
            if rank[i] < rank[j]:
                key = (closed[j], opened[i])
                if key not in first:
                    first[key], top[key] = (i, j), i
                elif rank[i] > rank[top[key]]:
                    top[key] = i
    rows = [(_frac(row["r"]), _frac(row["s"])) for row in cert["pairs"]]
    if not _check(checks, "urysohn: one row per distinct level pair, at its first pair",
                  rows == [(grid[i], grid[j]) for i, j in first.values()]):
        return
    ok = True
    for (r, s), h, d in zip(rows, hr, hs):
        ok = ok and _continuous(rd, d) and all(
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

    def __init__(self, kind: str, cause: Exception):
        self.kind, self.cause, self.path = kind, cause, []

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
                return verify("ideal", _verify_ideal, node["ideal_membership"])
            if "block_replay" in node:
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
