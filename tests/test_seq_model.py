"""Eventually periodic sequences: canonical form, insertion, ideals, covers."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import conditions
from normlab.errors import (
    CarrierMismatch,
    CoverViolation,
    EmptyFamily,
    GapViolation,
    NotConvergent,
    OmegaMissing,
    PreconditionViolation,
    SearchBudgetExceeded,
)
from normlab.finite_space import Infeasible, insert_finite, is_lsc, is_usc
from normlab.insertion_engine import YUrysohnCarrier
from normlab.seq_model import (
    OMEGA,
    GeoTail,
    SeqFunc,
    _canonical,
    _period,
    brute_force_insertable,
    ideal_membership,
    insert_convergent,
    insert_on_y,
    lindelof_extract,
    local_compact_minorants,
    semicontinuity_on_y,
    subcover_extract,
    threshold_indicator,
)
from normlab.serialize import parse_element
from oracles import (
    canonical_by_divisors,
    clamped_limit_on_naturals,
    clamped_limit_on_y,
    countable_join_family,
    countable_meet_family,
    finite_join_pairwise,
    fraction_built_seq,
    insert_convergent_by_fractions,
    insert_on_y_by_fractions,
    is_convergent_by_fractions,
    limit_data_by_fractions,
    noncompact_family,
    on_y_quotient,
    probe_points,
    pulled_back_from_y_quotient,
    rand_rational,
    random_feasible_x_pair,
    random_usc_lsc_pair,
    random_x_pair,
    refute,
    semicontinuity_by_fractions,
    subcover_by_fractions,
    unit_cover,
    with_omega,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def seq_funcs(draw, with_omega=False):
    prefix = draw(st.lists(rationals, max_size=5))
    cycle = draw(st.lists(rationals, min_size=1, max_size=4))
    om = draw(rationals) if with_omega else None
    return SeqFunc(prefix, cycle, om)


def test_canonical_minimal_cycle():
    assert SeqFunc((), (1, 2, 1, 2)).cycle == (Fraction(1), Fraction(2))
    assert SeqFunc((), (5, 5, 5)).cycle == (Fraction(5),)


def test_canonical_prefix_absorption():
    # a prefix ending like the cycle folds into a rotation of the cycle
    a = SeqFunc([1, 2], (3, 2))
    b = SeqFunc([1], (2, 3))
    assert a == b
    assert SeqFunc([7], (7,)) == SeqFunc((), (7,))


def test_canonical_matches_the_divisor_scan():
    """The prime-factor period and the untouched-row fast path give the form
    that trying every divisor gives: every cycle of length <= 8 over {0, 1, 2},
    with every prefix of up to 3 entries, and on a row of each shape."""
    checked = 0
    for n in range(1, 9):
        for cycle in itertools.product(range(3), repeat=n):
            for k in range(4):
                for prefix in itertools.product(range(3), repeat=k):
                    want = canonical_by_divisors(list(prefix), list(cycle))
                    assert _canonical(list(prefix), list(cycle)) == want
                    shape, row = SeqFunc._canonical_row(None, (k, n, True), prefix + cycle + (9,))
                    assert (shape, tuple(row)) == ((*map(len, want), True), (*want[0], *want[1], 9))
                    checked += 1
    assert checked == 9840 * 40


def test_period_of_long_cycles():
    """Lengths with repeated and large prime factors: 2^6, 3^4, 2*3*5*7 and
    the prime 251, each with its minimal period at every divisor."""
    for n in (64, 81, 210, 251):
        for d in range(1, n + 1):
            if n % d == 0:
                assert _period(([0] * (d - 1) + [1]) * (n // d)) == d


@given(seq_funcs(), st.integers(min_value=0, max_value=40))
def test_at_respects_prefix_then_cycle(f, k):
    prefix, cycle = f.prefix, f.cycle
    if k < len(prefix):
        assert f.at(k) == prefix[k]
    else:
        assert f.at(k) == cycle[(k - len(prefix)) % len(cycle)]


@given(seq_funcs(), seq_funcs())
@settings(max_examples=80)
def test_canonical_equality_iff_pointwise(a, b):
    window = len(a.prefix) + len(b.prefix) + 2 * len(a.cycle) * len(b.cycle)
    same_values = all(a.at(k) == b.at(k) for k in range(window + 1))
    assert (a == b) == same_values


@given(seq_funcs(), seq_funcs())
def test_pointwise_ops_align(a, b):
    s = a + b
    j = a.join(b)
    for k in range(20):
        assert s.at(k) == a.at(k) + b.at(k)
        assert j.at(k) == max(a.at(k), b.at(k))


def test_carrier_mismatch_rejected():
    with pytest.raises(CarrierMismatch):
        SeqFunc.constant(1) + SeqFunc.constant(1, with_omega=True)


def test_limit_data_and_convergence():
    """The (N) certificate on the naturals reads the tail's extrema: limsup f
    and liminf g when they refute, the limit when they meet."""
    f = SeqFunc([5], (1, 3))
    assert insert_convergent(f, f + 1) == {"limsup_f": 3, "liminf_g": 2}
    g = SeqFunc([5], (2,))
    assert insert_convergent(g, g) == {"witness": g, "limit": 2}
    assert g.is_convergent()
    assert not f.is_convergent()
    assert not with_omega(g, 3).is_convergent()
    assert with_omega(g, 2).is_convergent()


def test_semicontinuity_at_omega():
    evens = SeqFunc.periodic([1, 0], omega=1)
    assert semicontinuity_on_y(evens) == {"usc": True, "lsc": False, "continuous": False}
    assert semicontinuity_on_y(SeqFunc.periodic([1, 0], omega=0))["lsc"]
    const = SeqFunc.constant(2, with_omega=True)
    assert semicontinuity_on_y(const)["continuous"]
    with pytest.raises(OmegaMissing):
        semicontinuity_on_y(SeqFunc.constant(1))


def test_insert_convergent_chi_evens_infeasible():
    chi = SeqFunc.periodic([1, 0])
    assert insert_convergent(chi, chi) == {"limsup_f": 1, "liminf_g": 0}
    k = refute(chi, chi, SeqFunc.constant(Fraction(1, 2)))
    assert not chi.at(k) <= Fraction(1, 2) <= chi.at(k)
    with pytest.raises(NotConvergent):
        refute(chi, chi, chi)


def test_insert_convergent_feasible_witness():
    f = SeqFunc([3, -1], (0,))
    g = SeqFunc([3, 0], (2,))
    w = insert_convergent(f, g)["witness"]
    assert w.is_convergent()
    assert f.le(w) and w.le(g)


@given(seq_funcs(), seq_funcs())
@settings(max_examples=120)
def test_insert_matches_brute_oracle(f, other):
    g = f.join(other)
    verdict = insert_convergent(f, g)
    assert ("witness" in verdict) == (brute_force_insertable(f, g) is not None)


def test_brute_oracle_reads_values_past_a_long_prefix():
    """The oracle tries every value f and g take, so a limit first taken
    after 70 prefix entries is still found, the one insert_convergent finds."""
    f, g = SeqFunc([0] * 70, [1]), SeqFunc([5] * 70, [1])
    assert insert_convergent(f, g)["limit"] == 1
    assert brute_force_insertable(f, g) == 1


def test_d_on_the_naturals_gap_and_infeasibility():
    chi = SeqFunc.periodic([1, 0])

    def check_d(f, g, epsilon):
        return conditions.check_condition(conditions.SeqXEndModel(), "D",
                                          {"f": f, "g": g, "epsilon": epsilon})

    with pytest.raises(GapViolation) as exc:
        check_d(chi, chi, Fraction(1, 4))
    assert exc.value.index == 0 and exc.value.key == "epsilon"
    # the gap holds but no convergent witness exists
    failed = check_d(chi, chi + Fraction(1, 2), Fraction(1, 2))
    assert failed.verdict == conditions.FAILS
    assert failed.certificate == {"limsup_f": 1, "liminf_g": Fraction(1, 2)}
    held = check_d(SeqFunc.constant(0), SeqFunc.constant(1), Fraction(1, 2))
    assert held.verdict == conditions.HOLDS
    assert held.certificate["witness"].is_convergent()
    assert held.certificate["limit"] == Fraction(1, 2)


@st.composite
def y_shapes(draw, *elems):
    """A (P, L) that the elements' shapes fit: P at least every prefix, L a
    multiple of every cycle length."""
    p = max(len(f.prefix) for f in elems) + draw(st.integers(0, 2))
    period = math.lcm(*(len(f.cycle) for f in elems)) * draw(st.integers(1, 2))
    return p, period


@settings(max_examples=200, deadline=None)
@given(seq_funcs(with_omega=True), st.data())
def test_semicontinuity_on_y_is_that_on_its_finite_quotient(f, data):
    """f is usc (lsc) on the compactified naturals iff it is on Q_{P,L}, the
    finite quotient its shape fits."""
    p, period = data.draw(y_shapes(f))
    fq = on_y_quotient(f, p, period)
    assert pulled_back_from_y_quotient(fq, p, period) == f
    side = semicontinuity_on_y(f)
    assert (side["usc"], side["lsc"]) == (is_usc(fq), is_lsc(fq))


@st.composite
def y_usc_lsc_pairs(draw):
    """usc f <= lsc g on the compactified naturals: g is f plus a nonnegative
    prefix, and on the tail every value of g's cycle is at least g(omega),
    which is at least f(omega), which is at least every value of f's cycle."""
    nonneg = st.fractions(min_value=0, max_value=2, max_denominator=8)
    prefix = draw(st.lists(rationals, max_size=4))
    f_cycle = draw(st.lists(rationals, min_size=1, max_size=4))
    f_om = max(f_cycle) + draw(nonneg)
    g_om = f_om + draw(nonneg)
    g_cycle = [g_om + v for v in draw(st.lists(nonneg, min_size=1, max_size=4))]
    g_prefix = [v + draw(nonneg) for v in prefix]
    return SeqFunc(prefix, f_cycle, f_om), SeqFunc(g_prefix, g_cycle, g_om)


@settings(max_examples=200, deadline=None)
@given(y_usc_lsc_pairs(), st.data())
def test_finite_insertion_on_the_quotient_pulls_back_to_y(pair, data):
    """For usc f <= lsc g on the compactified naturals, the finite insertion
    on Q_{P,L} is feasible, and its witness pulled back is a convergent h
    with f <= h <= g."""
    f, g = pair
    p, period = data.draw(y_shapes(f, g))
    h = insert_finite(on_y_quotient(f, p, period), on_y_quotient(g, p, period))
    assert not isinstance(h, Infeasible)
    pulled = pulled_back_from_y_quotient(h, p, period)
    assert pulled.is_convergent() and f.le(pulled) and pulled.le(g)


def test_insert_on_y_always_succeeds():
    f = SeqFunc.periodic([1, 0], omega=1)
    g = SeqFunc.constant(1, with_omega=True)
    w = insert_on_y(f, g)["witness"]
    assert f.le(w) and w.le(g)
    assert w.is_convergent()
    with pytest.raises(PreconditionViolation):
        insert_on_y(SeqFunc.periodic([1, 0], omega=0), g)  # f not usc


def _representation(func):
    return func._shape, func._row, func._den


def test_insertion_witnesses_match_the_per_index_clamp():
    """f v (g ^ L) is the limit clamped index by index, in the same canonical
    form, on the naturals and on the compactification."""
    rng = random.Random(19)
    witnesses = 0
    for _ in range(300):
        for pair in (random_x_pair(rng), random_feasible_x_pair(rng)):
            w = insert_convergent(pair["f"], pair["g"])
            if "witness" in w:
                witnesses += 1
                assert _representation(w["witness"]) == _representation(
                    clamped_limit_on_naturals(pair["f"], pair["g"], w["limit"]))
        f, g = random_usc_lsc_pair(rng).values()
        w = insert_on_y(f, g)
        assert w["limit"] == f.omega
        assert _representation(w["witness"]) == _representation(
            clamped_limit_on_y(f, g, w["limit"]))
    assert witnesses > 300  # every feasible pair and some of the random ones


def test_threshold_indicator_separates_on_y():
    f = SeqFunc.periodic([1, 0], omega=1)
    closed = threshold_indicator(f, 1)
    assert semicontinuity_on_y(closed)["usc"]
    d = SeqFunc.from_support({1: 1, 3: 1}, 0, 0)
    h = YUrysohnCarrier().urysohn(closed, 1 - d)
    assert h.is_convergent()
    assert (h.meet(d)).value_bounds()[1] == 0
    assert closed.le(h)
    with pytest.raises(PreconditionViolation, match="f <= g fails"):
        YUrysohnCarrier().urysohn(closed, 1 - closed)  # not disjoint


def test_geo_tail_and_ideal_membership():
    tail = GeoTail([0, 7], q=1, ratio=Fraction(1, 3))
    assert tail.at(1) == 7 and tail.at(2) == 1 and tail.at(4) == Fraction(1, 9)
    assert tail.omega == 0
    m = ideal_membership(tail)
    assert m["in_J_radical"] and not m["in_I_alpha"]
    assert m["cert"]["kind"] == "cofinite_with_omega"

    fin = SeqFunc.from_support({2: 5}, 0, 0)
    m2 = ideal_membership(fin)
    assert m2["in_I_alpha"] and m2["in_J_radical"]
    assert m2["cert"] == {"kind": "finite", "members": (2,)}

    live = SeqFunc.constant(1, with_omega=True)
    m3 = ideal_membership(live)
    assert not m3["in_I_alpha"] and not m3["in_J_radical"]

    with pytest.raises(NotConvergent):
        ideal_membership(SeqFunc.periodic([1, 0], omega=1))
    with pytest.raises(NotConvergent):
        ideal_membership(SeqFunc.constant(1))  # no omega value


def test_local_compact_minorants():
    b = SeqFunc([3, 1, 2], (Fraction(1, 2),), Fraction(1, 2))
    a5 = local_compact_minorants(b, 5)
    assert a5.le(b)
    assert ideal_membership(a5)["in_I_alpha"]
    assert all(a5.at(k) == b.at(k) for k in range(6))
    assert a5.at(6) == 0
    with pytest.raises(NotConvergent):
        local_compact_minorants(SeqFunc.periodic([1, 0], omega=1), 3)


def test_subcover_extract_with_patching():
    eps = Fraction(1)
    star = SeqFunc.from_support({1: -1, 4: 0}, 2, 2)
    patch1 = SeqFunc.from_support({1: 3}, -1, -1)
    patch4 = SeqFunc.from_support({4: 3}, -1, -1)
    cert = subcover_extract(eps, [patch1, star, patch4])
    chosen = cert["subfamily"]
    assert set(chosen) >= {1}
    sub = [[patch1, star, patch4][i] for i in chosen]
    joined = sub[0]
    for t in sub[1:]:
        joined = joined.join(t)
    assert joined.value_bounds()[0] >= 0
    assert cert["join_min"] >= 0


def test_subcover_extract_rejects_bad_cover():
    with pytest.raises(CoverViolation):
        subcover_extract(1, [SeqFunc.constant(Fraction(1, 2), with_omega=True)])
    with pytest.raises(NotConvergent):
        subcover_extract(1, [SeqFunc.periodic([2, 3], omega=2)])


def test_noncompact_family_defeats_all_small_subfamilies():
    member, stream, defeat = noncompact_family(1, Fraction(1, 2))
    assert member(3).at(3) == Fraction(3, 2)
    assert member(3).at(4) == Fraction(-1, 2)
    for combo in itertools.combinations(range(6), 3):
        idx, value = defeat(list(combo))
        assert idx > max(combo)
        assert value == Fraction(-1, 2)
        assert max(member(n).at(idx) for n in combo) == value
    with pytest.raises(EmptyFamily):
        defeat([])


def test_countable_meet_and_join_families():
    f = SeqFunc([2, -1], (0,))
    member, trunc = countable_meet_family(f)
    for n in range(4):
        for m in (1, 3, 9):
            a = member(n, m)
            assert a.is_convergent()
            assert f.le(SeqFunc(a.prefix, a.cycle))
    for k in range(6):
        assert trunc(k, 27) - f.at(k) <= Fraction(1, 27)
        assert trunc(k, 27) >= f.at(k)
    member_j, trunc_j = countable_join_family(f)
    for n in range(4):
        assert SeqFunc(member_j(n, 5).prefix, member_j(n, 5).cycle).le(f)
    for k in range(6):
        assert f.at(k) - trunc_j(k, 27) <= Fraction(1, 27)


def test_lindelof_extract_and_budget():
    _, stream, _ = noncompact_family(1, Fraction(1, 2))
    select, picks = lindelof_extract(1, stream, budget=50)
    for k in range(10):
        idx, g = select(k)
        assert g.at(k) > Fraction(1, 2)
    # a family that never covers an index exhausts its budget there, and a
    # finite family that runs out first reports the same index and budget
    bad = lambda: iter(SeqFunc.constant(0) for _ in range(100))
    for family, k in ((bad, 0), (bad, 7), ([SeqFunc.constant(0)] * 3, 5)):
        select_bad, _ = lindelof_extract(1, family, budget=10)
        with pytest.raises(SearchBudgetExceeded) as exc:
            select_bad(k)
        assert (exc.value.index, exc.value.budget) == (k, 10)


def _restart_select(eps, family, k, budget):
    """Reference selection: rescan the family from its start for index k."""
    for count, g in enumerate(family()):
        if g.at(k) > eps / 2:
            return count, g
        if count + 1 >= budget:
            raise SearchBudgetExceeded(k, budget)
    raise SearchBudgetExceeded(k, budget)


def _outcome(select, k):
    try:
        return select(k)
    except SearchBudgetExceeded as exc:
        return ("exhausted", exc.index, exc.budget)


@pytest.mark.parametrize("eps,delta", [(1, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 12))])
def test_lindelof_extract_matches_restart_oracle(eps, delta):
    member, stream, _ = noncompact_family(eps, delta)
    # out of order, so picks vary in position and budget 8 runs out past index 70
    scrambled = [member(n) for n in sorted(range(250), key=lambda n: (n % 10, n))]
    cases = [(stream, stream, 1000), (scrambled, lambda: iter(scrambled), 8)]
    for family, restart, budget in cases:
        select, _ = lindelof_extract(eps, family, budget=budget)
        oracle = lambda k: _restart_select(Fraction(eps), restart, k, budget)
        for k in list(range(200)) + [150, 3, 0]:
            assert _outcome(select, k) == _outcome(oracle, k)


def test_lindelof_extract_starts_family_once():
    _, stream, _ = noncompact_family(1, Fraction(1, 2))
    starts = []

    def family():
        starts.append(1)
        return stream()

    select, picks = lindelof_extract(1, family, budget=50)
    assert starts == []
    for k in range(30):
        select(k)
    assert [k for k, _, _ in itertools.islice(picks(), 30)] == list(range(30))
    assert starts == [1]


@pytest.mark.parametrize("cond,verdict", [("C", "fails"), ("L", "holds")])
def test_built_in_family_routes_build_no_element(cond, verdict, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"({cond}) built a SeqFunc")

    # (C) defeats and the (L) rule come from the family's closed form
    monkeypatch.setattr(SeqFunc, "__init__", refuse)
    monkeypatch.setattr(SeqFunc, "_new", classmethod(refuse))
    model = conditions.SeqXEndModel()
    report = conditions.check_condition(model, cond, unit_cover(model))
    assert report.verdict == verdict
    if cond == "L":
        assert report.certificate == {}


EPS_DELTA = [(1, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 12)), (Fraction(7, 4), 2)]


@pytest.mark.parametrize("eps,delta", EPS_DELTA)
def test_c_defeats_match_realized_members(eps, delta):
    member, _, _ = noncompact_family(eps, delta)
    for cap in range(1, 7):
        inst = {"epsilon": eps, "delta": delta, "subfamily_cap": cap}
        defeats = conditions.check_condition(conditions.SeqXEndModel(), "C", inst
                                             ).certificate["defeats"]
        assert [d["subfamily"] for d in defeats] == [
            list(c) for size in range(1, cap + 1) for c in itertools.combinations(range(8), size)]
        for d in defeats:
            idx = d["index"]
            assert idx == max(d["subfamily"]) + 1
            assert d["join_value"] == max(member(n).at(idx) for n in d["subfamily"]) < 0


@pytest.mark.parametrize("eps,delta", EPS_DELTA)
def test_l_rule_matches_lindelof_extract(eps, delta):
    """The (L) rule, member k is eps + delta > eps/2 at index k, read from the
    instance alone, is what a search over the realized members picks at each
    index."""
    _, stream, _ = noncompact_family(eps, delta)
    select, _ = lindelof_extract(eps, stream, budget=1000)
    report = conditions.check_condition(conditions.SeqXEndModel(), "L",
                                        {"epsilon": eps, "delta": delta})
    assert report.certificate == {} and eps + delta > Fraction(eps, 2)
    for k in range(200):
        idx, g = select(k)
        assert (idx, g.at(k)) == (k, report.instance["epsilon"] + report.instance["delta"])


def test_closed_forms_are_the_limits_of_truncated_families():
    """Each (T)/(BS)/(S) side's closed form is its endpoint, and the oracle's
    truncated meets (joins) of its family lie above (below) it, within 1/m at
    truncation m, so the countable meet (join) is exactly the closed form."""
    rng, model = random.Random(11), conditions.SeqXEndModel()
    for trial in range(60):
        inst = random_x_pair(rng)
        f, g = inst["f"], inst["g"]
        certs = {cond: conditions.check_condition(model, cond, inst).certificate
                 for cond in ("T", "BS", "S")}
        sides = [(certs["T"]["meet_side"], f, "meet"), (certs["T"]["join_side"], g, "join"),
                 (certs["BS"]["join_side"], f, "join"), (certs["BS"]["meet_side"], g, "meet"),
                 (certs["S"]["meet_side"], f, "meet"), (certs["S"]["join_side"], f, "join")]
        for cert, h, side in sides:
            assert cert == {f"closed_form_{side}": h}
            family = countable_meet_family if side == "meet" else countable_join_family
            _, trunc = family(h)
            sign = 1 if side == "meet" else -1
            for m in (1, 2, 3, 8, 64):
                gaps = [sign * (trunc(k, m) - h.at(k)) for k in probe_points(h)]
                assert 0 <= min(gaps) and max(gaps) <= Fraction(1, m)


def test_countable_routes_build_no_seq_func(monkeypatch):
    built = []
    init = SeqFunc.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SeqFunc, "__init__", counted)
    model = conditions.SeqXEndModel()
    c = conditions.check_condition(model, "C", {**unit_cover(model), "subfamily_cap": 6})
    l_report = conditions.check_condition(model, "L", unit_cover(model))
    assert (c.verdict, len(c.certificate["defeats"])) == ("fails", 246)
    assert (l_report.verdict, l_report.certificate) == ("holds", {})
    assert built == []


def test_restrict_and_with_omega_roundtrip():
    f = SeqFunc([1, 2], (3,), 3)
    assert SeqFunc(f.prefix, f.cycle).omega is None
    assert with_omega(SeqFunc(f.prefix, f.cycle), 3) == f
    with pytest.raises(OmegaMissing):
        SeqFunc.constant(1).value_at(OMEGA)


@st.composite
def json_rationals(draw):
    """A rational as a scenario may write it: an int, or "p" or "p/q" with p/q
    not necessarily in lowest terms."""
    v, scale = draw(rationals), draw(st.integers(1, 4))
    num, den = v.numerator * scale, v.denominator * scale
    if den == 1 and draw(st.booleans()):
        return num
    return str(num) if den == 1 else f"{num}/{den}"


@settings(max_examples=300, deadline=None)
@given(st.lists(json_rationals(), max_size=5), st.lists(json_rationals(), min_size=1, max_size=6),
       st.one_of(st.none(), json_rationals()))
def test_int_first_elements_match_the_fraction_built_ones(prefix, cycle, omega):
    """SeqFunc(prefix, cycle, omega), from JSON values or from Fractions, and
    the scenario reader's element all equal the Fraction-built element: int
    row, shape, denominator and every Fraction view."""
    want = fraction_built_seq(prefix, cycle, omega)
    fractions = [Fraction(v) for v in prefix], [Fraction(v) for v in cycle], \
        None if omega is None else Fraction(omega)
    for elem in (SeqFunc(prefix, cycle, omega), SeqFunc(*fractions),
                 parse_element({"prefix": prefix, "cycle": cycle, "omega": omega})):
        assert (elem._shape, elem._row, elem._den) == (want["_shape"], want["_row"], want["_den"])
        assert (elem.prefix, elem.cycle, elem.omega) == (want["prefix"], want["cycle"],
                                                          want["omega"])
        values = [Fraction(v) for v in prefix + cycle * 3]
        assert [elem.at(k) for k in range(len(values))] == values


@settings(max_examples=200, deadline=None)
@given(seq_funcs(), seq_funcs(with_omega=True))
def test_tail_routes_agree_with_fraction_oracles(f, y):
    lo, hi, limit = limit_data_by_fractions(f)
    assert insert_convergent(f, f) == (
        {"limsup_f": hi, "liminf_g": lo} if limit is None else {"witness": f, "limit": limit})
    assert f.is_convergent() == is_convergent_by_fractions(f)
    assert y.is_convergent() == is_convergent_by_fractions(y)
    assert semicontinuity_on_y(y) == semicontinuity_by_fractions(y)
    if y.is_convergent():
        got, zero = ideal_membership(y), y.omega == 0
        assert got["in_I_alpha"] == got["in_J_radical"] == zero
        assert list(got["cert"]["members"]) == [k for k, v in enumerate(y.prefix)
                                                if (v != 0) == zero]


def test_insertions_agree_with_fraction_oracles():
    rng = random.Random(27)
    for i in range(300):
        pair = random_feasible_x_pair(rng) if i % 2 else random_x_pair(rng)
        result = insert_convergent(pair["f"], pair["g"])
        limit, want = insert_convergent_by_fractions(pair["f"], pair["g"])
        if limit is None:
            assert result == dict(zip(("limsup_f", "liminf_g"), want))
        else:
            assert result == {"witness": want, "limit": limit}
        pair = random_usc_lsc_pair(rng)
        limit, want = insert_on_y_by_fractions(pair["f"], pair["g"])
        assert insert_on_y(pair["f"], pair["g"]) == {"witness": want, "limit": limit}


def test_subcover_extract_agrees_with_the_fraction_oracle():
    rng = random.Random(27)
    checked = 0
    while checked < 200:
        family = []
        for _ in range(rng.randint(1, 4)):
            limit = rand_rational(rng, -1, 2)
            family.append(SeqFunc([rand_rational(rng, -1, 2) for _ in range(rng.randint(0, 5))],
                                  (limit,), limit))
        lo = finite_join_pairwise(family).value_bounds()[0]
        if lo <= 0:
            continue
        for eps in (lo, lo / 2):
            chosen, join_min = subcover_by_fractions(eps, family)
            assert subcover_extract(eps, family) == {
                "subfamily": chosen, "join_min": join_min,
                "join_omega": max(family[i].omega for i in chosen)}
        checked += 1
