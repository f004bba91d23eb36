"""End-to-end acceptance criteria, one pass/fail line per criterion.

Criteria 1-10 exercise the library at scale and record every certificate
they emit; criterion 11 replays the whole pool through the independent
verifier.  The pool fixture runs any criterion whose certificates are not
recorded yet, so criterion 11 also passes when run alone or first.  Run with
``pytest -s`` to see the lines live.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import reduce

import pytest

from normlab.conditions import (
    FAILS,
    HOLDS,
    SeqXEndModel,
    SeqYEndModel,
    check_condition,
)
from normlab.finite_space import (
    FiniteFunc,
    FiniteSpace,
    block_indicators,
)
from normlab.insertion_engine import YUrysohnCarrier, dieudonne_iterate, midpoint_oracle, tong_merge
from normlab.replay import verify_report
from normlab.seq_model import (
    GeoTail,
    SeqFunc,
    brute_force_insertable,
    ideal_membership,
    insert_convergent,
    insert_on_y,
    local_compact_minorants,
    semicontinuity_on_y,
    subcover_extract,
    threshold_indicator,
)
from normlab.serialize import to_jsonable
from oracles import (
    noncompact_family,
    rand_rational,
    random_feasible_x_pair,
    random_finite_func,
    random_seq_func,
    random_usc_lsc_pair,
    refute,
    unit_cover,
)

BODIES: dict = {}  # criterion number -> body taking an ``emit`` callback


@pytest.fixture(scope="module")
def emitted() -> dict:
    """Certificates recorded per criterion by the tests of this module."""
    return {}


def run_body(num, emitted) -> None:
    payloads: list = []
    BODIES[num](payloads.append)
    emitted[num] = payloads


def timed(num, label, budget, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"\n[PASS] criterion {num}: {label} ({elapsed:.2f}s)")


def criterion(num, label, budget=None):
    """Register a criterion body and turn it into a test recording its certificates."""
    def deco(fn):
        BODIES[num] = fn

        def run(emitted):
            timed(num, label, budget, lambda: run_body(num, emitted))
        return run
    return deco


def random_space(rng: random.Random, n: int) -> FiniteSpace:
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                up[i] |= 1 << j
    for k in range(n):  # transitive closure
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return FiniteSpace.from_preorder(n, up)


@criterion(1, "merge valid on 200 random finite instances", budget=5.0)
def test_criterion_1_merge_at_scale(emit):
    rng = random.Random(101)
    for _ in range(200):
        space = random_space(rng, rng.randint(1, 6))
        a_seq = [random_finite_func(space, rng, max_den=16)
                 for _ in range(rng.randint(1, 8))]
        b_seq = [random_finite_func(space, rng, max_den=16)
                 for _ in range(rng.randint(1, 8))]
        meet_a = reduce(lambda x, y: x.meet(y), a_seq)
        join_b = reduce(lambda x, y: x.join(y), b_seq)
        deficit = max(ma - jb for ma, jb in zip(meet_a.values, join_b.values))
        if deficit > 0:
            b_seq = [f + deficit for f in b_seq]
        trace = tong_merge(a_seq, b_seq)
        assert verify_report(to_jsonable(trace))["ok"]
        assert trace.a_norm[-1].le(trace.result)
        assert trace.result.le(trace.b_norm[-1])
        emit(to_jsonable(trace))


@criterion(2, "iterative refinement rate on 50 feasible pairs", budget=10.0)
def test_criterion_2_iteration_rate(emit):
    rng = random.Random(202)
    for _ in range(50):
        inst = random_feasible_x_pair(rng)
        f, g = inst["f"], inst["g"]
        trace = dieudonne_iterate(midpoint_oracle, f, g, 20)
        for n, a in enumerate(trace.a_seq, start=1):
            assert (f - Fraction(1, 2 ** n)).le(a) and a.le(g)
        assert (trace.a_seq[19] - trace.a_seq[9]).norm() <= Fraction(1, 512)
        emit(to_jsonable(trace))


@criterion(3, "alternating indicator refutes convergent insertion", budget=1.0)
def test_criterion_3_infeasible_pair(emit):
    f = SeqFunc.periodic([1, 0])
    assert insert_convergent(f, f) == {"limsup_f": 1, "liminf_g": 0}
    assert brute_force_insertable(f, f) is None
    for value in (Fraction(0), Fraction(1, 2), Fraction(1)):
        cand = SeqFunc.constant(value)
        k = refute(f, f, cand)
        assert not f.at(k) <= cand.at(k) <= f.at(k)
    # the (N) report carries the same limsup/liminf claim to replay
    report = check_condition(SeqXEndModel(), "N", {"f": f, "g": f})
    assert report.verdict == FAILS
    emit(to_jsonable(report))


@criterion(4, "subcover patching on 100 covers; every small subfamily defeated", budget=5.0)
def test_criterion_4_compactness_machinery(emit):
    rng = random.Random(404)
    for trial in range(100):
        bad = sorted(rng.sample(range(8), rng.randint(0, 4)))
        star = SeqFunc.from_support({k: 0 for k in bad}, 1, 1)
        patches = [SeqFunc.from_support({k: 2}, 0, 0) for k in bad]
        junk = [SeqFunc.from_support({rng.randrange(8): rand_rational(rng, 0, 2)}, 0, 0)
                for _ in range(rng.randint(0, 2))]
        family = [star] + patches + junk
        rng.shuffle(family)
        chosen = subcover_extract(1, family)["subfamily"]
        for k in range(10):
            assert max(family[i].at(k) for i in chosen) > 0
        assert max(family[i].omega for i in chosen) > Fraction(1, 2)
        if trial % 10 == 0:
            report = check_condition(SeqYEndModel(), "C",
                                     {"epsilon": Fraction(1), "family": family})
            assert report.verdict == HOLDS
            emit(to_jsonable(report))
    member, _, defeat = noncompact_family(1, Fraction(1, 2))
    for size in range(1, 7):
        for sub in itertools.combinations(range(8), size):
            idx, val = defeat(sub)
            assert idx > max(sub) and val < 0
            assert val == max(member(n).at(idx) for n in sub)
    report = check_condition(SeqXEndModel(), "C", unit_cover(SeqXEndModel()))
    assert report.verdict == FAILS
    emit(to_jsonable(report))
    one = SeqFunc.constant(1, with_omega=True)
    mem = ideal_membership(one)
    assert mem["in_I_alpha"] is False
    emit({"ideal_membership": {"element": to_jsonable(one), **to_jsonable(mem)}})


@criterion(5, "insertion decision agrees with brute-force oracle on 500 pairs", budget=10.0)
def test_criterion_5_oracle_agreement(emit):
    rng = random.Random(505)
    disagreements = 0
    for trial in range(500):
        f = random_seq_func(rng)
        g = f.join(random_seq_func(rng))
        fast = insert_convergent(f, g)
        brute = brute_force_insertable(f, g)
        if ("witness" in fast) != (brute is not None):
            disagreements += 1
            continue
        if "witness" in fast:
            w = fast["witness"]
            assert f.le(w) and w.le(g)
            assert w.is_convergent()
        if trial % 50 == 0:
            emit(to_jsonable(check_condition(SeqXEndModel(), "N",
                                             {"f": f, "g": g})))
    assert disagreements == 0


@criterion(6, "compact-support ideal laws on 200 elements", budget=5.0)
def test_criterion_6_ideal_laws(emit):
    rng = random.Random(606)

    def finite_support(rng):
        keys = rng.sample(range(10), rng.randint(0, 5))
        return SeqFunc.from_support({k: rand_rational(rng) for k in keys}, 0, 0)

    for trial in range(200):
        a, b = finite_support(rng), finite_support(rng)
        assert ideal_membership(a + b)["in_I_alpha"]
        assert ideal_membership(a.join(b))["in_I_alpha"]
        scale = Fraction(rng.randint(-4, 4), 4)
        dominated = b * scale  # |dominated| <= |b|
        assert ideal_membership(dominated)["in_I_alpha"]
        outside = b + rand_rational(rng, 1, 3)
        mem_out = ideal_membership(outside)
        assert not mem_out["in_I_alpha"]
        for elem, mem in ((a, ideal_membership(a)), (outside, mem_out)):
            assert mem["in_I_alpha"] == (mem["cert"]["kind"] == "finite")
            # the certificate names a closed set that holds the cozero set
            closure = cert_indicator(mem["cert"])
            assert semicontinuity_on_y(closure)["usc"]
            assert threshold_indicator(elem.join(-elem), 0, strict=True).le(closure)
            if trial % 20 == 0:
                emit({"ideal_membership": {"element": to_jsonable(elem),
                                           **to_jsonable(mem)}})
        tail = GeoTail([rand_rational(rng) for _ in range(rng.randint(0, 3))],
                       q=rng.choice([0, 1, Fraction(1, 3)]))
        mem_t = ideal_membership(tail)
        assert mem_t["in_J_radical"] is True
        assert mem_t["in_I_alpha"] == (tail.q == 0)


def cert_indicator(cert):
    """The 0/1 indicator of an ideal certificate's set: its finite members, or
    every point but its excluded members when it contains omega."""
    inside = 1 if cert["kind"] == "finite" else 0
    return SeqFunc.from_support({k: inside for k in cert["members"]}, 1 - inside, 1 - inside)


@criterion(7, "truncation minorants, common zero set, radical maximality", budget=5.0)
def test_criterion_7_local_compactness_and_radical(emit):
    rng = random.Random(707)
    for trial in range(100):
        limit = rand_rational(rng, 0, 3)
        prefix = [rand_rational(rng, 0, 3) for _ in range(rng.randint(0, 6))]
        b = SeqFunc(prefix, [limit], limit)
        for depth in range(0, 9):
            a = local_compact_minorants(b, depth)
            mem = ideal_membership(a)
            assert mem["in_I_alpha"]
            assert a.le(b)
            for k in range(depth + 1):
                assert a.at(k) == b.at(k)
            assert a.at(depth + 1 + len(prefix)) == 0
            if trial % 20 == 0 and depth == 4:
                emit({"ideal_membership": {"element": to_jsonable(a),
                                           **to_jsonable(mem)}})
    # no natural is a common zero of the ideal, and everything vanishes at omega
    for k in range(10):
        chi = SeqFunc.from_support({k: 1}, 0, 0)
        assert ideal_membership(chi)["in_I_alpha"] and chi.at(k) == 1
        assert chi.omega == 0
    # any element outside the radical is invertible modulo it, so the
    # radical is a maximal ideal
    for _ in range(30):
        f = SeqFunc([rand_rational(rng) for _ in range(rng.randint(0, 4))],
                    [0], 0) + rand_rational(rng, 1, 3)
        assert f.omega != 0
        residue = f * (Fraction(1) / f.omega) - 1
        assert ideal_membership(residue)["in_J_radical"]


@criterion(8, "block indicators replay exactly on 100 generator sets", budget=10.0)
def test_criterion_8_block_indicators(emit):
    rng = random.Random(808)
    for trial in range(100):
        n = rng.randint(1, 6)
        space = random_space(rng, n)
        gens = [random_finite_func(space, rng, lo=-1, hi=1, max_den=2)
                for _ in range(rng.randint(1, 3))]
        indicators, traces = block_indicators(space, gens)
        sig = [tuple(g.values[x] for g in gens) for x in range(n)]
        covered = sorted(x for t in traces for x in t["block"])
        assert covered == list(range(n))
        for chi, trace in zip(indicators, traces):
            block = set(trace["block"])
            assert len({sig[x] for x in block}) == 1
            for x in range(n):
                assert chi.values[x] == (1 if x in block else 0)
        payload = {"block_replay": {"generators": to_jsonable(gens),
                                    "traces": to_jsonable(traces),
                                    "indicators": to_jsonable(indicators)}}
        assert verify_report(payload)["ok"]
        if trial % 10 == 0:
            emit(payload)
    # separating generators cut the space into singletons
    space = FiniteSpace.discrete(5)
    _, traces = block_indicators(space, [FiniteFunc(space, list(range(5)))])
    assert sorted(t["block"] for t in traces) == [[x] for x in range(5)]


@criterion(9, "compact-carrier insertion and open threshold separation", budget=10.0)
def test_criterion_9_compact_carrier(emit):
    rng = random.Random(909)
    for trial in range(200):
        inst = random_usc_lsc_pair(rng)
        f, g = inst["f"], inst["g"]
        w = insert_on_y(f, g)["witness"]
        assert f.le(w) and w.le(g)
        assert w.is_convergent()
        if trial % 20 == 0:
            report = check_condition(SeqYEndModel(), "N", {"f": f, "g": g})
            assert report.verdict == HOLDS
            emit(to_jsonable(report))
    # disjoint closed sets get disjoint open threshold neighbourhoods
    for _ in range(50):
        c_members = rng.sample(range(8), rng.randint(0, 4))
        c_ind = SeqFunc.from_support({k: 1 for k in c_members}, 0, 0)
        excluded = set(c_members) | set(rng.sample(range(12), rng.randint(0, 4)))
        d_ind = SeqFunc.from_support({k: 0 for k in excluded}, 1, 1)
        h = YUrysohnCarrier().urysohn(d_ind, 1 - c_ind)
        u = threshold_indicator(h, Fraction(2, 3), strict=True)
        v = 1 - threshold_indicator(h, Fraction(1, 3))
        assert d_ind.le(u) and c_ind.le(v)
        assert u.meet(v).value_bounds()[1] == 0
        assert semicontinuity_on_y(u)["lsc"] or u.omega == 0
        assert semicontinuity_on_y(v)["lsc"] or v.omega == 0


@criterion(10, "survey of all topologies up to 4 points", budget=60.0)
def test_criterion_10_survey(emit):
    from normlab.cli import survey_rows

    rows = survey_rows(4)
    assert len(rows) == 1 + 4 + 29 + 355
    forward_counterexamples = [r for r in rows
                               if r["insertion_always_feasible"] and not r["normal"]]
    assert forward_counterexamples == []
    # and the converse: every normal space up to 4 points admits every insertion
    assert [r for r in rows if r["normal"] != r["insertion_always_feasible"]] == []


@pytest.fixture
def cert_pool(emitted) -> list:
    """Every certificate of criteria 1-10, running those not yet run."""
    for num in sorted(BODIES):
        if num not in emitted:
            run_body(num, emitted)
    return [p for num in sorted(emitted) for p in emitted[num]]


def test_criterion_11_replay_everything(cert_pool):
    def replay_pool():
        assert len(cert_pool) >= 280
        result = verify_report(cert_pool)
        assert result["verified"] == len(cert_pool)
        bad = [c for c in result["checks"] if not c["ok"]]
        assert result["ok"], bad

    timed(11, "every emitted certificate replays through the independent verifier",
          None, replay_pool)
