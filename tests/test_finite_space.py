"""Finite topologies: enumeration, envelopes, separation, insertion, blocks."""

import itertools
import random
from fractions import Fraction

import pytest

from normlab.errors import BoundExceeded, PreconditionViolation
from normlab.finite_space import (
    FiniteFunc,
    FiniteSpace,
    Infeasible,
    NotSeparable,
    block_indicators,
    enumerate_preorders,
    enumerate_spaces,
    envelopes,
    indicator,
    insert_finite,
    is_lsc,
    is_normal,
    is_usc,
    separate,
)
from normlab.insertion_engine import FiniteUrysohnCarrier, urysohn_join_stream
from normlab.replay import MalformedPayload, _Reader, verify_report
from normlab.serialize import _space, to_jsonable
from oracles import (enumerate_spaces_bruteforce, is_closed_by_closures, is_normal_closed_pairs,
                     is_topology, space_from_opens, up_sets_scan)

# opens {}, {0}, {0, 1}: the point 0 is open, and 1 lies in its closure
SIERPINSKI = FiniteSpace(2, [0b01, 0b11])

# opens {}, {0}, {0, 1}, {0, 2}, {0, 1, 2}: closed points 1, 2 share the open point 0
NON_NORMAL = FiniteSpace(3, [0b001, 0b011, 0b101])


def test_space_validation():
    with pytest.raises(PreconditionViolation):
        space_from_opens(2, [0b00, 0b01])  # missing full set
    with pytest.raises(PreconditionViolation):
        space_from_opens(3, [0b000, 0b001, 0b010, 0b111])  # no union
    with pytest.raises(PreconditionViolation, match="outside the space"):
        space_from_opens(2, [0, 1, 3, 4])
    assert space_from_opens(2, [0b00, 0b01, 0b11]) == SIERPINSKI
    assert space_from_opens(3, [0b000, 0b001, 0b011, 0b101, 0b111]) == NON_NORMAL


@pytest.mark.parametrize("n, up", [
    (2, [0, 0]),  # not reflexive
    (3, [0b011, 0b110, 0b100]),  # not transitive: 0 <= 1 <= 2 but not 0 <= 2
    (2, [0b101, 0b10]),  # a point outside the space
    (2, [0b01]),  # one row for two points
])
def test_from_preorder_rejects_non_preorders(n, up):
    with pytest.raises(PreconditionViolation, match="preorder"):
        FiniteSpace.from_preorder(n, up)


def test_topology_counts():
    assert sum(1 for _ in enumerate_spaces(1)) == 1
    assert sum(1 for _ in enumerate_spaces(2)) == 4
    assert sum(1 for _ in enumerate_spaces(3)) == 29
    assert sum(1 for _ in enumerate_spaces(4)) == 355


def test_enumeration_matches_bruteforce_oracle():
    for n in (1, 2, 3):
        fast = {s.opens for s in enumerate_spaces(n)}
        slow = {s.opens for s in enumerate_spaces_bruteforce(n)}
        assert fast == slow


def test_opens_are_the_up_sets_of_the_preorder():
    for n in range(1, 5):
        for up in enumerate_preorders(n):
            space = FiniteSpace(n, up)
            assert space.opens == up_sets_scan(n, up)
            assert space_from_opens(n, space.opens) == space


def test_from_opens_accepts_exactly_the_topologies():
    """The test oracle's open-set reading accepts exactly the topologies."""
    for n in (1, 2, 3):
        for pick in range(1 << (1 << n)):
            fam = [m for m in range(1 << n) if pick >> m & 1]
            try:
                space_from_opens(n, fam)
                accepted = True
            except PreconditionViolation:
                accepted = False
            assert accepted == is_topology(n, fam), fam


def _accepts(read, *args) -> bool:
    try:
        read(*args)
    except (PreconditionViolation, ValueError):
        return False
    return True


def test_preorder_readers_accept_the_same_row_tuples():
    """``FiniteSpace(n, up)``, the scenario reader and replay's reader accept
    exactly the same up rows, over every tuple of n masks of n points."""
    for n in (1, 2, 3):
        accepted = 0
        for up in itertools.product(range(1 << n), repeat=n):
            rows = [[y for y in range(n) if m >> y & 1] for m in up]
            space = {"points": n, "up": rows}
            library = _accepts(FiniteSpace, n, up)
            assert _accepts(_space, space, "/space") == library, up
            assert _accepts(_Reader().up, {"space": space, "values": [0] * n}) == library, up
            accepted += library
        assert accepted == (1, 4, 29)[n - 1]


def test_scenario_reader_reads_back_every_written_space():
    """Every space up to 5 points reads back ``==`` from its written form."""
    count = 0
    for n in range(1, 6):
        for space in enumerate_spaces(n):
            assert _space(to_jsonable(space), "/space") == space
            count += 1
    assert count == 7331


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_spaces(6))


def test_preorders_are_reflexive_transitive():
    for rows in enumerate_preorders(3):
        for i in range(3):
            assert rows[i] & (1 << i)
            for j in range(3):
                if rows[i] & (1 << j):
                    assert rows[j] | rows[i] == rows[i]


def test_envelopes_on_sierpinski():
    # point 1's only neighborhood is the whole space
    f = FiniteFunc(SIERPINSKI, [2, 0])
    upper, lower = envelopes(SIERPINSKI, f)
    assert upper.values == (Fraction(2), Fraction(2))
    assert lower.values == (Fraction(2), Fraction(0))
    assert is_usc(SIERPINSKI, upper)
    assert is_lsc(SIERPINSKI, lower)
    assert not is_usc(SIERPINSKI, f) or not is_lsc(SIERPINSKI, f)


def test_envelope_idempotent_and_ordered():
    rng = random.Random(7)
    for space in enumerate_spaces(3):
        f = FiniteFunc(space, [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                               for _ in range(3)])
        upper, lower = envelopes(space, f)
        assert lower.le(f) and f.le(upper)
        u2, _ = envelopes(space, upper)
        _, l2 = envelopes(space, lower)
        assert u2.eq_pointwise(upper)
        assert l2.eq_pointwise(lower)


def test_normality_and_separation():
    ok, _ = is_normal(FiniteSpace.discrete(3))
    assert ok
    ok, witness = is_normal(NON_NORMAL)
    assert not ok
    assert isinstance(witness, NotSeparable)
    res = separate(NON_NORMAL, witness.c, witness.d)
    assert isinstance(res, NotSeparable)


def test_pair_test_agrees_with_closed_pair_loop():
    for n in range(1, 6):
        for space in enumerate_spaces(n):
            ok, witness = is_normal(space)
            assert ok == is_normal_closed_pairs(space)[0]
            if not ok:
                assert is_closed_by_closures(space, witness.c)
                assert is_closed_by_closures(space, witness.d)
                assert not witness.c & witness.d
                assert isinstance(separate(space, witness.c, witness.d), NotSeparable)


def test_urysohn_witness_and_refusal():
    space = FiniteSpace.discrete(3)
    h = FiniteUrysohnCarrier(space).urysohn(indicator(space, {2}), indicator(space, {1, 2}))
    assert h.values == (Fraction(0), Fraction(0), Fraction(1))
    # an empty closed set inside the open point of the Sierpinski space
    h = FiniteUrysohnCarrier(SIERPINSKI).urysohn(indicator(SIERPINSKI, ()),
                                                 indicator(SIERPINSKI, {0}))
    assert h.values == (Fraction(0), Fraction(0))
    connected = FiniteSpace(2, [0b11, 0b11])  # indiscrete
    with pytest.raises(PreconditionViolation, match="f is not upper semicontinuous"):
        # {1} is not closed here
        FiniteUrysohnCarrier(connected).urysohn(indicator(connected, {1}),
                                                indicator(connected, {0, 1}))


def test_urysohn_inseparable_component():
    # closed singletons {1}, {2} share the component of the non-normal space
    closed, open_ = indicator(NON_NORMAL, {2}), indicator(NON_NORMAL, {0, 2})
    with pytest.raises(PreconditionViolation,
                       match="level sets not separable on component 0b111"):
        FiniteUrysohnCarrier(NON_NORMAL).urysohn(closed, open_)
    # the join stream meets the same pair as its first level pair
    with pytest.raises(PreconditionViolation,
                       match=r"urysohn oracle failed on pair \(r=0, s=1\): level sets"):
        urysohn_join_stream(FiniteUrysohnCarrier(NON_NORMAL), closed, open_, 2)


def test_insert_finite_feasible_and_not():
    space = FiniteSpace.discrete(2)
    f = FiniteFunc(space, [0, 2])
    g = FiniteFunc(space, [1, 3])
    h = insert_finite(space, f, g)
    assert f.le(h) and h.le(g)
    # on the indiscrete space everything is one component
    ind = FiniteSpace(2, [0b11, 0b11])  # indiscrete
    f2 = FiniteFunc(ind, [0, 0])
    g2 = FiniteFunc(ind, [1, 1])
    h2 = insert_finite(ind, f2, g2)
    assert isinstance(h2, FiniteFunc)
    sier = SIERPINSKI
    fs = FiniteFunc(sier, [1, 1])
    gs = FiniteFunc(sier, [1, 1])
    assert isinstance(insert_finite(sier, fs, gs), FiniteFunc)


def test_insert_finite_infeasible_component():
    # usc f <= lsc g on the non-normal space, yet max f > min g on the
    # single component, so no continuous function fits between
    f = FiniteFunc(NON_NORMAL, [0, 1, 0])
    g = FiniteFunc(NON_NORMAL, [1, 1, 0])
    assert is_usc(NON_NORMAL, f) and is_lsc(NON_NORMAL, g) and f.le(g)
    result = insert_finite(NON_NORMAL, f, g)
    assert isinstance(result, Infeasible)
    assert result.max_f == 1 and result.min_g == 0


def test_indicator_masks_and_iterables():
    space = FiniteSpace.discrete(3)
    assert indicator(space, 0b101).values == (Fraction(1), Fraction(0), Fraction(1))
    assert indicator(space, [0, 2]).values == (Fraction(1), Fraction(0), Fraction(1))


@pytest.mark.parametrize("subset", [{5}, {7}, 0b100])
def test_points_outside_the_space_are_refused(subset):
    space = FiniteSpace.discrete(2)
    with pytest.raises(PreconditionViolation, match="outside the 2-point space"):
        indicator(space, subset)


def test_block_indicators_exact_partition():
    rng = random.Random(3)
    space = FiniteSpace.discrete(5)
    gens = [FiniteFunc(space, [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                               for _ in range(5)]) for _ in range(2)]
    indicators, traces = block_indicators(space, gens)
    # a choice names y and its generator; replay reads g(x) and g(y) from it
    assert all(set(ch) == {"y", "g_index"} for t in traces for ch in t["choices"])
    sig = [tuple(g.values[x] for g in gens) for x in range(5)]
    blocks = [sorted(t["block"]) for t in traces]
    covered = sorted(x for b in blocks for x in b)
    assert covered == list(range(5))
    for chi, trace in zip(indicators, traces):
        block = set(trace["block"])
        for x in range(5):
            assert chi.values[x] == (1 if x in block else 0)
    payload = {"generators": to_jsonable(gens), "traces": to_jsonable(traces),
               "indicators": to_jsonable(indicators)}
    assert verify_report({"block_replay": payload})["ok"]


def _block_payload():
    space = FiniteSpace.discrete(4)
    gens = [FiniteFunc(space, [0, 1, 1, 2])]
    indicators, traces = block_indicators(space, gens)
    return {"block_replay": {"generators": to_jsonable(gens),
                             "traces": to_jsonable(traces),
                             "indicators": to_jsonable(indicators)}}


def _drop_trace(p):
    p["traces"].pop()


def _drop_block(p):
    p["traces"].pop()
    p["indicators"].pop()


def _repeat_block(p):
    p["traces"].append(p["traces"][0])
    p["indicators"].append(p["indicators"][0])


@pytest.mark.parametrize("tamper", [_drop_trace, _drop_block, _repeat_block],
                         ids=["drop-trace", "drop-block", "point-in-two-blocks"])
def test_block_replay_tamper(tamper):
    payload = _block_payload()
    assert verify_report(payload)["ok"]
    tamper(payload["block_replay"])
    result = verify_report(payload)
    assert result["verified"] == 1 and not result["ok"]


def _failed_block_rows(gen_values, tamper):
    space = FiniteSpace.discrete(len(gen_values))
    gens = [FiniteFunc(space, gen_values)]
    indicators, traces = block_indicators(space, gens)
    payload = {"generators": to_jsonable(gens), "traces": to_jsonable(traces),
               "indicators": to_jsonable(indicators)}
    assert verify_report({"block_replay": payload})["ok"]
    tamper(payload)
    return [c["check"] for c in verify_report({"block_replay": payload})["checks"]
            if not c["ok"]]


def test_block_replay_requires_zero_off_the_block():
    def drop_y2(p):  # block [0] of [0, 1, 1/2] then replays to [1, 0, 1/2]
        p["traces"][0]["choices"] = [ch for ch in p["traces"][0]["choices"] if ch["y"] != 2]
        p["indicators"][0]["values"] = ["1", "0", "1/2"]

    assert _failed_block_rows([0, 1, Fraction(1, 2)], drop_y2) == [
        "block [0]: trace replays to 0/1 indicator"]


def test_block_replay_choice_that_separates_nothing_fails_its_row():
    def y_in_block(p):  # g(0) = g(1), so the choice divides by zero
        p["traces"][0]["choices"][0]["y"] = 1

    assert _failed_block_rows([0, 0, 1], y_in_block) == [
        "block [0, 1]: trace replays to 0/1 indicator"]


def test_block_indicators_separating_gives_singletons():
    space = FiniteSpace.discrete(4)
    gens = [FiniteFunc(space, [0, 1, 2, 3])]
    indicators, traces = block_indicators(space, gens)
    assert sorted(t["block"] for t in traces) == [[0], [1], [2], [3]]
    for chi in indicators:
        assert set(chi.values) <= {0, 1}
        assert sum(chi.values) == 1


def test_each_lowering_of_a_space_gets_fresh_lists():
    """Two functions on one space lower to equal up rows that share no list,
    so a report that edits its copy leaves every later lowering as it was."""
    space = FiniteSpace.from_preorder(3, [0b011, 0b010, 0b100])
    up = [[0, 1], [1], [2]]  # row x lists the points above x, in increasing order
    first = to_jsonable(FiniteFunc(space, [0, 1, 2]))["space"]
    second = to_jsonable(FiniteFunc(space, [1, 1, 1]))["space"]
    assert first == second == {"points": 3, "up": up}
    assert first["up"] is not second["up"]
    assert all(a is not b for a, b in zip(first["up"], second["up"]))
    first["up"][1].append(2)
    first["up"].append([7])
    assert to_jsonable(FiniteFunc(space, [0, 0, 0]))["space"] == {"points": 3, "up": up}
    assert to_jsonable(space)["up"] == up


@pytest.mark.parametrize("tamper", [
    lambda p: p["traces"][1].update(block=[True, 2]),
    lambda p: p["traces"][1].update(block=[1, 3]),
    lambda p: p["traces"][0]["choices"][0].update(y=-2),
    lambda p: p["traces"][0]["choices"][0].update(g_index=False),
    lambda p: p["traces"][0]["choices"][0].update(g_index=1),
], ids=["block-true", "block-out-of-range", "y-negative", "g_index-false", "g_index-out-of-range"])
def test_block_replay_reads_each_index_as_an_exact_int(tamper):
    """Points and generator indices are exact ints in range: true stands for
    point 1 and -2 for point 1 in Python, and false for generator 0."""
    space = FiniteSpace.discrete(3)
    gens = [FiniteFunc(space, [0, 1, 1])]
    indicators, traces = block_indicators(space, gens)
    payload = {"generators": to_jsonable(gens), "traces": to_jsonable(traces),
               "indicators": to_jsonable(indicators)}
    assert [t["block"] for t in payload["traces"]] == [[0], [1, 2]]
    assert payload["traces"][0]["choices"][0] == {"y": 1, "g_index": 0}
    assert verify_report({"block_replay": payload})["ok"]
    tamper(payload)
    with pytest.raises(MalformedPayload, match=r"^/: malformed block payload "
                                               r"\(ValueError: not distinct indices in range: "):
        verify_report({"block_replay": payload})
