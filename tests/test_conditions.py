"""Condition checkers, model dichotomies, and the
implications between the conditions, checked by converting witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from normlab.conditions import (
    CONDITIONS,
    FAILS,
    HOLDS,
    MAX_SUBFAMILY_CAP,
    FiniteFullModel,
    SeqXEndModel,
    SeqYEndModel,
    check_condition,
)
from normlab.errors import EmptyFamily, ModelCapabilityMissing, PreconditionViolation
from normlab.finite_space import FiniteFunc, FiniteSpace
from normlab.insertion_engine import tong_merge
from normlab.lattice_core import finite_join
from normlab.replay import verify_report
from normlab.seq_model import SeqFunc, ideal_membership
from normlab.serialize import to_jsonable
from oracles import (
    random_feasible_x_pair,
    random_finite_pair,
    random_usc_lsc_pair,
    random_x_pair,
    unit_cover,
)

CHI_EVENS = SeqFunc.periodic([1, 0])
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def covered(model, cond, inst):
    """inst with the keys (D) reads, a gap, or those (C), (L) and (SL) read,
    the unit cover."""
    return gapped(inst) if cond == "D" else {**inst, **unit_cover(model)}


def gapped(inst):
    gap = (inst["g"] - inst["f"]).value_bounds()[0]
    if gap <= 0:
        inst = {**inst, "g": inst["g"] + 1}
        gap = gap + 1
    return {**inst, "epsilon": gap}


def test_unknown_condition_rejected():
    with pytest.raises(PreconditionViolation):
        check_condition(SeqXEndModel(), "Q", {"f": CHI_EVENS, "g": CHI_EVENS})


def test_a_bool_is_no_rational():
    """JSON's true and false are no rationals to the scenario reader, and no
    more to the library: an epsilon or an element value given as a bool is a
    TypeError, not 1 or 0."""
    y = SeqFunc.constant(0, with_omega=True)
    with pytest.raises(TypeError, match="from bool"):
        check_condition(SeqYEndModel(), "D", {"f": y, "g": y + 1, "epsilon": True})
    with pytest.raises(TypeError, match="from bool"):
        SeqFunc([True])
    with pytest.raises(TypeError, match="from bool"):
        FiniteFunc(FiniteSpace.discrete(1), [False])


def test_x_end_n_fails_on_chi_evens():
    report = check_condition(SeqXEndModel(), "N",
                             {"f": CHI_EVENS, "g": CHI_EVENS})
    assert report.verdict == FAILS
    assert report.certificate["limsup_f"] == 1
    assert report.certificate["liminf_g"] == 0


def test_x_end_countable_conditions_hold():
    inst = {"f": CHI_EVENS, "g": CHI_EVENS}
    for cond in ("T", "BS", "S"):
        assert check_condition(SeqXEndModel(), cond, inst).verdict == HOLDS


def test_x_end_sl_decomposes():
    inst = {"f": CHI_EVENS, "g": CHI_EVENS, **unit_cover(SeqXEndModel())}
    report = check_condition(SeqXEndModel(), "SL", inst)
    assert report.verdict == FAILS
    assert report.certificate["L_verdict"] == HOLDS
    assert report.certificate["N_verdict"] == FAILS


def test_c_dichotomy_across_ends():
    assert check_condition(SeqXEndModel(), "C", unit_cover(SeqXEndModel())).verdict == FAILS
    fam = [SeqFunc.constant(2, with_omega=True)]
    report = check_condition(SeqYEndModel(), "C",
                             {"epsilon": Fraction(1), "family": fam})
    assert report.verdict == HOLDS


def test_y_end_everything_holds():
    rng = random.Random(2)
    model = SeqYEndModel()
    for _ in range(10):
        inst = random_usc_lsc_pair(rng)
        for cond in CONDITIONS:
            assert check_condition(model, cond, covered(model, cond, inst)).verdict == HOLDS


def test_finite_full_everything_holds():
    rng = random.Random(3)
    model = FiniteFullModel(FiniteSpace.discrete(3))
    for _ in range(10):
        inst = random_finite_pair(model.space, rng)
        for cond in CONDITIONS:
            assert check_condition(model, cond, covered(model, cond, inst)).verdict == HOLDS


convergent = st.builds(lambda prefix, limit: SeqFunc(prefix, (limit,), limit),
                       st.lists(rationals, max_size=4), rationals)


@given(convergent, convergent)
def test_forgetting_omega_respects_the_operations(a, b):
    """seq_x_end embeds the convergent functions into the sequences on the
    naturals by forgetting the omega value; the other two models embed by the
    identity."""
    def embed(h):
        return SeqFunc(h.prefix, h.cycle)

    ia, ib = embed(a), embed(b)
    assert embed(a + b).eq_pointwise(ia + ib)
    assert embed(a * b).eq_pointwise(ia * ib)
    assert embed(a * Fraction(3, 2)).eq_pointwise(ia * Fraction(3, 2))
    assert embed(a.join(b)).eq_pointwise(ia.join(ib))
    assert embed(a.meet(b)).eq_pointwise(ia.meet(ib))
    assert embed(a.const_like(1)).eq_pointwise(ia.const_like(1))


ONE_POINT = FiniteSpace.discrete(1)
# each model's factory, and a constant element on its carrier
MODEL_FUNCS = {
    "finite_full": (lambda: FiniteFullModel(ONE_POINT), lambda v: FiniteFunc(ONE_POINT, [v])),
    "seq_x_end": (SeqXEndModel, SeqFunc.constant),
    "seq_y_end": (SeqYEndModel, lambda v: SeqFunc.constant(v, with_omega=True)),
}


@pytest.mark.parametrize("model", sorted(MODEL_FUNCS))
@pytest.mark.parametrize("cond", ["T", "BS", "S", "N", "D", "SL"])
def test_pair_out_of_order_names_key_g(model, cond):
    make, elem = MODEL_FUNCS[model]
    with pytest.raises(PreconditionViolation, match="f <= g fails at point 0") as exc:
        check_condition(make(), cond, {"f": elem(1), "g": elem(0), **unit_cover(make())})
    assert exc.value.key == "g"


@pytest.mark.parametrize("model", sorted(MODEL_FUNCS))
@pytest.mark.parametrize("epsilon", [0, -1])
def test_d_rejects_nonpositive_epsilon(model, epsilon):
    make, elem = MODEL_FUNCS[model]
    with pytest.raises(PreconditionViolation, match="epsilon must be positive") as exc:
        check_condition(make(), "D", {"f": elem(0), "g": elem(1), "epsilon": epsilon})
    assert exc.value.key == "epsilon"


def test_x_end_rejects_omega_instances():
    f = SeqFunc.constant(1, with_omega=True)
    with pytest.raises(PreconditionViolation):
        check_condition(SeqXEndModel(), "N", {"f": f, "g": f})


def test_finite_cover_rejects_empty_family():
    model = FiniteFullModel(FiniteSpace.discrete(2))
    with pytest.raises(EmptyFamily):
        check_condition(model, "C", {"epsilon": 1, "family": []})


@pytest.mark.parametrize("cap", [0, -1, MAX_SUBFAMILY_CAP + 1])
def test_x_end_cover_rejects_subfamily_cap_out_of_range(cap):
    with pytest.raises(PreconditionViolation, match="subfamily_cap"):
        check_condition(SeqXEndModel(), "C", {**unit_cover(SeqXEndModel()), "subfamily_cap": cap})


def test_missing_capability():
    class Bare(FiniteFullModel):
        cond_t = None

    model = Bare(FiniteSpace.discrete(2))
    with pytest.raises(ModelCapabilityMissing):
        check_condition(model, "T", random_finite_pair(model.space, random.Random(0)))


# -- implications between the conditions -------------------------------------

HARNESS_DEPTH = 12


def harness_cases():
    """(model, eight instances) per model, drawn in turn from one seed."""
    rng = random.Random(6)
    mx, my = SeqXEndModel(), SeqYEndModel()
    mf = FiniteFullModel(FiniteSpace.discrete(3))
    return [(model, [gen() for _ in range(8)])
            for model, gen in ((mx, lambda: random_feasible_x_pair(rng)),
                               (my, lambda: random_usc_lsc_pair(rng)),
                               (mf, lambda: random_finite_pair(mf.space, rng)))]


def merge_gives_s(f, g, depth):
    """Merge the families f + 1/m down and g - 1/m up (g lifted to a 2/depth gap);
    the merged element lies between the last members of both."""
    if (g - f).value_bounds()[0] < Fraction(2, depth):
        g = g + Fraction(2, depth)
    a_seq = [f + Fraction(1, m) for m in range(1, depth + 1)]
    b_seq = [g - Fraction(1, m) for m in range(1, depth + 1)]
    trace = tong_merge(a_seq, b_seq)
    u = trace.result
    return trace.a_norm[-1].le(u) and u.le(trace.b_norm[-1])


def test_t_gives_s_via_merge():
    for model, instances in harness_cases():
        tested = [inst for inst in instances
                  if check_condition(model, "T", inst).verdict == HOLDS]
        assert tested, model.name
        for inst in tested:
            assert merge_gives_s(inst["f"], inst["g"], HARNESS_DEPTH), model.name


def test_bs_gives_t():
    for model, instances in harness_cases():
        tested = [inst for inst in instances
                  if check_condition(model, "BS", inst).verdict == HOLDS]
        assert tested, model.name
        for inst in tested:
            assert check_condition(model, "T", inst).verdict == HOLDS


def test_c_matches_compactness_of_the_unit():
    """(C) on seq_x_end holds iff the unit lies in the compact-support ideal;
    the other two carriers are compact."""
    unit_compact = ideal_membership(SeqFunc.constant(1, with_omega=True))["in_I_alpha"]
    assert check_condition(SeqXEndModel(), "C", unit_cover(SeqXEndModel())).verdict == (
        HOLDS if unit_compact else FAILS)
    for model in (SeqYEndModel(), FiniteFullModel(FiniteSpace.discrete(3))):
        assert check_condition(model, "C", unit_cover(model)).verdict == HOLDS


def test_eps_removal_on_seq_y_end():
    """The (C) subfamily of a cover at level 1/2, each member lifted by 1/4,
    joins to at least 1/4."""
    eps, shift = Fraction(1, 2), Fraction(1, 4)
    family = [SeqFunc.from_support({0: 1}, 0, 0) + eps, SeqFunc.from_support({0: 0}, 1, 1)]
    chosen = check_condition(SeqYEndModel(), "C", {"epsilon": eps, "family": family}
                             ).certificate["subfamily"]
    assert finite_join([family[i] + shift for i in chosen]).value_bounds()[0] >= shift


def test_reports_replay_through_independent_verifier():
    rng = random.Random(7)
    space = FiniteSpace.discrete(3)
    models = [(SeqXEndModel(), random_x_pair), (SeqYEndModel(), random_usc_lsc_pair),
              (FiniteFullModel(space), lambda rng: random_finite_pair(space, rng))]
    for model, gen in models:
        for cond in CONDITIONS:
            report = check_condition(model, cond, covered(model, cond, gen(rng)))
            result = verify_report(to_jsonable(report))
            assert result["ok"], (model.name, cond, result["checks"])


@pytest.mark.parametrize("inst", [
    {"epsilon": 1, "delta": Fraction(1, 2)},  # (L): an int epsilon
    {"epsilon": 1, "delta": "1/2", "subfamily_cap": 4},  # (C): a string delta
    {"epsilon": 1, "delta": Fraction(1, 2), "subfamily_cap": Fraction(4)},
    {"epsilon": 1, "delta": Fraction(1, 2), "subfamily_cap": True},
], ids=["L-int-epsilon", "C-str-delta", "C-fraction-cap", "C-bool-cap"])
def test_api_reports_replay_or_are_refused(inst):
    """A report check_condition writes replays: it records each epsilon and
    delta as the Fraction its route read, and (C) refuses a cap that is not
    an int, a bool included, keyed subfamily_cap."""
    cond = "C" if "subfamily_cap" in inst else "L"
    if type(inst.get("subfamily_cap", 4)) is not int:
        with pytest.raises(PreconditionViolation, match="subfamily_cap must be an int") as exc:
            check_condition(SeqXEndModel(), cond, inst)
        assert exc.value.key == "subfamily_cap"
        return
    report = check_condition(SeqXEndModel(), cond, inst)
    assert [type(report.instance[key]) for key in ("epsilon", "delta")] == [Fraction] * 2
    assert verify_report(to_jsonable(report))["ok"]
