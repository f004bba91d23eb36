"""Condition checkers, model dichotomies, depth monotonicity, harness."""

import random
from fractions import Fraction

import pytest

from normlab.conditions import (
    CONDITIONS,
    FAILS,
    HOLDS,
    MAX_SUBFAMILY_CAP,
    UNKNOWN,
    FiniteFullModel,
    SeqXEndModel,
    SeqYEndModel,
    check_condition,
    equivalence_harness,
    random_finite_func,
    random_usc_lsc_pair,
)
from normlab.errors import EmptyFamily, ModelCapabilityMissing, PreconditionViolation
from normlab.finite_space import FiniteFunc, FiniteSpace
from normlab.replay import verify_report
from normlab.seq_model import SeqFunc
from normlab.serialize import to_jsonable
from oracles import random_feasible_x_pair

CHI_EVENS = SeqFunc.periodic([1, 0])


def gapped(inst):
    gap = (inst["g"] - inst["f"]).value_bounds()[0]
    if gap <= 0:
        inst = {**inst, "g": inst["g"] + 1}
        gap = gap + 1
    return {**inst, "epsilon": gap}


def test_unknown_condition_rejected():
    with pytest.raises(PreconditionViolation):
        check_condition(SeqXEndModel(), "Q", {"f": CHI_EVENS, "g": CHI_EVENS})


def test_x_end_n_fails_on_chi_evens():
    report = check_condition(SeqXEndModel(), "N",
                             {"f": CHI_EVENS, "g": CHI_EVENS}, 64)
    assert report.verdict == FAILS
    assert report.certificate["limsup_f"] == 1
    assert report.certificate["liminf_g"] == 0


def test_x_end_countable_conditions_hold():
    inst = {"f": CHI_EVENS, "g": CHI_EVENS}
    for cond in ("T", "BS", "S"):
        assert check_condition(SeqXEndModel(), cond, inst, 16).verdict == HOLDS


def test_x_end_sl_decomposes():
    inst = {"f": CHI_EVENS, "g": CHI_EVENS}
    report = check_condition(SeqXEndModel(), "SL", inst, 16)
    assert report.verdict == FAILS
    assert report.certificate["L_verdict"] == HOLDS
    assert report.certificate["N_verdict"] == FAILS


def test_c_dichotomy_across_ends():
    assert check_condition(SeqXEndModel(), "C", {}, 8).verdict == FAILS
    fam = [SeqFunc.constant(2, with_omega=True)]
    report = check_condition(SeqYEndModel(), "C",
                             {"epsilon": Fraction(1), "family": fam}, 8)
    assert report.verdict == HOLDS


def test_y_end_everything_holds():
    rng = random.Random(2)
    model = SeqYEndModel()
    for _ in range(10):
        inst = model.random_instance(rng)
        for cond in CONDITIONS:
            use = gapped(inst) if cond == "D" else inst
            assert check_condition(model, cond, use, 8).verdict == HOLDS


def test_finite_full_everything_holds():
    rng = random.Random(3)
    model = FiniteFullModel(FiniteSpace.discrete(3))
    for _ in range(10):
        inst = model.random_instance(rng)
        for cond in CONDITIONS:
            use = gapped(inst) if cond == "D" else inst
            assert check_condition(model, cond, use, 8).verdict == HOLDS


def test_verdicts_monotone_in_depth():
    rng = random.Random(4)
    model = SeqXEndModel()
    for _ in range(10):
        inst = model.random_instance(rng)
        for cond in CONDITIONS:
            use = gapped(inst) if cond == "D" else inst
            verdicts = [check_condition(model, cond, use, d).verdict
                        for d in (8, 16, 32)]
            settled = [v for v in verdicts if v != UNKNOWN]
            assert len(set(settled)) <= 1


def test_embedding_contract_all_models():
    rng = random.Random(5)
    assert SeqXEndModel().check_embedding(rng)
    assert SeqYEndModel().check_embedding(rng)
    assert FiniteFullModel(FiniteSpace.discrete(4)).check_embedding(rng)


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
        check_condition(make(), cond, {"f": elem(1), "g": elem(0)}, depth=8)
    assert exc.value.key == "g"


@pytest.mark.parametrize("model", sorted(MODEL_FUNCS))
@pytest.mark.parametrize("epsilon", [0, -1])
def test_d_rejects_nonpositive_epsilon(model, epsilon):
    make, elem = MODEL_FUNCS[model]
    with pytest.raises(PreconditionViolation, match="epsilon must be positive") as exc:
        check_condition(make(), "D", {"f": elem(0), "g": elem(1), "epsilon": epsilon}, depth=8)
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
        check_condition(SeqXEndModel(), "C", {"subfamily_cap": cap}, depth=8)


def test_alpha_rejects_nonconvergent():
    with pytest.raises(PreconditionViolation):
        SeqXEndModel().alpha(SeqFunc.periodic([1, 0], omega=1))


def test_missing_capability():
    class Bare(FiniteFullModel):
        cond_t = None

    model = Bare(FiniteSpace.discrete(2))
    with pytest.raises(ModelCapabilityMissing):
        check_condition(model, "T", model.random_instance(random.Random(0)))


def test_harness_zero_failures_everywhere():
    rng = random.Random(6)
    mx, my = SeqXEndModel(), SeqYEndModel()
    mf = FiniteFullModel(FiniteSpace.discrete(3))
    # only seq_y_end carries an epsilon-removal cover; the other rows run everywhere
    eps_removal_tested = {mx.name: 0, my.name: 1, mf.name: 0}
    for model, gen in ((mx, lambda: random_feasible_x_pair(rng)),
                       (my, lambda: random_usc_lsc_pair(rng)),
                       (mf, lambda: mf.random_instance(rng))):
        matrix = equivalence_harness(model, [gen() for _ in range(8)], depth=12)
        for row in matrix:
            assert row["failures"] == 0, (model.name, row)
            if row["implication"] == "eps_removal_form2_to_form3":
                assert row["tested"] == eps_removal_tested[model.name], (model.name, row)
            else:
                assert row["tested"] > 0, (model.name, row)


def test_reports_replay_through_independent_verifier():
    rng = random.Random(7)
    models = [SeqXEndModel(), SeqYEndModel(), FiniteFullModel(FiniteSpace.discrete(3))]
    for model in models:
        for cond in CONDITIONS:
            inst = model.random_instance(rng)
            use = gapped(inst) if cond == "D" else inst
            report = check_condition(model, cond, use, 16)
            result = verify_report(to_jsonable(report))
            assert result["ok"], (model.name, cond, result["checks"])
