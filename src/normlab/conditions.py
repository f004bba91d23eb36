"""Uniform checkers for the interpolation conditions of a basic extension.

Each condition (T, BS, S, N, D, C, L, SL) is checked against a pluggable
extension model; reports carry a verdict, holds or fails (no route returns
unknown_at_depth, and replay refuses it), and a machine-checkable
certificate.  A countable claim is certified by a closed-form rule for its
family, never by a truncation of it: on the convergent-into-periodic model,
each (T)/(BS)/(S) side's countable meet or join is exactly its endpoint, and
the (C)/(L) family is one rule in epsilon and delta.  A route reads every
value from the instance, with no default, and its certificate repeats none
of them: the report's instance is their one copy.

The scenario reader checks syntax, encoding and bounds; the values of an
instance are checked here, once each, by the route that reads them (the
carrier's insertion function, or the order, gap and cover checks of
:mod:`normlab.lattice_core`).  Each such error's ``key`` names the instance
key it read, such as ``g``, ``f/omega``, ``epsilon`` or ``family/2``.

Models provided: the identity extension over a finite space (every element
is clopen, all conditions hold), the convergent-into-periodic extension over
the naturals (single-element insertion and compactness fail; the countable
interpolation conditions hold), and the compact-carrier extension over the
compactified naturals (everything holds).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelCapabilityMissing, PreconditionViolation
from .finite_space import FiniteSpace
from .lattice_core import check_cover, check_gap, check_order, check_positive, finite_join
from .rationals import rat
from .seq_model import (
    Witness,
    check_naturals_pair,
    insert_convergent,
    insert_on_y,
    subcover_extract,
)

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown_at_depth"

CONDITIONS = ("T", "BS", "S", "N", "D", "C", "L", "SL")
# (C) on seq_x_end defeats every subfamily of up to this many of its first 8
# members
MAX_SUBFAMILY_CAP = 6
# the instance scalars a route reads, recorded in its report as Fractions
SCALARS = ("epsilon", "delta")


@dataclass
class ConditionReport:
    condition: str
    model: str
    instance: dict
    verdict: str
    certificate: dict


class ExtensionModel:
    """A basic extension, given by its condition routes.

    Subclasses provide one ``cond_<x>`` method per supported condition, each
    returning (verdict, certificate); :func:`check_condition` dispatches to
    them by name.  ``reads`` names the instance keys each route reads, which
    the scenario reader holds a scenario to.
    """

    name = "abstract"
    reads = {**dict.fromkeys(("T", "BS", "S", "N"), ("f", "g")), "D": ("f", "g", "epsilon"),
             "C": ("epsilon", "family"), "L": ("epsilon", "family")}

    @classmethod
    def instance_keys(cls, cond: str) -> tuple:
        """The instance keys the route of ``cond`` reads; (SL) reads those of
        (L) and (N)."""
        return cls.reads["L"] + cls.reads["N"] if cond == "SL" else cls.reads[cond]

    def cond_d(self, instance):
        """(N) with the gap epsilon.  The pair is checked before the gap, so f > g
        is named as such; on a non-compact carrier the gap gives no convergent
        witness (f with cycle [0, 1] and g = f + epsilon)."""
        result = self.cond_n(instance)
        check_gap(instance["f"], instance["g"], instance["epsilon"])
        return result


def check_condition(model: ExtensionModel, cond: str, instance: dict) -> ConditionReport:
    """Run one condition check and wrap the result in a report.  The report's
    instance is the one copy of every value the route read, each scalar as
    the Fraction it read; its certificate repeats none of them."""
    if cond not in CONDITIONS:
        raise PreconditionViolation(f"unknown condition {cond!r}")
    instance = {**instance, **{key: rat(instance[key]) for key in SCALARS if key in instance}}
    if cond == "SL":
        left = check_condition(model, "L", instance)
        right = check_condition(model, "N", instance)
        verdict = HOLDS if left.verdict == right.verdict == HOLDS else FAILS
        cert = {"L": left.certificate, "L_verdict": left.verdict,
                "N": right.certificate, "N_verdict": right.verdict}
        return ConditionReport("SL", model.name, instance, verdict, cert)
    method = getattr(model, f"cond_{cond.lower()}", None)
    if method is None:
        raise ModelCapabilityMissing(f"{model.name} cannot check ({cond})")
    verdict, cert = method(instance)
    return ConditionReport(cond, model.name, instance, verdict, cert)


class FiniteFullModel(ExtensionModel):
    """Identity extension over a finite space: A = B = all functions.

    Every element is a (trivial) meet and join from the image, so each
    condition holds with the instance's own endpoints as witnesses.
    """

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.name = f"finite_full_{space.n}pt"

    def cond_t(self, instance):
        f, g = instance["f"], instance["g"]
        check_order(f, g)
        return HOLDS, {"a_seq": [f], "b_seq": [g]}

    cond_bs = cond_t

    def cond_s(self, instance):
        f = instance["f"]
        check_order(f, instance["g"])
        return HOLDS, {"a_seq": [f], "b_seq": [f], "witness": f}

    def cond_n(self, instance):
        f = instance["f"]
        check_order(f, instance["g"])
        return HOLDS, {"witness": f}

    def cond_d(self, instance):
        f, g = instance["f"], instance["g"]
        check_order(f, g)
        check_gap(f, g, instance["epsilon"])
        return HOLDS, {"witness": (f + g) * Fraction(1, 2)}

    def cond_c(self, instance):
        family = list(instance["family"])
        check_cover(instance["epsilon"], family)
        choices = []
        for x in range(self.space.n):
            vals = [t.value_at(x) for t in family]
            pick = max(range(len(family)), key=lambda i: vals[i])
            if pick not in choices:
                choices.append(pick)
        joined = finite_join([family[i] for i in choices])
        return HOLDS, {"subfamily": choices, "join_min": joined.value_bounds()[0]}

    cond_l = cond_c


class SeqXEndModel(ExtensionModel):
    """Convergent functions embedded into periodic ones over the naturals.

    The A-side is the convergent functions on the compactified carrier, the
    B-side the eventually periodic functions on the naturals, and the
    embedding forgets the omega value.  Countable interpolation holds (every
    B-side element is a closed-form countable meet and join from the image),
    but single-element insertion and compactness fail.
    """

    name = "seq_x_end"
    reads = {**ExtensionModel.reads, "C": ("epsilon", "delta", "subfamily_cap"),
             "L": ("epsilon", "delta")}

    @staticmethod
    def _family_sides(meet_of, join_of) -> dict:
        """Both sides' certificates, each the closed form of its countable
        family.  The meet side's family is the majorants (n, m) -> meet_of(n)
        + 1/m at n and ||meet_of|| elsewhere, whose meet is exactly meet_of, as
        1/m has infimum 0 and meet_of is at most its norm; dually, the join
        side's minorants join_of(n) - 1/m join to exactly join_of."""
        return {"meet_side": {"closed_form_meet": meet_of},
                "join_side": {"closed_form_join": join_of}}

    def cond_t(self, instance):
        f, g = instance["f"], instance["g"]
        check_naturals_pair(f, g)
        return HOLDS, self._family_sides(f, g)

    def cond_bs(self, instance):
        f, g = instance["f"], instance["g"]
        check_naturals_pair(f, g)
        return HOLDS, self._family_sides(g, f)

    def cond_s(self, instance):
        f = instance["f"]
        check_naturals_pair(f, instance["g"])
        # both families collapse to the witness in closed form
        return HOLDS, {"witness": f, **self._family_sides(f, f)}

    def cond_n(self, instance):
        result = insert_convergent(instance["f"], instance["g"])
        if isinstance(result, Witness):
            return HOLDS, {"witness": result.func, "limit": result.limit}
        return FAILS, {"limsup_f": result.limsup_f, "liminf_g": result.liminf_g}

    @staticmethod
    def _built_in_family(instance):
        """-delta for the built-in family, whose member n is epsilon + delta up
        to index n and -delta beyond; both must be positive."""
        check_positive(instance["epsilon"], "epsilon")
        return -check_positive(instance["delta"], "delta")

    def cond_c(self, instance):
        join_value = self._built_in_family(instance)
        size_cap = instance["subfamily_cap"]
        if type(size_cap) is not int or not 1 <= size_cap <= MAX_SUBFAMILY_CAP:
            raise PreconditionViolation(
                f"subfamily_cap must be an int in 1..{MAX_SUBFAMILY_CAP}, got {size_cap!r}",
                key="subfamily_cap")
        # a finite subfamily's join is -delta one index past its largest
        # member, below every positive epsilon; each subfamily of the first 8
        # members with up to size_cap of them is listed
        defeats = [{"subfamily": list(combo), "index": combo[-1] + 1, "join_value": join_value}
                   for size in range(1, size_cap + 1)
                   for combo in itertools.combinations(range(8), size)]
        return FAILS, {"defeats": defeats}

    def cond_l(self, instance):
        # member k is eps + delta > eps/2 at index k, so the whole family is
        # the countable subfamily: the rule is the instance alone
        self._built_in_family(instance)
        return HOLDS, {}


class SeqYEndModel(ExtensionModel):
    """Identity-style extension on the compactified naturals.

    A-side: convergent functions (the continuous ones); B-side: all
    representable functions with an omega value.  The carrier is compact, so
    insertion, strict insertion, and finite subcovers all succeed.
    """

    name = "seq_y_end"

    def cond_n(self, instance):
        w = insert_on_y(instance["f"], instance["g"])
        return HOLDS, {"witness": w.func, "limit": w.limit}

    def cond_t(self, instance):
        w = insert_on_y(instance["f"], instance["g"])
        # a single continuous witness serves both sides
        return HOLDS, {"a_seq": [w.func], "b_seq": [w.func]}

    cond_bs = cond_t

    def cond_s(self, instance):
        w = insert_on_y(instance["f"], instance["g"])
        return HOLDS, {"witness": w.func, "a_seq": [w.func], "b_seq": [w.func]}

    def cond_c(self, instance):
        # the carrier is compact, so any verified cover admits a finite subfamily
        chosen, cert = subcover_extract(instance["epsilon"], instance["family"])
        return HOLDS, {"subfamily": chosen, **cert}

    # the finite subfamily doubles as the countable one
    cond_l = cond_c

