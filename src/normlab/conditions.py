"""Uniform checkers for the interpolation conditions of a basic extension.

Each condition (T, BS, S, N, D, C, L, SL) is checked against a pluggable
extension model; reports carry a verdict, holds or fails (no route returns
unknown_at_depth, and replay refuses it), and a machine-checkable
certificate.  Each route is written once, in :class:`ExtensionModel`: a
model is its insertion, whose (N) witness serves (T), (BS), (S) and (D), and
its cover, whose finite subfamily serves (C) and (L).  The non-compact
convergent-into-periodic model overrides the routes a compact carrier
gives, certifying each countable claim by a closed-form rule for its family,
never by a truncation of it: each (T)/(BS)/(S) side's countable meet or join
is exactly its endpoint, and the (C)/(L) family is one rule in epsilon and
delta.  A route reads every value from the instance, with no default, and its
certificate repeats none of them: the report's instance is their one copy.

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

from .errors import ModelCapabilityMissing, PreconditionViolation
from .finite_space import FiniteSpace
from .lattice_core import check_gap, check_order, check_positive, subcover
from .rationals import rat
from .seq_model import check_naturals_pair, insert_convergent, insert_on_y, subcover_extract

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
    """A basic extension, given by its insertion and its cover.

    A model supplies ``insert(f, g)``, (N) as (verdict, certificate) with the
    ``witness`` when it holds, and ``cover(epsilon, family)``, the certificate
    of a verified cover's finite subfamily.  Each route is a ``cond_<x>``
    method here, returning (verdict, certificate), which
    :func:`check_condition` finds by name; (T), (BS), (S), (C) and (L) hold on
    a compact carrier, and a non-compact model overrides them.  ``reads`` names
    the instance keys each route reads, which the scenario reader holds a
    scenario to.
    """

    name = "abstract"
    reads = {**dict.fromkeys(("T", "BS", "S", "N"), ("f", "g")), "D": ("f", "g", "epsilon"),
             "C": ("epsilon", "family"), "L": ("epsilon", "family")}

    @classmethod
    def instance_keys(cls, cond: str) -> tuple:
        """The instance keys the route of ``cond`` reads; (SL) reads those of
        (L) and (N)."""
        return cls.reads["L"] + cls.reads["N"] if cond == "SL" else cls.reads[cond]

    def cond_n(self, instance):
        return self.insert(instance["f"], instance["g"])

    def cond_d(self, instance):
        """(N) with the gap epsilon.  The pair is checked before the gap, so f > g
        is named as such; on a non-compact carrier the gap gives no convergent
        witness (f with cycle [0, 1] and g = f + epsilon)."""
        result = self.cond_n(instance)
        check_gap(instance["f"], instance["g"], instance["epsilon"])
        return result

    def cond_t(self, instance):
        # the (N) witness w alone is each side's family: f <= w <= g
        w = self.cond_n(instance)[1]["witness"]
        return HOLDS, {"a_seq": [w], "b_seq": [w]}

    cond_bs = cond_t

    def cond_s(self, instance):
        w = self.cond_n(instance)[1]["witness"]
        return HOLDS, {"witness": w, "a_seq": [w], "b_seq": [w]}

    def cond_c(self, instance):
        return HOLDS, self.cover(instance["epsilon"], instance["family"])

    # the finite subfamily doubles as the countable one
    cond_l = cond_c


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

    Every function is continuous, so f itself is the insertion's witness, and
    the carrier is finite, so every cover has the subfamily of the rule.
    """

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.name = f"finite_full_{space.n}pt"

    def insert(self, f, g):
        check_order(f, g)
        return HOLDS, {"witness": f}

    cover = staticmethod(subcover)


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

    def insert(self, f, g):
        cert = insert_convergent(f, g)
        return HOLDS if "witness" in cert else FAILS, cert

    @staticmethod
    def _sides(instance, meet_of: str, join_of: str) -> dict:
        """Both sides' certificates for the pair f <= g, checked, each the
        closed form of its countable family.  The meet side's family is the
        majorants (n, m) -> meet_of(n) + 1/m at n and ||meet_of|| elsewhere,
        whose meet is exactly meet_of, as 1/m has infimum 0 and meet_of is at
        most its norm; dually, the join side's minorants join_of(n) - 1/m join
        to exactly join_of."""
        check_naturals_pair(instance["f"], instance["g"])
        return {"meet_side": {"closed_form_meet": instance[meet_of]},
                "join_side": {"closed_form_join": instance[join_of]}}

    def cond_t(self, instance):
        return HOLDS, self._sides(instance, "f", "g")

    def cond_bs(self, instance):
        return HOLDS, self._sides(instance, "g", "f")

    def cond_s(self, instance):
        # both families collapse to the witness f in closed form
        return HOLDS, {"witness": instance["f"], **self._sides(instance, "f", "f")}

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

    def insert(self, f, g):
        return HOLDS, insert_on_y(f, g)

    def cover(self, epsilon, family):
        return subcover_extract(epsilon, family)
