"""Exception types shared across the package.

Every exception carries enough data to name the offending point, index, or
step, so failures double as certificates.
"""


class NormlabError(Exception):
    """Base class for all package errors.

    ``key`` names the scenario instance key whose value a check rejected
    (``f``, ``g/omega``, ``epsilon``, ``family/2``, ...), or is None.
    """

    def __init__(self, *args, key: str | None = None):
        super().__init__(*args)
        self.key = key


class PreconditionViolation(NormlabError):
    """An operation precondition (semicontinuity, order, shape) fails."""


class CarrierMismatch(NormlabError):
    """Two elements live on different carriers (e.g. with/without omega)."""


class OmegaMissing(NormlabError):
    """An operation on the compactified carrier got a function without omega."""


class NotConvergent(NormlabError):
    """A convergent function was required (single-valued cycle equal to omega)."""


class NegativeInput(NormlabError):
    """A nonnegative element was required."""


class GapViolation(NormlabError):
    """f + epsilon <= g fails; names the point, and the key epsilon."""

    def __init__(self, index, left, right):
        self.index = index
        self.left = left
        self.right = right
        super().__init__(f"the gap f + epsilon <= g fails at point {index!r}", key="epsilon")


class CoverViolation(NormlabError):
    """The pointwise supremum of a family fails its lower bound; names a point,
    and the key epsilon, the bound a cover is read at."""

    def __init__(self, point, value, bound):
        self.point = point
        self.value = value
        self.bound = bound
        super().__init__(f"cover bound violated at {point!r}: sup {value} < {bound}",
                         key="epsilon")


class BoundExceeded(NormlabError):
    """A size parameter is above the configured enumeration limit."""


class BoundViolation(NormlabError):
    """A certified approximation bound fails; names the failing step."""

    def __init__(self, step, detail=""):
        self.step = step
        super().__init__(f"approximation bound violated at step {step}: {detail}")


class OracleContractViolation(NormlabError):
    """An injected oracle returned a witness outside its sandwich."""

    def __init__(self, step, element, detail=""):
        self.step = step
        self.element = element
        super().__init__(f"oracle contract broken at step {step}: {detail}")


class EmptyFamily(NormlabError):
    """An operation requiring a nonempty family got an empty one."""


class ModelCapabilityMissing(NormlabError):
    """The extension model lacks an oracle required by the requested check."""


class SearchBudgetExceeded(NormlabError):
    """A per-index search exhausted its budget; reported as unknown, never as refutation."""

    def __init__(self, index, budget):
        self.index = index
        self.budget = budget
        super().__init__(f"search budget {budget} exhausted at index {index}")


class UnknownExampleId(NormlabError):
    """The reproduction catalog has no entry with the requested id."""

    def __init__(self, example_id, catalog):
        self.example_id = example_id
        self.catalog = sorted(catalog)
        super().__init__(f"unknown example {example_id!r}; catalog: {', '.join(self.catalog)}")
