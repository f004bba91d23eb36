"""JSON forms for every value the CLI reads or writes.

Rationals serialize as "p" or "p/q" strings (never floats).  Carriers use
small tagged objects:

* finite space: {"points": n, "opens": [[point, ...], ...]}
* finite function: {"space": <finite space>, "values": ["p/q", ...]}
* sequence function: {"prefix": [...], "cycle": [...], "omega": "p/q" | null}
* geometric tail: {"prefix": [...], "q": "p/q", "ratio": "p/q"}
* subset of the compactification: {"kind": ..., "members": [...]}

``to_jsonable`` lowers any report/trace/certificate produced by the library;
``parse_*`` rebuild instance literals from scenario files.
"""

from __future__ import annotations

from dataclasses import is_dataclass, fields as dc_fields
from fractions import Fraction

from .errors import PreconditionViolation
from .finite_space import FiniteFunc, FiniteSpace
from .insertion_engine import IterationTrace, MergeTrace
from .rationals import rat, rat_str
from .seq_model import GeoTail, InfeasibleCert, Omega, SeqFunc, Witness, YSet


def to_jsonable(obj):
    """Lower any library value to plain JSON types, rationals as strings."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return rat_str(obj)
    if isinstance(obj, Omega):
        return "omega"
    if isinstance(obj, FiniteSpace):
        return {"points": obj.n,
                "opens": [sorted(x for x in range(obj.n) if (1 << x) & m)
                          for m in sorted(obj.opens)]}
    if isinstance(obj, FiniteFunc):
        return {"space": to_jsonable(obj.space),
                "values": [rat_str(v) for v in obj.values]}
    if isinstance(obj, SeqFunc):
        return {"prefix": [rat_str(v) for v in obj.prefix],
                "cycle": [rat_str(v) for v in obj.cycle],
                "omega": None if obj.omega is None else rat_str(obj.omega)}
    if isinstance(obj, GeoTail):
        return {"prefix": [rat_str(v) for v in obj.prefix],
                "q": rat_str(obj.q), "ratio": rat_str(obj.ratio)}
    if isinstance(obj, YSet):
        return {"kind": obj.kind, "members": list(obj.members)}
    if isinstance(obj, Witness):
        return {"witness": to_jsonable(obj.func), "limit": rat_str(obj.limit)}
    if isinstance(obj, InfeasibleCert):
        return {"infeasible": True, "limsup_f": rat_str(obj.limsup_f),
                "liminf_g": rat_str(obj.liminf_g),
                "f": to_jsonable(obj.f), "g": to_jsonable(obj.g)}
    if isinstance(obj, MergeTrace):
        return {"trace": "merge",
                "a_norm": to_jsonable(obj.a_norm), "b_norm": to_jsonable(obj.b_norm),
                "u_seq": to_jsonable(obj.u_seq), "v_seq": to_jsonable(obj.v_seq),
                "result": to_jsonable(obj.result),
                "checked_inequalities": [[n, ok] for n, ok in obj.checked_inequalities]}
    if isinstance(obj, IterationTrace):
        return {"trace": "iteration", "a_seq": to_jsonable(obj.a_seq),
                "step_bounds": [rat_str(b) for b in obj.step_bounds]}
    if is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dc_fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise PreconditionViolation(f"cannot serialize {type(obj).__name__}")


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise PreconditionViolation(f"rational must be a string, got {type(text).__name__}")
    return rat(text)


def parse_seq_func(data: dict) -> SeqFunc:
    om = data.get("omega")
    return SeqFunc([parse_rational(v) for v in data.get("prefix", [])],
                   [parse_rational(v) for v in data.get("cycle", [0])],
                   None if om is None else parse_rational(om))


def parse_finite_space(data: dict) -> FiniteSpace:
    n = data["points"]
    for open_set in data["opens"]:
        for p in open_set:
            if not 0 <= p < n:
                raise PreconditionViolation(f"point index {p} outside the space of {n} points")
    return FiniteSpace.from_sets(n, data["opens"])


def parse_finite_func(data: dict) -> FiniteFunc:
    space = parse_finite_space(data["space"])
    return FiniteFunc(space, [parse_rational(v) for v in data["values"]])


def parse_element(data: dict):
    """An instance element: a finite function if it has values, else a sequence.

    The scenario schema admits only these two encodings.
    """
    if "values" in data:
        return parse_finite_func(data)
    return parse_seq_func(data)
