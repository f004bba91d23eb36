"""JSON forms for every value the CLI reads or writes.

Rationals serialize as "p" or "p/q" strings (never floats).  Carriers use
small tagged objects:

* finite space: {"points": n, "up": [[point, ...], ...]}, row x listing the
  points y >= x of the specialization preorder in increasing order
* finite function: {"space": <finite space>, "values": ["p/q", ...]}
* sequence function: {"prefix": [...], "cycle": [...], "omega": "p/q" | null}
* geometric tail: {"prefix": [...], "q": "p/q", "ratio": "p/q"}
* subset of the compactification: {"kind": ..., "members": [...]}

``to_jsonable`` lowers any report/trace/certificate produced by the library.
``parse_scenario`` reads a scenario file in one walk.  It checks the JSON
syntax, the element encoding of the model's carrier, that the instance
holds exactly the keys the condition reads, and the ``MAX_*`` limits that
bound the work; each rejection names the JSON pointer of the offending key.  The values are the
model's to check: its condition route raises an error whose ``key`` names
the instance key it read, and ``cli`` turns that into ``/instance/<key>``.
"""

from __future__ import annotations

import json
from dataclasses import is_dataclass, fields as dc_fields
from fractions import Fraction

from .conditions import (
    CONDITIONS,
    FAILS,
    HOLDS,
    MAX_SUBFAMILY_CAP,
    UNKNOWN,
    FiniteFullModel,
    SeqXEndModel,
    SeqYEndModel,
)
from .errors import PreconditionViolation
from .finite_space import FiniteFunc, FiniteSpace
from .rationals import RATIONAL, num_str, rat_str
from .seq_model import GeoTail, SeqFunc


def _same(obj):
    return obj


# JSON scalars lower to themselves, so a container passes them through as is.
_SCALARS = frozenset((type(None), bool, int, str))


def _lower_dict(obj: dict) -> dict:
    return {str(k): v if type(v) in _SCALARS else to_jsonable(v) for k, v in obj.items()}


def _lower_items(obj) -> list:
    return [v if type(v) in _SCALARS else to_jsonable(v) for v in obj]


def _lower_space(space: FiniteSpace) -> dict:
    """Fresh lists on every call, so no two reports share one."""
    return {"points": space.n, "up": list(map(list, space.up_points))}


# Elements are formatted from their int rows, building no Fraction.

def _lower_finite_func(obj: FiniteFunc) -> dict:
    den = obj._den
    return {"space": _lower_space(obj.space), "values": [num_str(x, den) for x in obj._row]}


def _lower_seq_func(obj: SeqFunc) -> dict:
    den = obj._den
    values = [num_str(x, den) for x in obj._row]
    k, c, om = obj._shape
    return {"prefix": values[:k], "cycle": values[k:k + c], "omega": values[-1] if om else None}


# How each exact type lowers.  A dataclass type without an entry is lowered
# field by field, and its entry is added the first time it is seen.
_LOWER = {
    type(None): _same, bool: _same, int: _same, str: _same,
    dict: _lower_dict, list: _lower_items, tuple: _lower_items,
    Fraction: rat_str,
    FiniteSpace: _lower_space,
    FiniteFunc: _lower_finite_func,
    SeqFunc: _lower_seq_func,
    GeoTail: lambda t: {"prefix": [rat_str(v) for v in t.prefix],
                        "q": rat_str(t.q), "ratio": rat_str(t.ratio)},
}


def _dataclass_lowering(cls):
    names = [f.name for f in dc_fields(cls)]
    return lambda obj: {name: to_jsonable(getattr(obj, name)) for name in names}


def to_jsonable(obj):
    """Lower any library value to plain JSON types, rationals as strings."""
    lower = _LOWER.get(type(obj))
    if lower is None:
        cls = type(obj)
        if not is_dataclass(cls):
            raise PreconditionViolation(f"cannot serialize {cls.__name__}")
        lower = _LOWER[cls] = _dataclass_lowering(cls)
    return lower(obj)


# -- scenario reader -----------------------------------------------------------

# Limits on what one scenario may ask for; the time each costs at its limit is
# recorded in CHANGES.md.  Two coprime cycles of MAX_SPAN entries align over
# ~MAX_SPAN**2 points.  No route reads ``depth``: ``check`` only echoes it into
# its report, and it keeps its bound so the scenario format is unchanged.
MAX_DEPTH = 512
MAX_FAMILY = 64
MAX_POINTS = 32
MAX_SPAN = 256

MODELS = {"finite_full": FiniteFullModel, "seq_x_end": SeqXEndModel,
          "seq_y_end": SeqYEndModel}


def _reject(pointer: str, detail: str) -> PreconditionViolation:
    return PreconditionViolation(f"{pointer or '/'}: {detail}")


def _child(pointer: str, key) -> str:
    return f"{pointer}/{str(key).replace('~', '~0').replace('/', '~1')}"


def _shown(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _fields(data, pointer: str, readers: dict, required=()) -> dict:
    """An object's values in document order, each read by its key's reader."""
    if not isinstance(data, dict):
        raise _reject(pointer, f"expected an object, got {_shown(data)}")
    out = {}
    for key, value in data.items():
        reader = readers.get(key)
        if reader is None:
            raise _reject(_child(pointer, key), "unexpected key")
        out[key] = reader(value, f"{pointer}/{key}")  # no reader's key needs escaping
    for key in required:
        if key not in out:
            raise _reject(pointer, f"missing key {key!r}")
    return out


def _array(value, pointer: str, item, cap: int | None = None, limit: str = "") -> list:
    if not isinstance(value, list):
        raise _reject(pointer, f"expected an array, got {_shown(value)}")
    if cap is not None and len(value) > cap:
        raise _reject(pointer, f"{len(value)} entries exceed the limit {limit} = {cap}")
    return [item(v, f"{pointer}/{i}") for i, v in enumerate(value)]


def _integer(value, pointer: str, lo: int, hi: int | None = None, limit: str = "") -> int:
    if isinstance(value, int) and not isinstance(value, bool) and lo <= value \
            and (hi is None or value <= hi):
        return value
    bound = f"at least {lo}" if hi is None else f"from {lo} to {limit} = {hi}"
    raise _reject(pointer, f"expected an integer {bound}, got {_shown(value)}")


def _choice(value, pointer: str, options) -> str:
    if isinstance(value, str) and value in options:
        return value
    raise _reject(pointer, f"expected one of {', '.join(options)}, got {_shown(value)}")


# A scenario's rationals are read as (numerator, denominator) pairs through a
# memo, one per scenario, keyed by the JSON string: each distinct string is
# checked against RATIONAL once.

def _ratio(value, pointer: str, memo: dict) -> tuple[int, int]:
    if type(value) is str:
        pair = memo.get(value)
        if pair is None:
            if not RATIONAL.fullmatch(value):
                raise _reject(pointer, f"expected an integer or a \"p/q\" string, "
                                       f"got {_shown(value)}")
            num, _, den = value.partition("/")
            pair = memo[value] = int(num), int(den or 1)
        return pair
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise _reject(pointer, f"expected an integer or a \"p/q\" string, got {_shown(value)}")


def _rational(value, pointer: str, memo: dict) -> Fraction:
    return Fraction(*_ratio(value, pointer, memo))


def _ratios(value, pointer: str, memo: dict) -> list[tuple[int, int]]:
    """An array of rationals as pairs; a string already read is looked up alone."""
    if not isinstance(value, list):
        raise _reject(pointer, f"expected an array, got {_shown(value)}")
    get = memo.get
    try:
        return [get(v) or _ratio(v, f"{pointer}/{i}", memo) for i, v in enumerate(value)]
    except TypeError:  # an unhashable value, which _ratio names
        return [_ratio(v, f"{pointer}/{i}", memo) for i, v in enumerate(value)]


def _rows(value, pointer: str) -> list:
    """An array of arrays of JSON ints at least 0, checked in one pass; when
    an entry is not one, the per-entry readers name the first such entry."""
    if type(value) is list and all(type(row) is list and all(type(y) is int and y >= 0
                                                             for y in row) for row in value):
        return value
    return _array(value, pointer, lambda row, at: _array(row, at, lambda x, q: _integer(x, q, 0)))


def _space(data, pointer: str, scenario: FiniteSpace | None = None) -> FiniteSpace:
    """A finite space from its ``up`` rows, every point index checked; rows
    that are not a preorder are refused at ``up``.  Rows equal to those the
    ``scenario`` space is written with give that space, built once."""
    fields = _fields(data, pointer, {
        "points": lambda v, p: _integer(v, p, 1, MAX_POINTS, "MAX_POINTS"),
        "up": _rows}, ("points", "up"))
    n, rows = fields["points"], fields["up"]
    if scenario is not None and n == scenario.n and \
            tuple(map(tuple, rows)) == scenario.up_points:
        return scenario
    for x, row in enumerate(rows):
        for i, y in enumerate(row):
            if y >= n:
                raise _reject(f"{pointer}/up/{x}/{i}",
                              f"point index {y} outside the space of {n} points")
    try:
        return FiniteSpace(n, [sum(1 << y for y in set(row)) for row in rows])
    except PreconditionViolation as exc:  # not a preorder
        raise _reject(f"{pointer}/up", str(exc)) from None


def _seq_func(data, pointer: str, memo: dict) -> SeqFunc:
    """A sequence built as its int row from its pairs, with no Fraction."""
    def ratios(v, p):
        return _ratios(v, p, memo)

    fields = _fields(data, pointer, {
        "prefix": ratios, "cycle": ratios,
        "omega": lambda v, p: None if v is None else _ratio(v, p, memo)}, ("cycle",))
    prefix, cycle = fields.get("prefix", []), fields["cycle"]
    if not cycle:
        raise _reject(_child(pointer, "cycle"), "the cycle is empty")
    if len(prefix) + len(cycle) > MAX_SPAN:
        raise _reject(pointer, f"prefix plus cycle has {len(prefix) + len(cycle)} entries, "
                               f"over the limit MAX_SPAN = {MAX_SPAN}")
    return SeqFunc.from_pairs(prefix, cycle, fields.get("omega"))


def _finite_func(data, pointer: str, space: FiniteSpace, memo: dict) -> FiniteFunc:
    fields = _fields(data, pointer, {
        "space": lambda v, p: _space(v, p, space),
        "values": lambda v, p: [Fraction(*pair) for pair in _ratios(v, p, memo)]},
        ("space", "values"))
    if fields["space"] != space:
        raise _reject(_child(pointer, "space"), "not the scenario's space")
    if len(fields["values"]) != space.n:
        raise _reject(_child(pointer, "values"),
                      f"expected {space.n} values, got {len(fields['values'])}")
    return FiniteFunc(space, fields["values"])


def parse_element(data, pointer: str = "", space: FiniteSpace | None = None,
                  memo: dict | None = None):
    """An instance element: a finite function on ``space`` if one is given,
    else a sequence.  An object with ``values`` is a finite function, so an
    element in the other encoding is named as off the model's carrier; its
    own space is read and must equal ``space``.  ``memo`` holds the
    rationals the scenario has already given.
    """
    if (isinstance(data, dict) and "values" in data) != (space is not None):
        carrier = "finite functions" if space is not None else "sequences"
        raise _reject(pointer, f"the model takes {carrier}")
    memo = {} if memo is None else memo
    return _seq_func(data, pointer, memo) if space is None else \
        _finite_func(data, pointer, space, memo)


def _instance(data, pointer: str, model: str, condition: str, space) -> dict:
    memo: dict = {}

    def element(value, at):
        return parse_element(value, at, space, memo)

    def rational(value, at):
        return _rational(value, at, memo)

    inst = _fields(data, pointer, {
        "f": element, "g": element, "epsilon": rational, "delta": rational,
        "subfamily_cap": lambda v, p: _integer(v, p, 1, MAX_SUBFAMILY_CAP, "MAX_SUBFAMILY_CAP"),
        "family": lambda v, p: _array(v, p, element, MAX_FAMILY, "MAX_FAMILY")})
    reads = MODELS[model].instance_keys(condition)
    for key in inst:
        if key not in reads:
            raise _reject(_child(pointer, key), f"condition ({condition}) on {model} reads "
                                                f"no {key}, only {', '.join(reads)}")
    for key in reads:
        if key not in inst:
            raise _reject(_child(pointer, key), f"missing key, which condition ({condition}) "
                                                f"on {model} reads")
    return inst


def parse_scenario(data) -> tuple:
    """(model, condition, instance, depth, expect) of a scenario, read in one walk.

    ``model``, ``condition`` and ``space`` are read first, since every other
    key is read against them (only finite_full takes a space); the rest is
    read in document order.  The first problem raises a
    ``PreconditionViolation`` whose message starts with its JSON pointer.
    """
    if not isinstance(data, dict):
        raise _reject("", f"expected an object, got {_shown(data)}")
    for key in ("model", "condition", "instance"):
        if key not in data:
            raise _reject("", f"missing key {key!r}")
    name = _choice(data["model"], "/model", tuple(MODELS))
    condition = _choice(data["condition"], "/condition", CONDITIONS)
    space = None
    if name == "finite_full":
        if "space" not in data:
            raise _reject("", "missing key 'space', which model finite_full reads")
        space = _space(data["space"], "/space")
    elif "space" in data:
        raise _reject("/space", f"model {name} takes no space")
    fields = _fields(data, "", {
        "model": lambda v, p: name, "condition": lambda v, p: condition,
        "space": lambda v, p: space,
        "instance": lambda v, p: _instance(v, p, name, condition, space),
        "depth": lambda v, p: _integer(v, p, 1, MAX_DEPTH, "MAX_DEPTH"),
        "expect": lambda v, p: _choice(v, p, (HOLDS, FAILS, UNKNOWN))})
    model = MODELS[name]() if space is None else FiniteFullModel(space)
    return model, condition, fields["instance"], fields.get("depth"), fields.get("expect")
