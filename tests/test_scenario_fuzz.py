"""Fuzzed scenario files: `check` answers 0, 1 or 2 and never raises.

Valid scenarios of all three models are mutated (a key dropped, renamed or
retyped, a leaf replaced by any JSON value, a number or an array pushed past
the reader's limits) and run through ``cli.main``.  Exit 2 must come with an
``input error`` on stderr and nothing on stdout; exit 1 only with a verdict
mismatch.  Every input error names the JSON pointer of what it rejected.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from normlab.cli import main
from normlab.conditions import MAX_SUBFAMILY_CAP
from normlab.serialize import MAX_DEPTH, MAX_FAMILY, MAX_POINTS, MAX_SPAN

SPACE = {"points": 2, "up": [[0], [0, 1]]}
X_PAIR = {"f": {"prefix": ["0"], "cycle": ["1", "0"]}, "g": {"cycle": ["1", "3/2"]}}
Y_PAIR = {"f": {"prefix": ["0"], "cycle": ["1/4"], "omega": "1/2"},
          "g": {"prefix": ["2"], "cycle": ["1"], "omega": "3/4"}}
Y_COVER = {"epsilon": "1", "family": [{"prefix": ["1", "0"], "cycle": ["2"], "omega": "2"},
                                      {"prefix": ["-1", "3/2"], "cycle": ["1/2"], "omega": "1/2"}]}
F_PAIR = {"f": {"space": SPACE, "values": ["0", "1/2"]},
          "g": {"space": SPACE, "values": ["1", "1"]}}
F_COVER = {"epsilon": "1", "family": [{"space": SPACE, "values": ["2", "0"]},
                                      {"space": SPACE, "values": ["0", "3/2"]}]}

BASES = [
    {"model": "seq_x_end", "condition": "N", "instance": X_PAIR, "depth": 8, "expect": "holds"},
    {"model": "seq_x_end", "condition": "D", "instance": {**X_PAIR, "epsilon": "1/2"}},
    {"model": "seq_x_end", "condition": "C", "depth": 4, "expect": "fails",
     "instance": {"epsilon": "1", "delta": "1/2", "subfamily_cap": 2}},
    {"model": "seq_x_end", "condition": "SL", "depth": 8,
     "instance": {**X_PAIR, "epsilon": "1", "delta": "1/2"}},
    {"model": "seq_y_end", "condition": "T", "instance": Y_PAIR, "expect": "holds"},
    {"model": "seq_y_end", "condition": "SL", "depth": 8, "instance": {**Y_PAIR, **Y_COVER}},
    {"model": "finite_full", "space": SPACE, "condition": "N", "instance": F_PAIR},
    {"model": "finite_full", "space": SPACE, "condition": "L", "depth": 8,
     "instance": F_COVER, "expect": "holds"},
]

# any JSON value, with leaves and elements that the reader admits mixed in
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1", "-1/2", "1/0", "1.5", "omega", "holds", "T", "seq_y_end",
                       {"cycle": ["1"]}, {"cycle": ["2", "-1"], "omega": "2"},
                       {"space": SPACE, "values": ["1", "-1"]}, SPACE]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)
PAST_LIMITS = [-1, 0, MAX_DEPTH + 1, MAX_POINTS + 1, MAX_SUBFAMILY_CAP + 1, 2 ** 64]


def _paths(node, path=()):
    if path:
        yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(data, scenario):
    """Apply one drawn mutation to a path of the scenario, in place."""
    path = data.draw(st.sampled_from(list(_paths(scenario))))
    parent = scenario
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    op = data.draw(st.sampled_from(["drop", "rename", "replace", "past_limit"]))
    if op == "drop":
        del parent[key]
    elif op == "rename" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=6))] = parent.pop(key)
    elif op == "past_limit" and isinstance(node, list) and node:
        parent[key] = node * (max(MAX_SPAN, MAX_FAMILY) // len(node) + 1)
    elif op == "past_limit":
        parent[key] = data.draw(st.sampled_from(PAST_LIMITS))
    else:  # a copy, so later mutations leave the shared samples alone
        parent[key] = json.loads(json.dumps(data.draw(JSON)))


def _run(path, scenario):
    """cli.main on one scenario: (exit code, stdout, stderr)."""
    path.write_text(json.dumps(scenario))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_scenarios_exit_cleanly(scenario_path, data):
    scenario = json.loads(json.dumps(data.draw(st.sampled_from(BASES))))
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, scenario)
    code, out, err = _run(scenario_path, scenario)
    assert code in (0, 1, 2)
    if code == 2:  # the reader's or a model's check, named by its JSON pointer
        assert out == "" and err.startswith("input error: /")
    if code == 1:
        assert "verdict mismatch" in err


@pytest.mark.parametrize("base", BASES, ids=lambda b: f"{b['model']}-{b['condition']}")
def test_unmutated_bases_pass(scenario_path, base):
    assert _run(scenario_path, base)[0] == 0
