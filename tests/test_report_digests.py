"""Golden sha256 digests of CLI report bytes and of Urysohn join certificates.

Every ``check``, ``replay`` and ``reproduce`` report must stay byte-identical
across refactors and optimizations.  Each digest below is the sha256 of the
command's stdout, or of the serialized ``urysohn_join_stream`` output; a change
to any of them is a change to the report format or to a verdict or
certificate, and needs a deliberate update here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from normlab.cli import CATALOG, main
from normlab.finite_space import FiniteFunc, FiniteSpace
from normlab.insertion_engine import FiniteUrysohnCarrier, YUrysohnCarrier, urysohn_join_stream
from normlab.seq_model import SeqFunc
from normlab.serialize import to_jsonable

X_PAIR = {
    "f": {"prefix": ["0", "1/2"], "cycle": ["0", "1/3"]},
    "g": {"prefix": ["1"], "cycle": ["1", "2/3"]},
}
Y_PAIR = {
    "f": {"prefix": ["0"], "cycle": ["1/4"], "omega": "1/2"},
    "g": {"prefix": ["2"], "cycle": ["1"], "omega": "3/4"},
}
Y_COVER = {
    "epsilon": "1",
    "family": [
        {"prefix": ["1", "0"], "cycle": ["2"], "omega": "2"},
        {"prefix": ["-1", "3/2"], "cycle": ["1/2"], "omega": "1/2"},
    ],
}
X_FAMILY = {"epsilon": "1", "delta": "1/2"}

INSTANCES = {
    ("seq_x_end", "C"): {**X_FAMILY, "subfamily_cap": 3},
    ("seq_x_end", "L"): X_FAMILY,
    ("seq_x_end", "SL"): {**X_FAMILY, **X_PAIR},
    ("seq_y_end", "C"): Y_COVER,
    ("seq_y_end", "L"): Y_COVER,
    ("seq_y_end", "SL"): {**Y_COVER, **Y_PAIR},
}

# (model, condition, depth) -> (check stdout sha256, replay stdout sha256)
CHECK_DIGESTS = {
    ("seq_x_end", "C", 8): (
        "5cd61d5255f90babd9ca49cf81fbd5e4169166bc02db5fe5d2ef2b24e250206b",
        "e1e60aa118a8b862fe75b9787652cb74dd4e9ef9ad63f304e0c736c81549fee5"),
    ("seq_x_end", "C", 64): (
        "4f285700ec74349bb3029decfa446dda7826a36c431b3e5dea2269a2553c74fe",
        "e1e60aa118a8b862fe75b9787652cb74dd4e9ef9ad63f304e0c736c81549fee5"),
    ("seq_x_end", "L", 8): (
        "dbf14b8f064d287597aabe9c82d4accc4c962c2116f945bfa970bf3d0474d260",
        "b48091c101199525099a1ca93762bca51b7c613fba3313fc447249694bb69f1c"),
    ("seq_x_end", "L", 64): (
        "b56556b4c3c2f4952410163db079156a2dab389d95c5aeb2d90c0be5e63f1155",
        "b48091c101199525099a1ca93762bca51b7c613fba3313fc447249694bb69f1c"),
    ("seq_x_end", "SL", 8): (
        "53f5156359d7d6694e90fb9de54c088eb24cc07d3680c95e8b3bdffb232a4672",
        "067d8db534f76b4677e23d39a3c0691954e6e52442f85a205e41af3936324878"),
    ("seq_x_end", "SL", 64): (
        "945a323b36a0f57fa92bc7ff47607de240da708fca1ca5bc3f4a1abb4c6d5bbf",
        "067d8db534f76b4677e23d39a3c0691954e6e52442f85a205e41af3936324878"),
    ("seq_y_end", "C", 8): (
        "f5e9b55bce40802352c53b4824eca9dea22533fb9d15f06696d7f80907b07f53",
        "26e090de17af8699ceb95a2752db518a7995794da1b4447fb8fde494f012f4f5"),
    ("seq_y_end", "C", 64): (
        "db384691aa13f795efc57b9f43f34eb8c6cea3aab2e63b7dcb4cfb4b73c06fcc",
        "26e090de17af8699ceb95a2752db518a7995794da1b4447fb8fde494f012f4f5"),
    ("seq_y_end", "L", 8): (
        "238c07050cbb4b0cc13507b813792c98e6c3d68667c6acd2ba8270ffb0c41362",
        "991f5550ffe96fd8b697b24a3dd4a7a33fd2bbcfaa8624655e978fda67aaa489"),
    ("seq_y_end", "L", 64): (
        "12501852520e1d58cf6ff26201b99d4c7218400884ab46a8f831e3161db23e30",
        "991f5550ffe96fd8b697b24a3dd4a7a33fd2bbcfaa8624655e978fda67aaa489"),
    ("seq_y_end", "SL", 8): (
        "5a9ef23ff6542ca3ba9e47ea153f03c21c1aff293d91d90f60b92bee891888e0",
        "de0bcb842e499d9a0b033253bf3816982e9c115436ac39fdc65706c69befcdf1"),
    ("seq_y_end", "SL", 64): (
        "1c3ab33dd1487980c26de5af5b438fe53b53c53fcde4285e40dbb1f2ac9427ce",
        "de0bcb842e499d9a0b033253bf3816982e9c115436ac39fdc65706c69befcdf1"),
}

REPRODUCE_DIGESTS = {
    "I-alpha-finite-support":
        "581e398004e2fe07fe30aaa8eda02a286dda25e350d1c96f7927b1b475ed41a2",
    "KT-thresholds":
        "712c942a7adfc2245cf57fb6726d83e2d6fae0b072f3d3c79ea50bbb55e11a64",
    "chi-evens-no-insertion":
        "5b5b389442908cebac138468d182ffbb46d9c90b3cd44d931e35f4de6ee0f3a3",
    "dieudonne-rate":
        "5d304ed5112d779699842aa10c700137664435263142f2a23c943dea459b9200",
    "local-compact-witness":
        "1c908e9dbdee9eff9ae883358493d6a4fcde31b469aee522fbc8905bdde7627c",
    "noncompact-C-failure":
        "539b2ac5d4e74dd6b3c8ae86b2c30fc981986d3da950d201ec88dc2110ae5f81",
    "one-point-minimality-criteria":
        "8ed399e04e97e9380b8c44e00c1dd6b253ad17ca699897ddcd7017d6e4460fcb",
    "radical-gap":
        "7ddc8c7d7f82f8a2c7a1dbbee82a5eec162589571548bf47e0ad9b46a7318f30",
    "tong-merge":
        "fc6d9ded527959a9422d24471a9314cbf2bea2d63190e87edd5ccbb2b246c816",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(CHECK_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_check_and_replay_digests(key, tmp_path, capsys):
    model, cond, depth = key
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"model": model, "condition": cond,
                                    "instance": INSTANCES[model, cond], "depth": depth}))
    report = tmp_path / "report.json"
    assert main(["check", str(scenario), "--out", str(report)]) == 0
    check_out = capsys.readouterr().out
    assert main(["replay", str(report)]) == 0
    replay_out = capsys.readouterr().out
    assert (_digest(check_out), _digest(replay_out)) == CHECK_DIGESTS[key]


@pytest.mark.parametrize("example_id", sorted(CATALOG))
def test_reproduce_digests(example_id, capsys):
    assert main(["reproduce", example_id]) == 0
    assert _digest(capsys.readouterr().out) == REPRODUCE_DIGESTS[example_id]


def _y_func(prefix, cycle, omega):
    return SeqFunc([Fraction(v) for v in prefix], [Fraction(v) for v in cycle], Fraction(omega))


def _finite_func(space, values):
    return FiniteFunc(space, [Fraction(v) for v in values])


_SPACE5 = FiniteSpace.from_preorder(5, [17, 2, 4, 25, 16])

# Inputs of urysohn_join_stream at q_max = 12: the two heavy-base pairs of the
# insertion benchmark's finest-mesh jobs and a 5-point finite pair.
URYSOHN_CASES = {
    "y-heavy-1": (YUrysohnCarrier(),
                  _y_func(["3", "-1"], ["1/2", "3/4", "15/11"], "15/11"),
                  _y_func(["3"], ["27/7", "3", "25/6", "18/5"], "3")),
    "y-heavy-2": (YUrysohnCarrier(),
                  _y_func(["-3", "-1/2"], ["0", "4/5", "7/4"], "7/4"),
                  _y_func(["89/28"], ["97/28", "37/12", "37/12", "15/4"], "7/4")),
    "finite-5pt": (FiniteUrysohnCarrier(_SPACE5),
                   _finite_func(_SPACE5, ["-71/40", "-8/3", "-35/22", "-71/40", "-46/15"]),
                   _finite_func(_SPACE5, ["7/20", "-5/3", "-1/11", "1/10", "7/20"])),
}

# sha256 of json.dumps(to_jsonable((joined, cert)), sort_keys=True)
URYSOHN_DIGESTS = {
    "y-heavy-1": "9bdbbff0ea6857e1af3e85f0c59e5ebd20bc5a52fe0a21614c4b08de951a29a1",
    "y-heavy-2": "b7dd77c856fa0d842ac1b96615e14732d24d5d1d07a4766dd7dc77e9ba5753d8",
    "finite-5pt": "8c5c1513f55bc4c0a2fee0dbb5e47f82b4645ed4303d6d252aa63213d9b02a03",
}


@pytest.mark.parametrize("name", sorted(URYSOHN_DIGESTS))
def test_urysohn_join_stream_digests(name):
    carrier, f, g = URYSOHN_CASES[name]
    out = urysohn_join_stream(carrier, f, g, 12)
    assert _digest(json.dumps(to_jsonable(out), sort_keys=True)) == URYSOHN_DIGESTS[name]


def test_digest_tables_cover_every_case():
    assert set(CHECK_DIGESTS) == {(m, c, d) for m, c in INSTANCES for d in (8, 64)}
    assert set(REPRODUCE_DIGESTS) == set(CATALOG)
    assert set(URYSOHN_DIGESTS) == set(URYSOHN_CASES)
