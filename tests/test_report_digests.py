"""Golden sha256 digests of CLI report bytes, insertion certificates and traces.

Every ``check``, ``replay`` and ``reproduce`` report must stay byte-identical
across refactors and optimizations.  Each digest below is the sha256 of the
command's stdout, of the serialized ``urysohn_join_stream`` output, or of a
serialized iteration or merge trace and its ``verify_report`` output; a change
to any of them is a change to the report format or to a verdict or
certificate, and needs a deliberate update here.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from normlab.cli import CATALOG, main
from normlab.finite_space import FiniteFunc, FiniteSpace
from normlab.insertion_engine import (
    FiniteUrysohnCarrier,
    YUrysohnCarrier,
    dieudonne_iterate,
    midpoint_oracle,
    tong_merge,
    urysohn_join_stream,
)
from normlab.replay import verify_report
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


def _seq_func(prefix, cycle, omega=None):
    return SeqFunc([Fraction(v) for v in prefix], [Fraction(v) for v in cycle],
                   None if omega is None else Fraction(omega))


def _iteration_payload(f, g):
    trace = dieudonne_iterate(midpoint_oracle, f, g, 24)
    return {**to_jsonable(trace), "f": to_jsonable(f), "g": to_jsonable(g)}


def _merge_payload():
    # cycle lengths 1, 2, 3, 4, 6 in turn: the merge spans lcm 12
    rng = random.Random(9)
    vals = lambda count, lo: [Fraction(rng.randint(4 * lo, 4 * lo + 12), 4) for _ in range(count)]
    a_seq = [_seq_func(vals(2, 0), vals((1, 2, 3, 4, 6)[j % 5], 0)) for j in range(9)]
    b_seq = [_seq_func(vals(2, -1), vals((1, 2, 3, 4, 6)[(j + 2) % 5], -1)) for j in range(9)]
    return to_jsonable(tong_merge(a_seq, b_seq))


# Payloads of the insertion traces that replay re-checks: 24-step Dieudonné
# iterations on each carrier and a length-9 Tong merge of sequences.
TRACE_CASES = {
    "iteration-finite": lambda: _iteration_payload(
        _finite_func(_SPACE5, ["-3/2", "2/7", "0", "5/3", "-1/4"]),
        _finite_func(_SPACE5, ["1/2", "9/7", "3/5", "5/3", "1"])),
    "iteration-seq": lambda: _iteration_payload(
        _seq_func(["1/3", "-2"], ["0", "5/4", "-1/2"]),
        _seq_func(["2", "-1"], ["3/2", "7/4", "5/4", "3/2"])),
    "iteration-y": lambda: _iteration_payload(
        _seq_func(["-1"], ["1/2", "2/3"], "1/2"),
        _seq_func(["1/5", "1"], ["1", "3/2", "5/4"], "7/4")),
    "merge-seq-9": _merge_payload,
}

# name -> (sha256 of json.dumps(payload, sort_keys=True),
#          sha256 of json.dumps(verify_report(payload), sort_keys=True))
TRACE_DIGESTS = {
    "iteration-finite": (
        "8ccb7649d7a6325d22349af486407602d95ddd7ccd1377c401e5b74510fd5e18",
        "e9b2706d820c3675f39f4a356b80c215d56781cf0f9962dbc31db32ade42b562"),
    "iteration-seq": (
        "2023bcc8c49f1d52c07076ae2fce60d918c5adf682b96b9e0c610491509fa159",
        "e9b2706d820c3675f39f4a356b80c215d56781cf0f9962dbc31db32ade42b562"),
    "iteration-y": (
        "c558ca18c7b7e1d6b32cb87f8c836f5f3ca79d759fdc7a463f83843f14a2d3e1",
        "e9b2706d820c3675f39f4a356b80c215d56781cf0f9962dbc31db32ade42b562"),
    "merge-seq-9": (
        "3765cc99f93bfd8189ef3eeb1d2db624100d6892633820299d4d225b0f974d1f",
        "a68ad746ec3a041bf37f6435c5b8242bb8a3f64d95b251f207db36068f05c7de"),
}


@pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
def test_trace_and_replay_digests(name):
    payload = TRACE_CASES[name]()
    report = verify_report(payload)
    assert report["ok"]
    assert (_digest(json.dumps(payload, sort_keys=True)),
            _digest(json.dumps(report, sort_keys=True))) == TRACE_DIGESTS[name]


def test_trace_digest_table_covers_every_case():
    assert set(TRACE_DIGESTS) == set(TRACE_CASES)
