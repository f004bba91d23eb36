"""Golden sha256 digests of CLI report bytes, insertion certificates and traces.

Every ``check``, ``replay`` and ``reproduce`` report must stay byte-identical
across refactors and optimizations.  Each digest below is the sha256 of the
command's stdout, of the serialized ``urysohn_join_stream`` output, or of a
serialized iteration or merge trace and its ``verify_report`` output; a change
to any of them is a change to the report format or to a verdict or
certificate, and needs a deliberate update here.
"""

import ast
import functools
import hashlib
import itertools
import json
import operator
import random
import re
from fractions import Fraction

import pytest

from normlab import replay as replay_mod
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
SPACE3 = {"points": 3, "opens": [[], [0], [0, 1], [0, 1, 2]]}


def _finite(*values):
    return {"space": SPACE3, "values": list(values)}


F_PAIR = {"f": _finite("-1", "1/2", "0"), "g": _finite("1", "3/2", "2/3")}
F_COVER = {"epsilon": "1", "family": [_finite("2", "0", "1"), _finite("0", "3/2", "1")]}

# limsup f = 1 exceeds liminf g = 1/2: (N) and (D) fail, each with its certificate
X_SPREAD = {"f": {"cycle": ["0", "1"]}, "g": {"cycle": ["1/2", "3/2"]}}

# Every condition on every model; (N) holds on X_PAIR inside (SL).
INSTANCES = {
    **{("seq_x_end", c): X_PAIR for c in ("T", "BS", "S")},
    ("seq_x_end", "N"): X_SPREAD,
    ("seq_x_end", "D"): {**X_SPREAD, "epsilon": "1/2"},
    ("seq_x_end", "C"): {**X_FAMILY, "subfamily_cap": 3},
    ("seq_x_end", "L"): X_FAMILY,
    ("seq_x_end", "SL"): {**X_FAMILY, **X_PAIR},
    **{("seq_y_end", c): Y_PAIR for c in ("T", "BS", "S", "N")},
    ("seq_y_end", "D"): {**Y_PAIR, "epsilon": "1/4"},
    ("seq_y_end", "C"): Y_COVER,
    ("seq_y_end", "L"): Y_COVER,
    ("seq_y_end", "SL"): {**Y_COVER, **Y_PAIR},
    **{("finite_full", c): F_PAIR for c in ("T", "BS", "S", "N")},
    ("finite_full", "D"): {**F_PAIR, "epsilon": "1/2"},
    ("finite_full", "C"): F_COVER,
    ("finite_full", "L"): F_COVER,
    ("finite_full", "SL"): {**F_COVER, **F_PAIR},
}

# (model, condition, depth) -> (check stdout sha256, replay stdout sha256),
# taken on the commit before the condition routes were collapsed; the check
# digests of T, BS, S, C, L and SL reports were re-pinned when certificates
# dropped the keys replay does not read, with every replay digest unchanged
CHECK_DIGESTS = {
    ('finite_full', 'BS', 8): (
        "ec67827b6ad02d01c7fc16e3621429a17f80127b65c55cc3e2ef0349fd94bb68",
        "6393f55fdcfe3ecc00b55d6bdf36ce6d770da56a473f081f20b9192237c807ab"),
    ('finite_full', 'BS', 64): (
        "8be2230a074d8596728dcabe4617750f3a93a821921dea28cef82e1ef7c1355f",
        "6393f55fdcfe3ecc00b55d6bdf36ce6d770da56a473f081f20b9192237c807ab"),
    ('finite_full', 'C', 8): (
        "16b5b3e492fff1f947629114097a5bd98ac5251d8996d3c818fc2f8bb77c94c2",
        "26e090de17af8699ceb95a2752db518a7995794da1b4447fb8fde494f012f4f5"),
    ('finite_full', 'C', 64): (
        "36f87e5f06ce116e79d4c892b08eb4a6b0763b512c29d154fec69de93748b41c",
        "26e090de17af8699ceb95a2752db518a7995794da1b4447fb8fde494f012f4f5"),
    ('finite_full', 'D', 8): (
        "6e2564c9814074080e8cdde1956835276989dd93205199487118c765d75814c4",
        "80c3129b0b28e06158a4f3e05baeaec04fabe222c382e61f16e8b870eca1d434"),
    ('finite_full', 'D', 64): (
        "4bc624e0f8b78a58ac85eeabcc625cc6f46fdfd1a23e78b7183c061303444ed8",
        "80c3129b0b28e06158a4f3e05baeaec04fabe222c382e61f16e8b870eca1d434"),
    ('finite_full', 'L', 8): (
        "c18c5abd7fa5a4848616f40afed4c63f5f625be299018e2d3991208c12b8497d",
        "991f5550ffe96fd8b697b24a3dd4a7a33fd2bbcfaa8624655e978fda67aaa489"),
    ('finite_full', 'L', 64): (
        "47a24fc0876340497ecb2a9441e71fd7a703db78fa3b92f23dbd54e406d9977c",
        "991f5550ffe96fd8b697b24a3dd4a7a33fd2bbcfaa8624655e978fda67aaa489"),
    ('finite_full', 'N', 8): (
        "effd33354be7169472edcc2c558fabb718b20a19158bc061f77d6efaf953ebbe",
        "fde0f12bb0f9ddc58747e3cc8f4c6ce57ff0e59d40fa6eba973db381ebd992dd"),
    ('finite_full', 'N', 64): (
        "80029f66062d15e860b49adf11662ac6246fa2f3363639a1dc1b42762eecd12e",
        "fde0f12bb0f9ddc58747e3cc8f4c6ce57ff0e59d40fa6eba973db381ebd992dd"),
    ('finite_full', 'S', 8): (
        "228033165c06b8581d6a56da55c4ccd8a78ef8d6f2e8ec353357e6ac91bde2fb",
        "2f1c4d3f1516169b4a91e3a09cbf570d3cb03b027289ab4b5ef2da9ce98f59c2"),
    ('finite_full', 'S', 64): (
        "01c41a2081f50d11f611e0b363141bfe0d02bbe2b130d1aec607ccd9fa81b679",
        "2f1c4d3f1516169b4a91e3a09cbf570d3cb03b027289ab4b5ef2da9ce98f59c2"),
    ('finite_full', 'SL', 8): (
        "ac4f1ee1c6ad9058ef2d77fe4577d6fdd768bd0a56167d4ffa71405b57e04a63",
        "de0bcb842e499d9a0b033253bf3816982e9c115436ac39fdc65706c69befcdf1"),
    ('finite_full', 'SL', 64): (
        "c6962c771db10fb40553426340ad8c538902481b739d14685cc46a93298b24e0",
        "de0bcb842e499d9a0b033253bf3816982e9c115436ac39fdc65706c69befcdf1"),
    ('finite_full', 'T', 8): (
        "bf96e5fc7be922fdaf3d046c181450dd746fb620b5387aa1c08b53e4e4f4b1a5",
        "ee123ec5e19b939d33402811d637ff682573a5f6af4a5cc34f11cf2e1c51b815"),
    ('finite_full', 'T', 64): (
        "8b0e73156ce794ddaf49c7c80bc5bbc437266b0cf73a6979a763e663577a4f19",
        "ee123ec5e19b939d33402811d637ff682573a5f6af4a5cc34f11cf2e1c51b815"),
    ('seq_x_end', 'BS', 8): (
        "a382ab4847c6f2a91b8e43de7b0f15ff26f6515c93ecce46843ed4188d99463b",
        "8d96d41e98d5087b0a11d06058c23af8a17682b65b4aeb3c9d8992d26a222e20"),
    ('seq_x_end', 'BS', 64): (
        "59e89175d6ef68605dfe1716788818c91b738f48a82ccc7bc5f4a18c7753259b",
        "8d96d41e98d5087b0a11d06058c23af8a17682b65b4aeb3c9d8992d26a222e20"),
    ('seq_x_end', 'C', 8): (
        "e1c624e52b202ee54bfc118679ec692df52d311918a6e95d46f9061f21bb2dae",
        "e1e60aa118a8b862fe75b9787652cb74dd4e9ef9ad63f304e0c736c81549fee5"),
    ('seq_x_end', 'C', 64): (
        "c3ab00538816151651bbfe59c9fa62ad2e88f5c65981006a9b93dcf3562c6919",
        "e1e60aa118a8b862fe75b9787652cb74dd4e9ef9ad63f304e0c736c81549fee5"),
    ('seq_x_end', 'D', 8): (
        "b44eeac71ef85776f0ce3a2efd9b071e595e6afa364d08ea6e6dbd70a5d2989e",
        "5e6623ca93cb34b3f480331882ac3c093ffb3ee99b9aa6816ca7a4c1fea9195f"),
    ('seq_x_end', 'D', 64): (
        "37ca252247e4a91f01eca8e1e78f18c19e23b2465ac74f388a43de62c91ae2f5",
        "5e6623ca93cb34b3f480331882ac3c093ffb3ee99b9aa6816ca7a4c1fea9195f"),
    ('seq_x_end', 'L', 8): (
        "c46b656b7e7c1dc980c8b50ac47fe1d18db7572b2a6aa7460984d90432d10aae",
        "9fad2ffdb580a9663fcbe17bb5fd01df8e81b713c719121f07c16a8178835003"),
    ('seq_x_end', 'L', 64): (
        "eedf5776c8ef720d2c8dcd3a310e5a52ab757024b330f0d78820d2c6fada4c23",
        "9fad2ffdb580a9663fcbe17bb5fd01df8e81b713c719121f07c16a8178835003"),
    ('seq_x_end', 'N', 8): (
        "3cd6cfe5fbd9842ae75014fd794972b9efb66be3f6df870a4ae83431a4b9caae",
        "66204857dc34d50ba29379ad4831e3b9439bad1c2881875c39abc6a9d4c91760"),
    ('seq_x_end', 'N', 64): (
        "dc7ca8ebb8b57907ccd2b1adeb3566fa0ceb24b40036b046feef78fc2e6d3d7c",
        "66204857dc34d50ba29379ad4831e3b9439bad1c2881875c39abc6a9d4c91760"),
    ('seq_x_end', 'S', 8): (
        "8377cd8ea8b30f5db8e7c400c6edfed0c06e303d79933f174edc8158798aeb66",
        "101e9a7d10e4b6b92456563d7cd51a3e3010d1e1caaa8d9f012ec7c4c160e538"),
    ('seq_x_end', 'S', 64): (
        "54f78a51244612d677633b542deda0e4fbef25dbce2c75cc7e068a0cd568ba4f",
        "101e9a7d10e4b6b92456563d7cd51a3e3010d1e1caaa8d9f012ec7c4c160e538"),
    ('seq_x_end', 'SL', 8): (
        "696ee2c85100b544365bbef22391f45a91912e9f3e554dd4aa6332206245ebf9",
        "ba20228f86f2cad971f653cde4f4d4e3ce764a01732553e1682eef24f8f309f7"),
    ('seq_x_end', 'SL', 64): (
        "d765ab50b9f114b15d0d3401335fe0d994815883eac45c93cbb5c5eaee794a58",
        "ba20228f86f2cad971f653cde4f4d4e3ce764a01732553e1682eef24f8f309f7"),
    ('seq_x_end', 'T', 8): (
        "c0510eb673a1f4fd41ab2b569e7a3066b7581a9730c2493bd203e83eeb0f7328",
        "e586d28e7ba3b853ba453d7e4ec0f03b0c8a331438cb13f05faa9dafabfa0021"),
    ('seq_x_end', 'T', 64): (
        "69f65609a07808093045a36292fa92ba11aa316b04ccce164ea41ec53ca82d27",
        "e586d28e7ba3b853ba453d7e4ec0f03b0c8a331438cb13f05faa9dafabfa0021"),
    ('seq_y_end', 'BS', 8): (
        "80d7afecec7b74b8c53faf3d2963024c4014fffeaf5fe5c0e4c7b7f7cb6c75ee",
        "6393f55fdcfe3ecc00b55d6bdf36ce6d770da56a473f081f20b9192237c807ab"),
    ('seq_y_end', 'BS', 64): (
        "bfe03e1f519284db5b9e582e975106ca226c5b71aa5034ec5e342e6fcf7b7d4f",
        "6393f55fdcfe3ecc00b55d6bdf36ce6d770da56a473f081f20b9192237c807ab"),
    ('seq_y_end', 'C', 8): (
        "a326bbc4381f1553b3492f0b18a574f3aab661d50177abafae117e21a70479ee",
        "6c47681bef82eaf495ac8b86f9228576ad371a48bef3958d00ea699f6fc08e95"),
    ('seq_y_end', 'C', 64): (
        "8ded7c3b75fb6686541620718432ce30d8d481edee1a1acfb4ec9dd66a30c4ea",
        "6c47681bef82eaf495ac8b86f9228576ad371a48bef3958d00ea699f6fc08e95"),
    ('seq_y_end', 'D', 8): (
        "8a85c192f0de76592e0e385f9528abfced0e2d86cc124a21bdceebe9d419d72e",
        "79db60ce4d55e27544e25e31e40c0bf1880477fd527894be79bf310220204e3d"),
    ('seq_y_end', 'D', 64): (
        "52605a20a52b4e15bfa0ea0e60af478677f6a74e87415cf3274c63c988436845",
        "79db60ce4d55e27544e25e31e40c0bf1880477fd527894be79bf310220204e3d"),
    ('seq_y_end', 'L', 8): (
        "e65655f1d9f08a259878e3f03d53bf59dac8f3e4a1b8def33a710ff6c2658f23",
        "9a83316afd69e57a18db5eb604878a25dc32c59e3b546b96579e9cee645a71e2"),
    ('seq_y_end', 'L', 64): (
        "68b84db3c36d94290393c79825cdcd1dfbeb46eddb9f7d893970f5285e4e4579",
        "9a83316afd69e57a18db5eb604878a25dc32c59e3b546b96579e9cee645a71e2"),
    ('seq_y_end', 'N', 8): (
        "3f7d27f35971d1ee9ea5b4fd2adddeaf3853cd4f88073d26c844b502dc19d488",
        "c3faf838efc907f88d892fcc5c30b32dd469b4c8bec5c5aab242267f0b5ff3a0"),
    ('seq_y_end', 'N', 64): (
        "bd7b8a696a0f9e4acd2a869956486f79f28ee1cae479268bf1a7719ba0fb28b3",
        "c3faf838efc907f88d892fcc5c30b32dd469b4c8bec5c5aab242267f0b5ff3a0"),
    ('seq_y_end', 'S', 8): (
        "4366cd80714c6b98c4e0ba462880044f5ef6fb2d6414e1cc7a033f60fd7b3494",
        "2f1c4d3f1516169b4a91e3a09cbf570d3cb03b027289ab4b5ef2da9ce98f59c2"),
    ('seq_y_end', 'S', 64): (
        "a4b6996484ff7f47e4b17c6a3616a060048aae8270e50ec542d438e133178c41",
        "2f1c4d3f1516169b4a91e3a09cbf570d3cb03b027289ab4b5ef2da9ce98f59c2"),
    ('seq_y_end', 'SL', 8): (
        "e3e5b2eaf2187259ca884e2cdc59cbc3a7ba01ba9f3514e49e991c55aa04fb77",
        "a2685acec7881110cf99f380bea910d6e68c573df4add1ce2d8ab493eebf7ebc"),
    ('seq_y_end', 'SL', 64): (
        "34ea72de3765d1566de72e45ffa5f2e03b50528219438371b01197e66eb75ed8",
        "a2685acec7881110cf99f380bea910d6e68c573df4add1ce2d8ab493eebf7ebc"),
    ('seq_y_end', 'T', 8): (
        "18b614f798074c06efa71a9beb4c4f83b87a859893de0ec53b24cbc9d725815c",
        "ee123ec5e19b939d33402811d637ff682573a5f6af4a5cc34f11cf2e1c51b815"),
    ('seq_y_end', 'T', 64): (
        "89bda141ab66e661d66d2c0710c33087520c1fa56929452c8f578f5ad8fe088d",
        "ee123ec5e19b939d33402811d637ff682573a5f6af4a5cc34f11cf2e1c51b815"),
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
        "9ee922462baeb5e7cebcc76d4cfc8fd9491b7c1db6a25668ed17c408985b3b84",
    "one-point-minimality-criteria":
        "8ed399e04e97e9380b8c44e00c1dd6b253ad17ca699897ddcd7017d6e4460fcb",
    "radical-gap":
        "7ddc8c7d7f82f8a2c7a1dbbee82a5eec162589571548bf47e0ad9b46a7318f30",
    "tong-merge":
        "d436af245a6d65b32e626c82e0c4ef321c90dfdb2ca97a24c7e90197c1a0126d",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_report(tmp_path, model, cond, depth):
    """Path of the `check` report of one INSTANCES scenario."""
    scenario = tmp_path / "scenario.json"
    body = {"model": model, "condition": cond, "instance": INSTANCES[model, cond],
            "depth": depth}
    if model == "finite_full":
        body["space"] = SPACE3
    scenario.write_text(json.dumps(body))
    report = tmp_path / "report.json"
    assert main(["check", str(scenario), "--out", str(report)]) == 0
    return report


@pytest.mark.parametrize("key", sorted(CHECK_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_check_and_replay_digests(key, tmp_path, capsys):
    report = _check_report(tmp_path, *key)
    check_out = capsys.readouterr().out
    assert main(["replay", str(report)]) == 0
    replay_out = capsys.readouterr().out
    assert (_digest(check_out), _digest(replay_out)) == CHECK_DIGESTS[key]


def _rational_paths(node, path=()):
    """Paths to every rational-valued string in a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, str) and re.fullmatch(r"-?\d+(/\d+)?", node) else []
    return [p for key, child in items for p in _rational_paths(child, path + (key,))]


# sha256 of the verify_report outputs, in order, of every depth-8 INSTANCES
# report with one of its rational values moved by one of STEPS (every value,
# every step), so failing replay rows are pinned as well; 1,099 of the 1,744
# tampered reports fail
STEPS = (Fraction(1, 7), Fraction(-1, 7), Fraction(2), Fraction(-2))
TAMPERED_REPLAY_DIGEST = "6b3f58d2f374cf44c5b1a1c988d64d6952598a1419c0ba13436ec39ebddfc912"


def test_tampered_condition_replay_digest(tmp_path, capsys):
    outputs = []
    for model, cond in sorted(INSTANCES):
        report = json.loads(_check_report(tmp_path, model, cond, 8).read_text())
        for (*head, last), step in itertools.product(_rational_paths(report), STEPS):
            tampered = json.loads(json.dumps(report))
            node = functools.reduce(operator.getitem, head, tampered)
            node[last] = str(Fraction(node[last]) + step)
            outputs.append(verify_report(tampered))
    capsys.readouterr()
    assert not all(out["ok"] for out in outputs)
    assert _digest(json.dumps(outputs, sort_keys=True)) == TAMPERED_REPLAY_DIGEST


CHAIN_KEYS = ("a_seq", "b_seq", "meet_side", "join_side")


@pytest.mark.parametrize("model", ["finite_full", "seq_x_end", "seq_y_end"])
@pytest.mark.parametrize("cond", ["T", "BS", "S"])
def test_interpolation_certificate_without_chain_or_sides_fails(tmp_path, model, cond):
    """A certificate left with f <= g alone, or half a chain, proves nothing,
    and no certificate proves a "fails" verdict."""
    report = json.loads(_check_report(tmp_path, model, cond, 8).read_text())
    assert verify_report(report)["ok"]
    row = {"check": f"{cond} holds: certificate recognized", "ok": False}
    present = [key for key in CHAIN_KEYS if key in report["certificate"]]
    assert len(present) == 2
    for dropped in ([present[0]], [present[1]], present):
        tampered = json.loads(json.dumps(report))
        for key in dropped:
            del tampered["certificate"][key]
        out = verify_report(tampered)
        assert not out["ok"] and row in out["checks"]
    for cert in ({}, {"note": "x"}):
        out = verify_report({**report, "certificate": cert})
        assert not out["ok"] and row in out["checks"]
    out = verify_report({**report, "verdict": "fails"})
    assert not out["ok"] and {**row, "check": f"{cond} fails: certificate recognized"} \
        in out["checks"]


@pytest.mark.parametrize("key", sorted(INSTANCES), ids="-".join)
def test_unknown_verdict_fails_replay(tmp_path, key):
    """Replay knows a certificate form only for "holds" and "fails"."""
    report = json.loads(_check_report(tmp_path, *key, 8).read_text())
    assert verify_report(report)["ok"]
    assert not verify_report({**report, "verdict": "maybe"})["ok"]


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

# sha256 of json.dumps(to_jsonable((joined, cert)), sort_keys=True), with the
# certificate's one row per distinct level pair
URYSOHN_DIGESTS = {
    "y-heavy-1": "0a97736d0e72f857328caa65ef9e0fbf4527730fee83052f866249e6ce70608a",
    "y-heavy-2": "6aaaf00b47d2a44ab7fa6a0798461bddb4b549d79108e7d76db4c4e87e10a956",
    "finite-5pt": "6bb0c639a15a7b7d487e4b8c2323b0cfb37afbd4e75e2b16b0196fc83e2c3028",
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
    return to_jsonable(dieudonne_iterate(midpoint_oracle, f, g, 24))


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
        "0db2fe3aba72b4fb1cc979c87a3a35905c9ead2577090d3211e412d83bb507c6",
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


# Keys of a report's envelope, which replay does not read; "assertions" holds
# golden facts and "instance" the scenario input, so neither is walked.
ENVELOPE_KEYS = {"model", "expected", "example", "certificates", "assertions", "instance"}


def _keys(node):
    """Every dict key in a JSON value, not descending into assertions or instance."""
    if isinstance(node, dict):
        return set(node).union(*(_keys(v) for k, v in node.items()
                                 if k not in ("assertions", "instance")))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


def test_every_certificate_key_is_read_by_replay(tmp_path):
    """A certificate carries only keys that replay names: a key replay never
    reads certifies nothing."""
    with open(replay_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    named = {n.value for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    outputs = [json.loads(_check_report(tmp_path, model, cond, 8).read_text())
               for model, cond in sorted(INSTANCES)]
    for example_id in sorted(CATALOG):
        report = CATALOG[example_id]()
        if verify_report(report)["verified"]:
            outputs.append(report)
    outputs += [to_jsonable(urysohn_join_stream(carrier, f, g, 12))
                for carrier, f, g in URYSOHN_CASES.values()]
    outputs += [case() for case in TRACE_CASES.values()]
    assert sorted(_keys(outputs) - named - ENVELOPE_KEYS) == []
