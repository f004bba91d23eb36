"""Golden sha256 digests of CLI report bytes, insertion certificates and traces.

Every ``check``, ``replay`` and ``reproduce`` report must stay byte-identical
across refactors and optimizations.  Each digest below is the sha256 of the
command's stdout, of the serialized ``urysohn_join_stream`` output, or of a
serialized iteration or merge trace and its ``verify_report`` output; a change
to any of them is a change to the report format or to a verdict or
certificate, and needs a deliberate update here.

The CLI writes each report as one line of sorted-key JSON.  Every
``CHECK_DIGESTS`` and ``REPRODUCE_DIGESTS`` entry was re-pinned when the CLI
stopped indenting its output: each new stdout is
``json.dumps(json.loads(old stdout), sort_keys=True, separators=(",", ":"))``
plus a newline, so every JSON value stayed the same.  The Urysohn, trace and
tampered-replay digests do not hash CLI stdout and were not re-pinned.

Every output that holds a finite space was re-pinned once more when a space
stopped being written as the list of its open sets and became its ``up``
rows: the check half of each ``finite_full`` entry, the ``tong-merge``
reproduce digest, the two finite Urysohn digests and the payload half of the
two finite traces.  ``OPENS_FORM_DIGESTS`` keeps each old digest, and a test
writes each new output's spaces back as open sets and gets the old bytes.
No replay digest moved.  The tampered-replay digest was re-pinned with them,
since a certificate copy of an instance value that differs from it became a
malformed payload.

Countable claims on ``seq_x_end`` then went from truncated certificates to
their closed-form rule, and no route reads ``depth`` any more: each
(T)/(BS)/(S) side lost its ``depth``, ``residual_bound`` and
``max_residual``, each (L) certificate its ``picks``, and each catalog
condition report its ``depth``; ``check`` echoes the scenario's ``depth``.
That moved both halves of the seq_x_end T, BS, S, L and SL entries (replay
renamed the rows that read the deleted keys), three reproduce digests and the
tampered-replay digest.  ``TRUNCATED_FORM_DIGESTS`` keeps each old digest,
and a test writes each new output back in the truncated form and gets the old
bytes.

The instance then became the one copy of every value a route reads: each
(D), (C) and (L) certificate, and the (L) part of each (SL) one, lost its
copies of epsilon, delta and the family, and the ``noncompact-C-failure``
report states the epsilon 1, delta 1/2 and cap 4 that its route used to fill
in.  That moved the check half of every D, C, L and SL entry on all three
models, that reproduce digest and the tampered-replay digest; no replay
digest moved.  ``COPY_FORM_DIGESTS`` and ``COPY_FORM_TAMPERED_DIGEST`` keep
each old digest, and tests write each new output back in the copy form and
get the old bytes.

Every condition route was then written once, over each model's insertion
and cover.  On finite_full the (T) and (BS) certificates' ``b_seq`` went
from [g] to [f], the (N) witness, and the (D) witness from (f + g)/2 to f.
That moved the check half of the finite_full T, BS and D entries and the
tampered-replay digest; no replay digest moved.  ``OWN_ROUTE_DIGESTS`` and
``OWN_ROUTE_TAMPERED_DIGEST`` keep each old digest, and tests write each new
output back in the own-route form and get the old bytes; the older proofs
start from that form.
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
from normlab.finite_space import FiniteFunc, FiniteSpace, block_indicators
from normlab.insertion_engine import (
    FiniteUrysohnCarrier,
    YUrysohnCarrier,
    dieudonne_iterate,
    midpoint_oracle,
    tong_merge,
    urysohn_join_stream,
)
from normlab.replay import verify_report
from normlab.seq_model import SeqFunc, ideal_membership
from normlab.serialize import to_jsonable
from oracles import up_sets_scan

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
SPACE3 = {"points": 3, "up": [[0], [0, 1], [0, 1, 2]]}  # the chain 0 <= 1 <= 2


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
# dropped the keys replay does not read, with every replay digest unchanged,
# and those of the finite_full T, BS and D reports when each route was written
# once (OWN_ROUTE_DIGESTS)
CHECK_DIGESTS = {
    ('finite_full', 'BS', 8): (
        "7e184c8b8f1b30ae03080a773d46a7f1360c09df4f22903c002e055a545a3dd3",
        "581e191f1fab036b70097c4add827af606105dec457452ad8a0b6344192a7bc1"),
    ('finite_full', 'BS', 64): (
        "1abdc72b6e2c40cbb0fccda131d1c50825606633a9c57bad79d4ef6f18aaad84",
        "581e191f1fab036b70097c4add827af606105dec457452ad8a0b6344192a7bc1"),
    ('finite_full', 'C', 8): (
        "06c3643e0dca7bfb63d8053f63461a4c1157fbc72e0dab72ff61a410d435f9d9",
        "9e791ff33e3c23c3f8d4db6ab6db485571ae68f8624786c37082c4a23f480807"),
    ('finite_full', 'C', 64): (
        "59375cc1668839315a8a78fccf5c3fccab1ff4c20f9225368b07481b01a0b12c",
        "9e791ff33e3c23c3f8d4db6ab6db485571ae68f8624786c37082c4a23f480807"),
    ('finite_full', 'D', 8): (
        "b2fd6abe09286763e2cb1e9a9036b4f181b69acf02ec8dbd9c288d52da8abaf4",
        "9cc0aa5d9117159cceca193d410d1b41dd996091d038f9b0c3ec981777ca69aa"),
    ('finite_full', 'D', 64): (
        "1f9c2515c35e9d90fbfee36aee89375a8cedbad0b2d19b090916400aebdb30b9",
        "9cc0aa5d9117159cceca193d410d1b41dd996091d038f9b0c3ec981777ca69aa"),
    ('finite_full', 'L', 8): (
        "8745641288e1bc226b162ea0fa149805011ae82685acb8f80ef5a32761026478",
        "d97ec53ea02be085851810d901515a17f64151f7077eb5e851fe028fc914ffb7"),
    ('finite_full', 'L', 64): (
        "41ecd27f946171b1917b22c93fcb354af527b1a964e3542c9025cef9a7cb00e0",
        "d97ec53ea02be085851810d901515a17f64151f7077eb5e851fe028fc914ffb7"),
    ('finite_full', 'N', 8): (
        "336c2f085e08e7d69c037796c836bdd8eb256df3837a3ee529879d3d21e11dff",
        "aca67cf56e32b25e927037b75c9cc344367e4f87cc47e224435c4d5dc0527d2a"),
    ('finite_full', 'N', 64): (
        "6b5ba6c5837be096d2be22274c3b3b4f9daabc516055b425d20a6ca8fe3ebd49",
        "aca67cf56e32b25e927037b75c9cc344367e4f87cc47e224435c4d5dc0527d2a"),
    ('finite_full', 'S', 8): (
        "44e60f8ff2469841ee11504b2dd2102d0cf2658d8033613ddb466adc1bc2c0f4",
        "98b74dfabea5ea4a404c1d8a88d2c9044c49067032ece7c37f61a877d6d688cc"),
    ('finite_full', 'S', 64): (
        "b421673a474442b3583f1fe3cb824ee56a061adea22d3f8a304d37301ed9e14c",
        "98b74dfabea5ea4a404c1d8a88d2c9044c49067032ece7c37f61a877d6d688cc"),
    ('finite_full', 'SL', 8): (
        "5a79ba040aab04276e73f49b4b1d38863b89d07ef04c7b43beb25f9d1d9dbf25",
        "96afccecca6dce8515c51f5ebce30c78c423682d1a354e7be3bd8921396ab5f9"),
    ('finite_full', 'SL', 64): (
        "9d318078bfa9d6e085af2d4e5c8010f8aa57d577ca83948247d4d8b1c1081c75",
        "96afccecca6dce8515c51f5ebce30c78c423682d1a354e7be3bd8921396ab5f9"),
    ('finite_full', 'T', 8): (
        "1e76b017cc3afefa1729c88dd01512b5b26c566b0946978472273454420b190e",
        "b2ef2d9e3dff5efe16cd9748cb06e10e0b09ab60c4f14e95434df1afec1c561d"),
    ('finite_full', 'T', 64): (
        "ea6ad63548ca54f95f850640ddd17b6dbc56418a5249226c7f68337054f9eb37",
        "b2ef2d9e3dff5efe16cd9748cb06e10e0b09ab60c4f14e95434df1afec1c561d"),
    ('seq_x_end', 'BS', 8): (
        "2d0783f564c4c978d898aae86b0cc6b4339938cb8a19d2bbc14d037ec06fc397",
        "b41f5f71eb8caf44ada15c10753973997cb7b4d509be067ef311b8291889752c"),
    ('seq_x_end', 'BS', 64): (
        "67692ecbebb4c541f271d62f2f15df9ae26c08a41c555ffeaee6992b55e444b3",
        "b41f5f71eb8caf44ada15c10753973997cb7b4d509be067ef311b8291889752c"),
    ('seq_x_end', 'C', 8): (
        "cfdf50a1aef101b63605e022f649d8b4644152a3c87e16f700af0b71eb933266",
        "9bc42f4895402c7c44ef833d7a020d1986e39fa04e95cd7e3e7d5423caade397"),
    ('seq_x_end', 'C', 64): (
        "2896b2083cb5683ce7d5b75ac95b3675bcd44b5c57b8138d57172753424b82c5",
        "9bc42f4895402c7c44ef833d7a020d1986e39fa04e95cd7e3e7d5423caade397"),
    ('seq_x_end', 'D', 8): (
        "1ae5e0db001fffbfa20f6718492454706b2f3c6aeaf7026a62fa54c4a504bcb1",
        "9178944454c3cd1a04688da7e1297f060313785e3d966048ce65c5c33447a324"),
    ('seq_x_end', 'D', 64): (
        "4b78b5e1b9114179d6d6caa9c43249e9c139e5c728270594cb83c1c9d22dc126",
        "9178944454c3cd1a04688da7e1297f060313785e3d966048ce65c5c33447a324"),
    ('seq_x_end', 'L', 8): (
        "c6ed688c95d12784bb5b21faea072d278b74b39344bd73a69f90c3dbbe267f42",
        "b85246cc2454dc120149b9230612d31a3af571b7e03d8961732bbdfcc8aaef9c"),
    ('seq_x_end', 'L', 64): (
        "dc3e2252916c613f6ae4cc50257e5a7e248f02ce2d4bd7aac8e60327f267c2c3",
        "b85246cc2454dc120149b9230612d31a3af571b7e03d8961732bbdfcc8aaef9c"),
    ('seq_x_end', 'N', 8): (
        "0021c3adba15ca6dd8c535aabcf33bac869b82ec762ea27e79180e1cb710b542",
        "2ac6b6e1e4340c08f391e38972be61a66429cafbe686fb3a5153780105bcc829"),
    ('seq_x_end', 'N', 64): (
        "2de0dc381d1d7428c2e21276ca76c61f06b88f9f6c0f816ab73146c0e7d381dd",
        "2ac6b6e1e4340c08f391e38972be61a66429cafbe686fb3a5153780105bcc829"),
    ('seq_x_end', 'S', 8): (
        "3b9a6e99d53a13ef4197fc610ff7d488f10325f25a0fa55c88a032aa817890d5",
        "ea7bda2449b8d553f57d3eba040f0f2942c42ec1ddc8a235a3ebb610e3d71b16"),
    ('seq_x_end', 'S', 64): (
        "eefa162c447a3251094a3dd305ca9d145a83f462bd1374a1443f80e48c362df4",
        "ea7bda2449b8d553f57d3eba040f0f2942c42ec1ddc8a235a3ebb610e3d71b16"),
    ('seq_x_end', 'SL', 8): (
        "af1bb941be43bb3c24803fbb4ce0310e526d2df2901d654328e16acad9eea7bc",
        "43616e57c1519c8b90ede666b3b3cd3540d30ad0f6379ba04d2e757f3049a580"),
    ('seq_x_end', 'SL', 64): (
        "894e6f3dae776726b9528e74be30ff9ab4b2deee74c1bc28776ed4ebccf224fe",
        "43616e57c1519c8b90ede666b3b3cd3540d30ad0f6379ba04d2e757f3049a580"),
    ('seq_x_end', 'T', 8): (
        "dcc1198a6ca5afa12017fdcb182018bb894bc89b105f63a16afe17fa04f0ea79",
        "b0f3f53595d4dedafd59f9f0d9eb9cca0432edea467bdd9de865a55989b3a24b"),
    ('seq_x_end', 'T', 64): (
        "f521053ed18d10142541ba8d8963f64b9b5c5a128e62858109e8c77b50a61157",
        "b0f3f53595d4dedafd59f9f0d9eb9cca0432edea467bdd9de865a55989b3a24b"),
    ('seq_y_end', 'BS', 8): (
        "e9201a1f8f34b8a2353bbaec2c66d20293e4cb0fba428564e977660a6770e2a7",
        "581e191f1fab036b70097c4add827af606105dec457452ad8a0b6344192a7bc1"),
    ('seq_y_end', 'BS', 64): (
        "21e2c8e87b39c6d4fa966f2e79da8afd6f5e4c2e19115302671387d0802a316f",
        "581e191f1fab036b70097c4add827af606105dec457452ad8a0b6344192a7bc1"),
    ('seq_y_end', 'C', 8): (
        "24b118bc1794479061906bf0118f933cd6b3548a2dba80c8254d7d92eb3077ae",
        "03a9538dd977b8e9d69b5aabd499c5332e52b8f56ec24214ec292f0d62bca02c"),
    ('seq_y_end', 'C', 64): (
        "61d3d5bd1514ea8f857500bbe1403fc8f7a83987f9f47789f748f4aafa620586",
        "03a9538dd977b8e9d69b5aabd499c5332e52b8f56ec24214ec292f0d62bca02c"),
    ('seq_y_end', 'D', 8): (
        "e02b8a5c3cde0f6329036ee083960c7fdd63e71a528d68f562167347e33ec871",
        "eefbdf872b8f7d03bcadd9806653762b06fa070ec25054aea001654d2699d3c7"),
    ('seq_y_end', 'D', 64): (
        "36d39cdf7391df7f2b9a3b43686dbcb809812d6dd990f1d2c037e1bf850c051e",
        "eefbdf872b8f7d03bcadd9806653762b06fa070ec25054aea001654d2699d3c7"),
    ('seq_y_end', 'L', 8): (
        "94374ff962a77ced6e080cd94582029fb649b652921c1ac5bfefbd5a351d2f7d",
        "887c21ebce6ed7df9b9700e0ec2ae06c411c561bc0b41038245a0c18b87f4ebc"),
    ('seq_y_end', 'L', 64): (
        "72b5ee7f9a966a96587aced79091cb8055491a5c62069b8d776dcce547ec3633",
        "887c21ebce6ed7df9b9700e0ec2ae06c411c561bc0b41038245a0c18b87f4ebc"),
    ('seq_y_end', 'N', 8): (
        "b66e815cff4eb16a0d4824f36789b4560cc91b5c0668004dd2959b878f49b8c1",
        "6c535a56a8c6187fbd1a9d477276c9232cfc42ad67a6c2be23ba2e07041b613e"),
    ('seq_y_end', 'N', 64): (
        "e0a344f91f2a1b7cf6b3c5e173669f120ee03b219535b63a48b667a3656ed674",
        "6c535a56a8c6187fbd1a9d477276c9232cfc42ad67a6c2be23ba2e07041b613e"),
    ('seq_y_end', 'S', 8): (
        "7473e4e1e963fff9dbce389093aaaafe71180535a971661db93d25f11fd34601",
        "98b74dfabea5ea4a404c1d8a88d2c9044c49067032ece7c37f61a877d6d688cc"),
    ('seq_y_end', 'S', 64): (
        "dbd3c3fd8c4a6d166ecfac1fb75761f37fc32e982d0522a4c27e909eab2f0662",
        "98b74dfabea5ea4a404c1d8a88d2c9044c49067032ece7c37f61a877d6d688cc"),
    ('seq_y_end', 'SL', 8): (
        "485f1486689e9ee3429e921d96cfe7132eba77eb16d538674bc6d1808ff6980b",
        "6dda27e57d7aaa23b1fcb0dde995da01ed857da86480c66b83ddcecb8867baa9"),
    ('seq_y_end', 'SL', 64): (
        "a4b0aae23896d89419959e64af1363589d7523eba9299d94f4412b217d70a442",
        "6dda27e57d7aaa23b1fcb0dde995da01ed857da86480c66b83ddcecb8867baa9"),
    ('seq_y_end', 'T', 8): (
        "6a6056eb31097eb13441d96b4b5db7ce1bd9e62524e689df0df68f5478cb7d64",
        "b2ef2d9e3dff5efe16cd9748cb06e10e0b09ab60c4f14e95434df1afec1c561d"),
    ('seq_y_end', 'T', 64): (
        "d56154e7e93924e9279bfde96ae8dc6ec7bce1c6d48c2085ad24fd9d8a27c8f5",
        "b2ef2d9e3dff5efe16cd9748cb06e10e0b09ab60c4f14e95434df1afec1c561d"),
}

REPRODUCE_DIGESTS = {
    "I-alpha-finite-support":
        "5907ba530ce630467274c78dac8df0bd5422aee73e4fe2b813119a02954d8cad",
    "KT-thresholds":
        "f3ce05ea89a245e5654ead794543cb07d749b497dd9777d21ee4835cb3b53187",
    "chi-evens-no-insertion":
        "a48709182ad9eddb3b23c8e3835f80a7bce44c7f2e325041f0992843d59c3e5f",
    "dieudonne-rate":
        "713dd5221aa49dd129b7beef0f894d5aa44fe3a0452b5106694c0721c42d3a6b",
    "local-compact-witness":
        "7b6208f795a621f073859b820dfeb179f28ad82d736034ef38049941a12fff42",
    "noncompact-C-failure":
        "14fdd792f1d517804f84caf2f27a054211c90c964e9d705ae7aeaa80da958bc7",
    "one-point-minimality-criteria":
        "a4344069e8998d68856317f925eb1ea91675be5b497f0e22fd8afd1000327797",
    "radical-gap":
        "e171a7bba056a769f38b362894adb84140fbaabb24c2ba2d56947dd6b796f1f7",
    "tong-merge":
        "ae5625f5667d0f985db1ebd5fff41908c6e005c5e38f7beb3e39e211910cf32e",
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
# every step), so failing replay rows are pinned as well.  Each malformed
# payload is recorded as its message.  The instance is the one copy of every
# value a route reads, so a move of epsilon, delta or a family value is read
# once, by the row that checks it: of the 1,404 tampered reports 987 fail
# (982 while finite_full wrote its own routes, digest
# OWN_ROUTE_TAMPERED_DIGEST), and the 6 malformed ones move a seq_y_end cover member's prefix entry onto
# its cycle value, a spelling replay refuses.  While certificates repeated
# those values, a move of either copy was malformed instead (456 of 1,632,
# digest COPY_FORM_TAMPERED_DIGEST); 139 of those moves now replay ok, each
# a claim that still holds for the moved instance, and 83 fail.  Before
# that, the closed-form rule on seq_x_end had dropped the 112 moves of a
# residual key or a pick value (each of which failed), with every other
# output the one pinned before (digest 24df5f2f...f487f over 1,744) and the
# renamed rows of TRUNCATED_FORM_ROWS.
STEPS = (Fraction(1, 7), Fraction(-1, 7), Fraction(2), Fraction(-2))
TAMPERED_REPLAY_DIGEST = "4639d2cdeb6ee099d31643316e02d140a88905f57f39ad919807bbea7b41dd49"
COPY_FORM_TAMPERED_DIGEST = "1348dc846df7371f13bb49745bf306d39b8ab28996707cca9982110b060ab8d7"


def _tampered_outputs(tmp_path, form=None) -> list:
    """The replay output of every tampered report.  With ``form`` "own" or
    "copy" each report is first written in the own-route form; with "copy" a
    move of either copy of a value the copy form repeats gives the malformed
    payload that form's replay gave: a certificate copy that differs from
    the instance's, named by its pointer.  Every other move is replayed on
    the report as written now, or in the own-route form."""
    outputs = []
    copy_form = form == "copy"
    for model, cond in sorted(INSTANCES):
        report = json.loads(_check_report(tmp_path, model, cond, 8).read_text())
        if form:
            report = _own_route_form(report)
        walked = json.loads(_compact(_copy_form(json.loads(json.dumps(report))))) \
            if copy_form else report
        at = "/certificate/L" if cond == "SL" else "/certificate"
        for path, step in itertools.product(_rational_paths(walked), STEPS):
            copied = [key for key in path if key in COPIED_KEYS]
            if copy_form and copied:
                differs = f"{at}/{copied[0]} differs from /instance/{copied[0]}"
                outputs.append({"malformed": "/: malformed condition payload "
                                             f"(ValueError: {differs})"})
                continue
            *head, last = path
            tampered = json.loads(json.dumps(report))
            node = functools.reduce(operator.getitem, head, tampered)
            node[last] = str(Fraction(node[last]) + step)
            try:
                outputs.append(verify_report(tampered))
            except replay_mod.MalformedPayload as exc:
                outputs.append({"malformed": str(exc)})
    return outputs


def test_tampered_condition_replay_digest(tmp_path, capsys):
    outputs = _tampered_outputs(tmp_path)
    capsys.readouterr()
    malformed = [out for out in outputs if "malformed" in out]
    assert (len(outputs), len(malformed)) == (1404, 6)
    assert all("a sequence's prefix ends with an entry its cycle absorbs" in out["malformed"]
               for out in malformed)
    assert sum(not out["ok"] for out in outputs if "ok" in out) == 987
    assert _digest(json.dumps(outputs, sort_keys=True)) == TAMPERED_REPLAY_DIGEST


def test_tampered_replay_of_the_copy_form_gives_the_digest_pinned_before(tmp_path, capsys):
    """Tampering the copy form, with each move of a copy malformed as the
    copy check made it, gives byte for byte the outputs pinned before the
    instance became the one copy: every move of any other value replays as
    it did."""
    outputs = _tampered_outputs(tmp_path, "copy")
    capsys.readouterr()
    assert (len(outputs), sum("malformed" in out for out in outputs)) == (1632, 456)
    assert _digest(json.dumps(outputs, sort_keys=True)) == COPY_FORM_TAMPERED_DIGEST


CHAIN_KEYS = ("a_seq", "b_seq", "meet_side", "join_side")


@pytest.mark.parametrize("model", ["finite_full", "seq_x_end", "seq_y_end"])
@pytest.mark.parametrize("cond", ["T", "BS", "S"])
def test_interpolation_certificate_without_chain_or_sides_fails(tmp_path, model, cond):
    """A certificate left with f <= g alone, or half a chain, is a malformed
    payload, since each route reads its own chain or sides; and no certificate
    proves a "fails" verdict."""
    report = json.loads(_check_report(tmp_path, model, cond, 8).read_text())
    assert verify_report(report)["ok"]
    present = [key for key in CHAIN_KEYS if key in report["certificate"]]
    assert len(present) == 2
    certs = [{k: v for k, v in report["certificate"].items() if k not in dropped}
             for dropped in ([present[0]], [present[1]], present)]
    for cert in certs + [{}, {"note": "x"}]:
        with pytest.raises(replay_mod.MalformedPayload, match="KeyError"):
            verify_report({**report, "certificate": cert})
    out = verify_report({**report, "verdict": "fails"})
    assert not out["ok"] and {"check": f"{cond} fails: certificate recognized", "ok": False} \
        in out["checks"]


def _certificate_parts(node, at=("certificate",)):
    """(pointer, object) of a certificate and of every JSON object in it that
    is not an element: the parts replay reads key by key."""
    if isinstance(node, dict):
        if "cycle" in node or "space" in node:
            return []
        here, items = [(at, node)], node.items()
    elif isinstance(node, list):
        here, items = [], enumerate(node)
    else:
        return []
    return here + [part for key, child in items
                   for part in _certificate_parts(child, (*at, key))]


def _malformed(report) -> str:
    with pytest.raises(replay_mod.MalformedPayload) as exc:
        verify_report(report)
    return str(exc.value)


@pytest.mark.parametrize("key", sorted(INSTANCES), ids="-".join)
def test_certificate_holds_exactly_the_keys_its_checks_read(tmp_path, key):
    """A key added to any part of a certificate, which no check would read, and
    a key deleted from it are each a malformed payload at that part's pointer."""
    report = json.loads(_check_report(tmp_path, *key, 8).read_text())
    assert verify_report(report)["ok"]
    parts = _certificate_parts(report["certificate"])
    for at, _ in parts:
        pointer = "/" + "/".join(map(str, at))
        for edit in ("add", "delete"):
            tampered = json.loads(json.dumps(report))
            node = functools.reduce(operator.getitem, at, tampered)
            if edit == "add":
                node["stale"] = "1"
                cause = "ValueError: a key no check reads: 'stale'"
            elif node:
                cause = f"KeyError: {sorted(node)[0]!r}"
                del node[sorted(node)[0]]
            else:  # an empty certificate has no key to delete
                continue
            assert _malformed(tampered) == f"{pointer}: malformed condition payload ({cause})"


@pytest.mark.parametrize("key,extra", [
    (("seq_y_end", "D"), {"epsilon": "99"}),
    (("finite_full", "T"), {"family": []}),
    (("seq_x_end", "T"), {"family": []}),
    (("seq_y_end", "SL"), {"epsilon": "1"}),
], ids=["y-D-epsilon", "finite-T-family", "x-T-family", "y-SL-epsilon"])
def test_instance_value_planted_in_a_certificate_is_refused(tmp_path, key, extra):
    """A stale copy of an instance value in a certificate is refused, though
    every check would pass without reading it."""
    report = json.loads(_check_report(tmp_path, *key, 8).read_text())
    report["certificate"].update(extra)
    name = next(iter(extra))
    assert _malformed(report) == (f"/certificate: malformed condition payload "
                                  f"(ValueError: a key no check reads: {name!r})")


def test_catalog_defeat_with_a_stale_key_is_refused():
    """Each (C) defeat holds exactly the subfamily, index and join value that
    replay derives: a stale key in one is refused at that defeat."""
    report = json.loads(json.dumps(CATALOG["noncompact-C-failure"]()["certificates"][0]))
    assert verify_report(report)["ok"]
    report["certificate"]["defeats"][5]["epsilon"] = "1"
    assert _malformed(report) == ("/certificate/defeats/5: malformed condition payload "
                                  "(ValueError: a key no check reads: 'epsilon')")


def _kind_payloads() -> dict:
    """kind -> (one payload of that kind, the pointer of its body): merge and
    iteration traces and a Urysohn certificate are their own body; a block
    replay and an ideal membership sit under their key."""
    gens = [_finite_func(_SPACE5, ["0", "1", "1", "2", "0"]),
            _finite_func(_SPACE5, ["3", "1", "1", "1/2", "3"])]
    indicators, traces = block_indicators(_SPACE5, gens)
    elem = SeqFunc([0, 1], [0], omega=0)
    return {
        "merge": (TRACE_CASES["merge-finite-5pt"](), ()),
        "iteration": (TRACE_CASES["iteration-y"](), ()),
        "urysohn": (to_jsonable(urysohn_join_stream(*URYSOHN_CASES["finite-on-grid"], 12))[1],
                    ()),
        "block": ({"block_replay": to_jsonable({"generators": gens, "traces": traces,
                                                "indicators": indicators})}, ("block_replay",)),
        "ideal": ({"ideal_membership": {"element": to_jsonable(elem),
                                        **to_jsonable(ideal_membership(elem))}},
                  ("ideal_membership",)),
    }


# kind -> the key set of each part of its payload that replay reads key by key
KIND_KEYS = {
    "merge": {("a_norm", "b_norm", "result", "trace", "u_seq", "v_seq")},
    "iteration": {("a_seq", "f", "g", "step_bounds", "trace")},
    "urysohn": {("f", "g", "pairs", "q_max", "result", "trace", "transform"), ("h", "r", "s")},
    "block": {("generators", "indicators", "traces"), ("block", "choices"), ("g_index", "y")},
    "ideal": {("cert", "element", "in_I_alpha", "in_J_radical"), ("kind", "members")},
}


@pytest.mark.parametrize("kind", sorted(KIND_KEYS))
def test_every_payload_part_holds_exactly_the_keys_its_checks_read(kind):
    """A key added to any part of a merge, iteration, Urysohn, block or ideal
    payload, which no check would read, and a key deleted from it are each a
    malformed payload at that part's pointer; a key beside the one key of a
    block or ideal wrapper is one at the wrapper's."""
    payload, body = _kind_payloads()[kind]
    assert verify_report(payload)["ok"]
    parts = _certificate_parts(functools.reduce(operator.getitem, body, payload), body)
    assert {tuple(sorted(node)) for _, node in parts} == KIND_KEYS[kind]
    for at, node in parts:
        pointer = "/" + "/".join(map(str, at))
        for edit in ("add", "delete"):
            tampered = json.loads(json.dumps(payload))
            node = functools.reduce(operator.getitem, at, tampered)
            if edit == "add":
                node["stale"] = "1"
                cause = "ValueError: a key no check reads: 'stale'"
            else:
                cause = f"KeyError: {sorted(node)[0]!r}"
                del node[sorted(node)[0]]
            assert _malformed(tampered) == f"{pointer}: malformed {kind} payload ({cause})"
    if body:
        assert _malformed({**payload, "stale": "1"}) == (
            f"/: malformed {kind} payload (ValueError: a key no check reads: 'stale')")


def _finite_elements(node):
    """Every finite function in a JSON value."""
    if isinstance(node, dict):
        here = [node] if "space" in node and "values" in node else []
        return here + [d for child in node.values() for d in _finite_elements(child)]
    if isinstance(node, list):
        return [d for child in node for d in _finite_elements(child)]
    return []


def _spaces(node):
    """The space of every finite function in a JSON value."""
    return [d["space"] for d in _finite_elements(node)]


@pytest.mark.parametrize("points", [2, 4])
def test_replay_refuses_a_finite_function_without_one_value_per_point(
        tmp_path, capsys, points):
    """A space of ``points`` points under three values is a malformed payload:
    replay neither drops the third value nor reads past it."""
    path = _check_report(tmp_path, "finite_full", "T", 8)
    report = json.loads(path.read_text())
    assert verify_report(report)["ok"]
    for space in _spaces(report):  # the discrete space on that many points
        space.update(points=points, up=[[x] for x in range(points)])
    with pytest.raises(replay_mod.MalformedPayload,
                       match="/: malformed condition payload .ValueError: "
                             "a finite function needs one value per point"):
        verify_report(report)
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "one value per point" in captured.err


def test_d_replay_reads_its_epsilon(tmp_path, capsys):
    """The (D) gap is always checked, at the instance's epsilon, its one copy:
    with g lowered below f + epsilon replay fails, and with epsilon deleted
    as well the payload is malformed instead of passing on its other rows."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "model": "seq_y_end", "condition": "D", "depth": 8,
        "instance": {"f": {"cycle": ["0"], "omega": "0"}, "g": {"cycle": ["1"], "omega": "1"},
                     "epsilon": "1/2"}}))
    path = tmp_path / "report.json"
    assert main(["check", str(scenario), "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    gap = {"check": "D holds: gap f + eps <= g", "ok": True}
    assert report["instance"]["epsilon"] == "1/2" and "epsilon" not in report["certificate"]
    out = verify_report(report)
    assert out["ok"] and gap in out["checks"]
    report["instance"]["g"] = {"cycle": ["1/4"], "omega": "1/4", "prefix": []}
    out = verify_report(report)
    assert not out["ok"] and out["checks"] == [
        {"check": "D holds: witness convergent", "ok": True},
        {"check": "D holds: f <= witness <= g", "ok": True},
        {"check": "D holds: limit = the witness's cycle value", "ok": True},
        {**gap, "ok": False}]
    del report["instance"]["epsilon"]
    with pytest.raises(replay_mod.MalformedPayload,
                       match="/: malformed condition payload .KeyError: 'epsilon'"):
        verify_report(report)
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "epsilon" in captured.err


@pytest.mark.parametrize("key", sorted(INSTANCES), ids="-".join)
def test_unknown_verdict_fails_replay(tmp_path, key):
    """Replay knows a certificate form only for "holds" and "fails"."""
    report = json.loads(_check_report(tmp_path, *key, 8).read_text())
    assert verify_report(report)["ok"]
    assert not verify_report({**report, "verdict": "maybe"})["ok"]


SWAP_VERDICTS = ("holds", "fails", "unknown_at_depth")
SWAP_MODELS = ("seq_x_end", "seq_y_end", "finite_full_3pt", "finite_full_1pt", "nonsense")
# the catalog examples whose one certificate is a condition report
CATALOG_CONDITION_REPORTS = ("chi-evens-no-insertion", "noncompact-C-failure", "KT-thresholds")


def test_condition_report_under_another_verdict_or_model_fails_replay(tmp_path):
    """Each route gives only its own verdicts, on its own model's carrier: every
    pinned condition report, given any other pair of a verdict and a model
    (an unknown name among them), fails replay or is a malformed payload."""
    reports = [json.loads(_check_report(tmp_path, *key, 8).read_text())
               for key in sorted(INSTANCES)]
    reports += [json.loads(json.dumps(CATALOG[example_id]()["certificates"][0]))
                for example_id in CATALOG_CONDITION_REPORTS]
    mutants, survivors = 0, []
    for report in reports:
        assert verify_report(report)["ok"]
        for verdict, model in itertools.product(SWAP_VERDICTS, SWAP_MODELS):
            if (verdict, model) == (report["verdict"], report["model"]):
                continue
            mutants += 1
            try:
                ok = verify_report({**report, "verdict": verdict, "model": model})["ok"]
            except replay_mod.MalformedPayload:
                ok = False
            if ok:
                survivors.append((report["model"], report["condition"], report["verdict"],
                                  model, verdict))
    assert mutants == 378
    assert survivors == []


@pytest.mark.parametrize("example_id", sorted(CATALOG))
def test_reproduce_digests(example_id, capsys):
    assert main(["reproduce", example_id]) == 0
    assert _digest(capsys.readouterr().out) == REPRODUCE_DIGESTS[example_id]


# sha256 of `normlab survey --max-size 4` on stdout: every topology up to 4
# points, 390 lines and 8,086 bytes of CSV.  The survey reads no scenario and
# builds no sequence.
SURVEY_4_DIGEST = "d8d71b7eafebfbb43ccdf458ec6909bced06eb0190b785fb101f8bac04b8603d"


def test_survey_digest(capsys):
    assert main(["survey", "--max-size", "4"]) == 0
    out = capsys.readouterr().out
    assert (out.count("\n"), len(out.encode())) == (390, 8086)
    assert _digest(out) == SURVEY_4_DIGEST


def _y_func(prefix, cycle, omega):
    return SeqFunc([Fraction(v) for v in prefix], [Fraction(v) for v in cycle], Fraction(omega))


def _finite_func(space, values):
    return FiniteFunc(space, [Fraction(v) for v in values])


_SPACE5 = FiniteSpace.from_preorder(5, [17, 2, 4, 25, 16])

# Inputs of urysohn_join_stream at q_max = 12: the two heavy-base pairs of the
# insertion benchmark's finest-mesh jobs, a 5-point finite pair, and one pair
# on each carrier whose levels meet the values of f exactly.  The last two,
# and the finite merge among the traces, were pinned on the commit before
# level sets and scalar shifts moved onto int rows.
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
    # negative and non-integer values, f's omega value attained on its cycle
    "y-mixed-signs": (YUrysohnCarrier(),
                      _y_func(["-5/2", "1/3", "-7/6"], ["-1/2", "2/3"], "2/3"),
                      _y_func(["1/2", "5/4"], ["3/4", "2", "7/5", "3/4", "11/6"], "3/4")),
    # f already in [0, 1] with max g = 1, so the rescaling is the identity and
    # every value of f is a point of the Farey grid
    "finite-on-grid": (FiniteUrysohnCarrier(_SPACE5),
                       _finite_func(_SPACE5, ["1/2", "1/3", "5/6", "2/3", "0"]),
                       _finite_func(_SPACE5, ["3/4", "1/2", "1", "2/3", "1"])),
}

# sha256 of json.dumps(to_jsonable((joined, cert)), sort_keys=True), with the
# certificate's one row per distinct level pair
URYSOHN_DIGESTS = {
    "y-heavy-1": "0a97736d0e72f857328caa65ef9e0fbf4527730fee83052f866249e6ce70608a",
    "y-heavy-2": "6aaaf00b47d2a44ab7fa6a0798461bddb4b549d79108e7d76db4c4e87e10a956",
    "finite-5pt": "32b824d001fae0f9fe3a61be0fe8ec50fcfbf626fdde698d5e436236b29e82bd",
    "y-mixed-signs": "17b3726103e83acd839a7914fef78dec760aa538ce2fcee6f95104cb538de1b3",
    "finite-on-grid": "4fcf955150b26b9bd497588fe02c8315746234b0689644da884c91ce7bda46c9",
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


# up-sets of 0 <= 1, 2 <= 3 and 4: 18 open sets, shared by every element of the trace
_SPACE5_CHAINS = FiniteSpace.from_preorder(5, [3, 2, 12, 8, 16])


def _finite_merge_payload():
    rng = random.Random(5)
    vals = lambda lo: [str(Fraction(rng.randint(6 * lo, 6 * lo + 18), 6)) for _ in range(5)]
    a_seq = [_finite_func(_SPACE5_CHAINS, vals(0)) for _ in range(7)]
    b_seq = [_finite_func(_SPACE5_CHAINS, vals(-1)) for _ in range(7)]
    return to_jsonable(tong_merge(a_seq, b_seq))


# Payloads of the insertion traces that replay re-checks: 24-step Dieudonné
# iterations on each carrier, a length-9 Tong merge of sequences and a
# length-7 one of functions on a 5-point space.
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
    "merge-finite-5pt": _finite_merge_payload,
}

# name -> (sha256 of json.dumps(payload, sort_keys=True),
#          sha256 of json.dumps(verify_report(payload), sort_keys=True))
TRACE_DIGESTS = {
    "iteration-finite": (
        "76e2971a2723f4fd94196f2dadeda3395d9f58b481451e6e01c01537301a9ca2",
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
    "merge-finite-5pt": (
        "101b28d6c2189e578b8014291a39916818fdb60a14d65af6032956f56eca34bb",
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


def _pinned_outputs(tmp_path, capsys) -> dict:
    """Every output a digest above pins, as JSON, by (table, case...): each
    check report at each depth, each reproduce report, each Urysohn
    (joined, certificate) pair and each trace."""
    outputs = {("check", *key): json.loads(_check_report(tmp_path, *key).read_text())
               for key in sorted(CHECK_DIGESTS)}
    capsys.readouterr()
    for example_id in sorted(CATALOG):
        assert main(["reproduce", example_id]) == 0
        outputs["reproduce", example_id] = json.loads(capsys.readouterr().out)
    for name, (carrier, f, g) in sorted(URYSOHN_CASES.items()):
        outputs["urysohn", name] = json.loads(json.dumps(
            to_jsonable(urysohn_join_stream(carrier, f, g, 12))))
    for name, case in sorted(TRACE_CASES.items()):
        outputs["trace", name] = case()
    capsys.readouterr()
    return outputs


# The digest each output that holds a finite space had while a space was
# written as the list of its open sets, {"points": n, "opens": [[x, ...], ...]}
# in increasing mask order.
OPENS_FORM_DIGESTS = {
    ('check', 'finite_full', 'BS', 8):
        "8a7b36d74d4a37ff4e87a33055e292ea4620b3ffc325de180bf7f4a24459b054",
    ('check', 'finite_full', 'BS', 64):
        "79029a926cfd4ca8dcfa6688cfc735a33f57ea8fa2b74f0385db6e60bce70cd8",
    ('check', 'finite_full', 'C', 8):
        "01b1974b0eae43f798a6e19655dab4eeb91b1485b6718d496064bca61792b98d",
    ('check', 'finite_full', 'C', 64):
        "33dc4e3ba5b5ebed5721787a8556471d3b39a46e053785a332d80019b5948777",
    ('check', 'finite_full', 'D', 8):
        "a04ae2c16fcd064835a63e617776252f5078c0f2188fe3e61d1a266dac162674",
    ('check', 'finite_full', 'D', 64):
        "90de0f64bd75ba3c788edc27a41caaed089460f9018d0cf7c0d3a7c0cf1ee466",
    ('check', 'finite_full', 'L', 8):
        "892ff30fe673292ea86dfe5fe657933043582440e1392b9df8b57d40123c16d5",
    ('check', 'finite_full', 'L', 64):
        "132cb5caeff7a0ce8b27cdda870a5425cfb1fcf68ef70c8fe42440a6407f9b76",
    ('check', 'finite_full', 'N', 8):
        "5d5b636b8160d846d97cd8c5876423020bc2c354626dc100a9d88d42f84da322",
    ('check', 'finite_full', 'N', 64):
        "16cef8a46e6ed3b2bfcf918930bd93e66acf57aa80bc490bb3afc8d357f64c00",
    ('check', 'finite_full', 'S', 8):
        "24372f85a3b85482cdd0e0fe66479cc3c916740da14720e0ff88112c85eaad00",
    ('check', 'finite_full', 'S', 64):
        "5065ff67e3e56dfa403af8e1fce6ca8ad1452d2c85bf44832bb4ea65155abf16",
    ('check', 'finite_full', 'SL', 8):
        "2d87e25bf48c78f8bb1aa7925aebe524dbf31a84c7a937eb9cad74815b8e9148",
    ('check', 'finite_full', 'SL', 64):
        "0751ee3400e4a2753ecd6ba5cce3b86eeff1c8f33f98958343d77b86c8821dab",
    ('check', 'finite_full', 'T', 8):
        "f867db64fd472b9f981456663e376c0998e0dc23f294485321d38aad01361da0",
    ('check', 'finite_full', 'T', 64):
        "f634af96181a76cf063cf148644e91166b05251f4acebea592f9ba456ea9b2a8",
    ('reproduce', 'tong-merge'):
        "c96f9db505b964abc3224c866a5ba15c6981c7b44a422296e2577880c4bb1aaa",
    ('urysohn', 'finite-5pt'):
        "6bb0c639a15a7b7d487e4b8c2323b0cfb37afbd4e75e2b16b0196fc83e2c3028",
    ('urysohn', 'finite-on-grid'):
        "a5dc05cf833d67bde1525f2d4bfa9209955c260c00ccb767820f9ed1f07680ee",
    ('trace', 'iteration-finite'):
        "8ccb7649d7a6325d22349af486407602d95ddd7ccd1377c401e5b74510fd5e18",
    ('trace', 'merge-finite-5pt'):
        "5581b27a86c354e177e67ee3c20f1d21db72962aa0bb3b184fec405df5fd434d",
}


def _opens_form(node):
    """A JSON value with each finite space written as its open sets."""
    if isinstance(node, dict):
        if set(node) == {"points", "up"}:
            n = node["points"]
            masks = [sum(1 << y for y in row) for row in node["up"]]
            return {"points": n, "opens": [[x for x in range(n) if u >> x & 1]
                                           for u in sorted(up_sets_scan(n, masks))]}
        return {key: _opens_form(child) for key, child in node.items()}
    if isinstance(node, list):
        return [_opens_form(child) for child in node]
    return node


def test_repinned_outputs_differ_only_in_the_space_encoding(tmp_path, capsys):
    """The outputs that hold a finite space are exactly those re-pinned when
    spaces went from open-set lists to ``up`` rows, and each one, with every
    space written back as its open sets (and a check report's certificate in
    the own-route form, then the copy form), is byte for byte the output pinned before: the CLI's
    compact line, or ``json.dumps(..., sort_keys=True)``."""
    outputs = _pinned_outputs(tmp_path, capsys)
    assert {key for key, out in outputs.items() if _spaces(out)} == set(OPENS_FORM_DIGESTS)
    for key, old in OPENS_FORM_DIGESTS.items():
        opens_form = _opens_form(_copy_form(_own_route_form(outputs[key]))
                                 if key[0] == "check" else outputs[key])
        if key[0] in ("check", "reproduce"):
            text = json.dumps(opens_form, sort_keys=True, separators=(",", ":")) + "\n"
        else:
            text = json.dumps(opens_form, sort_keys=True)
        assert _digest(text) == old, key


# The digest of each output that changed when countable claims on seq_x_end
# went from truncated certificates to their closed-form rule: (check stdout,
# replay stdout) per check case, (stdout,) per reproduce id.  Every other
# digest above stayed as it was.
TRUNCATED_FORM_DIGESTS = {
    ('check', 'seq_x_end', 'BS', 8): (
        "a8f4af8ba92222fa20e9c012abfde562746b17d0022e9f7df5cf5a0a14ab99ce",
        "e62f42e5f069ed48774c8eca26e68082a9628771f8705433ab6e23d84dc49e15"),
    ('check', 'seq_x_end', 'BS', 64): (
        "75e5c97ce337d0496e8e5538e46f8a7cb2f212916eafa9d7a8c371ab4f82d0af",
        "e62f42e5f069ed48774c8eca26e68082a9628771f8705433ab6e23d84dc49e15"),
    ('check', 'seq_x_end', 'L', 8): (
        "64ae6fef8cc9029bdc65e3c368b06fee08e18fb0da4028d00d9f46aa0322c43f",
        "4cb3faeaed8ffb3c3f829ce47c44d29e5a6db520b0c055009e2764362635b373"),
    ('check', 'seq_x_end', 'L', 64): (
        "5b2d10b15fd422b559fbbe48cf5cc992ce3925308e6d48580dddb6df334cbb9d",
        "4cb3faeaed8ffb3c3f829ce47c44d29e5a6db520b0c055009e2764362635b373"),
    ('check', 'seq_x_end', 'S', 8): (
        "344707d7260d5f8bb7c10aa76522060a6c23775503c3c3b984805a273d96248d",
        "3cd38f99d21324d37479fe46d1aee5e5a05544cd7e4a84cc62f6a3438bb40868"),
    ('check', 'seq_x_end', 'S', 64): (
        "73df0a918afab2af476e5ca31d7903f27e211f84fd7a1a6a2e24faeca6035e10",
        "3cd38f99d21324d37479fe46d1aee5e5a05544cd7e4a84cc62f6a3438bb40868"),
    ('check', 'seq_x_end', 'SL', 8): (
        "187a0b6907f95287c45f951cce199621717ba55872b34cceaecd9d21b7c90aa8",
        "7f966929accd84e46825f941468335015a986a616abb151af4e5bf2d4ace23e0"),
    ('check', 'seq_x_end', 'SL', 64): (
        "c2004bcc60ff0f555bb9ceb095f210a0620df18581d081f9efc6164d85835192",
        "7f966929accd84e46825f941468335015a986a616abb151af4e5bf2d4ace23e0"),
    ('check', 'seq_x_end', 'T', 8): (
        "488d9499221877e8397be9e150414dc0939c05bc72b6616489310e609c715c43",
        "1f86fb365eba068e93c2ee338a7d471c1813a68733b01faad8e780c55316cba8"),
    ('check', 'seq_x_end', 'T', 64): (
        "f6d64304415b8fc06d1023d2cdb2f142284aa5ffb30b3262ef6c7f23985c16c9",
        "1f86fb365eba068e93c2ee338a7d471c1813a68733b01faad8e780c55316cba8"),
    ('reproduce', 'KT-thresholds'): (
        "b78e068eb3f58ced28513c010385d44912259796610804bd30767dccfa685b89",),
    ('reproduce', 'chi-evens-no-insertion'): (
        "f8847a6471f53880fa561747158f7320bfe34fed7f33d42f2a6fbc2d4aee2250",),
    ('reproduce', 'noncompact-C-failure'): (
        "6cd806d35921ea7f24360e88a0929a095a0b4ef4f3ae759fddcb3f0161cf3731",),
}

# Each replay row the closed-form rule renamed -> its name before.
TRUNCATED_FORM_ROWS = {
    "closed form is its endpoint": "residual within bound",
    "member k is eps + delta > eps/2 at index k": "each pick is its member's value, above eps/2",
}
# The depth each catalog condition report was checked at.
CATALOG_DEPTHS = {"chi-evens-no-insertion": 64, "noncompact-C-failure": 8, "KT-thresholds": 32}


def _truncated_form(report, depth):
    """A condition report as written while countable claims on seq_x_end were
    certified at a truncation depth: each (T)/(BS)/(S) side with that depth,
    the residual bound 1/depth and its largest residual, min(1/depth, spread
    of the closed form), and each (L) certificate with one pick per index
    below depth, worth epsilon + delta.  Other reports are left alone."""
    if report["model"] != "seq_x_end":
        return report
    cert = report["certificate"]
    if report["condition"] == "SL":
        _truncated_form({**report, "condition": "L", "certificate": cert["L"]}, depth)
    if report["condition"] == "L":
        top = Fraction(cert["epsilon"]) + Fraction(cert["delta"])
        cert["picks"] = [{"index": k, "member": k, "value": str(top)} for k in range(depth)]
    for side in ("meet_side", "join_side"):
        if side in cert:
            h = cert[side][f"closed_form_{side[:-5]}"]
            values = [Fraction(v) for v in h["prefix"] + h["cycle"]]
            norm, bound = max(map(abs, values)), Fraction(1, depth)
            spread = norm - min(values) if side == "meet_side" else norm + max(values)
            cert[side].update(depth=depth, residual_bound=str(bound),
                              max_residual=str(min(bound, spread)))
    return report


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def test_repinned_outputs_differ_only_by_the_truncated_certificates(tmp_path, capsys):
    """The outputs re-pinned for the closed-form rule are exactly those the
    truncated form changes, and each one, written back in that form (after
    the copy form), is byte for byte the output pinned before: a check report
    with its residual keys and picks, its replay output with each renamed row
    under its old name, a catalog condition report with its ``depth``."""
    changed = set()
    for key in sorted(CHECK_DIGESTS):
        path = _check_report(tmp_path, *key)
        capsys.readouterr()
        assert main(["replay", str(path)]) == 0
        replayed = json.loads(capsys.readouterr().out)
        report = _copy_form(json.loads(path.read_text()))
        old = _truncated_form(json.loads(json.dumps(report)), key[2])
        for check in replayed["checks"]:
            for row, was in TRUNCATED_FORM_ROWS.items():
                check["check"] = check["check"].replace(row, was)
        if old != report:
            changed.add(("check", *key))
            assert (_digest(_compact(old)), _digest(_compact(replayed))) == \
                TRUNCATED_FORM_DIGESTS["check", *key], key
    assert set(CATALOG_DEPTHS) == set(CATALOG_CONDITION_REPORTS)
    for example_id, depth in sorted(CATALOG_DEPTHS.items()):
        assert main(["reproduce", example_id]) == 0
        old = _catalog_copy_form(json.loads(capsys.readouterr().out))
        old["certificates"][0]["depth"] = depth
        changed.add(("reproduce", example_id))
        assert (_digest(_compact(old)),) == TRUNCATED_FORM_DIGESTS["reproduce", example_id]
    assert changed == set(TRUNCATED_FORM_DIGESTS)


# The check stdout each output had while certificates repeated the instance
# values their routes read, and the reproduce stdout of noncompact-C-failure
# while its route filled in epsilon 1, delta 1/2 and cap 4 and its instance
# was empty.  Every replay digest stayed as it was.
COPY_FORM_DIGESTS = {
    ('check', 'finite_full', 'C', 8):
        "d46da1b2ee06381cac12cadd5579181be349439490f1a489eca2387d8668cad5",
    ('check', 'finite_full', 'C', 64):
        "1541a9090f1efed4b339aa1f4695dc870532f7642af2e65898f9423ebd6a6d88",
    ('check', 'finite_full', 'D', 8):
        "b2bc3ee93ede07b5626ad9673294a178f55fb5d2ffcc3be5c35c065cb8c1fd24",
    ('check', 'finite_full', 'D', 64):
        "4ca3092f660475f63ba865ba44e2ae8ab6ef3d37c8a3454b36744ed78e5b3af8",
    ('check', 'finite_full', 'L', 8):
        "7bd4a22c118b9afce40c3017326e4eb36d9f9e094484332a04d8665460d50350",
    ('check', 'finite_full', 'L', 64):
        "58b4489c9a4d2765038a85433091b753f46a14a0b07717b8eee09634ada02627",
    ('check', 'finite_full', 'SL', 8):
        "71474c2bb415be25c7b7cf80f06d794dcece062cf92efe0c9b508358faf860c0",
    ('check', 'finite_full', 'SL', 64):
        "e8c1f696e0a693263704a932b14d54e1b859cb8fba3ebcbfc642aa96d0997f60",
    ('check', 'seq_x_end', 'C', 8):
        "52c7ebc961bdabc42a55c8973cb24454375bbb2dceaefd9e030281e75f2e0c6c",
    ('check', 'seq_x_end', 'C', 64):
        "5994a861a9391de36fd8c6c91ef027242a8f97be766a8aa224f1aaea35a348f3",
    ('check', 'seq_x_end', 'D', 8):
        "dbba093d30e321c36b6dc9b4820e52296b804955961a23fc81bed5543a8d037a",
    ('check', 'seq_x_end', 'D', 64):
        "8d72264c6502a8cf8dac94da904c2bbdfdec3adb34f8025fad329e71a2ed291a",
    ('check', 'seq_x_end', 'L', 8):
        "ca1b92d4deba08000220ecab5333b4569c93b41ed3348d208b53da715ddbda82",
    ('check', 'seq_x_end', 'L', 64):
        "f07b295e6ec14177d0397274fa27ad48e014130d51c33dec6ba7919fdc8f107c",
    ('check', 'seq_x_end', 'SL', 8):
        "1a7815391be0c06a0c48382992077a5f87717a6d7975396e2170bcbb4114127e",
    ('check', 'seq_x_end', 'SL', 64):
        "e99397e4e262942c60a7f85615b64e182dd483ea7fa8d1b8122a470e438353d2",
    ('check', 'seq_y_end', 'C', 8):
        "2f802ce3594aed509adb3a0f34ea5b82cc85ad21379f01c50728444e5139afa2",
    ('check', 'seq_y_end', 'C', 64):
        "6ee145de0f1e285a852f0e2570747e47045a51111e10ecdcd683a2bd76350a43",
    ('check', 'seq_y_end', 'D', 8):
        "a757a34eb32a3d6a5441d00c7525744d14eab3749e059992065eb618e1bc0f27",
    ('check', 'seq_y_end', 'D', 64):
        "ded43d145bba5c1327b76315c7f8d9af5f781107e92a975bfc2eed1d13132de1",
    ('check', 'seq_y_end', 'L', 8):
        "9bcf37bcc390771d39eefb61032d0c5a46f39959c1c9cde670d43970f1c33f95",
    ('check', 'seq_y_end', 'L', 64):
        "f24263714e52e80811ae4a5c00a19f3dbc1599937c594c07db49397b34d57589",
    ('check', 'seq_y_end', 'SL', 8):
        "822add9aac1b1eece5d3b3c237b7fea27afd718d943964ee38805d6cfc499c58",
    ('check', 'seq_y_end', 'SL', 64):
        "e1decbc13268f8a8d0c4be64b30e3acf6fac8e005e3d1b71ca59169a398d1681",
    ('reproduce', 'noncompact-C-failure'):
        "9f3e776d7ce878978c739d96d77fad5279e477a9866b6d030c2aead97bf816b3",
}

# The instance values a (D), (C) or (L) certificate repeated.
COPIED_KEYS = ("epsilon", "delta", "family")


def _copy_form(report):
    """A condition report as written while certificates repeated the
    instance: each (D), (C) and (L) certificate, and the (L) part of an (SL)
    one, with a copy of the instance's epsilon, delta and family.  Other
    reports are left alone."""
    cond, cert = report.get("condition"), report.get("certificate")
    if cond == "SL":
        _copy_form({**report, "condition": "L", "certificate": cert["L"]})
    elif cond in ("D", "C", "L"):
        cert.update({key: report["instance"][key] for key in COPIED_KEYS
                     if key in report["instance"]})
    return report


def _catalog_copy_form(out):
    """A reproduce output as written while the noncompact (C) route filled in
    its values: each condition report in the copy form, and that report's
    instance empty."""
    for cert in out["certificates"]:
        _copy_form(cert)
    if out["example"] == "noncompact-C-failure":
        out["certificates"][0]["instance"] = {}
    return out


def test_repinned_outputs_differ_only_by_the_instance_copies(tmp_path, capsys):
    """The outputs re-pinned when the instance became the one copy of every
    value a route reads are exactly those the copy form changes, and each
    one, written back in that form (after the own-route form), is byte for
    byte the output pinned before; no replay output moved."""
    changed = set()
    for key in sorted(CHECK_DIGESTS):
        report = _own_route_form(json.loads(_check_report(tmp_path, *key).read_text()))
        old = _copy_form(json.loads(json.dumps(report)))
        if old != report:
            changed.add(("check", *key))
            assert _digest(_compact(old)) == COPY_FORM_DIGESTS["check", *key], key
    capsys.readouterr()
    for example_id in sorted(CATALOG):
        assert main(["reproduce", example_id]) == 0
        out = json.loads(capsys.readouterr().out)
        old = _catalog_copy_form(json.loads(json.dumps(out)))
        if old != out:
            changed.add(("reproduce", example_id))
            assert _digest(_compact(old)) == COPY_FORM_DIGESTS["reproduce", example_id]
    assert changed == set(COPY_FORM_DIGESTS)
    assert {key[1:3] for key in changed if key[0] == "check"} == {
        (m, c) for m, c in INSTANCES if c in ("D", "C", "L", "SL")}


# The check stdout of each finite_full entry that moved when every condition
# route was written once, over each model's insertion and cover: while
# finite_full wrote its own routes, its (T) and (BS) certificates had b_seq
# [g] and its (D) witness was (f + g)/2.  Every replay digest stayed as it
# was, and so did every other check digest: the (C) and (L) subfamilies of
# the pinned covers are the same under the shared rule.
OWN_ROUTE_DIGESTS = {
    ('finite_full', 'BS', 8):
        "651567641efb00d2ca0f728bcaf5f96273b5812196d6303e6b78a633b40a4ecc",
    ('finite_full', 'BS', 64):
        "39cdc8625f6d1068a8a02a1e9cd9556d252eff1bce81322ea78f678864bd8425",
    ('finite_full', 'D', 8):
        "d491ca4dccb617d4d137ef49ad886e6edc6cf25ec4767a136e86ae805a0bec3f",
    ('finite_full', 'D', 64):
        "c68aa6abb6a2c0efb58d9c9e39cebfee5e6a96528f3ea57fb9a5688dde0272cb",
    ('finite_full', 'T', 8):
        "4ad117ab0d3885da76e965af8428ce10b2048dc74e48c175ae1cc2ccc350f20f",
    ('finite_full', 'T', 64):
        "ad55ad7106f9fd67cab837cfd4f5033c16173c1731860954494a4c181c0d5723",
}
OWN_ROUTE_TAMPERED_DIGEST = "af19fa58caefb2d21efd99820ea33a3dcc711e0b602b4ba9782e4e6b81b7fbc2"


def _own_route_form(report):
    """A check report as written while finite_full wrote its own routes: each
    finite_full (T) and (BS) certificate with b_seq [g], and each (D) one
    with the witness (f + g)/2.  Other reports are left alone."""
    if str(report.get("model")).startswith("finite_full"):
        cert, inst = report["certificate"], report["instance"]
        if report["condition"] in ("T", "BS"):
            cert["b_seq"] = [json.loads(json.dumps(inst["g"]))]
        elif report["condition"] == "D":
            f, g = inst["f"], inst["g"]
            cert["witness"] = {"space": json.loads(json.dumps(f["space"])), "values": [
                str((Fraction(x) + Fraction(y)) / 2) for x, y in zip(f["values"], g["values"])]}
    return report


def test_repinned_outputs_differ_only_by_the_shared_routes(tmp_path, capsys):
    """The check outputs re-pinned when each route was written once are
    exactly those the own-route form changes, and each one, written back in
    that form, is byte for byte the output pinned before."""
    changed = set()
    for key in sorted(CHECK_DIGESTS):
        report = json.loads(_check_report(tmp_path, *key).read_text())
        old = _own_route_form(json.loads(json.dumps(report)))
        if old != report:
            changed.add(key)
            assert _digest(_compact(old)) == OWN_ROUTE_DIGESTS[key], key
    capsys.readouterr()
    assert changed == set(OWN_ROUTE_DIGESTS)


def test_tampered_replay_of_the_own_route_form_gives_the_digest_pinned_before(
        tmp_path, capsys):
    """Tampering the own-route form gives byte for byte the outputs pinned
    before each route was written once."""
    outputs = _tampered_outputs(tmp_path, "own")
    capsys.readouterr()
    assert _digest(json.dumps(outputs, sort_keys=True)) == OWN_ROUTE_TAMPERED_DIGEST


def _another_space(space):
    """A valid space other than ``space``: the discrete one on its points, or
    the indiscrete one when it is discrete (two points when it has one)."""
    n = space["points"]
    discrete = {"points": n, "up": [[x] for x in range(n)]}
    if space != discrete:
        return discrete
    return {"points": n, "up": [list(range(n))] * n} if n > 1 else \
        {"points": 2, "up": [[0], [1]]}


def test_every_finite_function_of_a_payload_carries_its_one_space(tmp_path, capsys):
    """Replay reads one space per payload: in every pinned report that holds
    a finite space, deleting any finite function's ``space/up``, or giving it
    another valid space, makes the payload malformed.  A Urysohn output is
    its certificate, since the joined function beside it is no payload."""
    reports = {key: out[1] if key[0] == "urysohn" else out
               for key, out in _pinned_outputs(tmp_path, capsys).items() if _spaces(out)}
    tampered = 0
    for key, report in reports.items():
        assert verify_report(report)["ok"], key
        for i in range(len(_finite_elements(report))):
            for edit in (lambda d: d["space"].pop("up"),
                         lambda d: d.__setitem__("space", _another_space(d["space"]))):
                copy = json.loads(json.dumps(report))
                edit(_finite_elements(copy)[i])
                with pytest.raises(replay_mod.MalformedPayload):
                    verify_report(copy)
                tampered += 1
    assert (len(reports), tampered) == (21, 298)


@pytest.mark.parametrize("space", [{"points": 2.0, "up": [[0], [True]]},
                                   {"points": 2.0, "up": [[0], [1]]},
                                   {"points": 2, "up": [[0], [True]]},
                                   {"points": 2, "up": [[0.0], [1]]}])
def test_one_space_check_tells_an_int_from_a_float_or_a_bool(space):
    """A later element's space that equals the payload's only when 2.0 or
    true is read as an int is another space, so the payload is malformed."""
    two = FiniteSpace.discrete(2)
    merge = to_jsonable(tong_merge([_finite_func(two, ["0", "1"])] * 2,
                                   [_finite_func(two, ["1", "2"])] * 2))
    assert verify_report(merge)["ok"]
    for elem in _finite_elements(merge)[1:]:
        elem["space"] = json.loads(json.dumps(space))
    with pytest.raises(replay_mod.MalformedPayload, match="finite functions on different spaces"):
        verify_report(merge)


@pytest.mark.parametrize("edit,named", [
    (lambda space: space.update(opens=[]), "a space has exactly the keys points and up"),
    (lambda space: space["up"][2].append(2), "the space's up rows are not 3 increasing rows"),
    (lambda space: space["up"][0].reverse(), "the space's up rows are not 3 increasing rows"),
], ids=["extra-key", "repeated-point", "reversed-row"])
def test_replay_reads_a_space_in_one_spelling(edit, named):
    """A space is exactly ``points`` and ``up``, each row strictly increasing,
    as the serializer writes it; the same edit to every space of a merge
    trace over the 3-point chain makes the payload malformed."""
    chain = FiniteSpace(3, [0b111, 0b110, 0b100])
    merge = to_jsonable(tong_merge([_finite_func(chain, ["0", "1", "2"])] * 2,
                                   [_finite_func(chain, ["1", "2", "2"])] * 2))
    assert _finite_elements(merge)[0]["space"]["up"] == [[0, 1, 2], [1, 2], [2]]
    assert verify_report(merge)["ok"]
    for elem in _finite_elements(merge):
        edit(elem["space"])
    with pytest.raises(replay_mod.MalformedPayload, match=named):
        verify_report(merge)


def test_replay_reads_each_instance_value_from_the_instance(tmp_path, capsys):
    """Replay reads epsilon, delta, the family and the cap from the instance,
    their one copy: a moved value fails the row that reads it (a nonpositive
    epsilon included), and a deleted one makes the payload malformed, named
    by the CLI."""
    report = json.loads(_check_report(tmp_path, "finite_full", "C", 8).read_text())
    cover = {"check": "C holds: full family covers at level eps", "ok": False}
    for epsilon in ("99", "0", "-1"):
        out = verify_report({**report, "instance": {**report["instance"], "epsilon": epsilon}})
        assert not out["ok"] and cover in out["checks"]
    report["instance"]["family"][0]["values"] = ["-5", "-5", "-5"]
    out = verify_report(report)
    assert not out["ok"] and {"check": "C holds: recorded join minimum matches", "ok": False} \
        in out["checks"]
    path = _check_report(tmp_path, "seq_x_end", "C", 8)
    report = json.loads(path.read_text())
    assert report["instance"] == {"delta": "1/2", "epsilon": "1", "subfamily_cap": 3}
    assert report["certificate"].keys() == {"defeats"}
    out = verify_report({**report, "instance": {**report["instance"], "delta": "1/3"}})
    assert out["checks"] == [{"check": "C fails: every listed subfamily defeated", "ok": False}]
    del report["instance"]["subfamily_cap"]
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(
        "input error: /: malformed condition payload (KeyError: 'subfamily_cap')")


# Keys of a report's envelope, which replay does not read; "expected" and
# "depth" echo the scenario, "assertions" holds golden facts and "instance"
# the scenario input, so neither of the last two is walked.
ENVELOPE_KEYS = {"expected", "depth", "example", "certificates", "assertions", "instance"}


def _keys(node):
    """Every dict key in a JSON value, not descending into assertions or instance."""
    if isinstance(node, dict):
        return set(node).union(*(_keys(v) for k, v in node.items()
                                 if k not in ("assertions", "instance")))
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    return set()


@functools.cache
def _replay_defs() -> dict:
    """replay.py's top-level functions and classes, by name."""
    with open(replay_mod.__file__) as fh:
        tree = ast.parse(fh.read())
    return {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}


def _strings(node) -> set:
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _verifiers() -> dict:
    """Each verifier verify_report dispatches to -> its payload kind, read from
    its ``verify(kind, verifier, payload)`` calls."""
    return {call.args[1].id: call.args[0].value
            for call in ast.walk(_replay_defs()["verify_report"])
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "verify"}


def _named_by_kind() -> dict:
    """Each payload kind -> the strings its verifier names, with those of every
    replay function it calls (directly or not); "envelope" -> the strings of
    _Reader and of verify_report's dispatch, which every kind names too."""
    defs = _replay_defs()
    named = {"envelope": _strings(defs["_Reader"]) | _strings(defs["verify_report"])}
    for verifier, kind in _verifiers().items():
        seen, todo = set(), [verifier]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += [n.id for n in ast.walk(defs[name])
                         if isinstance(n, ast.Name) and n.id in defs]
        named[kind] = named["envelope"].union(*(_strings(defs[name]) for name in seen))
    return named


def _payloads(outputs, monkeypatch) -> dict:
    """id of each payload verify_report hands a verifier -> its kind; a payload
    a verifier builds and verifies inside another is part of the outer one."""
    found, depth = {}, [0]
    for name, kind in _verifiers().items():
        def recording(payload, checks, kind=kind, verifier=getattr(replay_mod, name)):
            if not depth[0]:
                found[id(payload)] = kind
            depth[0] += 1
            try:
                verifier(payload, checks)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(replay_mod, name, recording)
    for out in outputs:
        verify_report(out)
    monkeypatch.undo()
    return found


def _unread_keys(outputs, monkeypatch) -> list:
    """(kind, key) for each key of a payload that its kind does not name, and
    ("envelope", key) for each key outside every payload that is neither an
    envelope key nor named by "envelope"."""
    named = _named_by_kind()
    payloads = _payloads(outputs, monkeypatch)
    unread = set()

    def walk(node):
        if isinstance(node, dict):
            kind = payloads.get(id(node))
            if kind is not None:
                unread.update((kind, key) for key in _keys(node) - named[kind] - ENVELOPE_KEYS)
                return
            unread.update(("envelope", key)
                          for key in set(node) - named["envelope"] - ENVELOPE_KEYS)
            for key, child in node.items():
                if key not in ("assertions", "instance"):
                    walk(child)
        elif isinstance(node, list):
            for child in node:
                walk(child)

    walk(outputs)
    return sorted(unread)


def test_every_certificate_key_is_read_by_replay(tmp_path, monkeypatch):
    """A certificate carries only keys that the verifier of its payload kind
    names: a key replay never reads there certifies nothing, even when another
    kind's verifier reads a key of that name."""
    outputs = [json.loads(_check_report(tmp_path, model, cond, 8).read_text())
               for model, cond in sorted(INSTANCES)]
    for example_id in sorted(CATALOG):
        report = CATALOG[example_id]()
        if verify_report(report)["verified"]:
            outputs.append(report)
    outputs += [to_jsonable(urysohn_join_stream(carrier, f, g, 12))
                for carrier, f, g in URYSOHN_CASES.values()]
    outputs += [case() for case in TRACE_CASES.values()]
    assert _unread_keys(outputs, monkeypatch) == []


def test_key_guard_names_a_key_that_only_another_kind_reads(monkeypatch):
    """``family`` is read by the (C)/(L) branch of the condition verifier, and
    by nothing a merge trace goes through: replay refuses it in a merge trace,
    and with that refusal switched off the guard still names it there."""
    merge = TRACE_CASES["merge-seq-9"]()
    assert _unread_keys([merge], monkeypatch) == []
    merge["family"] = []
    assert _malformed(merge) == ("/: malformed merge payload "
                                 "(ValueError: a key no check reads: 'family')")
    assert "family" in _strings(ast.parse(open(replay_mod.__file__).read()))
    monkeypatch.setattr(replay_mod, "_keys", lambda *args: None)
    assert verify_report(merge)["ok"]
    assert _unread_keys([merge], monkeypatch) == [("merge", "family")]
