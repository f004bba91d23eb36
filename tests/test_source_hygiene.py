"""Source hygiene: every name a module imports is used in that module, every
function and class the library defines has a caller in the library or the
benchmark, the scenario reader holds no copy of a model's value check, no
condition route or replay reads a depth, replay reads elements only through
its reader, no finite-space route takes a space beside a function on it,
no route or replay reads an instance key through ``.get`` and no certificate
repeats a key of its instance, every name the benchmark's tracer
wraps still exists, the tracer still reads what the library emits, and every
library function but a committed few runs on a CLI path."""

import ast
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from normlab.conditions import (CONDITIONS, FiniteFullModel, SeqXEndModel, SeqYEndModel,
                                check_condition)
from normlab.finite_space import FiniteFunc, FiniteSpace
from normlab.replay import verify_report
from normlab.seq_model import SeqFunc
from normlab.serialize import to_jsonable

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "normlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing else in the module reads.

    A package ``__init__`` re-exports through ``__all__``, so names listed
    there count as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "import os\nfrom a import b, c as d\nfrom __future__ import annotations\nd()\n"
    assert unused_imports(source) == ["b (line 2)", "os (line 1)"]


def unreferenced_definitions(sources: dict[str, str], defining: list[str]) -> list[str]:
    """Functions, classes and methods of the ``defining`` sources whose name
    appears in no source outside their own definition.

    A name appears as a variable, an attribute, or a string constant (the
    benchmark's tracer wraps functions by name).  A method is reached only
    through an attribute or a string, so a variable or parameter of the same
    name does not count for it.  Dunder methods are called by the language,
    and ``cond_*`` routes by ``check_condition``'s name lookup.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = []  # (name, read as a variable, source, line)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((node.id, True, name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, False, name, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses.append((node.value, False, name, node.lineno))
    out = []
    for name in defining:
        methods = {id(member) for cls in ast.walk(trees[name]) if isinstance(cls, ast.ClassDef)
                   for member in cls.body}
        for node in ast.walk(trees[name]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            d = node.name
            if (d.startswith("__") and d.endswith("__")) or d.startswith("cond_"):
                continue
            if not any(u == d and not (as_variable and id(node) in methods)
                       and (where != name or not node.lineno <= line <= node.end_lineno)
                       for u, as_variable, where, line in uses):
                out.append(f"{name}:{node.lineno} {d}")
    return out


def test_library_defines_nothing_only_tests_reach():
    """Code that only the tests call belongs with the tests."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in paths}
    library = [str(p.relative_to(ROOT)) for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_definitions(sources, library) == []


def test_unreferenced_definition_is_found():
    sources = {"lib.py": "def used():\n    pass\n\n\ndef own():\n    own()\n\n\n"
                         "class Model:\n    def cond_t(self):\n        pass\n\n"
                         "    def __init__(self):\n        pass\n",
               "caller.py": "import lib\nlib.used()\n"}
    assert unreferenced_definitions(sources, ["lib.py"]) == ["lib.py:5 own", "lib.py:9 Model"]


def test_method_hidden_by_a_variable_is_found():
    sources = {"lib.py": "class Seq:\n    def support(self):\n        pass\n\n"
                         "    def shown(self):\n        pass\n\n"
                         "    def named(self):\n        pass\n",
               "caller.py": "from lib import Seq\nsupport = [1]\n\n\n"
                            "def constant(named=False):\n    return Seq().shown(), named, support\n"}
    assert unreferenced_definitions(sources, ["lib.py"]) == [
        "lib.py:2 support", "lib.py:8 named"]


def test_reader_leaves_value_checks_to_the_models():
    """The scenario reader checks syntax, encoding, keys and bounds; each value
    check has one owner, the model's route, so no copy of one creeps back into
    the reader, and ``_instance`` treats every model alike."""
    tree = ast.parse((SRC / "serialize.py").read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} \
        | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert read & {"first_violation", "semicontinuity_on_y", "has_omega"} == set()
    instance = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == "_instance")
    model_names = {"finite_full", "seq_x_end", "seq_y_end"}
    assert [n.value for n in ast.walk(instance)
            if isinstance(n, ast.Constant) and n.value in model_names] == []
    assert [n.lineno for n in ast.walk(instance) if isinstance(n, ast.Compare)
            and any(isinstance(x, ast.Name) and x.id == "model"
                    for x in [n.left, *n.comparators])] == []


def depth_reads(source: str) -> list[int]:
    """Lines that name ``depth``: as a parameter, a variable, an attribute or
    a string constant (a key read by subscript or ``.get``)."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.arg) and n.arg == "depth"
                   or isinstance(n, ast.Name) and n.id == "depth"
                   or isinstance(n, ast.Attribute) and n.attr == "depth"
                   or isinstance(n, ast.Constant) and n.value == "depth"})


def test_no_condition_route_or_replay_reads_depth():
    """Countable claims are certified by closed-form rules, so no ``cond_*``
    route, ``check_condition`` or anything else in ``conditions.py`` takes or
    reads a ``depth``, and neither does replay."""
    source = (SRC / "conditions.py").read_text()
    routes = [n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)
              and (n.name.startswith("cond_") or n.name == "check_condition")]
    assert {"check_condition", "cond_t", "cond_c", "cond_l"} <= set(routes)
    assert depth_reads(source) == []
    assert depth_reads((SRC / "replay.py").read_text()) == []


def test_depth_read_is_found():
    source = ("def cond_t(self, instance, depth):\n    pass\n\n\n"
              "def verify(report):\n    return report['depth'], report.get('depth')\n\n\n"
              "x = args.depth\n")
    assert depth_reads(source) == [1, 6, 9]


ELEMENT_KEYS = {"prefix", "cycle", "omega", "values", "space", "points", "up"}


def element_reads(source: str) -> list[str]:
    """Reads of an element key, by subscript or ``.get``, outside ``_Reader``.

    The geometric-tail branch of ``_verify_ideal`` (under ``if "ratio" in``)
    may read a tail's prefix: that encoding has no cycle, so the reader does
    not know it.
    """
    out = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", type(top).__name__)
        if name == "_Reader":
            continue
        allowed = set()
        if name == "_verify_ideal":
            for node in ast.walk(top):
                if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                        and isinstance(node.test.left, ast.Constant)
                        and node.test.left.value == "ratio"):
                    allowed |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
        for node in ast.walk(top):
            if isinstance(node, ast.Subscript):
                key = node.slice
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and node.args):
                key = node.args[0]
            else:
                continue
            if (isinstance(key, ast.Constant) and key.value in ELEMENT_KEYS
                    and id(node) not in allowed):
                out.append(f"{name}:{node.lineno} {key.value}")
    return out


def test_replay_reads_elements_only_through_its_reader():
    """Only the replay reader knows the element encoding."""
    assert element_reads((SRC / "replay.py").read_text()) == []


def test_element_read_outside_the_reader_is_found():
    source = ('class _Reader:\n    def seq(self, d):\n        return d["cycle"]\n\n\n'
              'def _verify_x(p, checks):\n    return p["f"]["values"], p.get("omega")\n\n\n'
              'def _verify_ideal(payload, checks):\n    elem = payload["element"]\n'
              '    if "ratio" in elem:\n        return elem.get("prefix", [])\n'
              '    return elem["prefix"]\n\n\n'
              'def _verify_y(p, checks):\n    return len(p["f"]["space"]["up"])\n')
    assert element_reads(source) == [
        "_verify_x:7 values", "_verify_x:7 omega", "_verify_ideal:14 prefix",
        "_verify_y:18 up", "_verify_y:18 space"]


def space_beside_function(source: str) -> list[str]:
    """Functions with a parameter annotated ``FiniteSpace`` beside one
    annotated ``FiniteFunc``: the function already holds its space.  A
    parameter annotated otherwise (``Sequence[FiniteFunc]``) is not matched."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            kinds = {a.annotation.id for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                     if isinstance(a.annotation, ast.Name)}
            if {"FiniteSpace", "FiniteFunc"} <= kinds:
                out.append(f"{node.lineno} {node.name}")
    return out


def test_finite_routes_take_the_space_from_the_function():
    assert space_beside_function((SRC / "finite_space.py").read_text()) == []


def test_space_beside_function_is_found():
    source = ("def insert(space: FiniteSpace, f: FiniteFunc, g: FiniteFunc):\n    pass\n\n\n"
              "def blocks(space: FiniteSpace, generators: Sequence[FiniteFunc]):\n    pass\n\n\n"
              "def usc(f: FiniteFunc) -> bool:\n    pass\n\n\n"
              "def check(*, space: FiniteSpace, f: FiniteFunc):\n    pass\n")
    assert space_beside_function(source) == ["1 insert", "13 check"]


INSTANCE_KEYS = {"f", "g", "epsilon", "delta", "family", "subfamily_cap"}


def instance_get_reads(source: str) -> list[int]:
    """Lines that read an instance key through ``.get``, which would give a
    default: a ``.get`` call whose key is a string naming an instance key, or
    whose receiver is named ``instance`` or ``inst``."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "get" and n.args
                   and (isinstance(n.args[0], ast.Constant) and n.args[0].value in INSTANCE_KEYS
                        or isinstance(n.func.value, ast.Name)
                        and n.func.value.id in ("instance", "inst"))})


def certificate_copies(report: dict) -> list[str]:
    """Keys of a JSON condition report's instance that its certificate, or
    the (L) or (N) part of an (SL) certificate, holds too."""
    cert, inst = report["certificate"], report["instance"]
    parts = {"": cert}
    if report["condition"] == "SL":
        parts.update({"L/": cert["L"], "N/": cert["N"]})
    return sorted(f"{at}{key}" for at, part in parts.items() for key in part if key in inst)


def _condition_reports() -> list[dict]:
    """The JSON report of every condition on every model, each instance
    holding exactly the keys its route reads."""
    one = FiniteSpace.discrete(1)
    carriers = [(FiniteFullModel(one), lambda v: FiniteFunc(one, [v])),
                (SeqXEndModel(), SeqFunc.constant),
                (SeqYEndModel(), lambda v: SeqFunc.constant(v, with_omega=True))]
    reports = []
    for model, elem in carriers:
        values = {"f": elem(0), "g": elem(1), "epsilon": Fraction(1), "delta": Fraction(1, 2),
                  "subfamily_cap": 2, "family": [elem(2)]}
        for cond in CONDITIONS:
            inst = {key: values[key] for key in model.instance_keys(cond)}
            reports.append(to_jsonable(check_condition(model, cond, inst)))
    return reports


def test_the_instance_is_the_one_copy_of_every_value_a_route_reads():
    """No route and no replay check reads an instance key through ``.get``,
    so none falls back on a default, and no certificate (nor either part of
    an (SL) one) holds a key of its instance."""
    for name in ("conditions.py", "replay.py"):
        assert instance_get_reads((SRC / name).read_text()) == [], name
    reports = _condition_reports()
    assert len(reports) == 24 and all(verify_report(r)["ok"] for r in reports)
    assert [(r["model"], r["condition"], certificate_copies(r)) for r in reports
            if certificate_copies(r)] == []


def test_instance_get_read_and_certificate_copy_are_found():
    source = ("def cond_d(self, instance):\n    return instance.get('epsilon', 1)\n\n\n"
              "def verify(report):\n    inst = report['instance']\n"
              "    return inst.get('cap'), report.get('family'), report.get('trace')\n\n\n"
              "def walk(node):\n    return node.get('trace'), memo.get(v)\n")
    assert instance_get_reads(source) == [2, 7]
    sl = {"condition": "SL", "instance": {"epsilon": "1", "delta": "1/2", "f": {}, "g": {}},
          "certificate": {"L": {"epsilon": "1"}, "L_verdict": "holds",
                          "N": {"witness": {}}, "N_verdict": "holds"}}
    assert certificate_copies(sl) == ["L/epsilon"]
    d = {"condition": "D", "instance": {"epsilon": "1", "f": {}, "g": {}},
         "certificate": {"witness": {}, "epsilon": "1"}}
    assert certificate_copies(d) == ["epsilon"]


def test_benchmark_tracer_installs():
    """bench/tracer.py wraps normlab functions by name, so one removed or
    renamed fails here; it runs in a child process, which the wrappers patch."""
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


TRACED_URYSOHN = """
import json, sys
from fractions import Fraction
import tracer
from normlab import insertion_engine
from normlab.finite_space import FiniteFunc, FiniteSpace
from normlab.seq_model import SeqFunc
t = tracer.Tracer()
tracer.install(t)
if sys.argv[2] == "finite":
    space = FiniteSpace.from_preorder(5, [17, 2, 4, 25, 16])
    carrier = insertion_engine.FiniteUrysohnCarrier(space)
    f = FiniteFunc(space, [Fraction(v) for v in ("2/3", "1", "0", "2/3", "1/6")])
    g = FiniteFunc(space, [Fraction(v) for v in ("5/6", "1", "1/2", "2/3", "5/6")])
else:
    carrier = insertion_engine.YUrysohnCarrier()
    f = SeqFunc.periodic([1, 0], omega=1)
    g = SeqFunc.constant(1, with_omega=True)
_, cert = insertion_engine.urysohn_join_stream(carrier, f, g, 4)
metrics = t.metrics(sys.argv[1])
print(json.dumps({"rows": len(cert["pairs"]),
                  "pairs": metrics["insertion_engine.urysohn_join_stream.pairs"],
                  "distinct": metrics["insertion_engine.urysohn_join_stream.distinct_pair_frac"]}))
"""


TRACED_COMMANDS = """
import contextlib, io, json, sys
import tracer
t = tracer.Tracer()
tracer.install(t)
from normlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["check", sys.argv[2]]), cli.main(["survey", "--max-size", "2"])]
metrics = t.metrics(sys.argv[1])
print(json.dumps({"codes": codes,
                  "conditions": metrics["conditions.check_condition.calls"],
                  "insertions": metrics["finite_space.insert_finite.calls"]}))
"""


def test_benchmark_tracer_hooks_run_at_call_time(tmp_path):
    """The tracer's after-hooks read library names when a traced call returns
    (``conditions.UNKNOWN`` on each condition check, ``finite_space.Infeasible``
    on each finite insertion), so a name they read that is gone fails here,
    though installing the tracer alone would pass."""
    scenario = tmp_path / "sl.json"
    scenario.write_text(json.dumps({
        "model": "seq_x_end", "condition": "SL",
        "instance": {"epsilon": "1", "delta": "1/2", "f": {"cycle": ["1"]},
                     "g": {"cycle": ["1"]}}}))
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", TRACED_COMMANDS, str(ROOT / "src"), str(scenario)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert counts["codes"] == [0, 0]
    assert counts["conditions"] == 3  # (SL) and its (L) and (N) parts
    assert counts["insertions"] > 0


@pytest.mark.parametrize("carrier", ["finite", "y"])
def test_benchmark_tracer_reads_the_urysohn_certificate(carrier):
    """The traced benchmark run counts Urysohn certificate rows from outside the
    library, through each carrier's wrapped separation, so a certificate it
    can no longer read fails here."""
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", TRACED_URYSOHN, str(ROOT / "src"), carrier],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert counts["pairs"] == counts["rows"] > 0
    assert counts["distinct"] == 1.0  # one row per separated level pair


# -- the reach ratchet: every library function runs on a CLI path --------------

REACH = """
import contextlib, importlib, io, json, sys
root, module, corpus = sys.argv[1:]
ran, codes = set(), []

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(root):
        ran.add((code.co_filename, code.co_firstlineno, code.co_name))

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    sys.setprofile(record)
    main = importlib.import_module(module).main
    for argv in json.load(open(corpus)):
        codes.append(main(argv))
    sys.setprofile(None)
print(json.dumps({"codes": codes, "ran": sorted(ran)}))
"""


def run_corpus(root: pathlib.Path, module: str, corpus: list, tmp_path) -> tuple[list, set]:
    """(exit codes, code objects run) of ``module.main`` on each argv of the
    corpus, in a child process under ``sys.setprofile``; a code object is
    (file, first line, name), and only those under ``root`` are kept."""
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    result = subprocess.run(
        [sys.executable, "-c", REACH, str(root), module, str(path)],
        env={**os.environ, "PYTHONPATH": str(root.parent)}, capture_output=True, text=True,
        timeout=300)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    return out["codes"], {tuple(key) for key in out["ran"]}


def never_run(root: pathlib.Path, ran: set) -> list[str]:
    """Every ``def`` in the modules under ``root`` whose code object is not in
    ``ran``, as module.qualname.  A code object's first line is its first
    decorator's.  Class bodies, lambdas and comprehensions are no ``def``."""
    out = []
    for path in sorted(root.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if (str(path), first, child.name) not in ran:
                        out.append(f"{path.stem}.{prefix}{child.name}")
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef)
                          else prefix)

        visit(ast.parse(path.read_text()), "")
    return sorted(out)


def cli_corpus(tmp_path) -> list:
    """Every argv of the reach corpus: check then replay of each model and
    condition, reproduce then replay of each catalog id, a small survey, and
    one malformed scenario and one malformed report, last."""
    from test_report_digests import INSTANCES, SPACE3
    from normlab.cli import CATALOG
    corpus = []
    for i, (model, cond) in enumerate(sorted(INSTANCES)):
        scenario, report = tmp_path / f"scenario-{i}.json", tmp_path / f"report-{i}.json"
        body = {"model": model, "condition": cond, "instance": INSTANCES[model, cond],
                "depth": 8, **({"space": SPACE3} if model == "finite_full" else {})}
        scenario.write_text(json.dumps(body))
        corpus += [["check", str(scenario), "--out", str(report)], ["replay", str(report)]]
    for example_id in sorted(CATALOG):
        report = tmp_path / f"{example_id}.json"
        corpus += [["reproduce", example_id, "--out", str(report)], ["replay", str(report)]]
    corpus.append(["survey", "--max-size", "3"])
    bad_scenario, bad_report = tmp_path / "bad-scenario.json", tmp_path / "bad-report.json"
    bad_scenario.write_text(json.dumps({"model": "seq_x_end", "condition": "N"}))
    bad_report.write_text(json.dumps({
        "condition": "N", "verdict": "holds", "model": "seq_x_end", "certificate": {},
        "instance": {"f": {"prefix": [], "cycle": ["0"], "omega": None},
                     "g": {"prefix": [], "cycle": ["1"], "omega": None}}}))
    return corpus + [["check", str(bad_scenario)], ["replay", str(bad_report)]]


# The library functions the corpus never runs: error paths, dunders and reprs,
# replay verifiers no CLI output feeds, procedures only the benchmark and the
# tests call, and dead surface.  A function leaves the list when a command
# reaches it or it is deleted; none joins it.
NEVER_RUN = [
    "errors.BoundViolation.__init__", "errors.CoverViolation.__init__",
    "errors.GapViolation.__init__", "errors.OracleContractViolation.__init__",
    "errors.SearchBudgetExceeded.__init__", "errors.UnknownExampleId.__init__",
    "finite_space.FiniteFunc.__repr__", "finite_space.FiniteFunc._point",
    "finite_space.FiniteSpace.__hash__", "finite_space.FiniteSpace.__repr__",
    "finite_space.FiniteSpace.from_preorder", "finite_space._mask",
    "finite_space.block_indicators", "finite_space.envelopes", "finite_space.separate",
    "insertion_engine.FiniteUrysohnCarrier.__init__",
    "insertion_engine.FiniteUrysohnCarrier.check_pair",
    "insertion_engine.FiniteUrysohnCarrier.urysohn",
    "insertion_engine.IterationTrace.result", "insertion_engine.YUrysohnCarrier.check_pair",
    "insertion_engine.YUrysohnCarrier.urysohn", "insertion_engine._level_pairs",
    "insertion_engine.farey_fractions", "insertion_engine.increasing_approx",
    "insertion_engine.urysohn_join_stream",
    "lattice_core.AlgElement.__ge__", "lattice_core.AlgElement.__hash__",
    "lattice_core.AlgElement.__le__", "lattice_core.AlgElement.__neg__",
    "lattice_core.AlgElement.__radd__", "lattice_core.AlgElement.__rmul__",
    "lattice_core.AlgElement.eq_pointwise", "lattice_core.AlgElement.zip_with",
    "lattice_core.rescale_to_unit", "lattice_core.unscale",
    "replay._continuous", "replay._flag", "replay._level_pairs",
    "replay._verify_block_replay", "replay._verify_ideal", "replay._verify_urysohn",
    "seq_model.GeoTail.__repr__", "seq_model.GeoTail.at",
    "seq_model.InfeasibleCert.__repr__", "seq_model.Omega.__repr__",
    "seq_model.SeqFunc.__repr__", "seq_model.SeqFunc._point", "seq_model.SeqFunc.value_at",
    "seq_model.lindelof_extract", "seq_model.lindelof_extract.<locals>.select",
    "seq_model.lindelof_extract.<locals>.stream",
    "serialize._child", "serialize._shown",
]


def test_every_library_function_runs_on_a_cli_path(tmp_path):
    """The library functions no CLI command of the corpus runs are exactly
    NEVER_RUN: a new function no command reaches fails here, and so does a
    listed one that a command now reaches, which leaves the list."""
    corpus = cli_corpus(tmp_path)
    codes, ran = run_corpus(SRC, "normlab.cli", corpus, tmp_path)
    assert all(code == 0 for argv, code in zip(corpus[:-2], codes) if argv[0] != "replay")
    assert codes[-2:] == [2, 2]  # the malformed scenario and report are input errors
    assert never_run(SRC, ran) == sorted(NEVER_RUN)


PLANTED = '''import functools


def main(argv):
    return Used().value + helper()


def helper():
    return (lambda: 0)() + sum(i for i in [1])


class Used:
    items = [k for k in range(2)]

    @functools.cached_property
    def value(self):
        def inner():
            return 1
        return inner()

    def unused(self):
        pass


def planted():
    return 2
'''


def test_unreached_function_is_found(tmp_path):
    root = tmp_path / "planted"
    root.mkdir()
    (root / "lib.py").write_text(PLANTED)
    codes, ran = run_corpus(root, "planted.lib", [[]], tmp_path)
    assert codes == [2]
    assert never_run(root, ran) == ["lib.Used.unused", "lib.planted"]

