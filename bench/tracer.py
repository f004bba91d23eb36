"""Per-layer spans and counters, recorded from outside the library.

``install`` replaces public functions and methods of ``normlab`` with timing
or counting wrappers.  A function is replaced in its own module and in every
``normlab`` module that imported it with ``from ... import``, so calls between
layers are seen too.  Nothing in ``src/normlab`` is edited.

Self time is a span's duration minus the time its child spans cover.  Spans
at layer boundaries are kept in memory (``Tracer.spans``) until the run ends;
hot methods (element construction, ``zip_with``, ``first_violation``,
``norm``) only add to totals, which keeps tracing overhead bounded.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from collections import Counter, defaultdict

from metrics import LAYERS


class Tracer:
    def __init__(self):
        self.stack: list[list] = []        # [child seconds, nearest kept span id]
        self.spans: list[tuple] = []       # (id, parent id, op, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()   # wrapped calls now on the stack, by name
        self.op = None
        self.level_pairs: set | None = None
        self._ids = itertools.count()

    def timed(self, fn, name, keep=True, before=None, after=None):
        """Wrap fn in a span; name may be a function of the call's arguments."""
        stack, spans, self_s = self.stack, self.spans, self.self_s
        counts, active, clock = self.counts, self.active, time.perf_counter
        ids = self._ids
        fixed = isinstance(name, str)

        def wrapper(*args, **kwargs):
            label = name if fixed else name(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            sid = next(ids) if keep else parent
            frame = [0.0, sid]
            stack.append(frame)
            active[label] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[label] -= 1
                stack.pop()
                took = end - start
                self_s[label] += took - frame[0]
                counts[label] += 1
                if stack:
                    stack[-1][0] += took
                if keep:
                    spans.append((sid, parent, self.op, label, start, end))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def timed_generator(self, fn, name):
        """Time each step of a generator as a span of the generator's name."""
        stack, self_s, counts, clock = self.stack, self.self_s, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    took = clock() - start
                    stack.pop()
                    self_s[name] += took - frame[0]
                    counts[name] += 1
                    if stack:
                        stack[-1][0] += took
                yield item

        return wrapper

    # -- derived metrics ------------------------------------------------------

    def metrics(self, src_dir: str) -> dict[str, float]:
        s, c = self.self_s, self.counts

        def frac(num, den):
            return num / den if den else 0.0

        out = {
            "cli.survey_rows.self_s": s["cli.survey_rows"],
            "cli.survey.self_s": s["cli.survey"],
            "cli.check.self_s": s["cli.check"],
            "cli.replay.self_s": s["cli.replay"],
            "cli.reproduce.self_s": s["cli.reproduce"],
            "conditions.check_condition.calls": c["conditions.check_condition.calls"],
            **{f"conditions.{k}.self_s": s[f"conditions.{k}"]
               for k in ("T", "BS", "S", "N", "D", "C", "L", "SL")},
            "conditions.unknown_frac": frac(c["conditions.unknown"],
                                            c["conditions.check_condition.calls"]),
            "seq_model.SeqFunc.constructed": c["seq_model.SeqFunc.constructed"],
            "seq_model.zip_with.calls": c["seq_model.zip_with"],
            "seq_model.zip_with.self_s": s["seq_model.zip_with"],
            "seq_model.zip_with.span_points": c["seq_model.zip_with.span_points"],
            "seq_model.canonical_keep_frac": frac(c["seq_model.points_kept"],
                                                  c["seq_model.points_computed"]),
            "seq_model.lindelof_extract.members_scanned":
                c["seq_model.lindelof_extract.members_scanned"],
            "seq_model.lindelof_extract.hit_frac": frac(
                c["seq_model.lindelof_extract.picks"],
                c["seq_model.lindelof_extract.members_scanned"]),
            "seq_model.insert_convergent.self_s": s["seq_model.insert_convergent"],
            "seq_model.insert_on_y.self_s": s["seq_model.insert_on_y"],
            "seq_model.subcover_extract.self_s": s["seq_model.subcover_extract"],
            "lattice_core.first_violation.calls": c["lattice_core.first_violation"],
            "lattice_core.first_violation.self_s": s["lattice_core.first_violation"],
            "lattice_core.first_violation.elements_built":
                c["lattice_core.first_violation.elements_built"],
            "lattice_core.norm.calls": c["lattice_core.norm"],
            "lattice_core.norm.self_s": s["lattice_core.norm"],
            "lattice_core.eq_pointwise.calls": c["lattice_core.eq_pointwise.calls"],
            "finite_space.enumerate_preorders.self_s": s["finite_space.enumerate_preorders"],
            "finite_space.FiniteSpace.constructed": c["finite_space.FiniteSpace.init"],
            "finite_space.FiniteSpace.init.self_s": s["finite_space.FiniteSpace.init"],
            "finite_space.is_normal.self_s": s["finite_space.is_normal"],
            "finite_space.separate.calls": c["finite_space.separate.calls"],
            "finite_space.insert_finite.calls": c["finite_space.insert_finite"],
            "finite_space.insert_finite.self_s": s["finite_space.insert_finite"],
            "finite_space.insert_finite.infeasible_frac": frac(
                c["finite_space.insert_finite.infeasible"], c["finite_space.insert_finite"]),
            "finite_space.envelopes.calls": c["finite_space.envelopes.calls"],
            "finite_space.FiniteFunc.constructed": c["finite_space.FiniteFunc.constructed"],
            "finite_space.block_indicators.self_s": s["finite_space.block_indicators"],
            **{f"insertion_engine.{f}.self_s": s[f"insertion_engine.{f}"]
               for f in ("tong_merge", "dieudonne_iterate", "urysohn_join_stream",
                         "increasing_approx", "farey_fractions")},
            "insertion_engine.urysohn_join_stream.pairs":
                c["insertion_engine.urysohn_join_stream.pairs"],
            "insertion_engine.urysohn_join_stream.distinct_pair_frac": frac(
                c["insertion_engine.urysohn_join_stream.distinct_pairs"],
                c["insertion_engine.urysohn_join_stream.pairs"]),
            "serialize.to_jsonable.self_s": s["serialize.to_jsonable"],
            "serialize.parse_element.self_s": s["serialize.parse_element"],
            "serialize.report_bytes": c["serialize.report_bytes"],
            "replay.verify_report.self_s": s["replay.verify_report"],
            "replay.payloads": c["replay.payloads"],
            "replay.checks": c["replay.checks"],
            "replay.unrecognized": c["replay.unrecognized"],
            **{f"replay.unrecognized.{k}": c[f"replay.unrecognized.{k}"]
               for k in ("reproduce", "urysohn_join_stream", "increasing_approx")},
            **{f"replay.{k}.self_s": s[f"replay.{k}"]
               for k in ("condition", "merge", "iteration", "block")},
        }
        out.update(source_lines(src_dir))
        return out


def source_lines(src_dir: str) -> dict[str, int]:
    """Line counts of each layer's module and of the whole package."""
    def lines(path):
        with open(path) as fh:
            return sum(1 for _ in fh)

    pkg = os.path.join(src_dir, "normlab")
    out = {f"{layer}.lines": lines(os.path.join(pkg, f"{layer}.py")) for layer in LAYERS}
    out["normlab.lines"] = sum(lines(os.path.join(pkg, name))
                               for name in sorted(os.listdir(pkg)) if name.endswith(".py"))
    return out


def _replace_everywhere(original, replacement) -> None:
    """Rebind every normlab module global that names `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "normlab" or mod_name.startswith("normlab.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions; see the module docstring."""
    from normlab import (cli, conditions, finite_space, insertion_engine,
                         lattice_core, replay, seq_model, serialize)
    from normlab.errors import SearchBudgetExceeded

    t, c = tracer, tracer.counts

    def wrap(module, attr, *args, **kwargs):
        original = getattr(module, attr)
        _replace_everywhere(original, t.timed(original, *args, **kwargs))

    def count(module, attr, name):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            c[name] += 1
            return original(*args, **kwargs)

        _replace_everywhere(original, counted)

    # cli: one span per command (argparse, schema, file I/O and emit are its
    # self time) and one around the survey loop.
    wrap(cli, "main", lambda argv=None: f"cli.{argv[0]}")
    wrap(cli, "survey_rows", "cli.survey_rows")

    # conditions: one span per condition; SL's inner L and N are child spans.
    def verdict(report, *args, **kwargs):
        c["conditions.unknown"] += report.verdict == conditions.UNKNOWN

    def cond_name(model, cond, *args, **kwargs):
        c["conditions.check_condition.calls"] += 1
        return f"conditions.{cond}"

    wrap(conditions, "check_condition", cond_name, after=verdict)

    # seq_model
    seq_init = seq_model.SeqFunc.__init__

    def seq_func_init(self, prefix=(), cycle=(0,), omega=None):
        prefix = prefix if isinstance(prefix, (list, tuple)) else list(prefix)
        cycle = cycle if isinstance(cycle, (list, tuple)) else list(cycle)
        seq_init(self, prefix, cycle, omega)
        c["seq_model.SeqFunc.constructed"] += 1
        c["seq_model.points_computed"] += len(prefix) + len(cycle)
        c["seq_model.points_kept"] += len(self.prefix) + len(self.cycle)
        if t.active["lattice_core.first_violation"]:
            c["lattice_core.first_violation.elements_built"] += 1

    seq_model.SeqFunc.__init__ = seq_func_init

    def span_points(a, b, fn):
        if isinstance(b, seq_model.SeqFunc):
            c["seq_model.zip_with.span_points"] += (
                max(len(a.prefix), len(b.prefix)) + math.lcm(len(a.cycle), len(b.cycle)))

    seq_model.SeqFunc.zip_with = t.timed(seq_model.SeqFunc.zip_with, "seq_model.zip_with",
                                         keep=False, before=span_points)
    for fn in ("insert_convergent", "insert_on_y", "subcover_extract"):
        wrap(seq_model, fn, f"seq_model.{fn}")

    lindelof = seq_model.lindelof_extract

    def counted_lindelof(*args, **kwargs):
        select, stream = lindelof(*args, **kwargs)

        def counted_select(k):
            try:
                idx, g = select(k)
            except SearchBudgetExceeded as exc:
                c["seq_model.lindelof_extract.members_scanned"] += exc.budget
                raise
            c["seq_model.lindelof_extract.members_scanned"] += idx + 1
            c["seq_model.lindelof_extract.picks"] += 1
            return idx, g

        return counted_select, stream

    _replace_everywhere(lindelof, counted_lindelof)

    # lattice_core: methods of the element base class, shared by both carriers.
    elem = lattice_core.AlgElement
    elem.first_violation = t.timed(elem.first_violation, "lattice_core.first_violation",
                                   keep=False)
    elem.norm = t.timed(elem.norm, "lattice_core.norm", keep=False)
    eq = elem.eq_pointwise

    def counted_eq(self, other):
        c["lattice_core.eq_pointwise.calls"] += 1
        return eq(self, other)

    elem.eq_pointwise = counted_eq

    # finite_space
    preorders = finite_space.enumerate_preorders
    _replace_everywhere(preorders, t.timed_generator(
        preorders, "finite_space.enumerate_preorders"))
    space_cls = finite_space.FiniteSpace
    space_cls.__init__ = t.timed(space_cls.__init__, "finite_space.FiniteSpace.init",
                                 keep=False)
    func_init = finite_space.FiniteFunc.__init__

    def finite_func_init(self, space, values):
        func_init(self, space, values)
        c["finite_space.FiniteFunc.constructed"] += 1
        if t.active["lattice_core.first_violation"]:
            c["lattice_core.first_violation.elements_built"] += 1

    finite_space.FiniteFunc.__init__ = finite_func_init
    wrap(finite_space, "is_normal", "finite_space.is_normal")

    def infeasible(result, *args, **kwargs):
        c["finite_space.insert_finite.infeasible"] += isinstance(result,
                                                                 finite_space.Infeasible)

    wrap(finite_space, "insert_finite", "finite_space.insert_finite", after=infeasible)
    wrap(finite_space, "block_indicators", "finite_space.block_indicators")
    count(finite_space, "separate", "finite_space.separate.calls")
    count(finite_space, "envelopes", "finite_space.envelopes.calls")

    # insertion_engine
    for fn in ("tong_merge", "dieudonne_iterate", "increasing_approx", "farey_fractions"):
        wrap(insertion_engine, fn, f"insertion_engine.{fn}")

    def open_pairs(*args, **kwargs):
        t.level_pairs = set()

    def close_pairs(result, *args, **kwargs):
        c["insertion_engine.urysohn_join_stream.pairs"] += len(result[1]["pairs"])
        c["insertion_engine.urysohn_join_stream.distinct_pairs"] += len(t.level_pairs)
        t.level_pairs = None

    wrap(insertion_engine, "urysohn_join_stream", "insertion_engine.urysohn_join_stream",
         before=open_pairs, after=close_pairs)
    for carrier in (insertion_engine.FiniteUrysohnCarrier, insertion_engine.YUrysohnCarrier):
        separation = carrier.urysohn

        def level_pair(self, closed_f, open_g, _separation=separation):
            if t.level_pairs is not None:
                t.level_pairs.add((closed_f, open_g))
            return _separation(self, closed_f, open_g)

        carrier.urysohn = level_pair

    # serialize: to_jsonable recurses through its module global, so only the
    # outermost call is a span.
    to_jsonable = serialize.to_jsonable
    outer = t.timed(to_jsonable, "serialize.to_jsonable")

    def to_jsonable_once(obj):
        if t.active["serialize.to_jsonable"]:
            return to_jsonable(obj)
        return outer(obj)

    _replace_everywhere(to_jsonable, to_jsonable_once)
    wrap(serialize, "parse_element", "serialize.parse_element")

    # replay
    def replay_counts(result, *args, **kwargs):
        c["replay.payloads"] += result["verified"]
        c["replay.checks"] += len(result["checks"])

    wrap(replay, "verify_report", "replay.verify_report", after=replay_counts)
    for kind, fn in (("condition", "_verify_condition"), ("merge", "_verify_merge"),
                     ("iteration", "_verify_iteration"), ("block", "_verify_block_replay")):
        wrap(replay, fn, f"replay.{kind}")
