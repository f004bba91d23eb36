"""Names, units and intent of every metric the benchmark reports.

This table is the single source for the metric lists in ``BENCHMARK.json``
(``bench/tests/test_bench.py`` checks that the two agree).  Each per-layer
entry names the end-to-end metric it should move and the workload where the
move should show, so a change to one layer states its prediction in these
terms before it is measured.
"""

WORKLOADS = ("survey", "seq_scenarios", "insertion_traces")

LAYERS = ("cli", "conditions", "insertion_engine", "finite_space",
          "seq_model", "lattice_core", "serialize", "replay")

# (name, unit, better, bound) -- printed by every untraced run.  Timing
# bounds are the widest allowed: on a host whose cores are shared, quiet and
# busy periods lasting minutes move the median of ten runs by up to 20% even
# after the measures in cpus.py and worker.py; memory moves by about 1%.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("check_p50_ms", "ms", "lower", 0.25),
    ("check_p99_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Metrics the issue names as end-to-end that cannot be gated on every
# workload: a gated metric must be a nonzero measured number on each
# workload, and survey emits no certificate (no replay), while failures are 0
# on two workloads.  They are printed by every untraced run (with "not
# applicable" where they do not apply) and reported by the traced run.
UNGATED = (
    ("replay_p50_ms", "ms", "lower"),
    ("replay_p99_ms", "ms", "lower"),
    ("failed_frac", "fraction", "lower"),
)

_S = "s"
_N = "count"
_F = "fraction"

# (name, unit, better, moves) -- printed by every traced run.
PER_LAYER = (
    ("cli.survey_rows.self_s", _S, "lower", "ops_per_s on survey"),
    ("cli.survey.self_s", _S, "lower", "ops_per_s on survey"),
    ("cli.check.self_s", _S, "lower", "check_p50_ms on seq_scenarios"),
    ("cli.replay.self_s", _S, "lower", "replay_p50_ms on seq_scenarios"),
    ("cli.reproduce.self_s", _S, "lower", "check_p50_ms on insertion_traces"),
    ("conditions.check_condition.calls", _N, "lower", "check_p50_ms on seq_scenarios"),
    *((f"conditions.{c}.self_s", _S, "lower",
       "check_p99_ms on seq_scenarios" if c in ("C", "L", "SL")
       else "check_p50_ms on seq_scenarios")
      for c in ("T", "BS", "S", "N", "D", "C", "L", "SL")),
    ("conditions.unknown_frac", _F, "lower", "check_p99_ms on seq_scenarios"),
    ("seq_model.SeqFunc.constructed", _N, "lower", "check_p50_ms on seq_scenarios"),
    ("seq_model.zip_with.calls", _N, "lower", "check_p50_ms on seq_scenarios"),
    ("seq_model.zip_with.self_s", _S, "lower", "ops_per_s on insertion_traces"),
    ("seq_model.zip_with.span_points", _N, "lower", "ops_per_s on insertion_traces"),
    ("seq_model.canonical_keep_frac", _F, "higher", "check_p50_ms on seq_scenarios"),
    ("seq_model.lindelof_extract.members_scanned", _N, "lower",
     "check_p99_ms on seq_scenarios"),
    ("seq_model.lindelof_extract.hit_frac", _F, "higher", "check_p99_ms on seq_scenarios"),
    ("seq_model.insert_convergent.self_s", _S, "lower", "check_p50_ms on seq_scenarios"),
    ("seq_model.insert_on_y.self_s", _S, "lower", "check_p50_ms on seq_scenarios"),
    ("seq_model.subcover_extract.self_s", _S, "lower", "check_p50_ms on seq_scenarios"),
    ("lattice_core.first_violation.calls", _N, "lower", "ops_per_s on insertion_traces"),
    ("lattice_core.first_violation.self_s", _S, "lower", "ops_per_s on insertion_traces"),
    ("lattice_core.first_violation.elements_built", _N, "lower",
     "check_p50_ms on seq_scenarios"),
    ("lattice_core.norm.calls", _N, "lower", "ops_per_s on insertion_traces"),
    ("lattice_core.norm.self_s", _S, "lower", "ops_per_s on insertion_traces"),
    ("lattice_core.eq_pointwise.calls", _N, "lower", "ops_per_s on insertion_traces"),
    ("finite_space.enumerate_preorders.self_s", _S, "lower", "ops_per_s on survey"),
    ("finite_space.FiniteSpace.constructed", _N, "lower", "ops_per_s on survey"),
    ("finite_space.FiniteSpace.init.self_s", _S, "lower", "ops_per_s on survey"),
    ("finite_space.is_normal.self_s", _S, "lower", "ops_per_s on survey"),
    ("finite_space.separate.calls", _N, "lower", "ops_per_s on survey"),
    ("finite_space.insert_finite.calls", _N, "lower", "ops_per_s on survey"),
    ("finite_space.insert_finite.self_s", _S, "lower", "ops_per_s on survey"),
    ("finite_space.insert_finite.infeasible_frac", _F, "higher", "ops_per_s on survey"),
    ("finite_space.envelopes.calls", _N, "lower", "ops_per_s on survey"),
    ("finite_space.FiniteFunc.constructed", _N, "lower", "ops_per_s on survey"),
    ("finite_space.block_indicators.self_s", _S, "lower", "ops_per_s on insertion_traces"),
    *((f"insertion_engine.{f}.self_s", _S, "lower",
       "ops_per_s and check_p99_ms on insertion_traces")
      for f in ("tong_merge", "dieudonne_iterate", "urysohn_join_stream",
                "increasing_approx", "farey_fractions")),
    ("insertion_engine.urysohn_join_stream.pairs", _N, "lower",
     "check_p99_ms on insertion_traces"),
    ("insertion_engine.urysohn_join_stream.distinct_pair_frac", _F, "higher",
     "check_p99_ms on insertion_traces"),
    ("serialize.to_jsonable.self_s", _S, "lower", "check_p50_ms on seq_scenarios"),
    ("serialize.parse_element.self_s", _S, "lower", "check_p50_ms on seq_scenarios"),
    ("serialize.report_bytes", "bytes", "lower",
     "replay_p50_ms on seq_scenarios and insertion_traces"),
    ("replay.verify_report.self_s", _S, "lower",
     "replay_p50_ms on seq_scenarios and insertion_traces"),
    ("replay.payloads", _N, "higher", "failed_frac on insertion_traces"),
    ("replay.checks", _N, "higher", "replay_p50_ms on seq_scenarios"),
    ("replay.unrecognized", _N, "lower", "failed_frac on insertion_traces"),
    ("replay.unrecognized.reproduce", _N, "lower", "failed_frac on insertion_traces"),
    ("replay.unrecognized.urysohn_join_stream", _N, "lower",
     "failed_frac on insertion_traces"),
    ("replay.unrecognized.increasing_approx", _N, "lower",
     "failed_frac on insertion_traces"),
    ("replay.condition.self_s", _S, "lower", "replay_p50_ms on seq_scenarios"),
    ("replay.merge.self_s", _S, "lower", "replay_p99_ms on insertion_traces"),
    ("replay.iteration.self_s", _S, "lower", "replay_p99_ms on insertion_traces"),
    ("replay.block.self_s", _S, "lower", "replay_p50_ms on insertion_traces"),
    *((f"{layer}.lines", "lines", "lower", "none: source size of the layer")
      for layer in LAYERS),
    ("normlab.lines", "lines", "lower", "none: source size of the package"),
    ("trace_overhead_frac", _F, "lower", "none: cost of the traced run itself"),
    *((name, unit, better, "reported here because it cannot be gated on every workload")
      for name, unit, better in UNGATED),
)
