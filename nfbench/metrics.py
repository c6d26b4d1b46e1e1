"""Every metric the benchmark reports: name, unit, better direction, and what it moves.

``END_TO_END`` metrics come from untraced runs (``--trace 0``); ``PER_LAYER``
metrics come from traced runs (``--trace 1``). Each per-layer entry names the
end-to-end metric and workload it is expected to move, so a change to one layer
can be checked against the place its saving should appear. ``BENCHMARK.json``
carries the same names, units and directions; ``test_harness.py`` keeps the two
in step. Per-layer times are self times (span minus child spans) unless the
description says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    about: str  # what it measures and which end-to-end metric it moves


END_TO_END = [
    Metric("setup_s", "s", "lower", "process start to entering run_design: interpreter, imports, config parse"),
    Metric("design_s", "s", "lower", "wall time of run_design (steering, solve, artifacts)"),
    Metric("halfcycle_ms", "ms", "lower", "design_s per solver half-cycle"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the design process"),
    Metric("objective", "1", "lower", "final combined objective (deterministic per seed)"),
    Metric("wisl_ratio", "1", "lower", "final direct WISL over the M(M-1)N^2 floor (deterministic per seed)"),
    Metric("matching_error", "1", "lower", "final beampattern matching error (deterministic per seed)"),
]

PER_LAYER = [
    Metric("objective.wisl_gram_s", "s", "lower", "WislOperator.gram -> halfcycle_ms on default; 0 on match"),
    Metric("objective.wisl_gram_calls", "count", "lower", "Gram builds -> halfcycle_ms on default; 0 on match"),
    Metric("objective.wisl_gram_ms", "ms", "lower", "time per Gram build -> halfcycle_ms on default"),
    Metric("objective.wisl_setup_s", "s", "lower", "WislOperator.__init__ -> design_s, peak_rss_mb on default and match"),
    Metric("objective.kernel_stack_mb", "MB", "lower", "computed size of the lag-kernel stack -> peak_rss_mb"),
    Metric("objective.match_apply_s", "s", "lower", "BeampatternOperator.weighted_apply -> halfcycle_ms on match"),
    Metric("objective.match_apply_calls", "count", "lower", "matching applies -> halfcycle_ms on match"),
    Metric("objective.match_apply_us", "us", "lower", "time per matching apply -> halfcycle_ms on match"),
    Metric("objective.ghat_weights_s", "s", "lower", "BeampatternOperator.ghat_weights -> halfcycle_ms on match"),
    Metric("objective.loaded_s", "s", "lower", "CombinedOperator.apply_loaded self: loading, blend, Gram apply -> halfcycle_ms"),
    Metric("objective.lambda_s", "s", "lower", "estimate_lambda_max self -> halfcycle_ms, most on match"),
    Metric("objective.lambda_iters", "count", "lower", "power iterations, all half-cycles -> halfcycle_ms, objective"),
    Metric("objective.lambda_iters_max", "count", "lower", "most power iterations in one half-cycle"),
    Metric("objective.lambda_unconverged", "count", "lower", "eigen estimates that did not converge"),
    Metric("solver.inner_s", "s", "lower", "pmli_inner self (phase projection) -> halfcycle_ms, objective"),
    Metric("solver.inner_steps", "count", "lower", "inner phase-projection steps, all half-cycles"),
    Metric("solver.inner_steps_max", "count", "lower", "most inner steps in one half-cycle"),
    Metric("solver.inner_max_hits", "count", "lower", "half-cycles whose inner loop stopped at inner_max"),
    Metric("solver.half_cycles", "count", "lower", "half-cycles run"),
    Metric("solver.coupling_rms", "1", "lower", "final copy distance per entry, coupling/sqrt(NM) -> objective"),
    Metric("solver.self_s", "s", "lower", "cypmli self: loop and operator set-up -> halfcycle_ms on desk"),
    Metric("solver.trace_s", "s", "lower", "trace diagnostics (matching error, quad form, WISL) -> halfcycle_ms on desk"),
    Metric("objective.matching_error_s", "s", "lower", "BeampatternOperator.matching_error -> halfcycle_ms on desk"),
    Metric("objective.quad_form_s", "s", "lower", "WislOperator.quad_form -> halfcycle_ms on desk"),
    Metric("correlation.wisl_s", "s", "lower", "correlation.wisl -> halfcycle_ms on desk"),
    Metric("cli.parse_s", "s", "lower", "config_from_dict -> setup_s"),
    Metric("nearfield.steering_s", "s", "lower", "build_steering_context -> design_s, largest on match"),
    Metric("model.profile_s", "s", "lower", "RunConfig.profile (WislProfile build) -> design_s"),
    Metric("cli.run_design_s", "s", "lower", "run_design self: grid and target construction -> design_s"),
    Metric("cli.emit_s", "s", "lower", "emit_outputs self: CSV/JSONL formatting and writes -> design_s on desk"),
    Metric("cli.bytes_written", "bytes", "lower", "artifact bytes written"),
    Metric("nearfield.beampattern_grid_s", "s", "lower", "beampattern_grid for the artifacts -> design_s on desk"),
    Metric("correlation.matrix_s", "s", "lower", "correlation_matrix for the artifacts -> design_s on desk"),
    Metric("trace.overhead_s", "s", "lower", "traced design_s minus untraced design_s, same input"),
    Metric("nearfield.contrast", "1", "higher", "final target-to-background beampattern contrast"),
    Metric("nearfield.contrast_cap", "1", "higher", "physical cap (K1K2-1)/(min eig(S)-1) for any unimodular waveform"),
]

ALL = {m.name: m for m in END_TO_END + PER_LAYER}
