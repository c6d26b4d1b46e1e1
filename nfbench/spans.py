"""Span recording around the public callables of each nfwave layer.

Nothing here lives in ``src/nfwave``: a :class:`Tracer` replaces module and
class attributes with timing wrappers for the duration of one traced design
and puts the originals back afterwards. A target that no longer exists (a later
change may delete or rename it) is listed in ``Tracer.absent`` and its layer
reads as zero; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


def _lambda_info(args, result) -> dict:
    return {
        "iterations": getattr(result, "iterations", 0),
        "converged": getattr(result, "converged", True),
    }


def _wisl_setup_info(args, result) -> dict:
    kernels = getattr(args[0], "kernels", None)
    return {"kernel_bytes": getattr(kernels, "nbytes", 0)}


def _emit_info(args, result) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


# (layer, module, attribute path, optional info from (args, result))
HOOKS = [
    ("cli.parse", "nfwave.cli", "config_from_dict", None),
    ("cli.run_design", "nfwave.cli", "run_design", None),
    ("model.profile", "nfwave.cli", "RunConfig.profile", None),
    ("nearfield.steering", "nfwave.cli", "build_steering_context", None),
    ("solver.cypmli", "nfwave.cli", "cypmli", None),
    ("objective.lambda", "nfwave.solver", "estimate_lambda_max", _lambda_info),
    ("solver.inner", "nfwave.solver", "pmli_inner", None),
    ("objective.wisl_setup", "nfwave.objective", "WislOperator.__init__", _wisl_setup_info),
    ("objective.wisl_gram", "nfwave.objective", "WislOperator.gram", None),
    ("objective.quad_form", "nfwave.objective", "WislOperator.quad_form", None),
    ("objective.match_apply", "nfwave.objective", "BeampatternOperator.weighted_apply", None),
    ("objective.ghat_weights", "nfwave.objective", "BeampatternOperator.ghat_weights", None),
    ("objective.matching_error", "nfwave.objective", "BeampatternOperator.matching_error", None),
    ("objective.loaded", "nfwave.objective", "CombinedOperator.apply_loaded", None),
    ("correlation.wisl", "nfwave.correlation", "wisl", None),
    ("cli.emit", "nfwave.cli", "emit_outputs", _emit_info),
    ("nearfield.beampattern_grid", "nfwave.cli", "beampattern_grid", None),
    ("correlation.matrix", "nfwave.cli", "correlation_matrix", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    info: dict = field(default_factory=dict)


def _resolve(module: str, path: str):
    """Return ``(owner, attribute name, current value)`` or raise LookupError."""
    try:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise LookupError(f"{module}.{path}") from exc


class Tracer:
    """Install span hooks on entry, restore the original callables on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, layer: str, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(layer, perf_counter(), 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for layer, module, path, info in self.hooks:
            try:
                owner, attr, original = _resolve(module, path)
            except LookupError:
                self.absent.append(layer)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, info))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every hooked attribute holds its original callable again."""
        return all(getattr(owner, attr) is original for owner, attr, original in self._installed)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], inner_max: int) -> dict[str, float]:
    """Per-layer figures of one traced design, keyed by metric name."""
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, t in zip(spans, own):
        busy[s.name] += t
        calls[s.name] += 1

    steps = Counter(s.parent for s in spans if s.name == "objective.loaded")
    inner_steps = [steps[i] for i, s in enumerate(spans) if s.name == "solver.inner"]
    lam = [s.info for s in spans if s.name == "objective.lambda"]
    diag = ("objective.matching_error", "objective.quad_form", "correlation.wisl")
    trace_s = sum(
        s.end - s.start
        for s in spans
        if s.name in diag and s.parent >= 0 and spans[s.parent].name == "solver.cypmli"
    )

    def per_call(layer: str, scale: float) -> float:
        return scale * busy[layer] / calls[layer] if calls[layer] else 0.0

    return {
        "objective.wisl_gram_s": busy["objective.wisl_gram"],
        "objective.wisl_gram_calls": calls["objective.wisl_gram"],
        "objective.wisl_gram_ms": per_call("objective.wisl_gram", 1e3),
        "objective.wisl_setup_s": busy["objective.wisl_setup"],
        "objective.kernel_stack_mb": sum(
            s.info.get("kernel_bytes", 0) for s in spans if s.name == "objective.wisl_setup"
        ) / 1e6,
        "objective.match_apply_s": busy["objective.match_apply"],
        "objective.match_apply_calls": calls["objective.match_apply"],
        "objective.match_apply_us": per_call("objective.match_apply", 1e6),
        "objective.ghat_weights_s": busy["objective.ghat_weights"],
        "objective.loaded_s": busy["objective.loaded"],
        "objective.lambda_s": busy["objective.lambda"],
        "objective.lambda_iters": sum(i["iterations"] for i in lam),
        "objective.lambda_iters_max": max((i["iterations"] for i in lam), default=0),
        "objective.lambda_unconverged": sum(not i["converged"] for i in lam),
        "solver.inner_s": busy["solver.inner"],
        "solver.inner_steps": sum(inner_steps),
        "solver.inner_steps_max": max(inner_steps, default=0),
        "solver.inner_max_hits": sum(n >= inner_max for n in inner_steps),
        "solver.half_cycles": len(inner_steps),
        "solver.self_s": busy["solver.cypmli"],
        "solver.trace_s": trace_s,
        "objective.matching_error_s": busy["objective.matching_error"],
        "objective.quad_form_s": busy["objective.quad_form"],
        "correlation.wisl_s": busy["correlation.wisl"],
        "cli.parse_s": busy["cli.parse"],
        "nearfield.steering_s": busy["nearfield.steering"],
        "model.profile_s": busy["model.profile"],
        "cli.run_design_s": busy["cli.run_design"],
        "cli.emit_s": busy["cli.emit"],
        "cli.bytes_written": sum(s.info.get("bytes", 0) for s in spans if s.name == "cli.emit"),
        "nearfield.beampattern_grid_s": busy["nearfield.beampattern_grid"],
        "correlation.matrix_s": busy["correlation.matrix"],
    }
