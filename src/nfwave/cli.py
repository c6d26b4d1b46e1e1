"""Config-driven experiment runner emitting plot-ready CSV/JSONL artifacts.

Config files are nested YAML with five sections (all optional; omitted keys
fall back to the built-in defaults):

    array:  M, N, fc_hz, bandwidth_hz, spacing_m (optional)
    grid:   K1, K2
    solver: gamma, rho, epochs, inner_tol, inner_max, outer_tol, seed, weights
    target: k1_star, k2_star, desired_peak
    output: out_dir

Each key's default, parser and :class:`RunConfig` attribute are written once,
in the table ``_SCHEMA`` (solver defaults come from :class:`SolverConfig`);
:func:`config_from_dict` and :func:`effective_config` both walk it.

``weights`` is either the string ``uniform`` or a list of ``2N - 1`` lag
weights. ``k1_star``/``k2_star`` are 1-based grid indices of the desired
mainlobe. Exit codes: 0 success, 2 config error (also a config whose start
objective is not finite), 4 I/O error.

``yaml`` and ``argparse`` are imported inside the functions that use them,
so the ``config_from_dict`` -> ``run_design`` path imports neither.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .correlation import _lag_wisl, _level_db, correlation_matrix
from .model import (
    ArrayConfig,
    DesiredBeampattern,
    GridSpec,
    WislProfile,
    as_integer,
    build_grid,
)
from .nearfield import SteeringContext, beampattern_grid, build_steering_context, contrast, contrast_cap
from .nearfield import fraunhofer_distance, fresnel_bound, fresnel_phase_error
from .solver import SolverConfig, SolverState, cypmli


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description."""

    array: ArrayConfig
    num_angles: int
    num_ranges: int
    solver: SolverConfig
    angle_target: int  # 1-based
    range_target: int  # 1-based
    desired_peak: float
    weights: str | tuple  # "uniform" or explicit lag weights
    out_dir: Path

    def grid(self) -> GridSpec:
        return build_grid(self.num_angles, self.num_ranges, self.array.code_length)

    def profile(self) -> WislProfile:
        n = self.array.code_length
        if self.weights == "uniform":
            return WislProfile.uniform(n)
        return WislProfile(n, np.asarray(self.weights, dtype=float))


def _as_int(section: str, key: str, value) -> int:
    try:
        return as_integer(f"{section}.{key}", value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _as_float(section: str, key: str, value) -> float:
    # YAML only tags exponents like 1.0e+9 as floats; accept the bare form too
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return number


def _as_weights(section: str, key: str, value) -> str | tuple:
    if isinstance(value, (list, tuple)):
        return tuple(_as_float(section, key, w) for w in value)
    if not isinstance(value, str) or value != "uniform":
        raise ConfigError(f"{section}.{key} must be 'uniform' or a list, got {value!r}")
    return value


def _as_path(section: str, key: str, value) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{section}.{key} must be a non-empty string")
    return Path(value)


# The config schema: section -> key -> (default, parser, RunConfig attribute path).
# A default of None marks an optional key whose value is derived from other
# keys (the spacing from the band, the target indices from the grid centre).
_SCHEMA = {
    "array": {
        "M": (4, _as_int, "array.num_antennas"),
        "N": (64, _as_int, "array.code_length"),
        "fc_hz": (1.0e9, _as_float, "array.carrier_freq_hz"),
        "bandwidth_hz": (2.0e8, _as_float, "array.bandwidth_hz"),
        "spacing_m": (None, _as_float, "array.spacing"),
    },
    "grid": {"K1": (20, _as_int, "num_angles"), "K2": (10, _as_int, "num_ranges")},
    "solver": {
        "gamma": (SolverConfig.gamma, _as_float, "solver.gamma"),
        "rho": (SolverConfig.rho, _as_float, "solver.rho"),
        "epochs": (SolverConfig.outer_iters, _as_int, "solver.outer_iters"),
        "inner_tol": (SolverConfig.inner_tol, _as_float, "solver.inner_tol"),
        "inner_max": (SolverConfig.inner_max, _as_int, "solver.inner_max"),
        "outer_tol": (SolverConfig.outer_tol, _as_float, "solver.outer_tol"),
        "seed": (SolverConfig.seed, _as_int, "solver.seed"),
        "weights": ("uniform", _as_weights, "weights"),
    },
    "target": {
        "k1_star": (None, _as_int, "angle_target"),
        "k2_star": (None, _as_int, "range_target"),
        "desired_peak": (1.0, _as_float, "desired_peak"),
    },
    "output": {"out_dir": ("out", _as_path, "out_dir")},
}


def parse_config(text: str) -> RunConfig:
    """Build a :class:`RunConfig` from YAML text; empty text yields the full defaults."""
    import yaml

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return config_from_dict({} if data is None else data)


def read_config(path) -> RunConfig:
    """Read a config file as UTF-8 and parse it; any failure is a :class:`ConfigError` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> RunConfig:
    """Validate a nested config mapping and apply defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping of sections, got {type(data).__name__}")
    unknown = []
    for section, body in data.items():
        if section not in _SCHEMA:
            unknown.append(str(section))
            continue
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        for key in body:
            if key not in _SCHEMA[section]:
                unknown.append(f"{section}.{key}")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    # keyword arguments of ArrayConfig ("array"), SolverConfig ("solver") and RunConfig ("")
    kwargs = {"array": {}, "solver": {}, "": {}}
    for section, keys in _SCHEMA.items():
        body = data.get(section) or {}
        for key, (default, parse, attr) in keys.items():
            value = body.get(key, default)
            if value is not None or default is not None:
                value = parse(section, key, value)
            owner, _, name = attr.rpartition(".")
            kwargs[owner][name] = value
    run = kwargs[""]

    for owner, build in (("array", ArrayConfig), ("solver", SolverConfig)):
        try:
            run[owner] = build(**kwargs[owner])
        except ValueError as exc:  # name the key, not the field: "num_antennas must" -> "array.M must"
            keys = {attr: f"{sec}.{key}" for sec, body in _SCHEMA.items() for key, (_, _, attr) in body.items()}
            field, sep, rest = str(exc).partition(" ")
            raise ConfigError(keys.get(f"{owner}.{field}", field) + sep + rest) from exc
    expected = 2 * run["array"].code_length - 1
    if run["weights"] != "uniform" and len(run["weights"]) != expected:
        raise ConfigError(
            f"solver.weights must have {expected} entries (lags -N+1..N-1), got {len(run['weights'])}"
        )

    for key, size in (("K1", run["num_angles"]), ("K2", run["num_ranges"])):
        if size < 1:
            raise ConfigError(f"grid.{key} must be >= 1, got {size}")
    for attr, key, size in (
        ("angle_target", "k1_star", run["num_angles"]),
        ("range_target", "k2_star", run["num_ranges"]),
    ):
        if run[attr] is None:
            run[attr] = (size + 1) // 2
        if not 1 <= run[attr] <= size:
            raise ConfigError(f"target.{key} index {run[attr]} outside [1, {size}]")
    if run["desired_peak"] < 0:
        raise ConfigError(f"target.desired_peak must be nonnegative, got {run['desired_peak']!r}")
    return RunConfig(**run)


def _plain(value):
    """YAML-safe form of a resolved value: tuples as lists, paths as strings."""
    if isinstance(value, tuple):
        return list(value)
    return str(value) if isinstance(value, Path) else value


def effective_config(cfg: RunConfig) -> dict:
    """Nested mapping of the fully resolved configuration (round-trippable)."""
    return {
        section: {key: _plain(attrgetter(attr)(cfg)) for key, (_, _, attr) in keys.items()}
        for section, keys in _SCHEMA.items()
    }


def load_desired_csv(path: Path, grid: GridSpec) -> DesiredBeampattern:
    """Load an explicit target pattern: K1*K2 rows (k1-major) by N columns."""
    try:
        flat = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read desired beampattern {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed desired beampattern {path}: {exc}") from exc
    expect = (grid.num_angles * grid.num_ranges, grid.num_bins)
    if flat.shape != expect:
        raise ConfigError(f"desired beampattern shape {flat.shape} != {expect}")
    try:
        return DesiredBeampattern(flat.reshape(grid.num_angles, grid.num_ranges, grid.num_bins))
    except ValueError as exc:
        raise ConfigError(f"{exc}: {path}") from exc


def _matrix_csv(header: list[str], rows: np.ndarray) -> str:
    """Text of ``rows`` under ``header`` with one ``%.17g`` format over the whole table."""
    rows = np.atleast_2d(rows)
    line = ",".join(["%.17g"] * rows.shape[1])
    body = "\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())
    return ",".join(header) + "\n" + body + "\n"


def _correlation_csv(magnitudes: np.ndarray, levels: np.ndarray) -> str:
    """Text of ``correlation.csv`` from the magnitudes and levels of the lags ``k >= 0``.

    The lags of :func:`correlation_matrix` are Hermitian to the bit,
    ``r_{m m'}(-k) = conj(r_{m' m}(k))``, and conjugates share their magnitude
    and level, so only the lags ``k >= 0`` are formatted, in one ``%.17g``
    pass; the row ``(m', m, -k)`` reuses the text of ``(m, m', k)``.
    """
    m, _, n = levels.shape
    values = np.stack([magnitudes, levels], axis=-1)
    text = ("%.17g,%.17g\n" * levels.size % tuple(values.ravel().tolist())).splitlines(True)
    text = np.array(text, dtype=object).reshape(m, m, n)
    # each line is the three strings "m,m'," "k," "|r|,level\n", joined in one pass
    lines = np.empty((m, m, 2 * n - 1, 3), dtype=object)
    pairs = [f"{a},{b}," for a in range(1, m + 1) for b in range(1, m + 1)]
    lines[..., 0] = np.array(pairs, dtype=object).reshape(m, m, 1)
    lines[..., 1] = np.array([f"{k}," for k in range(1 - n, n)], dtype=object)
    lines[:, :, n - 1 :, 2] = text
    lines[:, :, : n - 1, 2] = text.transpose(1, 0, 2)[:, :, :0:-1]
    return "m,m_prime,k,magnitude,level_db\n" + "".join(lines.ravel().tolist())


def emit_outputs(
    state: SolverState,
    cfg: RunConfig,
    pattern: np.ndarray,
    magnitudes: np.ndarray,
    levels: np.ndarray,
) -> list[Path]:
    """Write the five artifacts and return their paths, in this order.

    waveform.csv           N x M phases in [0, 2*pi)
    beampattern_angle.csv  K1 x N power at the target range node
    beampattern_range.csv  K2 x N power at the target angle node
    correlation.csv        rows (m, m', k, |r|, level_db), indices 1-based
    trace.jsonl            one JSON record per half-cycle

    ``pattern`` is :func:`beampattern_grid` of ``state.x1``, and ``magnitudes``
    and ``levels`` are :func:`_level_db` of its lags ``k >= 0``. Each
    artifact's text is built first, keyed by its file name, and one loop
    writes them all.
    """
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    n = cfg.array.code_length
    m = cfg.array.num_antennas
    bin_header = [f"u{u}" for u in range(n)]
    texts = {
        "waveform.csv": _matrix_csv([f"m{j + 1}" for j in range(m)], state.x1.phases()),
        "beampattern_angle.csv": _matrix_csv(bin_header, pattern[:, cfg.range_target - 1, :]),
        "beampattern_range.csv": _matrix_csv(bin_header, pattern[cfg.angle_target - 1, :, :]),
        "correlation.csv": _correlation_csv(magnitudes, levels),
        "trace.jsonl": "".join(json.dumps(entry.as_dict()) + "\n" for entry in state.trace),
    }
    paths = []
    for name, text in texts.items():
        path = out / name
        path.write_text(text, newline="\n")
        paths.append(path)
    return paths


@dataclass
class RunResult:
    state: SolverState
    paths: list[Path]
    context: SteeringContext
    lags: np.ndarray  # correlation_matrix(state.x1), whose lags k >= 0 correlation.csv prints
    levels: np.ndarray  # their levels in dB at the lags k >= 0, shape (M, M, N)
    pattern: np.ndarray  # beampattern_grid(state.x1, context), which the beampattern CSVs cut


def design_inputs(
    cfg: RunConfig, desired: DesiredBeampattern | None = None
) -> tuple[SteeringContext, DesiredBeampattern, WislProfile]:
    """The solver inputs of a config: steering context, target pattern and lag profile.

    ``desired`` defaults to the config's delta target at ``(k1_star, k2_star)``.
    """
    grid = cfg.grid()
    ctx = build_steering_context(cfg.array, grid)
    if desired is None:
        desired = DesiredBeampattern.delta(
            grid, cfg.angle_target - 1, cfg.range_target - 1, cfg.desired_peak
        )
    return ctx, desired, cfg.profile()


def run_design(cfg: RunConfig, desired: DesiredBeampattern | None = None) -> RunResult:
    """Build the pipeline from a config, solve, and write all artifacts.

    The final copy's lags and pattern are formed once; the result keeps them for :func:`summarize`.
    A config whose start objective is not finite raises :class:`ConfigError`
    before any artifact is written.
    """
    ctx, desired, profile = design_inputs(cfg, desired)
    try:
        state = cypmli(ctx, desired, profile, cfg.solver)
    except ValueError as exc:  # a start objective that is not finite (see cypmli)
        raise ConfigError(str(exc)) from exc
    n = cfg.array.code_length
    lags = correlation_matrix(state.x1)
    magnitudes, levels = _level_db(lags[:, :, n - 1 :], n)
    pattern = beampattern_grid(state.x1, ctx)
    paths = emit_outputs(state, cfg, pattern, magnitudes, levels)
    return RunResult(state, paths, ctx, lags, levels, pattern)


def summarize(result: RunResult, cfg: RunConfig) -> dict:
    """Every figure of merit of a finished design, each computed once, keyed by name.

    Trace figures are ``(first, last)`` record pairs. The WISL and the peaks
    read the lags written to ``correlation.csv``: the peak auto-sidelobe skips
    lag 0, the peak cross level takes every lag (a negative lag mirrors a lag
    ``k >= 0`` to the bit), and a peak with no lag to take is None.
    README's limits: the target cell's contrast and its cap, the WISL over its
    floor ``M (M-1) N^2`` (uniform weights, M >= 2), and the steering regime.
    """
    state, grid = result.state, result.context.grid
    first, last = state.trace[0], state.trace[-1]
    m, _, n = result.levels.shape
    own = np.eye(m, dtype=bool)
    auto = result.levels[own][:, 1:]
    cross = result.levels[~own]
    direct_wisl = _lag_wisl(result.lags, cfg.profile())
    cap = contrast_cap(result.context)
    target = (cfg.angle_target - 1, cfg.range_target - 1)
    phase_error = fresnel_phase_error(grid.ranges[None, :], grid.theta[:, None], cfg.array)
    return {
        "outer_cycles": (len(state.trace) - 1) // 2,
        "warnings": len(state.warnings),
        "objective": (first.objective, last.objective),
        "trace_wisl": (first.wisl, last.wisl),
        "direct_wisl": direct_wisl,
        "matching_error": (first.beampattern_error, last.beampattern_error),
        "coupling_rms": last.coupling / math.sqrt(n * m),
        "peak_auto_db": float(auto.max()) if auto.size else None,
        "peak_cross_db": float(cross.max()) if cross.size else None,
        "contrast": contrast(result.pattern, *target) if grid.num_angles * grid.num_ranges > 1 else None,
        "contrast_cap": cap if cap < math.inf else None,
        "wisl_over_floor": direct_wisl / (m * (m - 1) * n * n) if m > 1 and cfg.weights == "uniform" else None,
        "fresnel_phase_error_max": float(phase_error.max()),
        "near_field_ranges": int(np.count_nonzero(grid.ranges < fraunhofer_distance(cfg.array))),
        "fresnel_bound_m": fresnel_bound(cfg.array),
    }


def _peak_db(level: float | None, none: str) -> str:
    """A peak level in dB, or ``none`` when there is no level to take."""
    return none if level is None else f"{level:6.1f} dB"


def _report(summary: dict, out_dir: Path, seconds: float) -> str:
    """Terminal text of :func:`summarize`'s figures, one a line, ending ``done:``."""
    s = summary
    return "\n".join(
        [
            f"ran {s['outer_cycles']} outer cycles in {seconds:.2f}s ({s['warnings']} warnings)",
            "objective        {:.4e} -> {:.4e}".format(*s["objective"]),
            "trace WISL       {:.4e} -> {:.4e} (Gram identity)".format(*s["trace_wisl"]),
            f"direct WISL      {s['direct_wisl']:.4e} (lag sums of the final copy)",
            "matching error   {:.4e} -> {:.4e}".format(*s["matching_error"]),
            f"copy coupling    {s['coupling_rms']:.2e} (RMS per entry)",
            f"peak auto sidelobe  {_peak_db(s['peak_auto_db'], 'none (N = 1 has no sidelobe lag)')}",
            f"peak cross level    {_peak_db(s['peak_cross_db'], 'none (M = 1 has no antenna pair)')}",
            f"done: artifacts in {out_dir}",
        ]
    )


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(prog="nfwave", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")
    design = sub.add_parser("design", help="run a waveform design from a config file")
    design.add_argument("config", help="path to the YAML config file")
    design.add_argument("--seed", type=int, default=None, help="override solver.seed")
    design.add_argument(
        "--print-effective-config",
        action="store_true",
        help="print the fully resolved config as YAML and exit without running",
    )
    design.add_argument(
        "--desired-csv",
        default=None,
        help="override the delta target with an explicit K1*K2 x N pattern",
    )
    return parser


def exit_code(exc: Exception) -> int:
    """Print a failed run's error to stderr; return 4 for an ``OSError``, else 2 (a config error)."""
    io = isinstance(exc, OSError)
    print(f"{'i/o' if io else 'config'} error: {exc}", file=sys.stderr)
    return 4 if io else 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "design":
        parser.print_help()
        return 0
    try:
        cfg = read_config(args.config)
        if args.seed is not None:
            data = effective_config(cfg)
            data["solver"]["seed"] = args.seed
            cfg = config_from_dict(data)
        if args.print_effective_config:
            import yaml

            sys.stdout.write(yaml.safe_dump(effective_config(cfg), sort_keys=False))
            return 0
        desired = None
        if args.desired_csv is not None:
            desired = load_desired_csv(Path(args.desired_csv), cfg.grid())
        start = time.perf_counter()
        result = run_design(cfg, desired)
    except (ConfigError, OSError) as exc:
        return exit_code(exc)
    seconds = time.perf_counter() - start
    print(_report(summarize(result, cfg), cfg.out_dir, seconds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
