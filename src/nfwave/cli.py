"""Config-driven experiment runner emitting plot-ready CSV/JSONL artifacts.

Config files are nested YAML with five sections (all optional; omitted keys
fall back to the built-in defaults):

    array:  M, N, fc_hz, bandwidth_hz, spacing_m (optional)
    grid:   K1, K2
    solver: gamma, rho, epochs, inner_tol, inner_max, outer_tol, seed, weights
    target: k1_star, k2_star, desired_peak
    output: out_dir

``weights`` is either the string ``uniform`` or a list of ``2N - 1`` lag
weights. ``k1_star``/``k2_star`` are 1-based grid indices of the desired
mainlobe. Exit codes: 0 success, 2 config error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .correlation import _level_db, correlation_matrix
from .model import (
    ArrayConfig,
    DesiredBeampattern,
    GridSpec,
    WislProfile,
    build_grid,
    build_wisl_profile,
)
from .nearfield import SteeringContext, beampattern_grid, build_steering_context
from .solver import SolverConfig, SolverState, cypmli


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


# The config schema: every known key with its default; None marks an optional
# key whose default is derived from other values (spacing from the band, the
# target indices from the grid centre).
_DEFAULTS = {
    "array": {"M": 4, "N": 64, "fc_hz": 1.0e9, "bandwidth_hz": 2.0e8, "spacing_m": None},
    "grid": {"K1": 20, "K2": 10},
    "solver": {
        "gamma": 0.5,
        "rho": 2.0,
        "epochs": 100,
        "inner_tol": 1e-5,
        "inner_max": 100,
        "outer_tol": 1e-6,
        "seed": 0,
        "weights": "uniform",
    },
    "target": {"k1_star": None, "k2_star": None, "desired_peak": 1.0},
    "output": {"out_dir": "out"},
}


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
        return build_wisl_profile(np.asarray(self.weights, dtype=float), n)


def _as_int(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return value


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


def parse_config(source) -> RunConfig:
    """Build a :class:`RunConfig` from a YAML file path or inline YAML text.

    ``source`` may be a ``pathlib.Path``, the path of an existing file, or
    inline YAML text (an empty string yields the full defaults).
    """
    if isinstance(source, Path):
        try:
            text = source.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source}: {exc}") from exc
    elif isinstance(source, str) and "\n" not in source and Path(source).is_file():
        text = Path(source).read_text()
    else:
        text = source

    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping of sections")
    return config_from_dict(data)


def config_from_dict(data: dict) -> RunConfig:
    """Validate a nested config mapping and apply defaults."""
    unknown = []
    for section, body in data.items():
        if section not in _DEFAULTS:
            unknown.append(str(section))
            continue
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section '{section}' must be a mapping")
        for key in body:
            if key not in _DEFAULTS[section]:
                unknown.append(f"{section}.{key}")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def get(section: str, key: str, derived=None):
        value = (data.get(section) or {}).get(key, _DEFAULTS[section][key])
        return derived if value is None else value

    num_antennas = _as_int("array", "M", get("array", "M"))
    code_length = _as_int("array", "N", get("array", "N"))
    fc = _as_float("array", "fc_hz", get("array", "fc_hz"))
    bandwidth = _as_float("array", "bandwidth_hz", get("array", "bandwidth_hz"))
    spacing_raw = get("array", "spacing_m")
    spacing = None if spacing_raw is None else _as_float("array", "spacing_m", spacing_raw)
    num_angles = _as_int("grid", "K1", get("grid", "K1"))
    num_ranges = _as_int("grid", "K2", get("grid", "K2"))

    gamma = _as_float("solver", "gamma", get("solver", "gamma"))
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("gamma must lie in [0,1]")

    weights = get("solver", "weights")
    if isinstance(weights, str):
        if weights != "uniform":
            raise ConfigError(f"weights must be 'uniform' or a list, got {weights!r}")
    elif isinstance(weights, (list, tuple)):
        expected = 2 * code_length - 1
        if len(weights) != expected:
            raise ConfigError(f"weights must have {expected} entries (lags -N+1..N-1), got {len(weights)}")
        weights = tuple(_as_float("solver", "weights", w) for w in weights)
    else:
        raise ConfigError(f"weights must be 'uniform' or a list, got {weights!r}")

    try:
        array = ArrayConfig(num_antennas, code_length, fc, bandwidth, spacing=spacing)
        solver = SolverConfig(
            gamma=gamma,
            rho=_as_float("solver", "rho", get("solver", "rho")),
            outer_iters=_as_int("solver", "epochs", get("solver", "epochs")),
            inner_tol=_as_float("solver", "inner_tol", get("solver", "inner_tol")),
            inner_max=_as_int("solver", "inner_max", get("solver", "inner_max")),
            outer_tol=_as_float("solver", "outer_tol", get("solver", "outer_tol")),
            seed=_as_int("solver", "seed", get("solver", "seed")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    angle_target = _as_int("target", "k1_star", get("target", "k1_star", (num_angles + 1) // 2))
    range_target = _as_int("target", "k2_star", get("target", "k2_star", (num_ranges + 1) // 2))
    if not 1 <= angle_target <= num_angles:
        raise ConfigError(f"k1_star index {angle_target} outside [1, {num_angles}]")
    if not 1 <= range_target <= num_ranges:
        raise ConfigError(f"k2_star index {range_target} outside [1, {num_ranges}]")
    desired_peak = _as_float("target", "desired_peak", get("target", "desired_peak"))
    if desired_peak < 0:
        raise ConfigError("desired_peak must be nonnegative")

    out_dir = get("output", "out_dir")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.out_dir must be a non-empty string")

    return RunConfig(
        array=array,
        num_angles=num_angles,
        num_ranges=num_ranges,
        solver=solver,
        angle_target=angle_target,
        range_target=range_target,
        desired_peak=desired_peak,
        weights=weights if isinstance(weights, str) else tuple(weights),
        out_dir=Path(out_dir),
    )


def effective_config(cfg: RunConfig) -> dict:
    """Nested mapping of the fully resolved configuration (round-trippable)."""
    return {
        "array": {
            "M": cfg.array.num_antennas,
            "N": cfg.array.code_length,
            "fc_hz": cfg.array.carrier_freq_hz,
            "bandwidth_hz": cfg.array.bandwidth_hz,
            "spacing_m": cfg.array.spacing,
        },
        "grid": {"K1": cfg.num_angles, "K2": cfg.num_ranges},
        "solver": {
            "gamma": cfg.solver.gamma,
            "rho": cfg.solver.rho,
            "epochs": cfg.solver.outer_iters,
            "inner_tol": cfg.solver.inner_tol,
            "inner_max": cfg.solver.inner_max,
            "outer_tol": cfg.solver.outer_tol,
            "seed": cfg.solver.seed,
            "weights": cfg.weights if cfg.weights == "uniform" else list(cfg.weights),
        },
        "target": {
            "k1_star": cfg.angle_target,
            "k2_star": cfg.range_target,
            "desired_peak": cfg.desired_peak,
        },
        "output": {"out_dir": str(cfg.out_dir)},
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
    values = flat.reshape(grid.num_angles, grid.num_ranges, grid.num_bins)
    if values.min() < 0:
        raise ConfigError("desired beampattern must be nonnegative")
    return DesiredBeampattern(values)


def _write_matrix_csv(
    path: Path, header: list[str], rows: np.ndarray, formats: list[str] | None = None
) -> None:
    """Write ``rows`` under ``header`` with one ``%`` format over the whole table.

    ``formats`` holds each column's conversion; the default ``%.17g`` gives
    the same round-trip text as ``format(x, ".17g")``.
    """
    rows = np.atleast_2d(rows)
    line = ",".join(formats or ["%.17g"] * rows.shape[1])
    body = "\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())
    path.write_text(",".join(header) + "\n" + body + "\n", newline="\n")


def emit_outputs(state: SolverState, ctx: SteeringContext, cfg: RunConfig) -> list[Path]:
    """Write the five artifacts and return their paths.

    waveform.csv           N x M phases in [0, 2*pi)
    beampattern_angle.csv  K1 x N power at the target range node
    beampattern_range.csv  K2 x N power at the target angle node
    correlation.csv        rows (m, m', k, |r|, level_db), indices 1-based
    trace.jsonl            one JSON record per half-cycle
    """
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    n = ctx.config.code_length
    m = ctx.config.num_antennas
    paths = []

    waveform_path = out / "waveform.csv"
    _write_matrix_csv(waveform_path, [f"m{j + 1}" for j in range(m)], state.x1.phases())
    paths.append(waveform_path)

    pattern = beampattern_grid(state.x1, ctx)
    bin_header = [f"u{u}" for u in range(n)]
    angle_path = out / "beampattern_angle.csv"
    _write_matrix_csv(angle_path, bin_header, pattern[:, cfg.range_target - 1, :])
    paths.append(angle_path)
    range_path = out / "beampattern_range.csv"
    _write_matrix_csv(range_path, bin_header, pattern[cfg.angle_target - 1, :, :])
    paths.append(range_path)

    corr = correlation_matrix(state.x1)
    antenna = np.arange(1, m + 1)
    rows, cols, lags = np.meshgrid(antenna, antenna, np.arange(1 - n, n), indexing="ij")
    # hypot is what abs() of a Python complex computes, to the last digit
    magnitude = np.hypot(corr.real, corr.imag)
    table = np.stack([rows, cols, lags, magnitude, _level_db(corr)], axis=-1)
    corr_path = out / "correlation.csv"
    _write_matrix_csv(
        corr_path,
        ["m", "m_prime", "k", "magnitude", "level_db"],
        table.reshape(-1, 5),
        ["%d"] * 3 + ["%.17g"] * 2,
    )
    paths.append(corr_path)

    trace_path = out / "trace.jsonl"
    trace_path.write_text(
        "".join(json.dumps(entry.as_dict()) + "\n" for entry in state.trace), newline="\n"
    )
    paths.append(trace_path)
    return paths


@dataclass
class RunResult:
    state: SolverState
    paths: list[Path]
    context: SteeringContext


def run_design(cfg: RunConfig, desired: DesiredBeampattern | None = None) -> RunResult:
    """Build the pipeline from a config, solve, and write all artifacts."""
    grid = cfg.grid()
    ctx = build_steering_context(cfg.array, grid)
    if desired is None:
        desired = DesiredBeampattern.delta(
            grid, cfg.angle_target - 1, cfg.range_target - 1, cfg.desired_peak
        )
    state = cypmli(ctx, desired, cfg.profile(), cfg.solver)
    paths = emit_outputs(state, ctx, cfg)
    return RunResult(state, paths, ctx)


def _build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "design":
        parser.print_help()
        return 0
    try:
        cfg = parse_config(Path(args.config))
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be a nonnegative integer")
            data = effective_config(cfg)
            data["solver"]["seed"] = args.seed
            cfg = config_from_dict(data)
        if args.print_effective_config:
            sys.stdout.write(yaml.safe_dump(effective_config(cfg), sort_keys=False))
            return 0
        desired = None
        if args.desired_csv is not None:
            desired = load_desired_csv(Path(args.desired_csv), cfg.grid())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_design(cfg, desired)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4

    final = result.state.trace[-1]
    print(
        f"done: objective {final.objective:.6g}, wisl {final.wisl:.6g}, "
        f"coupling {final.coupling:.3g}, artifacts in {cfg.out_dir}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
