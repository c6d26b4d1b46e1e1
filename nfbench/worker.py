"""One design in a fresh process: ``python3 worker.py '<json spec>'``.

The spec holds the checkout root, the nested config, the expected number of
half-cycles and whether to trace. The worker imports ``nfwave`` from
``<root>/src``, parses the config with ``nfwave.cli.config_from_dict``, times
``nfwave.cli.run_design`` (solve plus artifacts), checks the outputs and prints
one JSON line with its figures. ``t_enter`` is the ``perf_counter`` reading on
entering ``run_design``; the parent, whose clock is the same system-wide
monotonic clock, subtracts its spawn time to get the set-up time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, layer_metrics


def contrast(x: np.ndarray, alpha: np.ndarray, target: tuple[int, int]) -> tuple[float, float]:
    """Achieved target-to-background contrast and its physical cap.

    ``alpha`` is the (K1, K2, N, M) steering lattice. The cap is
    ``(K1 K2 - 1) / (min eig(S) - 1)`` with ``S`` the sum of the unit-norm cell
    projectors ``a a^H`` over the angle/range cells, which bounds the contrast
    of every unimodular waveform.
    """
    pattern = np.abs(np.einsum("klum,um->klu", alpha.conj(), np.fft.fft(x, axis=0))) ** 2
    mask = np.ones(pattern.shape[:2], dtype=bool)
    mask[target] = False
    achieved = pattern[target].mean() / pattern[mask].mean()
    cells = alpha[:, :, 0, :].reshape(-1, alpha.shape[-1])
    s = cells.T @ cells.conj()
    cap = (cells.shape[0] - 1) / (np.linalg.eigvalsh(s)[0] - 1.0)
    return float(achieved), float(cap)


def output_failures(state, half_cycles: int, tol: float) -> list[str]:
    """Ways one design's outputs can be wrong, as messages; empty when it is correct."""
    failures = []
    deviation = float(np.abs(np.abs(state.x1.values) - 1.0).max())
    if deviation > tol:
        failures.append(f"x1 not unimodular (deviation {deviation:.3e})")
    failures += [f"solver warning: {w}" for w in state.warnings]
    trace = state.trace
    # criterion 7: full-cycle objectives non-increasing at 1% slack
    full = [trace[0].objective] + [e.objective for e in trace if e.stage == "x1"]
    if not all(b <= a * 1.01 for a, b in zip(full, full[1:])):
        failures.append("full-cycle objective rose by more than 1%")
    if trace[-1].objective > trace[0].objective:
        failures.append("final objective above the initial one")
    if len(trace) - 1 != half_cycles:
        failures.append(f"ran {len(trace) - 1} half-cycles, expected {half_cycles}")
    return failures


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import nfwave.cli as cli
    from nfwave.model import UNIMODULAR_TOL

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported nfwave from {cli.__file__}, not from {src}")

    tracer = Tracer() if spec["trace"] else None
    with tracer or contextlib.nullcontext():
        cfg = cli.config_from_dict(spec["config"])
        t_enter = perf_counter()
        result = cli.run_design(cfg)
        t_exit = perf_counter()

    state = result.state
    m, n = cfg.array.num_antennas, cfg.array.code_length
    final = state.trace[-1]
    failures = output_failures(state, spec["half_cycles"], UNIMODULAR_TOL)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "t_enter": t_enter,
        "design_s": t_exit - t_enter,
        "half_cycles": len(state.trace) - 1,
        "objective": final.objective,
        "wisl_ratio": final.wisl / (m * (m - 1) * n * n),
        "matching_error": final.beampattern_error,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "digests": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in result.paths},
        "failures": failures,
    }
    if tracer is not None:
        if not tracer.restored():
            failures.append("trace hooks were not restored")
        layers = layer_metrics(tracer.spans, cfg.solver.inner_max)
        layers["solver.coupling_rms"] = final.coupling / (m * n) ** 0.5
        target = (cfg.angle_target - 1, cfg.range_target - 1)
        layers["nearfield.contrast"], layers["nearfield.contrast_cap"] = contrast(
            state.x1.values, result.context.alpha, target
        )
        out["layers"] = layers
        out["absent"] = tracer.absent
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
