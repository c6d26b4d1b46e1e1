"""Cyclic two-block solver built on phase-projection power iterations.

The quartic design objective is split over two coupled waveform copies. Each
half-cycle freezes one copy, linearizes the objective there to get a plain
quadratic operator, loads that operator with a bound on its top eigenvalue
(Weyl's inequality over its matching and sidelobe parts, each taken from a
dense eigendecomposition of the small blocks it holds) to turn the
minimization into an equivalent maximization over unimodular vectors, and
runs the phase-projection fixed point on the other copy with a proximity
momentum term pulling toward the frozen one. For a fixed reference the loaded
augmented objective is non-decreasing at every inner step; the copies are
driven toward each other by the momentum and the alternation.

The per-copy work outside the inner loop is done once per half-cycle. The
trace record of the updated copy linearizes the matching objective there
(:meth:`~nfwave.objective.BeampatternOperator.linearize`: per-bin blocks from
the copy's code spectra and a lattice kernel built once per design) and
computes its WISL Gram ``Q``. The matching error comes from the blocks by the
quartic identity, the sidelobe surrogate ``Re tr(X^H Q X) = 2N sum w^2 |r|^2``
from the Gram, and the WISL from the surrogate minus the weighted zero-lag
autocorrelations it includes. The next half-cycle, which freezes that copy,
takes the same blocks and Gram as its two parts, so every copy is linearized
once and gets one Gram, no correlation lags are computed and no beampattern
is evaluated over the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DesiredBeampattern, WaveformMatrix, WislProfile, unvec
from .nearfield import SteeringContext
from .objective import BeampatternOperator, CombinedOperator, WislOperator, check_blend
# re-exported: nfbench hooks the loading at nfwave.solver.estimate_lambda_max
from .objective import estimate_lambda_max  # noqa: F401


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs. ``gamma`` blends matching (1) against sidelobes (0)."""

    gamma: float = 0.5
    rho: float = 2.0
    outer_iters: int = 100
    inner_tol: float = 1e-5
    inner_max: int = 100
    outer_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        check_blend(self.gamma, self.rho)
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be nonnegative")
        for tol in (self.inner_tol, self.outer_tol):
            if not (tol > 0 and math.isfinite(tol)):
                raise ValueError("tolerances must be positive and finite")
        if self.inner_max < 1:
            raise ValueError("inner_max must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class TraceEntry:
    """One record per half-cycle (plus the initial state)."""

    outer: int
    stage: str  # "init", "x2" or "x1"
    objective: float  # gamma * matching error + (1 - gamma) * sidelobe surrogate
    wisl: float  # Gram-identity WISL of the just-updated copy (tests check it against the lag sums)
    beampattern_error: float
    coupling: float  # Frobenius distance between the two copies

    def as_dict(self) -> dict:
        # the fields in declaration order; unlike dataclasses.asdict, no deep copy
        return dict(vars(self))


@dataclass
class SolverState:
    """Final waveform pair with the per-half-cycle objective trace."""

    x1: WaveformMatrix
    x2: WaveformMatrix
    trace: list[TraceEntry] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def init_waveform(num_samples: int, num_antennas: int, seed: int) -> WaveformMatrix:
    """Random unimodular start: i.i.d. uniform phases from a seeded generator."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(num_samples, num_antennas))
    return WaveformMatrix.from_phases(phases)


def pmli_inner(
    x_fixed: WaveformMatrix,
    x_var: WaveformMatrix,
    op: CombinedOperator,
    cfg: SolverConfig,
    callback=None,
) -> WaveformMatrix:
    """Phase-projection fixed point against one frozen reference.

    Iterates ``v <- d / |d|`` with ``d = loaded(v) + momentum * vec(X_fixed)``
    (the projection ``exp(j arg d)`` onto the unit circle) until the RMS
    change of the phase vector drops below ``inner_tol`` or ``inner_max``
    steps have run; ``op.momentum`` carries the loading-scaled proximity
    pull. Each step is one :meth:`~nfwave.objective.CombinedOperator.apply_loaded`,
    which reads the loading at call time, with the pull added in place. When
    no entry of ``d`` is zero the projection is the plain divide ``d / |d|``;
    otherwise a masked divide maps an exactly-zero entry to phase 0 (entry 1),
    so the update never aborts and stays deterministic. A NaN entry stays NaN
    on either path, so the output waveform rejects it. The step size is
    ``sqrt(Re vdot(diff, diff)) / sqrt(NM)``. ``callback`` (if given) receives
    every new iterate; the output is unimodular to rounding.
    """
    pull = op.momentum * x_fixed.vec()
    v = x_var.vec()
    scale = math.sqrt(v.size)
    for _ in range(cfg.inner_max):
        drive = op.apply_loaded(v)
        drive += pull
        mag = np.abs(drive)
        if np.count_nonzero(mag) == mag.size:  # NaN counts as nonzero and stays NaN
            drive /= mag
            nxt = drive
        else:
            # != rather than >: a NaN entry must stay NaN, not pass as phase 0
            nxt = np.divide(drive, mag, out=np.ones_like(drive), where=mag != 0)
        if callback is not None:
            callback(nxt.copy())
        diff = nxt - v
        step = math.sqrt(np.vdot(diff, diff).real) / scale
        v = nxt
        if step < cfg.inner_tol:
            break
    return WaveformMatrix(unvec(v, x_var.num_samples, x_var.num_antennas))


def cypmli(
    ctx: SteeringContext,
    desired: DesiredBeampattern,
    profile: WislProfile,
    cfg: SolverConfig,
) -> SolverState:
    """Cyclic solve: update copy 2 against frozen copy 1, then the reverse.

    Per half-cycle the combined operator is rebuilt at the frozen copy, which
    also sets its loading level to a certified bound on its top eigenvalue
    (see :class:`CombinedOperator`). Terminates
    early when the relative change of the combined objective between full
    cycles falls below ``outer_tol``. The reported waveform is copy 1; the
    coupling column of the trace shows how far the two copies are apart.
    """
    n = ctx.config.code_length
    m = ctx.config.num_antennas
    if profile.code_length != n:
        raise ValueError("lag profile does not match the code length")
    bp = BeampatternOperator(ctx, desired)
    sidelobe = WislOperator(profile)

    zero_lag_w2 = profile.weights[n - 1] ** 2

    x1 = init_waveform(n, m, cfg.seed)
    x2 = x1
    state = SolverState(x1, x2)

    def record(x: WaveformMatrix, outer: int, stage: str) -> tuple[float, np.ndarray, np.ndarray]:
        """Append the trace entry of ``x``; return its objective, Gram and matching blocks."""
        blocks, bp_err = bp.linearize(x)
        gram = sidelobe.gram(x)
        quad = float(np.real(np.vdot(x.values, gram @ x.values)))
        # Re tr(X^H Q X) = 2N sum w^2 |r|^2 is the WISL plus the weighted zero-lag
        # autocorrelations r_mm(0) = ||x_m||^2 that it leaves out
        zero_lag = np.sum(np.abs(x.values) ** 2, axis=0)
        side = quad / (2 * n) - zero_lag_w2 * float(np.sum(zero_lag**2))
        obj = cfg.gamma * bp_err + (1.0 - cfg.gamma) * quad
        coupling = float(np.linalg.norm(x1.values - x2.values))
        state.trace.append(TraceEntry(outer, stage, obj, side, bp_err, coupling))
        return obj, gram, blocks

    # the frozen copy of every half-cycle is the copy recorded just before it,
    # so its Gram and blocks are always the ones the last record computed
    prev, gram, blocks = record(x1, 0, "init")
    for outer in range(cfg.outer_iters):
        for stage in ("x2", "x1"):
            fixed = x1 if stage == "x2" else x2
            moving = x2 if stage == "x2" else x1
            op = CombinedOperator(bp, sidelobe, fixed, cfg.gamma, cfg.rho, gram, blocks)
            updated = pmli_inner(fixed, moving, op, cfg)
            if stage == "x2":
                x2 = updated
            else:
                x1 = updated
            obj, gram, blocks = record(updated, outer, stage)
        if abs(obj - prev) <= cfg.outer_tol * max(abs(prev), np.finfo(float).tiny):
            break
        prev = obj

    state.x1 = x1
    state.x2 = x2
    return state
