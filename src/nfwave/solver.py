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

from .model import DesiredBeampattern, WaveformMatrix, WislProfile, as_integer, as_size, unvec
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
        for name in ("outer_iters", "inner_max", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
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


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``: NumPy's seed hashing.

    The seed's little-endian 32-bit words are hashed into a four-word pool,
    the pool words are mixed into each other and any words past the fourth
    into every pool word; the pool is then hashed out to eight 32-bit words,
    read back in pairs as four little-endian 64-bit words. All arithmetic is
    modulo 2**32.
    """
    mask = 0xFFFFFFFF
    words = [(seed >> shift) & mask for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & mask
        value = value * hash_const & mask
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & mask
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & mask
        value = value * hash_const & mask
        state.append(value ^ value >> 16)
    return [state[2 * k] | state[2 * k + 1] << 32 for k in range(4)]


def _uniform_phases(seed: int, count: int) -> np.ndarray:
    """The first ``count`` draws of ``default_rng(seed).uniform(0, 2 pi)``.

    PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit LCG whose state is seeded
    from the first two words of :func:`_seed_state` and whose odd increment
    comes from the last two (the ``setseq`` seeding: step, add the seed,
    step); each draw steps the LCG and outputs the XOR of the state's halves
    rotated right by its top six bits (XSL-RR). A double takes the top 53
    bits of the output times 2**-53, and the phase is that double times 2 pi.
    """
    mask128 = (1 << 128) - 1
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    state = _seed_state(seed)
    inc = ((state[2] << 64 | state[3]) << 1 | 1) & mask128
    lcg = ((inc + (state[0] << 64 | state[1])) * mult + inc) & mask128
    top53 = [0] * count
    for i in range(count):
        lcg = (lcg * mult + inc) & mask128
        x = (lcg >> 64 ^ lcg) & 0xFFFFFFFFFFFFFFFF
        rot = lcg >> 122
        top53[i] = (x >> rot | x << (64 - rot)) >> 11 & 0x1FFFFFFFFFFFFF
    return np.array(top53, dtype=float) * 2.0**-53 * (2.0 * math.pi)


def init_waveform(num_samples: int, num_antennas: int, seed: int) -> WaveformMatrix:
    """Random unimodular start: i.i.d. uniform phases from a seeded generator.

    The phases are ``np.random.default_rng(seed).uniform(0, 2 pi, (N, M))``
    bit for bit, from NumPy's stream (``SeedSequence`` seeding a PCG64) written
    out in :func:`_uniform_phases`. No ``numpy.random`` is imported: that
    import costs ~10 ms, the largest one-off cost of a design process, and
    NumPy does not promise that a ``Generator`` stream stays the same across
    releases, so pinning the algorithm here also keeps the start phases
    independent of the installed NumPy. The sizes are integers of at least 1
    (see :func:`~nfwave.model.as_size`) and ``seed`` a nonnegative integer of
    any size, each a Python or NumPy integer and not a bool.
    """
    num_samples = as_size("num_samples", num_samples)
    num_antennas = as_size("num_antennas", num_antennas)
    seed = as_integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    phases = _uniform_phases(seed, num_samples * num_antennas)
    return WaveformMatrix.from_phases(phases.reshape(num_samples, num_antennas))


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
