"""Near-field propagation geometry, steering vectors and beampatterns.

Inside the Fraunhofer distance ``2 D^2 / lambda`` the wavefront curvature
makes the array response depend on range as well as angle. The quadratic
range term is kept to second order (Fresnel approximation), which is what
gives the steering phase its ``(1 - theta^2) / (2 p)`` range dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SPEED_OF_LIGHT, ArrayConfig, GridSpec, WaveformMatrix, as_integer, as_size


def _target(range_, sin_angle, config: ArrayConfig):
    """Range and sine with a trailing antenna axis, and the (M,) element offsets from element 1.

    Rejects, entrywise, a range not positive and finite or a sine outside [-1, 1]; NaN fails too.
    """
    p = np.asarray(range_, dtype=float)[..., None]
    sin_angle = np.asarray(sin_angle, dtype=float)[..., None]
    if not np.all((p > 0) & np.isfinite(p)):
        raise ValueError("range must be positive and finite")
    if not np.all(np.abs(sin_angle) <= 1):
        raise ValueError("sin_angle must lie in [-1, 1]")
    return p, sin_angle, np.arange(config.num_antennas) * config.spacing


def _fresnel_delay(range_to_origin, sin_angle, offset):
    """Second-order path saving ``offset sin - offset^2 (1 - sin^2) / (2 range)`` over the origin."""
    curvature = (1.0 - sin_angle**2) / (2.0 * range_to_origin)
    return offset * sin_angle - offset**2 * curvature


def exact_distance(
    range_: float | np.ndarray, sin_angle: float | np.ndarray, config: ArrayConfig
) -> np.ndarray:
    """Every element's distance to the target, from its offsets along and across the array axis.

    Element 1 sits at the origin, from which ``range_`` is measured;
    ``sin_angle``, the sine of the off-broadside angle, is the cosine of the
    angle to the array axis. The law of cosines ``r^2 + o^2 - 2 r o sin``
    written as the sum of two squares cannot round below zero, not even for
    a target on an element. Broadcasts like :func:`steering_vector`, with the
    antenna axis last.
    """
    p, sin_angle, offsets = _target(range_, sin_angle, config)
    along = p - offsets * sin_angle
    return np.hypot(along, offsets * np.sqrt(1.0 - sin_angle**2))


def fresnel_distance(
    range_: float | np.ndarray, sin_angle: float | np.ndarray, config: ArrayConfig
) -> np.ndarray:
    """Second-order expansion of :func:`exact_distance`: the Fresnel model of :func:`steering_vector`."""
    p, sin_angle, offsets = _target(range_, sin_angle, config)
    return p - _fresnel_delay(p, sin_angle, offsets)


def fresnel_phase_error(range_, sin_angle, config: ArrayConfig) -> np.ndarray:
    """Each element's Fresnel phase error ``2 pi / lambda |exact - fresnel|``, the antenna axis last."""
    gap = exact_distance(range_, sin_angle, config) - fresnel_distance(range_, sin_angle, config)
    return 2 * np.pi / config.wavelength * np.abs(gap)


def fraunhofer_distance(config: ArrayConfig) -> float:
    """Far-field boundary 2 D^2 / lambda; zero for a single element."""
    return 2.0 * config.aperture**2 / config.wavelength


def fresnel_bound(config: ArrayConfig) -> float:
    """Range ``0.62 sqrt((2D)^3 / lambda)`` past which the Fresnel model (about element 1, an end) holds."""
    return 0.62 * math.sqrt((2 * config.aperture) ** 3 / config.wavelength)


def steering_vector(
    range_: float | np.ndarray, sin_angle: float | np.ndarray, config: ArrayConfig
) -> np.ndarray:
    """Near-field array response with entries of modulus ``1/sqrt(M)``.

    ``range_`` is in meters; the wavenumber is ``carrier / SPEED_OF_LIGHT``.
    The common range phase is kept as a global scalar; the per-element phase
    is the Fresnel path saving of :func:`fresnel_distance`, whose curvature
    term vanishes as the range grows so the far-field response is recovered.
    ``range_`` and ``sin_angle`` may be arrays: they broadcast against each
    other and the antenna axis is appended last.
    """
    p, sin_angle, offsets = _target(range_, sin_angle, config)
    k = config.carrier_freq_hz / SPEED_OF_LIGHT  # cycles per meter
    tilt = np.exp(2j * np.pi * k * _fresnel_delay(p, sin_angle, offsets))
    return np.exp(-2j * np.pi * k * p) / np.sqrt(config.num_antennas) * tilt


@dataclass(frozen=True, eq=False)
class SteeringContext:
    """Array/grid bundle with the lattice's steering vectors, stored once per cell.

    ``base[k1, k2]`` is the conjugated steering vector at angle node k1 and
    range node k2, shape (K1, K2, M); ``bin_phase`` holds the (N,)
    unit-modulus per-bin phase factors. Every entry has modulus ``1/sqrt(M)``.
    The solver reads ``base``; ``alpha`` is derived on access, for the tests
    and nfbench. ``dft`` is the lattice's DFT matrix, built once on first access
    and shared by the matching operator and :func:`beampattern_grid`.
    """

    config: ArrayConfig
    grid: GridSpec
    base: np.ndarray
    bin_phase: np.ndarray

    @property
    def alpha(self) -> np.ndarray:
        """The (K1, K2, N, M) lattice ``alpha[k1, k2, u] = bin_phase[u] * base[k1, k2]``."""
        return self.bin_phase[None, None, :, None] * self.base[:, :, None, :]

    @cached_property
    def dft(self) -> np.ndarray:
        """Read-only :func:`dft_matrix` of the ``N`` frequency bins."""
        matrix = dft_matrix(self.grid.num_bins)
        matrix.setflags(write=False)
        return matrix


def build_steering_context(config: ArrayConfig, grid: GridSpec) -> SteeringContext:
    """Precompute the (K1, K2, M) steering vectors and the (N,) bin phases of the lattice."""
    if grid.num_bins != config.code_length:
        raise ValueError(
            f"grid has {grid.num_bins} frequency bins but the code length is {config.code_length}"
        )
    base = np.conj(steering_vector(grid.ranges[None, :], grid.theta[:, None], config))
    # per-bin scalar at f = u / (N Ts); unit modulus, inert under |.|^2
    freqs = np.arange(grid.num_bins) * (config.bandwidth_hz / grid.num_bins)
    bin_phase = np.exp(-2j * np.pi * freqs)
    for arr in (base, bin_phase):
        arr.setflags(write=False)
    return SteeringContext(config, grid, base, bin_phase)


def dft_vector(n: int, u: int) -> np.ndarray:
    """Length-n analysis vector ``exp(-2j pi i u / n)``, i < n: row ``u mod n`` of :func:`dft_matrix`.

    ``n`` and ``u`` are integers, ``n >= 1``.
    """
    n = as_size("n", n)
    u = as_integer("u", u)
    return dft_matrix(n)[u % n]


def dft_matrix(n: int) -> np.ndarray:
    """Unnormalized N x N DFT matrix ``F[u, i] = exp(-2j pi u i / N)``; row u is ``f_u``.

    Entry ``(u, i)`` is the root of unity ``exp(-2j pi k / N)`` with
    ``k = u i mod N``: reducing the phase first keeps every entry accurate to
    the last bit at large N, and the N roots are computed once and gathered.
    ``n`` is an integer ``>= 1``.
    """
    n = as_size("n", n)
    index = np.arange(n)
    roots = np.exp(-2j * np.pi * index / n)
    return roots[np.outer(index, index) % n]


def beampattern_grid(waveform: WaveformMatrix, ctx: SteeringContext) -> np.ndarray:
    """Beampattern ``|alpha^H X^T f_u|^2`` over the whole lattice, shape (K1, K2, N).

    One product with the context's :attr:`~SteeringContext.dft` gives every
    ``X^T f_u``; ``|alpha^T conj(X^T f_u)|^2`` drops the unit-modulus
    ``bin_phase[u]``, so the lattice is one (K1 K2, M) x (M, N) product with
    ``base``. A design calls it once, for the artifacts; at that one
    call the O(N^2 M) product costs no more than importing ``numpy.fft``, up to
    N = 256, so no design imports it.
    """
    return spectra_pattern(ctx.dft @ waveform.values, ctx)


def spectra_pattern(spectra: np.ndarray, ctx: SteeringContext) -> np.ndarray:
    """:func:`beampattern_grid` of the code spectra ``spectra``, whose row u is ``X^T f_u``."""
    coeffs = ctx.base.reshape(-1, ctx.base.shape[-1]) @ spectra.conj().T
    # squared in place: one lattice-sized temporary fewer
    power = np.abs(coeffs)
    power *= power
    return power.reshape(*ctx.base.shape[:2], -1)


def steering_gram(ctx: SteeringContext) -> np.ndarray:
    """M x M steering Gram ``S = sum_cells a a^H`` of ``base``, every bin's: the unit ``bin_phase`` cancels."""
    cells = ctx.base.reshape(-1, ctx.base.shape[-1])
    return cells.T @ cells.conj()


def contrast_cap(ctx: SteeringContext) -> float:
    """README's cap ``(K1 K2 - 1) / (min eig(S) - 1)`` on a unimodular :func:`contrast`; ``inf`` if vacuous."""
    cells = ctx.grid.num_angles * ctx.grid.num_ranges
    lam_min = float(np.linalg.eigvalsh(steering_gram(ctx))[0])
    return (cells - 1) / (lam_min - 1.0) if lam_min > 1.0 and cells > 1 else math.inf


def contrast(pattern: np.ndarray, angle_index: int, range_index: int) -> float:
    """A (K1, K2, N) pattern's bin-averaged power at one cell over the mean of every other cell."""
    mask = np.ones(pattern.shape[:2], dtype=bool)
    mask[angle_index, range_index] = False
    return float(pattern[angle_index, range_index].mean() / pattern[mask].mean())
