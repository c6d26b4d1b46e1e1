"""Near-field propagation geometry, steering vectors, spectra and beampatterns.

Inside the Fraunhofer distance ``2 D^2 / lambda`` the wavefront curvature
makes the array response depend on range as well as angle. The quadratic
range term is kept to second order (Fresnel approximation), which is what
gives the steering phase its ``(1 - theta^2) / (2 p)`` range dependence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ArrayConfig, GridSpec, WaveformMatrix


def exact_distance(range_to_origin: float, sin_angle: float, element: int, spacing: float) -> float:
    """Element-to-target distance by the law of cosines.

    ``element`` is the 1-based antenna index; element 1 sits at the array
    origin. ``sin_angle`` is the sine of the off-broadside angle, so the
    angle between the target direction and the array axis has this cosine.
    """
    if range_to_origin <= 0:
        raise ValueError("range must be positive")
    if abs(sin_angle) > 1:
        raise ValueError("sin_angle must lie in [-1, 1]")
    if element < 1:
        raise ValueError("element index is 1-based and must be >= 1")
    offset = (element - 1) * spacing
    radicand = range_to_origin**2 + offset**2 - 2.0 * range_to_origin * offset * sin_angle
    if radicand < 0:
        raise ValueError("geometrically impossible input: negative squared distance")
    return float(np.sqrt(radicand))


def fresnel_distance(range_to_origin: float, sin_angle: float, element: int, spacing: float) -> float:
    """Second-order expansion of :func:`exact_distance` in the element offset."""
    if range_to_origin <= 0:
        raise ValueError("range must be positive")
    if abs(sin_angle) > 1:
        raise ValueError("sin_angle must lie in [-1, 1]")
    if element < 1:
        raise ValueError("element index is 1-based and must be >= 1")
    offset = (element - 1) * spacing
    curvature = (1.0 - sin_angle**2) / (2.0 * range_to_origin)
    return float(range_to_origin - offset * sin_angle + offset**2 * curvature)


def fraunhofer_distance(config: ArrayConfig) -> float:
    """Far-field boundary 2 D^2 / lambda; zero for a single element."""
    return 2.0 * config.aperture**2 / config.wavelength


def steering_vector(
    range_: float | np.ndarray, sin_angle: float | np.ndarray, config: ArrayConfig
) -> np.ndarray:
    """Near-field array response with entries of modulus ``1/sqrt(M)``.

    ``range_`` is in normalized units (multiplied by ``config.range_scale``
    to get meters). The common range phase is kept as a global scalar; the
    per-element part carries the linear angle term minus the quadratic
    curvature term, which vanishes as the range grows so the far-field
    response is recovered. ``range_`` and ``sin_angle`` may be arrays: they
    broadcast against each other and the antenna axis is appended last.
    """
    p = np.asarray(range_, dtype=float)[..., None] * config.range_scale
    sin_angle = np.asarray(sin_angle, dtype=float)[..., None]
    if np.any(p <= 0):
        raise ValueError("range must be positive")
    if np.any(np.abs(sin_angle) > 1):
        raise ValueError("sin_angle must lie in [-1, 1]")
    k = config.carrier_freq_hz / config.wave_speed  # cycles per meter
    offsets = np.arange(config.num_antennas) * config.spacing
    curvature = (1.0 - sin_angle**2) / (2.0 * p)
    tilt = np.exp(2j * np.pi * k * (offsets * sin_angle - offsets**2 * curvature))
    return np.exp(-2j * np.pi * k * p) / np.sqrt(config.num_antennas) * tilt


@dataclass(frozen=True, eq=False)
class SteeringContext:
    """Array/grid bundle with precomputed per-cell steering vectors.

    ``alpha[k1, k2, u]`` is the conjugated steering vector at angle node k1
    and range node k2, scaled by the unit-modulus per-bin phase factor; all
    entries have modulus ``1/sqrt(M)``. It factors as
    ``alpha[k1, k2, u] = bin_phase[u] * base[k1, k2]``, with ``base`` the
    (K1, K2, M) conjugated steering vectors and ``bin_phase`` the (N,) phase
    factors.
    """

    config: ArrayConfig
    grid: GridSpec
    alpha: np.ndarray
    base: np.ndarray
    bin_phase: np.ndarray


def build_steering_context(config: ArrayConfig, grid: GridSpec) -> SteeringContext:
    """Precompute the (K1, K2, N, M) steering array for the whole lattice."""
    if grid.num_bins != config.code_length:
        raise ValueError(
            f"grid has {grid.num_bins} frequency bins but the code length is {config.code_length}"
        )
    base = np.conj(steering_vector(grid.ranges[None, :], grid.theta[:, None], config))
    # per-bin scalar at f = u / (N Ts); unit modulus, inert under |.|^2
    freqs = grid.bins * (config.bandwidth_hz / grid.num_bins)
    bin_phase = np.exp(-2j * np.pi * freqs)
    alpha = bin_phase[None, None, :, None] * base[:, :, None, :]
    for arr in (alpha, base, bin_phase):
        arr.setflags(write=False)
    return SteeringContext(config, grid, alpha, base, bin_phase)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Per-bin DFT rows: ``values[u, m]`` is antenna m's spectrum at bin u."""

    values: np.ndarray


def dft_vector(n: int, u: int) -> np.ndarray:
    """Length-n analysis vector with entries ``exp(-2j pi n u / N)``."""
    return np.exp(-2j * np.pi * np.arange(n) * u / n)


def dft_spectrum(waveform: WaveformMatrix) -> Spectrum:
    """Column-wise DFT of the code matrix; row u equals ``X^T f_u``."""
    return Spectrum(np.fft.fft(waveform.values, axis=0))


def _check_cell(grid: GridSpec, angle_index: int, range_index: int, bin_index: int) -> None:
    if not 0 <= angle_index < grid.num_angles:
        raise IndexError(f"angle index {angle_index} outside [0, {grid.num_angles})")
    if not 0 <= range_index < grid.num_ranges:
        raise IndexError(f"range index {range_index} outside [0, {grid.num_ranges})")
    if not 0 <= bin_index < grid.num_bins:
        raise IndexError(f"bin index {bin_index} outside [0, {grid.num_bins})")


def beampattern_point(
    waveform: WaveformMatrix,
    ctx: SteeringContext,
    angle_index: int,
    range_index: int,
    bin_index: int,
) -> float:
    """Radiated power ``|alpha^H X^T f_u|^2`` at one lattice cell (0-based)."""
    _check_cell(ctx.grid, angle_index, range_index, bin_index)
    fu = dft_vector(waveform.num_samples, bin_index)
    y = waveform.values.T @ fu
    a = ctx.alpha[angle_index, range_index, bin_index]
    return float(np.abs(np.einsum("m,m->", a.conj(), y)) ** 2)


def beampattern_grid(waveform: WaveformMatrix, ctx: SteeringContext) -> np.ndarray:
    """Beampattern over the whole lattice, shape (K1, K2, N).

    One FFT gives every ``X^T f_u``; ``|alpha^T conj(X^T f_u)|^2`` drops the unit-modulus
    ``bin_phase[u]``, so the lattice is one (K1 K2, M) x (M, N) product with ``base``.
    """
    spectra = dft_spectrum(waveform).values  # row u = X^T f_u
    coeffs = ctx.base.reshape(-1, ctx.base.shape[-1]) @ spectra.conj().T
    return (np.abs(coeffs) ** 2).reshape(*ctx.base.shape[:2], -1)
