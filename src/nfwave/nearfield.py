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


def _check_target(range_to_origin, sin_angle) -> None:
    """Reject, entrywise, a range not positive and finite or a sine outside [-1, 1]; NaN fails too."""
    if not np.all((range_to_origin > 0) & np.isfinite(range_to_origin)):
        raise ValueError("range must be positive")
    if not np.all(np.abs(sin_angle) <= 1):
        raise ValueError("sin_angle must lie in [-1, 1]")


def _fresnel_delay(range_to_origin, sin_angle, offset):
    """Second-order path saving ``offset sin - offset^2 (1 - sin^2) / (2 range)`` over the origin."""
    curvature = (1.0 - sin_angle**2) / (2.0 * range_to_origin)
    return offset * sin_angle - offset**2 * curvature


def _element_offset(
    range_to_origin: float, sin_angle: float, element: int, spacing: float
) -> float:
    """Offset of a 1-based element from the origin, after rejecting an invalid target or array.

    Written so that NaN and infinite inputs fail the checks too.
    """
    _check_target(range_to_origin, sin_angle)
    element = as_integer("element", element)
    if element < 1:
        raise ValueError("element index is 1-based and must be >= 1")
    if not (spacing > 0 and math.isfinite(spacing)):
        raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
    return (element - 1) * spacing


def exact_distance(range_to_origin: float, sin_angle: float, element: int, spacing: float) -> float:
    """Element-to-target distance, from the target's offsets along and across the array axis.

    ``element`` is the 1-based antenna index; element 1 sits at the array
    origin. ``sin_angle`` is the sine of the off-broadside angle, so the
    angle between the target direction and the array axis has this cosine.
    The law of cosines ``r^2 + o^2 - 2 r o sin`` written as the sum of two
    squares cannot round below zero, not even for a target on an element.
    """
    offset = _element_offset(range_to_origin, sin_angle, element, spacing)
    along = range_to_origin - offset * sin_angle
    return math.hypot(along, offset * math.sqrt(1.0 - sin_angle**2))


def fresnel_distance(range_to_origin: float, sin_angle: float, element: int, spacing: float) -> float:
    """Second-order expansion of :func:`exact_distance`: the Fresnel model of :func:`steering_vector`."""
    offset = _element_offset(range_to_origin, sin_angle, element, spacing)
    return float(range_to_origin - _fresnel_delay(range_to_origin, sin_angle, offset))


def fraunhofer_distance(config: ArrayConfig) -> float:
    """Far-field boundary 2 D^2 / lambda; zero for a single element."""
    return 2.0 * config.aperture**2 / config.wavelength


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
    p = np.asarray(range_, dtype=float)[..., None]
    sin_angle = np.asarray(sin_angle, dtype=float)[..., None]
    _check_target(p, sin_angle)
    k = config.carrier_freq_hz / SPEED_OF_LIGHT  # cycles per meter
    offsets = np.arange(config.num_antennas) * config.spacing
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
    """Length-n analysis vector ``exp(-2j pi i u / n)``, i < n; ``n`` and ``u`` are integers, ``n >= 1``.

    Row ``u mod n`` of :func:`dft_matrix`, bit for bit: the same reduced roots
    gathered at ``k = i (u mod n) mod n``, in O(n).
    """
    n = as_size("n", n)
    u = as_integer("u", u)
    index = np.arange(n)
    roots = np.exp(-2j * np.pi * index / n)
    return roots[index * (u % n) % n]


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
    spectra = ctx.dft @ waveform.values  # row u = X^T f_u
    coeffs = ctx.base.reshape(-1, ctx.base.shape[-1]) @ spectra.conj().T
    # squared in place: one lattice-sized temporary fewer
    power = np.abs(coeffs)
    power *= power
    return power.reshape(*ctx.base.shape[:2], -1)
