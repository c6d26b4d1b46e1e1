"""Domain types shared by the waveform design pipeline.

Conventions used throughout the package:

* a waveform is an (N, M) complex matrix: N code samples per antenna,
  M antennas, column m holding antenna m's sequence;
* ``vec`` is column-major, so ``vec(X)`` stacks the antenna columns and
  ``(I_M kron Q) vec(X) == vec(Q X)``;
* lag weights run over lags ``-N+1 .. N-1`` and are stored as a flat array
  of length ``2N-1``; entry ``k + N - 1`` is the weight of lag ``k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0

UNIMODULAR_TOL = 1e-12


def as_integer(name: str, value) -> int:
    """``value`` as an ``int``: a Python or NumPy integer, not a bool, float or other type.

    Raises ``ValueError`` naming ``name`` otherwise; a size or count that is
    not an integer would otherwise fail later, deep inside NumPy.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_size(name: str, value) -> int:
    """``value`` as an ``int`` of at least 1 (see :func:`as_integer`), or ``ValueError`` naming ``name``."""
    size = as_integer(name, value)
    if size < 1:
        raise ValueError(f"{name} must be >= 1, got {size}")
    return size


def vec(matrix: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``rows x cols`` matrix."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array and signal parameters.

    Waves travel at ``SPEED_OF_LIGHT``. ``spacing`` (meters) defaults to half
    the wavelength of the highest in-band frequency,
    ``SPEED_OF_LIGHT / (2 (carrier + bandwidth/2))``, which avoids grating
    lobes.
    """

    num_antennas: int
    code_length: int
    carrier_freq_hz: float
    bandwidth_hz: float
    spacing: float | None = None

    def __post_init__(self) -> None:
        for name in ("num_antennas", "code_length"):
            object.__setattr__(self, name, as_size(name, getattr(self, name)))

        def check(name: str, value: float, rule: str = "must be positive and finite") -> None:
            if not (value > 0 and math.isfinite(value)):  # also rejects NaN
                raise ValueError(f"{name} {rule}, got {value!r}")

        for name in ("carrier_freq_hz", "bandwidth_hz"):
            check(name, getattr(self, name))
        if self.spacing is None:  # named by the band: one whose sum overflows leaves 0.0
            default = SPEED_OF_LIGHT / (2.0 * (self.carrier_freq_hz + self.bandwidth_hz / 2.0))
            check("carrier_freq_hz", default, "plus half the bandwidth must leave a positive, finite spacing")
            object.__setattr__(self, "spacing", default)
        check("spacing", self.spacing)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def aperture(self) -> float:
        """Array aperture (num_antennas - 1) * spacing in meters."""
        return (self.num_antennas - 1) * self.spacing


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Discrete angle x range x frequency evaluation lattice.

    Angle nodes are ``phi_k = pi (k / K1 - 1/2)`` for ``k = 1..K1`` (so
    ``theta = sin(phi)`` sweeps ``(-1, 1]``), range nodes are
    ``p_k = k / K2`` meters in ``(0, 1]`` and the frequency axis has
    ``num_bins`` DFT bins, indexed ``0 .. N-1``.
    """

    num_angles: int
    num_ranges: int
    num_bins: int
    phi: np.ndarray
    theta: np.ndarray
    ranges: np.ndarray


def build_grid(num_angles: int, num_ranges: int, num_bins: int) -> GridSpec:
    """Construct the evaluation lattice; all three sizes must be integers >= 1."""
    num_angles = as_size("num_angles", num_angles)
    num_ranges = as_size("num_ranges", num_ranges)
    num_bins = as_size("num_bins", num_bins)
    k1 = np.arange(1, num_angles + 1, dtype=float)
    phi = np.pi * (k1 / num_angles - 0.5)
    theta = np.sin(phi)
    ranges = np.arange(1, num_ranges + 1, dtype=float) / num_ranges
    for arr in (phi, theta, ranges):
        arr.setflags(write=False)
    return GridSpec(num_angles, num_ranges, num_bins, phi, theta, ranges)


@dataclass(frozen=True, eq=False)
class WaveformMatrix:
    """(N, M) matrix of unit-modulus code samples.

    Entries are validated to lie on the complex unit circle within
    ``UNIMODULAR_TOL`` and the storage is frozen after construction.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("waveform must be a non-empty 2-D matrix")
        deviation = float(np.abs(np.abs(vals) - 1.0).max())
        if not deviation <= UNIMODULAR_TOL:  # also rejects NaN entries
            raise ValueError(f"waveform entries must be unimodular (worst deviation {deviation:.3e})")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    @property
    def num_antennas(self) -> int:
        return self.values.shape[1]

    def vec(self) -> np.ndarray:
        return vec(self.values)

    def phases(self) -> np.ndarray:
        """Entry phases wrapped to [0, 2*pi)."""
        ph = np.mod(np.angle(self.values), 2.0 * np.pi)
        ph[ph >= 2.0 * np.pi] = 0.0
        return ph

    @classmethod
    def from_phases(cls, phases: np.ndarray) -> "WaveformMatrix":
        return cls(np.exp(1j * np.asarray(phases, dtype=float)))


@dataclass(frozen=True, eq=False)
class DesiredBeampattern:
    """Nonnegative target power over the (angle, range, bin) lattice."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError("desired beampattern must be a 3-D (angle, range, bin) array")
        if vals.size and not (vals.min() >= 0 and vals.max() < math.inf):  # also rejects NaN
            raise ValueError("desired beampattern must be nonnegative and finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def delta(
        cls,
        grid: GridSpec,
        angle_index: int,
        range_index: int,
        peak: float = 1.0,
    ) -> "DesiredBeampattern":
        """Zero everywhere except ``peak`` at one (angle, range) cell for every bin.

        Indices are 0-based integers (see :func:`as_integer`).
        """
        angle_index = as_integer("angle_index", angle_index)
        range_index = as_integer("range_index", range_index)
        if not 0 <= angle_index < grid.num_angles:
            raise ValueError(f"angle_index {angle_index} outside [0, {grid.num_angles})")
        if not 0 <= range_index < grid.num_ranges:
            raise ValueError(f"range_index {range_index} outside [0, {grid.num_ranges})")
        if peak < 0:
            raise ValueError("peak must be nonnegative")
        vals = np.zeros((grid.num_angles, grid.num_ranges, grid.num_bins))
        vals[angle_index, range_index, :] = peak
        return cls(vals)


@dataclass(frozen=True, eq=False)
class WislProfile:
    """Lag weights of the weighted integrated sidelobe level.

    ``weights[k + N - 1]`` is the weight of lag ``k`` for ``k = -N+1 .. N-1``.
    ``code_length`` is stored as an ``int`` (see :func:`as_integer`). The
    ``2N - 1`` weights are validated to be finite and the array is frozen
    after construction.
    """

    code_length: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        n = as_size("code_length", self.code_length)
        object.__setattr__(self, "code_length", n)
        w = np.array(self.weights, dtype=float).ravel()
        if w.size != 2 * n - 1:
            raise ValueError(f"need {2 * n - 1} lag weights, got {w.size}")
        if not np.isfinite(w).all():
            raise ValueError("lag weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, code_length: int) -> "WislProfile":
        """All lag weights equal to one (plain ISL)."""
        code_length = as_size("code_length", code_length)
        return cls(code_length, np.ones(2 * code_length - 1))
