"""Time-domain correlation diagnostics and the WISL figure of merit.

Direct O(N^2) lag sums, deliberately independent of the frequency-domain
operator machinery so the two formulations can cross-check each other.
"""

from __future__ import annotations

import numpy as np

from .model import WaveformMatrix, WislProfile, as_integer

DB_FLOOR = -300.0


def cross_correlation(waveform: WaveformMatrix, m: int, m_prime: int, lag: int) -> complex:
    """Aperiodic correlation ``r_{m m'}(k) = sum_l x_m(l) conj(x_m'(l + k))``.

    Antenna indices are 0-based; they and ``lag`` are integers. Negative lags
    follow the Hermitian pair identity ``r_{m m'}(-k) = conj(r_{m' m}(k))``.
    """
    m = as_integer("m", m)
    m_prime = as_integer("m_prime", m_prime)
    lag = as_integer("lag", lag)
    n = waveform.num_samples
    if not (0 <= m < waveform.num_antennas and 0 <= m_prime < waveform.num_antennas):
        raise IndexError("antenna index out of range")
    if abs(lag) >= n:
        raise ValueError(f"lag {lag} outside [-{n - 1}, {n - 1}]")
    if lag < 0:
        return complex(np.conj(cross_correlation(waveform, m_prime, m, -lag)))
    x = waveform.values
    return complex(np.sum(x[: n - lag, m] * np.conj(x[lag:, m_prime])))


def correlation_matrix(waveform: WaveformMatrix) -> np.ndarray:
    """All pairwise correlations; entry ``[m, m', k + N - 1]`` is ``r_{m m'}(k)``.

    The lags ``k >= 0`` come from one batched product: window ``k`` of the
    conjugate code, zero-padded by ``N - 1`` samples at the end, holds
    ``conj(x(l + k))`` for ``l = 0..N-1``. The negative lags and the lower
    triangle of lag 0 are the conjugates of their pairs, as
    :func:`cross_correlation` defines them, so the result is Hermitian to the
    bit: ``r[m, m', -k] == conj(r[m', m, k])`` except on the diagonal of lag 0.
    """
    x = waveform.values
    n, m = x.shape
    padded = np.zeros((2 * n - 1, m), dtype=np.complex128)
    padded[:n] = np.conj(x)
    windows = np.lib.stride_tricks.sliding_window_view(padded, n, axis=0)  # (N, M, N)
    lags = x.T @ windows.transpose(0, 2, 1)  # (N, M, M): lags[k] = r(k)
    lower = np.tri(m, k=-1, dtype=bool)
    lags[0][lower] = lags[0].T[lower].conj()
    r = np.empty((m, m, 2 * n - 1), dtype=np.complex128)
    np.conjugate(lags[:0:-1].transpose(2, 1, 0), out=r[:, :, : n - 1])
    r[:, :, n - 1 :] = lags.transpose(1, 2, 0)
    return r


def wisl(waveform: WaveformMatrix, profile: WislProfile) -> float:
    """Weighted integrated sidelobe level.

    Squared-weighted autocorrelation sidelobes (all lags except zero) plus
    squared-weighted cross-correlations at every lag including zero.
    """
    n = profile.code_length
    if n != waveform.num_samples:
        raise ValueError("profile code length does not match the waveform")
    energy = profile.weights**2 * np.abs(correlation_matrix(waveform)) ** 2
    return float(energy.sum()) - float(np.trace(energy[:, :, n - 1]))


def isl(waveform: WaveformMatrix) -> float:
    """Integrated sidelobe level (uniform lag weights)."""
    return wisl(waveform, WislProfile.uniform(waveform.num_samples))


def correlation_level_db(waveform: WaveformMatrix) -> np.ndarray:
    """Correlation magnitudes in dB relative to the zero-lag mainlobe ``N``.

    Exact zeros are clamped to ``DB_FLOOR``.
    """
    return _level_db(correlation_matrix(waveform))


def _level_db(r: np.ndarray) -> np.ndarray:
    """:func:`correlation_level_db` of the lags ``r`` that :func:`correlation_matrix` returns."""
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(np.abs(r) / ((r.shape[2] + 1) // 2)), DB_FLOOR)
