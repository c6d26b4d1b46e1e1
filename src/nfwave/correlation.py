"""Time-domain correlation diagnostics and the WISL figure of merit.

Every lag from one batched product, deliberately independent of the
frequency-domain operator machinery so the two formulations can cross-check
each other.
"""

from __future__ import annotations

import numpy as np

from .model import WaveformMatrix, WislProfile

DB_FLOOR = -300.0


def correlation_matrix(waveform: WaveformMatrix) -> np.ndarray:
    """All pairwise correlations; entry ``[m, m', k + N - 1]`` is ``r_{m m'}(k)``.

    The lags ``k >= 0`` come from one batched product: window ``k`` of the
    conjugate code, zero-padded by ``N - 1`` samples at the end, holds
    ``conj(x(l + k))`` for ``l = 0..N-1``. The negative lags and the lower
    triangle of lag 0 are the conjugates of their pairs,
    ``r_{m m'}(-k) = conj(r_{m' m}(k))``, so the result is Hermitian to the
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
    if profile.code_length != waveform.num_samples:
        raise ValueError("profile code length does not match the waveform")
    return _lag_wisl(correlation_matrix(waveform), profile)


def _lag_wisl(r: np.ndarray, profile: WislProfile) -> float:
    """WISL of all the lags ``r`` of :func:`correlation_matrix` (the weights may be asymmetric)."""
    energy = profile.weights**2 * np.abs(r) ** 2
    return float(energy.sum()) - float(np.trace(energy[:, :, profile.code_length - 1]))


def correlation_level_db(waveform: WaveformMatrix) -> np.ndarray:
    """Correlation magnitudes in dB relative to the mainlobe ``N``; exact zeros give ``DB_FLOOR``."""
    return _level_db(correlation_matrix(waveform), waveform.num_samples)


def _level_db(r: np.ndarray, n: int) -> np.ndarray:
    """Levels in dB of lags ``r`` of :func:`correlation_matrix`, all or some, at code length ``n``."""
    with np.errstate(divide="ignore"):
        return np.maximum(20.0 * np.log10(np.abs(r) / n), DB_FLOOR)
