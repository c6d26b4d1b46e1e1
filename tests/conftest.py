import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from nfwave import ArrayConfig, build_grid, build_steering_context, nearfield
from nfwave.correlation import _level_db, correlation_matrix
from nfwave.model import WaveformMatrix, as_integer, unvec, vec
from nfwave.nearfield import beampattern_grid

# not integers, though numpy computes with the first three as if they were
NOT_INTEGERS = [2.5, True, np.float64(2.0), "2"]

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    """``scripts/<name>.py`` imported as a module; importing it runs no design and pins no thread."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# name -> workload of ``nfbench/workloads.py``, read by the digest script's loader
BENCH_WORKLOADS = load_script("artifact_digests").load_workloads()


def thz_config(out_dir, gamma=0.5, epochs=2, seed=303):
    """Nested config of the paper's regime, ``thz``: M32 N32 on a 20 x 10 lattice at 300 GHz.

    The band is 10 GHz and the target the grid-centre delta of peak 1. The
    lattice has fewer cells (200) than M^2 (1024), so the design takes the
    lattice order of ``BeampatternOperator.linearize``. Like the benchmark's
    workloads, it runs its ``epochs`` cycles whatever the objective does.
    """
    return {
        "array": {"M": 32, "N": 32, "fc_hz": 3.0e11, "bandwidth_hz": 1.0e10},
        "grid": {"K1": 20, "K2": 10},
        "solver": {"gamma": gamma, "epochs": epochs, "seed": seed, "outer_tol": 1e-300},
        "output": {"out_dir": str(out_dir)},
    }


def numpy_start_waveform(n, m, seed):
    """Oracle of ``init_waveform``: the start phases drawn by NumPy's own generator."""
    return WaveformMatrix.from_phases(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(n, m)))


def cross_correlation(waveform, m, m_prime, lag):
    """Aperiodic correlation ``r_{m m'}(k) = sum_l x_m(l) conj(x_m'(l + k))``, one lag at a time.

    Antenna indices are 0-based; they and ``lag`` are integers. Negative lags
    follow the Hermitian pair identity ``r_{m m'}(-k) = conj(r_{m' m}(k))``.
    Reference for ``correlation_matrix``, which forms every lag in one product.
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


def isl(waveform):
    """Integrated sidelobe level summed one :func:`cross_correlation` lag at a time.

    Every lag of every antenna pair, less the zero lag of each antenna.
    Reference for ``wisl`` at uniform weights.
    """
    n, m = waveform.num_samples, waveform.num_antennas
    return sum(
        abs(cross_correlation(waveform, a, b, k)) ** 2
        for a in range(m)
        for b in range(m)
        for k in range(1 - n, n)
        if a != b or k != 0
    )


def element_exact_distance(range_to_origin, sin_angle, element, spacing):
    """Distance from the 1-based ``element`` to the target, one element at a time.

    Reference for ``exact_distance``: the law of cosines as the sum of the
    squared offsets along and across the array axis, in Python floats.
    """
    offset = (element - 1) * spacing
    along = range_to_origin - offset * sin_angle
    return math.hypot(along, offset * math.sqrt(1.0 - sin_angle**2))


def element_fresnel_distance(range_to_origin, sin_angle, element, spacing):
    """Second-order (Fresnel) distance from the 1-based ``element``; reference for ``fresnel_distance``."""
    offset = (element - 1) * spacing
    curvature = (1.0 - sin_angle**2) / (2.0 * range_to_origin)
    return range_to_origin - (offset * sin_angle - offset**2 * curvature)


def commutation_dense(rows, cols):
    """Dense permutation with vec(V.T) = P @ vec(V) for V of shape (rows, cols)."""
    p = np.zeros((rows * cols, rows * cols))
    for r in range(rows):
        for c in range(cols):
            p[c + cols * r, r + rows * c] = 1.0
    return p


def dense_cell_matrix(alpha, fu, n, m):
    """Dense per-cell beampattern matrix from its Kronecker/commutation factorization."""
    perm = commutation_dense(n, m)
    left = np.kron(alpha[:, None], np.eye(n)) @ np.conj(fu)[:, None]  # (NM, 1)
    right = (alpha.conj()[None, :] @ np.kron(fu[None, :], np.eye(m))) @ perm  # (1, NM)
    return left @ right


def dense_operator(op):
    """Dense matrix of a matrix-free operator, one ``op.apply`` per unit vector."""
    return np.column_stack([op.apply(e) for e in np.eye(op.dim, dtype=np.complex128)])


def toeplitz_weights(profile):
    """Weight matrix ``W[i, j]`` = weight of lag ``j - i``."""
    n = profile.code_length
    idx = np.arange(n)
    return profile.weights[(idx[None, :] - idx[:, None]) + n - 1]


def half_bin_harmonics(n):
    """Row ``k`` samples frequency ``k / (2N)``: ``h_k[i] = exp(j pi k i / N)``, ``k = 0..2N-1``."""
    return np.exp(1j * np.pi * np.outer(np.arange(2 * n), np.arange(n)) / n)


def lag_kernels(profile):
    """Literal (2N, N, N) lag-kernel stack ``K_k = diag(h_k) W diag(h_k)^H``.

    Reference for the lag-shift Gram: ``Q = sum_k K_k^H (X X^H) K_k``.
    """
    w = toeplitz_weights(profile)
    return np.stack(
        [np.diag(h) @ w @ np.diag(h).conj().T for h in half_bin_harmonics(profile.code_length)]
    )


def kernel_gram(x, profile):
    """WISL Gram ``sum_k K_k^H (X X^H) K_k`` summed over the literal kernel stack."""
    outer = x @ x.conj().T
    return sum(kern.conj().T @ outer @ kern for kern in lag_kernels(profile))


def lag_shift_gram(x, profile):
    """WISL Gram ``2N sum_tau w_tau^2 R[i - tau, l - tau]`` summed one lag shift at a time.

    Reference for the single-product ``build_wisl_gram``; unlike
    :func:`kernel_gram` it needs no (2N, N, N) stack, so it reaches large N.
    """
    n = profile.code_length
    outer = x @ x.conj().T
    gram = np.zeros_like(outer)
    for lag in range(-n + 1, n):
        w2 = profile.weights[lag + n - 1] ** 2
        s = abs(lag)
        if lag >= 0:
            gram[s:, s:] += w2 * outer[: n - s, : n - s]
        else:
            gram[: n - s, : n - s] += w2 * outer[s:, s:]
    return 2 * n * gram


def alpha_beampattern(x, ctx):
    """Beampattern ``|alpha^T conj(X^T f_u)|^2`` contracted over the (K1, K2, N, M) lattice.

    Reference for ``beampattern_grid``, which works on the per-cell factor ``base``.
    """
    spectra = np.fft.fft(x, axis=0)  # row u = X^T f_u
    return np.abs(np.einsum("klum,um->klu", ctx.alpha, spectra.conj())) ** 2


def lattice_matching_error(bp, x):
    """Matching error ``sum (P_desired - P(X))^2`` summed over the beampattern of the lattice.

    Reference for ``BeampatternOperator.matching_error``, which reads it off the
    linearized blocks by the quartic identity.
    """
    gap = bp.desired - beampattern_grid(x, bp.ctx)
    gap *= gap
    return float(np.sum(gap))


def per_bin_blocks(alpha, weights):
    """Per-bin blocks ``A_u = sum_cells w a a^H`` built bin by bin from the full lattice.

    ``alpha`` is the (K1, K2, N, M) steering lattice and ``weights`` broadcasts
    to (K1, K2, N). Reference for the single-product ``BeampatternOperator.bin_blocks``.
    """
    k1, k2, n, m = alpha.shape
    w = np.broadcast_to(weights, (k1, k2, n)).reshape(-1, n)
    steering = alpha.reshape(-1, n, m).transpose(1, 0, 2)  # (N, cells, M)
    blocks = np.empty((n, m, m), dtype=np.complex128)
    for u, a in enumerate(steering):
        blocks[u] = (w[:, u, None] * a).T @ a.conj()
    return blocks


def fft_apply_blocks(blocks, v):
    """Operator with per-bin blocks ``blocks`` applied to ``v`` by one FFT and one inverse FFT.

    Row u of ``FFT(V)`` is ``V^T f_u``; it is multiplied by ``A_u`` and
    ``N`` times the inverse FFT assembles ``sum_u conj(f_u) (A_u V^T f_u)^T``.
    Reference for ``BeampatternOperator.apply_blocks``, which uses the DFT matrix.
    """
    n, m = blocks.shape[:2]
    spectra = np.fft.fft(unvec(v, n, m), axis=0)
    z = (blocks @ spectra[:, :, None])[:, :, 0]
    return vec(n * np.fft.ifft(z, axis=0))


def contrast_cap(ctx, angle_index, range_index):
    """:func:`nfwave.nearfield.contrast_cap` at a target cell, which must lie on the lattice.

    The cap is the same for every target cell; the indices only have to name
    a cell, or ``IndexError`` is raised.
    """
    k1, k2 = ctx.grid.num_angles, ctx.grid.num_ranges
    if not (0 <= angle_index < k1 and 0 <= range_index < k2):
        raise IndexError(f"target ({angle_index}, {range_index}) outside the {k1} x {k2} lattice")
    return nearfield.contrast_cap(ctx)


def _fmt(x):
    return format(float(x), ".17g")


def _loop_matrix_csv(path, header, rows):
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def loop_emit_outputs(state, ctx, cfg, out):
    """The five artifacts written one number at a time into directory ``out``.

    Reference for ``cli.emit_outputs``, which formats each file from arrays.
    """
    out.mkdir(parents=True, exist_ok=True)
    n = ctx.config.code_length
    m = ctx.config.num_antennas
    _loop_matrix_csv(out / "waveform.csv", [f"m{j + 1}" for j in range(m)], state.x1.phases())
    pattern = beampattern_grid(state.x1, ctx)
    bin_header = [f"u{u}" for u in range(n)]
    _loop_matrix_csv(out / "beampattern_angle.csv", bin_header, pattern[:, cfg.range_target - 1, :])
    _loop_matrix_csv(out / "beampattern_range.csv", bin_header, pattern[cfg.angle_target - 1, :, :])
    corr = correlation_matrix(state.x1)
    _, level = _level_db(corr, n)
    lines = ["m,m_prime,k,magnitude,level_db"]
    for a in range(m):
        for b in range(m):
            for k in range(-n + 1, n):
                mag = abs(corr[a, b, k + n - 1])
                lines.append(f"{a + 1},{b + 1},{k},{_fmt(mag)},{_fmt(level[a, b, k + n - 1])}")
    (out / "correlation.csv").write_text("\n".join(lines) + "\n", newline="\n")
    (out / "trace.jsonl").write_text(
        "".join(json.dumps(entry.as_dict()) + "\n" for entry in state.trace), newline="\n"
    )


@pytest.fixture(scope="session")
def tiny_context():
    """N=2, M=2, K1=K2=2 steering context for dense-oracle tests."""
    cfg = ArrayConfig(2, 2, 1.0e9, 2.0e8)
    grid = build_grid(2, 2, 2)
    return build_steering_context(cfg, grid)


@pytest.fixture(scope="session")
def small_context():
    """N=4, M=2, K1=K2=2 context used by the quartic-identity tests."""
    cfg = ArrayConfig(2, 4, 1.0e9, 2.0e8)
    grid = build_grid(2, 2, 4)
    return build_steering_context(cfg, grid)
