"""Matrix-free quadratic operators for the combined matching/sidelobe objective.

Everything acts on ``vec(X)`` in C^{NM} (column-major); no NM x NM matrix is
ever formed. Both operators are applied through their structure:

* matching: the per-cell beampattern matrix is rank one, ``g g^H`` with
  ``g = vec(conj(f_u) alpha^T)``, and the cells of bin u all share the DFT
  vector ``f_u``. A weighted sum over cells is therefore block-diagonal over
  the frequency bins, with one M x M block ``A_u = sum_cells w a a^H`` per
  bin; an application is a product with the N x N DFT matrix, a batched
  M x M product and a product with its conjugate. The DFT matrix is built
  once per operator: at the code lengths the solver runs, two small matrix
  products cost less than the fixed overhead of two FFT calls. The steering
  vector of a cell differs between bins only by a unit-modulus phase, so
  ``a a^H = b b^H`` and all N blocks are one matrix product of the
  (cells, N) weights with the (cells, M^2) cell outer products.
  The weights ``P(X_ref) - 2 P_desired`` take a beampattern the caller
  already has, so a copy's beampattern is computed once.
* sidelobes: the WISL Gram ``Q[i, l] = 2N sum_tau w_tau^2 R[i - tau, l - tau]``
  of ``R = X X^H`` is one product of the lag-weight Toeplitz matrix with a
  table of the diagonals of ``R``; it acts on ``vec(V)`` as ``I_M kron Q``.

Both applies work on the (M, N) row-major view of ``vec(V)``, which is
``V^T``, so no ``vec``/``unvec`` copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DesiredBeampattern, WaveformMatrix, WislProfile
from .nearfield import SteeringContext, beampattern_grid


def _raw(x) -> np.ndarray:
    return x.values if isinstance(x, WaveformMatrix) else np.asarray(x)


def build_wisl_gram(waveform, profile: WislProfile) -> np.ndarray:
    """Gram ``Q[i, l] = 2N sum_tau w_tau^2 R[i - tau, l - tau]`` of ``R = X X^H``.

    ``w_tau`` is the weight of lag ``tau``; entries of ``R`` outside ``[0, N)``
    are zero. ``Q`` is Hermitian PSD and ``vec(X)^H (I_M kron Q) vec(X)`` is
    ``2N`` times the weighted correlation energy ``sum w_k^2 |r_{m m'}(k)|^2``.
    Shifts keep ``R[i, l]`` on its diagonal ``d = i - l``; put at row i, column
    d of a zero-padded (N, 2N - 1) table, all shifts are one product with the
    real Toeplitz ``T[p, q] = w_{p-q}^2`` over the table's (real, imag) pairs.
    Takes a :class:`WaveformMatrix` or a raw (N, M) array (to probe degenerate inputs).
    """
    return _gram(_raw(waveform), _gram_tables(profile))


def _gram_tables(profile: WislProfile) -> tuple[np.ndarray, np.ndarray]:
    """Where each ``R[i, l]`` sits in the diagonal table, and the Toeplitz ``T`` of a profile.

    The position is row i, column ``i - l + N - 1``, given as a flat index
    into the (N, 2N - 1) table.
    """
    n = profile.code_length
    i, l = np.indices((n, n))
    diag = i - l + n - 1
    return (i * (2 * n - 1) + diag).ravel(), (profile.weights**2)[diag]


def _gram(x: np.ndarray, tables: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """:func:`build_wisl_gram` of the raw array ``x`` with the tables of its profile."""
    flat, toeplitz = tables
    n = len(toeplitz)
    if x.shape[0] != n:
        raise ValueError(f"waveform has {x.shape[0]} samples but the profile code length is {n}")
    table = np.zeros(n * (2 * n - 1), dtype=np.complex128)
    table[flat] = (x @ x.conj().T).ravel()
    shifted = toeplitz @ table.reshape(n, 2 * n - 1).view(np.float64)
    return 2 * n * shifted.view(np.complex128).reshape(-1)[flat].reshape(n, n)


def apply_J(gram: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply ``I_M kron Q`` to ``v``, i.e. return ``vec(Q V)`` for ``V = unvec(v)``.

    ``vec(Q V)`` read row-major as an (M, N) matrix is ``V^T Q^T``.
    """
    n = gram.shape[0]
    v = np.asarray(v)
    if v.size % n:
        raise ValueError(f"vector of length {v.size} is not a multiple of the Gram size {n}")
    return (v.reshape(-1, n) @ gram.T).reshape(-1)


class BeampatternOperator:
    """Rank-one matching operators over a steering context.

    Keeps the steering lattice grouped by frequency bin, the desired
    pattern and the unnormalized N x N DFT matrix with its conjugate. The
    sum of squared desired values is kept out of the quadratic forms and
    exposed separately as ``desired_power``.
    """

    def __init__(self, ctx: SteeringContext, desired: DesiredBeampattern):
        expect = (ctx.grid.num_angles, ctx.grid.num_ranges, ctx.grid.num_bins)
        if desired.values.shape != expect:
            raise ValueError(f"desired beampattern shape {desired.values.shape} != grid shape {expect}")
        self.ctx = ctx
        self.desired = desired.values
        self.desired_power = float(np.sum(desired.values.astype(float) ** 2))
        self.num_samples = ctx.grid.num_bins
        self.num_antennas = ctx.config.num_antennas
        self.dim = self.num_samples * self.num_antennas
        # (cells, 2 M^2): row l is the outer product b b^H of cell l's steering
        # factor, flattened and viewed as interleaved (real, imag) pairs
        m = self.num_antennas
        base = ctx.base.reshape(-1, m)
        outer = base[:, :, None] * base[:, None, :].conj()
        self._cell_outer = outer.reshape(len(base), m * m).view(np.float64)
        # F[u, i] = exp(-2 pi j u i / N); reducing u i mod N first keeps the
        # phase, and so every entry, accurate to the last bit at large N
        n = self.num_samples
        index = np.arange(n)
        self._dft = np.exp(-2j * np.pi * (np.outer(index, index) % n) / n)
        self._dft_conj = self._dft.conj()

    def beampattern(self, x) -> np.ndarray:
        return beampattern_grid(x, self.ctx)

    def pattern_error(self, pattern: np.ndarray) -> float:
        """Sum of squared gaps between the desired pattern and a realized ``pattern``."""
        return float(np.sum((self.desired - pattern) ** 2))

    def matching_error(self, x) -> float:
        """Sum of squared gaps between the desired and realized beampattern."""
        return self.pattern_error(self.beampattern(x))

    def apply_G(self, v: np.ndarray, cell: tuple[int, int, int]) -> np.ndarray:
        """Single-cell application ``G v = (g^H v) g``: the operator of a one-hot weight."""
        weights = np.zeros(self.desired.shape)
        weights[cell] = 1.0
        return self.apply_blocks(self.bin_blocks(weights), v)

    def bin_blocks(self, weights: np.ndarray) -> np.ndarray:
        """Per-bin blocks ``A_u = sum_cells w a a^H`` of the weighted operator, shape (N, M, M).

        Each steering vector is ``a = bin_phase[u] * b`` with a unit-modulus
        ``bin_phase[u]``, so ``a a^H = b b^H`` and all N blocks come from one
        real ``(N, cells) @ (cells, 2 M^2)`` product with the cell outer products.
        """
        w = np.broadcast_to(np.asarray(weights, dtype=float), self.desired.shape)
        blocks = w.reshape(-1, self.num_samples).T @ self._cell_outer
        m = self.num_antennas
        return blocks.view(np.complex128).reshape(self.num_samples, m, m)

    def apply_blocks(self, blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Apply the operator whose per-bin blocks are ``blocks`` (see :meth:`bin_blocks`).

        Returns ``vec(conj(F) Z)`` with row u of ``Z`` equal to ``A_u V^T f_u``,
        where ``F`` is the unnormalized DFT matrix (row u is ``f_u``). ``F`` is
        symmetric, so on the (M, N) view ``V^T`` of ``v`` the spectra are
        ``V^T F`` (column u is ``V^T f_u``) and the result is ``Z^T conj(F)``.
        """
        v = np.asarray(v)
        if v.size != self.dim:
            raise ValueError(f"vector of length {v.size} != N*M = {self.dim}")
        spectra = v.reshape(self.num_antennas, self.num_samples) @ self._dft
        z = blocks @ spectra.T[:, :, None]
        return (z[:, :, 0].T @ self._dft_conj).reshape(-1)

    def weighted_apply(self, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Apply ``sum_cells w_cell g_cell g_cell^H`` to ``v`` matrix-free."""
        return self.apply_blocks(self.bin_blocks(weights), v)

    def ghat_weights(self, x_ref, pattern: np.ndarray | None = None) -> np.ndarray:
        """Per-cell weights ``P(X_ref) - 2 P_desired`` of the linearized quartic.

        ``pattern``, when given, is ``P(X_ref)`` already computed by the caller.
        """
        if pattern is None:
            pattern = self.beampattern(x_ref)
        return pattern - 2.0 * self.desired

    def apply_Ghat(self, x_ref, v: np.ndarray) -> np.ndarray:
        """Quartic matching operator linearized at ``x_ref`` applied to ``v``."""
        return self.weighted_apply(self.ghat_weights(x_ref), v)


class WislOperator:
    """Sidelobe operator of one lag-weight profile.

    The table index and the Toeplitz matrix of squared lag weights depend only
    on the profile, so they are built once here and every Gram reuses them.
    """

    def __init__(self, profile: WislProfile):
        self.profile = profile
        self._tables = _gram_tables(profile)

    def gram(self, x) -> np.ndarray:
        return _gram(_raw(x), self._tables)

    def quad_form(self, x) -> float:
        """Quadratic sidelobe surrogate ``Re tr(X^H Q X)`` with ``Q`` the Gram at ``X``."""
        raw = _raw(x)
        return float(np.real(np.vdot(raw, self.gram(raw) @ raw)))


class CombinedOperator:
    """Convex blend of the matching and sidelobe operators, linearized at a reference.

    ``apply`` is linear in its argument. ``apply_loaded`` evaluates
    ``lambda_max * v - R v``; for unimodular ``v`` the two quadratic forms are
    complementary, ``v^H (lambda I - R) v = lambda N M - v^H R v``, so loading
    flips minimization of ``R`` into maximization without moving the argmax.

    ``lambda_max`` is Weyl's bound on the top eigenvalue of ``R``, computed
    from the two parts the operator holds:
    ``gamma N max_u lambda_max(A_u) + (1 - gamma) lambda_max(Q)``. The
    matching part is ``F^H blkdiag(A_u) F`` with the unnormalized DFT ``F``,
    so its spectrum is ``N eig(A_u)``; the sidelobe part ``I_M kron Q`` has
    the spectrum of ``Q``. The bound is exact when ``gamma`` is 0 or 1 and
    never below the top eigenvalue, so ``lambda_max I - R`` is PSD and the
    phase-projection ascent holds in every half-cycle. The parts are held
    already scaled by ``gamma`` and ``1 - gamma``, so ``apply`` is their sum.

    ``momentum`` is the absolute proximity-pull coefficient used by the
    phase-projection update. The phase projection is invariant to a positive
    rescaling of its argument, so a raw penalty coefficient only has meaning
    relative to the operator's scale; anchoring it at ``rho * lambda_max / 2``
    makes a given ``rho`` pull with the same relative strength regardless of
    problem size. Without that pull the two waveform copies settle into an
    anti-phase two-cycle instead of a consensus.

    ``pattern`` is the beampattern of ``reference`` and ``gram`` its WISL
    Gram, each when the caller already has it; the solver hands over the
    ones its trace record computed, so every copy gets one of each.
    """

    def __init__(
        self,
        bp: BeampatternOperator,
        sidelobe: WislOperator,
        reference: WaveformMatrix,
        gamma: float,
        rho: float,
        pattern: np.ndarray | None = None,
        gram: np.ndarray | None = None,
    ):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0,1]")
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        self.bp = bp
        self.gamma = gamma
        self.rho = rho
        self.dim = reference.num_samples * reference.num_antennas
        self._blocks = None
        self._gram = None
        self.lambda_max = 0.0
        if gamma > 0.0:
            blocks = bp.bin_blocks(bp.ghat_weights(reference, pattern))
            top = np.linalg.eigvalsh(blocks)[:, -1].max()
            self.lambda_max += gamma * reference.num_samples * float(top)
            self._blocks = gamma * blocks
        if gamma < 1.0:
            if gram is None:
                gram = sidelobe.gram(reference)
            self.lambda_max += (1.0 - gamma) * float(np.linalg.eigvalsh(gram)[-1])
            self._gram = (1.0 - gamma) * gram

    @property
    def momentum(self) -> float:
        """Loading-scaled proximity pull toward the reference copy."""
        return 0.5 * self.rho * self.lambda_max

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self._blocks is None:
            return apply_J(self._gram, v)
        out = self.bp.apply_blocks(self._blocks, v)
        if self._gram is not None:
            out += apply_J(self._gram, v)
        return out

    def apply_loaded(self, v: np.ndarray) -> np.ndarray:
        return self.lambda_max * np.asarray(v) - self.apply(v)

    def quad_form(self, v: np.ndarray) -> float:
        return float(np.real(np.vdot(v, self.apply(v))))


@dataclass
class LambdaEstimate:
    """Result of the dominant-eigenvalue estimation."""

    value: float
    converged: bool
    iterations: int
    vector: np.ndarray


_START_SEED = 0x5EED


def estimate_lambda_max(
    matvec,
    dim: int,
    *,
    tol: float = 1e-6,
    max_iters: int = 200,
    safety: float = 1.05,
) -> LambdaEstimate:
    """Upper estimate of the top eigenvalue of a Hermitian map by power iteration.

    Plain power iteration homes in on the eigenvalue of largest magnitude, so
    when that Rayleigh quotient comes out negative a second, positively shifted
    pass recovers the largest signed eigenvalue. The returned value carries a
    relative ``safety`` margin so that ``value * I - A`` is loaded above the
    top of the spectrum; on non-convergence the margin is widened to 1.5 and
    the estimate flagged. The solver does not use it: :class:`CombinedOperator`
    bounds its top eigenvalue from its parts.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(_START_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)

    def power(op, start, iters, tolerance):
        vcur = start
        rayleigh = None
        for i in range(1, iters + 1):
            w = op(vcur)
            cur = float(np.real(np.vdot(vcur, w)))
            nw = np.linalg.norm(w)
            if nw == 0.0:  # operator annihilates the iterate: spectrum reached 0
                return 0.0, vcur, True, i
            vcur = w / nw
            if rayleigh is not None and abs(cur - rayleigh) <= tolerance * max(1.0, abs(cur)):
                return cur, vcur, True, i
            rayleigh = cur
        return rayleigh, vcur, False, iters

    mag, v, converged, used = power(matvec, v, max_iters, tol)
    total_iters = used
    if mag < 0.0:
        # dominant magnitude is negative: shift to expose the top signed eigenvalue
        shift = 1.05 * abs(mag)

        def shifted(u):
            return matvec(u) + shift * u

        top, v, second_converged, used = power(shifted, v, max_iters, tol / 4.0)
        total_iters += used
        converged = converged and second_converged
        estimate = top - shift
    else:
        estimate = mag

    margin = safety if converged else 1.5
    value = estimate + (margin - 1.0) * abs(estimate)
    return LambdaEstimate(float(value), converged, total_iters, v)
