"""Matrix-free quadratic operators for the combined matching/sidelobe objective.

Everything acts on ``vec(X)`` in C^{NM} (column-major). Both operators are
applied through their structure; an NM x NM matrix is formed only for the
inner step of a small problem (last item):

* matching: the per-cell beampattern matrix is rank one, ``g g^H`` with
  ``g = vec(conj(f_u) alpha^T)``, and the cells of bin u all share the DFT
  vector ``f_u``. A weighted sum over cells is therefore block-diagonal over
  the frequency bins, with one M x M block ``A_u = sum_cells w a a^H`` per
  bin; an application is a product with the N x N DFT matrix, a batched
  M x M product and a product with its conjugate. The DFT matrix is built
  once per steering context: at the code lengths the solver runs, two small matrix
  products cost less than the fixed overhead of two FFT calls. The steering
  vector of a cell differs between bins only by a unit-modulus phase, so
  ``a a^H = b b^H`` and all N blocks are one matrix product of the
  (cells, N) weights with the (cells, M^2) cell outer products.
  The blocks of the weights ``P(X_ref) - 2 P_desired`` that a half-cycle
  needs are linear in the outer products ``s_u s_u^H`` of the code spectra,
  so they come from one product with an M^2 x M^2 kernel of the lattice,
  built once per operator: their cost does not grow with the lattice. Above
  the small-problem size (last item), their top eigenvalue is taken from a
  dense eigensolve of only the blocks whose trace/Frobenius bound can reach
  it. The same outer products give the matching error through the quartic
  identity ``||P_d - P(X)||^2 = vec(X)^H Ghat(X) vec(X) + ||P_d||^2``: the
  quadratic form is the real inner product of the outer products with the
  blocks, so one linearization of a copy yields both, and the solver takes
  its trace record and the next half-cycle's blocks from it.
* sidelobes: the WISL Gram ``Q[i, l] = 2N sum_tau w_tau^2 R[i - tau, l - tau]``
  of ``R = X X^H`` is one product of the lag-weight Toeplitz matrix with a
  table of the diagonals of ``R``; it acts on ``vec(V)`` as ``I_M kron Q``.
* small problems: up to ``_SMALL_MAX_DIM`` unknowns NM, where each structured
  apply is mostly the fixed cost of its four small products, the loaded
  operator of a half-cycle is assembled once as a dense matrix and its blocks
  take one batched eigensolve, cheaper there than the pruned one. Every M x M
  block pair of the matching part ``F^H blkdiag(A_u) F`` is an N x N
  circulant (Gray, "Toeplitz and Circulant Matrices: A Review", 2006), so that
  part is one (N x N) (N x M^2) product and one gather; ``Q`` is added to the
  M diagonal blocks. The build costs about two structured applies. It grows
  as (NM)^2 and the structured apply more slowly, so above the threshold the
  inner step keeps the structured products, and the blocks the pruned solve.

Both applies work on the (M, N) row-major view of ``vec(V)``, which is
``V^T``, so no ``vec``/``unvec`` copy is made.

Each part has one entry point that every caller goes through: the matching
blocks at a copy come only from :meth:`BeampatternOperator.linearize`, and
the WISL Gram only from :meth:`WislOperator.gram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import DesiredBeampattern, WaveformMatrix, WislProfile, as_size
from .nearfield import SteeringContext, beampattern_grid


def _raw(x) -> np.ndarray:
    return x.values if isinstance(x, WaveformMatrix) else np.asarray(x)


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
    pattern, the context's unnormalized N x N DFT matrix with its conjugate,
    and for :meth:`linearize` the M^2 x M^2 lattice kernel with the blocks of
    the desired pattern. The sum of squared desired values is kept out of the
    quadratic forms and exposed separately as ``desired_power``.

    :meth:`linearize` is the one source of a copy's linearized blocks. It
    returns them together with the copy's matching error, which the quartic
    identity ``||P_d - P(X)||^2 = vec(X)^H Ghat(X) vec(X) + desired_power``
    reads off those blocks; :meth:`apply_Ghat`, :meth:`matching_error` and
    :class:`CombinedOperator` take what they need from it. The solver
    linearizes each recorded copy once and hands the blocks to the next
    half-cycle, so no lattice beampattern is evaluated while it runs.
    :meth:`bin_blocks` builds the blocks of any per-cell weights, and
    :meth:`apply_blocks` applies blocks from either source.
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
        self._dft = ctx.dft
        self._dft_conj = self._dft.conj()
        # (2 M^2, 2 M^2) real kernel sum_c o_c o_c^T of the cell outer products,
        # and the constant part 2 A^desired of the linearized blocks
        self._kernel = self._cell_outer.T @ self._cell_outer
        self._desired_term = 2.0 * self.bin_blocks(self.desired)

    def matching_error(self, x) -> float:
        """Sum of squared gaps between the desired and realized beampattern, by :meth:`linearize`."""
        return self.linearize(x)[1]

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
        return self._apply_blocks(blocks, v.reshape(self.num_antennas, self.num_samples)).reshape(-1)

    def _apply_blocks(self, blocks: np.ndarray, w: np.ndarray) -> np.ndarray:
        """:meth:`apply_blocks` on the (M, N) view ``w = V^T``, returning the (M, N) result."""
        z = blocks @ (w @ self._dft).T[:, :, None]
        return z[:, :, 0].T @ self._dft_conj

    def assemble(self, blocks: np.ndarray) -> np.ndarray:
        """Dense (NM, NM) matrix of :meth:`apply_blocks` on the (M, N) row-major index of ``vec(V)``.

        Entry ``[(m', i'), (m, i)]`` is ``sum_u A_u[m', m] exp(2 pi j u (i' - i) / N)``:
        every M x M block pair is an N x N circulant whose first column is a
        column of ``C = conj(F) @ blocks.reshape(N, M^2)``, so the matrix is
        one product and one gather, ``C[(i' - i) mod N, m' M + m]``.
        """
        m = self.num_antennas
        first = self._dft_conj @ blocks.reshape(self.num_samples, m * m)
        return np.take(first, self._circulant_index)

    @cached_property
    def _circulant_index(self) -> np.ndarray:
        """Flat index into ``C`` of each entry of :meth:`assemble`'s matrix, shape (NM, NM)."""
        n, m = self.num_samples, self.num_antennas
        i = np.arange(n)
        lag = (i[:, None] - i) % n  # [i', i]
        pair = np.arange(m * m).reshape(m, m)  # [m', m]
        return (lag[None, :, None, :] * (m * m) + pair[:, None, :, None]).reshape(self.dim, self.dim)

    def weighted_apply(self, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Apply ``sum_cells w_cell g_cell g_cell^H`` to ``v`` matrix-free."""
        return self.apply_blocks(self.bin_blocks(weights), v)

    def ghat_weights(self, x_ref) -> np.ndarray:
        """Per-cell weights ``P(X_ref) - 2 P_desired`` of the linearized quartic."""
        return beampattern_grid(x_ref, self.ctx) - 2.0 * self.desired

    def linearize(self, x) -> tuple[np.ndarray, float]:
        """Per-bin blocks of the quartic linearized at ``x``, and the matching error at ``x``.

        The blocks are :meth:`bin_blocks` of the weights ``P(x) - 2 P_desired``.
        With ``s_u = X^T f_u`` and the cell outer product ``o_c = b b^H``, the pattern of cell c in
        bin u is ``p = o_c . t_u``, the real inner product of ``o_c`` with
        ``t_u = s_u s_u^H``. The pattern part of block u, ``sum_c p o_c``, is
        therefore ``t_u`` times the kernel ``K = sum_c o_c o_c^T``: one
        ``(N, 2 M^2) @ (2 M^2, 2 M^2)`` product over (real, imag) pairs,
        whatever the size of the lattice. The constant ``2 A^desired`` is
        built once.

        The error is ``desired_power + sum_u t_u . B_u`` for the blocks ``B_u``:
        ``t_u . B_u = sum_c p^2 - 2 d p`` over the cells of bin u, so this is
        ``sum (d - p)^2``, the quartic identity, as one real dot product of
        two (N, 2 M^2) arrays. It cancels terms of size ``desired_power`` and
        ``sum p^2``, so its absolute rounding is a small multiple of ``eps``
        times their sum; an error far below that reads as rounding noise and
        may be slightly negative.
        """
        spectra = self._dft @ _raw(x)  # row u = X^T f_u
        m = self.num_antennas
        outer = (spectra[:, :, None] * spectra.conj()[:, None, :]).reshape(-1, m * m)
        blocks = outer.view(np.float64) @ self._kernel
        blocks = blocks.view(np.complex128).reshape(-1, m, m) - self._desired_term
        quad = float(np.vdot(outer.view(np.float64), blocks.view(np.float64)))
        return blocks, self.desired_power + quad

    def apply_Ghat(self, x_ref, v: np.ndarray) -> np.ndarray:
        """Quartic matching operator linearized at ``x_ref`` applied to ``v``."""
        return self.apply_blocks(self.linearize(x_ref)[0], v)


def max_block_eigenvalue(blocks: np.ndarray) -> float:
    """Largest eigenvalue over a stack of Hermitian blocks, ``eigvalsh(blocks)[:, -1].max()``.

    The stack is pruned: a block's top eigenvalue is at most
    ``mean + sqrt((M - 1) / M) ||A - mean I||_F`` with ``mean = tr(A) / M``
    (Wolkowicz and Styan, Linear Algebra Appl. 29, 1980). The block with the
    largest bound is solved first; only the blocks whose bound reaches its
    top eigenvalue can hold a larger one, so only they are solved next. Each
    block is solved on its own, as in the batched call, so the result is the
    same to the bit. The margin of ``1e-12`` times the largest Frobenius norm
    covers the rounding of the bounds and of the eigensolver, both of order
    ``eps ||A||_F``; the deviation from the mean is formed before it is
    squared, so a near-scalar block loses nothing to cancellation.
    """
    m = blocks.shape[-1]
    mean = np.diagonal(blocks, axis1=1, axis2=2).real.sum(axis=1) / m
    dev = (blocks - mean[:, None, None] * np.eye(m)).view(np.float64)
    spread = np.einsum("uij,uij->u", dev, dev)  # ||A - mean I||_F^2
    bound = mean + np.sqrt((m - 1) / m * spread)
    first = int(np.argmax(bound))
    top = float(np.linalg.eigvalsh(blocks[first])[-1])
    scale = math.sqrt(float(np.max(spread + m * mean**2)))  # max ||A||_F
    rest = bound >= top - 1e-12 * scale
    rest[first] = False
    if rest.any():
        top = max(top, float(np.linalg.eigvalsh(blocks[rest])[:, -1].max()))
    return top


def check_blend(gamma: float, rho: float) -> None:
    """Reject a blend weight outside [0, 1] and a proximity pull that is negative, NaN or infinite."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0,1]")
    if not (rho >= 0 and math.isfinite(rho)):  # also rejects NaN
        raise ValueError("rho must be nonnegative and finite")


class WislOperator:
    """Sidelobe operator of one lag-weight profile: the WISL Gram and its quadratic form.

    :meth:`gram` is the one builder of the Gram
    ``Q[i, l] = 2N sum_tau w_tau^2 R[i - tau, l - tau]`` of ``R = X X^H``.
    ``w_tau`` is the weight of lag ``tau``; entries of ``R`` outside ``[0, N)``
    are zero. ``Q`` is Hermitian PSD and ``vec(X)^H (I_M kron Q) vec(X)`` is
    ``2N`` times the weighted correlation energy ``sum w_k^2 |r_{m m'}(k)|^2``.
    Shifts keep ``R[i, l]`` on its diagonal ``d = i - l``; put at row i, column
    d of a zero-padded (N, 2N - 1) table, all shifts are one product with the
    real Toeplitz ``T[p, q] = w_{p-q}^2`` over the table's (real, imag) pairs.
    Where each ``R[i, l]`` sits in the table (row i, column ``i - l + N - 1``,
    as a flat index) and ``T`` depend only on the profile, so they are built
    once here and every Gram reuses them.
    """

    def __init__(self, profile: WislProfile):
        self.profile = profile
        n = profile.code_length
        i, l = np.indices((n, n))
        diag = i - l + n - 1
        self._flat = (i * (2 * n - 1) + diag).ravel()
        self._toeplitz = (profile.weights**2)[diag]

    def gram(self, x) -> np.ndarray:
        """The Gram ``Q`` at ``x``, a :class:`WaveformMatrix` or a raw (N, M) array.

        A raw array lets tests probe degenerate inputs such as the zero matrix.
        """
        x = _raw(x)
        n = self.profile.code_length
        if x.shape[0] != n:
            raise ValueError(f"waveform has {x.shape[0]} samples but the profile code length is {n}")
        table = np.zeros(n * (2 * n - 1), dtype=np.complex128)
        table[self._flat] = (x @ x.conj().T).ravel()
        shifted = self._toeplitz @ table.reshape(n, 2 * n - 1).view(np.float64)
        return 2 * n * shifted.view(np.complex128).reshape(-1)[self._flat].reshape(n, n)

    def quad_form(self, x) -> float:
        """Quadratic sidelobe surrogate ``Re tr(X^H Q X)`` with ``Q`` the Gram at ``X``."""
        raw = _raw(x)
        return float(np.real(np.vdot(raw, self.gram(raw) @ raw)))


def build_wisl_gram(waveform, profile: WislProfile) -> np.ndarray:
    """WISL Gram of one waveform, ``WislOperator(profile).gram(waveform)``.

    Builds the profile's tables for this one call; a caller with several
    waveforms of one profile keeps a :class:`WislOperator` instead.
    """
    return WislOperator(profile).gram(waveform)


# Up to this many unknowns (N M) a problem is small: the loaded operator is one
# dense matrix and the blocks take one batched eigensolve. The dense apply won
# 14-30% of a half-cycle at M2 N16, M4 N16 and M2 N32 (M8 N8 +8% to -18%), was a
# wash at N M = 128 and is no faster at 256 (default, match). One batched block
# solve took 16-22 us against 45-46 us pruned on desk, 128-175 against 35-50 us
# on default and match, and 8-37 us more at M8 N8 to M3 N48 (one BLAS thread).
_SMALL_MAX_DIM = 64


class CombinedOperator:
    """Convex blend of the matching and sidelobe operators, linearized at a reference.

    ``apply`` is linear in its argument. ``apply_loaded`` evaluates
    ``lambda_max * v - R v``; for unimodular ``v`` the two quadratic forms are
    complementary, ``v^H (lambda I - R) v = lambda N M - v^H R v``, so loading
    flips minimization of ``R`` into maximization without moving the argmax.
    ``apply`` takes ``R v`` from the structured products on the (M, N) view of
    ``v`` at every size, so it keeps the bits of the parts' own applies.
    ``apply_loaded``, the inner step's operator, does the same above
    ``_SMALL_MAX_DIM`` unknowns; up to it the operator assembles ``R`` once
    as a dense (NM, NM) matrix, on the same index, and each call is one
    matrix-vector product.

    ``lambda_max`` is Weyl's bound on the top eigenvalue of ``R``, computed
    from the two parts the operator holds:
    ``gamma N max_u lambda_max(A_u) + (1 - gamma) lambda_max(Q)``. The
    matching part is ``F^H blkdiag(A_u) F`` with the unnormalized DFT ``F``,
    so its spectrum is ``N eig(A_u)``; the sidelobe part ``I_M kron Q`` has
    the spectrum of ``Q``. The blocks come from
    :meth:`BeampatternOperator.linearize`; their top eigenvalue comes from one
    batched ``eigvalsh`` up to ``_SMALL_MAX_DIM`` unknowns and from the pruned
    :func:`max_block_eigenvalue` above it, with the same bits; ``Q`` is solved
    in full. The bound is exact when ``gamma`` is 0 or 1
    and never below the top eigenvalue, so ``lambda_max I - R`` is PSD and the
    phase-projection ascent holds in every half-cycle. The parts are held
    already scaled by ``gamma`` and ``1 - gamma``, so ``apply`` is their sum.

    ``momentum`` is the absolute proximity-pull coefficient used by the
    phase-projection update. The phase projection is invariant to a positive
    rescaling of its argument, so a raw penalty coefficient only has meaning
    relative to the operator's scale; anchoring it at ``rho * lambda_max / 2``
    makes a given ``rho`` pull with the same relative strength regardless of
    problem size. Without that pull the two waveform copies settle into an
    anti-phase two-cycle instead of a consensus.

    ``gram`` is the WISL Gram of ``reference`` and ``blocks`` its unscaled
    linearized blocks, the first item of
    :meth:`BeampatternOperator.linearize`, when the caller already has
    them; the solver hands over the ones its trace record computed, so every
    copy gets one Gram and one linearization.
    """

    def __init__(
        self,
        bp: BeampatternOperator,
        sidelobe: WislOperator,
        reference: WaveformMatrix,
        gamma: float,
        rho: float,
        gram: np.ndarray | None = None,
        blocks: np.ndarray | None = None,
    ):
        check_blend(gamma, rho)
        self.bp = bp
        self.rho = rho
        self.dim = reference.num_samples * reference.num_antennas
        self._shape = (reference.num_antennas, reference.num_samples)
        small = self.dim <= _SMALL_MAX_DIM
        self._blocks = None
        self._gram = None
        self.lambda_max = 0.0
        if gamma > 0.0:
            if blocks is None:
                blocks = bp.linearize(reference)[0]
            top = np.linalg.eigvalsh(blocks)[:, -1].max() if small else max_block_eigenvalue(blocks)
            self.lambda_max += gamma * reference.num_samples * float(top)
            self._blocks = gamma * blocks
        if gamma < 1.0:
            if gram is None:
                gram = sidelobe.gram(reference)
            self.lambda_max += (1.0 - gamma) * float(np.linalg.eigvalsh(gram)[-1])
            self._gram = (1.0 - gamma) * gram
        self._dense = self._assemble() if small else None

    @property
    def momentum(self) -> float:
        """Loading-scaled proximity pull toward the reference copy."""
        return 0.5 * self.rho * self.lambda_max

    def _product(self, v: np.ndarray) -> np.ndarray:
        """``R v`` as an (M, N) array, from the (M, N) view ``V^T`` of ``v``.

        The matching blocks are applied first and the Gram product is added in
        place: the products of :meth:`BeampatternOperator.apply_blocks` and
        :func:`apply_J` in the same order, so the result has their bits.
        """
        if v.size != self.dim:
            raise ValueError(f"vector of length {v.size} != N*M = {self.dim}")
        w = v.reshape(self._shape)
        if self._blocks is None:
            return w @ self._gram.T
        out = self.bp._apply_blocks(self._blocks, w)
        if self._gram is not None:
            out += w @ self._gram.T
        return out

    def _assemble(self) -> np.ndarray:
        """``R`` as a dense (NM, NM) matrix on the (M, N) row-major index of ``vec(V)``.

        The matching part comes from :meth:`BeampatternOperator.assemble`; the
        sidelobe part ``I_M kron Q`` is ``Q`` added to the M diagonal N x N blocks.
        """
        m, n = self._shape
        if self._blocks is None:
            dense = np.zeros((self.dim, self.dim), dtype=np.complex128)
        else:
            dense = self.bp.assemble(self._blocks)
        if self._gram is not None:
            diag = np.arange(m)
            dense.reshape(m, n, m, n)[diag, :, diag, :] += self._gram
        return dense

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._product(np.asarray(v)).reshape(-1)

    def apply_loaded(self, v: np.ndarray) -> np.ndarray:
        """``lambda_max * v - R v``, with ``R v`` subtracted in place from ``lambda_max * v``.

        Up to ``_SMALL_MAX_DIM`` unknowns ``R v`` is one product with the
        dense ``R`` the operator assembled; it agrees with :meth:`apply` to
        rounding. Above it ``R v`` is formed as in :meth:`apply`: the
        operations of ``lambda_max * v - apply(v)`` in the same order, so the
        same bits, without the size checks, reshapes and temporaries of
        composing them. ``lambda_max`` is read at call time, so a loading
        assigned after construction applies.
        """
        v = np.asarray(v)
        res = self.lambda_max * v
        if self._dense is None:
            res -= self._product(v).reshape(-1)
            return res
        if v.size != self.dim:
            raise ValueError(f"vector of length {v.size} != N*M = {self.dim}")
        res -= self._dense @ v
        return res


@dataclass
class LambdaEstimate:
    """Result of the dominant-eigenvalue estimation."""

    value: float


def estimate_lambda_max(matvec, dim: int) -> LambdaEstimate:
    """Upper estimate of the top eigenvalue of a Hermitian map given by its matvec.

    Forms the dense ``dim`` x ``dim`` matrix from the images of the unit
    vectors and takes its top eigenvalue ``top`` exactly; the returned value
    is ``top + 0.05 |top|``, so ``value * I - A`` is loaded above the top of
    the spectrum. Meant for small operators such as the tests'. The solver
    does not use it: :class:`CombinedOperator` bounds its top eigenvalue from
    its parts. ``dim`` is an integer ``>= 1`` (see :func:`~nfwave.model.as_size`).
    """
    dim = as_size("dim", dim)
    dense = np.column_stack([matvec(e) for e in np.eye(dim, dtype=np.complex128)])
    top = float(np.linalg.eigvalsh(dense)[-1])
    return LambdaEstimate(top + 0.05 * abs(top))
