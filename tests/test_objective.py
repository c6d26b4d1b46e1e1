import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NOT_INTEGERS,
    alpha_beampattern,
    dense_cell_matrix,
    dense_operator,
    fft_apply_blocks,
    kernel_gram,
    lag_kernels,
    lag_shift_gram,
    lattice_matching_error,
    per_bin_blocks,
)
import nfwave.objective as objective_module
from nfwave.correlation import correlation_matrix
from nfwave.model import (
    ArrayConfig,
    DesiredBeampattern,
    WaveformMatrix,
    WislProfile,
    build_grid,
    vec,
)
from nfwave.nearfield import beampattern_grid, build_steering_context, dft_vector, steering_gram
from nfwave.objective import (
    BeampatternOperator,
    CombinedOperator,
    WislOperator,
    apply_J,
    build_wisl_gram,
    estimate_lambda_max,
    max_block_eigenvalue,
)
from nfwave.solver import init_waveform


def random_vec(dim, rng):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def flat_desired(ctx, value=0.0):
    grid = ctx.grid
    return DesiredBeampattern(np.full((grid.num_angles, grid.num_ranges, grid.num_bins), value))


class TestLagKernels:
    """The literal kernel stack in ``conftest`` is the oracle for the lag-shift Gram."""

    def test_literal_reconstruction(self):
        # K_k[i, j] = w(j - i) exp(j pi k (i - j) / N), entry by entry
        n = 3
        w = np.arange(1.0, 2 * n)
        kernels = lag_kernels(WislProfile(n, w))
        assert kernels.shape == (2 * n, n, n)
        for k, i, j in np.ndindex(2 * n, n, n):
            expected = w[j - i + n - 1] * np.exp(1j * np.pi * k * (i - j) / n)
            assert np.isclose(kernels[k, i, j], expected, rtol=0, atol=1e-14)

    def test_hermitian_for_symmetric_weights(self):
        rng = np.random.default_rng(1)
        half = rng.uniform(0.1, 2.0, size=4)
        w = np.concatenate([half[::-1][:-1], half])  # symmetric lags, N=4
        prof = WislProfile(4, w)
        for kern in lag_kernels(prof):
            assert np.allclose(kern, kern.conj().T, atol=1e-14)


class TestApplyG:
    def test_zero_response_vector_maps_to_zero(self, tiny_context):
        bp = BeampatternOperator(tiny_context, flat_desired(tiny_context))
        # columns that cancel in the projection for the chosen cell
        a = tiny_context.alpha[0, 0, 0]
        fu = dft_vector(2, 0)
        g = vec(np.outer(fu.conj(), a))
        rng = np.random.default_rng(3)
        v = random_vec(4, rng)
        v -= g * (g.conj() @ v) / (g.conj() @ g)  # orthogonalize against g
        out = bp.apply_G(v, (0, 0, 0))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_quadratic_form_equals_beampattern(self, tiny_context):
        bp = BeampatternOperator(tiny_context, flat_desired(tiny_context))
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = WaveformMatrix(np.exp(2j * np.pi * rng.random((2, 2))))
            v = x.vec()
            power = alpha_beampattern(x.values, tiny_context)
            for cell in np.ndindex(2, 2, 2):
                quad = np.real(np.vdot(v, bp.apply_G(v, cell)))
                assert np.isclose(quad, power[cell], rtol=1e-12)

    def test_matches_dense_factorization(self, tiny_context):
        bp = BeampatternOperator(tiny_context, flat_desired(tiny_context))
        rng = np.random.default_rng(7)
        for cell in np.ndindex(2, 2, 2):
            k1, k2, u = cell
            dense = dense_cell_matrix(tiny_context.alpha[k1, k2, u], dft_vector(2, u), 2, 2)
            for _ in range(5):
                v = random_vec(4, rng)
                assert np.allclose(bp.apply_G(v, cell), dense @ v, rtol=1e-12, atol=1e-12)

    def test_rejects_wrong_length(self, tiny_context):
        bp = BeampatternOperator(tiny_context, flat_desired(tiny_context))
        with pytest.raises(ValueError):
            bp.apply_G(np.ones(3), (0, 0, 0))


class TestBinBlocks:
    """The bin-by-bin loop in ``conftest`` is the oracle for the one-product block build."""

    # (M, N, K1, K2): desk lattice, match-sized lattice, one antenna, one bin
    LATTICES = [(2, 16, 8, 4), (8, 32, 40, 20), (1, 8, 4, 2), (3, 1, 3, 2)]

    @staticmethod
    def context(m, n, k1, k2):
        return build_steering_context(ArrayConfig(m, n, 1.0e9, 2.0e8), build_grid(k1, k2, n))

    @pytest.mark.parametrize("m, n, k1, k2", LATTICES)
    def test_matches_per_bin_oracle(self, m, n, k1, k2):
        ctx = self.context(m, n, k1, k2)
        bp = BeampatternOperator(ctx, flat_desired(ctx))
        rng = np.random.default_rng(m * 1000 + n)
        for scale in (1.0, 1e4):
            weights = scale * rng.standard_normal((k1, k2, n))  # signed, like P - 2 P_desired
            got = bp.bin_blocks(weights)
            ref = per_bin_blocks(ctx.alpha, weights)
            assert got.shape == (n, m, m)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("m, n, k1, k2", LATTICES)
    def test_steering_factors_rebuild_alpha(self, m, n, k1, k2):
        # bin_blocks builds every bin from base alone: it needs a a^H = b b^H in each bin
        ctx = self.context(m, n, k1, k2)
        assert np.abs(np.abs(ctx.bin_phase) - 1.0).max() <= 1e-15
        alpha, base = ctx.alpha, ctx.base
        per_bin = alpha[..., :, None] * alpha[..., None, :].conj()  # (K1, K2, N, M, M)
        per_cell = base[..., :, None] * base[..., None, :].conj()  # (K1, K2, M, M)
        assert np.abs(per_bin - per_cell[:, :, None]).max() <= 1e-15

    def test_unit_weights_give_steering_gram_in_every_bin(self):
        ctx = self.context(2, 16, 8, 4)
        blocks = BeampatternOperator(ctx, flat_desired(ctx)).bin_blocks(1.0)
        for u in range(16):
            assert np.allclose(blocks[u], steering_gram(ctx), rtol=0, atol=1e-12)


class TestLinearize:
    """One linearization gives the pattern blocks and, by the quartic identity, the matching error."""

    LATTICES = [(16, 8, 4), (64, 20, 10), (32, 40, 20)]  # (N, K1, K2): desk, default, match

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    @pytest.mark.parametrize("n, k1, k2", LATTICES)
    def test_blocks_match_lattice_oracle(self, m, n, k1, k2):
        """``bin_blocks(P(x) - 2 P_desired)`` over the lattice is the oracle for the kernel build."""
        ctx = TestBinBlocks.context(m, n, k1, k2)
        rng = np.random.default_rng(m * 1000 + n)
        # a peak of M N^2 makes the weights P - 2 P_desired strongly mixed-sign
        for desired in (
            DesiredBeampattern(rng.uniform(0.0, 2.0, size=(k1, k2, n))),
            DesiredBeampattern.delta(ctx.grid, k1 // 2, k2 // 2, peak=m * n**2),
        ):
            bp = BeampatternOperator(ctx, desired)
            x = init_waveform(n, m, seed=m + n)
            got = bp.linearize(x)[0]
            ref = bp.bin_blocks(alpha_beampattern(x.values, ctx) - 2 * desired.values)
            assert got.shape == (n, m, m)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("n, k1, k2", LATTICES)
    def test_matches_blocks_and_lattice_error(self, m, n, k1, k2):
        ctx = TestBinBlocks.context(m, n, k1, k2)
        rng = np.random.default_rng(m * 100 + n)
        # a random target, and the match workload's delta of peak M N at a central cell
        for desired in (
            DesiredBeampattern(rng.uniform(0.0, 2.0, size=(k1, k2, n))),
            DesiredBeampattern.delta(ctx.grid, k1 // 2 - 1, k2 // 2 - 1, peak=m * n),
        ):
            bp = BeampatternOperator(ctx, desired)
            x = init_waveform(n, m, seed=m + n)
            blocks, error = bp.linearize(x)
            v = x.vec()
            assert np.array_equal(bp.apply_Ghat(x, v), bp.apply_blocks(blocks, v))
            assert bp.matching_error(x) == error
            expected = lattice_matching_error(bp, x)
            assert abs(error - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("n, k1, k2", LATTICES)
    def test_exact_match_cancels_to_rounding(self, m, n, k1, k2):
        """A desired pattern equal to the realized one leaves only rounding.

        With ``d = p`` the identity sums ``desired_power``, ``sum p^2`` and
        ``-2 sum d p``, three terms of the same size, so nothing of the
        leading digits survives. What is left is the rounding of the terms
        and the gap between the DFT-matrix spectra of the blocks and the FFT
        spectra of ``beampattern_grid``, each a small multiple of ``eps`` times
        ``desired_power``: far below the ``1e-12`` allowed, and of either sign.
        """
        ctx = TestBinBlocks.context(m, n, k1, k2)
        x0 = init_waveform(n, m, seed=m * n)
        bp = BeampatternOperator(ctx, DesiredBeampattern(beampattern_grid(x0, ctx)))
        assert abs(bp.matching_error(x0)) <= 1e-12 * bp.desired_power


class TestMaxBlockEigenvalue:
    """The pruned solve returns exactly the maximum of the batched ``eigvalsh``."""

    @staticmethod
    def batched(blocks):
        return np.linalg.eigvalsh(blocks)[:, -1].max()

    @staticmethod
    def hermitian(rng, n, m):
        a = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        return a + a.conj().transpose(0, 2, 1)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("n", [1, 3, 32, 64])
    def test_random_indefinite_blocks(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        for shift in (0.0, -5.0, 50.0):
            blocks = self.hermitian(rng, n, m) + shift * np.eye(m)
            assert max_block_eigenvalue(blocks) == self.batched(blocks)

    def test_tied_tops(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        spectra = [(3.0, 1.0, 0.0, -2.0), (3.0, -7.0, -7.0, -7.0), (3.0, 3.0, 3.0, 3.0)]
        distinct = np.stack([(q * np.array(d)) @ q.conj().T for d in spectra])
        for blocks in (distinct, np.repeat(self.hermitian(rng, 1, 4), 6, axis=0)):
            assert max_block_eigenvalue(blocks) == self.batched(blocks)
        # unitarily similar copies share a spectrum, so their computed tops and
        # bounds differ by rounding alone: the pruning margin must keep them all,
        # also when the tied top is 0 and the bounds are 0 too
        for m in (2, 3, 4):
            for _ in range(60):
                a = self.hermitian(rng, 1, m)[0]
                q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
                b = (q * np.array([0.0] + [-1e3] * (m - 1))) @ q.conj().T
                for c in (a, b):
                    blocks = np.stack([c, q @ c @ q.conj().T, q.conj().T @ c @ q])
                    assert max_block_eigenvalue(blocks) == self.batched(blocks)

    def test_all_zero_blocks(self):
        blocks = np.zeros((16, 3, 3), dtype=np.complex128)
        assert max_block_eigenvalue(blocks) == 0.0

    def test_one_antenna_is_the_largest_entry(self):
        values = np.array([-3.0, 7.5, 7.5, -0.25, 2.0])
        blocks = values[:, None, None].astype(np.complex128)
        assert max_block_eigenvalue(blocks) == 7.5 == self.batched(blocks)

    def test_near_scalar_blocks_are_not_pruned(self):
        # A = c I + tiny E: the bound's spread ||A - mean I||_F is formed before it is squared
        rng = np.random.default_rng(9)
        for scale in (1e-6, 1e-9, 1e-13):
            blocks = 1e3 * np.eye(8) + scale * self.hermitian(rng, 32, 8)
            assert max_block_eigenvalue(blocks) == self.batched(blocks)

    def test_solves_only_blocks_that_can_hold_the_top(self, monkeypatch):
        solved = []
        real = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            solved.append(1 if np.ndim(a) == 2 else len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        rng = np.random.default_rng(6)
        blocks = 0.01 * self.hermitian(rng, 32, 4) + np.arange(32.0)[:, None, None] * np.eye(4)
        top = max_block_eigenvalue(blocks)
        monkeypatch.undo()
        assert top == self.batched(blocks)
        assert sum(solved) < 4


class TestApplyBlocks:
    """The FFT form in ``conftest`` is the oracle for the DFT-matrix ``apply_blocks``."""

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 256])
    def test_matches_fft_oracle(self, n, m):
        ctx = build_steering_context(ArrayConfig(m, n, 1.0e9, 2.0e8), build_grid(1, 1, n))
        bp = BeampatternOperator(ctx, flat_desired(ctx))
        rng = np.random.default_rng(n * 10 + m)
        blocks = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        v = random_vec(n * m, rng)
        got = bp.apply_blocks(blocks, v)
        ref = fft_apply_blocks(blocks, v)
        assert got.shape == (n * m,)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
    def test_assembled_matrix_matches_fft_oracle(self, n, m):
        ctx = build_steering_context(ArrayConfig(m, n, 1.0e9, 2.0e8), build_grid(1, 1, n))
        bp = BeampatternOperator(ctx, flat_desired(ctx))
        rng = np.random.default_rng(n * 10 + m)
        blocks = rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m))
        v = random_vec(n * m, rng)
        dense = bp.assemble(blocks)
        ref = fft_apply_blocks(blocks, v)
        assert dense.shape == (n * m, n * m)
        assert np.abs(dense @ v - ref).max() <= 1e-12 * np.abs(ref).max()


class TestApplyGhat:
    def test_quartic_identity_many_random_waveforms(self, small_context):
        rng = np.random.default_rng(11)
        cases = [(small_context, DesiredBeampattern(rng.uniform(0.0, 2.0, size=(2, 2, 4))))]
        # large mixed-sign weights: P - 2 P_desired is about -2 M N^2 at the
        # target cells and positive everywhere else
        for m in (2, 8):
            ctx = build_steering_context(ArrayConfig(m, 4, 1.0e9, 2.0e8), build_grid(2, 2, 4))
            cases.append((ctx, DesiredBeampattern.delta(ctx.grid, 1, 0, peak=m * 4**2)))
        for ctx, desired in cases:
            bp = BeampatternOperator(ctx, desired)
            cells = list(np.ndindex(desired.values.shape))
            for _ in range(100):
                x = WaveformMatrix(np.exp(2j * np.pi * rng.random((4, ctx.config.num_antennas))))
                v = x.vec()
                quad = np.real(np.vdot(v, bp.apply_Ghat(x, v)))
                power = alpha_beampattern(x.values, ctx)
                direct = sum((desired.values[c] - power[c]) ** 2 for c in cells)
                assert np.isclose(quad + bp.desired_power, direct, rtol=1e-8)
                weights = power - 2 * desired.values
                oracle = math.fsum(weights[c] * power[c] for c in cells)
                assert abs(quad - oracle) <= 1e-10 * abs(oracle)

    def test_zero_target_gives_nonnegative_power_sum(self, small_context):
        bp = BeampatternOperator(small_context, flat_desired(small_context, 0.0))
        x = init_waveform(4, 2, seed=3)
        v = x.vec()
        quad = np.real(np.vdot(v, bp.apply_Ghat(x, v)))
        direct = np.sum(alpha_beampattern(x.values, small_context) ** 2)
        assert quad >= 0.0
        assert np.isclose(quad, direct, rtol=1e-10)

    def test_single_cell_reproduces_scalar_expansion(self):
        cfg = ArrayConfig(2, 1, 1.0e9, 2.0e8)
        ctx = build_steering_context(cfg, build_grid(1, 1, 1))
        desired = DesiredBeampattern(np.full((1, 1, 1), 1.7))
        bp = BeampatternOperator(ctx, desired)
        x = init_waveform(1, 2, seed=1)
        v = x.vec()
        p = alpha_beampattern(x.values, ctx)[0, 0, 0]
        quad = np.real(np.vdot(v, bp.apply_Ghat(x, v)))
        assert np.isclose(quad, (p - 1.7) ** 2 - 1.7**2, rtol=1e-12)

    def test_matches_dense_operator(self, tiny_context):
        rng = np.random.default_rng(13)
        cases = [(tiny_context, DesiredBeampattern(rng.uniform(0.0, 1.0, size=(2, 2, 2))))]
        for m in (2, 8):
            ctx = build_steering_context(ArrayConfig(m, 2, 1.0e9, 2.0e8), build_grid(2, 2, 2))
            cases.append((ctx, DesiredBeampattern.delta(ctx.grid, 1, 0, peak=m * 2**2)))
        for ctx, desired in cases:
            m = ctx.config.num_antennas
            bp = BeampatternOperator(ctx, desired)
            x = WaveformMatrix(np.exp(2j * np.pi * rng.random((2, m))))
            xv = x.vec()
            dense = np.zeros((2 * m, 2 * m), dtype=complex)
            for cell in np.ndindex(2, 2, 2):
                k1, k2, u = cell
                g_dense = dense_cell_matrix(ctx.alpha[k1, k2, u], dft_vector(2, u), 2, m)
                gx = g_dense @ xv
                dense += np.outer(gx, xv.conj()) @ g_dense - 2.0 * desired.values[cell] * g_dense
            for _ in range(10):
                v = random_vec(2 * m, rng)
                assert np.allclose(bp.apply_Ghat(x, v), dense @ v, rtol=1e-10, atol=1e-10)

    def test_quadratic_form_is_real(self, small_context):
        rng = np.random.default_rng(17)
        desired = DesiredBeampattern(rng.uniform(0.0, 3.0, size=(2, 2, 4)))
        bp = BeampatternOperator(small_context, desired)
        x = init_waveform(4, 2, seed=5)
        for _ in range(10):
            v = random_vec(8, rng)
            val = np.vdot(v, bp.apply_Ghat(x, v))
            assert abs(val.imag) <= 1e-10 * max(abs(val), 1.0)


class TestWislGram:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("kind", ["uniform", "symmetric", "nonsymmetric"])
    def test_matches_kernel_stack_oracle(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "uniform":
            prof = WislProfile.uniform(n)
        else:
            w = rng.uniform(0.1, 2.0, size=2 * n - 1)
            if kind == "symmetric":
                w = 0.5 * (w + w[::-1])
            prof = WislProfile(n, w)
        x = init_waveform(n, 3, seed=n)
        q = build_wisl_gram(x, prof)
        oracle = kernel_gram(x.values, prof)
        assert np.linalg.norm(q - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize("kind", ["uniform", "symmetric", "asymmetric"])
    def test_matches_lag_shift_oracle(self, n, m, kind):
        rng = np.random.default_rng(10 * n + m)
        if kind == "uniform":
            prof = WislProfile.uniform(n)
        else:
            w = rng.uniform(0.1, 2.0, size=2 * n - 1)
            if kind == "symmetric":
                w = 0.5 * (w + w[::-1])
            prof = WislProfile(n, w)
        x = init_waveform(n, m, seed=n + m)
        q = build_wisl_gram(x, prof)
        oracle = lag_shift_gram(x.values, prof)
        norm = np.linalg.norm(oracle)
        assert q.shape == (n, n)
        assert np.linalg.norm(q - oracle) <= 1e-12 * norm
        assert np.linalg.norm(q - q.conj().T) <= 1e-12 * norm

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    @pytest.mark.parametrize("kind", ["uniform", "asymmetric"])
    def test_operator_tables_give_the_same_bits(self, n, kind):
        # WislOperator builds the index grid and the Toeplitz once; one operator
        # serves several copies and each Gram equals a fresh build_wisl_gram
        if kind == "uniform":
            prof = WislProfile.uniform(n)
        else:
            prof = WislProfile(n, np.random.default_rng(n).uniform(0.1, 2.0, 2 * n - 1))
        op = WislOperator(prof)
        for seed in range(3):
            x = init_waveform(n, 3, seed=seed)
            q = op.gram(x)
            assert np.array_equal(q, build_wisl_gram(x, prof))
            assert np.array_equal(q, self.per_call_gram(x.values, prof))

    @staticmethod
    def per_call_gram(x, prof):
        """The single-product Gram with its index grid and Toeplitz built on every call."""
        n = prof.code_length
        i, l = np.indices((n, n))
        diag = i - l + n - 1
        table = np.zeros((n, 2 * n - 1), dtype=np.complex128)
        table[i, diag] = x @ x.conj().T
        shifted = (prof.weights**2)[diag] @ table.view(np.float64)
        return 2 * n * shifted.view(np.complex128)[i, diag]

    def test_rejects_code_length_mismatch(self):
        with pytest.raises(ValueError):
            build_wisl_gram(init_waveform(4, 2, seed=0), WislProfile.uniform(3))
        with pytest.raises(ValueError):
            WislOperator(WislProfile.uniform(3)).gram(init_waveform(4, 2, seed=0))

    def test_zero_matrix_gives_zero_gram(self):
        prof = WislProfile.uniform(3)
        q = build_wisl_gram(np.zeros((3, 2), dtype=complex), prof)
        assert np.allclose(q, 0.0)

    def test_scalar_hand_value(self):
        # N=1: both kernels equal [[1]], so Q = 2 |x|^2 = 2
        prof = WislProfile.uniform(1)
        q = build_wisl_gram(WaveformMatrix(np.ones((1, 1), dtype=complex)), prof)
        assert np.allclose(q, [[2.0]])

    def test_hermitian_and_psd(self):
        prof = WislProfile.uniform(6)
        x = init_waveform(6, 2, seed=9)
        q = build_wisl_gram(x, prof)
        norm = np.linalg.norm(q)
        assert np.linalg.norm(q - q.conj().T) <= 1e-12 * norm
        eigs = np.linalg.eigvalsh(0.5 * (q + q.conj().T))
        assert eigs.min() >= -1e-8 * norm


class TestApplyJ:
    def test_identity_gram_is_identity_map(self):
        rng = np.random.default_rng(19)
        v = random_vec(12, rng)
        assert np.allclose(apply_J(np.eye(4), v), v)

    def test_quadratic_form_matches_direct_frobenius_sums(self):
        for n, m in [(2, 1), (4, 2), (6, 3)]:
            prof = WislProfile.uniform(n)
            x = init_waveform(n, m, seed=n + m)
            q = build_wisl_gram(x, prof)
            v = x.vec()
            quad = np.real(np.vdot(v, apply_J(q, v)))
            direct = sum(
                np.linalg.norm(x.values.conj().T @ kern @ x.values, "fro") ** 2
                for kern in lag_kernels(prof)
            )
            assert np.isclose(quad, direct, rtol=1e-10)

    def test_matches_dense_kronecker(self):
        rng = np.random.default_rng(23)
        prof = WislProfile.uniform(2)
        x = init_waveform(2, 2, seed=2)
        q = build_wisl_gram(x, prof)
        dense = np.kron(np.eye(2), q)
        for _ in range(10):
            v = random_vec(4, rng)
            assert np.allclose(apply_J(q, v), dense @ v, rtol=1e-12, atol=1e-12)

    def test_literal_transpose_factorization_matches(self):
        # dense build following the (I kron X^T K*)^T (I kron X^H K) layout
        prof = WislProfile.uniform(2)
        x = init_waveform(2, 2, seed=6)
        dense = np.zeros((4, 4), dtype=complex)
        for kern in lag_kernels(prof):
            left = np.kron(np.eye(2), x.values.T @ kern.conj()).T
            right = np.kron(np.eye(2), x.values.conj().T @ kern)
            dense += left @ right
        q = build_wisl_gram(x, prof)
        assert np.allclose(dense, np.kron(np.eye(2), q), atol=1e-12)

    def test_rejects_mismatched_vector(self):
        with pytest.raises(ValueError):
            apply_J(np.eye(3), np.ones(4))


class TestSpectralCorrelationIdentity:
    @pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (5, 3), (8, 3)])
    def test_uniform_weights(self, n, m):
        x = init_waveform(n, m, seed=n * 10 + m)
        op = WislOperator(WislProfile.uniform(n))
        quad = op.quad_form(x)
        r = correlation_matrix(x)
        direct = float(np.sum(np.abs(r) ** 2))
        assert np.isclose(quad, 2 * n * direct, rtol=1e-8)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_general_weights(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 4, 2
        w = rng.uniform(0.0, 2.0, size=2 * n - 1)
        x = init_waveform(n, m, seed)
        op = WislOperator(WislProfile(n, w))
        quad = op.quad_form(x)
        r = correlation_matrix(x)
        direct = float(np.sum(w[None, None, :] ** 2 * np.abs(r) ** 2))
        assert np.isclose(quad, 2 * n * direct, rtol=1e-8)

    def test_quad_form_agrees_with_gram_route(self):
        n, m = 6, 2
        prof = WislProfile.uniform(n)
        x = init_waveform(n, m, seed=44)
        op = WislOperator(prof)
        v = x.vec()
        via_gram = np.real(np.vdot(v, apply_J(op.gram(x), v)))
        assert np.isclose(op.quad_form(x), via_gram, rtol=1e-10)


class TestCombinedOperator:
    def _setup(self, gamma, seed=21, rho=2.0):
        cfg = ArrayConfig(2, 4, 1.0e9, 2.0e8)
        ctx = build_steering_context(cfg, build_grid(2, 2, 4))
        rng = np.random.default_rng(seed)
        desired = DesiredBeampattern(rng.uniform(0.0, 2.0, size=(2, 2, 4)))
        bp = BeampatternOperator(ctx, desired)
        sidelobe = WislOperator(WislProfile.uniform(4))
        x = init_waveform(4, 2, seed)
        return CombinedOperator(bp, sidelobe, x, gamma, rho), bp, sidelobe, x

    def test_gamma_one_is_pure_matching(self):
        op, bp, _, x = self._setup(1.0)
        rng = np.random.default_rng(1)
        v = random_vec(8, rng)
        assert np.array_equal(op.apply(v), bp.apply_Ghat(x, v))

    def test_gamma_zero_is_pure_sidelobe(self):
        op, _, sidelobe, x = self._setup(0.0)
        rng = np.random.default_rng(2)
        v = random_vec(8, rng)
        assert np.array_equal(op.apply(v), apply_J(sidelobe.gram(x), v))

    def test_linearity(self):
        op, *_ = self._setup(0.4)
        rng = np.random.default_rng(3)
        v1, v2 = random_vec(8, rng), random_vec(8, rng)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = op.apply(a * v1 + b * v2)
        rhs = a * op.apply(v1) + b * op.apply(v2)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-10)

    def test_loading_identity_for_unimodular_vectors(self):
        op, *_ = self._setup(0.5)
        est = estimate_lambda_max(op.apply, op.dim)
        op.lambda_max = est.value
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = np.exp(2j * np.pi * rng.random(8))
            loaded = np.real(np.vdot(v, op.apply_loaded(v)))
            plain = np.real(np.vdot(v, op.apply(v)))
            assert np.isclose(loaded, op.lambda_max * 8 - plain, rtol=1e-10)
            assert np.isclose(loaded + plain, op.lambda_max * 8, rtol=1e-12)

    # (M, N, K1, K2, desired peak): desk, default and match lattices, one antenna, one bin,
    # and N M at the small-problem threshold (twice) and one above it
    LOADING_LATTICES = [
        (2, 16, 8, 4, 1.0),
        (4, 64, 20, 10, 1.0),
        (8, 32, 40, 20, 256.0),
        (1, 8, 4, 2, 1.0),
        (3, 1, 3, 2, 1.0),
        (2, 32, 8, 4, 1.0),
        (5, 13, 6, 4, 1.0),
        (8, 8, 6, 4, 1.0),
    ]

    def test_lattices_straddle_the_dense_threshold(self):
        threshold = objective_module._SMALL_MAX_DIM
        assert {threshold, threshold + 1} <= {m * n for m, n, *_ in self.LOADING_LATTICES}

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    @pytest.mark.parametrize("m, n, k1, k2, peak", LOADING_LATTICES)
    def test_small_problems_take_one_batched_block_solve(self, monkeypatch, m, n, k1, k2, peak, gamma):
        ctx = TestBinBlocks.context(m, n, k1, k2)
        desired = DesiredBeampattern.delta(ctx.grid, k1 // 2, k2 // 2, peak)
        bp = BeampatternOperator(ctx, desired)
        sidelobe = WislOperator(WislProfile.uniform(n))
        x = init_waveform(n, m, seed=m * 100 + n)
        blocks, gram = bp.linearize(x)[0], sidelobe.gram(x)
        shapes = []
        real = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        op = CombinedOperator(bp, sidelobe, x, gamma, 2.0, gram=gram, blocks=blocks)
        monkeypatch.undo()
        # the size test that picks the dense apply also picks the batched solve of the stack
        assert shapes.count(blocks.shape) == (op._dense is not None)
        # and either solve gives the batched solve's bits
        expected = gamma * n * float(real(blocks)[:, -1].max())
        if gamma < 1.0:
            expected += (1.0 - gamma) * float(real(gram)[-1])
        assert op.lambda_max == expected

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("m, n, k1, k2, peak", LOADING_LATTICES)
    def test_loading_bounds_dense_top_eigenvalue(self, m, n, k1, k2, peak, gamma):
        ctx = TestBinBlocks.context(m, n, k1, k2)
        desired = DesiredBeampattern.delta(ctx.grid, k1 // 2, k2 // 2, peak)
        bp = BeampatternOperator(ctx, desired)
        sidelobe = WislOperator(WislProfile.uniform(n))
        op = CombinedOperator(bp, sidelobe, init_waveform(n, m, seed=m * 100 + n), gamma, 2.0)
        top = float(np.linalg.eigvalsh(dense_operator(op))[-1])
        if gamma in (0.0, 1.0):  # a single part: Weyl's bound is its top eigenvalue
            assert abs(op.lambda_max - top) <= 1e-12 * abs(top)
        else:
            assert op.lambda_max >= top - 1e-12 * abs(top)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("m, n, k1, k2, peak", LOADING_LATTICES)
    def test_apply_loaded_matches_composed_oracle(self, m, n, k1, k2, peak, gamma):
        ctx = TestBinBlocks.context(m, n, k1, k2)
        desired = DesiredBeampattern.delta(ctx.grid, k1 // 2, k2 // 2, peak)
        bp = BeampatternOperator(ctx, desired)
        sidelobe = WislOperator(WislProfile.uniform(n))
        op = CombinedOperator(bp, sidelobe, init_waveform(n, m, seed=m * 100 + n), gamma, 2.0)
        # up to the threshold apply_loaded takes the dense matrix, apply the structured products
        assert (op._dense is not None) == (op.dim <= objective_module._SMALL_MAX_DIM)
        v = random_vec(op.dim, np.random.default_rng(m * 10 + n))
        # the loading is read at call time: a value assigned after construction is used
        for loading in (op.lambda_max, 3.0 * op.lambda_max + 1.0):
            op.lambda_max = loading
            oracle = loading * v - op.apply(v)
            gap = np.abs(op.apply_loaded(v) - oracle).max()
            assert gap <= 1e-12 * np.abs(oracle).max()
        # N = 1 makes every length a multiple of N, which a reshape alone would accept
        for length in (op.dim - 1, op.dim + 1, 2 * op.dim):
            with pytest.raises(ValueError, match="N\\*M"):
                op.apply_loaded(np.ones(length, dtype=complex))

    def test_momentum_tracks_loading_scale(self):
        op, *_ = self._setup(0.5)
        op.lambda_max = 10.0
        assert np.isclose(op.momentum, 0.5 * 2.0 * 10.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            self._setup(1.5)

    @pytest.mark.parametrize("rho", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be nonnegative and finite"):
            self._setup(0.5, rho=rho)


class TestEstimateLambdaMax:
    def test_identity_operator(self):
        est = estimate_lambda_max(lambda v: v, 6)
        assert np.isclose(est.value, 1.05, rtol=1e-6)

    def test_known_diagonal_spectrum(self):
        diag = np.array([1.0, 2.0, 3.0])
        est = estimate_lambda_max(lambda v: diag * v, 3)
        assert np.isclose(est.value, 3.0 * 1.05, rtol=1e-5)

    def test_random_hermitian_psd_against_dense_solver(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mat = a @ a.conj().T
        est = estimate_lambda_max(lambda v: mat @ v, 8)
        top = np.linalg.eigvalsh(mat)[-1]
        assert abs(est.value / 1.05 - top) <= 1e-6 * top

    def test_negative_dominant_spectrum_recovers_signed_top(self):
        diag = np.array([-5.0, 1.0, 0.5])
        est = estimate_lambda_max(lambda v: diag * v, 3)
        assert np.isclose(est.value, 1.0 * 1.05, rtol=1e-4)

    def test_all_negative_spectrum_margin_moves_up(self):
        diag = np.array([-5.0, -2.0])
        est = estimate_lambda_max(lambda v: diag * v, 2)
        assert abs(est.value - (-1.9)) <= 1e-12

    @staticmethod
    def desk_operator(gamma):
        ctx = TestBinBlocks.context(2, 16, 8, 4)
        bp = BeampatternOperator(ctx, DesiredBeampattern.delta(ctx.grid, 4, 2))
        sidelobe = WislOperator(WislProfile.uniform(16))
        return CombinedOperator(bp, sidelobe, init_waveform(16, 2, seed=216), gamma, 2.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("lattice", ["setup", "desk"])
    def test_value_is_dense_top_eigenvalue_with_margin(self, lattice, gamma):
        if lattice == "setup":
            op = TestCombinedOperator()._setup(gamma)[0]
        else:
            op = self.desk_operator(gamma)
        top = float(np.linalg.eigvalsh(dense_operator(op))[-1])
        est = estimate_lambda_max(op.apply, op.dim)
        expected = top + 0.05 * abs(top)
        assert abs(est.value - expected) <= 1e-12 * abs(expected)

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            estimate_lambda_max(lambda v: v, 0)

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    def test_dimension_takes_integers(self, bad):
        with pytest.raises(ValueError, match="^dim must be an integer"):
            estimate_lambda_max(lambda v: v, bad)
