import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BENCH_WORKLOADS,
    NOT_INTEGERS,
    ROOT,
    alpha_beampattern,
    contrast_cap,
    element_exact_distance,
    element_fresnel_distance,
)
from nfwave.cli import config_from_dict
from nfwave.model import SPEED_OF_LIGHT, ArrayConfig, WaveformMatrix, build_grid
from nfwave.nearfield import (
    beampattern_grid,
    build_steering_context,
    contrast,
    dft_matrix,
    dft_vector,
    exact_distance,
    fraunhofer_distance,
    fresnel_bound,
    fresnel_distance,
    fresnel_phase_error,
    steering_gram,
    steering_vector,
)
from nfwave.solver import init_waveform


def line(m, d):
    """An ``m``-element array at spacing ``d``; index a distance by ``[..., m - 1]`` for element ``m``."""
    return ArrayConfig(m, 1, 1.0e9, 2.0e8, spacing=d)


class TestDistances:
    def test_first_element_sits_at_origin(self):
        for theta in (-1.0, -0.3, 0.0, 0.8):
            assert exact_distance(2.5, theta, line(1, 0.4))[0] == 2.5
            assert fresnel_distance(2.5, theta, line(1, 0.4))[0] == 2.5

    def test_hand_value(self):
        # sqrt(1 + 0.25 - 0) for p=1, theta=0, d=0.5, m=2
        distance = exact_distance(1.0, 0.0, line(2, 0.5))[1]
        assert np.isclose(distance, np.sqrt(1.25), rtol=0, atol=1e-12)
        assert np.isclose(distance, 1.118034, atol=1e-6)

    def test_fresnel_endpoint_angles(self):
        # theta = +-1 kills the curvature term
        assert np.isclose(fresnel_distance(3.0, 1.0, line(3, 0.5))[2], 3.0 - 1.0)
        assert np.isclose(fresnel_distance(3.0, -1.0, line(3, 0.5))[2], 3.0 + 1.0)

    def test_fresnel_matches_exact_within_second_order_remainder(self):
        p, theta, d, m = 10.0, 0.5, 0.5, 3
        err = abs(fresnel_distance(p, theta, line(m, d))[m - 1] - exact_distance(p, theta, line(m, d))[m - 1])
        aperture = (m - 1) * d
        assert err <= aperture**2 * d / p**2

    def test_far_range_approaches_linear_law(self):
        # exact -> p - (m-1) d theta + O(1/p)
        d, m, theta = 0.5, 4, 0.3
        for p in (1e3, 1e4, 1e5):
            linear = p - (m - 1) * d * theta
            assert abs(exact_distance(p, theta, line(m, d))[m - 1] - linear) <= 2.0 / p

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            exact_distance(0.0, 0.0, line(1, 0.5))
        with pytest.raises(ValueError):
            exact_distance(1.0, 1.5, line(1, 0.5))
        with pytest.raises(ValueError):
            fresnel_distance(0.0, 0.0, line(2, 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("distance", [exact_distance, fresnel_distance])
    def test_rejects_non_finite_inputs(self, distance, bad):
        with pytest.raises(ValueError, match="range must be positive and finite"):
            distance(bad, 0.1, line(2, 0.1))
        with pytest.raises(ValueError, match="sin_angle"):
            distance(1.0, bad, line(2, 0.1))

    @given(
        p=st.floats(0.05, 100.0),
        theta=st.floats(-1.0, 1.0),
        m=st.integers(1, 8),
        d=st.floats(0.01, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_distance_radicand_never_negative_for_valid_angles(self, p, theta, m, d):
        assert (exact_distance(p, theta, line(m, d)) >= 0.0).all()

    @pytest.mark.parametrize(
        "p, m, d",
        [
            (4.688065876682725, 8, 0.6697236966689607),  # the target sits on element 8
            (1.16477559045343, 6, 0.23295511809068595),  # one ulp past element 6
            (3.076167083624078, 7, 0.5126945139373464),  # one ulp short of element 7
        ],
    )
    def test_exact_distance_on_the_array_axis(self, p, m, d):
        # the law of cosines r^2 + o^2 - 2 r o rounds below zero at these targets
        assert exact_distance(p, 1.0, line(m, d))[m - 1] == abs(p - (m - 1) * d)
        assert exact_distance(p, -1.0, line(m, d))[m - 1] == pytest.approx(p + (m - 1) * d, rel=1e-15)

    @pytest.mark.parametrize("distance", [exact_distance, fresnel_distance])
    @pytest.mark.parametrize(
        "range_, sin_angle",
        [(0.5, -0.2), (np.array([0.5, 2.0]), 0.3), (np.array([[0.5], [2.0]]), np.linspace(-1, 1, 3))],
    )
    def test_broadcasts_with_the_antenna_axis_last(self, distance, range_, sin_angle):
        cfg = ArrayConfig(5, 8, 1.0e9, 2.0e8)
        got = distance(range_, sin_angle, cfg)
        assert got.shape == np.broadcast(range_, sin_angle).shape + (5,)
        for index in np.ndindex(got.shape[:-1]):
            p, s = (np.broadcast_to(v, got.shape[:-1])[index] for v in (range_, sin_angle))
            assert np.array_equal(got[index], distance(p, s, cfg))

    @pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
    def test_lattice_equals_the_element_oracles(self, name):
        cfg = config_from_dict(BENCH_WORKLOADS[name].config(303, "out"))
        grid, array = cfg.grid(), cfg.array
        exact = exact_distance(grid.ranges[None, :], grid.theta[:, None], array)
        fresnel = fresnel_distance(grid.ranges[None, :], grid.theta[:, None], array)
        for (i, j, m), got in np.ndenumerate(exact):
            args = (float(grid.ranges[j]), float(grid.theta[i]), m + 1, array.spacing)
            want = element_exact_distance(*args)
            assert abs(got - want) <= np.spacing(want)  # np.hypot and math.hypot may differ by 1 ulp
            assert fresnel[i, j, m] == element_fresnel_distance(*args)


class TestSteeringVector:
    CFG = ArrayConfig(4, 8, 1.0e9, 2.0e8)

    def test_first_element_carries_only_range_phase(self):
        k = self.CFG.carrier_freq_hz / SPEED_OF_LIGHT
        for p, theta in [(0.3, 0.2), (1.0, -0.7)]:
            a = steering_vector(p, theta, self.CFG)
            expected = np.exp(-2j * np.pi * k * p) / np.sqrt(4)
            assert np.isclose(a[0], expected, atol=1e-14)

    def test_entry_modulus(self):
        a = steering_vector(0.4, 0.31, self.CFG)
        assert np.allclose(np.abs(a), 1 / np.sqrt(4), atol=1e-13)

    def test_far_field_limit(self):
        k = self.CFG.carrier_freq_hz / SPEED_OF_LIGHT
        d = self.CFG.spacing
        theta = 0.42
        ms = np.arange(4)
        far = np.exp(2j * np.pi * k * ms * d * theta)
        for p in (1e2, 1e4):
            a = steering_vector(p, theta, self.CFG)
            tilt = a / a[0]  # strip the common range phase
            bound = 2 * np.pi * k * (3 * d) ** 2 / (2 * p)
            assert np.abs(tilt - far).max() <= bound + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            steering_vector(0.0, 0.1, self.CFG)
        with pytest.raises(ValueError):
            steering_vector(1.0, 1.2, self.CFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, bad):
        with pytest.raises(ValueError, match="range must be positive and finite"):
            steering_vector(bad, 0.1, self.CFG)
        with pytest.raises(ValueError, match="sin_angle"):
            steering_vector(1.0, bad, self.CFG)
        # one bad entry among valid ones
        with pytest.raises(ValueError, match="range must be positive and finite"):
            steering_vector(np.array([0.5, bad]), 0.1, self.CFG)
        with pytest.raises(ValueError, match="sin_angle"):
            steering_vector(1.0, np.array([0.2, bad]), self.CFG)


class TestSteeringContext:
    def test_fraunhofer_hand_value(self):
        # 4 elements at half-wavelength spacing: F = 2 (1.5 lambda)^2 / lambda = 4.5 lambda
        cfg = ArrayConfig(4, 8, 1.0e9, 2.0e8, spacing=None)
        lam = cfg.wavelength
        cfg_half = ArrayConfig(4, 8, 1.0e9, 2.0e8, spacing=lam / 2)
        assert np.isclose(fraunhofer_distance(cfg_half), 4.5 * lam)

    def test_single_element_has_zero_fraunhofer(self):
        assert fraunhofer_distance(ArrayConfig(1, 8, 1.0e9, 2.0e8)) == 0.0

    def test_zero_bin_equals_conjugate_steering_vector(self):
        cfg = ArrayConfig(3, 4, 1.0e9, 2.0e8)
        grid = build_grid(2, 2, 4)
        ctx = build_steering_context(cfg, grid)
        for i, theta in enumerate(grid.theta):
            for j, p in enumerate(grid.ranges):
                expected = np.conj(steering_vector(p, theta, cfg))
                assert np.allclose(ctx.alpha[i, j, 0], expected, atol=1e-14)

    @pytest.mark.parametrize(
        "cfg, shape",
        [
            (ArrayConfig(2, 16, 1.0e9, 2.0e8), (8, 4)),
            (ArrayConfig(8, 32, 1.0e9, 2.0e8), (40, 20)),
            (ArrayConfig(3, 4, 1.0e9, 2.0e8, spacing=0.07), (5, 3)),
            (ArrayConfig(1, 2, 1.0e9, 2.0e8), (1, 1)),
        ],
    )
    def test_base_matches_steering_vector_every_cell(self, cfg, shape):
        grid = build_grid(*shape, cfg.code_length)
        ctx = build_steering_context(cfg, grid)
        assert ctx.base.shape == (*shape, cfg.num_antennas)
        for i, theta in enumerate(grid.theta):
            for j, p in enumerate(grid.ranges):
                expected = np.conj(steering_vector(p, theta, cfg))
                assert np.abs(ctx.base[i, j] - expected).max() <= 1e-12

    def test_entries_have_modulus_inverse_sqrt_m(self):
        cfg = ArrayConfig(4, 8, 1.0e9, 2.0e8)
        ctx = build_steering_context(cfg, build_grid(3, 2, 8))
        assert np.allclose(np.abs(ctx.alpha), 0.5, atol=1e-12)

    def test_bin_phase_factor_never_changes_projection_modulus(self):
        cfg = ArrayConfig(3, 8, 1.0e9, 2.0e8)
        grid = build_grid(2, 2, 8)
        ctx = build_steering_context(cfg, grid)
        x = init_waveform(8, 3, seed=5)
        spec = np.fft.fft(x.values, axis=0)
        base = np.conj(steering_vector(grid.ranges[1], grid.theta[0], cfg))
        for u in range(8):
            with_factor = abs(np.vdot(ctx.alpha[0, 1, u], spec[u]))
            without = abs(np.vdot(base, spec[u]))
            assert np.isclose(with_factor, without, rtol=1e-12)

    def test_rejects_bin_count_mismatch(self):
        cfg = ArrayConfig(3, 8, 1.0e9, 2.0e8)
        with pytest.raises(ValueError):
            build_steering_context(cfg, build_grid(2, 2, 4))

    def test_build_stores_no_per_bin_lattice(self):
        # M8 N256 40x20: a (K1, K2, N, M) complex array would be 26 MB, base is 0.1 MB
        cfg = ArrayConfig(8, 256, 1.0e9, 2.0e8)
        grid = build_grid(40, 20, 256)
        tracemalloc.start()
        try:
            ctx = build_steering_context(cfg, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ctx.base.shape == (40, 20, 8)
        assert peak < 1 << 20



class TestDftSpectrum:
    """The DFT stage inside ``beampattern_grid``: row u of the spectrum is ``X^T f_u``.

    With M = 1 the steering entry has modulus 1, so every cell of bin u reads ``|x^T f_u|^2``.
    """

    @staticmethod
    def single_antenna_pattern(col):
        n = len(col)
        ctx = build_steering_context(ArrayConfig(1, n, 1.0e9, 2.0e8), build_grid(2, 2, n))
        return beampattern_grid(WaveformMatrix(np.asarray(col)[:, None]), ctx)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256])
    def test_dft_matrix_matches_fft(self, n):
        f = dft_matrix(n)
        assert np.abs(f - np.fft.fft(np.eye(n))).max() <= 1e-12 * n
        # the gathered roots are the bits of the direct mod-N formula
        index = np.arange(n)
        assert np.array_equal(f, np.exp(-2j * np.pi * (np.outer(index, index) % n) / n))

    @pytest.mark.parametrize("n", [1, 7, 64, 256])
    def test_dft_vector_is_a_row_of_dft_matrix(self, n):
        f = dft_matrix(n)
        for u in (-3, 0, 1, n - 1, n, 2 * n + 5):
            assert np.array_equal(dft_vector(n, u), f[u % n]), u

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    def test_dft_vector_takes_integers(self, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            dft_vector(bad, 1)
        with pytest.raises(ValueError, match="u must be an integer"):
            dft_vector(4, bad)

    @pytest.mark.parametrize(
        "bad, message",
        [(v, "n must be an integer") for v in NOT_INTEGERS]
        + [(0, "n must be >= 1"), (-2, "n must be >= 1")],
        ids=repr,
    )
    def test_dft_matrix_size_is_a_size(self, bad, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            dft_matrix(bad)

    def test_dft_vector_length_is_a_size(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            dft_vector(0, 0)
        assert np.array_equal(dft_vector(np.int64(4), np.int64(3)), dft_vector(4, 3))

    def test_constant_column_concentrates_at_dc(self):
        pattern = self.single_antenna_pattern(np.ones(8, dtype=complex))
        assert np.allclose(pattern[:, :, 0], 64.0, rtol=1e-12)
        assert np.allclose(pattern[:, :, 1:], 0.0, atol=1e-12)

    def test_pure_tone_hits_single_bin(self):
        n, v = 8, 3
        col = np.exp(2j * np.pi * np.arange(n) * v / n)
        pattern = self.single_antenna_pattern(col)
        expected = np.zeros(n)
        expected[v] = n**2
        assert np.allclose(pattern, expected, atol=1e-10)

    def test_matches_explicit_analysis_vectors(self):
        cfg = ArrayConfig(3, 8, 1.0e9, 2.0e8)
        ctx = build_steering_context(cfg, build_grid(2, 2, 8))
        x = init_waveform(8, 3, seed=11)
        pattern = beampattern_grid(x, ctx)
        for u in range(8):
            spec = x.values.T @ dft_vector(8, u)
            for k1 in range(2):
                for k2 in range(2):
                    power = abs(np.vdot(ctx.alpha[k1, k2, u], spec)) ** 2
                    assert np.isclose(pattern[k1, k2, u], power, rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval_for_unimodular_columns(self, seed):
        x = init_waveform(16, 2, seed)
        cfg = ArrayConfig(2, 16, 1.0e9, 2.0e8)
        ctx = build_steering_context(cfg, build_grid(3, 2, 16))
        pattern = beampattern_grid(x, ctx)
        # per cell, the bins of |DFT(y)|^2 sum to N ||y||^2 with y = X conj(base)
        for k1 in range(3):
            for k2 in range(2):
                y = x.values @ np.conj(ctx.base[k1, k2])
                assert np.isclose(pattern[k1, k2].sum(), 16 * np.vdot(y, y).real, rtol=1e-10)
        # one unimodular column carries N^2 over the bins
        for m in range(2):
            single = self.single_antenna_pattern(x.values[:, m])
            assert np.allclose(single.sum(axis=-1), 16.0**2, rtol=1e-10)

class TestBeampattern:
    def setup_method(self):
        self.cfg = ArrayConfig(2, 2, 1.0e9, 2.0e8)
        self.grid = build_grid(2, 2, 2)
        self.ctx = build_steering_context(self.cfg, self.grid)

    def test_nonnegative(self):
        x = init_waveform(2, 2, seed=0)
        assert (beampattern_grid(x, self.ctx) >= 0.0).all()

    def test_single_antenna_reduces_to_spectrum_power(self):
        # M = 1: every cell of bin u sees |x^T f_u|^2 with the analysis vector f_u
        cfg = ArrayConfig(1, 8, 1.0e9, 2.0e8)
        ctx = build_steering_context(cfg, build_grid(2, 2, 8))
        x = init_waveform(8, 1, seed=2)
        pattern = beampattern_grid(x, ctx)
        for u in range(8):
            power = abs(x.values[:, 0] @ dft_vector(8, u)) ** 2
            assert np.allclose(pattern[:, :, u], power, rtol=1e-12, atol=1e-10)

    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = WaveformMatrix(np.exp(2j * np.pi * rng.random((2, 2))))
            k1, k2, u = rng.integers(0, 2, size=3)
            pattern = beampattern_grid(x, self.ctx)
            a = self.ctx.alpha[k1, k2, u]
            acc = 0.0 + 0.0j
            for m in range(2):
                for n in range(2):
                    acc += np.conj(a[m]) * x.values[n, m] * np.exp(-2j * np.pi * n * u / 2)
            assert np.isclose(pattern[k1, k2, u], abs(acc) ** 2, rtol=1e-12)

    def test_grid_agrees_with_point_everywhere(self):
        # point oracle from steering_vector and dft_vector alone, without the context
        cfg = ArrayConfig(3, 8, 1.0e9, 2.0e8)
        grid = build_grid(4, 3, 8)
        x = init_waveform(8, 3, seed=9)
        pattern = beampattern_grid(x, build_steering_context(cfg, grid))
        assert pattern.shape == (4, 3, 8)
        for k1, theta in enumerate(grid.theta):
            for k2, p in enumerate(grid.ranges):
                a = steering_vector(p, theta, cfg)
                for u in range(8):
                    point = abs(a @ (x.values.T @ dft_vector(8, u))) ** 2
                    assert np.isclose(pattern[k1, k2, u], point, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "cfg, shape",
        [
            (ArrayConfig(2, 16, 1.0e9, 2.0e8), (8, 4)),  # desk
            (ArrayConfig(4, 64, 1.0e9, 2.0e8), (20, 10)),  # default
            (ArrayConfig(8, 32, 1.0e9, 2.0e8), (40, 20)),  # match
            (ArrayConfig(1, 8, 1.0e9, 2.0e8), (4, 2)),
            (ArrayConfig(3, 4, 1.0e9, 2.0e8, spacing=0.07), (5, 3)),
        ],
    )
    def test_grid_matches_alpha_oracle(self, cfg, shape):
        n = cfg.code_length
        ctx = build_steering_context(cfg, build_grid(*shape, n))
        x = init_waveform(n, cfg.num_antennas, seed=n)
        pattern = beampattern_grid(x, ctx)
        oracle = alpha_beampattern(x.values, ctx)
        assert pattern.shape == (*shape, n)
        assert np.abs(pattern - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_global_phase_invariance_of_grid_sum(self):
        cfg = ArrayConfig(2, 8, 1.0e9, 2.0e8)
        ctx = build_steering_context(cfg, build_grid(3, 2, 8))
        x = init_waveform(8, 2, seed=4)
        rotated = WaveformMatrix(np.exp(1j * 0.7) * x.values)
        p1 = beampattern_grid(x, ctx)
        p2 = beampattern_grid(rotated, ctx)
        assert np.isclose(p1.sum(), p2.sum(), rtol=1e-12)
        assert np.allclose(p1, p2, rtol=1e-9, atol=1e-9)


class TestFresnelAccuracySweep:
    def test_fresnel_close_to_exact_beyond_ten_apertures(self):
        cfg = ArrayConfig(4, 8, 1.0e9, 2.0e8)
        p = np.linspace(10 * cfg.aperture, 40 * cfg.aperture, 7)[:, None]
        theta = np.linspace(-1, 1, 9)
        err = np.abs(fresnel_distance(p, theta, cfg) - exact_distance(p, theta, cfg))
        assert err.max() <= 1e-2 * cfg.spacing


class TestFresnelBound:
    """README's Fresnel bound ``0.62 sqrt((2D)^3 / lambda)``, for an expansion about element 1 at one end."""

    ARRAYS = [(2, 1), (3, 1), (4, 1), (8, 1), (16, 77), (32, 140), (32, 300)]  # (M, carrier in GHz)

    @staticmethod
    def worst_phase_error(cfg, bound):
        """Largest ``2 pi / lambda |exact - fresnel|`` over elements, ranges in [b, 1.5 b], sines in [-1, 1]."""
        ranges = np.linspace(bound, 1.5 * bound, 6)[:, None]
        return fresnel_phase_error(ranges, np.linspace(-1.0, 1.0, 21), cfg).max()

    @pytest.mark.parametrize("m, ghz", ARRAYS)
    def test_phase_error_below_pi_over_6_beyond_the_2d_bound(self, m, ghz):
        cfg = ArrayConfig(m, 8, ghz * 1.0e9, 2.0e8)
        assert self.worst_phase_error(cfg, fresnel_bound(cfg)) < np.pi / 6  # 0.41-0.51 rad, worst at M2

    @pytest.mark.parametrize("m, ghz", ARRAYS)
    def test_phase_error_above_3_rad_just_beyond_the_textbook_bound(self, m, ghz):
        cfg = ArrayConfig(m, 8, ghz * 1.0e9, 2.0e8)
        textbook = fresnel_bound(cfg) / 8**0.5  # 0.62 sqrt(D^3 / lambda), since (2D)^3 = 8 D^3
        assert self.worst_phase_error(cfg, textbook) > 3.0  # 3.3-4.7 rad


class TestRegimeTable:
    """README's steering regime of each workload, from one array call over its lattice."""

    README = (ROOT / "README.md").read_text(encoding="utf-8")

    @staticmethod
    def half_unit(printed):
        """Half a unit in the last printed digit of ``printed``."""
        return 0.5 * 10.0 ** -len(printed.partition(".")[2])

    @pytest.mark.parametrize(
        "name, fraunhofer, phase, near",
        [("desk", "0.124", "0.19", 0), ("default", "1.115", "12.9", 10), ("match", "6.07", "172", 20)],
    )
    def test_readme_prints_each_workload_regime(self, name, fraunhofer, phase, near):
        cfg = config_from_dict(BENCH_WORKLOADS[name].config(303, "out"))
        grid, array = cfg.grid(), cfg.array
        error = fresnel_phase_error(grid.ranges[None, :], grid.theta[:, None], array)
        far = fraunhofer_distance(array)
        assert abs(error.max() - float(phase)) <= self.half_unit(phase)
        assert abs(far - float(fraunhofer)) <= self.half_unit(fraunhofer)
        assert np.count_nonzero(grid.ranges < far) == near
        assert f"| {fraunhofer} m | {phase} rad | {near} of {grid.num_ranges} |" in self.README


class TestContrastCap:
    """README's contrast cap on the desk lattice (M2 N16 8x4, target (3, 1))."""

    CFG = ArrayConfig(2, 16, 1.0e9, 2.0e8)
    TARGET = (3, 1)

    @pytest.fixture(scope="class")
    def desk_ctx(self):
        return build_steering_context(self.CFG, build_grid(8, 4, 16))

    def test_gram_is_bin_independent_with_trace_k1k2(self, desk_ctx):
        s0 = steering_gram(desk_ctx)
        assert np.isclose(np.trace(s0), 32.0, rtol=0, atol=1e-12)
        for u in range(16):
            cells = desk_ctx.alpha[:, :, u, :].reshape(-1, 2)  # the Gram of bin u, with its phase
            assert np.allclose(cells.T @ cells.conj(), s0, rtol=0, atol=1e-12)

    def test_desk_eigenvalues_and_cap(self, desk_ctx):
        eig = np.linalg.eigvalsh(steering_gram(desk_ctx))
        assert np.allclose(eig, [12.378, 19.622], rtol=0, atol=1e-3)
        assert np.isclose(contrast_cap(desk_ctx, *self.TARGET), 2.7246, rtol=0, atol=1e-4)

    def test_random_unimodular_waveforms_stay_below_cap(self, desk_ctx):
        cap = contrast_cap(desk_ctx, *self.TARGET)
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = WaveformMatrix(np.exp(2j * np.pi * rng.random((16, 2))))
            assert contrast(beampattern_grid(x, desk_ctx), *self.TARGET) <= cap

    def test_best_spectrum_reaches_exact_cap_below_bound(self, desk_ctx):
        # The bound needs no unimodularity: the spectrum that maximizes the
        # contrast in every bin, v = (S - a_t a_t^H)^{-1} a_t, reaches the exact
        # cap (K1 K2 - 1) a_t^H (S - a_t a_t^H)^{-1} a_t = 2.668 <= 2.7246.
        a_t = desk_ctx.alpha[self.TARGET][0]
        rest = steering_gram(desk_ctx) - np.outer(a_t, a_t.conj())
        v = np.linalg.solve(rest, a_t)
        exact = 31 * float(np.real(np.vdot(a_t, v)))
        pattern = np.abs(np.einsum("klum,m->klu", desk_ctx.alpha.conj(), v)) ** 2
        assert np.isclose(contrast(pattern, *self.TARGET), exact, rtol=1e-10)
        assert np.isclose(exact, 2.668, rtol=0, atol=1e-3)
        assert exact <= contrast_cap(desk_ctx, *self.TARGET)

    def test_single_cell_lattice_has_no_cap(self):
        ctx = build_steering_context(ArrayConfig(2, 4, 1.0e9, 2.0e8), build_grid(1, 1, 4))
        assert contrast_cap(ctx, 0, 0) == np.inf

    def test_rejects_cell_outside_lattice(self, desk_ctx):
        with pytest.raises(IndexError):
            contrast_cap(desk_ctx, 8, 0)
        with pytest.raises(IndexError):
            contrast_cap(desk_ctx, 0, -1)
