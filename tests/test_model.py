import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commutation_dense, half_bin_harmonics, toeplitz_weights
from nfwave.model import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    DesiredBeampattern,
    WaveformMatrix,
    WislProfile,
    build_grid,
    unvec,
    vec,
)


class TestBuildGrid:
    def test_two_angle_nodes_hit_broadside_and_endfire(self):
        grid = build_grid(2, 1, 1)
        assert np.allclose(grid.phi, [0.0, np.pi / 2])
        assert np.allclose(grid.theta, [0.0, 1.0])

    def test_ten_range_nodes_are_tenths(self):
        grid = build_grid(1, 10, 1)
        assert np.allclose(grid.ranges, np.arange(1, 11) / 10.0)
        assert grid.ranges.min() > 0

    def test_twenty_angle_nodes_span_half_circle(self):
        grid = build_grid(20, 1, 1)
        assert grid.phi.shape == (20,)
        assert grid.phi[0] > -np.pi / 2
        assert np.isclose(grid.phi[-1], np.pi / 2)

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_zero_sizes(self, bad):
        with pytest.raises(ValueError):
            build_grid(*bad)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("value", [8.0, 2.5, True, np.float64(4.0), "4", None])
    def test_rejects_non_integer_sizes(self, position, value):
        sizes = [8, 4, 16]
        sizes[position] = value
        name = ("num_angles", "num_ranges", "num_bins")[position]
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build_grid(*sizes)

    def test_accepts_numpy_integer_sizes_as_python_ints(self):
        grid = build_grid(np.int64(8), np.int32(4), np.uint8(16))
        sizes = (grid.num_angles, grid.num_ranges, grid.num_bins)
        assert sizes == (8, 4, 16) and all(type(size) is int for size in sizes)

    @given(k1=st.integers(1, 40), k2=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_nodes_strictly_increasing(self, k1, k2):
        grid = build_grid(k1, k2, 2)
        assert np.all(np.diff(grid.phi) > 0) if k1 > 1 else True
        assert np.all(np.diff(grid.theta) > 0) if k1 > 1 else True
        assert np.all(np.diff(grid.ranges) > 0) if k2 > 1 else True


class TestWislProfile:
    """``weight`` lookups, and the Toeplitz weights and harmonics of the kernel oracle."""

    def test_uniform_weights_give_all_ones_matrix(self):
        prof = WislProfile(4, np.ones(2 * 4 - 1))
        assert np.array_equal(toeplitz_weights(prof), np.ones((4, 4)))

    def test_zero_lag_only_gives_identity(self):
        w = np.zeros(2 * 4 - 1)
        w[4 - 1] = 1.0
        prof = WislProfile(4, w)
        assert np.array_equal(toeplitz_weights(prof), np.eye(4))

    def test_harmonics_hand_values_n2(self):
        h = half_bin_harmonics(2)
        assert np.allclose(h[0], [1.0, 1.0])
        assert np.allclose(h[2], [1.0, -1.0])

    @pytest.mark.parametrize("n, count", [(4, 8), (3, 4)])
    def test_rejects_wrong_weight_count(self, n, count):
        with pytest.raises(ValueError, match=f"need {2 * n - 1} lag weights, got {count}"):
            WislProfile(n, np.ones(count))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, entry):
        w = np.ones(2 * 8 - 1)
        w[3] = entry
        with pytest.raises(ValueError, match="lag weights must be finite"):
            WislProfile(8, w)

    def test_harmonics_unit_modulus(self):
        assert np.allclose(np.abs(half_bin_harmonics(5)), 1.0, atol=1e-14)

    @pytest.mark.parametrize(
        "code_length, count", [(2.5, 4), (True, 1), (np.float64(3.0), 5), ("3", 5), (None, 1)]
    )
    def test_rejects_non_integer_code_length(self, code_length, count):
        # 2 * 2.5 - 1 == 4 and 2 * True - 1 == 1: the weight count alone lets both through
        with pytest.raises(ValueError, match="code_length must be an integer"):
            WislProfile(code_length, np.ones(count))
        with pytest.raises(ValueError, match="code_length must be an integer"):
            WislProfile.uniform(code_length)

    def test_stores_numpy_integer_code_length_as_int(self):
        for prof in (WislProfile(np.int64(3), np.ones(5)), WislProfile.uniform(np.int32(3))):
            assert prof.code_length == 3 and type(prof.code_length) is int

    @pytest.mark.parametrize("code_length", [0, -2])
    def test_uniform_rejects_code_length_below_one_by_name(self, code_length):
        with pytest.raises(ValueError, match="code_length must be >= 1"):
            WislProfile.uniform(code_length)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_weight_matrix_reconstruction(self, seed, n):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=2 * n - 1)
        prof = WislProfile(n, w)
        assert prof.weights.tolist() == w.tolist()
        weights = toeplitz_weights(prof)
        for i in range(n):
            for j in range(n):
                assert weights[i, j] == prof.weights[j - i + n - 1]



class TestCommutation:
    """The commutation matrix behind the dense per-cell oracle: vec(V^T) = P vec(V)."""

    def test_scalar_case_is_identity(self):
        assert np.array_equal(commutation_dense(1, 1), [[1.0]])

    def test_two_by_two_hand_case(self):
        # vec([[a, c], [b, d]]) = (a, b, c, d) -> vec of transpose = (a, c, b, d)
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        out = commutation_dense(2, 2) @ np.array([a, b, c, d])
        assert np.array_equal(out, [a, c, b, d])

    def test_double_application_is_identity_exhaustive(self):
        for n in range(1, 9):
            for m in range(1, 9):
                perm = commutation_dense(n, m)
                v = np.arange(n * m, dtype=float)
                assert np.array_equal(commutation_dense(m, n) @ perm @ v, v)
                # a permutation: same multiset of entries
                assert np.array_equal(np.sort(perm @ v), v)
                mat = v.reshape(m, n).T
                assert np.array_equal(perm @ vec(mat), vec(mat.T))

class TestVec:
    def test_vec_stacks_columns(self):
        mat = np.array([[1, 3], [2, 4]])
        assert np.array_equal(vec(mat), [1, 2, 3, 4])
        assert np.array_equal(unvec(vec(mat), 2, 2), mat)

    def test_unvec_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.arange(5), 2, 2)


class TestWaveformMatrix:
    def test_accepts_unit_modulus(self):
        x = WaveformMatrix.from_phases(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert x.num_samples == 2 and x.num_antennas == 2
        assert np.allclose(np.abs(x.values), 1.0)

    def test_rejects_off_circle_entries(self):
        bad = np.ones((2, 2), dtype=complex)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            WaveformMatrix(bad)

    @pytest.mark.parametrize("entry", [np.nan, complex(np.nan, 0.0), np.inf])
    def test_rejects_non_finite_entries(self, entry):
        bad = np.ones((2, 2), dtype=complex)
        bad[1, 0] = entry
        with pytest.raises(ValueError, match="unimodular"):
            WaveformMatrix(bad)

    def test_vec_length_and_roundtrip(self):
        x = WaveformMatrix.from_phases(np.linspace(0, 5, 12).reshape(4, 3))
        assert x.vec().shape == (12,)
        back = WaveformMatrix(unvec(x.vec(), 4, 3))
        assert np.array_equal(back.values, x.values)

    def test_phases_wrapped_to_half_open_interval(self):
        x = WaveformMatrix(np.array([[1.0, -1.0], [1j, -1j]]))
        ph = x.phases()
        assert np.all(ph >= 0) and np.all(ph < 2 * np.pi)

    def test_values_frozen(self):
        x = WaveformMatrix.from_phases(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            x.values[0, 0] = 5.0


class TestArrayConfig:
    def test_default_spacing_is_half_highest_wavelength(self):
        cfg = ArrayConfig(4, 64, 1.0e9, 2.0e8)
        assert np.isclose(cfg.spacing, SPEED_OF_LIGHT / (2 * (1.0e9 + 1.0e8)))

    def test_aperture(self):
        cfg = ArrayConfig(4, 8, 1.0e9, 2.0e8, spacing=0.1)
        assert np.isclose(cfg.aperture, 0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_antennas=0, code_length=8, carrier_freq_hz=1e9, bandwidth_hz=1e8),
            dict(num_antennas=2, code_length=0, carrier_freq_hz=1e9, bandwidth_hz=1e8),
            dict(num_antennas=2, code_length=8, carrier_freq_hz=0.0, bandwidth_hz=1e8),
            dict(num_antennas=2, code_length=8, carrier_freq_hz=1e9, bandwidth_hz=0.0),
            dict(num_antennas=2, code_length=8, carrier_freq_hz=1e9, bandwidth_hz=1e8, spacing=-1.0),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ArrayConfig(**kwargs)

    @pytest.mark.parametrize("field", ["carrier_freq_hz", "bandwidth_hz", "spacing"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, field, value):
        kwargs = dict(num_antennas=2, code_length=8, carrier_freq_hz=1e9, bandwidth_hz=1e8)
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            ArrayConfig(**dict(kwargs, **{field: value}))

    @pytest.mark.parametrize("name", ["num_antennas", "code_length"])
    @pytest.mark.parametrize("value", [2.5, 16.0, True, np.float64(2.0), "2", None])
    def test_rejects_non_integer_sizes(self, name, value):
        kwargs = dict(num_antennas=2, code_length=16, carrier_freq_hz=1e9, bandwidth_hz=2e8)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ArrayConfig(**dict(kwargs, **{name: value}))

    def test_accepts_numpy_integer_sizes_as_python_ints(self):
        cfg = ArrayConfig(np.int64(2), np.int32(16), 1e9, 2e8)
        assert (cfg.num_antennas, cfg.code_length) == (2, 16)
        assert type(cfg.num_antennas) is int and type(cfg.code_length) is int

    def test_rejects_band_whose_default_spacing_underflows(self):
        # finite inputs whose sum overflows give a derived spacing of 0.0
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            ArrayConfig(2, 8, 1.5e308, 1.5e308)


class TestDesiredBeampattern:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DesiredBeampattern(-np.ones((2, 2, 2)))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, entry):
        values = np.ones((2, 2, 2))
        values[1, 0, 1] = entry
        with pytest.raises(ValueError, match="nonnegative and finite"):
            DesiredBeampattern(values)

    def test_delta_places_single_column(self):
        grid = build_grid(3, 2, 4)
        target = DesiredBeampattern.delta(grid, 1, 0, peak=2.5)
        assert target.values.shape == (3, 2, 4)
        assert np.all(target.values[1, 0, :] == 2.5)
        assert target.values.sum() == 2.5 * 4

    @pytest.mark.parametrize("name", ["angle_index", "range_index"])
    @pytest.mark.parametrize("value", [1.5, 1.0, True, np.float64(0.0), "0", None])
    def test_delta_rejects_non_integer_indices(self, name, value):
        # True would index the range axis as a boolean mask and put the peak on every range node
        indices = {"angle_index": 0, "range_index": 0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            DesiredBeampattern.delta(build_grid(4, 3, 2), peak=5.0, **indices)

    def test_delta_accepts_numpy_integer_indices(self):
        grid = build_grid(4, 3, 2)
        target = DesiredBeampattern.delta(grid, np.int64(1), np.uint8(2), peak=5.0)
        expected = np.zeros((4, 3, 2))
        expected[1, 2, :] = 5.0
        assert np.array_equal(target.values, expected)

    def test_delta_rejects_out_of_range_indices(self):
        grid = build_grid(3, 2, 4)
        with pytest.raises(ValueError):
            DesiredBeampattern.delta(grid, 3, 0)
        with pytest.raises(ValueError):
            DesiredBeampattern.delta(grid, 0, 2)
