import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOT_INTEGERS, cross_correlation, isl
from nfwave.correlation import DB_FLOOR, correlation_level_db, correlation_matrix, wisl
from nfwave.model import WaveformMatrix, WislProfile
from nfwave.solver import init_waveform


def brute_correlation(x, m, mp, k):
    """Independent scalar-loop oracle."""
    n = x.shape[0]
    if k < 0:
        return np.conj(brute_correlation(x, mp, m, -k))
    return sum(x[l, m] * np.conj(x[l + k, mp]) for l in range(n - k))


def brute_wisl(x, weights):
    n, m = x.shape
    total = 0.0
    for a in range(m):
        for b in range(m):
            for k in range(-n + 1, n):
                if a == b and k == 0:
                    continue
                total += weights[k + n - 1] ** 2 * abs(brute_correlation(x, a, b, k)) ** 2
    return total


class TestCrossCorrelation:
    def test_zero_lag_autocorrelation_is_code_length(self):
        x = init_waveform(8, 2, seed=1)
        for m in range(2):
            assert np.isclose(cross_correlation(x, m, m, 0), 8.0, rtol=1e-12)

    def test_hand_value_single_term(self):
        x = WaveformMatrix(np.ones((2, 1), dtype=complex))
        assert np.isclose(cross_correlation(x, 0, 0, 1), 1.0)

    def test_hermitian_pair_symmetry_exact(self):
        x = init_waveform(6, 3, seed=3)
        for m in range(3):
            for mp in range(3):
                for k in range(-5, 6):
                    lhs = cross_correlation(x, m, mp, -k)
                    rhs = np.conj(cross_correlation(x, mp, m, k))
                    if m == mp and k == 0:
                        # value vs its own conjugate: real up to rounding
                        assert np.isclose(lhs, rhs, rtol=0, atol=1e-12)
                    else:
                        assert lhs == rhs

    def test_rejects_out_of_range_lag(self):
        x = init_waveform(4, 1, seed=0)
        with pytest.raises(ValueError):
            cross_correlation(x, 0, 0, 4)
        with pytest.raises(IndexError):
            cross_correlation(x, 0, 1, 0)

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("name", ["m", "m_prime", "lag"])
    def test_indices_and_lag_take_integers(self, name, bad):
        x = init_waveform(4, 2, seed=0)
        args = dict(m=0, m_prime=1, lag=1)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            cross_correlation(x, **dict(args, **{name: bad}))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matrix_matches_scalar_oracle(self, seed):
        x = init_waveform(5, 2, seed)
        r = correlation_matrix(x)
        for m in range(2):
            for mp in range(2):
                for k in range(-4, 5):
                    assert np.isclose(
                        r[m, mp, k + 4], brute_correlation(x.values, m, mp, k), rtol=1e-12
                    )


    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("m", [1, 3])
    def test_matrix_matches_cross_correlation_edge_sizes(self, n, m):
        x = init_waveform(n, m, seed=10 * n + m)
        r = correlation_matrix(x)
        assert r.shape == (m, m, 2 * n - 1)
        for a in range(m):
            for b in range(m):
                for k in range(-n + 1, n):
                    expected = cross_correlation(x, a, b, k)
                    assert abs(r[a, b, k + n - 1] - expected) <= 1e-12 * n
                    if not (a == b and k == 0):
                        assert r[a, b, n - 1 - k] == np.conj(r[b, a, n - 1 + k])


class TestWisl:
    def test_zero_weights_give_zero(self):
        x = init_waveform(6, 2, seed=0)
        prof = WislProfile(6, np.zeros(11))
        assert wisl(x, prof) == 0.0

    def test_hand_case_single_sequence(self):
        # column [1, 1]: r(1) = r(-1) = 1, so uniform WISL = 2
        x = WaveformMatrix(np.ones((2, 1), dtype=complex))
        assert np.isclose(wisl(x, WislProfile.uniform(2)), 2.0)

    def test_identical_columns_cross_zero_lag(self):
        # identical columns make the k=0 cross terms contribute N^2 each way
        x = WaveformMatrix(np.ones((2, 2), dtype=complex))
        total = wisl(x, WislProfile.uniform(2))
        # per column sidelobes: 2 * 2 = 4 (auto, both lags)
        # cross terms (m != m'): lags -1, 0, 1 -> 1 + 4 + 1 = 6, twice (pairs ordered)
        assert np.isclose(total, 4.0 + 12.0)
        r = correlation_matrix(x)
        assert np.isclose(abs(r[0, 1, 1]) ** 2, 4.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = init_waveform(5, 2, seed)
        w = rng.uniform(0.0, 2.0, size=9)
        prof = WislProfile(5, w)
        assert np.isclose(wisl(x, prof), brute_wisl(x.values, w), rtol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), phase=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_global_phase(self, seed, phase):
        x = init_waveform(6, 2, seed)
        rotated = WaveformMatrix(np.exp(1j * phase) * x.values)
        prof = WislProfile.uniform(6)
        assert np.isclose(wisl(x, prof), wisl(rotated, prof), rtol=1e-10)

    def test_uniform_weights_equal_isl(self):
        x = init_waveform(7, 3, seed=5)
        assert np.isclose(wisl(x, WislProfile.uniform(7)), isl(x), rtol=1e-12)

    def test_rejects_code_length_mismatch(self):
        with pytest.raises(ValueError, match="code length"):
            wisl(init_waveform(6, 2, seed=1), WislProfile.uniform(5))


class TestCorrelationLevelDb:
    def test_mainlobe_reference_is_zero_db(self):
        x = init_waveform(8, 2, seed=2)
        level = correlation_level_db(x)
        for m in range(2):
            assert np.isclose(level[m, m, 7], 0.0, atol=1e-12)

    def test_exact_zero_clamps_to_floor(self):
        # orthogonal constant columns: cross-correlation at lag 0 cancels
        x = WaveformMatrix(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
        level = correlation_level_db(x)
        assert level[0, 1, 1] == DB_FLOOR

    def test_hand_value_minus_six_db(self):
        x = WaveformMatrix(np.ones((2, 1), dtype=complex))
        level = correlation_level_db(x)
        assert np.isclose(level[0, 0, 2], 20 * np.log10(0.5), atol=1e-6)
        assert np.isclose(level[0, 0, 2], -6.0206, atol=1e-4)
