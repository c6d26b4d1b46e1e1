import re
from dataclasses import replace

import numpy as np
import pytest

import nfwave.correlation as correlation
import nfwave.nearfield as nearfield
import nfwave.objective as objective
import nfwave.solver as solver_module
from conftest import dense_operator, lattice_matching_error, load_script, numpy_start_waveform
from nfwave import wisl
from nfwave.cli import config_from_dict, design_inputs, run_design
from nfwave.model import ArrayConfig, DesiredBeampattern, WislProfile, build_grid
from nfwave.nearfield import beampattern_grid, build_steering_context
from nfwave.objective import BeampatternOperator, CombinedOperator, WislOperator
from nfwave.solver import Problem, SolverConfig, cycle, cypmli, init_waveform, pmli_inner, record


class StubOperator:
    """Fixed linear map with explicit loading and momentum, for inner-loop tests."""

    def __init__(self, matrix, lambda_max, momentum):
        self.matrix = matrix
        self.lambda_max = lambda_max
        self.momentum = momentum
        self.dim = matrix.shape[0]

    def apply(self, v):
        return self.matrix @ v

    def apply_loaded(self, v):
        return self.lambda_max * np.asarray(v) - self.matrix @ v


class FixedDriveStub:
    """Loaded map that returns the same drive for every iterate, with no momentum."""

    momentum = 0.0

    def __init__(self, drive):
        self.drive = drive

    def apply_loaded(self, v):
        return self.drive.copy()


def loaded_psd_stub(dim, seed, momentum):
    """Stub whose loaded operator is a random Hermitian PSD matrix of unit scale."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    psd = a @ a.conj().T
    psd /= np.linalg.norm(psd, 2)
    lam = float(np.linalg.eigvalsh(psd)[-1]) * 1.01
    return StubOperator(lam * np.eye(dim) - psd, lam, momentum), psd, lam


class TestInitWaveform:
    def test_unimodularity_tight(self):
        x = init_waveform(16, 3, seed=7)
        assert np.abs(np.abs(x.values) - 1.0).max() <= 1e-15

    def test_same_seed_reproduces(self):
        a = init_waveform(8, 2, seed=7)
        b = init_waveform(8, 2, seed=7)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = init_waveform(8, 2, seed=7)
        b = init_waveform(8, 2, seed=8)
        assert np.any(a.values != b.values)


# name -> workload of ``nfbench/workloads.py``, read by the digest script's loader
BENCH_WORKLOADS = load_script("artifact_digests").load_workloads()


def _bench_start_seeds(seed):
    """The start seeds every benchmark workload derives from one ``--seed``."""
    return sorted({s for w in BENCH_WORKLOADS.values() for s in w.solver_seeds(seed)})


class TestStartWaveformOracle:
    """``init_waveform`` draws NumPy's ``default_rng(seed).uniform(0, 2 pi)`` phases bit for bit."""

    SHAPES = [(1, 1), (3, 5), (16, 2), (64, 4), (32, 8), (256, 8)]
    # 2**64 + 5 and 2**128 + 11 have three and five 32-bit words; five overflow the four-word pool
    SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 11]

    @staticmethod
    def check(shape, seed):
        drawn = init_waveform(*shape, seed).values
        assert np.array_equal(drawn, numpy_start_waveform(*shape, seed).values), (shape, seed)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_numpy_over_seeds(self, shape):
        for seed in self.SEEDS:
            self.check(shape, seed)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_numpy_at_benchmark_start_seeds(self, shape):
        for seed in _bench_start_seeds(303):
            self.check(shape, seed)

    def test_numpy_integer_seed(self):
        self.check((16, 2), np.int64(2**40 + 17))

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)])
    def test_rejects_non_integer_and_negative_seeds(self, seed):
        with pytest.raises((TypeError, ValueError)):
            init_waveform(4, 2, seed)

    @pytest.mark.parametrize("seed", [True, False, 1.0, "1", None])
    def test_rejects_non_integer_seed_by_name(self, seed):
        # the same rule as SolverConfig: a bool is not a seed
        with pytest.raises(ValueError, match="seed must be an integer"):
            init_waveform(4, 2, seed)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0), "2"])
    def test_rejects_non_integer_sizes_by_name(self, position, value):
        sizes = [4, 2]
        sizes[position] = value
        name = ("num_samples", "num_antennas")[position]
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            init_waveform(*sizes, 0)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ((-2, -2), "num_samples must be >= 1, got -2"),
            ((2, -2), "num_antennas must be >= 1, got -2"),
            ((0, 2), "num_samples must be >= 1, got 0"),
            ((2, 0), "num_antennas must be >= 1, got 0"),
        ],
    )
    def test_rejects_sizes_below_one_by_name(self, sizes, message):
        with pytest.raises(ValueError, match=message):
            init_waveform(*sizes, 0)

    def test_numpy_integer_sizes(self):
        drawn = init_waveform(np.int64(16), np.int32(2), 5).values
        assert np.array_equal(drawn, init_waveform(16, 2, 5).values)


class TestPmliInner:
    CFG = SolverConfig(outer_iters=1, inner_tol=1e-9, inner_max=200)

    def test_identity_loaded_map_fixes_any_unimodular_point(self):
        x = init_waveform(4, 2, seed=1)
        # loaded operator equal to the identity, no momentum
        op = StubOperator(np.zeros((8, 8)), 1.0, 0.0)
        out = pmli_inner(x, x, op, self.CFG)
        assert np.allclose(out.values, x.values, atol=1e-12)

    def test_dominant_momentum_snaps_to_reference(self):
        x_fixed = init_waveform(4, 2, seed=2)
        x_var = init_waveform(4, 2, seed=3)
        op, _, _ = loaded_psd_stub(8, seed=4, momentum=1e9)
        out = pmli_inner(x_fixed, x_var, op, self.CFG)
        assert np.allclose(out.values, x_fixed.values, atol=1e-8)

    def test_augmented_objective_non_decreasing_random_psd(self):
        # classic ascent property of the phase projection under a PSD loaded map
        for seed in range(8):
            op, psd, lam = loaded_psd_stub(8, seed=seed, momentum=0.3)
            x_fixed = init_waveform(4, 2, seed=seed + 50)
            x_var = init_waveform(4, 2, seed=seed + 100)
            ref = x_fixed.vec()
            values = []

            def track(v, _ref=ref, _op=op):
                aug = np.real(np.vdot(v, _op.apply_loaded(v))) + 2 * _op.momentum * np.real(
                    np.vdot(_ref, v)
                )
                values.append(float(aug))

            track(x_var.vec())
            pmli_inner(x_fixed, x_var, op, self.CFG, callback=track)
            diffs = np.diff(values)
            assert diffs.min() >= -1e-10

    def test_output_exactly_unimodular(self):
        op, _, _ = loaded_psd_stub(8, seed=11, momentum=0.1)
        out = pmli_inner(init_waveform(4, 2, 0), init_waveform(4, 2, 1), op, self.CFG)
        assert np.abs(np.abs(out.values) - 1.0).max() <= 1e-15

    def test_zero_drive_projects_to_ones(self):
        # loaded map and momentum both zero: every entry of the drive is exactly 0
        op = StubOperator(np.zeros((8, 8)), 0.0, 0.0)
        out = pmli_inner(init_waveform(4, 2, 0), init_waveform(4, 2, 1), op, self.CFG)
        assert np.array_equal(out.values, np.ones((4, 2)))

    def test_nan_drive_is_rejected_not_projected(self):
        # a NaN loading makes every entry of the drive NaN; it must not pass as phase 0
        op = StubOperator(np.zeros((8, 8)), float("nan"), 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unimodular"):
            pmli_inner(init_waveform(4, 2, 0), init_waveform(4, 2, 1), op, self.CFG)

    def test_zero_entry_among_nonzero_projects_to_one(self):
        rng = np.random.default_rng(12)
        drive = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        drive[3] = 0.0
        out = pmli_inner(init_waveform(4, 2, 0), init_waveform(4, 2, 1), FixedDriveStub(drive), self.CFG)
        expect = drive / np.abs(drive + (drive == 0))
        expect[3] = 1.0  # phase 0
        assert np.array_equal(out.vec(), expect)

    def test_nan_entry_among_finite_is_rejected(self):
        drive = np.exp(1j * np.arange(8.0))
        drive[5] = complex(np.nan, 0.0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="unimodular"):
            pmli_inner(init_waveform(4, 2, 0), init_waveform(4, 2, 1), FixedDriveStub(drive), self.CFG)

    def test_no_fft_call_in_the_solver(self, monkeypatch, tmp_path):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        # a desk-sized design, solved and its artifacts written
        cfg = config_from_dict(
            {
                "array": {"M": 2, "N": 16},
                "grid": {"K1": 8, "K2": 4},
                "solver": {"epochs": 3, "seed": 6},
                "output": {"out_dir": str(tmp_path)},
            }
        )
        run_design(cfg)
        assert calls == []
        np.fft.fft(np.ones(4))
        assert calls == ["fft"]  # the spy is live


def desk_problem(n=16, m=2, k1=8, k2=4, peak=1.0, target=(3, 1)):
    cfg = ArrayConfig(m, n, 1.0e9, 2.0e8)
    grid = build_grid(k1, k2, n)
    ctx = build_steering_context(cfg, grid)
    desired = DesiredBeampattern.delta(grid, target[0], target[1], peak=peak)
    profile = WislProfile.uniform(n)
    return ctx, desired, profile


class TestCypmli:
    def test_zero_outer_iterations_returns_initial_pair(self):
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        cfg = SolverConfig(outer_iters=0, seed=5)
        state = cypmli(ctx, desired, profile, cfg)
        x0 = init_waveform(8, 2, seed=5)
        assert np.array_equal(state.x1.values, x0.values)
        assert np.array_equal(state.x2.values, x0.values)
        assert len(state.trace) == 1 and state.trace[0].stage == "init"

    def test_pure_sidelobe_mode_beats_random_start(self):
        ctx, desired, profile = desk_problem()
        cfg = SolverConfig(gamma=0.0, rho=2.0, outer_iters=60, seed=3)
        state = cypmli(ctx, desired, profile, cfg)
        start = wisl(init_waveform(16, 2, 3), profile)
        assert wisl(state.x1, profile) < start

    def test_combined_mode_descends_and_couples(self):
        ctx, desired, profile = desk_problem()
        cfg = SolverConfig(
            gamma=0.5, rho=2.0, outer_iters=200, inner_tol=1e-6, outer_tol=1e-10, seed=3
        )
        state = cypmli(ctx, desired, profile, cfg)
        assert state.trace[-1].objective <= state.trace[0].objective
        assert state.trace[-1].coupling / np.sqrt(32) <= 1e-3

    def test_trace_records_every_half_cycle(self):
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        cfg = SolverConfig(outer_iters=3, outer_tol=1e-15, seed=1)
        state = cypmli(ctx, desired, profile, cfg)
        stages = [e.stage for e in state.trace]
        assert stages == ["init", "x2", "x1", "x2", "x1", "x2", "x1"]
        outers = [e.outer for e in state.trace]
        assert outers == [0, 0, 0, 1, 1, 2, 2]

    def test_iterates_stay_unimodular(self):
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        state = cypmli(ctx, desired, profile, SolverConfig(outer_iters=5, seed=2))
        for x in (state.x1, state.x2):
            assert np.abs(np.abs(x.values) - 1.0).max() <= 1e-12

    def test_deterministic_traces(self):
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        cfg = SolverConfig(outer_iters=10, seed=9)
        a = cypmli(ctx, desired, profile, cfg)
        b = cypmli(ctx, desired, profile, cfg)
        assert len(a.trace) == len(b.trace)
        for ea, eb in zip(a.trace, b.trace):
            assert ea.as_dict() == eb.as_dict()
        assert np.array_equal(a.x1.values, b.x1.values)

    def test_inner_ascent_holds_on_pipeline_operators(self):
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        bp = BeampatternOperator(ctx, desired)
        sidelobe = WislOperator(profile)
        x1 = init_waveform(8, 2, seed=13)
        x2 = init_waveform(8, 2, seed=14)
        op = CombinedOperator(bp, sidelobe, x1, 0.5, 2.0)
        ref = x1.vec()
        values = []

        def track(v):
            aug = np.real(np.vdot(v, op.apply_loaded(v))) + 2 * op.momentum * np.real(
                np.vdot(ref, v)
            )
            values.append(float(aug))

        track(x2.vec())
        pmli_inner(x1, x2, op, SolverConfig(inner_tol=1e-8, inner_max=400), callback=track)
        diffs = np.diff(values)
        assert diffs.min() >= -1e-10 * max(abs(v) for v in values)

    def test_rejects_mismatched_profile(self):
        ctx, desired, _ = desk_problem(n=8, m=2, k1=4, k2=2)
        with pytest.raises(ValueError):
            cypmli(ctx, desired, WislProfile.uniform(6), SolverConfig(outer_iters=1))

    @pytest.mark.parametrize("weight, peak", [(1e300, 1.0), (1.0, 1e200)])
    def test_rejects_a_start_objective_that_is_not_finite(self, weight, peak):
        # weights whose Gram overflows, or a target whose matching error does
        ctx, desired, _ = desk_problem(n=4, m=2, k1=4, k2=2, peak=peak)
        profile = WislProfile(4, np.array([weight, 1, 1, 1, 1, 1, weight]))
        with pytest.raises(ValueError, match="start objective is not finite.*lag weights or the desired pattern"):
            cypmli(ctx, desired, profile, SolverConfig(outer_iters=1))



class TestCycle:
    """``record`` and ``cycle`` run the solve of ``cypmli`` one cycle at a time."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_cycles_reproduce_cypmli(self, gamma):
        ctx, desired, profile = desk_problem()
        cfg = SolverConfig(gamma=gamma, outer_iters=4, outer_tol=1e-300, seed=303)
        problem = Problem(BeampatternOperator(ctx, desired), WislOperator(profile), cfg)
        start = init_waveform(16, 2, cfg.seed)
        copies = {"x1": start, "x2": start}
        entry, gram, blocks = record(problem, copies, "x1", 0, "init")
        trace = [entry]
        for k in range(cfg.outer_iters + 1):
            if k:
                passed, before = copies, dict(copies)
                copies, gram, blocks, entries = cycle(problem, passed, gram, blocks, k - 1)
                trace += entries
                assert passed.keys() == before.keys()
                assert all(passed[name] is before[name] for name in before)
            assert np.array_equal(gram, problem.sidelobe.gram(copies["x1"]))
            assert np.array_equal(blocks, problem.bp.linearize(copies["x1"])[0])
            state = cypmli(ctx, desired, profile, replace(cfg, outer_iters=k))
            assert [e.as_dict() for e in trace] == [e.as_dict() for e in state.trace]
            assert np.array_equal(copies["x1"].values, state.x1.values)
            assert np.array_equal(copies["x2"].values, state.x2.values)


def asymmetric_profile(n, zero_lag_weight=1.7):
    """Non-uniform lag weights, different for +k and -k, with ``w_0 != 1``."""
    w = np.random.default_rng(21).uniform(0.2, 2.0, size=2 * n - 1)
    w[n - 1] = zero_lag_weight
    return WislProfile(n, w)


class TestTraceConsistency:
    """Trace entries, taken from shared per-copy work, against the operator forms."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("weights", ["uniform", "asymmetric"])
    def test_entries_match_operator_forms(self, gamma, weights):
        self.check_entries(gamma, weights, 16, 2)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("weights", ["uniform", "asymmetric"])
    # M=1 (WISL floor 0: the zero-lag term the WISL subtracts is most of the surrogate), N=1, N=2
    @pytest.mark.parametrize("n, m", [(16, 1), (1, 2), (2, 2)])
    def test_entries_match_operator_forms_at_edge_shapes(self, gamma, weights, n, m):
        self.check_entries(gamma, weights, n, m)

    @staticmethod
    def check_entries(gamma, weights, n, m):
        ctx, desired, profile = desk_problem(n=n, m=m)
        if weights == "asymmetric":
            profile = asymmetric_profile(ctx.config.code_length)
        state = cypmli(ctx, desired, profile, SolverConfig(gamma=gamma, outer_iters=1, seed=4))
        bp = BeampatternOperator(ctx, desired)
        sidelobe = WislOperator(profile)
        assert [e.stage for e in state.trace] == ["init", "x2", "x1"]
        for entry, x in zip(state.trace[1:], (state.x2, state.x1)):
            matching = lattice_matching_error(bp, x)
            expected = gamma * matching + (1.0 - gamma) * sidelobe.quad_form(x)
            assert abs(entry.objective - expected) <= 1e-12 * abs(expected)
            assert abs(entry.beampattern_error - matching) <= 1e-12 * matching
            assert abs(entry.wisl - wisl(x, profile)) <= 1e-12 * entry.wisl

    def test_combined_operator_gets_parts_of_frozen_copy(self, monkeypatch):
        seen = []
        real = solver_module.CombinedOperator

        def spy(bp, sidelobe, reference, gamma, rho, gram=None, blocks=None):
            seen.append((bp, reference, gamma, gram, blocks))
            return real(bp, sidelobe, reference, gamma, rho, gram, blocks)

        monkeypatch.setattr(solver_module, "CombinedOperator", spy)
        ctx, desired, _ = desk_problem(n=8, m=2, k1=4, k2=2)
        profile = asymmetric_profile(8)
        for gamma in (0.0, 0.5, 1.0):
            cfg = SolverConfig(gamma=gamma, outer_iters=3, outer_tol=1e-15, seed=6)
            cypmli(ctx, desired, profile, cfg)
        assert len(seen) == 18
        for bp, reference, gamma, gram, blocks in seen:
            if gamma < 1.0:
                assert gram is not None
                assert np.array_equal(gram, WislOperator(profile).gram(reference))
            if gamma > 0.0:
                assert blocks is not None
                assert np.array_equal(blocks, bp.linearize(reference)[0])

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_lattice_blocks_built_once_per_design(self, monkeypatch, gamma):
        # the desired blocks are the one lattice-sized build; every half-cycle
        # takes its matching blocks from the M^2 x M^2 kernel
        calls = []
        real = BeampatternOperator.bin_blocks

        def counted(self, weights):
            calls.append(1)
            return real(self, weights)

        monkeypatch.setattr(BeampatternOperator, "bin_blocks", counted)
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        cfg = SolverConfig(gamma=gamma, outer_iters=4, outer_tol=1e-300, seed=6)
        state = cypmli(ctx, desired, profile, cfg)
        assert len(state.trace) == 9
        assert len(calls) == 1

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_one_gram_per_copy_and_no_correlation_pass(self, monkeypatch, gamma):
        calls = {"gram": 0, "wisl": 0, "correlation_matrix": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(WislOperator, "gram", counted("gram", WislOperator.gram))
        for name in ("wisl", "correlation_matrix"):
            monkeypatch.setattr(correlation, name, counted(name, getattr(correlation, name)))
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        outer_iters = 4
        cfg = SolverConfig(gamma=gamma, outer_iters=outer_iters, outer_tol=1e-300, seed=6)
        state = cypmli(ctx, desired, profile, cfg)
        assert len(state.trace) == 2 * outer_iters + 1
        assert calls == {"gram": 2 * outer_iters + 1, "wisl": 0, "correlation_matrix": 0}

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_one_linearization_per_record(self, monkeypatch, gamma):
        calls = {"linearize": 0, "beampattern_grid": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            BeampatternOperator, "linearize", counted("linearize", BeampatternOperator.linearize)
        )
        # objective binds the name at import, so both modules' bindings are counted
        lattice = counted("beampattern_grid", beampattern_grid)
        for module in (nearfield, objective):
            monkeypatch.setattr(module, "beampattern_grid", lattice)
        ctx, desired, profile = desk_problem(n=8, m=2, k1=4, k2=2)
        outer_iters = 4
        cfg = SolverConfig(gamma=gamma, outer_iters=outer_iters, outer_tol=1e-300, seed=6)
        state = cypmli(ctx, desired, profile, cfg)
        assert len(state.trace) == 2 * outer_iters + 1
        assert calls == {"linearize": 2 * outer_iters + 1, "beampattern_grid": 0}


class TestLoadingCertificate:
    """The loading of every half-cycle is at or above the top eigenvalue of its operator."""

    # (M, N, K1, K2, gamma, desired peak): the default lattice and the match lattice
    RUNS = [(4, 64, 20, 10, 0.5, 1.0), (8, 32, 40, 20, 1.0, 256.0)]

    @pytest.mark.parametrize("m, n, k1, k2, gamma, peak", RUNS)
    def test_loading_never_below_dense_top_eigenvalue(self, monkeypatch, m, n, k1, k2, gamma, peak):
        ops = []
        real = solver_module.pmli_inner

        def spy(x_fixed, x_var, op, cfg, callback=None):
            ops.append(op)
            return real(x_fixed, x_var, op, cfg, callback)

        monkeypatch.setattr(solver_module, "pmli_inner", spy)
        ctx, desired, profile = desk_problem(n, m, k1, k2, peak, target=(k1 // 2 - 1, k2 // 2 - 1))
        cfg = SolverConfig(gamma=gamma, rho=2.0, outer_iters=10, outer_tol=1e-300, seed=303)
        cypmli(ctx, desired, profile, cfg)
        assert len(ops) == 20
        for op in ops:
            top = float(np.linalg.eigvalsh(dense_operator(op))[-1])
            assert op.lambda_max >= top - 1e-12 * abs(top)


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_no_workload_inner_loop_stops_at_inner_max(monkeypatch, tmp_path, name):
    # an inner loop cut off by inner_max leaves the copy short of its fixed point without a word
    steps = []
    real = solver_module.pmli_inner

    def spy(x_fixed, x_var, op, cfg, callback=None):
        steps.append(0)

        def count(v):
            steps[-1] += 1

        return real(x_fixed, x_var, op, cfg, count)

    monkeypatch.setattr(solver_module, "pmli_inner", spy)
    workload = BENCH_WORKLOADS[name]
    cfg = config_from_dict(workload.config(303, str(tmp_path)))
    cypmli(*design_inputs(cfg), cfg.solver)
    assert len(steps) == workload.half_cycles
    assert max(steps) < cfg.solver.inner_max, steps


class TestDenseLoadedApply:
    """On the desk lattice the inner step applies the dense ``R``; the structured path agrees."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_desk_solve_matches_structured_path(self, monkeypatch, gamma):
        ctx, desired, profile = desk_problem()
        builds = []
        real = CombinedOperator._assemble

        def spy(op):
            builds.append(op.dim)
            return real(op)

        monkeypatch.setattr(CombinedOperator, "_assemble", spy)
        for seed in range(303, 307):
            cfg = SolverConfig(gamma=gamma, inner_tol=1e-6, outer_iters=10, outer_tol=1e-300, seed=seed)
            builds.clear()
            dense = cypmli(ctx, desired, profile, cfg)
            assert builds == [32] * 20
            with monkeypatch.context() as patch:
                patch.setattr(objective, "_SMALL_MAX_DIM", 0)
                structured = cypmli(ctx, desired, profile, cfg)
            assert len(builds) == 20  # no dense matrix was built
            assert len(dense.trace) == len(structured.trace)
            for a, b in zip(dense.trace, structured.trace):
                for name, value in a.as_dict().items():
                    ref = getattr(b, name)
                    if isinstance(value, float):
                        assert abs(value - ref) <= 1e-12 * abs(ref), name
                    else:
                        assert value == ref
            gap = np.angle(dense.x1.values * structured.x1.values.conj())
            assert np.abs(gap).max() <= 1e-12


class TestSolverConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=-0.1),
            dict(gamma=1.1),
            dict(rho=-1.0),
            dict(rho=float("nan")),
            dict(rho=float("inf")),
            dict(outer_iters=-1),
            dict(inner_tol=0.0),
            dict(inner_tol=float("nan")),
            dict(inner_tol=float("inf")),
            dict(outer_tol=float("nan")),
            dict(outer_tol=-float("inf")),
            dict(inner_max=0),
            dict(seed=-1),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        # each check names its field; a tolerance's gives its rule and the value too
        ((name, value),) = kwargs.items()
        rule = f"{name} must be positive and finite, got {value!r}" if name.endswith("_tol") else name
        with pytest.raises(ValueError, match=re.escape(rule)):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("name", ["seed", "outer_iters", "inner_max"])
    @pytest.mark.parametrize("value", [1.5, np.float64(2.0), True, "3", None])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("name", ["seed", "outer_iters", "inner_max"])
    def test_accepts_numpy_integers_as_python_ints(self, name):
        cfg = SolverConfig(**{name: np.int64(3)})
        assert getattr(cfg, name) == 3 and type(getattr(cfg, name)) is int
