import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import nfwave.cli as cli
import nfwave.correlation as corr
import nfwave.nearfield as nearfield
import nfwave.objective as objective
import nfwave.solver as solver_module
from conftest import BENCH_WORKLOADS, alpha_beampattern, lag_shift_gram, loop_emit_outputs, per_bin_blocks, thz_config
from nfwave.cli import (
    ConfigError,
    RunConfig,
    config_from_dict,
    design_inputs,
    effective_config,
    load_desired_csv,
    main,
    parse_config,
    run_design,
    summarize,
)
from nfwave.model import UNIMODULAR_TOL
from nfwave.nearfield import beampattern_grid
from nfwave.solver import cypmli, init_waveform

DEFAULTS = effective_config(parse_config(""))


def count_calls(monkeypatch, **modules):
    """Count the calls of each named function through any module it is reached by; name -> count."""
    counts = dict.fromkeys(modules, 0)
    for name, owners in modules.items():
        for owner in owners:
            original = getattr(owner, name)

            def spy(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, spy)
    return counts


# A valid non-default value for every config key; the weights fit the default N = 64.
NON_DEFAULT = {
    "array": {"M": 3, "N": 8, "fc_hz": 2.5e9, "bandwidth_hz": 3.0e8, "spacing_m": 0.05},
    "grid": {"K1": 7, "K2": 3},
    "solver": {
        "gamma": 0.25,
        "rho": 0.5,
        "epochs": 7,
        "inner_tol": 1e-4,
        "inner_max": 9,
        "outer_tol": 1e-3,
        "seed": 42,
        "weights": [1.0 + 0.5 * (k % 3) for k in range(127)],
    },
    "target": {"k1_star": 3, "k2_star": 2, "desired_peak": 2.5},
    "output": {"out_dir": "elsewhere/run"},
}

# keys whose default is worked out from other keys
DERIVED = {("array", "spacing_m"), ("target", "k1_star"), ("target", "k2_star")}


def _keys(nested: dict) -> dict:
    """Section -> key names, in order."""
    return {section: list(keys) for section, keys in nested.items()}


DESK_YAML = """
array: {M: 2, N: 8, fc_hz: 1.0e9, bandwidth_hz: 2.0e8}
grid: {K1: 4, K2: 2}
solver: {epochs: 3, seed: 11}
target: {k1_star: 2, k2_star: 1}
output: {out_dir: "%s"}
"""


class TestParseConfig:
    def test_empty_config_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.array.num_antennas == 4
        assert cfg.array.code_length == 64
        assert cfg.array.carrier_freq_hz == 1.0e9
        assert cfg.array.bandwidth_hz == 2.0e8
        assert cfg.num_angles == 20 and cfg.num_ranges == 10
        assert cfg.solver.gamma == 0.5 and cfg.solver.rho == 2.0
        assert cfg.weights == "uniform"
        assert cfg.desired_peak == 1.0

    def test_gamma_out_of_range_message(self):
        with pytest.raises(ConfigError, match=r"gamma must lie in \[0,1\]"):
            parse_config("solver: {gamma: 1.5}")

    def test_unknown_keys_are_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config("array: {M: 2, bogus: 1}\nwhatever: {x: 2}")
        msg = str(err.value)
        assert "unknown config keys" in msg
        assert "array.bogus" in msg and "whatever" in msg

    def test_wrong_weight_length_rejected(self):
        n = 8
        weights = [1.0] * (2 * n)  # one too many
        with pytest.raises(ConfigError, match="weights"):
            parse_config(yaml.safe_dump({"array": {"N": n}, "solver": {"weights": weights}}))

    @pytest.mark.parametrize("weights", ["triangular", 3, None, np.ones(127)])
    def test_weights_neither_uniform_nor_list_rejected(self, weights):
        with pytest.raises(ConfigError, match="weights must be 'uniform' or a list"):
            config_from_dict({"solver": {"weights": weights}})

    def test_explicit_weights_accepted(self):
        n = 4
        weights = list(range(2 * n - 1))
        cfg = parse_config(yaml.safe_dump({"array": {"N": n}, "solver": {"weights": weights}}))
        assert cfg.profile().weights.tolist() == [float(w) for w in weights]

    def test_target_index_out_of_range(self):
        with pytest.raises(ConfigError, match="k1_star"):
            parse_config("grid: {K1: 4}\ntarget: {k1_star: 5}")
        with pytest.raises(ConfigError, match="k2_star"):
            parse_config("grid: {K2: 4}\ntarget: {k2_star: 0}")

    @pytest.mark.parametrize("key, size", [("K1", 0), ("K2", -3), ("K1", -1)])
    def test_grid_size_below_one_names_the_key(self, key, size):
        with pytest.raises(ConfigError, match=f"grid.{key} must be >= 1, got {size}"):
            config_from_dict({"grid": {key: size}})

    @pytest.mark.parametrize(
        "section, key",
        [("array", "M"), ("array", "N"), ("grid", "K1"), ("solver", "seed"), ("target", "k2_star")],
    )
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", np.float64(2.0)])
    def test_integer_keys_reject_non_integers_by_name(self, section, key, value):
        message = f"{section}.{key} must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("array", "M", 0, "array.M must be >= 1, got 0"),
            ("array", "N", -2, "array.N must be >= 1, got -2"),
            ("array", "fc_hz", 0, "array.fc_hz must be positive and finite, got 0.0"),
            ("array", "bandwidth_hz", -1.0, "array.bandwidth_hz must be positive and finite, got -1.0"),
            ("array", "spacing_m", 0, "array.spacing_m must be positive and finite, got 0.0"),
            ("solver", "gamma", 1.5, "solver.gamma must lie in [0,1]"),
            ("solver", "rho", -1.0, "solver.rho must be nonnegative and finite"),
            ("solver", "epochs", -1, "solver.epochs must be nonnegative"),
            ("solver", "inner_tol", 0, "solver.inner_tol must be positive and finite, got 0.0"),
            ("solver", "inner_max", 0, "solver.inner_max must be >= 1"),
            ("solver", "outer_tol", -1e-3, "solver.outer_tol must be positive and finite, got -0.001"),
            ("solver", "seed", -1, "solver.seed must be a nonnegative integer"),
            ("solver", "weights", "triangular", "solver.weights must be 'uniform' or a list, got 'triangular'"),
            ("solver", "weights", [1.0], "solver.weights must have 127 entries (lags -N+1..N-1), got 1"),
            ("target", "k1_star", 21, "target.k1_star index 21 outside [1, 20]"),
            ("target", "k2_star", 0, "target.k2_star index 0 outside [1, 10]"),
            ("target", "desired_peak", -1.0, "target.desired_peak must be nonnegative, got -1.0"),
        ],
    )
    def test_errors_name_the_key(self, section, key, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize("array", [{"fc_hz": 1.0e308}, {"fc_hz": 1.0e308, "bandwidth_hz": 1.0e308}])
    def test_derived_spacing_error_names_the_band(self, array):
        # spacing_m was not written: the half wavelength of a band that overflows is 0.0
        message = "array.fc_hz plus half the bandwidth must leave a positive, finite spacing, got 0.0"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict({"array": array})

    def test_code_length_error_comes_before_the_weight_count(self):
        # checked first, the weight count would demand -1 entries at N = 0
        with pytest.raises(ConfigError, match=r"^array\.N must be >= 1, got 0$"):
            config_from_dict({"array": {"N": 0}, "solver": {"weights": [1.0]}})

    def test_integer_keys_accept_numpy_integers_as_python_ints(self):
        cfg = config_from_dict({"array": {"M": np.int64(2), "N": 16}, "grid": {"K1": np.int32(8)}})
        assert (cfg.array.num_antennas, cfg.array.code_length, cfg.num_angles) == (2, 16, 8)
        assert type(cfg.array.num_antennas) is int and type(cfg.num_angles) is int
        assert config_from_dict(effective_config(cfg)) == cfg

    def test_default_target_is_grid_center(self):
        cfg = parse_config("grid: {K1: 20, K2: 10}")
        assert cfg.angle_target == 10 and cfg.range_target == 5
        # broadside angle node
        assert np.isclose(cfg.grid().phi[cfg.angle_target - 1], 0.0, atol=1e-12)

    def test_reads_yaml_text_only(self, tmp_path, monkeypatch):
        assert parse_config("array: {M: 3, N: 4}").array.num_antennas == 3
        # a string that names an existing file is YAML text like any other, here a scalar
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.yaml").write_text("array: {M: 3, N: 4}\n")
        with pytest.raises(ConfigError, match="config must be a mapping of sections, got str"):
            parse_config("run.yaml")

    def test_round_trip_effective_config(self):
        cfg = parse_config("array: {M: 3, N: 4}\nsolver: {gamma: 0.25, seed: 7}")
        dumped = yaml.safe_dump(effective_config(cfg))
        again = parse_config(dumped)
        assert effective_config(again) == effective_config(cfg)

    def test_round_trip_with_explicit_weights(self):
        n = 4
        cfg = parse_config(
            yaml.safe_dump({"array": {"N": n}, "solver": {"weights": [1.0] * (2 * n - 1)}})
        )
        again = parse_config(yaml.safe_dump(effective_config(cfg)))
        assert effective_config(again) == effective_config(cfg)

    def test_non_default_values_cover_every_key(self):
        assert _keys(NON_DEFAULT) == _keys(DEFAULTS)

    @pytest.mark.parametrize(
        "section, key, value",
        [(s, k, v) for s, keys in NON_DEFAULT.items() for k, v in keys.items()],
    )
    def test_every_key_round_trips(self, section, key, value):
        cfg = parse_config(yaml.safe_dump({section: {key: value}}))
        resolved = effective_config(cfg)
        assert value != DEFAULTS[section][key]
        assert resolved[section][key] == value
        # the key sets its own attribute and no other, apart from values derived from it
        changed = {(s, k) for s in resolved for k in resolved[s] if resolved[s][k] != DEFAULTS[s][k]}
        assert changed - DERIVED - {(section, key)} == set()
        again = parse_config(yaml.safe_dump(effective_config(cfg)))
        assert effective_config(again) == resolved

    def test_readme_config_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```yaml\n(.*?)```", readme, re.DOTALL).group(1)
        assert _keys(yaml.safe_load(block)) == _keys(DEFAULTS)
        documented = effective_config(parse_config(block))
        for section, keys in DEFAULTS.items():
            for key, default in keys.items():
                if key == "spacing_m":  # README rounds it to 0.136
                    assert documented[section][key] == pytest.approx(default, abs=1e-3)
                else:
                    assert documented[section][key] == default, f"{section}.{key}"

    @pytest.mark.parametrize(
        "text",
        [
            "solver: {rho: .nan}",
            "solver: {inner_tol: .nan}",
            "solver: {outer_tol: .NaN}",
            "array: {fc_hz: .inf}",
            "target: {desired_peak: -.inf}",
            "solver: {gamma: nan}",
            "array: {bandwidth_hz: 1e999}",
            "array: {N: 2}\nsolver: {weights: [1.0, .nan, 1.0]}",
        ],
    )
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(text)

    def test_malformed_yaml_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("array: {M: 2")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("- 1\n- 2\n")

    @pytest.mark.parametrize("data", [[1], "array: {M: 2}", None])
    def test_config_from_dict_rejects_non_mappings(self, data):
        with pytest.raises(ConfigError, match="config must be a mapping of sections"):
            config_from_dict(data)


class TestRunDesign:
    def run_desk(self, tmp_path, epochs=3, seed=11):
        cfg = parse_config(DESK_YAML % (tmp_path / "out"))
        data = effective_config(cfg)
        data["solver"]["epochs"] = epochs
        data["solver"]["seed"] = seed
        return config_from_dict(data)

    def test_produces_exactly_five_files(self, tmp_path):
        cfg = self.run_desk(tmp_path)
        result = run_design(cfg)
        names = sorted(p.name for p in result.paths)
        assert names == [
            "beampattern_angle.csv",
            "beampattern_range.csv",
            "correlation.csv",
            "trace.jsonl",
            "waveform.csv",
        ]
        for p in result.paths:
            assert p.exists()
        assert len(list((tmp_path / "out").iterdir())) == 5

    def test_emit_returns_paths_in_artifact_order(self, tmp_path):
        cfg = self.run_desk(tmp_path, epochs=1)
        result = run_design(cfg)
        assert result.paths == [
            tmp_path / "out" / name
            for name in (
                "waveform.csv",
                "beampattern_angle.csv",
                "beampattern_range.csv",
                "correlation.csv",
                "trace.jsonl",
            )
        ]

    def test_zero_epochs_emits_seeded_start(self, tmp_path):
        cfg = self.run_desk(tmp_path, epochs=0, seed=23)
        result = run_design(cfg)
        x0 = init_waveform(8, 2, seed=23)
        emitted = np.loadtxt(tmp_path / "out" / "waveform.csv", delimiter=",", skiprows=1)
        assert np.allclose(emitted, x0.phases(), atol=1e-15)

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        cfg_a = self.run_desk(tmp_path / "a")
        cfg_b = self.run_desk(tmp_path / "b")
        run_design(cfg_a)
        run_design(cfg_b)
        for name in ("waveform.csv", "trace.jsonl"):
            a = (tmp_path / "a" / "out" / name).read_bytes()
            b = (tmp_path / "b" / "out" / name).read_bytes()
            assert a == b

    def test_waveform_phases_in_range(self, tmp_path):
        cfg = self.run_desk(tmp_path)
        run_design(cfg)
        phases = np.loadtxt(tmp_path / "out" / "waveform.csv", delimiter=",", skiprows=1)
        assert phases.shape == (8, 2)
        assert phases.min() >= 0.0 and phases.max() < 2 * np.pi

    def test_beampattern_files_match_grid_cuts(self, tmp_path):
        cfg = self.run_desk(tmp_path)
        result = run_design(cfg)
        pattern = beampattern_grid(result.state.x1, result.context)
        angle_cut = np.loadtxt(tmp_path / "out" / "beampattern_angle.csv", delimiter=",", skiprows=1)
        range_cut = np.loadtxt(tmp_path / "out" / "beampattern_range.csv", delimiter=",", skiprows=1)
        assert np.array_equal(angle_cut, pattern[:, cfg.range_target - 1, :])
        assert np.array_equal(range_cut, pattern[cfg.angle_target - 1, :, :])

    def test_correlation_file_mainlobe_row(self, tmp_path):
        cfg = self.run_desk(tmp_path)
        run_design(cfg)
        rows = (tmp_path / "out" / "correlation.csv").read_text().splitlines()
        assert rows[0] == "m,m_prime,k,magnitude,level_db"
        main_rows = [r for r in rows[1:] if r.startswith("1,1,0,")]
        assert len(main_rows) == 1
        _, _, _, mag, level = main_rows[0].split(",")
        assert np.isclose(float(mag), 8.0, rtol=1e-12)
        assert np.isclose(float(level), 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [303, 304, 305])
    @pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
    def test_each_level_is_that_of_the_magnitude_beside_it(self, tmp_path, name, seed):
        cfg = config_from_dict(BENCH_WORKLOADS[name].config(seed, str(tmp_path)))
        run_design(cfg)
        rows = np.loadtxt(tmp_path / "correlation.csv", delimiter=",", skiprows=1, ndmin=2)
        magnitude, level = rows[:, 3], rows[:, 4]
        with np.errstate(divide="ignore"):
            expected = np.maximum(20.0 * np.log10(magnitude / cfg.array.code_length), corr.DB_FLOOR)
        assert np.count_nonzero(level != expected) == 0

    def test_run_design_forms_one_beampattern_and_one_lag_matrix(self, tmp_path, monkeypatch):
        # the work nfbench times: one lattice beampattern and one lag matrix per design
        calls = count_calls(monkeypatch, beampattern_grid=[cli, nearfield], correlation_matrix=[cli, corr])
        result = run_design(self.run_desk(tmp_path))
        assert calls == {"beampattern_grid": 1, "correlation_matrix": 1}
        x1 = result.state.x1
        assert np.array_equal(result.lags, corr.correlation_matrix(x1))
        rows = (tmp_path / "out" / "correlation.csv").read_text().splitlines()[1:]
        emitted = np.array([float(r.split(",")[4]) for r in rows])
        assert np.array_equal(emitted, corr.correlation_level_db(x1).ravel())

    def test_one_dft_matrix_per_design(self, tmp_path, monkeypatch):
        # the matching operator and the artifact beampattern share the context's matrix
        original = nearfield.dft_matrix
        sizes = []

        def spy(n):
            sizes.append(n)
            return original(n)

        monkeypatch.setattr(nearfield, "dft_matrix", spy)
        result = run_design(self.run_desk(tmp_path))
        assert sizes == [8]
        assert not result.context.dft.flags.writeable

    # (M, N, K1, K2, gamma, desired peak): desk-, default- and match-sized designs;
    # M = 1 and N = 1, the edges of the mirrored correlation rows; more antennas
    # than samples, so many short correlation blocks; and the paper's regime,
    # thz_config at 1 epoch (its M is the name)
    SIZES = [
        (2, 16, 8, 4, 0.5, 1.0),
        (4, 64, 20, 10, 0.5, 1.0),
        (8, 32, 40, 20, 1.0, 256.0),
        (1, 2, 2, 2, 0.5, 1.0),
        (3, 1, 2, 2, 0.5, 1.0),
        (16, 4, 2, 2, 0.5, 1.0),
        pytest.param("thz", 32, 20, 10, 0.5, 1.0, id="thz"),
    ]

    @pytest.mark.parametrize("seed", [101, 7])
    @pytest.mark.parametrize("m, n, k1, k2, gamma, peak", SIZES)
    def test_artifacts_match_loop_writer_byte_for_byte(self, tmp_path, m, n, k1, k2, gamma, peak, seed):
        data = {
            "array": {"M": m, "N": n},
            "grid": {"K1": k1, "K2": k2},
            "solver": {"gamma": gamma, "epochs": 2, "seed": seed},
            "target": {"desired_peak": peak},
            "output": {"out_dir": str(tmp_path / "out")},
        }
        if m == "thz":
            data = thz_config(tmp_path / "out", gamma, epochs=1, seed=seed)
        cfg = config_from_dict(data)
        result = run_design(cfg)
        loop_emit_outputs(result.state, result.context, cfg, tmp_path / "oracle")
        assert len(result.paths) == 5
        for path in result.paths:
            assert path.read_bytes() == (tmp_path / "oracle" / path.name).read_bytes(), path.name

    def test_emit_outputs_never_holds_correlation_csv_whole(self, tmp_path, monkeypatch):
        # M32 N32 writes 64512 correlation rows; the traced peak of writing all
        # five artifacts stays below the byte size of that one file
        cfg = config_from_dict(
            {
                "array": {"M": 32, "N": 32},
                "grid": {"K1": 2, "K2": 2},
                "solver": {"epochs": 0},
                "output": {"out_dir": str(tmp_path)},
            }
        )
        emit, peaks = cli.emit_outputs, []

        def traced(*args):
            tracemalloc.start()
            try:
                paths = emit(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return paths

        monkeypatch.setattr(cli, "emit_outputs", traced)
        run_design(cfg)
        assert len(peaks) == 1
        assert peaks[0] < (tmp_path / "correlation.csv").stat().st_size

    def test_trace_is_valid_jsonl(self, tmp_path):
        cfg = self.run_desk(tmp_path)
        result = run_design(cfg)
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        assert len(lines) == len(result.state.trace)
        first = json.loads(lines[0])
        assert first["stage"] == "init"
        assert set(first) == {"outer", "stage", "objective", "wisl", "beampattern_error", "coupling"}

    def test_design_inputs_are_what_run_design_solves(self, tmp_path, monkeypatch):
        cfg = self.run_desk(tmp_path, epochs=1)
        ctx, desired, profile = design_inputs(cfg)
        # the delta target sits at the config's 1-based (k1_star, k2_star) = (2, 1) in every bin
        assert np.argwhere(desired.values).tolist() == [[1, 0, u] for u in range(8)]
        assert ctx.config == cfg.array and profile.weights.tolist() == [1.0] * 15
        built, solved = [], []
        monkeypatch.setattr(cli, "design_inputs", lambda *a: built.append(design_inputs(*a)) or built[-1])
        monkeypatch.setattr(cli, "cypmli", lambda *a: solved.append(a) or cypmli(*a))
        run_design(cfg)
        assert len(built) == len(solved) == 1
        assert all(a is b for a, b in zip(solved[0], built[0] + (cfg.solver,), strict=True))

    def test_desired_csv_override(self, tmp_path):
        cfg = self.run_desk(tmp_path, epochs=1)
        grid = cfg.grid()
        flat = np.zeros((grid.num_angles * grid.num_ranges, grid.num_bins))
        flat[0, :] = 3.0
        path = tmp_path / "desired.csv"
        np.savetxt(path, flat, delimiter=",")
        desired = load_desired_csv(path, grid)
        assert desired.values[0, 0, 0] == 3.0
        result = run_design(cfg, desired)
        assert result.paths

    @pytest.mark.parametrize("entry", ["nan", "inf", "-1.0"])
    def test_desired_csv_bad_value_error(self, tmp_path, entry):
        cfg = self.run_desk(tmp_path)
        grid = cfg.grid()
        rows = [["0"] * grid.num_bins for _ in range(grid.num_angles * grid.num_ranges)]
        rows[1][2] = entry
        path = tmp_path / "desired.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ConfigError, match="nonnegative and finite"):
            load_desired_csv(path, grid)

    def test_desired_csv_shape_error(self, tmp_path):
        cfg = self.run_desk(tmp_path)
        path = tmp_path / "desired.csv"
        np.savetxt(path, np.zeros((3, 3)), delimiter=",")
        with pytest.raises(ConfigError, match="shape"):
            load_desired_csv(path, cfg.grid())


class TestSummarize:
    # (M, N, weights): every M in {1, 2, 4} at N in {1, 8}, and one asymmetric weight list
    CASES = [(m, n, "uniform") for m in (1, 2, 4) for n in (1, 8)] + [(2, 8, [1.0 + 0.1 * k for k in range(15)])]

    @pytest.mark.parametrize("m, n, weights", CASES)
    def test_figures_equal_the_direct_computations(self, tmp_path, m, n, weights):
        cfg = config_from_dict(
            {
                "array": {"M": m, "N": n},
                "grid": {"K1": 4, "K2": 2},
                "solver": {"epochs": 1, "seed": 5, "weights": weights},
                "output": {"out_dir": str(tmp_path)},
            }
        )
        result = run_design(cfg)
        summary = summarize(result, cfg)
        x1 = result.state.x1
        assert summary["direct_wisl"] == corr.wisl(x1, cfg.profile())
        # the peaks over every lag, as the report took them from correlation_level_db
        level = corr.correlation_level_db(x1)
        own = np.eye(m, dtype=bool)
        auto, cross = np.delete(level[own], n - 1, axis=1), level[~own]
        assert summary["peak_auto_db"] == (auto.max() if auto.size else None)
        assert summary["peak_cross_db"] == (cross.max() if cross.size else None)
        first, last = result.state.trace[0], result.state.trace[-1]
        assert summary["objective"] == (first.objective, last.objective)
        assert summary["outer_cycles"] == 1 and summary["warnings"] == 0
        # README's floor M (M-1) N^2 holds for uniform weights only, and is 0 at M = 1
        floor = m * (m - 1) * n * n
        expected = corr.wisl(x1, cfg.profile()) / floor if m > 1 and weights == "uniform" else None
        assert summary["wisl_over_floor"] == expected

    # README's limits for each workload design at start seed 303 (README rounds them)
    LIMIT_KEYS = (
        "contrast",
        "contrast_cap",
        "wisl_over_floor",
        "fresnel_phase_error_max",
        "near_field_ranges",
        "fresnel_bound_m",
    )
    LIMITS = {
        "default": (1.3393514653615557, 6.93590342051666, 1.0918431269484, 12.944269884768238, 10, 0.8371537881382765),
        "desk": (1.5623826472226507, 2.7245708989295205, 1.1518568082412108, 0.19168531830783925, 0, 0.16111032164491626),
        "match": (2.3965426320926335, 15.227348032592953, 1.0769916581965926, 172.04147907905468, 20, 2.9838049130265256),
    }

    @pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
    def test_physical_limits_of_each_workload(self, tmp_path, name):
        cfg = config_from_dict(BENCH_WORKLOADS[name].config(303, str(tmp_path)))
        summary = summarize(run_design(cfg), cfg)
        for key, want in zip(self.LIMIT_KEYS, self.LIMITS[name]):
            assert summary[key] == pytest.approx(want, rel=1e-12, abs=0), key
        assert type(summary["near_field_ranges"]) is int
        assert summary["contrast"] <= summary["contrast_cap"]

    # name -> (plan_dense, plan_kernel): which forks each design takes
    PLANS = {"desk": (True, True), "default": (False, True), "match": (False, True), "thz": (False, False)}

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_size_plan_of_each_workload_and_thz(self, tmp_path, name):
        if name == "thz":
            data = thz_config(tmp_path, epochs=1)
        else:
            data = BENCH_WORKLOADS[name].config(303, str(tmp_path))
            data["solver"]["epochs"] = 1
        cfg = config_from_dict(data)
        summary = summarize(run_design(cfg), cfg)
        assert (summary["plan_dense"], summary["plan_kernel"]) == self.PLANS[name]

    @pytest.mark.parametrize("m", [1, 2])
    def test_single_cell_lattice_has_no_contrast_or_cap(self, tmp_path, m):
        cfg = config_from_dict(
            {"array": {"M": m, "N": 4}, "grid": {"K1": 1, "K2": 1}, "output": {"out_dir": str(tmp_path)}}
        )
        summary = summarize(run_design(cfg), cfg)
        assert summary["contrast"] is None and summary["contrast_cap"] is None


class TestThzDesign:
    """A few cycles in the paper's regime, where the blocks come from the lattice order."""

    def run(self, tmp_path, monkeypatch, gamma):
        """The design's result and the loading of its first half-cycle."""
        loadings = []
        real = solver_module.pmli_inner

        def spy(x_fixed, x_var, op, cfg):
            loadings.append(op.lambda_max)
            return real(x_fixed, x_var, op, cfg)

        monkeypatch.setattr(solver_module, "pmli_inner", spy)
        cfg = config_from_dict(thz_config(tmp_path, gamma=gamma, epochs=2))
        return cfg, run_design(cfg), loadings[0]

    def test_records_every_half_cycle(self, tmp_path, monkeypatch):
        cfg, result, _ = self.run(tmp_path, monkeypatch, 0.5)
        trace = result.state.trace
        assert [(e.outer, e.stage) for e in trace] == [(0, "init"), (0, "x2"), (0, "x1"), (1, "x2"), (1, "x1")]
        assert np.isfinite(trace[-1].objective)
        assert np.abs(np.abs(result.state.x1.values) - 1.0).max() <= UNIMODULAR_TOL

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_loading_is_the_part_top_on_the_first_half_cycle(self, tmp_path, monkeypatch, gamma):
        # with one part, Weyl's bound is that part's exact top eigenvalue at the start waveform
        cfg, result, loading = self.run(tmp_path, monkeypatch, gamma)
        ctx, desired, profile = design_inputs(cfg)
        n, m = cfg.array.code_length, cfg.array.num_antennas
        x0 = init_waveform(n, m, cfg.solver.seed).values
        if gamma == 1.0:
            blocks = per_bin_blocks(ctx.alpha, alpha_beampattern(x0, ctx) - 2 * desired.values)
            top = n * np.linalg.eigvalsh(blocks)[:, -1].max()
        else:
            top = np.linalg.eigvalsh(lag_shift_gram(x0, profile))[-1]
        assert abs(loading - top) <= 1e-12 * abs(top)


class TestMainEntry:
    def write_cfg(self, tmp_path, text=None):
        path = tmp_path / "cfg.yaml"
        path.write_text(text if text is not None else DESK_YAML % (tmp_path / "out"))
        return path

    def test_design_happy_path(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        assert main(["design", str(path)]) == 0
        out = capsys.readouterr().out
        assert "done:" in out

    REPORT_LABELS = [
        "ran 1 outer cycles in ",
        "objective ",
        "trace WISL ",
        "direct WISL ",
        "matching error ",
        "copy coupling ",
        "peak auto sidelobe ",
        "peak cross level ",
        "done: artifacts in ",
    ]

    def test_design_prints_the_run_report(self, tmp_path, capsys):
        # the full-scale default problem, cut to one epoch
        out_dir = tmp_path / "design"
        path = self.write_cfg(tmp_path, f"solver: {{epochs: 1}}\noutput: {{out_dir: {out_dir}}}")
        assert main(["design", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(self.REPORT_LABELS)
        for line, label in zip(lines, self.REPORT_LABELS):
            assert line.startswith(label), line
        assert lines[-1] == f"done: artifacts in {out_dir}"
        assert re.fullmatch(r"peak auto sidelobe +-\d+\.\d dB", lines[6])
        assert re.fullmatch(r"peak cross level +-\d+\.\d dB", lines[7])
        assert (out_dir / "waveform.csv").is_file()

    def test_design_forms_one_lag_matrix(self, tmp_path, monkeypatch, capsys):
        # the report reads the lags and levels that correlation.csv was written from
        text = f"array: {{M: 4, N: 64}}\nsolver: {{epochs: 1}}\noutput: {{out_dir: {tmp_path / 'out'}}}"
        calls = count_calls(monkeypatch, correlation_matrix=[cli, corr], _level_db=[cli, corr])
        assert main(["design", str(self.write_cfg(tmp_path, text))]) == 0
        assert calls == {"correlation_matrix": 1, "_level_db": 1}
        assert capsys.readouterr().out.splitlines()[-1].startswith("done:")

    def test_design_forms_one_lattice_pattern(self, tmp_path, monkeypatch, capsys):
        # the summary reads the pattern that the beampattern CSVs were cut from
        calls = count_calls(monkeypatch, beampattern_grid=[cli, nearfield, objective])
        assert main(["design", str(self.write_cfg(tmp_path))]) == 0
        assert calls == {"beampattern_grid": 1}
        assert capsys.readouterr().out.splitlines()[-1].startswith("done:")

    @pytest.mark.parametrize(
        "m, n, auto, cross",
        [
            (1, 8, r"-\d+\.\d dB", r"none \(M = 1 has no antenna pair\)"),
            (2, 1, r"none \(N = 1 has no sidelobe lag\)", r"-?\d+\.\d dB"),
            (1, 1, r"none \(N = 1 has no sidelobe lag\)", r"none \(M = 1 has no antenna pair\)"),
        ],
    )
    def test_report_without_sidelobe_lags_or_antenna_pairs(self, tmp_path, capsys, m, n, auto, cross):
        text = f"array: {{M: {m}, N: {n}}}\ngrid: {{K1: 4, K2: 2}}\nsolver: {{epochs: 1}}\n"
        path = self.write_cfg(tmp_path, text + f"output: {{out_dir: {tmp_path / 'out'}}}")
        assert main(["design", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(f"peak auto sidelobe +{auto}", lines[6])
        assert re.fullmatch(f"peak cross level +{cross}", lines[7])
        assert lines[-1].startswith("done:")

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, "solver: {gamma: 2.0}")
        assert main(["design", str(path)]) == 2
        assert f"config error: {path}: solver.gamma must lie in [0,1]" in capsys.readouterr().err

    def test_unwritable_out_dir_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "out"
        blocker.write_text("a file where the out_dir should be")
        assert main(["design", str(self.write_cfg(tmp_path))]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(blocker) in err

    def test_non_finite_value_exit_code(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, "solver: {rho: .nan}")
        assert main(["design", str(path)]) == 2
        assert "solver.rho must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "array: {M: 2, N: 3}\nsolver: {weights: [1.0e+300, 1, 1, 1, 1.0e+300]}",
            "solver: {weights: [%s]}" % ", ".join(["1.0e+153"] * 127),  # finite squares, Gram inf
            "array: {M: 2, N: 4}\ntarget: {desired_peak: 1.0e+200}",
        ],
        ids=["weights-squared-overflow", "gram-overflow", "peak-overflow"],
    )
    @pytest.mark.filterwarnings("error")  # the overflow is reported once, not warned about
    def test_start_objective_not_finite_exit_code(self, tmp_path, capsys, text):
        path = self.write_cfg(tmp_path, f"{text}\noutput: {{out_dir: {tmp_path / 'out'}}}\n")
        assert main(["design", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: the start objective is not finite")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        assert main(["design", str(path), "--seed", "-1"]) == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reads_from_file(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, "array: {M: 2, N: 4}\n")
        assert main(["design", str(path), "--print-effective-config"]) == 0
        cfg = parse_config(capsys.readouterr().out)
        assert cfg.array.num_antennas == 2 and cfg.array.code_length == 4

    @pytest.mark.parametrize("name", ["no_such_run.yaml", "configs/run.yml", "42"])
    def test_missing_file_named(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        assert main(["design", name]) == 2
        assert f"config error: cannot read config file {name}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_file_that_is_not_text_named(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        path.write_bytes(b"\xff\xfe array: {M: 2}\n")
        assert main(["design", str(path)]) == 2
        assert f"config error: cannot read config file {path}: " in capsys.readouterr().err

    def test_print_effective_config_round_trips(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        assert main(["design", str(path), "--print-effective-config"]) == 0
        dumped = capsys.readouterr().out
        cfg = parse_config(dumped)
        assert cfg.array.code_length == 8
        assert not (tmp_path / "out").exists()  # dry run

    def test_seed_override(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        assert main(["design", str(path), "--seed", "99", "--print-effective-config"]) == 0
        cfg = parse_config(capsys.readouterr().out)
        assert cfg.solver.seed == 99

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "nfwave" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "design" in capsys.readouterr().out


def test_design_path_imports_neither_yaml_nor_argparse(tmp_path):
    # scripts and benchmarks build configs with config_from_dict and call run_design;
    # a design imports no module at all, so neither yaml, argparse, numpy.fft (which
    # numpy 1.x imports with numpy) nor numpy.random is loaded by run_design
    code = (
        "import sys\n"
        "from nfwave.cli import config_from_dict, run_design\n"
        "imported = set(sys.modules)\n"
        "cfg = config_from_dict({'array': {'M': 2, 'N': 8}, 'grid': {'K1': 4, 'K2': 2},\n"
        "    'solver': {'epochs': 1}, 'output': {'out_dir': sys.argv[1]}})\n"
        "run_design(cfg)\n"
        "print(sorted(name for name in ('yaml', 'argparse') if name in sys.modules))\n"
        "print(sorted(set(sys.modules) - imported))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
    assert (tmp_path / "out" / "waveform.csv").is_file()
