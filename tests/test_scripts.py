"""Smoke runs of the experiment scripts in ``scripts/``: they import the public API and run."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from conftest import load_script
from nfwave.cli import config_from_dict, read_config, run_design

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def script(name, *args):
    """The finished process of ``scripts/<name>`` run with ``args`` and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_script(name, *args):
    proc = script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_script_readme_quotes_exists():
    quoted = set(re.findall(r"scripts/(\w+\.(?:py|yaml))", (ROOT / "README.md").read_text()))
    assert {"gamma_sweep.py", "gamma_sweep.yaml"} <= quoted
    assert sorted(name for name in quoted if not (ROOT / "scripts" / name).is_file()) == []


def sweep_config(tmp_path, epochs, **sections):
    """The committed sweep config at ``epochs``, updated by ``sections``; its data and a temp copy."""
    data = yaml.safe_load((ROOT / "scripts" / "gamma_sweep.yaml").read_text())
    data["solver"]["epochs"] = epochs
    for section, body in sections.items():
        data[section] = {**data.get(section, {}), **body}
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(data))
    return data, path


def test_gamma_sweep_config_holds_the_sweep_defaults():
    cfg = read_config(ROOT / "scripts" / "gamma_sweep.yaml")
    array, solver = cfg.array, cfg.solver
    assert (array.num_antennas, array.code_length, cfg.num_angles, cfg.num_ranges) == (2, 16, 8, 4)
    assert (solver.outer_iters, solver.inner_tol, solver.outer_tol) == (150, 1e-6, 1e-9)
    assert (solver.rho, solver.seed, cfg.desired_peak) == (2.0, 0, 1.0)


def test_gamma_sweep(tmp_path):
    table = tmp_path / "sweep.csv"
    _, config = sweep_config(tmp_path, epochs=2)
    out = run_script("gamma_sweep.py", config, "--gammas", 0, 1, "--csv", table)
    assert "trace WISL" in out
    lines = table.read_text().splitlines()
    assert lines[0] == "gamma,matching_error,wisl,coupling_rms,seconds"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]


def test_gamma_sweep_targets_the_cli_grid_centre(tmp_path):
    table = tmp_path / "sweep.csv"
    data, config = sweep_config(tmp_path, epochs=1)
    run_script("gamma_sweep.py", config, "--gammas", 1, "--csv", table)
    swept = float(table.read_text().splitlines()[1].split(",")[1])
    # the same config through the CLI pipeline, whose config puts the target at the grid centre
    data["solver"]["gamma"] = 1.0
    cfg = config_from_dict({**data, "output": {"out_dir": str(tmp_path / "design")}})
    assert (cfg.angle_target, cfg.range_target) == (4, 2)  # 1-based
    design = run_design(cfg).state.trace[-1].beampattern_error
    assert swept == pytest.approx(design, rel=1e-9)


@pytest.mark.parametrize(
    "sections, args",
    [
        (None, []),  # no config file
        ({"solver": {"gama": 0.5}}, []),
        ({}, ["--gammas", 0, 2]),
        ({"array": {"M": 2, "N": 4}, "target": {"desired_peak": 1e200}}, []),  # start objective inf
    ],
    ids=["missing", "unknown-key", "gamma-above-1", "overflow"],
)
def test_gamma_sweep_config_errors_exit_2(tmp_path, sections, args):
    config = tmp_path / "missing.yaml" if sections is None else sweep_config(tmp_path, 1, **sections)[1]
    table = tmp_path / "sweep.csv"
    proc = script("gamma_sweep.py", config, *args, "--csv", table)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ") and "Traceback" not in proc.stderr
    assert not table.exists()


def test_gamma_sweep_prints_each_solve_time_in_ms(tmp_path):
    _, config = sweep_config(tmp_path, epochs=2)
    header, *rows = run_script("gamma_sweep.py", config).splitlines()
    assert header.split()[-1] == "ms"
    assert len(rows) == 5  # the default gammas
    assert all(float(row.split()[-1]) > 0 for row in rows), rows


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_gamma_sweep_unwritable_csv_exits_4(tmp_path, where):
    table = tmp_path if where == "directory" else tmp_path / "no_such_dir" / "sweep.csv"
    _, config = sweep_config(tmp_path, epochs=1)
    proc = script("gamma_sweep.py", config, "--gammas", 0, 1, "--csv", table)
    assert proc.returncode == 4
    assert proc.stderr.startswith("i/o error: ") and "Traceback" not in proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert "trace WISL" in header
    assert [row.split()[0] for row in rows] == ["0.00", "1.00"]


def test_artifact_digests_are_reproducible():
    first = run_script("artifact_digests.py", 303)
    desk = json.loads(first)["desk"]["303"]
    assert sorted(desk) == sorted(
        ["waveform.csv", "beampattern_angle.csv", "beampattern_range.csv", "correlation.csv", "trace.jsonl"]
    )
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in desk.values())
    assert run_script("artifact_digests.py", 303) == first


def load_bench_pairs():
    return load_script("bench_pairs")


def bench_run(side, pair, failed=0, **values):
    """One untraced ``bench_pairs`` run record of the ``desk`` workload with the given metric values."""
    metrics = {name: {"value": value} for name, value in values.items()}
    result = {"failed": failed, "metrics": metrics}
    return {"workload": "desk", "seed": 7, "trace": 0, "side": side, "pair": pair, "result": result}


def bench_pairs_of(parent, change, name="design_s"):
    return [
        bench_run(side, pair, **{name: value})
        for pair, values in enumerate(zip(parent, change), 1)
        for side, value in zip(("parent", "change"), values)
    ]


class TestBenchPairsSummarize:
    PARENT = [1.0 + 0.01 * i for i in range(10)]  # exclusive quartiles 1.0175 and 1.0725

    def summary(self, runs, better=None):
        return load_bench_pairs().summarize(runs, better or {})["desk seed 7"]

    def test_ties_count_for_neither_side(self):
        change = [p - 0.5 for p in self.PARENT[:9]] + self.PARENT[9:]
        entry = self.summary(bench_pairs_of(self.PARENT, change))["design_s"]
        assert (entry["pairs"], entry["change_wins"], entry["gain_shown"]) == (10, 9, True)
        change[8] = self.PARENT[8]  # a second tie leaves 8 wins of 10
        entry = self.summary(bench_pairs_of(self.PARENT, change))["design_s"]
        assert (entry["change_wins"], entry["gain_shown"]) == (8, False)

    def test_gain_needs_ten_pairs(self):
        change = [p - 0.5 for p in self.PARENT]
        entry = self.summary(bench_pairs_of(self.PARENT[:9], change[:9]))["design_s"]
        assert (entry["pairs"], entry["change_wins"], entry["gain_shown"]) == (9, 9, False)
        assert self.summary(bench_pairs_of(self.PARENT, change))["design_s"]["gain_shown"]

    def test_gain_needs_a_median_gap_wider_than_the_parent_iqr(self):
        change = [p - 0.04 for p in self.PARENT]  # every pair won, by less than the IQR
        entry = self.summary(bench_pairs_of(self.PARENT, change))["design_s"]
        assert entry["parent_iqr"] == pytest.approx(0.055)
        assert (entry["change_wins"], entry["gain_shown"]) == (10, False)

    def test_higher_is_better_flips_the_wins(self):
        change = [p - 0.5 for p in self.PARENT]
        entry = self.summary(bench_pairs_of(self.PARENT, change), {"design_s": "higher"})["design_s"]
        assert (entry["change_wins"], entry["gain_shown"]) == (0, False)

    def test_quality_metrics_get_max_rel_diff(self):
        change = [2.0] * 9 + [2.002]
        entry = self.summary(bench_pairs_of([2.0] * 10, change, name="objective"))["objective"]
        assert entry["max_rel_diff"] == pytest.approx(1e-3)
        assert "change_wins" not in entry and "gain_shown" not in entry

    def test_failed_runs_are_counted_per_side(self):
        runs = bench_pairs_of(self.PARENT, self.PARENT)
        runs[0] = bench_run("parent", 1, failed=3, design_s=self.PARENT[0])
        runs.append(bench_run("parent", 11, design_s=1.0))
        crashed = {"workload": "desk", "seed": 7, "trace": 0, "side": "change", "pair": 11}
        runs.append(dict(crashed, error="exit 1"))  # a run that printed no result
        summary = self.summary(runs)
        assert summary["failed_runs"] == {"parent": 1, "change": 1}
        assert summary["design_s"]["pairs"] == 10  # pair 11 has no change result


@pytest.mark.parametrize("plan", [["--pairs", "dsk=10"], ["--pairs", "desk=1", "--traced", "defualt=1"]])
def test_bench_pairs_refuses_unknown_workloads_before_any_run(monkeypatch, capsys, plan):
    module = load_bench_pairs()

    def refuse(*args):
        raise AssertionError("bench_pairs went past its argument checks")

    for name in ("harness_changes", "export_rev", "run_once"):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--rev", "HEAD", "--label", "unknown", "--seed", "1", *plan])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workloads" in err and "desk default match" in err


def test_bench_pairs_refuses_a_workload_named_twice(monkeypatch, capsys):
    module = load_bench_pairs()
    for name in ("harness_changes", "export_rev", "run_once"):
        monkeypatch.setattr(module, name, lambda *args: pytest.fail("went past the argument checks"))
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--rev", "HEAD", "--label", "twice", "--seed", "1", "--pairs", "desk=3", "desk=10"])
    assert exit_info.value.code == 2
    assert "workload 'desk' is named twice" in capsys.readouterr().err
    assert module.plan(["desk=3", "default=1"]) == {"desk": 3, "default": 1}


RESULT = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"design_s": {"value": 1.0, "unit": "s"}}}


def completed(stdout, returncode=0):
    return subprocess.CompletedProcess(["python3"], returncode, stdout=stdout, stderr="")


@pytest.mark.parametrize("last", ["not json", "42", '{"metrics": {}}', "[1, 2]"])
def test_bench_pairs_records_a_malformed_result_as_an_error(monkeypatch, last):
    module = load_bench_pairs()
    monkeypatch.setattr(module.subprocess, "run", lambda *a, **k: completed(f"provenance {{}}\n{last}\n"))
    assert module.run_once(ROOT, "desk", 1, 1.0, 0) == {"error": f"malformed: {last}"}


def test_bench_pairs_reads_provenance_and_result(monkeypatch):
    module = load_bench_pairs()
    stdout = 'provenance {"seed": 1}\n' + json.dumps(RESULT) + "\n"
    monkeypatch.setattr(module.subprocess, "run", lambda *a, **k: completed(stdout))
    assert module.run_once(ROOT, "desk", 1, 1.0, 0) == {"provenance": {"seed": 1}, "result": RESULT}


def test_bench_pairs_goes_on_after_a_malformed_run(monkeypatch, tmp_path):
    module = load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "EXPORT", tmp_path / ".bench_pairs")
    monkeypatch.setattr(module, "git", lambda *args: "")
    monkeypatch.setattr(module, "harness_changes", lambda rev: "")
    monkeypatch.setattr(module, "export_rev", lambda rev: tmp_path / "parent")
    outputs = iter(["provenance {}\nTraceback: not a result\n"] + [json.dumps(RESULT) + "\n"] * 3)
    monkeypatch.setattr(module.subprocess, "run", lambda *a, **k: completed(next(outputs)))
    assert module.main(["--rev", "HEAD", "--label", "t", "--seed", "1", "--pairs", "desk=2"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [("error" in run, run["side"], run["pair"]) for run in record["runs"]] == [
        (True, "parent", 1),
        (False, "change", 1),
        (False, "change", 2),
        (False, "parent", 2),
    ]
    summary = record["summary"]["desk seed 1"]
    assert summary["failed_runs"] == {"parent": 1, "change": 0}
    assert summary["design_s"]["pairs"] == 1


def test_bench_pairs_starts_every_run_with_no_bytecode_of_its_checkout(monkeypatch, tmp_path):
    # a __pycache__ kept in the working tree must not spare the change side the parent's compiles
    module = load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    parent = tmp_path / ".bench_pairs" / "parent"
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "EXPORT", tmp_path / ".bench_pairs")
    monkeypatch.setattr(module, "git", lambda *args: "")
    monkeypatch.setattr(module, "harness_changes", lambda rev: "")
    monkeypatch.setattr(module, "export_rev", lambda rev: parent)
    kept = tmp_path / "tests" / "__pycache__"  # a directory no run imports from
    kept.mkdir(parents=True)
    runs = []

    def run(cmd, cwd, **kwargs):
        root = Path(cwd)
        caches = [cache for part in ("src", "nfbench", "tests") for cache in (root / part).glob("**/__pycache__")]
        runs.append((root, kwargs, caches))
        for part in ("src/nfwave", "nfbench"):  # what a run that writes bytecode leaves behind
            (root / part / "__pycache__").mkdir(parents=True, exist_ok=True)
        return completed(json.dumps(RESULT) + "\n")

    monkeypatch.setattr(module.subprocess, "run", run)
    assert module.main(["--rev", "HEAD", "--label", "t", "--seed", "1", "--pairs", "desk=2"]) == 0
    assert [root for root, *_ in runs] == [parent, tmp_path, tmp_path, parent]
    assert [caches for *_, caches in runs] == [[], [kept], [kept], []]
    assert all(kwargs == runs[0][1] for _, kwargs, _ in runs)
    note = json.loads((tmp_path / "BENCH_t.json").read_text())["provenance_note"]
    assert "no __pycache__" in note
