"""Fast self-tests of the benchmark harness: ``python3 -m pytest -q nfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

import run
import worker
from metrics import ALL, END_TO_END, PER_LAYER
from spans import HOOKS, Tracer, self_times
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

TINY = Workload(
    name="tiny",
    why="harness self-test",
    array={"M": 2, "N": 8},
    grid={"K1": 4, "K2": 2},
    solver={"gamma": 0.5, "epochs": 2},
    desired_peak=1.0,
    inputs=1,
)


def _spec(tmp_path: Path, trace: bool) -> dict:
    out = tmp_path / ("traced" if trace else "plain")
    return {
        "root": str(ROOT),
        "config": TINY.config(5, str(out)),
        "half_cycles": TINY.half_cycles,
        "trace": trace,
    }


def test_benchmark_json_matches_the_metric_and_workload_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == [
            (m.name, m.unit, m.better) for m in table
        ]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_metric_is_emitted_with_a_unit(tmp_path):
    plain = worker.main(_spec(tmp_path, trace=False))
    traced = worker.main(_spec(tmp_path, trace=True))
    for r, traced_run in ((plain, False), (traced, True)):
        r.update(index=0, traced=traced_run, setup_s=0.1, wall_s=1.0)
    assert plain["failures"] == [] and traced["failures"] == []

    e2e = run.end_to_end([plain])
    layers = run.per_layer([plain, traced])
    assert set(e2e) == {m.name for m in END_TO_END}
    assert set(layers) == {m.name for m in PER_LAYER}
    for name, value in {**e2e, **layers}.items():
        assert ALL[name].unit and np.isfinite(value), name
    assert layers["solver.half_cycles"] == TINY.half_cycles
    assert layers["nearfield.contrast"] <= layers["nearfield.contrast_cap"]


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path):
    plain = worker.main(_spec(tmp_path, trace=False))
    traced = worker.main(_spec(tmp_path, trace=True))
    assert plain["digests"] == traced["digests"]
    assert traced["absent"] == []


def test_span_self_times_are_nonnegative_and_within_wall_time(tmp_path):
    import nfwave.cli as cli

    spec = _spec(tmp_path, trace=True)
    start = perf_counter()
    with Tracer() as tracer:
        cli.run_design(cli.config_from_dict(spec["config"]))
    wall = perf_counter() - start
    own = self_times(tracer.spans)
    assert len(own) > 0
    assert min(own) >= -1e-9
    assert sum(own) <= wall
    assert tracer.restored()


def test_missing_hook_target_is_reported_absent_and_the_run_goes_on(tmp_path):
    import nfwave.cli as cli
    import nfwave.objective as objective

    gram = objective.WislOperator.gram
    hooks = HOOKS + [("objective.gone", "nfwave.objective", "NoSuchOperator.apply", None)]
    with Tracer(hooks) as tracer:
        assert objective.WislOperator.gram is not gram
        cli.run_design(cli.config_from_dict(_spec(tmp_path, trace=True)["config"]))
    assert tracer.absent == ["objective.gone"]
    assert tracer.restored() and objective.WislOperator.gram is gram


def _state(objectives, stages, warnings=(), values=None):
    trace = [SimpleNamespace(objective=o, stage=s) for o, s in zip(objectives, stages)]
    x1 = SimpleNamespace(values=np.ones((4, 2), dtype=complex) if values is None else values)
    return SimpleNamespace(x1=x1, warnings=list(warnings), trace=trace)


@pytest.mark.parametrize(
    "state, half_cycles, message",
    [
        (_state([3.0, 2.5, 2.0], ["init", "x2", "x1"], values=np.full((4, 2), 1.001 + 0j)), 2, "unimodular"),
        (_state([3.0, 2.5, 2.0], ["init", "x2", "x1"], warnings=["no convergence"]), 2, "warning"),
        (_state([3.0, 2.5, 2.0, 2.5, 2.1], ["init", "x2", "x1", "x2", "x1"]), 4, "rose"),
        (_state([3.0, 3.5, 3.02], ["init", "x2", "x1"]), 2, "above the initial"),
        (_state([3.0, 2.5, 2.0], ["init", "x2", "x1"]), 4, "half-cycles"),
    ],
)
def test_output_checks_flag_each_kind_of_bad_output(state, half_cycles, message):
    failures = worker.output_failures(state, half_cycles, 1e-12)
    assert len(failures) == 1 and message in failures[0]


def test_repeats_with_different_artifacts_fail():
    runs = [
        {"index": 0, "digests": {"a": "1"}, "failures": []},
        {"index": 1, "digests": {"a": "2"}, "failures": []},
        {"index": 0, "digests": {"a": "1"}, "failures": []},
        {"index": 0, "digests": {"a": "3"}, "failures": []},
    ]
    run.check_repeats(runs)
    assert [bool(r["failures"]) for r in runs] == [False, False, False, True]


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "nfbench", tmp_path / "nfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "nfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
