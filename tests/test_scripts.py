"""Smoke runs of the experiment scripts in ``scripts/``: they import the public API and run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_default_design(tmp_path):
    out = run_script("run_default_design.py", "--epochs", 1, "--out-dir", tmp_path / "design")
    assert "trace WISL" in out
    assert "direct WISL" in out
    assert (tmp_path / "design" / "waveform.csv").is_file()


def test_gamma_sweep(tmp_path):
    table = tmp_path / "sweep.csv"
    out = run_script("gamma_sweep.py", "--epochs", 2, "--gammas", 0, 1, "--csv", table)
    assert "trace WISL" in out
    lines = table.read_text().splitlines()
    assert lines[0] == "gamma,matching_error,wisl,coupling_rms,seconds"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
