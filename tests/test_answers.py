"""The answer ledger: every benchmark workload design must keep the waveform it had.

``tests/data/answers.json`` holds, for each workload of ``nfbench/workloads.py``
at start seeds 303-305, the final phases of copy 1 and the last trace record,
and nothing else: artifact digests are compared by running
``scripts/artifact_digests.py`` on two checkouts. The designs are rerun
in process by the same function that wrote the file, and the answer must
match it: each waveform entry ``exp(1j * phase)`` to 1e-9 (so a phase that
wraps at 0/2pi does not fail), the objective, WISL and matching error to 1e-9
relative and the coupling to 1e-9 absolute. These tolerances pass rounding
differences between BLAS builds and fail any algorithmic move.

Only a change that means to move the answer regenerates the file, and it says
so as a change of test data with the old and new quality figures. From the
repository root, regeneration is one call:

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 -c "import runpy; runpy.run_path('scripts/artifact_digests.py')['write_answers']()"

Imported, the script pins no BLAS threads (only running it as a script
does), so the call sets the three thread variables itself.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PHASE_TOL = 1e-9
RELATIVE_TOL = 1e-9
COUPLING_TOL = 1e-9


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Every way the answers ``actual`` differ from the ledger ``expected``; empty when they match."""
    if sorted(expected) != sorted(actual):
        return [f"workloads {sorted(expected)} != {sorted(actual)}"]
    found = []
    for name, seeds in expected.items():
        if sorted(seeds) != sorted(actual[name]):
            found.append(f"{name}: seeds {sorted(seeds)} != {sorted(actual[name])}")
            continue
        for seed, want in seeds.items():
            got = actual[name][seed]
            where = f"{name} seed {seed}"
            a, b = (np.exp(1j * np.asarray(entry["phases"])) for entry in (want, got))
            if a.shape != b.shape or not np.max(np.abs(a - b)) <= PHASE_TOL:
                found.append(f"{where}: phases")
            last, now = want["last"], got["last"]
            for key in ("outer", "stage"):
                if last[key] != now[key]:
                    found.append(f"{where}: {key} {last[key]!r} != {now[key]!r}")
            for key in ("objective", "wisl", "beampattern_error"):
                if not abs(now[key] - last[key]) <= RELATIVE_TOL * abs(last[key]):
                    found.append(f"{where}: {key} {last[key]!r} != {now[key]!r}")
            if not abs(now["coupling"] - last["coupling"]) <= COUPLING_TOL:
                found.append(f"{where}: coupling {last['coupling']!r} != {now['coupling']!r}")
    return found


@pytest.fixture(scope="module")
def digest_script():
    """``scripts/artifact_digests.py`` as a module."""
    return load_script("artifact_digests")


@pytest.mark.parametrize("run_name, pinned", [("artifact_digests", None), ("__main__", "1")])
def test_only_the_script_run_pins_blas_threads(run_name, pinned):
    # --help exits in argparse, after the imports and before any design runs
    code = (
        "import os, runpy, sys\n"
        "sys.argv = ['artifact_digests.py', '--help']\n"
        "try:\n"
        f"    runpy.run_path({str(ROOT / 'scripts' / 'artifact_digests.py')!r}, run_name={run_name!r})\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print([os.environ.get(var) for var in {THREAD_VARS!r}])\n"
    )
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr([pinned] * len(THREAD_VARS))


@pytest.fixture(scope="module")
def fresh(digest_script, tmp_path_factory):
    """A ledger written now by ``write_answers``: (the file read back, the dict it returned)."""
    path = tmp_path_factory.mktemp("answers") / "answers.json"
    returned = digest_script.write_answers(path)
    return json.loads(path.read_text()), returned


def test_committed_answers_hold(digest_script, fresh):
    committed = json.loads(digest_script.ANSWERS.read_text())
    assert sorted(committed) == sorted(digest_script.load_workloads())
    for ledger in (committed, fresh[0]):
        assert all(sorted(entry) == ["last", "phases"] for seeds in ledger.values() for entry in seeds.values())
    assert mismatches(committed, fresh[0]) == []


def test_fresh_ledger_passes(fresh):
    written, returned = fresh
    assert all(sorted(seeds) == ["303", "304", "305"] for seeds in written.values())
    assert mismatches(written, returned) == []


def _moved(ledger: dict, change) -> dict:
    copy = json.loads(json.dumps(ledger))
    change(copy)
    return copy


def _bump_phase(ledger, by):
    ledger["default"]["304"]["phases"][5][2] += by


def _edit(workload, seed, key, new):
    """A change that replaces the value ``v`` of ``key`` in one last trace record by ``new(v)``."""

    def change(ledger):
        last = ledger[workload][seed]["last"]
        last[key] = new(last[key])

    return change


def _relative(v):
    return v * (1 + 1e-6)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda ledger: _bump_phase(ledger, 1e-6), id="phase-1e-6-rad"),
        pytest.param(_edit("match", "303", "objective", _relative), id="objective-1e-6-rel"),
        pytest.param(_edit("default", "305", "wisl", _relative), id="wisl-1e-6-rel"),
        pytest.param(_edit("desk", "303", "beampattern_error", _relative), id="beampattern_error-1e-6-rel"),
        pytest.param(_edit("desk", "305", "coupling", lambda v: v + 1e-6), id="coupling-1e-6"),
        pytest.param(_edit("desk", "305", "outer", lambda v: v - 1), id="outer"),
        pytest.param(lambda ledger: ledger["desk"].pop("304"), id="missing-seed"),
        pytest.param(lambda ledger: ledger.pop("match"), id="missing-workload"),
        pytest.param(lambda ledger: ledger.__setitem__("large", {}), id="extra-workload"),
    ],
)
def test_a_moved_answer_fails(fresh, change):
    written, returned = fresh
    assert len(mismatches(_moved(written, change), returned)) == 1


def test_a_phase_wrapped_by_two_pi_passes(fresh):
    written, returned = fresh
    assert mismatches(_moved(written, lambda ledger: _bump_phase(ledger, 2 * math.pi)), returned) == []
