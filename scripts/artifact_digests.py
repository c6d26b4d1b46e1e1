#!/usr/bin/env python3
"""Print the sha256 of every artifact of the benchmark's workload designs, as one JSON object.

    python3 scripts/artifact_digests.py SEED [SEED ...]

For each workload of ``nfbench/workloads.py`` and each start seed, runs
``nfwave.cli.run_design`` on the workload's config with that solver seed and
hashes the five files it writes. The output is
``{workload: {seed: {file: sha256}}}``. The code run is that of the checkout
this script lives in: ``nfwave`` from its ``src/`` and the workloads from its
``nfbench/``, which is read and not changed. Run as a script, it runs BLAS
on one thread, as in the benchmark's workers; imported, it leaves the
environment alone. Running the script in two checkouts (for example a
``git archive`` export of a parent commit and the working tree) and comparing
the outputs shows whether a change moved any artifact bit.

The same designs give the answer ledger ``tests/data/answers.json`` that
``tests/test_answers.py`` holds every change to: :func:`write_answers`
records, per workload and start seed, the final phases of copy 1 and the last
trace record. The ledger keeps no digest; this script's output is the one
record of them.
"""

import os

if __name__ == "__main__":  # pinned before numpy is imported; importing the module pins nothing
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nfwave.cli import config_from_dict, run_design  # noqa: E402

ANSWERS = ROOT / "tests" / "data" / "answers.json"
ANSWER_SEEDS = (303, 304, 305)


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("nfbench_workloads", ROOT / "nfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _designs(seeds):
    """Yield ``(workload, seed, run_result, {file: sha256})`` for every workload design."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in load_workloads().items():
            for seed in seeds:
                result = run_design(config_from_dict(workload.config(seed, f"{tmp}/{name}-{seed}")))
                sha = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in result.paths}
                yield name, str(seed), result, sha


def digests(seeds: list[int]) -> dict:
    out = {}
    for name, seed, _, sha in _designs(seeds):
        out.setdefault(name, {})[seed] = sha
    return out


def write_answers(path=ANSWERS) -> dict:
    """Write the answer ledger to ``path`` as JSON and return it.

    The ledger is ``{workload: {seed: {"phases", "last"}}}`` at
    ``ANSWER_SEEDS``: the final copy-1 phases as (N, M) nested lists and the
    last trace record as a dict.
    """
    ledger = {}
    for name, seed, result, _ in _designs(ANSWER_SEEDS):
        ledger.setdefault(name, {})[seed] = {
            "phases": np.angle(result.state.x1.values).tolist(),
            "last": result.state.trace[-1].as_dict(),
        }
    Path(path).write_text(json.dumps(ledger, indent=1) + "\n")
    return ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="solver start seeds")
    args = parser.parse_args(argv)
    print(json.dumps(digests(args.seeds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
