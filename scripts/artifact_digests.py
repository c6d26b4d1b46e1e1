#!/usr/bin/env python3
"""Print the sha256 of every artifact of the benchmark's workload designs, as one JSON object.

    python3 scripts/artifact_digests.py SEED [SEED ...]

For each workload of ``nfbench/workloads.py`` and each start seed, runs
``nfwave.cli.run_design`` on the workload's config with that solver seed and
hashes the five files it writes. The output is
``{workload: {seed: {file: sha256}}}``. The code run is that of the checkout
this script lives in: ``nfwave`` from its ``src/`` and the workloads from its
``nfbench/``, which is read and not changed. BLAS runs on one thread, as in
the benchmark's workers. Running the script in two checkouts (for example a
``git archive`` export of a parent commit and the working tree) and comparing
the outputs shows whether a change moved any artifact bit.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nfwave.cli import config_from_dict, run_design  # noqa: E402


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("nfbench_workloads", ROOT / "nfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module.WORKLOADS


def digests(seeds: list[int]) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in load_workloads().items():
            out[name] = {}
            for seed in seeds:
                result = run_design(config_from_dict(workload.config(seed, f"{tmp}/{name}-{seed}")))
                out[name][str(seed)] = {
                    path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in result.paths
                }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="solver start seeds")
    args = parser.parse_args(argv)
    print(json.dumps(digests(args.seeds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
