"""nfwave design benchmark.

    python3 nfbench/run.py --workload {desk,default,match} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/nfwave`` must exist). Each design
runs in a fresh single-threaded process (``worker.py``, BLAS/OpenMP threads
pinned to 1) through the user-facing pipeline ``config_from_dict`` ->
``run_design``, with artifacts written under ``.nfbench_work/`` and removed
afterwards. Runs start until ``--seconds`` would be exceeded, cycling through
the workload's start seeds (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics as medians over the runs.
``--trace 1`` alternates untraced and traced designs of the first start seed
and reports the per-layer metrics (``metrics.py``) as medians over the traced
ones. Every run's outputs are checked (``worker.output_failures``), and the
artifacts of repeats of one start seed, traced or not, must be byte-identical.
A run failing any check counts in ``failed``. The last line of stdout is the
JSON result; the lines before it are a readable table and the provenance.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from metrics import ALL, END_TO_END, PER_LAYER
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".nfbench_work"
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
RUN_TIMEOUT_S = 90
# No run starts after this many seconds, so a benchmark run ends within 180 s.
LAST_START_S = 70


def design(workload: Workload, solver_seed: int, trace: bool, tag: str) -> dict:
    """Run one design in a fresh process and return its figures.

    A run that crashes or times out comes back with only ``failures``.
    """
    out_dir = WORK / tag
    spec = {
        "root": str(ROOT),
        "config": workload.config(solver_seed, str(out_dir)),
        "half_cycles": workload.half_cycles,
        "trace": trace,
    }
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {RUN_TIMEOUT_S} s"], "wall_s": perf_counter() - start}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    wall = perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"exit {proc.returncode}: {tail[0]}"], "wall_s": wall}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_enter"] - start
    result["wall_s"] = wall
    return result


def run_all(workload: Workload, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Start designs until the next one would end past ``seconds``.

    Untraced: cycle through every start seed, each at least once and the first
    twice. Traced: alternate untraced and traced designs of the first start
    seed, at least two of each.
    """
    seeds = workload.solver_seeds(seed)
    minimum = 4 if trace else len(seeds) + 1
    runs: list[dict] = []
    start = perf_counter()
    while True:
        i = len(runs)
        traced = trace and i % 2 == 1
        index = 0 if trace else i % len(seeds)
        run = design(workload, seeds[index], traced, f"run{i}")
        run.update(index=index, traced=traced)
        runs.append(run)
        elapsed = perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in runs)
        if (len(runs) >= minimum and elapsed + typical > seconds) or elapsed > LAST_START_S:
            return runs


def check_repeats(runs: list[dict]) -> None:
    """Fail any run whose artifacts differ from the first run of its start seed."""
    first: dict[int, dict] = {}
    for run in runs:
        if "digests" not in run:
            continue
        ref = first.setdefault(run["index"], run)
        if run["digests"] != ref["digests"]:
            differ = sorted(k for k in run["digests"] if run["digests"][k] != ref["digests"].get(k))
            run["failures"].append(f"artifacts differ from the first run of this seed: {differ}")


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """Timings are medians over runs; quality figures are medians over start seeds."""
    done = [r for r in runs if "design_s" in r]
    first = {r["index"]: r for r in reversed(done)}.values()

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    return {
        "setup_s": med("setup_s", done),
        "design_s": med("design_s", done),
        "halfcycle_ms": statistics.median(1e3 * r["design_s"] / r["half_cycles"] for r in done),
        "peak_rss_mb": med("peak_rss_mb", done),
        "objective": med("objective", first),
        "wisl_ratio": med("wisl_ratio", first),
        "matching_error": med("matching_error", first),
    }


def per_layer(runs: list[dict]) -> dict[str, float]:
    traced = [r for r in runs if r["traced"] and "layers" in r]
    plain = [r for r in runs if not r["traced"] and "design_s" in r]
    out = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    out["trace.overhead_s"] = statistics.median(r["design_s"] for r in traced) - statistics.median(
        r["design_s"] for r in plain
    )
    return out


def provenance(workload: Workload, args, runs: list[dict], load_start) -> dict:
    src = ROOT / "src" / "nfwave"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    done = [r for r in runs if "design_s" in r]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": args.seed,
        "solver_seeds": workload.solver_seeds(args.seed),
        "seconds": args.seconds,
        "runs": len(runs),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "design_s_quartiles": statistics.quantiles([r["design_s"] for r in done], n=4)
        if len(done) > 1
        else None,
        "wall_s_median": statistics.median(r["wall_s"] for r in runs),
        "cpu_s_median": statistics.median(r["cpu_s"] for r in done),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "nfwave" / "__init__.py").is_file():
        print(f"error: no nfwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    load_start = list(os.getloadavg())
    compileall.compile_dir(ROOT / "src", quiet=1)
    try:
        runs = run_all(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    check_repeats(runs)
    failed = [r for r in runs if r["failures"]]
    for r in failed:
        print(f"FAILED run (start seed #{r['index']}): {'; '.join(r['failures'])}")
    try:
        values = per_layer(runs) if args.trace else end_to_end(runs)
    except (IndexError, statistics.StatisticsError):
        print("error: no design completed", file=sys.stderr)
        return 1

    names = [m.name for m in (PER_LAYER if args.trace else END_TO_END)]
    for name in names:
        print(f"{name:32s} {values[name]:>16.6g} {ALL[name].unit}")
    print(f"{'fail_rate':32s} {len(failed) / len(runs):>16.6g} 1  ({len(failed)}/{len(runs)} runs)")
    absent = sorted({layer for r in runs for layer in r.get("absent", [])})
    if absent:
        print(f"absent layers (reported as 0): {', '.join(absent)}")
    print("provenance " + json.dumps(provenance(workload, args, runs, load_start)))
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": ALL[name].unit} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
