"""Alternating parent/change runs of the nfwave benchmark, recorded in one file.

    python3 scripts/bench_pairs.py --rev REV --label LABEL --seed S \\
        --pairs default=10 desk=3 match=3 [--traced default=1 match=1]

The parent side is ``git archive REV`` exported under ``.bench_pairs/`` (removed
afterwards); the change side is the working tree. Pair i of a workload runs
``nfbench/run.py`` once on each side, the parent first when i is odd and the
change first when i is even, each side with its own copy of ``nfbench``.
Every run lasts ``run_seconds`` of ``BENCHMARK.json``. ``--pairs`` gives
untraced pairs (end-to-end metrics), ``--traced`` traced pairs (per-layer
metrics). Every run's provenance and JSON result go to ``BENCH_<LABEL>.json``,
rewritten after each run, with a summary per workload: each side's values,
median and quartiles and the parent's interquartile range. For the cost metrics
it adds the number of pairs the change won (ties count for neither) and whether
that is a gain by the benchmark's rule: at least 10 pairs, wins in at least 9/10
of them and a median gap wider than the parent's interquartile range. The
quality metrics are expected to agree with the parent, so for them it gives the
largest relative difference over the pairs instead.

The script refuses to run when ``nfbench/`` or ``BENCHMARK.json`` differ from
REV, since both sides must be timed by the same harness.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPORT = ROOT / ".bench_pairs"
HARNESS = ("nfbench", "BENCHMARK.json")
QUALITY = ("objective", "wisl_ratio", "matching_error")
RESULT_KEYS = {"attempted", "failed", "metrics"}
MIN_PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def export_rev(rev: str) -> Path:
    """Extract the committed tree of ``rev`` into a fresh directory and return it."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    dest = EXPORT / sha
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def harness_changes(rev: str) -> str:
    """Files of the benchmark harness that differ from ``rev`` in the working tree."""
    return git("diff", "--name-only", rev, "--", *HARNESS) + git(
        "ls-files", "--others", "--exclude-standard", "--", *HARNESS
    )


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``nfbench/run.py`` run in checkout ``root``: its provenance and JSON result.

    A run that exits nonzero, prints nothing, or whose last line is not a JSON
    result object comes back as ``{"error": ...}``, which the summary counts
    among ``failed_runs``; the pair sequence goes on.
    """
    cmd = [sys.executable, "nfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {proc.returncode}: {tail}"}
    prov = [line[len("provenance ") :] for line in lines if line.startswith("provenance ")]
    try:
        result = json.loads(lines[-1])
        provenance = json.loads(prov[-1]) if prov else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not RESULT_KEYS <= result.keys():
        return {"error": f"malformed: {lines[-1][:200]}"}
    return {"provenance": provenance, "result": result}


def quartiles(values: list[float]) -> list[float] | None:
    return statistics.quantiles(values, n=4) if len(values) > 1 else None


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: untraced metrics side by side with medians, quartiles and wins; traced medians."""
    summary = {}
    for workload, seed, trace in dict.fromkeys((r["workload"], r["seed"], r["trace"]) for r in runs):
        group = [r for r in runs if (r["workload"], r["seed"], r["trace"]) == (workload, seed, trace)]
        done = {
            side: {r["pair"]: r["result"]["metrics"] for r in group if r["side"] == side and "result" in r}
            for side in ("parent", "change")
        }
        pairs = sorted(set(done["parent"]) & set(done["change"]))
        names = list(done["parent"][pairs[0]]) if pairs else []
        failed = {
            side: sum(1 for r in group if r["side"] == side and ("error" in r or r["result"]["failed"]))
            for side in ("parent", "change")
        }
        if trace:
            entry = {
                name: {side: statistics.median(done[side][p][name]["value"] for p in pairs) for side in done}
                for name in names
            }
            summary[f"{workload} traced"] = dict(entry, failed_runs=failed)
            continue
        entry = {}
        for name in names:
            vals = {side: [done[side][p][name]["value"] for p in pairs] for side in done}
            pq = quartiles(vals["parent"])
            med = {side: statistics.median(v) for side, v in vals.items()}
            iqr = pq[2] - pq[0] if pq else None
            entry[name] = {
                **vals,
                "parent_median": med["parent"],
                "change_median": med["change"],
                "parent_quartiles": pq,
                "change_quartiles": quartiles(vals["change"]),
                "parent_iqr": iqr,
                "pairs": len(pairs),
                "rel_change": (med["change"] - med["parent"]) / med["parent"] if med["parent"] else None,
            }
            if name in QUALITY:
                entry[name]["max_rel_diff"] = max(
                    (abs(b - a) / abs(a) if a else abs(b) for a, b in zip(vals["parent"], vals["change"])),
                    default=None,
                )
                continue
            sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
            wins = sum(1 for a, b in zip(vals["parent"], vals["change"]) if sign * (b - a) > 0)
            entry[name]["change_wins"] = wins
            entry[name]["gain_shown"] = (
                len(pairs) >= MIN_PAIRS
                and wins >= 0.9 * len(pairs)
                and sign * (med["change"] - med["parent"]) > iqr
            )
        summary[f"{workload} seed {seed}"] = dict(entry, failed_runs=failed)
    return summary


def plan(text: list[str]) -> dict[str, int]:
    """Pair counts by workload from ``WORKLOAD=PAIRS`` items; a workload may be named once."""
    out = {}
    for item in text:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {item!r}")
        if name in out:
            raise argparse.ArgumentTypeError(f"workload {name!r} is named twice")
        out[name] = int(count)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="parent revision")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD=N")
    args = parser.parse_args(argv)
    try:
        untraced, traced = plan(args.pairs), plan(args.traced)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = sorted((set(untraced) | set(traced)) - set(known))
    if unknown:
        parser.error(f"unknown workloads {' '.join(unknown)}; BENCHMARK.json lists {' '.join(known)}")
    changed = harness_changes(args.rev)
    if changed:
        parser.error(f"the benchmark harness differs from {args.rev}: " + " ".join(changed.split()))
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    out_path = ROOT / f"BENCH_{args.label}.json"
    head = git("rev-parse", "HEAD").strip()
    dirty = " with uncommitted changes" if git("status", "--porcelain", "--", "src") else ""
    parent_root = export_rev(args.rev)
    record = {
        "what": f"Alternating parent/change runs of nfbench/run.py (--seconds {seconds:g})",
        "command": (
            f"python3 nfbench/run.py --workload <W> --seed {args.seed} --seconds {seconds:g} --trace <T>"
        ),
        "parent_rev": args.rev,
        "parent_git_sha": parent_root.name,
        "change": f"working tree at {head}{dirty}",
        "pairs": "pair i runs the parent first when i is odd and the change first when i is even",
        "provenance_note": (
            "parent runs come from a git archive export without git metadata, so their git_sha "
            "is null; src_sha256 identifies the sources of each side"
        ),
        "summary": {},
        "runs": [],
    }
    try:
        for trace, counts in ((0, untraced), (1, traced)):
            for workload, count in counts.items():
                for pair in range(1, count + 1):
                    order = ("parent", "change") if pair % 2 else ("change", "parent")
                    for side in order:
                        root = parent_root if side == "parent" else ROOT
                        run = run_once(root, workload, args.seed, seconds, trace)
                        record["runs"].append(
                            {
                                "workload": workload,
                                "seed": args.seed,
                                "trace": trace,
                                "side": side,
                                "pair": pair,
                                "ran_first": side == order[0],
                                **run,
                            }
                        )
                        record["summary"] = summarize(record["runs"], better)
                        out_path.write_text(json.dumps(record, indent=1) + "\n")
                        res = run.get("result")
                        status = run.get("error") or f"{res['failed']}/{res['attempted']} failed"
                        print(f"{workload} trace {trace} pair {pair} {side}: {status}", flush=True)
    finally:
        shutil.rmtree(EXPORT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
