#!/usr/bin/env python3
"""Sweep the matching/sidelobe trade-off weight and tabulate both figures of merit.

Reads one design config (``scripts/gamma_sweep.yaml`` is the reduced problem
README quotes) with ``nfwave.cli.read_config``, builds its problem once with
``design_inputs``, the set-up of ``nfwave design``, and solves it once per γ
with the config's solver settings at that γ. It reports the final beampattern
matching error against the final WISL, so the knee of the trade-off can be
picked for a given application. Failures exit through ``nfwave.cli.exit_code``,
as in ``nfwave design``: 2 for a config error, a γ outside [0, 1] or a start
objective that is not finite, and 4 for a ``--csv`` that cannot be written.
"""

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from nfwave import cypmli
from nfwave.cli import ConfigError, _matrix_csv, design_inputs, exit_code, read_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="path to the YAML design config")
    parser.add_argument("--gammas", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 1.0],
                        help="blend weights to solve at, each in [0, 1]")
    parser.add_argument("--csv", default=None, help="optional output table path")
    args = parser.parse_args(argv)

    rows = []
    try:
        cfg = read_config(args.config)
        solvers = [dataclasses.replace(cfg.solver, gamma=gamma) for gamma in args.gammas]
        ctx, desired, profile = design_inputs(cfg)
        print(f"{'gamma':>6} {'matching error':>16} {'trace WISL':>14} "
              f"{'coupling rms':>13} {'ms':>8}")
        for solver in solvers:
            start = time.perf_counter()
            state = cypmli(ctx, desired, profile, solver)
            elapsed = time.perf_counter() - start
            last = state.trace[-1]
            coupling = last.coupling / math.sqrt(cfg.array.code_length * cfg.array.num_antennas)
            rows.append((solver.gamma, last.beampattern_error, last.wisl, coupling, elapsed))
            print(f"{solver.gamma:6.2f} {last.beampattern_error:16.6e} {last.wisl:14.6e} "
                  f"{coupling:13.2e} {elapsed * 1e3:8.1f}")
        if args.csv:
            header = ["gamma", "matching_error", "wisl", "coupling_rms", "seconds"]
            Path(args.csv).write_text(_matrix_csv(header, rows), newline="\n")
            print(f"table written to {args.csv}")
    except (ConfigError, ValueError, OSError) as exc:
        return exit_code(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
