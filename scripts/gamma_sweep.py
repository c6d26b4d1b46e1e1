#!/usr/bin/env python3
"""Sweep the matching/sidelobe trade-off weight and tabulate both figures of merit.

Runs the solver at several gamma values on a reduced problem and reports the
final beampattern matching error against the final WISL, so the knee
of the trade-off can be picked for a given application. The problem is built
by the CLI's config and its `design_inputs`, the set-up `run_design` uses, so
the delta target sits at the same grid centre as in an `nfwave design` run.
"""

import argparse
import sys
import time

import numpy as np

from nfwave import SolverConfig, cypmli
from nfwave.cli import config_from_dict, design_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--antennas", type=int, default=2)
    parser.add_argument("--samples", type=int, default=16)
    parser.add_argument("--angles", type=int, default=8)
    parser.add_argument("--ranges", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--desired-peak", type=float, default=1.0)
    parser.add_argument("--gammas", type=float, nargs="+",
                        default=[0.0, 0.25, 0.5, 0.75, 1.0])
    parser.add_argument("--csv", default=None, help="optional output table path")
    args = parser.parse_args()

    problem = config_from_dict(
        {
            "array": {"M": args.antennas, "N": args.samples},
            "grid": {"K1": args.angles, "K2": args.ranges},
            "target": {"desired_peak": args.desired_peak},
        }
    )
    ctx, desired, profile = design_inputs(problem)

    rows = []
    print(f"{'gamma':>6} {'matching error':>16} {'trace WISL':>14} "
          f"{'coupling rms':>13} {'seconds':>8}")
    for gamma in args.gammas:
        cfg = SolverConfig(
            gamma=gamma, rho=2.0, outer_iters=args.epochs, inner_tol=1e-6,
            outer_tol=1e-9, seed=args.seed,
        )
        start = time.perf_counter()
        state = cypmli(ctx, desired, profile, cfg)
        elapsed = time.perf_counter() - start
        last = state.trace[-1]
        coupling = last.coupling / np.sqrt(args.samples * args.antennas)
        rows.append((gamma, last.beampattern_error, last.wisl, coupling, elapsed))
        print(f"{gamma:6.2f} {last.beampattern_error:16.6e} {last.wisl:14.6e} "
              f"{coupling:13.2e} {elapsed:8.1f}")

    if args.csv:
        with open(args.csv, "w", newline="\n") as fh:
            fh.write("gamma,matching_error,wisl,coupling_rms,seconds\n")
            for row in rows:
                fh.write(",".join(format(x, ".17g") for x in row) + "\n")
        print(f"table written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
