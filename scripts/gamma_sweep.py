#!/usr/bin/env python3
"""Sweep the matching/sidelobe trade-off weight and tabulate both figures of merit.

Runs the solver at several gamma values on a reduced problem and reports the
final beampattern matching error against the final WISL, so the knee
of the trade-off can be picked for a given application.
"""

import argparse
import sys
import time

import numpy as np

from nfwave import (
    ArrayConfig,
    DesiredBeampattern,
    SolverConfig,
    WislProfile,
    build_grid,
    build_steering_context,
    cypmli,
)


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

    array = ArrayConfig(args.antennas, args.samples, 1.0e9, 2.0e8)
    grid = build_grid(args.angles, args.ranges, args.samples)
    ctx = build_steering_context(array, grid)
    desired = DesiredBeampattern.delta(
        grid, grid.num_angles // 2, grid.num_ranges // 2, peak=args.desired_peak
    )
    profile = WislProfile.uniform(args.samples)

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
