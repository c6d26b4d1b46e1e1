"""The benchmark's workloads and the inputs each one derives from ``--seed``.

Every workload uses uniform lag weights, rho = 2 and a delta target at the grid
centre (the config defaults for ``k1_star``/``k2_star``), and runs a fixed
number of outer cycles: ``outer_tol`` is set so small that only an objective
that stops changing exactly could end a run early, and the output checks treat
that as a failure.

One workload input is a design config whose solver seed is drawn from
``--seed``. How much work a design does depends on its start waveform (power
iterations and inner steps vary by up to half between seeds), so each
benchmark run cycles through ``inputs`` start seeds and reports figures over
all of them; a single start seed would make the timing of one ``--seed`` differ
from the next by more than the regressions the benchmark must catch.
"""

from __future__ import annotations

from dataclasses import dataclass

# Far apart, so the start seeds of different --seed values never coincide.
_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    array: dict
    grid: dict
    solver: dict
    desired_peak: float
    inputs: int  # start seeds per benchmark run

    def config(self, solver_seed: int, out_dir: str) -> dict:
        """Nested config for ``nfwave.cli.config_from_dict``."""
        return {
            "array": dict(self.array),
            "grid": dict(self.grid),
            "solver": dict(
                self.solver, rho=2.0, outer_tol=1e-300, weights="uniform", seed=solver_seed
            ),
            "target": {"desired_peak": self.desired_peak},
            "output": {"out_dir": out_dir},
        }

    @property
    def half_cycles(self) -> int:
        return 2 * self.solver["epochs"]

    def solver_seeds(self, seed: int) -> list[int]:
        """Start seeds of one run; the first is ``seed`` itself."""
        return [seed + i * _SEED_STRIDE for i in range(self.inputs)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="desk",
            why=(
                "M2 N16 8x4 (criterion-6 setup): tiny operators, so fixed per-call costs (Python "
                "loops, eigen estimate, trace diagnostics, artifact writing) are a large share of design_s"
            ),
            array={"M": 2, "N": 16},
            grid={"K1": 8, "K2": 4},
            solver={"gamma": 0.5, "inner_tol": 1e-6, "epochs": 100},
            desired_peak=1.0,
            inputs=16,
        ),
        Workload(
            name="default",
            why=(
                "M4 N64 20x10 reference setup: the WISL Gram build is ~80% of each half-cycle, "
                "so objective.wisl_gram_s moves halfcycle_ms here"
            ),
            array={"M": 4, "N": 64},
            grid={"K1": 20, "K2": 10},
            solver={"gamma": 0.5, "epochs": 10},
            desired_peak=1.0,
            inputs=6,
        ),
        Workload(
            name="match",
            why=(
                "M8 N32 40x20, gamma 1, peak M*N: no Gram is built and weighted_apply dominates, "
                "so objective.match_apply_s and lambda_s move halfcycle_ms; the Gram path is bypassed"
            ),
            array={"M": 8, "N": 32},
            grid={"K1": 40, "K2": 20},
            solver={"gamma": 1.0, "epochs": 10},
            desired_peak=256.0,
            inputs=12,
        ),
    ]
}
