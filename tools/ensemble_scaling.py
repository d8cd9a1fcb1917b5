"""Time config-by-config runs against one batched march, per group size.

    python3 tools/ensemble_scaling.py

For family-style groups (one N=64 member per alpha x n x potential,
randomised as in the criterion 2-3 suite and the family_sweep benchmark)
of B = 2, 3, 6 and 18 members, and for lift-off families (N=256, one
member per delta) of B = 3 and 7 members, times `[run(c) for c in
configs]` ("serial") and the batched march that `run_many` uses for a
group on one grid ("batched"), alternating, REPEATS times each.  Prints
one line per group with both median wall times and their ratio, and
checks that every batched member's final height matches its serial run
to rtol 1e-7.  `driver._BATCH_MIN` is taken from this table: the smallest
group size from which the batch is no slower.  Times are unscaled
wall-clock seconds on the host it runs on; tfilm is imported from `src/`
beside this directory.
"""

import itertools
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tfilm import driver  # noqa: E402
from tfilm.driver import InitialDataSpec, RunConfig  # noqa: E402
from tfilm.experiments import liftoff_configs  # noqa: E402
from tfilm.grid import Grid  # noqa: E402
from tfilm.models import (  # noqa: E402
    ModelParams,
    power_mobility,
    quadratic_potential,
    zero_potential,
)
from tfilm.step import StepParams  # noqa: E402

REPEATS = 7
FAMILY_SIZES = (2, 3, 6, 18)
LIFTOFF_SIZES = (3, 7)
COMBOS = list(itertools.product([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], ["zero", "quadratic"]))


def family(B, seed=31337, n_steps=15):
    """B of the 18 alpha x n x potential members, spread over the combinations."""
    rng = np.random.default_rng(seed)
    g = Grid(1.0, 64)
    x = g.cell_centers()
    configs = []
    for alpha, n, pk in COMBOS:
        coeffs = rng.standard_normal(4) / np.arange(1, 5) ** 2
        u0 = np.maximum(1.0 + 0.4 * sum(c * np.cos((k + 1) * np.pi * x)
                                        for k, c in enumerate(coeffs)), 0.3)
        pot = zero_potential() if pk == "zero" else \
            quadratic_potential(float(rng.uniform(0.2, 2.0)))
        h = float(rng.choice([1e-5, 2e-5]))
        configs.append(RunConfig(
            grid=g, model=ModelParams(alpha=alpha, mobility=power_mobility(n), potential=pot,
                                      sigma=0.05),
            step=StepParams(h=h, tol_grad=1e-8), T=n_steps * h,
            initial=InitialDataSpec("values", values=tuple(u0))))
    picks = np.unique(np.linspace(0, len(configs) - 1, B).round().astype(int))
    return [configs[i] for i in picks]


def liftoff(B, n_steps=40):
    h = 1e-5
    return liftoff_configs(np.geomspace(1e-1, 1e-3, B), M=1.0, n=2.0, alpha=1.0,
                           grid=Grid(1.0, 256), step=StepParams(h=h, tol_grad=1e-8),
                           T=n_steps * h)


def measure(configs):
    serial_s, batched_s = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        serial = [driver.run(c) for c in configs]
        t1 = time.perf_counter()
        batched = driver._march_batch(configs)
        t2 = time.perf_counter()
        serial_s.append(t1 - t0)
        batched_s.append(t2 - t1)
    for s, b in zip(serial, batched):
        ref, got = s.snapshots[max(s.snapshots)], b.snapshots[max(b.snapshots)]
        if np.max(np.abs(got - ref)) > 1e-7 * np.max(np.abs(ref)):
            raise SystemExit(f"batched member differs from its serial run: {s.config}")
    return statistics.median(serial_s), statistics.median(batched_s)


def main():
    print(f"{'group':>8} {'B':>3} {'N':>4} {'serial_s':>9} {'batched_s':>9} {'speedup':>7}")
    cases = [("family", B, family(B)) for B in FAMILY_SIZES]
    cases += [("liftoff", B, liftoff(B)) for B in LIFTOFF_SIZES]
    for name, B, configs in cases:
        serial_s, batched_s = measure(configs)
        print(f"{name:>8} {B:>3} {configs[0].grid.N:>4} {serial_s:>9.4f} {batched_s:>9.4f} "
              f"{serial_s / batched_s:>7.2f}", flush=True)
    print(f"run_many batches groups of at least driver._BATCH_MIN = {driver._BATCH_MIN}")


if __name__ == "__main__":
    main()
