"""Time config-by-config runs against one batched march, per group size.

    python3 tools/ensemble_scaling.py

For family-style groups (B of the 18 N=64 alpha x n x potential members
of the family_sweep benchmark at seed 31337, built by
``bench/workloads.build`` and used read-only) of B = 2, 3, 4, 6 and 18
members, and for lift-off families (N=256, one member per delta) of B = 3
and 7 members, times `[run(c) for c in configs]` ("serial") and the
batched march that `run_many` uses for a group of one grid and step count
("batched"), alternating, REPEATS times each.  Prints one line per group
with both median wall times, the median of the per-pair ratios
serial/batched and their interquartile range, and checks that every
batched member's final height matches its serial run to rtol 1e-7.
`driver._BATCH_MIN` is taken from this table: the smallest group size
from which the batch is no slower.  Times are unscaled wall-clock seconds
on the host it runs on; tfilm is imported from `src/` beside this
directory.
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tfilm import driver  # noqa: E402
from tfilm.experiments import liftoff_configs  # noqa: E402
from tfilm.grid import Grid  # noqa: E402
from tfilm.step import StepParams  # noqa: E402

REPEATS = 7
FAMILY_SIZES = (2, 3, 4, 6, 18)
LIFTOFF_SIZES = (3, 7)


def family(B):
    """B of the 18 family_sweep members, spread over the combinations."""
    with tempfile.TemporaryDirectory() as workdir:
        configs = workloads.build("family_sweep", 31337, "full", workdir).configs
    picks = np.unique(np.linspace(0, len(configs) - 1, B).round().astype(int))
    return [configs[i] for i in picks]


def liftoff(B, n_steps=40):
    h = 1e-5
    return liftoff_configs(np.geomspace(1e-1, 1e-3, B), M=1.0, n=2.0, alpha=1.0,
                           grid=Grid(1.0, 256), step=StepParams(h=h, tol_grad=1e-8),
                           T=n_steps * h)


def measure(configs):
    """Median serial and batched wall times, and the median and
    interquartile range of the per-pair ratios serial/batched."""
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
    q1, ratio, q3 = statistics.quantiles([s / b for s, b in zip(serial_s, batched_s)], n=4)
    return statistics.median(serial_s), statistics.median(batched_s), ratio, q3 - q1


def main():
    print(f"{'group':>8} {'B':>3} {'N':>4} {'serial_s':>9} {'batched_s':>9} {'speedup':>7} "
          f"{'iqr':>5}")
    cases = [("family", B, family(B)) for B in FAMILY_SIZES]
    cases += [("liftoff", B, liftoff(B)) for B in LIFTOFF_SIZES]
    for name, B, configs in cases:
        serial_s, batched_s, ratio, iqr = measure(configs)
        print(f"{name:>8} {B:>3} {configs[0].grid.N:>4} {serial_s:>9.4f} {batched_s:>9.4f} "
              f"{ratio:>7.2f} {iqr:>5.2f}", flush=True)
    print(f"run_many batches groups of at least driver._BATCH_MIN = {driver._BATCH_MIN}")


if __name__ == "__main__":
    main()
