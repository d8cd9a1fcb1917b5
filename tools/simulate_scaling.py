"""Time `tfilm simulate` per rheology branch and grid size.

    python3 tools/simulate_scaling.py

For alpha 0.5 (shear-thickening), 1 (Newtonian) and 2 (shear-thinning),
and N in 128, 512 and 2048, runs `tfilm simulate` in-process REPEATS
times, each call STEPS time steps long, into a fresh temporary directory
and recording every step.  Prints one line per case with the median wall
time of the run (`cli.run`) and of the artifact writing
(`cli.write_timeseries`) per call, and the Newton iterations per step.
Times are unscaled wall-clock seconds on the host it runs on.  tfilm is
imported from `src/` beside this directory.  tol_grad is max(1e-7, 1000 x the roundoff floor
eps * max|u0| / dx^3), so that the solver can reach it at every N.
"""

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tfilm.cli  # noqa: E402
from tfilm.io import parse_config  # noqa: E402

ALPHAS = (0.5, 1.0, 2.0)
SIZES = (128, 512, 2048)
STEPS = 20
REPEATS = 5

# one film per rheology branch (the benchmark's films for alpha 0.5 and 2)
BRANCHES = {
    0.5: {"mobility": {"kind": "power", "n": 1.0}, "h": 1e-4,
          "initial": {"kind": "cosine", "M": 1.0, "amplitude": 0.3, "mode": 1}},
    1.0: {"mobility": {"kind": "power", "n": 3.0}, "h": 1e-6,
          "initial": {"kind": "cosine", "M": 1.0, "amplitude": 0.2, "mode": 1}},
    2.0: {"mobility": {"kind": "power", "n": 2.0}, "h": 1e-4, "eps0": 1e-3, "eps_min": 1e-9,
          "initial": {"kind": "lifted_parabola", "M": 1.0, "delta": 0.2}},
}


def config(alpha, N):
    data = {"L": 1.0, "N": N, "T": STEPS * BRANCHES[alpha]["h"], "alpha": alpha,
            "potential": "zero", "sigma": 0.01, "tol_grad": 1e-7, **BRANCHES[alpha]}
    cfg = parse_config(data)
    u0 = cfg.initial.build(cfg.grid)
    floor = np.finfo(float).eps * float(np.max(np.abs(u0))) / cfg.grid.dx**3
    data["tol_grad"] = max(data["tol_grad"], 1e3 * floor)
    return data


def timed(name, spent):
    """Wrap cli.<name> so that each call appends its wall time to `spent`."""
    fn = getattr(tfilm.cli, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - t0)

    setattr(tfilm.cli, name, wrapper)
    return fn


def measure(data, workdir):
    run_s, write_s = [], []
    originals = {name: timed(name, spent)
                 for name, spent in (("run", run_s), ("write_timeseries", write_s))}
    try:
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(data))
        for _ in range(REPEATS):
            out = tempfile.mkdtemp(dir=workdir)
            code = tfilm.cli.main(["simulate", "--config", str(path), "--out", out])
            if code != 0:
                raise SystemExit(f"simulate exited {code} for {data}")
        iters = np.loadtxt(Path(out) / "diagnostics.csv", delimiter=",", skiprows=1,
                           usecols=-1, ndmin=1)[1:]
    finally:
        for name, fn in originals.items():
            setattr(tfilm.cli, name, fn)
    return statistics.median(run_s), statistics.median(write_s), float(np.mean(iters))


def main():
    print(f"{'alpha':>5} {'N':>5} {'run_s':>9} {'write_s':>9} {'newton/step':>11}")
    with tempfile.TemporaryDirectory() as workdir:
        for alpha in ALPHAS:
            for N in SIZES:
                run_s, write_s, iters = measure(config(alpha, N), workdir)
                print(f"{alpha:>5} {N:>5} {run_s:>9.4f} {write_s:>9.4f} {iters:>11.2f}",
                      flush=True)


if __name__ == "__main__":
    main()
