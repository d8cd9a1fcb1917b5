"""Time tfilm in fresh processes, with and without scipy.linalg loaded first.

    python3 tools/process_probe.py [--N 192 3072] [--repeats 3] [--against REV ...]

Each measurement is one fresh interpreter on one tree, running one of two
cases at N cells:

* ``transport``: builds the criterion-9 endpoints (two cosine bumps moved
  from 1/8, 1/4 to 3/4, 7/8) and calls ``bb_action_demo`` for n=2, then
  n=1 (alpha=1, eta=1/8, M in 2, 4, 8, 16, 32).  It reports the wall time
  of the two calls and the minor page faults (``ru_minflt``) they took.
* ``simulate``: ``tfilm simulate`` of a shear-thinning film (alpha=2,
  mobility u^2, lifted parabola, h=1e-4) for 20 steps, writing every
  step.  It reports the wall time from before ``import tfilm`` to the end
  of ``cli.main``, and separately the time and the minor page faults
  after the end of the first step, beside the process's peak RSS
  (``ru_maxrss``).  tol_grad is max(1e-7, 1000 x the roundoff floor
  eps * max|u0| / dx^3), so that the solver can reach it at every N.

Every case runs in two process orders:

* ``bare``: nothing imported besides tfilm, as the ``tfilm`` command runs;
* ``scipy``: ``scipy.linalg`` imported first, as every benchmark process
  runs (``bench/hostspeed.py`` imports it).

The two orders leave glibc's heap in different states (loading
scipy.linalg raises malloc's dynamic trim and mmap thresholds), so a path
that frees and reallocates large temporaries can be slow in one order and
not in the other.  The benchmark sees only the second.

The trees are copies of ``src/``: the working tree's, and for each
``--against REV`` that of git revision REV, exported with ``git archive``.
Each is byte-compiled before the first measurement, so no process pays
for compiling tfilm.  Repeats are interleaved over case, N, order and
tree, and odd repeats run the trees in reverse order.  The script prints, per case, N, order and tree, the medians over
the repeats and whether ``scipy.linalg`` was loaded at the end (a tree
that imports it with tfilm has it loaded in both orders).  It exits 1 if
a process fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from trees import compile_tree, copy_worktree, export

ORDERS = ("bare", "scipy")

PROLOGUE = """
import json, resource, sys, time
sys.path.insert(0, {src!r})
if {order!r} == "scipy":
    import scipy.linalg
"""

TRANSPORT = """
from tfilm.driver import InitialDataSpec
from tfilm.experiments import bb_action_demo
from tfilm.grid import Grid

g = Grid(1.0, {N})
u0, u1 = (InitialDataSpec("cos_bumps", background=0.01, amplitude=6.0, width=0.012,
                          centers=centers).build(g)
          for centers in ((0.125, 0.25), (0.75, 0.875)))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
for n in (2.0, 1.0):
    bb_action_demo(g, u0, u1, eta=1 / 8, M_sweep=[2, 4, 8, 16, 32], n=n, alpha=1.0)
wall = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({{"wall_s": wall, "minflt": faults,
                  "linalg": "scipy.linalg" in sys.modules}}))
"""

SIMULATE = """
start = time.perf_counter()
import tfilm.cli
import tfilm.driver

first = []
solve_step = tfilm.driver.solve_step


def timed_step(*args, **kwargs):
    result = solve_step(*args, **kwargs)
    if not first:
        first.append((time.perf_counter(),
                      resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    return result


tfilm.driver.solve_step = timed_step
code = tfilm.cli.main(["simulate", "--config", {config!r}, "--out", {out!r}])
end = time.perf_counter()
usage = resource.getrusage(resource.RUSAGE_SELF)
assert code == 0, code
print(json.dumps({{"wall_s": end - start, "after_first_s": end - first[0][0],
                  "minflt": usage.ru_minflt - first[0][1], "maxrss_mb": usage.ru_maxrss / 1024,
                  "linalg": "scipy.linalg" in sys.modules}}))
"""

# the columns of each case: (key, header, format)
COLUMNS = {
    "transport": (("wall_s", "wall_s", "8.3f"), ("minflt", "minflt", "9.0f")),
    "simulate": (("wall_s", "wall_s", "8.3f"), ("after_first_s", "after_1st", "9.3f"),
                 ("minflt", "minflt", "9.0f"), ("maxrss_mb", "rss_mb", "7.1f")),
}
STEPS = 20
H = 1e-4


def simulate_config(N):
    """The simulate case's config at N cells (lifted parabola: max u0 = 1.4)."""
    floor = sys.float_info.epsilon * 1.4 * N**3
    return {"L": 1.0, "N": N, "T": STEPS * H, "h": H, "alpha": 2.0,
            "mobility": {"kind": "power", "n": 2.0}, "potential": "zero", "sigma": 0.01,
            "eps0": 1e-3, "eps_min": 1e-9, "tol_grad": max(1e-7, 1e3 * floor),
            "initial": {"kind": "lifted_parabola", "M": 1.0, "delta": 0.2}}


def child_code(case, src, N, order, workdir):
    code = PROLOGUE.format(src=str(src), order=order)
    if case == "transport":
        return code + TRANSPORT.format(N=N)
    run = Path(tempfile.mkdtemp(dir=workdir))
    config = run / "config.json"
    config.write_text(json.dumps(simulate_config(N)))
    return code + SIMULATE.format(config=str(config), out=str(run / "out"))


def measure(case, src, N, order, workdir):
    """The row of one fresh process running case on the tree at src."""
    done = subprocess.run([sys.executable, "-c", child_code(case, src, N, order, workdir)],
                          capture_output=True, text=True, cwd=workdir)
    if done.returncode:
        raise SystemExit(f"probe failed on {src} ({case}, N={N}, {order}):\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--N", type=int, nargs="+", default=[192, 3072])
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh processes per case, N, order and tree")
    parser.add_argument("--against", metavar="REV", action="append", default=[],
                        help="also time git revision REV (may be given more than once)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.N) < 8:
        parser.error("--repeats must be >= 1 and every N >= 8")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for i, rev in enumerate(["working", *args.against]):
            tree = Path(tmp, f"tree{i}")
            tree.mkdir()
            if i:
                export(rev, tree, "src")
            else:
                copy_worktree(tree, "src")
            compile_tree(tree / "src")
            trees[rev] = tree / "src"
        workdir = Path(tmp, "work")
        workdir.mkdir()
        runs = {}
        for repeat in range(args.repeats):
            names = list(trees) if repeat % 2 == 0 else list(trees)[::-1]
            for case in COLUMNS:
                for N in args.N:
                    for order in ORDERS:
                        for name in names:
                            runs.setdefault((case, N, order, name), []).append(
                                measure(case, trees[name], N, order, workdir))
    width = max(len(name) for name in trees)
    for case, columns in COLUMNS.items():
        print(f"{case}: {'N':>5} {'order':<5} {'tree':<{width}} "
              + " ".join(f"{header:>{fmt.split('.')[0]}}" for _, header, fmt in columns)
              + f" linalg  (medians of {args.repeats})")
        for (name_case, N, order, name), rows in runs.items():
            if name_case != case:
                continue
            medians = " ".join(f"{statistics.median(r[key] for r in rows):{fmt}}"
                               for key, _, fmt in columns)
            linalg = "yes" if all(r["linalg"] for r in rows) else "no"
            print(f"{'':{len(case) + 1}} {N:>5} {order:<5} {name:<{width}} {medians} {linalg:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
