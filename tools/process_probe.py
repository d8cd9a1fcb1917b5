"""Time tfilm in fresh processes, with and without scipy.linalg loaded first.

    python3 tools/process_probe.py [--N 192 3072] [--repeats 3] [--against REV ...]

Each measurement is one fresh interpreter on one tree, running one of two
cases at N cells:

* ``transport``: builds the criterion-9 endpoints (two cosine bumps moved
  from 1/8, 1/4 to 3/4, 7/8) and calls ``bb_action_demo`` for n=2, then
  n=1 (alpha=1, eta=1/8, M in 2, 4, 8, 16, 32).  It reports the wall time
  of the two calls and the minor page faults (``ru_minflt``) they took.
* ``simulate``: ``tfilm simulate`` of one film per rheology branch
  (``FILMS``: alpha=0.5 shear-thickening, alpha=1 Newtonian, alpha=2
  shear-thinning) for 20 steps, writing every step.  It reports the wall
  time from before ``import tfilm`` to the end of ``cli.main``
  (``wall_s``), the time and the minor page faults after the end of the
  first step (``after_1st``, ``minflt``), the process's peak RSS
  (``rss_mb``, ``ru_maxrss``), the time of ``cli.run`` (``run_s``) and
  of ``cli.write_timeseries`` (``write_s``), and the Newton iterations
  per step, taken from the ``solve_step`` results.  tol_grad is
  max(1e-7, 1000 x the roundoff floor eps * max|u0| / dx^3), so that the
  solver can reach it at every N.  In the ``bare`` order ``run_s`` also
  includes the first solve's loading of LAPACK (scipy's ``_flapack`` and
  its OpenBLAS, whose new thread busy-waits for about 0.1 s of CPU); the
  ``scipy`` order loads it before ``import tfilm``.

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
for compiling tfilm.  Repeats are interleaved over case, alpha, N, order
and tree, and odd repeats run the trees in reverse order.  The script
prints, per case, alpha, N, order and tree, the medians over the repeats
and whether ``scipy.linalg`` was loaded at the end (a tree that imports
it with tfilm has it loaded in both orders).  It exits 1 if a process
fails.
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

first, iters, spent = [], [], {{}}
solve_step = tfilm.driver.solve_step


def timed_step(*args, **kwargs):
    result = solve_step(*args, **kwargs)
    iters.append(result.newton_iters)
    if not first:
        first.append((time.perf_counter(),
                      resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
    return result


def timed(name):
    fn = getattr(tfilm.cli, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        spent[name] = time.perf_counter() - t0
        return result

    setattr(tfilm.cli, name, wrapper)


tfilm.driver.solve_step = timed_step
timed("run")
timed("write_timeseries")
code = tfilm.cli.main(["simulate", "--config", {config!r}, "--out", {out!r}])
end = time.perf_counter()
usage = resource.getrusage(resource.RUSAGE_SELF)
assert code == 0, code
print(json.dumps({{"wall_s": end - start, "after_first_s": end - first[0][0],
                  "minflt": usage.ru_minflt - first[0][1], "maxrss_mb": usage.ru_maxrss / 1024,
                  "run_s": spent["run"], "write_s": spent["write_timeseries"],
                  "newton": sum(iters) / len(iters), "linalg": "scipy.linalg" in sys.modules}}))
"""

# the columns of each case: (key, header, format)
COLUMNS = {
    "transport": (("wall_s", "wall_s", "8.3f"), ("minflt", "minflt", "9.0f")),
    "simulate": (("wall_s", "wall_s", "8.3f"), ("after_first_s", "after_1st", "9.3f"),
                 ("minflt", "minflt", "9.0f"), ("maxrss_mb", "rss_mb", "7.1f"),
                 ("run_s", "run_s", "7.3f"), ("write_s", "write_s", "7.3f"),
                 ("newton", "newton/step", "11.2f")),
}
STEPS = 20

# one film per rheology branch, by alpha: (max|u0|, its config keys); each
# is the middle of a benchmark film's random range (march at alpha 0.5 and
# 2, newtonian_artifacts at alpha 1)
FILMS = {
    0.5: (1.3, {"mobility": {"kind": "power", "n": 1.0}, "h": 1e-4,
                "initial": {"kind": "cosine", "M": 1.0, "amplitude": 0.3, "mode": 1}}),
    1.0: (1.2, {"mobility": {"kind": "power", "n": 3.0}, "h": 1e-6,
                "initial": {"kind": "cosine", "M": 1.0, "amplitude": 0.2, "mode": 1}}),
    2.0: (1.4, {"mobility": {"kind": "power", "n": 2.0}, "h": 1e-4, "eps0": 1e-3,
                "eps_min": 1e-9, "initial": {"kind": "lifted_parabola", "M": 1.0, "delta": 0.2}}),
}
# the alphas each case runs at (the transport's calls take alpha=1)
ALPHAS = {"transport": (1.0,), "simulate": tuple(FILMS)}


def simulate_config(alpha, N):
    """The simulate case's config for the film at alpha on N cells."""
    max_u0, film = FILMS[alpha]
    floor = sys.float_info.epsilon * max_u0 * N**3
    return {"L": 1.0, "N": N, "T": STEPS * film["h"], "alpha": alpha, "potential": "zero",
            "sigma": 0.01, "tol_grad": max(1e-7, 1e3 * floor), **film}


def child_code(case, alpha, src, N, order, workdir):
    code = PROLOGUE.format(src=str(src), order=order)
    if case == "transport":
        return code + TRANSPORT.format(N=N)
    run = Path(tempfile.mkdtemp(dir=workdir))
    config = run / "config.json"
    config.write_text(json.dumps(simulate_config(alpha, N)))
    return code + SIMULATE.format(config=str(config), out=str(run / "out"))


def measure(case, alpha, src, N, order, workdir):
    """The row of one fresh process running case at alpha on the tree at src."""
    done = subprocess.run([sys.executable, "-c",
                           child_code(case, alpha, src, N, order, workdir)],
                          capture_output=True, text=True, cwd=workdir)
    if done.returncode:
        raise SystemExit(f"probe failed on {src} ({case}, alpha={alpha}, N={N}, {order}):\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--N", type=int, nargs="+", default=[192, 3072])
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh processes per case, alpha, N, order and tree")
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
                for alpha in ALPHAS[case]:
                    for N in args.N:
                        for order in ORDERS:
                            for name in names:
                                runs.setdefault((case, alpha, N, order, name), []).append(
                                    measure(case, alpha, trees[name], N, order, workdir))
    width = max(len(name) for name in trees)
    for case, columns in COLUMNS.items():
        print(f"{case}: {'alpha':>5} {'N':>5} {'order':<5} {'tree':<{width}} "
              + " ".join(f"{header:>{fmt.split('.')[0]}}" for _, header, fmt in columns)
              + f" linalg  (medians of {args.repeats})")
        for (name_case, alpha, N, order, name), rows in runs.items():
            if name_case != case:
                continue
            medians = " ".join(f"{statistics.median(r[key] for r in rows):{fmt}}"
                               for key, _, fmt in columns)
            linalg = "yes" if all(r["linalg"] for r in rows) else "no"
            print(f"{'':{len(case) + 1}} {alpha:>5} {N:>5} {order:<5} {name:<{width}} "
                  f"{medians} {linalg:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
