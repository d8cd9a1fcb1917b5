"""Time the transport action in fresh processes, with and without scipy loaded.

    python3 tools/transport_probe.py [--N 192 3072] [--repeats 3] [--against REV ...]

Each measurement is one fresh interpreter that builds the criterion-9
endpoints (two cosine bumps moved from 1/8, 1/4 to 3/4, 7/8) on N cells and
calls ``bb_action_demo`` for n=2, then n=1 (alpha=1, eta=1/8, M in 2, 4, 8,
16, 32).  It reports the wall time of the two calls and the minor page
faults (``ru_minflt``) they took.  Every N is run in two process orders:

* ``bare``: nothing imported besides tfilm, as ``tfilm bb-action`` runs;
* ``scipy``: ``scipy.linalg`` imported first, as every benchmark process
  runs (``bench/hostspeed.py`` imports it).

The two orders leave glibc's heap in different states (loading scipy
raises malloc's dynamic trim and mmap thresholds), so a path that frees
and reallocates large temporaries can be slow in one order and not in the
other.  The benchmark sees only the second.

The trees are this checkout's ``src/`` and, for each ``--against REV``, the
``src/`` of git revision REV exported with ``git archive``.  Repeats are
interleaved over N, order and tree.  The script prints, per N, order and
tree, the median wall time and the median fault count over the repeats,
and whether ``scipy.linalg`` was loaded during the calls (a tree that
imports scipy with tfilm has it loaded in both orders).  It exits 1 if a
process fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDERS = ("bare", "scipy")

CHILD = """
import json, resource, sys, time
sys.path.insert(0, {src!r})
if {order!r} == "scipy":
    import scipy.linalg
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


def measure(src, N, order):
    """(wall_s, minflt, linalg) of one fresh process on the tree at src."""
    done = subprocess.run([sys.executable, "-c", CHILD.format(src=str(src), order=order, N=N)],
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"probe failed on {src} (N={N}, {order}):\n{done.stderr}")
    row = json.loads(done.stdout.splitlines()[-1])
    return row["wall_s"], row["minflt"], row["linalg"]


def export(rev, into):
    """Extract git revision rev of this repository into the directory into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"cannot export {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--N", type=int, nargs="+", default=[192, 3072])
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh processes per N, order and tree")
    parser.add_argument("--against", metavar="REV", action="append", default=[],
                        help="also time git revision REV (may be given more than once)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.N) < 8:
        parser.error("--repeats must be >= 1 and every N >= 8")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"working": ROOT / "src"}
        for i, rev in enumerate(args.against):
            tree = Path(tmp, str(i))
            tree.mkdir()
            export(rev, tree)
            trees[rev] = tree / "src"
        runs = {}
        for _ in range(args.repeats):
            for N in args.N:
                for order in ORDERS:
                    for name, src in trees.items():
                        runs.setdefault((N, order, name), []).append(measure(src, N, order))
    width = max(len(name) for name in trees)
    print(f"{'N':>5} {'order':<5} {'tree':<{width}} {'wall_s':>8} {'minflt':>9} "
          f"linalg  (medians of {args.repeats})")
    for (N, order, name), rows in runs.items():
        wall, faults, linalg = zip(*rows)
        print(f"{N:>5} {order:<5} {name:<{width}} {statistics.median(wall):>8.3f} "
              f"{statistics.median(faults):>9.0f} {'yes' if all(linalg) else 'no':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
