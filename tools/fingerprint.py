"""Print one sha256 per config set over every output it produces.

    python3 tools/fingerprint.py [--seeds 0 3 5 7211]

For each seed, runs three config sets and hashes what they produce:

* ``march``: the march_nonnewtonian configs of the benchmark, through
  ``run`` (config by config, the Newton loop on one member);
* ``family``: the 18 family_sweep configs, through ``run_many`` (one
  batched Newton march);
* ``liftoff``: a 7-member lift-off family at N=256, whose deltas the
  seed jitters, through ``run_many`` (one batched Newton march), and
  again config by config through ``run`` (``liftrun``).  Its members
  share model and step parameters, so the batch does ``run``'s
  arithmetic: the script exits 1 if the two hashes differ.

It also hashes one transport set:

* ``transport``: the stage actions of ``bb_action_demo`` (n = 2, then
  n = 1) on the transport_action inputs, as ``float.hex`` strings; the
  workload's verdict gates apply.

The benchmark configs come from ``bench/workloads.build`` at full size;
nothing there is changed.  The hash covers each series' diagnostics
record array and its snapshots (keys and heights) as raw bytes, so two
trees that print the same lines produced bit-identical outputs.  Each set
also passes through ``workloads.check_runs`` (mass drift, per-step EDI
slack and EL residual); the script exits 1 if any gate fails.  tfilm is
imported from ``src/`` beside this directory, so a copy of the script in
another checkout hashes that checkout's code.
"""

import argparse
import hashlib
import sys
import tempfile
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

LIFTOFF_SIZE = 7


def liftoff(seed, n_steps=40):
    rng = np.random.default_rng(seed)
    deltas = np.geomspace(1e-1, 1e-3, LIFTOFF_SIZE) * rng.uniform(0.9, 1.1, LIFTOFF_SIZE)
    h = 1e-5
    return liftoff_configs(deltas, M=1.0, n=2.0, alpha=1.0, grid=Grid(1.0, 256),
                           step=StepParams(h=h, tol_grad=1e-8), T=n_steps * h)


def runs(seed, workdir):
    """(name, series) of each config set, in the order of the docstring."""
    march = workloads.build("march_nonnewtonian", seed, "full", workdir).configs
    yield "march", [driver.run(c) for c in march]
    family = workloads.build("family_sweep", seed, "full", workdir).configs
    yield "family", driver.run_many(family)
    yield "liftoff", driver.run_many(liftoff(seed))
    yield "liftrun", [driver.run(c) for c in liftoff(seed)]


def transport(seed, workdir):
    """(sha256 of the stage actions, gate errors) of the transport_action inputs."""
    work = workloads.build("transport_action", seed, "full", workdir)
    reports = work.call()
    text = " ".join(float.hex(a) for r in reports for stage in r.stage_actions for a in stage)
    return hashlib.sha256(text.encode()).hexdigest(), work.check(reports).errors


def digest(series_list):
    sha = hashlib.sha256()
    for s in series_list:
        sha.update(s.diagnostics.tobytes())
        for t in sorted(s.snapshots):
            sha.update(np.float64(t).tobytes())
            sha.update(np.ascontiguousarray(s.snapshots[t]).tobytes())
    return sha.hexdigest()


def report(name, seed, sha, errors):
    """Print one hash line and its failed gates; True if any gate failed."""
    print(f"{name:>8} seed {seed:>5} {sha}"
          + "".join(f"\n    gate failed: {e}" for e in errors), flush=True)
    return bool(errors)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 5, 7211])
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            hashes = {}
            for name, series in runs(seed, workdir):
                errors = workloads.check_runs(series).errors
                hashes[name] = digest(series)
                if name == "liftrun" and hashes[name] != hashes["liftoff"]:
                    errors.append("run_many's lift-off family differs from run's")
                failed |= report(name, seed, hashes[name], errors)
            failed |= report("transport", seed, *transport(seed, workdir))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
