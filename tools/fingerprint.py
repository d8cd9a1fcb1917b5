"""Print one sha256 per config set over every output it produces.

    python3 tools/fingerprint.py [--seeds 0 3 5 7211] [--against REV]

For each seed, runs six config sets and hashes what they produce:

* ``march``: the march_nonnewtonian configs of the benchmark, through
  ``run`` (config by config, the Newton loop on one member);
* ``family``: the 18 family_sweep configs, through ``run_many`` (one
  batched Newton march);
* ``liftoff``: a 7-member lift-off family at N=256, whose deltas the
  seed jitters, through ``run_many`` (one batched Newton march), and
  again config by config through ``run`` (``liftrun``).  Its members
  share model and step parameters, so the batch does ``run``'s
  arithmetic: the script exits 1 if the two hashes differ;
* ``mixed``: one ``run_many`` group of 9 N=64 members, every potential
  kind with every mobility kind, over the three rheology branches and
  two step sizes, the constant-mobility members without a barrier; the
  seed jitters heights and coefficients.  Its G_sigma is held as
  coefficient columns and its face mobility is taken per mobility;
* ``barrier``: one ``run_many`` group of 3 N=64 members, alpha 0.5, 1
  and 2, each a droplet on a dry substrate (a cos^2 bump of amplitude 1
  and half-width 0.2 at x = 0.5 on the background 2 sigma) with mobility
  u^2 and no potential; the seed jitters sigma.  The film thins into
  the barrier zone below 2 sigma, where G_sigma is the glued polynomial,
  so the script exits 1 if a member's height never dips below 2 sigma.
  N=64 is where every member reaches the glue at about 0.1 s per seed.
  At N=128 the alpha=0.5 member breaks the EL gate on some steps
  (finding B, ROADMAP item 2), so this script would exit 1 on every
  tree and compare nothing; ``tests/test_driver.py`` keeps that case as
  an expected failure instead;
* ``continuation``: ``sigma_continuation`` of the same droplet on the
  dry substrate (background 0) at N=64, mobility u^2 and no potential,
  for alpha 1 and then 2, each over the sigmas s, s/2 and s/4 (one
  ``run_many`` batch); the seed jitters s.  The hash also covers each
  report's sup distances, limit-EDI slacks and minimum heights.  At
  these alphas and N every member passes the EL gate.

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

``--against REV`` exports the git revision REV (``git archive``, by
``trees.export``) to a temporary directory, runs a copy of this script
(and of ``trees.py``) there on the same seeds,
so the same sets are hashed on REV's ``src/`` and ``bench/``, and prints
REV's hash beside this tree's on each line.  The script then also exits
1 if any hash differs, or if REV's run fails.
"""

import argparse
import hashlib
import shutil
import subprocess
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
from tfilm.models import (  # noqa: E402
    ModelParams,
    constant_mobility,
    navier_slip_mobility,
    power_mobility,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from tfilm.step import StepParams  # noqa: E402
from trees import export  # noqa: E402

LIFTOFF_SIZE = 7


def liftoff(seed, n_steps=40):
    rng = np.random.default_rng(seed)
    deltas = np.geomspace(1e-1, 1e-3, LIFTOFF_SIZE) * rng.uniform(0.9, 1.1, LIFTOFF_SIZE)
    h = 1e-5
    return liftoff_configs(deltas, M=1.0, n=2.0, alpha=1.0, grid=Grid(1.0, 256),
                           step=StepParams(h=h, tol_grad=1e-8), T=n_steps * h)


def mixed(seed, n_steps=20):
    rng = np.random.default_rng(seed)
    g = Grid(1.0, 64)
    x = g.cell_centers()
    potentials = (zero_potential,
                  lambda: quadratic_potential(float(rng.uniform(0.2, 2.0))),
                  lambda: strong_singular_potential(float(rng.uniform(1e-4, 1e-3))))
    mobilities = (lambda alpha: power_mobility(float(rng.uniform(1.0, 3.0))),
                  lambda alpha: navier_slip_mobility(float(rng.uniform(0.1, 1.0)), alpha),
                  lambda alpha: constant_mobility())
    configs = []
    for i, potential in enumerate(potentials):
        for j, mobility in enumerate(mobilities):
            alpha = (0.5, 1.0, 2.0)[(i + j) % 3]
            coeffs = rng.standard_normal(4) / np.arange(1, 5) ** 2
            u0 = 1.0 + 0.4 * sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
            h = (1e-5, 2e-5)[(i + j) % 2]
            model = ModelParams(alpha=alpha, mobility=mobility(alpha), potential=potential(),
                                sigma=None if j == 2 else 0.05)
            configs.append(workloads.check_roundoff_floor(driver.RunConfig(
                grid=g, model=model, step=StepParams(h=h, tol_grad=1e-8), T=n_steps * h,
                initial=driver.InitialDataSpec("values", values=tuple(np.maximum(u0, 0.3))))))
    return configs


def barrier(seed, n_steps=100):
    rng = np.random.default_rng(seed)
    sigma = 1e-2 * float(rng.uniform(0.8, 1.2))
    h = 1e-5
    droplet = driver.InitialDataSpec("cos_bumps", background=2.0 * sigma, amplitude=1.0,
                                     width=0.2, centers=(0.5,))
    return [workloads.check_roundoff_floor(driver.RunConfig(
        grid=Grid(1.0, 64), step=StepParams(h=h, tol_grad=1e-8), T=n_steps * h,
        model=ModelParams(alpha=alpha, mobility=power_mobility(2.0),
                          potential=zero_potential(), sigma=sigma), initial=droplet))
        for alpha in (0.5, 1.0, 2.0)]


def continuation(seed, n_steps=100):
    """The ContinuationReport of each alpha, 1 then 2."""
    rng = np.random.default_rng(seed)
    sigma = 1e-2 * float(rng.uniform(0.8, 1.2))
    h = 1e-5
    g = Grid(1.0, 64)
    droplet = driver.InitialDataSpec("cos_bumps", background=0.0, amplitude=1.0, width=0.2,
                                     centers=(0.5,)).build(g)
    reports = []
    for alpha in (1.0, 2.0):
        # sigma_continuation replaces the template's sigma and initial data
        template = driver.RunConfig(
            grid=g, step=StepParams(h=h, tol_grad=1e-8), T=n_steps * h,
            model=ModelParams(alpha=alpha, mobility=power_mobility(2.0),
                              potential=zero_potential(), sigma=sigma))
        reports.append(driver.sigma_continuation(droplet, (sigma, sigma / 2, sigma / 4),
                                                 template))
    return reports


def runs(seed, workdir):
    """(name, series, numbers) of each config set, in the order of the
    docstring; numbers are the floats a set reports besides its series."""
    march = workloads.build("march_nonnewtonian", seed, "full", workdir).configs
    yield "march", [driver.run(c) for c in march], ()
    family = workloads.build("family_sweep", seed, "full", workdir).configs
    yield "family", driver.run_many(family), ()
    yield "liftoff", driver.run_many(liftoff(seed)), ()
    yield "liftrun", [driver.run(c) for c in liftoff(seed)], ()
    yield "mixed", driver.run_many(mixed(seed)), ()
    yield "barrier", driver.run_many(barrier(seed)), ()
    reports = continuation(seed)
    yield ("continuation", [s for r in reports for s in r.series],
           [x for r in reports
            for x in (*r.sup_distances, *r.limit_edi_min_slack, *r.min_heights)])


def transport(seed, workdir):
    """(sha256 of the stage actions, gate errors) of the transport_action inputs."""
    work = workloads.build("transport_action", seed, "full", workdir)
    reports = work.call()
    text = " ".join(float.hex(a) for r in reports for stage in r.stage_actions for a in stage)
    return hashlib.sha256(text.encode()).hexdigest(), work.check(reports).errors


def digest(series_list, numbers=()):
    sha = hashlib.sha256(" ".join(map(float.hex, numbers)).encode())
    for s in series_list:
        sha.update(s.diagnostics.tobytes())
        for t in sorted(s.snapshots):
            sha.update(np.float64(t).tobytes())
            sha.update(np.ascontiguousarray(s.snapshots[t]).tobytes())
    return sha.hexdigest()


def hashes(seeds):
    """(name, seed, sha256, gate errors) of each set and seed, in the order
    of the docstring."""
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            shas = {}
            for name, series, numbers in runs(seed, workdir):
                errors = workloads.check_runs(series).errors
                shas[name] = digest(series, numbers)
                if name == "liftrun" and shas[name] != shas["liftoff"]:
                    errors.append("run_many's lift-off family differs from run's")
                if name == "barrier":
                    errors += [f"alpha={s.config.model.alpha:g} never dips below 2 sigma"
                               for s in series
                               if not s.column("min_u")[1:].min() < 2.0 * s.config.model.sigma]
                yield name, seed, shas[name], errors
            yield ("transport", seed, *transport(seed, workdir))


def revision_hashes(rev, seeds):
    """({(name, seed): sha256} of the sets on git revision rev, the lines
    its run printed besides them, and its exit status)."""
    with tempfile.TemporaryDirectory() as tree:
        export(rev, tree)
        tools = Path(tree) / "tools"
        tools.mkdir(exist_ok=True)
        for name in (Path(__file__).name, "trees.py"):
            shutil.copyfile(Path(__file__).with_name(name), tools / name)
        script = tools / Path(__file__).name
        done = subprocess.run([sys.executable, str(script), "--seeds", *map(str, seeds)],
                              capture_output=True, text=True)
    shas, other = {}, []
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == "seed":
            shas[parts[0], int(parts[2])] = parts[3]
        else:
            other.append(line)
    return shas, other + done.stderr.splitlines(), done.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3, 5, 7211])
    parser.add_argument("--against", metavar="REV",
                        help="also hash the sets on this git revision; exit 1 on any difference")
    args = parser.parse_args(argv)
    failed = False
    if args.against is not None:
        theirs, other, status = revision_hashes(args.against, args.seeds)
        for line in other:
            print(f"{args.against}: {line}")
        failed = status != 0
    for name, seed, sha, errors in hashes(args.seeds):
        line = f"{name:>12} seed {seed:>5} {sha}"
        if args.against is not None:
            rev_sha = theirs.get((name, seed), "-")
            line += f" {rev_sha}" + ("" if rev_sha == sha else "  differs")
            failed |= rev_sha != sha
        print(line + "".join(f"\n    gate failed: {e}" for e in errors), flush=True)
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
