"""Seeded inputs, top-level calls and correctness gates of the workloads.

``build(name, seed, size, workdir)`` returns a workload whose inputs depend
only on ``(seed, size)``.  ``size`` is ``"full"`` for timed calls and
``"small"`` for the warm-up, the stored-reference case and the self-test.
The seed perturbs the inputs (initial heights, potential coefficients,
bump placement) but not the amount of work, so runs with different seeds
stay comparable.

Each workload has ``call()`` (the timed top-level call into tfilm) and
``check(out)``, which applies the correctness gates and returns an
``Outcome``; ``prepare()`` runs untimed before each call.
"""

import itertools
import json
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tfilm.cli
import tfilm.driver
import tfilm.experiments
import tfilm.io
from tfilm.driver import InitialDataSpec, RunConfig
from tfilm.grid import Grid
from tfilm.models import ModelParams, power_mobility, quadratic_potential, zero_potential
from tfilm.step import StepParams

# tol_grad must exceed eps_machine * max|u| / dx^3 by this factor: below
# the floor the solver raises instead of converging (README, Numerical notes).
ROUNDOFF_MARGIN = 10.0
MASS_DRIFT_TOL = 1e-13


@dataclass
class Outcome:
    steps: int = 0
    fingerprint: np.ndarray = None
    errors: list = field(default_factory=list)
    files: int = 0
    bytes: int = 0


def check_roundoff_floor(cfg):
    """Return cfg, or refuse it when tol_grad sits too close to roundoff."""
    u0 = cfg.initial.build(cfg.grid)
    floor = np.finfo(float).eps * float(np.max(np.abs(u0))) / cfg.grid.dx**3
    if cfg.step.tol_grad < ROUNDOFF_MARGIN * floor:
        raise ValueError(
            f"tol_grad {cfg.step.tol_grad:g} is below {ROUNDOFF_MARGIN:g} x the "
            f"roundoff floor {floor:.2e} at N={cfg.grid.N}"
        )
    return cfg


def series_gates(cfg, mass, slack, el, u0):
    """Mass drift, per-step EDI slack and EL residual of one run."""
    errors = []
    scale = max(abs(mass[0]), float(np.sum(np.abs(u0))) * cfg.grid.dx)
    drift = float(np.max(np.abs(mass - mass[0]))) / scale
    if drift > MASS_DRIFT_TOL:
        errors.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    worst = float(np.min(slack[1:]))
    if worst < -cfg.tol_audit:
        errors.append(f"EDI slack {worst:.3e} < -tol_audit {cfg.tol_audit:.3e}")
    bound = 100.0 * (cfg.step.tol_grad + cfg.step.eps_min ** (cfg.model.p - 1.0))
    el_max = float(np.max(el[1:]))
    if el_max > bound:
        errors.append(f"el_residual {el_max:.3e} > bound {bound:.3e}")
    return errors


def check_series(series):
    return series_gates(series.config, series.column("mass"), series.column("ede_slack"),
                        series.column("el_residual"), series.snapshots[0.0])


def final_state(series):
    return series.snapshots[max(series.snapshots)]


class Workload:
    # max |out - ref| <= rtol * max |ref| for the stored reference and
    # for repeated calls within one run
    rtol = 1e-7

    def prepare(self):
        pass

    def matches(self, fingerprint, reference):
        reference = np.asarray(reference, dtype=float)
        if fingerprint is None or fingerprint.shape != reference.shape:
            return False
        return bool(np.max(np.abs(fingerprint - reference))
                    <= self.rtol * np.max(np.abs(reference)))


def check_runs(series_list):
    errors = [e for s in series_list for e in check_series(s)]
    return Outcome(
        steps=sum(len(s.diagnostics) - 1 for s in series_list),
        fingerprint=np.concatenate([final_state(s) for s in series_list]),
        errors=errors,
    )


class MarchNonNewtonian(Workload):
    """Shear-thinning (alpha=2, eps ladder) and shear-thickening (alpha=0.5,
    diagonal shift) films with the criterion-8 models, stopped long before
    the alpha=0.5 film goes extinct.

    The alpha=2 film starts from the criterion-8 lifted parabola.  The
    alpha=0.5 film starts from a cosine: from the lifted parabola its
    el_residual exceeds the 100 (tol_grad + eps_min^(p-1)) gate for about
    one delta in five (e.g. seed 5 here), a known solver defect that this
    workload does not measure.
    """

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        N, n_steps = (256, 100) if size == "full" else (64, 10)
        h = 1e-4
        g = Grid(1.0, N)
        films = [
            (ModelParams(alpha=2.0, mobility=power_mobility(2.0),
                         potential=zero_potential(), sigma=0.01),
             StepParams(h=h, tol_grad=1e-7, eps0=1e-3, eps_min=1e-9),
             InitialDataSpec("lifted_parabola", M=1.0, delta=float(rng.uniform(0.18, 0.22)))),
            (ModelParams(alpha=0.5, mobility=power_mobility(1.0),
                         potential=zero_potential(), sigma=0.01),
             StepParams(h=h, tol_grad=1e-7),
             InitialDataSpec("cosine", M=1.0, amplitude=float(rng.uniform(0.25, 0.35)))),
        ]
        self.configs = [
            check_roundoff_floor(RunConfig(grid=g, model=model, step=step, T=n_steps * h,
                                           record_every=100, initial=init))
            for model, step, init in films
        ]

    def call(self):
        return [tfilm.driver.run(c) for c in self.configs]

    def check(self, out):
        return check_runs(out)


class NewtonianArtifacts(Workload):
    """``tfilm simulate`` in-process for alpha=1, writing every step."""

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        N, n_steps = (1024, 100) if size == "full" else (64, 10)
        h = 1e-6
        self.data = {
            "L": 1.0, "N": N, "h": h, "T": n_steps * h, "alpha": 1.0,
            "mobility": {"kind": "power", "n": 3}, "potential": "zero", "sigma": 0.01,
            "tol_grad": 1e-5,
            "initial": {"kind": "cosine", "M": 1.0,
                        "amplitude": float(rng.uniform(0.15, 0.25)), "mode": 1},
        }
        self.cfg = check_roundoff_floor(tfilm.io.parse_config(self.data))
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / f"simulate-{size}-{seed}.json"
        self.config_path.write_text(json.dumps(self.data))
        self.outdir = None

    def prepare(self):
        # Output directories are kept until the run ends, so that freeing
        # their disk blocks (a discard on some disks) falls outside the
        # timed calls.
        self.outdir = Path(tempfile.mkdtemp(prefix="simulate-", dir=self.workdir))

    def call(self):
        return tfilm.cli.main(["simulate", "--config", str(self.config_path),
                               "--out", str(self.outdir)])

    def check(self, exit_code):
        out = Outcome(steps=self.cfg.n_steps)
        files = [p for p in self.outdir.iterdir() if p.is_file()]
        out.files = len(files)
        out.bytes = sum(p.stat().st_size for p in files)
        if exit_code != 0:
            out.errors.append(f"exit code {exit_code}")
            return out
        audits = json.loads((self.outdir / "summary.json").read_text())["audits"]
        out.errors += [f"summary audit {k} is false" for k, v in audits.items() if v is False]
        with open(self.outdir / "diagnostics.csv") as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(self.outdir / "diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
        col = {name: table[:, i] for i, name in enumerate(header)}
        if len(table) != self.cfg.n_steps + 1:
            out.errors.append(f"diagnostics.csv has {len(table)} rows, "
                              f"expected {self.cfg.n_steps + 1}")
        snaps = {float(p.name[3:-4]): p for p in files if p.name.startswith("u_t")}
        u0 = np.loadtxt(snaps[min(snaps)], delimiter=",", skiprows=1)[:, 1]
        out.errors += series_gates(self.cfg, col["mass"], col["ede_slack"],
                                   col["el_residual"], u0)
        out.fingerprint = np.loadtxt(snaps[max(snaps)], delimiter=",", skiprows=1)[:, 1]
        return out


class FamilySweep(Workload):
    """One N=64 member per alpha x n x potential, randomised as in the
    criterion 2-3 suite, run through ``run_many`` with ``threads=1``."""

    COMBOS = list(itertools.product([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], ["zero", "quadratic"]))

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        n_steps = 15 if size == "full" else 3
        g = Grid(1.0, 64)
        x = g.cell_centers()
        self.configs = []
        for alpha, n, pk in self.COMBOS:
            coeffs = rng.standard_normal(4) / np.arange(1, 5) ** 2
            u0 = 1.0 + 0.4 * sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
            u0 = np.maximum(u0, 0.3)
            pot = zero_potential() if pk == "zero" else \
                quadratic_potential(float(rng.uniform(0.2, 2.0)))
            model = ModelParams(alpha=alpha, mobility=power_mobility(n), potential=pot, sigma=0.05)
            h = float(rng.choice([1e-5, 2e-5]))
            self.configs.append(check_roundoff_floor(RunConfig(
                grid=g, model=model, step=StepParams(h=h, tol_grad=1e-8), T=n_steps * h,
                initial=InitialDataSpec("values", values=tuple(u0)))))

    def call(self):
        return tfilm.driver.run_many(self.configs, threads=1)

    def check(self, out):
        return check_runs(out)


class TransportAction(Workload):
    """``bb_action_demo`` for n=2 and n=1 between the criterion-9 endpoints
    at a reduced N, with the bumps' height and placement jittered."""

    # The action quadrature may change by design (a closed-form transport
    # flux); the verdict gates below stay exact.
    rtol = 5e-2

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        N, self.sweep = (192, (2, 4, 8, 16, 32)) if size == "full" else (128, (2, 4))
        self.grid = Grid(1.0, N)
        amplitude = float(rng.uniform(5.5, 6.5))
        c = np.array([0.125, 0.25, 0.75, 0.875]) + rng.uniform(-0.004, 0.004, size=4)
        self.u0, self.u1 = (
            InitialDataSpec("cos_bumps", background=0.01, amplitude=amplitude, width=0.012,
                            centers=tuple(float(v) for v in pair)).build(self.grid)
            for pair in (c[:2], c[2:])
        )

    def call(self):
        return [tfilm.experiments.bb_action_demo(self.grid, self.u0, self.u1, eta=1 / 8,
                                                 M_sweep=self.sweep, n=n, alpha=1.0)
                for n in (2.0, 1.0)]

    def check(self, out):
        sup, lin = out
        errors = []
        if not sup.strictly_decreasing:
            errors.append(f"n=2 actions not strictly decreasing: {sup.actions}")
        if not lin.actions[-1] >= 0.8 * lin.actions[0]:
            errors.append(f"n=1 final/initial {lin.final_over_initial:.3f} < 0.8")
        return Outcome(steps=len(sup.actions) + len(lin.actions),
                       fingerprint=np.array(sup.actions + lin.actions), errors=errors)


def timed_call(wl, tracer=None, call=0):
    """Time one top-level call and gate its output.

    Returns ``(seconds, Outcome)``; an exception raised by the call or by
    the gates becomes a failed Outcome instead of ending the run.
    """
    wl.prepare()
    elapsed = 0.0
    try:
        with tracer.active(call) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                out = wl.call()
            finally:
                elapsed = time.perf_counter() - t0
        outcome = wl.check(out)
    except Exception as exc:  # counted as a failed operation and reported
        outcome = Outcome(errors=[f"{type(exc).__name__}: {exc}"])
    return elapsed, outcome


WORKLOADS = {
    "march_nonnewtonian": MarchNonNewtonian,
    "newtonian_artifacts": NewtonianArtifacts,
    "family_sweep": FamilySweep,
    "transport_action": TransportAction,
}


def build(name, seed, size, workdir):
    return WORKLOADS[name](seed, size, workdir)
