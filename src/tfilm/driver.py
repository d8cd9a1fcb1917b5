"""Time-stepping loop, diagnostics, energy-dissipation audits.

A run iterates the implicit step and records, per step, the energy
split, the dissipation integral (in both dissipation columns), the mass,
the height range, the Euler-Lagrange residual, and the slack of the
one-step energy-dissipation inequality

    E[u_k] >= E[u_{k+1}] + h * int |j_{k+1}|^p / m(u_k)^(1/alpha) dx.

The slack is allowed to dip below zero only by the audit tolerance
eps_min^p * |domain| + 10 * tol_grad (smoothing bias plus the gradient
stopping error); anything worse raises.

One loop, ``_march``, marches every run: it sets up the series, takes
the members' step once per step, records and audits each member, and
raises a step error with the failing member's step index.  ``run`` gives
it one config stepped by ``solve_step``; ``run_many`` gives it each
group of configs that share a grid and a step count, stepped as one
``StepBatch``, with the same per-member checks, warm-to-cold rescue,
records and step errors as ``run``.  ``sigma_continuation`` marches its
sigmas, which share a grid and a step count, as one such batch.
"""

import copy
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .grid import Grid, integrate
from .models import EnergyBreakdown, ModelParams, ModifiedPotential, energy
from .step import (
    StepBatch,
    StepCheckError,
    StepNonconvergenceError,
    StepParams,
    StepState,
    solve_step,
)

__all__ = [
    "InitialDataSpec",
    "RunConfig",
    "StepDiagnostics",
    "TimeSeries",
    "EnergyAuditError",
    "parabola_profile",
    "run",
    "run_many",
    "audit_ede",
    "AuditReport",
    "sigma_continuation",
    "ContinuationReport",
    "holder_quotient",
]


def parabola_profile(g, M):
    """The touching parabola 3M/2 (1 - x^2) sampled at cell centers (domain (0,1))."""
    if abs(g.L - 1.0) > 1e-12:
        raise ValueError("the touching parabola is defined on the unit interval")
    x = g.cell_centers()
    return 1.5 * M * (1.0 - x * x)


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial film height.

    kinds:
      constant          u0 = M
      cosine            u0 = M + amplitude * cos(mode * pi * x / L)
      parabola          u0 = 3M/2 (1 - x^2)  (touches zero at x = 1)
      lifted_parabola   u0 = delta + (1 - delta/M) * parabola  (same mass M)
      cos_bumps         u0 = background + amplitude * sum of cos^2 bumps
                        of half-width `width` at `centers`
      values            explicit cell values
    """

    kind: str
    M: float = 1.0
    amplitude: float = 0.0
    mode: int = 1
    delta: float = 0.0
    background: float = 0.0
    width: float = 0.0
    centers: Optional[tuple] = None
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "cos_bumps" and self.centers and not self.width > 0.0:
            raise ValueError(f"cos_bumps width must be positive, got {self.width!r}")
        if self.kind == "lifted_parabola" and not self.M > 0.0:
            raise ValueError(f"lifted_parabola M must be positive, got {self.M!r}")

    def build(self, g):
        if self.kind == "constant":
            return np.full(g.N, self.M)
        if self.kind == "cosine":
            x = g.cell_centers()
            return self.M + self.amplitude * np.cos(self.mode * np.pi * x / g.L)
        if self.kind == "parabola":
            return parabola_profile(g, self.M)
        if self.kind == "lifted_parabola":
            return self.delta + (1.0 - self.delta / self.M) * parabola_profile(g, self.M)
        if self.kind == "cos_bumps":
            x = g.cell_centers()
            u = np.full(g.N, self.background)
            for c in self.centers or ():
                # exactly 0 outside the bump, where cos(pi/2)^2 would leave 3.7e-33
                y = np.abs(x - c) / self.width
                u += np.where(y < 1.0, self.amplitude * np.cos(0.5 * np.pi * y) ** 2, 0.0)
            return u
        if self.kind == "values":
            vals = np.asarray(self.values, dtype=float)
            if vals.shape != (g.N,):
                raise ValueError(f"initial values must have length {g.N}")
            return vals
        raise ValueError(f"unknown initial data kind {self.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    """A run: grid, model, step parameters, horizon T, snapshot spacing
    and initial data.

    The initial height ``u0`` (read-only) and its energy breakdown ``e0``
    are built once, here, so a config whose initial data cannot start (a
    wrong number of values, infinite energy under the barrier) is refused
    when it is made, before anything runs.
    """

    grid: Grid
    model: ModelParams
    step: StepParams
    T: float
    record_every: int = 1
    initial: InitialDataSpec = InitialDataSpec("constant")
    u0: np.ndarray = field(init=False, compare=False, repr=False)
    e0: EnergyBreakdown = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        steps = self.T / self.step.h
        n = round(steps) if math.isfinite(steps) else 0
        if n < 1 or abs(steps - n) > 1e-9 * steps:
            raise ValueError(f"T must be a whole number (at least 1) of steps h; "
                             f"got T={self.T!r}, h={self.step.h!r}")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {every!r}")
        u0 = self.initial.build(self.grid)
        bad = np.flatnonzero(~np.isfinite(u0))
        if bad.size:
            raise ValueError(f"initial height must be finite, got {u0[bad[0]]} in cell {bad[0]}")
        # the solver squares gradients of this scale (its roundoff floor is
        # eps_machine times it); a product, since float ** raises on overflow
        g = self.grid
        scale = float(np.max(np.abs(u0))) / g.dx**3
        if not math.isfinite(scale * scale):
            raise ValueError(f"domain length L={g.L} on N={g.N} cells gives a gradient scale "
                             f"max|u0| / dx^3 = {scale:.3e} whose square overflows")
        mp = self.model.modified
        e0 = energy(self.grid, u0, mp)
        if not math.isfinite(e0.total):
            raise ValueError("initial height has infinite energy under the barrier "
                             "(a non-positive cell, or one so thin that G_sigma overflows)")
        # the reduced gradient holds G_sigma'(u0) / dx, so a very thin cell can
        # overflow its square too
        scale = float(np.max(np.abs(mp.dg_sigma(u0)))) / g.dx
        if not math.isfinite(scale * scale):
            raise ValueError(f"initial height's thinnest cell {float(np.min(u0)):.3e} gives a "
                             f"barrier gradient scale max|G_sigma'(u0)| / dx = {scale:.3e} "
                             f"whose square overflows")
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "e0", e0)

    @property
    def n_steps(self):
        return round(self.T / self.step.h)

    @property
    def tol_audit(self):
        return self.step.eps_min ** self.model.p * self.grid.L + 10.0 * self.step.tol_grad

    @property
    def el_bound(self):
        """The gate on each step's EL residual: 100 (tol_grad + eps_min^(p-1))."""
        return 100.0 * (self.step.tol_grad + self.step.eps_min ** (self.model.p - 1.0))


# One row of a run's record: the columns of diagnostics.csv, in order
StepDiagnostics = np.dtype([(name, float) for name in (
    "t", "mass", "min_u", "max_u", "E_dirichlet", "E_potential", "E_total",
    "diss_flux", "diss_strong", "ede_slack", "el_residual")] + [("newton_iters", np.int64)])


@dataclass
class TimeSeries:
    """A run's record and snapshots.

    `diagnostics` is a record array of dtype StepDiagnostics whose row k
    is the state after step k (row 0 the initial one); `snapshots` maps a
    step index k to the height after step k, at time k*h.
    """

    config: RunConfig
    diagnostics: np.recarray
    snapshots: dict = field(default_factory=dict)

    @property
    def times(self):
        return self.column("t")

    def column(self, name):
        """Read-only view of one field of the record."""
        col = self.diagnostics[name]
        col.flags.writeable = False
        return col


class EnergyAuditError(RuntimeError):
    """A step violated the energy-dissipation inequality beyond tolerance."""


def _diag_row(t, res, slack):
    """Record row of the step result res at time t, with its EDI slack; the
    mass and height range are the ones the step took.  diss_strong is
    diss_flux: m |Psi^-1(j/m)|^(alpha+1) is the integrand |j|^p / m^(1/alpha)."""
    flux = res.dissipation_flux_term
    return (t, res.mass, res.min_u, res.max_u, *res.energy_after, flux, flux, slack,
            res.el_residual_norm, res.newton_iters)


def _prefixed(exc, prefix):
    """A copy of the step error exc whose message starts with prefix; the
    iterate and counters it carries are kept."""
    err = copy.copy(exc)
    err.args = (prefix + str(exc),)
    return err


def _step_failed(exc, k, h):
    """The step error exc of step k at step size h, as a march raises it."""
    return _prefixed(exc, f"step {k} (t = {k * h:g}) failed: ")


def _new_series(cfg):
    """The series of cfg with its initial row and snapshot."""
    rec = np.zeros(cfg.n_steps + 1, StepDiagnostics).view(np.recarray)
    u0 = cfg.u0
    rec[0] = (0.0, integrate(cfg.grid, u0), u0.min(), u0.max(), *cfg.e0, 0.0, 0.0, 0.0, 0.0, 0)
    return TimeSeries(config=cfg, diagnostics=rec, snapshots={0: cfg.u0.copy()})


def _record(series, k, res):
    """Audit step k's one-step EDI and record it; returns the new height."""
    cfg = series.config
    # energy_before is the state's carried energy: the last energy_after
    slack = (res.energy_before.total - res.energy_after.total
             - cfg.step.h * res.dissipation_flux_term)
    if slack < -cfg.tol_audit:
        raise EnergyAuditError(
            f"step {k}: EDI slack {slack:.3e} below -{cfg.tol_audit:.3e}"
        )
    u = res.u_next
    series.diagnostics[k] = _diag_row(k * cfg.step.h, res, slack)
    if k % cfg.record_every == 0 or k == cfg.n_steps:
        series.snapshots[k] = u.copy()
    return u


def _march(cfgs, step):
    """The series of configs that share a grid and a step count, marched
    from their initial heights: the one march loop.

    step(u) takes the list of the members' current heights and returns
    their StepResults.  Each step is audited and recorded by ``_record``;
    a step error is raised with the failing member's step index and time
    (``_step_failed``), its payload kept."""
    series = [_new_series(c) for c in cfgs]
    u = [c.u0 for c in cfgs]
    for k in range(1, cfgs[0].n_steps + 1):
        try:
            results = step(u)
        except (StepNonconvergenceError, StepCheckError) as exc:
            raise _step_failed(exc, k, cfgs[exc.member].step.h) from exc
        for i, res in enumerate(results):
            u[i] = _record(series[i], k, res)
    return series


def run(cfg):
    """March the scheme from the configured initial height.

    Diagnostics are recorded every step; snapshots every
    ``record_every`` steps (plus the initial and final states).  One
    ``StepState`` carries the step's fixed data, the energy of the current
    height and the last fluxes through the run, so each step after the
    first is warm-started from the flux extrapolated in time.  Solver
    nonconvergence and failed step checks propagate with the failing step
    index.
    """
    g, model, sp = cfg.grid, cfg.model, cfg.step
    state = StepState(g, sp.h, cfg.e0)
    # solve_step is looked up in this module at each step, where a tracer
    # may have replaced it
    return _march([cfg], lambda u: [solve_step(g, u[0], model, sp, state=state)])[0]


def _march_batch(cfgs):
    """The series of configs that share a grid and a step count, marched
    as one StepBatch."""
    batch = StepBatch(cfgs[0].grid, [c.model for c in cfgs], [c.step for c in cfgs],
                      [c.e0 for c in cfgs])
    return _march(cfgs, lambda u: batch.step(np.stack(u)))


def run_many(configs, threads=None):
    """The series of each config, in input order, as ``run`` gives them.

    Configs that share a grid (L, N) and a step count are marched
    together as one ``StepBatch``, whose members match ``run`` to the
    Newton tolerance; a config alone on its grid and step count is a
    one-member batch.  A member that fails from its warm start is solved
    cold in the batch, as ``run`` solves it.  The first failure in march
    order (groups in the order of their first config, then steps; within
    a step, the first one the batch meets) is raised as ``run`` raises it
    for the failing config: its type, its ``step k (t = ...) failed:``
    message and its payload, whose ``member`` is the config's index in
    its group.  Nothing is marched again.

    ``threads`` is accepted for existing callers and ignored: a thread pool
    ran slower than a serial loop, because a step is Python-bound.
    """
    configs = list(configs)
    groups = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.grid, c.n_steps), []).append(i)
    out = [None] * len(configs)
    for rows in groups.values():
        for i, s in zip(rows, _march_batch([configs[i] for i in rows])):
            out[i] = s
    return out


# ---------------------------------------------------------------------------
# audits

@dataclass(frozen=True)
class AuditReport:
    s_idx: int
    t_idx: int
    slack: float
    equality_defect: float
    tol: float
    ok: bool


def audit_ede(series, s_idx, t_idx):
    """Audit the energy-dissipation balance between two steps.

    slack = E(t) + sum_k h diss_flux_k - E(s), the sum of the one-step
    EDI slacks from s to t: non-positive (within tolerance) by the step
    inequality.  Its magnitude is reported as the equality defect.
    """
    n = len(series.diagnostics)
    if not 0 <= s_idx < t_idx < n:
        raise IndexError(f"need 0 <= s_idx < t_idx < {n}")
    cfg = series.config
    terms = cfg.step.h * series.column("diss_flux")[s_idx + 1:t_idx + 1]
    E = series.column("E_total")
    # cumsum adds in step order, as a running sum does (np.sum adds pairwise)
    slack = float(E[t_idx] + np.cumsum(terms)[-1] - E[s_idx])
    tol = cfg.tol_audit * (t_idx - s_idx)
    return AuditReport(
        s_idx=s_idx,
        t_idx=t_idx,
        slack=slack,
        equality_defect=abs(slack),
        tol=tol,
        ok=slack <= tol,
    )


# ---------------------------------------------------------------------------
# sigma continuation

@dataclass(frozen=True)
class ContinuationReport:
    sigmas: tuple
    mass_drifts: tuple          # 2 sigma |domain| per sigma
    sup_distances: tuple        # between consecutive sigma solutions
    limit_edi_min_slack: tuple  # min over t > 0 of E[u0^s] - E[u](t) - strong diss
    tol_audit: float
    min_heights: tuple
    series: tuple


def sigma_continuation(u0_nonneg, sigmas, cfg):
    """Run the scheme for a decreasing barrier sequence.

    Each sigma lifts the finite, non-negative datum to u0 + 2*sigma
    (strictly positive, >= 2*sigma, so the barrier leaves the initial
    energy untouched) and checks the limit inequality with the
    unmodified energy: potential evaluated through the base G on cells
    with height >= 2*sigma.  The sigmas share cfg's grid and step count,
    so ``run_many`` marches them as one batch.  A step error is raised
    with ``sigma=<s>: `` before ``run``'s message; it is the first in
    march order (by step, then by sigma), not the first by sigma.
    """
    u0_nonneg = np.asarray(u0_nonneg, dtype=float)
    if not np.all(np.isfinite(u0_nonneg) & (u0_nonneg >= 0)):
        raise ValueError("base initial datum must be finite and non-negative")
    sigmas = tuple(float(s) for s in sigmas)
    if any(s2 >= s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly decreasing")
    g, h = cfg.grid, cfg.step.h
    base_mp = ModifiedPotential(cfg.model.potential, None)

    configs = [replace(cfg, model=replace(cfg.model, sigma=s),
                       initial=InitialDataSpec("values", values=tuple(u0_nonneg + 2.0 * s)))
               for s in sigmas]
    try:
        all_series = run_many(configs)
    except (StepNonconvergenceError, StepCheckError) as exc:
        # the configs share (grid, n_steps): one group, indexed as sigmas
        raise _prefixed(exc, f"sigma={sigmas[exc.member]:g}: ") from exc

    min_heights = []
    edi_slacks = []
    for s, series in zip(sigmas, all_series):
        min_heights.append(float(np.min(series.column("min_u"))))
        e0 = energy(g, series.config.u0, base_mp).total
        # the Dirichlet term does not depend on the potential, so the
        # record's is the unmodified energy's; row 0 carries no dissipation.
        # The t = 0 slack is 0 by construction (u0 >= 2 sigma in every cell,
        # nothing dissipated yet), so the minimum is over the later snapshots.
        du_sq = series.column("E_dirichlet")
        diss_cum = np.cumsum(h * series.column("diss_strong"))
        worst = math.inf
        for k, ut in series.snapshots.items():
            if k == 0:
                continue
            pot_vals = cfg.model.potential.g(ut)
            pot = float(np.sum(pot_vals[ut >= 2.0 * s]) * g.dx)
            worst = min(worst, e0 - (du_sq[k] + pot) - diss_cum[k])
        edi_slacks.append(float(worst))

    # the runs differ only in sigma, so their snapshots share step indices
    sup_distances = [
        max(float(np.max(np.abs(sa.snapshots[k] - sb.snapshots[k]))) for k in sa.snapshots)
        for sa, sb in zip(all_series, all_series[1:])
    ]

    return ContinuationReport(
        sigmas=sigmas,
        mass_drifts=tuple(2.0 * s * g.L for s in sigmas),
        sup_distances=tuple(sup_distances),
        limit_edi_min_slack=tuple(edi_slacks),
        tol_audit=cfg.tol_audit,
        min_heights=tuple(min_heights),
        series=tuple(all_series),
    )


def holder_quotient(series, alpha):
    """max over snapshot pairs of |u(t) - u(s)|_inf / |t - s|^(1/(5 alpha + 3)).

    Tracks the time-Hoelder seminorm the scheme inherits from the
    energy bound; the pairing constant is E^sigma[u0]^(1/2), available
    from the first diagnostics row.
    """
    h = series.config.step.h
    items = [(k * h, series.snapshots[k]) for k in sorted(series.snapshots)]
    if len(items) < 2:
        raise ValueError("need at least two snapshots")
    expo = 1.0 / (5.0 * alpha + 3.0)
    best = 0.0
    for i in range(len(items)):
        ti, ui = items[i]
        for j in range(i + 1, len(items)):
            tj, uj = items[j]
            best = max(best, float(np.max(np.abs(uj - ui))) / (tj - ti) ** expo)
    return best
