"""Time-stepping loop, diagnostics, energy-dissipation audits.

A run iterates the implicit step and records, per step, the energy
split, both dissipation integrals, the mass, the height range, the
Euler-Lagrange residual, and the slack of the one-step
energy-dissipation inequality

    E[u_k] >= E[u_{k+1}] + h * int |j_{k+1}|^p / m(u_k)^(1/alpha) dx.

The slack is allowed to dip below zero only by the audit tolerance
eps_min^p * |domain| + 10 * tol_grad (smoothing bias plus the gradient
stopping error); anything worse raises.

``run`` marches one config.  ``run_many`` marches configs that share a
grid and a step count as one ``StepBatch`` (a group of at least
``_BATCH_MIN``), with the same per-member checks and records as ``run``,
and falls back to ``run`` for small groups and for every config once any
member fails.
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
                y = np.clip(np.abs(x - c) / self.width, 0.0, 1.0)
                u += self.amplitude * np.cos(0.5 * np.pi * y) ** 2
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
        e0 = energy(self.grid, u0, self.model.modified)
        if not math.isfinite(e0.total):
            raise ValueError("initial height has infinite energy under the barrier "
                             "(a non-positive cell)")
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "e0", e0)

    @property
    def n_steps(self):
        return round(self.T / self.step.h)

    @property
    def tol_audit(self):
        return self.step.eps_min ** self.model.p * self.grid.L + 10.0 * self.step.tol_grad


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


def _diag_row(g, t, u, e, res=None, slack=0.0):
    """Record row of height u at time t, given its energy breakdown e."""
    flux, strong, el, iters = (0.0, 0.0, 0.0, 0) if res is None else (
        res.dissipation_flux_term, res.dissipation_strong_term, res.el_residual_norm,
        res.newton_iters)
    return (t, integrate(g, u), u.min(), u.max(), *e, flux, strong, slack, el, iters)


def _prefixed(exc, prefix):
    """A copy of the step error exc whose message starts with prefix; the
    iterate and counters it carries are kept."""
    err = copy.copy(exc)
    err.args = (prefix + str(exc),)
    return err


def _new_series(cfg):
    """The series of cfg with its initial row and snapshot."""
    rec = np.zeros(cfg.n_steps + 1, StepDiagnostics).view(np.recarray)
    rec[0] = _diag_row(cfg.grid, 0.0, cfg.u0, cfg.e0)
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
    series.diagnostics[k] = _diag_row(cfg.grid, k * cfg.step.h, u, res.energy_after, res, slack)
    if k % cfg.record_every == 0 or k == cfg.n_steps:
        series.snapshots[k] = u.copy()
    return u


def run(cfg):
    """March the scheme from the configured initial height.

    Diagnostics are recorded every step; snapshots every
    ``record_every`` steps (plus the initial and final states).  One
    ``StepState`` carries the workspace, the energy of the current height
    and the last fluxes through the run, so each step after the first is
    warm-started from the flux extrapolated in time.  Solver
    nonconvergence and failed step checks propagate with the failing step
    index.
    """
    g, model, sp = cfg.grid, cfg.model, cfg.step
    series = _new_series(cfg)
    u = cfg.u0
    state = StepState(g, sp.h, cfg.e0)
    for k in range(1, cfg.n_steps + 1):
        try:
            res = solve_step(g, u, model, sp, state=state)
        except (StepNonconvergenceError, StepCheckError) as exc:
            raise _prefixed(exc, f"step {k} (t = {k * sp.h:g}) failed: ") from exc
        u = _record(series, k, res)
    return series


# Groups of at least this many configs of one grid and step count are
# marched as one batch.  Smaller groups run config by config:
# tools/ensemble_scaling.py measured the batch at 0.57-0.68x of that for 2
# and 3 members, 0.94-1.03x for 6, and 1.5-1.9x for 7 and 18.
_BATCH_MIN = 7

# What a failing batch raises; run_many then reruns the configs through run
_BATCH_ERRORS = (StepNonconvergenceError, StepCheckError, EnergyAuditError, ValueError,
                 ArithmeticError, RuntimeWarning)


def _march_batch(cfgs):
    """The series of configs that share a grid and a step count, marched
    as one StepBatch whose members are ordered by potential kind."""
    order = sorted(range(len(cfgs)), key=lambda i: (cfgs[i].model.potential.kind,
                                                   cfgs[i].model.modified.has_barrier))
    cfgs = [cfgs[i] for i in order]
    batch = StepBatch(cfgs[0].grid, [c.model for c in cfgs], [c.step for c in cfgs],
                      [c.e0 for c in cfgs])
    series = [_new_series(c) for c in cfgs]
    u = [c.u0 for c in cfgs]
    for k in range(1, cfgs[0].n_steps + 1):
        u = [_record(s, k, res) for s, res in zip(series, batch.step(np.stack(u)))]
    out = [None] * len(cfgs)
    for i, s in zip(order, series):
        out[i] = s
    return out


def run_many(configs, threads=None):
    """The series of each config, in input order, as ``run`` gives them.

    Configs that share a grid (L, N) and a step count are marched
    together: a group of at least ``_BATCH_MIN`` configs runs as one
    ``StepBatch``, whose members match ``run`` to the Newton tolerance; a
    smaller group runs config by config.  If any member fails, a Newton
    failure from a warm start included, every config is run again through
    ``run`` in input order, so the series and the error raised (its type,
    its ``step k (t = ...) failed:`` message and its payload) are ``run``'s.

    ``threads`` is accepted for existing callers and ignored: a thread pool
    ran slower than a serial loop, because a step is Python-bound.
    """
    configs = list(configs)
    groups = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.grid, c.n_steps), []).append(i)
    out = [None] * len(configs)
    try:
        for rows in groups.values():
            cfgs = [configs[i] for i in rows]
            series = _march_batch(cfgs) if len(cfgs) >= _BATCH_MIN else [run(c) for c in cfgs]
            for i, s in zip(rows, series):
                out[i] = s
    except _BATCH_ERRORS:
        return [run(c) for c in configs]
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
    """Audit the two-sided energy-dissipation balance between two steps.

    slack = E(t) + sum_k h [ alpha/(alpha+1) diss_flux_k
                             + 1/(alpha+1) diss_strong_k ] - E(s):
    non-positive (within tolerance) by the step inequality; its
    magnitude is the equality defect, which shrinks with tol_grad and
    eps_min because the balance is exact only at the continuum optimum.
    """
    n = len(series.diagnostics)
    if not 0 <= s_idx < t_idx < n:
        raise IndexError(f"need 0 <= s_idx < t_idx < {n}")
    cfg = series.config
    alpha = cfg.model.alpha
    span = slice(s_idx + 1, t_idx + 1)
    terms = cfg.step.h * (alpha / (alpha + 1.0) * series.column("diss_flux")[span]
                          + 1.0 / (alpha + 1.0) * series.column("diss_strong")[span])
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

    Each sigma lifts the non-negative datum to u0 + 2*sigma (strictly
    positive, >= 2*sigma, so the barrier leaves the initial energy
    untouched), runs the scheme, and checks the limit inequality with
    the unmodified energy: potential evaluated through the base G on
    cells with height >= 2*sigma.
    """
    u0_nonneg = np.asarray(u0_nonneg, dtype=float)
    if np.any(u0_nonneg < 0):
        raise ValueError("base initial datum must be non-negative")
    sigmas = tuple(float(s) for s in sigmas)
    if any(s2 >= s1 for s1, s2 in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly decreasing")
    g, h = cfg.grid, cfg.step.h
    base_mp = ModifiedPotential(cfg.model.potential, None)

    all_series = []
    min_heights = []
    edi_slacks = []
    for s in sigmas:
        u0 = u0_nonneg + 2.0 * s
        model = replace(cfg.model, sigma=s)
        c = replace(cfg, model=model, initial=InitialDataSpec("values", values=tuple(u0)))
        try:
            series = run(c)
        except (StepNonconvergenceError, StepCheckError) as exc:
            raise _prefixed(exc, f"sigma={s:g}: ") from exc
        all_series.append(series)
        min_heights.append(float(np.min(series.column("min_u"))))

        e0 = energy(g, u0, base_mp).total
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
