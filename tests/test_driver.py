from dataclasses import replace

import numpy as np
import pytest

import tfilm.driver
import tfilm.models
import tfilm.step
from tfilm.driver import (
    InitialDataSpec,
    RunConfig,
    audit_ede,
    holder_quotient,
    parabola_profile,
    run,
    run_many,
    sigma_continuation,
)
from tfilm.grid import Grid, divergence, zero_flux
from tfilm.models import (
    ModelParams,
    ModifiedPotential,
    constant_mobility,
    energy,
    power_mobility,
    quadratic_potential,
    zero_potential,
)
from tfilm.step import StepCheckError, StepNonconvergenceError, StepParams, solve_step


def simple_config(alpha=1.0, n=2.0, sigma=0.05, N=48, h=1e-5, T=None,
                  initial=None, record_every=1, tol_grad=1e-8, pot=None):
    model = ModelParams(alpha=alpha, mobility=power_mobility(n),
                        potential=pot or zero_potential(), sigma=sigma)
    return RunConfig(
        grid=Grid(1.0, N),
        model=model,
        step=StepParams(h=h, tol_grad=tol_grad),
        T=T if T is not None else 20 * h,
        record_every=record_every,
        initial=initial or InitialDataSpec("cosine", M=1.0, amplitude=0.2, mode=1),
    )


def test_constant_run_is_stationary():
    cfg = simple_config(initial=InitialDataSpec("constant", M=1.2))
    s = run(cfg)
    E = s.column("E_total")
    assert np.all(E == E[0])
    assert np.all(s.column("diss_flux") == 0.0)
    m = s.column("mass")
    assert np.max(np.abs(m - m[0])) <= 1e-13 * abs(m[0])


def test_driver_spectral_oracle():
    g = Grid(1.0, 128)
    model = ModelParams(alpha=1.0, mobility=constant_mobility(),
                        potential=zero_potential(), sigma=None)
    h, k = 1e-4, 2
    cfg = RunConfig(grid=g, model=model, step=StepParams(h=h, tol_grad=1e-8),
                    T=60 * h, record_every=1,
                    initial=InitialDataSpec("cosine", M=0.0, amplitude=1.0, mode=k))
    s = run(cfg)
    lam = (2.0 - 2.0 * np.cos(k * np.pi / g.N)) / g.dx**2
    E0 = s.diagnostics[0].E_dirichlet
    for step_idx in range(1, 61):
        d = s.diagnostics[step_idx]
        pred = E0 * (1.0 + h * lam**2) ** (-2 * step_idx)
        assert d.E_dirichlet == pytest.approx(pred, rel=1e-8)


def test_mass_column_random_datum():
    rng = np.random.default_rng(0)
    u0 = 1.0 + 0.5 * rng.random(48)
    cfg = simple_config(alpha=2.0, initial=InitialDataSpec("values", values=tuple(u0)))
    s = run(cfg)
    m = s.column("mass")
    assert np.max(np.abs(m - m[0]) / abs(m[0])) <= 1e-13


def test_energy_monotone_and_positive_heights():
    cfg = simple_config(alpha=0.5, n=1.0)
    s = run(cfg)
    E = s.column("E_total")
    assert np.all(np.diff(E) <= 1e-12 * (1.0 + np.abs(E[:-1])))
    assert np.all(s.column("min_u") > 0.0)


def test_snapshot_stride_and_times():
    cfg = simple_config(record_every=5)
    s = run(cfg)
    assert len(s.diagnostics) == cfg.n_steps + 1
    times = s.times
    assert np.all(np.diff(times) > 0)
    assert 0.0 in s.snapshots
    assert len(s.snapshots) == 1 + cfg.n_steps // 5


def test_nonconvergence_reports_step_index():
    cfg = simple_config(tol_grad=1e-15)
    cfg = RunConfig(grid=cfg.grid, model=cfg.model,
                    step=StepParams(h=1e-5, tol_grad=1e-15, max_newton=10),
                    T=5e-5, initial=cfg.initial)
    with pytest.raises(StepNonconvergenceError, match="step 1"):
        run(cfg)


@pytest.mark.parametrize("width", [0.0, -0.1, float("nan")])
def test_cos_bumps_width_must_be_positive(width):
    with pytest.raises(ValueError, match="cos_bumps width must be positive"):
        InitialDataSpec("cos_bumps", background=0.5, amplitude=0.5, width=width, centers=(0.5,))
    # without bumps the width is never used
    InitialDataSpec("cos_bumps", background=0.5, width=width)


def test_cos_bumps_is_exactly_zero_outside_its_bumps():
    # cos(pi/2)^2 is 3.7e-33, not 0: a bump adds exactly 0 outside its
    # support, so a droplet on the background 0 lies on a dry substrate,
    # which a barrier refuses as infinite energy
    g = Grid(1.0, 64)
    droplet = InitialDataSpec("cos_bumps", background=0.0, amplitude=1.0, width=0.2,
                              centers=(0.5,))
    u = droplet.build(g)
    outside = np.abs(g.cell_centers() - 0.5) >= 0.2
    assert outside.any() and (u[outside] == 0.0).all() and (u[~outside] > 0.0).all()
    model = ModelParams(alpha=1.0, mobility=power_mobility(2.0), potential=zero_potential(),
                        sigma=0.01)
    with pytest.raises(ValueError, match="infinite energy"):
        RunConfig(grid=g, model=model, step=StepParams(h=1e-5), T=1e-5, initial=droplet)


STEP_ERRORS = [
    StepNonconvergenceError("boom", u_last=np.ones(3), j_last=np.zeros(2), grad_norm=0.5,
                            iters=7),
    StepCheckError("boom", u_last=np.ones(3), j_last=np.zeros(2)),
]


@pytest.mark.parametrize("error", STEP_ERRORS, ids=lambda e: type(e).__name__)
def test_step_error_keeps_its_payload_through_added_context(monkeypatch, error):
    def failing_step(*args, **kwargs):
        raise error

    # run steps through driver.solve_step, sigma_continuation through the batch
    monkeypatch.setattr(tfilm.driver, "solve_step", failing_step)
    monkeypatch.setattr(tfilm.step.StepBatch, "step", failing_step)
    cfg = simple_config()  # h = 1e-5
    for call, message in [
        (lambda: run(cfg), "step 1 (t = 1e-05) failed: boom"),
        (lambda: sigma_continuation(np.ones(cfg.grid.N), [1e-2], cfg),
         "sigma=0.01: step 1 (t = 1e-05) failed: boom"),
    ]:
        with pytest.raises(type(error)) as info:
            call()
        assert str(info.value) == message
        assert vars(info.value).keys() == vars(error).keys()
        for name, value in vars(error).items():
            assert getattr(info.value, name) is value


def test_audit_ede_constant_run():
    cfg = simple_config(initial=InitialDataSpec("constant", M=1.0))
    s = run(cfg)
    rep = audit_ede(s, 0, len(s.diagnostics) - 1)
    assert rep.slack == 0.0
    assert rep.equality_defect == 0.0
    assert rep.ok


def test_audit_ede_converged_run():
    cfg = simple_config(alpha=2.0, T=2e-4)
    s = run(cfg)
    rep = audit_ede(s, 0, len(s.diagnostics) - 1)
    assert rep.ok
    rep2 = audit_ede(s, 3, 9)
    assert rep2.slack <= rep2.tol


def test_audit_ede_defect_convergence():
    # the equality defect is dominated by the O(h) gap to the continuum
    # optimum: halving h strictly shrinks it, while halving the solver
    # tolerances (already far below the h term) must never grow it
    g = Grid(1.0, 48)
    init = InitialDataSpec("cosine", M=1.0, amplitude=0.3, mode=1)

    def defect(eps_min, tol_grad, h):
        model = ModelParams(alpha=2.0, mobility=power_mobility(2.0),
                            potential=zero_potential(), sigma=0.05)
        cfg = RunConfig(grid=g, model=model,
                        step=StepParams(h=h, tol_grad=tol_grad,
                                        eps0=1e-3, eps_min=eps_min),
                        T=1e-3, initial=init)
        s = run(cfg)
        return audit_ede(s, 0, len(s.diagnostics) - 1).equality_defect

    d_loose = defect(1e-4, 1e-5, 1e-4)
    d_tight = defect(5e-5, 5e-6, 1e-4)
    assert d_tight <= d_loose * (1.0 + 1e-9)
    assert defect(1e-8, 1e-8, 5e-5) < defect(1e-8, 1e-8, 1e-4)


# per branch: alpha and the step settings besides h
EDE_BRANCHES = {
    "alpha-0.5": (0.5, {}),
    "alpha-1": (1.0, {}),
    "alpha-2": (2.0, {"eps0": 1e-3, "eps_min": 1e-9}),
}


@pytest.mark.parametrize("alpha,extra", EDE_BRANCHES.values(), ids=EDE_BRANCHES.keys())
def test_energy_dissipation_equality_defect_is_first_order_in_h(alpha, extra):
    # the one-step slack is minus a Bregman distance of the convex energy,
    # O(h^2) per step, so the balance over [t1, T] misses equality by O(h)
    t1, T = 0.002, 0.008
    model = ModelParams(alpha=alpha, mobility=power_mobility(2.0), potential=zero_potential(),
                        sigma=0.01)
    slacks = []
    for h in (4e-4, 2e-4, 1e-4, 5e-5):
        cfg = RunConfig(grid=Grid(1.0, 64), model=model,
                        step=StepParams(h=h, tol_grad=1e-9, **extra), T=T,
                        initial=InitialDataSpec("cosine", M=1.0, amplitude=0.3, mode=1))
        report = audit_ede(run(cfg), round(t1 / h), cfg.n_steps)
        assert report.ok, h
        slacks.append(report.slack)
    orders = [np.log2(a / b) for a, b in zip(slacks, slacks[1:])]
    assert all(0.9 <= order <= 1.25 for order in orders), orders


def test_audit_ede_index_errors():
    cfg = simple_config()
    s = run(cfg)
    with pytest.raises(IndexError):
        audit_ede(s, 5, 5)
    with pytest.raises(IndexError):
        audit_ede(s, 0, 10**6)


def test_run_config_builds_and_checks_its_initial_height():
    cfg = simple_config()
    assert np.array_equal(cfg.u0, cfg.initial.build(cfg.grid))
    assert cfg.e0 == energy(cfg.grid, cfg.u0, cfg.model.modified)
    with pytest.raises(ValueError, match="read-only"):
        cfg.u0[0] = 2.0
    # refused when the config is made, not when it runs
    with pytest.raises(ValueError, match="initial values must have length 32"):
        simple_config(N=32, initial=InitialDataSpec("values", values=(1.0, 1.0, 1.0)))
    with pytest.raises(ValueError, match="infinite energy under the barrier"):
        simple_config(initial=InitialDataSpec("cosine", M=0.1, amplitude=0.5))
    # without a barrier a non-positive height has finite energy
    assert simple_config(sigma=None, initial=InitialDataSpec("cosine", M=0.1, amplitude=0.5))


@pytest.mark.parametrize("initial, message", [
    (InitialDataSpec("values", values=(1.0,) * 3 + (float("nan"),) + (1.0,) * 44),
     "initial height must be finite, got nan in cell 3"),
    (InitialDataSpec("values", values=(1.0,) * 47 + (-float("inf"),)),
     "initial height must be finite, got -inf in cell 47"),
    (InitialDataSpec("constant", M=float("nan")), "initial height must be finite, got nan in cell 0"),
    (InitialDataSpec("cosine", M=float("inf"), amplitude=0.2),
     "initial height must be finite, got inf in cell 0"),
], ids=["values-nan", "values-minus-inf", "M-nan", "M-inf"])
def test_run_config_refuses_a_non_finite_initial_height(initial, message):
    # refused before the gradient-scale rule, which read nan for these
    with pytest.raises(ValueError) as info:
        simple_config(initial=initial)
    assert str(info.value) == message


@pytest.mark.parametrize("every", [2.5, 2.0, 0, True])
def test_run_config_refuses_a_snapshot_spacing_that_is_not_a_positive_integer(every):
    # record_every=2.5 would snapshot at k = 5, 10
    with pytest.raises(ValueError, match="record_every must be an integer >= 1"):
        simple_config(record_every=every)


def test_run_many_deterministic_order():
    cfgs = [simple_config(initial=InitialDataSpec("constant", M=m)) for m in (0.5, 1.0, 2.0)]
    assert [r.diagnostics[0].mass for r in run_many(cfgs)] == [0.5, 1.0, 2.0]


# ---------------------------------------------------------------------------
# sigma continuation

def _continuation_template(N=64, h=1e-5, T=3e-4, record_every=5):
    model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                        potential=zero_potential(), sigma=0.5)
    return RunConfig(grid=Grid(1.0, N), model=model,
                     step=StepParams(h=h, tol_grad=1e-8), T=T,
                     record_every=record_every,
                     initial=InitialDataSpec("constant"))


def test_continuation_positive_datum_linear_in_sigma():
    # datum already above every barrier: runs differ only through the
    # additive 2 sigma shift, so sup distances shrink linearly
    g = Grid(1.0, 64)
    x = g.cell_centers()
    u0 = 1.0 + 0.2 * np.cos(np.pi * x)
    rep = sigma_continuation(u0, [4e-2, 2e-2, 1e-2], _continuation_template())
    assert rep.sup_distances[0] > rep.sup_distances[1]
    assert rep.sup_distances[0] == pytest.approx(2 * rep.sup_distances[1], rel=0.2)
    assert all(s >= -rep.tol_audit for s in rep.limit_edi_min_slack)


def test_continuation_touching_parabola_stays_positive():
    g = Grid(1.0, 64)
    u0 = parabola_profile(g, 1.0)
    rep = sigma_continuation(u0, [1e-2, 5e-3], _continuation_template())
    assert all(mh > 0.0 for mh in rep.min_heights)
    assert rep.mass_drifts == (2e-2, 1e-2)


def test_continuation_evaluates_each_sigma_energy_once(monkeypatch):
    # u0 = datum + 2 sigma >= 2 sigma in every cell, where G_sigma is the base
    # G, so the config's energy of u0 is the unmodified energy the limit
    # inequality starts from; the config is the one evaluation per sigma
    template = _continuation_template()
    template = replace(template, model=replace(template.model, potential=quadratic_potential(3.0)))
    sigmas = [1e-2, 5e-3, 2.5e-3]
    real, calls = tfilm.driver.energy, []
    monkeypatch.setattr(tfilm.driver, "energy", lambda *args: calls.append(args) or real(*args))
    rep = sigma_continuation(parabola_profile(template.grid, 1.0), sigmas, template)
    assert len(calls) == len(sigmas)
    base = ModifiedPotential(template.model.potential, None)
    for series in rep.series:
        cfg = series.config
        assert cfg.e0.total == real(cfg.grid, cfg.u0, base).total


def test_continuation_reports_the_limit_edi_margin():
    # the criterion-10 setup: the t = 0 slack is 0 by construction, so a
    # minimum that took it in would report 0 for every sigma
    g = Grid(1.0, 128)
    template = _continuation_template(N=128, T=5e-4, record_every=10)
    rep = sigma_continuation(parabola_profile(g, 1.0), [1e-2, 5e-3, 2.5e-3], template)
    assert all(s > 0.0 for s in rep.limit_edi_min_slack)


@pytest.mark.parametrize("alpha, n", [(0.5, 2.0), (1.0, 2.0), (2.0, 2.0), (1.0, 1.0)])
def test_continuation_limit_where_the_barrier_acts(alpha, n):
    # a droplet on a dry substrate thins into the barrier zone below 2 sigma
    # for every sigma, on every rheology branch; criterion 10's parabola
    # never gets there
    template = _continuation_template(N=128, T=1e-3, record_every=1)
    template = replace(template, model=replace(template.model, alpha=alpha,
                                               mobility=power_mobility(n)))
    droplet = InitialDataSpec("cos_bumps", background=0.0, amplitude=1.0, width=0.2,
                              centers=(0.5,))
    rep = sigma_continuation(droplet.build(template.grid), [1e-2, 5e-3, 2.5e-3, 1.25e-3],
                             template)
    for sigma, series in zip(rep.sigmas, rep.series):
        assert series.column("min_u")[1:].min() / sigma < 2.0
    assert all(mh > 0.0 for mh in rep.min_heights)
    assert all(s >= -rep.tol_audit for s in rep.limit_edi_min_slack)
    assert all(b < a for a, b in zip(rep.sup_distances, rep.sup_distances[1:]))


def test_continuation_single_sigma_degenerate():
    g = Grid(1.0, 64)
    u0 = parabola_profile(g, 1.0)
    rep = sigma_continuation(u0, [1e-2], _continuation_template())
    assert rep.sup_distances == ()
    assert len(rep.series) == 1


def test_continuation_validation():
    g = Grid(1.0, 64)
    u0 = parabola_profile(g, 1.0)
    with pytest.raises(ValueError):
        sigma_continuation(u0, [1e-3, 1e-2], _continuation_template())
    with pytest.raises(ValueError):
        sigma_continuation(u0 - 1.0, [1e-2], _continuation_template())
    for bad in (float("nan"), float("inf")):
        u_bad = u0.copy()
        u_bad[5] = bad
        with pytest.raises(ValueError, match="base initial datum must be finite and non-negative"):
            sigma_continuation(u_bad, [1e-2], _continuation_template())


# ---------------------------------------------------------------------------
# Hoelder quotient

def test_holder_constant_run():
    cfg = simple_config(initial=InitialDataSpec("constant", M=1.0))
    s = run(cfg)
    assert holder_quotient(s, 1.0) == 0.0


def test_holder_refinement_stability():
    quots = []
    for h in (4e-5, 2e-5, 1e-5):
        cfg = simple_config(
            alpha=1.0, N=64, h=h, T=4e-4,
            record_every=max(1, int(round(4e-5 / h))),
            initial=InitialDataSpec("lifted_parabola", M=1.0, delta=0.2),
            sigma=0.02,
        )
        quots.append(holder_quotient(run(cfg), 1.0))
    assert max(quots) / min(quots) < 2.0


def test_holder_needs_two_snapshots():
    cfg = simple_config()
    s = run(cfg)
    s.snapshots = {0.0: s.snapshots[0.0]}
    with pytest.raises(ValueError):
        holder_quotient(s, 1.0)


def test_warm_started_run_takes_fewer_newton_iterations():
    # alpha = 2 climbs the whole eps ladder from a cold start
    cfg = simple_config(alpha=2.0, h=1e-5)
    series = run(cfg)
    warm_iters = int(np.sum(series.column("newton_iters")))
    times = sorted(series.snapshots)
    cold_iters = sum(
        solve_step(cfg.grid, series.snapshots[t], cfg.model, cfg.step).newton_iters
        for t in times[:-1]
    )
    assert len(times) == cfg.n_steps + 1
    assert warm_iters < cold_iters


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2, finding B: for alpha < 1 a stop on the gradient "
                   "norm alone does not bound the EL defect")
def test_shear_thickening_droplet_in_the_barrier_zone_keeps_the_el_gate():
    # tools/fingerprint.py's barrier droplet at N=128 instead of 64: steps 3
    # and 6 read 1.21 and 1.02 times the gate while min u dips below 2 sigma
    sigma = 1e-2
    droplet = InitialDataSpec("cos_bumps", background=2.0 * sigma, amplitude=1.0, width=0.2,
                              centers=(0.5,))
    cfg = simple_config(alpha=0.5, sigma=sigma, N=128, T=1e-4, initial=droplet)
    series = run(cfg)
    assert series.column("min_u")[1:].min() < 2.0 * sigma
    assert np.all(series.column("el_residual")[1:] <= cfg.el_bound)


# one droplet per rheology branch whose full Newton step leaves the barrier
# domain at least once: (alpha, N, mobility exponent, sigma, h, step extras)
PAST_THE_SINGULARITY = {
    "alpha-0.5": (0.5, 32, 2.0, 5e-3, 4e-5, {}),
    "alpha-1": (1.0, 64, 1.0, 5e-3, 1e-4, {}),
    "alpha-2": (2.0, 32, 1.0, 1e-2, 1e-4, {"eps0": 1e-3, "eps_min": 1e-9}),
}


@pytest.mark.parametrize("alpha,N,n,sigma,h,extra", PAST_THE_SINGULARITY.values(),
                         ids=PAST_THE_SINGULARITY.keys())
def test_a_line_search_trial_past_the_singularity_is_backtracked(monkeypatch, alpha, N, n,
                                                                  sigma, h, extra):
    # the trial's infinite energy is the only domain rule of the line search
    real = tfilm.step._functional
    infinite = []

    def counted(*args, **kwargs):
        values = real(*args, **kwargs)
        infinite.extend(v for v in values if v == np.inf)
        return values

    monkeypatch.setattr(tfilm.step, "_functional", counted)
    droplet = InitialDataSpec("cos_bumps", background=2.0 * sigma, amplitude=1.0, width=0.2,
                              centers=(0.5,))
    cfg = RunConfig(grid=Grid(1.0, N),
                    model=ModelParams(alpha=alpha, mobility=power_mobility(n),
                                      potential=zero_potential(), sigma=sigma),
                    step=StepParams(h=h, tol_grad=1e-8, **extra), T=20 * h, initial=droplet)
    series = run(cfg)
    assert len(infinite) >= 1
    min_u, mass = series.column("min_u"), series.column("mass")
    assert 0.0 < min_u[1:].min() < 2.0 * sigma
    assert np.max(np.abs(mass[1:] - mass[0])) <= 1e-13
    assert np.all(series.column("el_residual")[1:] <= cfg.el_bound)


def test_predicted_start_outside_the_barrier_domain_is_solved_cold(monkeypatch):
    cfg = simple_config(alpha=2.0, h=1e-4, T=6e-4)
    g, sp = cfg.grid, cfg.step
    real = tfilm.step.StepState.predicted_flux
    emptied = []

    def leaving_the_domain(state):
        q = real(state)
        if len(state.fluxes) == 3 and not emptied:
            # step 4: empty cell 15 far below zero
            q = q.copy()
            q[15] = 1.0 / sp.h
            emptied.append(q)
        return q

    monkeypatch.setattr(tfilm.step.StepState, "predicted_flux", leaving_the_domain)
    series = run(cfg)
    assert len(emptied) == 1
    j = zero_flux(g)
    j[1:-1] = emptied[0]
    assert np.min(series.snapshots[3] - sp.h * divergence(g, j)) < 0.0
    cold = solve_step(g, series.snapshots[3], cfg.model, sp)
    assert np.array_equal(series.snapshots[4], cold.u_next)
    assert series.diagnostics[4].newton_iters == cold.newton_iters


def test_run_never_evaluates_the_energy_of_u_star_again(monkeypatch):
    # u_0's energy is taken by each RunConfig
    other_start = InitialDataSpec("cosine", M=1.0, amplitude=0.3, mode=2)
    configs = [simple_config(alpha=2.0, h=1e-5, T=1e-4),
               simple_config(alpha=0.5, h=1e-5, T=1e-4, initial=other_start)]
    evaluated, other = [], []

    def counted(g, u, mp, pad, real=tfilm.step._evaluate):
        evaluated.extend(u.copy())  # the rows of a stack of heights, as evaluated
        return real(g, u, mp, pad)

    def uncalled(name, real):
        def call(*args, **kwargs):
            other.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(tfilm.step, "_evaluate", counted)
    for module, name in ((tfilm.driver, "energy"), (tfilm.step, "energy"),
                         (tfilm.models, "evaluate")):
        monkeypatch.setattr(module, name, uncalled(name, getattr(module, name)))
    # each height is evaluated once, by the step's one evaluation: u_0 at the
    # (cold) first step, u_k as the accepted iterate of step k
    for series in [run(c) for c in configs]:
        for k, u in series.snapshots.items():
            assert sum(np.array_equal(u, v) for v in evaluated) == 1, k
    # a batch evaluates all rows of each trial, so only the other calls are counted
    run_many(configs)
    assert other == []
