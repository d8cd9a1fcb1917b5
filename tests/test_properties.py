"""Property tests: the quantities solve_step and run carry from the Newton
iterate equal their standalone recomputations bit for bit, and the
discrete identities hold, over random rheology, mobility, potential,
barrier, grid and height."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tfilm.driver import InitialDataSpec, RunConfig, run
from tfilm.grid import Grid, integrate
from tfilm.models import (
    ModelParams,
    energy,
    power_mobility,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from tfilm.step import StepParams, el_residual, solve_step

POTENTIALS = {
    "zero": lambda c: zero_potential(),
    "quadratic": lambda c: quadratic_potential(2.0 * c),
    "strong_singular": lambda c: strong_singular_potential(1e-3 * c),
}

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    """(grid, model, step params, positive height)."""
    alpha = draw(st.floats(0.3, 3.0))
    n = draw(st.floats(1.0, 3.0))
    pot = POTENTIALS[draw(st.sampled_from(sorted(POTENTIALS)))](draw(st.floats(0.0, 1.0)))
    sigma = draw(st.floats(0.01, 0.2))
    g = Grid(1.0, draw(st.integers(8, 40)))
    # a smooth height with range [M/2, 3M/2]
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    x = g.cell_centers()
    s = sum(c * np.cos((k + 1) * np.pi * x) / (k + 1) for k, c in enumerate(coeffs))
    M = draw(st.floats(0.5, 2.0))
    u = M * (1.0 + 0.5 * s / max(float(np.max(np.abs(s))), 1e-12))
    model = ModelParams(alpha=alpha, mobility=power_mobility(n), potential=pot, sigma=sigma)
    sp = StepParams(h=draw(st.sampled_from([1e-6, 1e-5, 1e-4])), tol_grad=1e-8)
    return g, model, sp, u


@SETTINGS
@given(cases())
def test_step_carried_quantities_match_recomputation(case):
    g, model, sp, u = case
    res = solve_step(g, u, model, sp)
    assert res.energy_before == energy(g, u, model.modified())
    assert res.energy_after == energy(g, res.u_next, model.modified())
    assert res.el_residual_norm == el_residual(g, res, u, model)
    mass = integrate(g, u)
    assert abs(integrate(g, res.u_next) - mass) <= 1e-13 * mass
    tol_audit = sp.eps_min ** model.p * g.L + 10.0 * sp.tol_grad
    slack = res.energy_before.total - res.energy_after.total - sp.h * res.dissipation_flux_term
    assert slack >= -tol_audit


@SETTINGS
@given(cases(), st.integers(1, 3))
def test_run_energy_columns_match_snapshots(case, record_every):
    g, model, sp, u = case
    cfg = RunConfig(grid=g, model=model, step=sp, T=4 * sp.h, record_every=record_every,
                    initial=InitialDataSpec("values", values=tuple(u)))
    series = run(cfg)
    rows = {d.t: d for d in series.diagnostics}
    for t, snap in series.snapshots.items():
        e = energy(g, snap, model.modified())
        d = rows[t]
        assert (d.E_dirichlet, d.E_potential, d.E_total) == e
        assert abs(d.mass - series.diagnostics[0].mass) <= 1e-13 * series.diagnostics[0].mass
    assert all(d.ede_slack >= -cfg.tol_audit for d in series.diagnostics[1:])
