"""Property tests: the quantities solve_step and run carry from the Newton
iterate equal their standalone recomputations bit for bit, a warm start
reaches the cold step's flux, and the discrete identities hold (mass
telescoping, one-step EDI, summation by parts, barrier contact and
convexity), over random rheology, mobility, potential, barrier, grid and
height."""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tfilm.driver import InitialDataSpec, RunConfig, run
from tfilm.grid import Grid, divergence, gradient, integrate, zero_flux
from tfilm.models import (
    ModelParams,
    build_modified_potential,
    energy,
    power_mobility,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from tfilm.step import StepNonconvergenceError, StepParams, el_residual, solve_step

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


def edi_slack(res, sp):
    return res.energy_before.total - res.energy_after.total - sp.h * res.dissipation_flux_term


@SETTINGS
@given(cases())
def test_warm_start_reaches_the_cold_flux(case):
    g, model, sp, u = case
    try:
        first = solve_step(g, u, model, sp)
        cold = solve_step(g, first.u_next, model, sp)
    except StepNonconvergenceError:
        reject()  # the claim covers the steps that the cold start solves
    warm = solve_step(g, first.u_next, model, sp, j0=first.j)
    # tol_grad bounds the gradient, not the flux: large fluxes (small h)
    # carry a proportional roundoff error
    scale = max(1.0, float(np.max(np.abs(cold.j))))
    assert np.max(np.abs(warm.j - cold.j)) <= 10.0 * sp.tol_grad * scale
    tol_audit = sp.eps_min ** model.p * g.L + 10.0 * sp.tol_grad
    assert edi_slack(cold, sp) >= -tol_audit
    assert edi_slack(warm, sp) >= -tol_audit


@SETTINGS
@given(st.integers(4, 64), st.floats(0.1, 10.0), st.data())
def test_summation_by_parts(N, L, data):
    g = Grid(L, N)
    u = data.draw(hnp.arrays(float, N, elements=st.floats(-1e3, 1e3)))
    j = zero_flux(g)
    j[1:-1] = data.draw(hnp.arrays(float, N - 1, elements=st.floats(-1e3, 1e3)))
    lhs = g.dx * float(np.sum(gradient(g, u) * j))
    rhs = -g.dx * float(np.sum(u * divergence(g, j)))
    # the two sums hold the same products u_i j_f, so they differ by roundoff
    scale = float(np.sum(np.abs(u) * (np.abs(j[:-1]) + np.abs(j[1:]))))
    assert abs(lhs - rhs) <= 8.0 * N * np.finfo(float).eps * scale


@SETTINGS
@given(st.sampled_from(sorted(POTENTIALS)), st.floats(0.0, 1.0), st.floats(0.005, 0.45),
       st.lists(st.floats(1e-3, 1.0 - 1e-6), min_size=1, max_size=20))
def test_barrier_c2_contact_and_convexity(kind, c, sigma, fractions):
    base = POTENTIALS[kind](c)
    mp = build_modified_potential(base, sigma)
    two_sigma = np.array([2.0 * sigma])
    below = np.nextafter(two_sigma, 0.0)
    eps = np.finfo(float).eps
    # value, slope and curvature of the glued branch at 2 sigma against the
    # base; each is compared on the scale of the glue terms that cancel there
    for fn, base_fn, scale in ((mp.g_sigma, base.g, 1.0),
                               (mp.dg_sigma, base.dg, 1.0 / sigma),
                               (mp.d2g_sigma, base.d2g, 1.0 / sigma**2)):
        ref = float(base_fn(two_sigma)[0])
        assert fn(two_sigma)[0] == ref
        assert abs(float(fn(below)[0]) - ref) <= 64.0 * eps * (scale + abs(ref))
    # convex below 2 sigma
    s = 2.0 * sigma * np.sort(np.asarray(fractions))
    d2 = mp.d2g_sigma(s)
    assert np.all(d2 >= -64.0 * eps / sigma**2)
    # midpoint convexity between every pair of samples
    a, b = np.meshgrid(s, s)
    ga, gb = mp.g_sigma(a), mp.g_sigma(b)
    mid = mp.g_sigma(0.5 * (a + b))
    assert np.all(mid <= 0.5 * (ga + gb) + 64.0 * eps * (np.abs(ga) + np.abs(gb)))
