"""Property tests: the quantities solve_step and run carry from the Newton
iterate equal their standalone recomputations bit for bit, a warm start
reaches the cold step's flux, a run started from predicted fluxes
reaches the heights of the previous-flux chain, and the discrete
identities hold (mass
telescoping, one-step EDI, summation by parts, barrier contact and
convexity), over random rheology, mobility, potential, barrier, grid and
height; the run record's column reductions equal the row loops they
replace; and the Newton kernels (the dpbsv solve, also of members'
bands side by side, the one-pass barrier terms, the carried mu and
G_sigma'') equal the references they replace."""

import math
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tfilm.driver
import tfilm.step
from tfilm.driver import (
    InitialDataSpec,
    RunConfig,
    audit_ede,
    holder_quotient,
    run,
    run_many,
    sigma_continuation,
)
from tfilm.grid import Grid, divergence, gradient, integrate, laplacian_neumann, zero_flux
from tfilm.models import (
    INFINITE_ENERGY,
    ModelParams,
    ModifiedPotential,
    energy,
    power_mobility,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from tfilm.step import (
    StepBatch,
    StepNonconvergenceError,
    StepParams,
    el_residual,
    solve_step,
    solveh_banded,
)

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
    assert res.energy_before == energy(g, u, model.modified)
    assert res.energy_after == energy(g, res.u_next, model.modified)
    assert res.el_residual_norm == el_residual(g, res, u, model)
    mass = integrate(g, u)
    assert abs(integrate(g, res.u_next) - mass) <= 1e-13 * mass
    tol_audit = sp.eps_min ** model.p * g.L + 10.0 * sp.tol_grad
    slack = res.energy_before.total - res.energy_after.total - sp.h * res.dissipation_flux_term
    assert slack >= -tol_audit


@SETTINGS
@given(cases())
def test_newton_iterate_carries_its_mu_and_curvature(case):
    g, model, sp, u = case
    mp = model.modified
    solved = []
    real = tfilm.step._solve

    def recording(prob, start):
        sol = real(prob, start)
        solved.append(sol)
        return sol

    with patch.object(tfilm.step, "_solve", recording):
        solve_step(g, u, model, sp)
    # the one-member stack of the solved iterate; G_sigma'' is the scalar 0.0
    # where it vanishes
    sol = solved[-1]
    (v,), (mu,), (d2g,) = sol.u, sol.mu, np.broadcast_to(sol.d2g, sol.u.shape)
    assert np.array_equal(np.stack([mu, d2g]),
                          np.stack([-laplacian_neumann(g, v) + mp.dg_sigma(v), mp.d2g_sigma(v)]))


@SETTINGS
@given(cases(), st.integers(1, 3))
def test_run_energy_columns_match_snapshots(case, record_every):
    g, model, sp, u = case
    cfg = RunConfig(grid=g, model=model, step=sp, T=4 * sp.h, record_every=record_every,
                    initial=InitialDataSpec("values", values=tuple(u)))
    series = run(cfg)
    for k, snap in series.snapshots.items():
        e = energy(g, snap, model.modified)
        d = series.diagnostics[k]
        assert (d.E_dirichlet, d.E_potential, d.E_total) == e
        assert abs(d.mass - series.diagnostics[0].mass) <= 1e-13 * series.diagnostics[0].mass
    assert all(d.ede_slack >= -cfg.tol_audit for d in series.diagnostics[1:])


def holding(g, u, model, sp, j=None):
    """A run's one-member batch at height u whose predicted flux is the
    face field j (none if j is None)."""
    batch = StepBatch(g, [model], [sp], [energy(g, u, model.modified)])
    if j is not None:
        state = batch.states[0]
        state.record(j[1:-1].copy(), state.energy_star)
    return batch


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
    warm = solve_step(g, first.u_next, model, sp,
                      state=holding(g, first.u_next, model, sp, first.j))
    # tol_grad bounds the gradient, not the flux: large fluxes (small h)
    # carry a proportional roundoff error
    scale = max(1.0, float(np.max(np.abs(cold.j))))
    assert np.max(np.abs(warm.j - cold.j)) <= 10.0 * sp.tol_grad * scale
    tol_audit = sp.eps_min ** model.p * g.L + 10.0 * sp.tol_grad
    assert edi_slack(cold, sp) >= -tol_audit
    assert edi_slack(warm, sp) >= -tol_audit


# one alpha range per rheology branch: shear-thickening, Newtonian, shear-thinning
BRANCHES = {"thickening": st.floats(0.3, 0.95), "newtonian": st.just(1.0),
            "thinning": st.floats(1.05, 3.0)}


@SETTINGS
@given(cases(), st.sampled_from(sorted(BRANCHES)), st.data())
def test_predicted_run_matches_the_previous_flux_chain(case, branch, data):
    g, model, sp, u = case
    model = replace(model, alpha=data.draw(BRANCHES[branch]))
    n_steps = 6  # the quadratic predictor starts steps 4 to 6
    chain, j = [u], None
    try:
        for _ in range(n_steps):
            res = solve_step(g, chain[-1], model, sp, state=holding(g, chain[-1], model, sp, j))
            chain.append(res.u_next)
            j = res.j
    except StepNonconvergenceError:
        reject()  # the claim covers the runs that the previous-flux chain solves
    cfg = RunConfig(grid=g, model=model, step=sp, T=n_steps * sp.h,
                    initial=InitialDataSpec("values", values=tuple(u)))
    series = run(cfg)
    for k in range(1, n_steps + 1):
        assert np.max(np.abs(series.snapshots[k] - chain[k])) <= 1e-7 * np.max(np.abs(chain[k]))
    mass = series.column("mass")
    assert np.max(np.abs(mass - mass[0])) <= 1e-13 * mass[0]
    assert np.all(series.column("ede_slack")[1:] >= -cfg.tol_audit)
    assert np.all(series.column("el_residual")[1:] <= cfg.el_bound)


@SETTINGS
@given(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from(["zero", "quadratic"]), st.booleans(),
       st.integers(16, 40), st.integers(0, 2**32 - 1))
def test_a_mirrored_start_gives_the_mirrored_run(alpha, kind, glue, N, seed):
    # x -> L - x maps the scheme onto itself: each cell, face and power is
    # mirrored exactly (a - b = -(b - a) in floating point), and only the
    # order of the sums and of the band factorisation differs.  Newton takes
    # the same decisions and corrects a rounded direction at its next
    # iteration, so a step keeps a few ulps of max|u| of fresh rounding, and
    # the energy-stable scheme does not amplify what earlier steps left:
    # 16 ulps per step bounds it.
    rng = np.random.default_rng(seed)
    sigma = 0.01
    g = Grid(1.0, N)
    x = g.cell_centers()
    u = 1.0 + sum(rng.uniform(-1.0, 1.0) * np.cos(k * np.pi * x) / k for k in range(1, 5))
    u = u - u.min() + 2.0 * sigma * (rng.uniform(0.5, 0.9) if glue else rng.uniform(2.0, 20.0))
    model = ModelParams(alpha=alpha, mobility=power_mobility(2.0), sigma=sigma,
                        potential=POTENTIALS[kind](rng.random()))
    runs = [run(RunConfig(grid=g, model=model, step=StepParams(h=1e-5, tol_grad=1e-8),
                          T=6e-5, initial=InitialDataSpec("values", values=tuple(v))))
            for v in (u, u[::-1])]
    assert np.array_equal(runs[0].column("newton_iters"), runs[1].column("newton_iters"))
    scale = float(np.max(np.abs(u)))
    for k, v in runs[0].snapshots.items():
        gap = float(np.max(np.abs(runs[1].snapshots[k][::-1] - v)))
        assert gap <= 16 * k * np.finfo(float).eps * scale, (k, gap / scale)


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
    mp = ModifiedPotential(base, sigma)
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


# ---------------------------------------------------------------------------
# the Newton kernels against the references they replace

@st.composite
def spd_pentadiagonals(draw, sizes=st.integers(3, 300)):
    """(ab, b): a strictly diagonally dominant symmetric pentadiagonal
    matrix in upper band storage, hence SPD, and a right-hand side."""
    M = draw(sizes)
    entries = st.floats(-1.0, 1.0)
    ab = np.zeros((3, M))
    ab[1, 1:] = draw(hnp.arrays(float, M - 1, elements=entries))
    ab[0, 2:] = draw(hnp.arrays(float, M - 2, elements=entries))
    off = np.zeros(M)
    for k in (1, 2):
        band = np.abs(ab[2 - k, k:])
        off[k:] += band
        off[:-k] += band
    ab[2] = off + draw(hnp.arrays(float, M, elements=st.floats(1e-3, 10.0)))
    b = draw(hnp.arrays(float, M, elements=st.floats(-1e3, 1e3)))
    return ab, b


@SETTINGS
@given(spd_pentadiagonals())
def test_dpbsv_wrapper_matches_scipy_solveh_banded(system):
    ab, b = system
    assert np.array_equal(solveh_banded(ab, b), scipy.linalg.solveh_banded(ab, b))


@SETTINGS
@given(spd_pentadiagonals(), st.data())
def test_dpbsv_wrapper_refuses_an_indefinite_matrix(system, data):
    ab, b = system
    ab[2, data.draw(st.integers(0, ab.shape[1] - 1))] = -data.draw(st.floats(0.0, 10.0))
    with pytest.raises(np.linalg.LinAlgError):
        solveh_banded(ab, b)


@SETTINGS
@given(spd_pentadiagonals(), st.booleans(), st.sampled_from([np.nan, np.inf, -np.inf]),
       st.data())
def test_dpbsv_wrapper_refuses_non_finite_input(system, in_matrix, bad, data):
    ab, b = system
    target = ab if in_matrix else b
    # every entry of ab counts, also the corner that the solve never reads
    target.flat[data.draw(st.integers(0, target.size - 1))] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solveh_banded(ab, b)


@st.composite
def stacked_pentadiagonals(draw):
    """(ab, b, go): B of them of one size side by side, ab (3, B, M) and b
    (B, M), each band and right-hand side scaled by its own power of ten,
    and the iterating members go, a sorted non-empty subset."""
    B, M = draw(st.integers(1, 12)), draw(st.integers(3, 40))
    ab, b = np.zeros((3, B, M)), np.zeros((B, M))
    for i in range(B):
        ab[:, i], b[i] = draw(spd_pentadiagonals(st.just(M)))
        ab[:, i] *= 10.0 ** draw(st.integers(-100, 100))
        b[i] *= 10.0 ** draw(st.integers(-100, 100))
    go = sorted(draw(st.sets(st.integers(0, B - 1), min_size=1)))
    return ab, b, go


@SETTINGS
@given(stacked_pentadiagonals())
def test_the_stacked_solve_is_each_members_own_solve(system):
    ab, b, go = system
    x = solveh_banded(ab[:, go], b[go])
    assert x.shape == (len(go), ab.shape[-1])
    for k, i in enumerate(go):
        assert x[k].tobytes() == solveh_banded(ab[:, i], b[i]).tobytes(), k


@SETTINGS
@given(stacked_pentadiagonals(), st.data())
def test_the_stacked_solve_names_the_member_that_is_not_positive_definite(system, data):
    ab, b, go = system
    k = data.draw(st.integers(0, len(go) - 1))
    i = go[k]
    ab[2, i, data.draw(st.integers(0, ab.shape[-1] - 1))] = -data.draw(st.floats(0.0, 10.0))
    with pytest.raises(np.linalg.LinAlgError) as alone:
        solveh_banded(ab[:, i], b[i])
    with pytest.raises(np.linalg.LinAlgError) as stacked:
        solveh_banded(ab[:, go], b[go])
    # its place among the solved members, and its own minor in its own message
    assert stacked.value.block == k
    assert stacked.value.minor == alone.value.minor
    assert str(stacked.value) == str(alone.value)


@SETTINGS
@given(alpha=st.floats(0.1, 1.0, exclude_max=True), N=st.integers(4, 2048),
       n=st.floats(1.0, 3.0), h=st.sampled_from([1e-6, 1e-4, 1e-2]),
       low=st.floats(0.011, 1.0), spread=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_a_shear_thickening_newton_band_factorises_unshifted(alpha, N, n, h, low, spread, seed):
    # at zero flux and eps_min, psi_eps'' = eps_min^(p-2) all but vanishes
    # (p > 2), so the energy block alone keeps the band positive definite
    g = Grid(1.0, N)
    model = ModelParams(alpha=alpha, mobility=power_mobility(n), potential=zero_potential(),
                        sigma=0.01)
    sp = StepParams(h=h)
    prob = tfilm.step._Problem(g, [model], [sp])
    u = low + spread * np.random.default_rng(seed).random((1, N))
    m_int = prob.checked(u, [energy(g, u[0], model.modified)])
    w = m_int ** (-1.0 / alpha)
    q = np.zeros((1, N - 1))
    _, mu, d2g = tfilm.step._evaluate(g, u, prob.potential, prob.pad)
    s2, eps2 = q * q, sp.eps_min * sp.eps_min
    bands = tfilm.step._energy_bands(g.dx, prob.lap_diag, prob.ao, h, d2g)
    ab = prob.ab
    tfilm.step._newton_bands(ab, bands, g.dx, h, w, s2, s2 + eps2, eps2, model.p)
    grad = h * g.dx * tfilm.step._reduced_gradient(g.dx, mu, w, q, s2 + eps2, model.p)[0]
    x = solveh_banded(ab, -grad)
    assert float(grad[0] @ x[0]) < 0.0


@st.composite
def constant_curvature_stacks(draw):
    """(grid, models, steps, (B, N) heights): members with a zero or
    quadratic base, whose coefficients a and step sizes h are each shared
    (a scalar) or not (a column), with or without a barrier, every height
    above its 2 sigma."""
    B, N = draw(st.integers(1, 4)), draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.sampled_from([0.0, 1.5])) * np.ones(B)
    if draw(st.booleans()):
        a = np.where(rng.random(B) < 0.3, 0.0, rng.uniform(0.1, 3.0, B))
    h = draw(st.sampled_from([1e-6, 1e-3])) * (rng.uniform(1.0, 2.0, B)
                                               if draw(st.booleans()) else np.ones(B))
    sigma = draw(st.sampled_from([None, 0.01, 0.1]))
    models = [ModelParams(alpha=float(rng.choice([0.5, 1.0, 2.0])),
                          mobility=power_mobility(2.0),
                          potential=quadratic_potential(c) if c else zero_potential(),
                          sigma=sigma) for c in a]
    u = 2.0 * (sigma or 0.05) * (1.0 + 4.0 * rng.random((B, N)))
    return Grid(1.0, N), models, [StepParams(h=float(x)) for x in h], u


@SETTINGS
@given(constant_curvature_stacks(), st.integers(0, 2**32 - 1))
def test_the_run_energy_block_equals_the_bands_of_the_dense_curvature(stack, seed):
    # where G_sigma'' is a's own value on every row (a scalar or a column),
    # the Newton bands from the energy block built once for the run equal,
    # byte for byte, those built from G_sigma'' as dense rows, also over a
    # band storage that a barrier-zone pass left behind
    g, models, steps, u = stack
    prob = tfilm.step._Problem(g, models, steps)
    _, _, d2g = tfilm.step._evaluate(g, u, prob.potential, prob.pad)
    assert np.ndim(d2g) == 0 or np.shape(d2g) == (len(u), 1)
    rng = np.random.default_rng(seed)
    B, n = len(u), g.N - 1
    w, q, eps2 = 0.5 + rng.random((B, n)), rng.standard_normal((B, n)), 1e-6
    args = (g.dx, prob.h, w, q * q, q * q + eps2, eps2, prob.p)
    cached, dense = prob.ab.copy(), prob.ab.copy()
    cached[2], cached[1, :, 1:] = rng.random((B, n)), rng.random((B, n - 1))
    tfilm.step._newton_bands(cached, prob.energy_bands, *args)
    rows = np.broadcast_to(d2g, u.shape).copy()
    tfilm.step._newton_bands(
        dense, tfilm.step._energy_bands(g.dx, prob.lap_diag, prob.ao, prob.h, rows), *args)
    assert cached.tobytes() == dense.tobytes()


@pytest.mark.parametrize("alpha, N, lift", [(2.0, 16, 1.3), (0.5, 32, 1.2)])
def test_a_step_into_the_barrier_zone_and_out_equals_it_without_the_run_energy_block(
        alpha, N, lift):
    # the Newton iterates of the step enter the glue below 2 sigma, where a
    # pass builds the energy block from the rows of G_sigma'', and leave it
    # again, where the block built for the run is taken; the step equals, bit
    # for bit, the step that builds every energy block from the rows
    sigma, h = 0.01, 3e-3
    g = Grid(1.0, N)
    x = g.cell_centers()
    u = 2.0 * sigma * lift + np.maximum(0.0, np.cos(np.pi * (x - 0.5) / 0.4)) ** 2
    model = ModelParams(alpha=alpha, mobility=power_mobility(2.0),
                        potential=quadratic_potential(1.0), sigma=sigma)
    sp = StepParams(h=h, tol_grad=1e-8)
    real = tfilm.step._newton_bands

    def solved(run_block):
        state = StepBatch(g, [model], [sp], [energy(g, u, model.modified)])
        prob = state.problem
        taken = []

        def recording(ab, bands, *args):
            taken.append("run" if bands is prob.energy_bands else "rows")
            return real(ab, bands, *args)

        with patch.object(tfilm.step, "_newton_bands", recording), \
                patch.object(prob, "energy_bands", prob.energy_bands if run_block else None):
            res = solve_step(g, u, model, sp, state=state)
        return res, taken

    (res, taken), (ref, ref_taken) = solved(True), solved(False)
    # the run's block, then the rows' in the barrier zone, then the run's again
    assert taken[0] == taken[-1] == "run" and "rows" in taken
    assert set(ref_taken) == {"rows"} and len(ref_taken) == len(taken)
    assert res.u_next.tobytes() == ref.u_next.tobytes()
    assert res.j.tobytes() == ref.j.tobytes()
    assert (res.newton_iters, res.energy_after, res.el_residual_norm) == (
        ref.newton_iters, ref.energy_after, ref.el_residual_norm)


# G_sigma, G_sigma' and G_sigma'' as three separate passes (the formulas the
# one-pass evaluation replaced), each a Taylor-extended base plus the glue

def ref_base_ext(mp, s, order):
    two_sigma = 2.0 * mp.sigma
    fn = (mp.base.g, mp.base.dg, mp.base.d2g)[order]
    out = fn(np.maximum(s, two_sigma))
    low = s < two_sigma
    if np.any(low):
        d = s[low] - two_sigma
        out[low] = (mp.g0 + mp.g1 * d + 0.5 * mp.g2 * d * d, mp.g1 + mp.g2 * d, mp.g2)[order]
    return out


def ref_g_sigma(mp, s):
    if not mp.has_barrier:
        return mp.base.g(s)
    out = ref_base_ext(mp, s, 0)
    glue = s < 2.0 * mp.sigma
    if np.any(glue):
        sg = np.where(s > 0, s, 1.0)
        phi = mp.sigma**2 / sg**2 + mp.a_phi * sg**2 + mp.b_phi * sg + mp.c_phi
        out[glue] += phi[glue]
    out[s <= 0] = INFINITE_ENERGY
    return out


def ref_dg_sigma(mp, s):
    if not mp.has_barrier:
        return mp.base.dg(s)
    out = ref_base_ext(mp, s, 1)
    glue = (s > 0) & (s < 2.0 * mp.sigma)
    if np.any(glue):
        sg = s[glue]
        out[glue] += -2.0 * mp.sigma**2 / sg**3 + 2.0 * mp.a_phi * sg + mp.b_phi
    return out


def ref_d2g_sigma(mp, s):
    if not mp.has_barrier:
        return mp.base.d2g(s)
    out = ref_base_ext(mp, s, 2)
    glue = (s > 0) & (s < 2.0 * mp.sigma)
    if np.any(glue):
        sg = s[glue]
        out[glue] += 6.0 * mp.sigma**2 / sg**4 + 2.0 * mp.a_phi
    return out


@SETTINGS
@given(st.sampled_from(sorted(POTENTIALS)), st.floats(0.0, 1.0),
       st.one_of(st.none(), st.floats(0.005, 0.45)),
       st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-1.0, -1e-3)),
                min_size=1, max_size=40))
def test_one_pass_barrier_terms_match_the_formulas(kind, c, sigma, fractions):
    base = POTENTIALS[kind](c)
    if sigma is None:
        mp, s = ModifiedPotential(base, None), np.array(fractions)
    else:
        # heights on both sides of 0 and of 2 sigma, and 2 sigma itself
        mp = ModifiedPotential(base, sigma)
        two_sigma = 2.0 * sigma
        edge = [two_sigma, np.nextafter(two_sigma, 0.0), np.nextafter(two_sigma, 1.0)]
        s = np.array([two_sigma * f for f in fractions] + edge)
    got = np.stack([mp.g_sigma(s), mp.dg_sigma(s), mp.d2g_sigma(s)])
    ref = np.stack([ref_g_sigma(mp, s), ref_dg_sigma(mp, s), ref_d2g_sigma(mp, s)])
    assert np.array_equal(got, ref)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def evaluation_stacks(draw):
    """(grid, the members' G_sigma, (B, N) heights, whether G_sigma is zero
    on every row, whether G_sigma'' is a's own value on every row): each
    member a zero, quadratic or strong-singular base, with or without a
    barrier, and each row above 2 sigma, reaching into the glue (0 < u <
    2 sigma) or holding a non-positive cell.  A flat stack has zero bases
    only and every row above its 2 sigma."""
    B, N = draw(st.integers(1, 4)), draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.random() < 0.3
    mps, rows, zero = [], [], True
    for _ in range(B):
        kind = "zero" if flat else rng.choice(sorted(POTENTIALS))
        sigma = None if rng.random() < 0.3 else 0.005 + 0.2 * rng.random()
        mps.append(ModifiedPotential(POTENTIALS[kind](rng.random()), sigma))
        two_sigma = 2.0 * (sigma or 0.2)
        u = two_sigma * (1.0 + 4.0 * rng.random(N))
        row = "above" if flat else rng.choice(["above", "glue", "non-positive"])
        cells = rng.choice(N, size=rng.integers(1, N + 1), replace=False)
        if row == "glue":
            u[cells] = two_sigma * rng.uniform(1e-3, 1.0, len(cells))
        elif row == "non-positive":
            u[cells[0]] = rng.choice([0.0, -0.0, -1e-3, -1.0])
        rows.append(u)
        zero = zero and mps[-1].base.a == 0.0 == mps[-1].base.A and not (
            sigma is not None and (u < two_sigma).any())
    u = np.array(rows)
    # no singular term, no cell in the glue, and a = 0 or every cell positive
    constant = (all(mp.base.A == 0.0 for mp in mps)
                and not any(mp.has_barrier and (row < 2.0 * mp.sigma).any()
                            for mp, row in zip(mps, u))
                and (all(mp.base.a == 0.0 for mp in mps) or (u > 0.0).all()))
    return Grid(1.0, N), mps, u, zero, constant


@SETTINGS
@given(evaluation_stacks(), st.integers(0, 2**32 - 1))
def test_one_evaluation_equals_energy_and_chemical_potential(stack, seed):
    # each row of the one evaluation of a stack equals, bit for bit, its
    # member's energy and mu from the grid operators and the formula oracles
    g, mps, u, zero, constant = stack
    mp = ModifiedPotential.stack(mps)
    pad = np.zeros((len(u), g.N + 1))
    pad[:, 1:-1] = np.random.default_rng(seed).random((len(u), g.N - 1))  # a reused buffer
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, mu, d2g = tfilm.step._evaluate(g, u, mp, pad)
    # G_sigma'' is a scalar or a (B, 1) column exactly where it is a's own
    # value on every row, and the scalar 0.0 exactly where G_sigma vanishes
    assert (np.ndim(d2g) == 0 or np.shape(d2g) == (len(u), 1)) == constant
    assert (isinstance(d2g, float) and d2g == 0.0) == zero
    d2g = np.broadcast_to(d2g, u.shape)
    for i, own in enumerate(mps):
        du = gradient(g, u[i])
        dirichlet = 0.5 * float(np.add.reduce(du * du)) * g.dx
        potential = integrate(g, ref_g_sigma(own, u[i]))
        assert same_bits(e.dirichlet[i], dirichlet)
        assert same_bits(e.potential[i], potential)
        assert same_bits(e.total[i], dirichlet + potential)
        assert same_bits(mu[i], ref_dg_sigma(own, u[i]) - laplacian_neumann(g, u[i]))
        assert same_bits(d2g[i], ref_d2g_sigma(own, u[i]))
        if own.has_barrier and (u[i] <= 0.0).any():
            assert e.total[i] == e.potential[i] == INFINITE_ENERGY


# ---------------------------------------------------------------------------
# the record's column reductions against the row loops they replace

def short_config(n_steps=40, record_every=1):
    # h large enough that the dissipation sums are not lost in the energy's roundoff
    h = 1e-4
    model = ModelParams(alpha=2.0, mobility=power_mobility(2.0),
                        potential=quadratic_potential(1.0), sigma=0.05)
    return RunConfig(grid=Grid(1.0, 16), model=model, step=StepParams(h=h, tol_grad=1e-8),
                     T=n_steps * h, record_every=record_every,
                     initial=InitialDataSpec("cosine", M=1.0, amplitude=0.3, mode=1))


@pytest.fixture(scope="module")
def short_run():
    return run(short_config())


def loop_audit_slack(series, s_idx, t_idx):
    h = series.config.step.h
    dsum = 0.0
    for k in range(s_idx + 1, t_idx + 1):
        dsum += h * series.diagnostics[k].diss_flux
    return series.diagnostics[t_idx].E_total + dsum - series.diagnostics[s_idx].E_total


def loop_limit_edi_slack(series, u0, sigma, cfg):
    g, h = cfg.grid, cfg.step.h
    base_mp = ModifiedPotential(cfg.model.potential, None)
    e0 = energy(g, u0, base_mp).total
    diss_cum, worst = 0.0, math.inf
    for k, d in enumerate(series.diagnostics):
        if k == 0:
            continue  # the t = 0 slack is 0 by construction and is left out
        diss_cum += h * d.diss_strong
        ut = series.snapshots.get(k)
        if ut is None:
            continue
        du_sq = energy(g, ut, base_mp).dirichlet
        pot_vals = cfg.model.potential.g(ut)
        pot = float(np.sum(pot_vals[ut >= 2.0 * sigma]) * g.dx)
        worst = min(worst, e0 - (du_sq + pot) - diss_cum)
    return worst


def loop_holder_quotient(snapshots_by_time, alpha):
    items = sorted(snapshots_by_time.items())
    expo = 1.0 / (5.0 * alpha + 3.0)
    best = 0.0
    for i in range(len(items)):
        ti, ui = items[i]
        for j in range(i + 1, len(items)):
            tj, uj = items[j]
            best = max(best, float(np.max(np.abs(uj - ui))) / (tj - ti) ** expo)
    return best


@SETTINGS
@given(data=st.data())
def test_audit_ede_matches_row_loop(short_run, data):
    series = short_run
    n = len(series.diagnostics)
    s_idx = data.draw(st.integers(0, n - 2))
    t_idx = data.draw(st.integers(s_idx + 1, n - 1))
    assert audit_ede(series, s_idx, t_idx).slack == loop_audit_slack(series, s_idx, t_idx)


@SETTINGS
@given(first=st.integers(0, 39), length=st.integers(1, 40), stride=st.integers(1, 3),
       alpha=st.floats(0.3, 3.0))
def test_holder_quotient_matches_pair_loop(short_run, first, length, stride, alpha):
    series = short_run
    keys = range(first, min(first + length, len(series.diagnostics) - 1) + 1, stride)
    assume(len(keys) >= 2)
    span = replace(series, snapshots={k: series.snapshots[k] for k in keys})
    h = series.config.step.h
    by_time = {k * h: series.snapshots[k] for k in keys}
    assert holder_quotient(span, alpha) == loop_holder_quotient(by_time, alpha)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(1, 40), st.integers(1, 3), st.floats(2.0, 100.0))
def test_limit_edi_slack_matches_row_loop(n_steps, record_every, factor):
    cfg = short_config(n_steps, record_every)
    # non-negative, and below 2 sigma near x = 1, where the base potential is masked
    u0 = 0.5 * (1.0 + np.cos(np.pi * cfg.grid.cell_centers()))

    # The true slacks of this run are positive; an inflated dissipation
    # column drives them below zero, the case the limit-EDI gate is for.
    def inflated_run_many(configs):
        all_series = run_many(configs)
        for series in all_series:
            series.diagnostics["diss_strong"] *= factor
        return all_series

    with patch.object(tfilm.driver, "run_many", inflated_run_many):
        report = sigma_continuation(u0, [0.05, 0.02], cfg)
    for sigma, series, slack in zip(report.sigmas, report.series,
                                    report.limit_edi_min_slack):
        assert slack < 0.0
        assert slack == loop_limit_edi_slack(series, u0 + 2.0 * sigma, sigma, cfg)


def test_record_columns_are_read_only(short_run):
    for col in (short_run.column("mass"), short_run.times):
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 1.0
