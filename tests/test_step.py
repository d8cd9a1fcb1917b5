import dataclasses
import itertools
import math

import numpy as np
import pytest

import tfilm.step
from tfilm.driver import InitialDataSpec, RunConfig, run
from tfilm.grid import Grid, divergence, integrate, laplacian_neumann, zero_flux
from tfilm.models import (
    EnergyBreakdown,
    ModelParams,
    constant_mobility,
    energy,
    mobility_face,
    power_mobility,
    psi,
    quadratic_potential,
    zero_potential,
)
from tfilm.step import (
    StepBatch,
    StepCheckError,
    StepNonconvergenceError,
    StepParams,
    StepState,
    _functional,
    _reduced_gradient,
    el_residual,
    reduced_objective,
    solve_step,
)


def barrier_model(alpha=1.0, n=2.0, sigma=0.05, pot=None):
    return ModelParams(alpha=alpha, mobility=power_mobility(n),
                       potential=pot or zero_potential(), sigma=sigma)


def holding(g, u, model, sp, j):
    """A run's one-member batch at height u whose predicted flux is the
    face field j."""
    batch = StepBatch(g, [model], [sp], [energy(g, u, model.modified)])
    state = batch.states[0]
    state.record(j[1:-1].copy(), state.energy_star)
    return batch


def test_reduced_objective_zero_flux_is_energy():
    g = Grid(1.0, 32)
    rng = np.random.default_rng(0)
    u = 1.0 + 0.3 * rng.random(32)
    model = barrier_model()
    sp = StepParams(h=1e-4)
    f0 = reduced_objective(g, zero_flux(g), u, model, sp, eps=1e-6)
    e = energy(g, u, model.modified)
    assert f0 == pytest.approx(e.total, rel=1e-14)


def test_reduced_objective_quadratic_case():
    # alpha = 1, eps = 0: the dissipation term is exactly h/2 sum w j^2 dx
    g = Grid(1.0, 16)
    rng = np.random.default_rng(1)
    u = 1.0 + 0.2 * rng.random(16)
    model = barrier_model(alpha=1.0)
    sp = StepParams(h=2e-4)
    j = zero_flux(g)
    j[1:-1] = rng.standard_normal(15)
    w = mobility_face(model.mobility, u, g)[1:-1] ** -1.0
    expected = energy(g, u - sp.h * divergence(g, j), model.modified).total \
        + sp.h * 0.5 * g.dx * np.sum(w * j[1:-1] ** 2)
    assert reduced_objective(g, j, u, model, sp, eps=0.0) == pytest.approx(expected, rel=1e-13)


def test_smoothed_power_close_to_power():
    # |psi_eps(s) - |s|^p| <= eps^p in the smoothing regime p <= 2
    rng = np.random.default_rng(2)
    s = rng.standard_normal(200) * 5.0
    for p in (1.2, 1.5, 2.0):
        for eps in (1e-2, 1e-5):
            # the dissipation term of the step functional, one value per row
            psi_eps = _functional([1.0] * len(s), p, eps**p, 1.0, (s * s + eps * eps)[:, None],
                                  EnergyBreakdown(None, None, [0.0] * len(s)))
            gap = np.abs(np.array(psi_eps) - np.abs(s) ** p)
            assert np.all(gap <= eps**p * (1.0 + 1e-12))


def test_reduced_objective_infinite_past_barrier():
    g = Grid(1.0, 16)
    u = np.full(16, 0.05)
    model = barrier_model(sigma=0.02)
    sp = StepParams(h=1.0)
    j = zero_flux(g)
    j[1] = 10.0  # drains the first cell far below zero
    assert not np.isfinite(reduced_objective(g, j, u, model, sp, eps=1e-6))


def test_gradient_matches_finite_differences():
    g = Grid(1.0, 48)
    rng = np.random.default_rng(3)
    u = 1.0 + 0.4 * rng.random(48)
    model = barrier_model(alpha=2.0, n=2.0, pot=quadratic_potential(0.5))
    sp = StepParams(h=1e-3)
    eps = 1e-3
    j = zero_flux(g)
    j[1:-1] = 0.01 * rng.standard_normal(47)

    mp = model.modified
    uu = u - sp.h * divergence(g, j)
    mu = -laplacian_neumann(g, uu) + mp.dg_sigma(uu)
    w = mobility_face(model.mobility, u, g)[1:-1] ** (-1.0 / model.alpha)
    q = j[1:-1]
    grad = sp.h * g.dx * _reduced_gradient(g.dx, mu, w, q, q * q + eps * eps, model.p)[0]

    for _ in range(5):
        d = zero_flux(g)
        d[1:-1] = rng.standard_normal(47)
        fd = 1e-6
        fp = reduced_objective(g, j + fd * d, u, model, sp, eps)
        fm = reduced_objective(g, j - fd * d, u, model, sp, eps)
        num = (fp - fm) / (2 * fd)
        ana = float(np.dot(grad, d[1:-1]))
        assert num == pytest.approx(ana, rel=1e-5)


def test_constant_state_is_fixed_point():
    g = Grid(1.0, 32)
    model = barrier_model()
    res = solve_step(g, np.full(32, 1.3), model, StepParams(h=1e-3))
    assert res.newton_iters == 0
    assert np.all(res.j == 0.0)
    assert np.array_equal(res.u_next, np.full(32, 1.3))


def test_single_step_biharmonic_oracle():
    g = Grid(1.0, 64)
    model = ModelParams(alpha=1.0, mobility=constant_mobility(),
                        potential=zero_potential(), sigma=None)
    k, a, M, h = 2, 0.1, 1.0, 1e-4
    x = g.cell_centers()
    lam = (2.0 - 2.0 * np.cos(k * np.pi / g.N)) / g.dx**2
    u = M + a * np.cos(k * np.pi * x / g.L)
    res = solve_step(g, u, model, StepParams(h=h, tol_grad=1e-8))
    pred = M + a / (1.0 + h * lam**2) * np.cos(k * np.pi * x / g.L)
    assert np.max(np.abs(res.u_next - pred)) < 1e-12


def test_mass_conserved_exactly():
    g = Grid(2.0, 40)
    rng = np.random.default_rng(4)
    for alpha in (0.5, 1.0, 2.0):
        u = 0.8 + 0.5 * rng.random(40)
        model = barrier_model(alpha=alpha, n=2.0)
        res = solve_step(g, u, model, StepParams(h=1e-5))
        m0, m1 = integrate(g, u), integrate(g, res.u_next)
        assert abs(m1 - m0) <= 1e-13 * abs(m0)


def test_one_step_edi_and_weak_comparison():
    g = Grid(1.0, 48)
    rng = np.random.default_rng(5)
    u = 1.0 + 0.4 * rng.random(48)
    for alpha in (0.5, 1.0, 2.0):
        model = barrier_model(alpha=alpha, n=2.0, pot=quadratic_potential(1.0))
        sp = StepParams(h=1e-5)
        res = solve_step(g, u, model, sp)
        tol = sp.eps_min**model.p * g.L + 10.0 * sp.tol_grad
        slack = res.energy_before.total - res.energy_after.total \
            - sp.h * res.dissipation_flux_term
        assert slack >= -tol
        assert res.energy_after.total <= res.energy_before.total + 1e-12


def test_dissipation_terms_agree():
    # |j|^p / m^(1/alpha) = m |Psi^-1(j/m)|^(alpha+1) pointwise, with
    # Psi^-1 = psi(1/alpha, .), so the flux term is the strong form too
    g = Grid(1.0, 32)
    rng = np.random.default_rng(6)
    u = 1.0 + 0.3 * rng.random(32)
    for alpha in (0.5, 2.0):
        model = barrier_model(alpha=alpha)
        res = solve_step(g, u, model, StepParams(h=1e-5))
        m = mobility_face(model.mobility, u, g)[1:-1]
        xi = psi(1.0 / alpha, res.j[1:-1] / m)
        strong = g.dx * float(np.sum(m * np.abs(xi) ** (alpha + 1.0)))
        assert strong == pytest.approx(res.dissipation_flux_term, rel=1e-10, abs=1e-12)


def test_uniqueness_probe():
    g = Grid(1.0, 32)
    rng = np.random.default_rng(7)
    u = 1.0 + 0.4 * rng.random(32)
    model = barrier_model(alpha=2.0, n=3.0)
    sp = StepParams(h=1e-5, tol_grad=1e-9)
    res_zero = solve_step(g, u, model, sp)
    j0 = zero_flux(g)
    j0[1:-1] = 1e-3 * rng.standard_normal(31)
    res_pert = solve_step(g, u, model, sp, state=holding(g, u, model, sp, j0))
    assert np.max(np.abs(res_zero.j - res_pert.j)) <= 10.0 * sp.tol_grad


def test_el_residual_zero_for_constant():
    g = Grid(1.0, 16)
    model = barrier_model()
    res = solve_step(g, np.full(16, 1.0), model, StepParams(h=1e-4))
    assert res.el_residual_norm == 0.0


def test_el_residual_bound_and_tightening():
    g = Grid(1.0, 64)
    x = g.cell_centers()
    u = 1.0 + 0.5 * np.cos(np.pi * x) + 0.2 * np.cos(2 * np.pi * x)
    model = barrier_model(alpha=2.0, n=3.0, pot=quadratic_potential(1.0))
    vals = []
    for tol in (1e-2, 1e-4, 1e-6):
        sp = StepParams(h=1e-3, tol_grad=tol, eps0=1e-6, eps_min=1e-6)
        res = solve_step(g, u, model, sp)
        bound = 100.0 * (tol + sp.eps_min ** (model.p - 1.0))
        assert res.el_residual_norm <= bound
        vals.append(res.el_residual_norm)
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0]


def test_preconditions():
    g = Grid(1.0, 16)
    sp = StepParams(h=1e-4)
    # degenerate mobility at a face
    u = np.full(16, 1.0)
    u[5] = -2.0
    with pytest.raises(ValueError):
        solve_step(g, u, ModelParams(1.0, power_mobility(2.0), zero_potential(), None), sp)
    # infinite starting energy under the barrier
    with pytest.raises(ValueError):
        solve_step(g, u, barrier_model(), sp)


def test_nonconvergence_error_carries_state():
    g = Grid(1.0, 64)
    rng = np.random.default_rng(8)
    u = 1.0 + 0.4 * rng.random(64)
    # tolerance far below the double-precision floor of this problem
    sp = StepParams(h=1e-4, tol_grad=1e-15, max_newton=12)
    with pytest.raises(StepNonconvergenceError) as info:
        solve_step(g, u, barrier_model(), sp)
    assert info.value.grad_norm is not None
    assert info.value.j_last is not None


def test_a_newton_cap_near_the_roundoff_floor_says_so():
    # the first lift-off step at N=128 with the default tol_grad 1e-9:
    # eps_machine max|u*| / dx^3 is about 7e-10 there
    g = Grid(1.0, 128)
    u = InitialDataSpec("lifted_parabola", M=1.0, delta=0.1).build(g)
    model = barrier_model(alpha=2.0, sigma=0.001)
    with pytest.raises(StepNonconvergenceError) as info:
        solve_step(g, u, model, StepParams(h=1e-4))
    assert str(info.value).startswith("Newton did not reach tol_grad=1e-09 in 80 iterations")
    assert "within 10x of the roundoff floor eps_machine max|u*| / dx^3" in str(info.value)
    # a cap far above the floor carries no such note
    g, u, model, sp = cholesky_film()
    with pytest.raises(StepNonconvergenceError) as info:
        solve_step(g, u, model, StepParams(h=sp.h, tol_grad=sp.tol_grad, max_newton=0))
    assert str(info.value).startswith("Newton did not reach")
    assert "roundoff" not in str(info.value)


def test_a_fine_shear_thickening_run_converges_in_few_iterations():
    # the band's condition number grows like N^4: at N = 16384 a change of
    # its diagonal by 1e-12 (1 + |d0|) exceeds its smallest eigenvalue and
    # damps the low modes of every direction, so Newton reaches its cap
    g = Grid(1.0, 16384)
    init = InitialDataSpec("cosine", M=1.0, amplitude=0.3)
    floor = np.finfo(float).eps * float(np.max(np.abs(init.build(g)))) / g.dx**3
    cfg = RunConfig(grid=g, model=barrier_model(alpha=0.75, n=1.0, sigma=0.01),
                    step=StepParams(h=1e-4, tol_grad=100.0 * floor), T=3e-4, initial=init)
    series = run(cfg)
    assert series.column("newton_iters")[1] <= 5
    assert (series.column("el_residual") <= cfg.el_bound).all()


def test_el_residual_recompute_matches():
    g = Grid(1.0, 32)
    rng = np.random.default_rng(9)
    u = 1.0 + 0.2 * rng.random(32)
    model = barrier_model(alpha=1.0)
    res = solve_step(g, u, model, StepParams(h=1e-4))
    assert el_residual(g, res, u, model) == pytest.approx(res.el_residual_norm)


def test_mass_check_raises_typed_error(monkeypatch):
    g = Grid(1.0, 32)
    u = 1.0 + 0.3 * np.cos(np.pi * g.cell_centers())
    # every mass evaluation inside the step differs from the last one
    counter, real = itertools.count(), tfilm.step.integrate
    monkeypatch.setattr(tfilm.step, "integrate", lambda g, f: real(g, f) + next(counter))
    with pytest.raises(StepCheckError, match="mass drifted") as info:
        solve_step(g, u, barrier_model(), StepParams(h=1e-4))
    assert isinstance(info.value, RuntimeError)
    assert info.value.u_last.shape == (32,)
    assert info.value.j_last.shape == (31,)


def test_comparison_check_raises_typed_error():
    g = Grid(1.0, 32)
    u = 1.0 + 0.3 * np.cos(np.pi * g.cell_centers())
    model, sp = barrier_model(), StepParams(h=1e-4)
    # a comparison value one unit below the true energy of u_star, carried
    # by a fresh state (no flux to predict from, so the step starts cold)
    e = energy(g, u, model.modified)
    state = StepBatch(g, [model], [sp], [e._replace(total=e.total - 1.0)])
    with pytest.raises(StepCheckError, match="zero-flux comparison"):
        solve_step(g, u, model, sp, state=state)


def test_warm_start_outside_barrier_domain_falls_back_to_cold():
    g = Grid(1.0, 32)
    u = 1.0 + 0.3 * np.cos(np.pi * g.cell_centers())
    model = barrier_model(alpha=2.0)
    sp = StepParams(h=1e-4, tol_grad=1e-8)
    j0 = zero_flux(g)
    j0[16] = 1.0 / sp.h  # empties cell 15 far below zero
    assert np.min(u - sp.h * divergence(g, j0)) < 0.0
    cold = solve_step(g, u, model, sp)
    warm = solve_step(g, u, model, sp, state=holding(g, u, model, sp, j0))
    assert np.array_equal(warm.u_next, cold.u_next)
    assert np.array_equal(warm.j, cold.j)
    assert warm.newton_iters == cold.newton_iters
    assert warm.energy_after == cold.energy_after


def test_failed_warm_start_reruns_the_cold_ladder(monkeypatch):
    g = Grid(1.0, 32)
    u = 1.0 + 0.3 * np.cos(np.pi * g.cell_centers())
    model = barrier_model(alpha=2.0)
    sp = StepParams(h=1e-4, tol_grad=1e-8)
    cold = solve_step(g, u, model, sp)
    real = tfilm.step._solve
    ladders = []

    def failing_at_eps_min_only(prob, start):
        (ladder,) = start.ladders
        ladders.append(list(ladder))
        if len(ladder) == 1:
            raise StepNonconvergenceError("forced", iters=5)
        return real(prob, start)

    monkeypatch.setattr(tfilm.step, "_solve", failing_at_eps_min_only)
    warm = solve_step(g, u, model, sp, state=holding(g, u, model, sp, cold.j))
    assert ladders[0] == [sp.eps_min] and len(ladders[1]) == 7
    assert np.array_equal(warm.u_next, cold.u_next)
    assert warm.newton_iters == cold.newton_iters + 5


# the two ways a Newton direction fails: dpbsv reports the matrix not
# positive definite, or the solved direction is an ascent direction
DIRECTION_FAILURES = {
    "not-positive-definite": "1th leading minor not positive definite",
    "ascent": "not a descent direction",
}


def failing_dpbsv(failure, real=tfilm.step.dpbsv):
    """A dpbsv that fails the way named by `failure`."""
    def forced(ab, b):
        if failure == "not-positive-definite":
            return ab, b, 1
        c, x, info = real(ab, b)
        return c, -x, info
    return forced


def cholesky_film():
    g = Grid(1.0, 64)
    u = 0.2 + 0.8 * (1.0 + np.cos(np.pi * g.cell_centers()))
    return g, u, barrier_model(alpha=2.0, sigma=0.01), StepParams(h=1e-4, tol_grad=1e-8)


@pytest.mark.parametrize("failure", DIRECTION_FAILURES)
def test_a_failed_newton_direction_fails_the_step(monkeypatch, failure):
    g, u, model, sp = cholesky_film()
    monkeypatch.setattr(tfilm.step, "dpbsv", failing_dpbsv(failure))
    with pytest.raises(StepNonconvergenceError) as info:
        solve_step(g, u, model, sp)
    err = info.value
    assert str(err).startswith(f"Newton direction failed: {DIRECTION_FAILURES[failure]}")
    # the payload is the first cold iterate: zero flux, whose height is u_star
    assert err.iters == 0 and err.grad_norm > 0.0
    assert np.array_equal(err.u_last, u) and np.array_equal(err.j_last, np.zeros(g.N - 1))

    cfg = RunConfig(grid=g, model=model, step=sp, T=3 * sp.h,
                    initial=InitialDataSpec("values", values=tuple(u)))
    with pytest.raises(StepNonconvergenceError) as info:
        run(cfg)
    assert str(info.value) == f"step 1 (t = 0.0001) failed: {err}"
    assert np.array_equal(info.value.u_last, err.u_last)


@pytest.mark.parametrize("failure", DIRECTION_FAILURES)
def test_a_failed_newton_direction_from_a_warm_start_is_solved_cold(monkeypatch, failure):
    g, u, model, sp = cholesky_film()
    cold = solve_step(g, u, model, sp)
    real, forced, calls = tfilm.step.dpbsv, failing_dpbsv(failure), []

    def failing_first(ab, b):
        calls.append(1)
        return (forced if len(calls) == 1 else real)(ab, b)

    monkeypatch.setattr(tfilm.step, "dpbsv", failing_first)
    warm = solve_step(g, u, model, sp, state=holding(g, u, model, sp, cold.j))
    # the warm attempt failed in its first iteration, then the cold ladder ran
    assert len(calls) == 1 + cold.newton_iters
    assert warm.newton_iters == cold.newton_iters
    assert np.array_equal(warm.u_next, cold.u_next) and np.array_equal(warm.j, cold.j)


# the two films of the march benchmark: the alpha = 2 eps ladder and the
# alpha = 0.5 shear-thickening power, solved at eps_min alone
MARCH_FILMS = [
    (2.0, 2.0, StepParams(h=1e-4, tol_grad=1e-7, eps0=1e-3, eps_min=1e-9),
     InitialDataSpec("lifted_parabola", M=1.0, delta=0.2)),
    (0.5, 1.0, StepParams(h=1e-4, tol_grad=1e-7),
     InitialDataSpec("cosine", M=1.0, amplitude=0.3)),
]


@pytest.mark.parametrize("alpha,n,sp,init", MARCH_FILMS, ids=["alpha2", "alpha0.5"])
def test_every_newton_iteration_solves_through_the_wrapper(monkeypatch, alpha, n, sp, init):
    cfg = RunConfig(grid=Grid(1.0, 64), model=barrier_model(alpha=alpha, n=n, sigma=0.01),
                    step=sp, T=10 * sp.h, initial=init)
    real = tfilm.step.solveh_banded
    calls = []

    def counted(ab, b):
        calls.append(1)
        return real(ab, b)

    monkeypatch.setattr(tfilm.step, "solveh_banded", counted)
    series = run(cfg)
    assert len(calls) == int(np.sum(series.column("newton_iters"))) > 0


def test_predictor_extrapolates_a_quadratic_flux_sequence():
    g = Grid(1.0, 16)
    state = StepState(energy(g, np.ones(16), barrier_model().modified))
    rng = np.random.default_rng(10)
    a, b, c = rng.standard_normal((3, 15))

    def flux(t):
        return a + b * t + c * t * t

    assert state.predicted_flux() is None
    state.record(flux(0.0), state.energy_star)
    assert np.array_equal(state.predicted_flux(), flux(0.0))
    state.record(flux(1.0), state.energy_star)
    assert np.array_equal(state.predicted_flux(), 2.0 * flux(1.0) - flux(0.0))
    for t in (2.0, 3.0, 4.0):  # the oldest flux drops out after three
        state.record(flux(t), state.energy_star)
        assert np.allclose(state.predicted_flux(), flux(t + 1.0), rtol=0.0, atol=1e-12)


def test_a_state_of_another_grid_or_step_size_is_refused():
    g = Grid(1.0, 16)
    u = 1.0 + 0.1 * np.cos(np.pi * g.cell_centers())
    model, sp = barrier_model(), StepParams(h=1e-4)
    state = StepBatch(g, [model], [sp], [energy(g, u, model.modified)])
    with pytest.raises(ValueError, match="another grid or step size"):
        solve_step(g, u, model, StepParams(h=2e-4), state=state)
    with pytest.raises(ValueError, match="another grid or step size"):
        solve_step(Grid(2.0, 16), u, model, sp, state=state)


def test_a_batch_of_another_model_or_step_parameters_is_refused():
    # a batch carries its members' energy of u*: stepped with another model,
    # it would report that energy as energy_before and audit the EDI against it
    g = Grid(1.0, 16)
    u = 1.0 + 0.1 * np.cos(np.pi * g.cell_centers())
    model = barrier_model(pot=quadratic_potential(5.0))
    sp = StepParams(h=1e-4)
    batch = StepBatch(g, [model], [sp], [energy(g, u, model.modified)])
    pair = StepBatch(g, [model, model], [sp, sp], [energy(g, u, model.modified)] * 2)
    for state, other, other_sp in [
            (batch, barrier_model(pot=quadratic_potential(1.0)), sp),
            (batch, barrier_model(alpha=2.0, pot=quadratic_potential(5.0)), sp),
            (batch, model, StepParams(h=1e-4, tol_grad=1e-8)),
            (pair, model, sp)]:
        with pytest.raises(ValueError, match="model or Newton parameters"):
            solve_step(g, u, other, other_sp, state=state)
    assert not batch.states[0].fluxes


def test_an_equal_model_reuses_the_batch_problem(monkeypatch):
    g = Grid(1.0, 32)
    u = 1.0 + 0.3 * np.cos(np.pi * g.cell_centers())
    model, sp = barrier_model(alpha=2.0), StepParams(h=1e-4, tol_grad=1e-8)
    batch, ref = (StepBatch(g, [model], [sp], [energy(g, u, model.modified)]) for _ in range(2))
    problem, built = batch.problem, []
    real = tfilm.step._Problem
    monkeypatch.setattr(tfilm.step, "_Problem", lambda *args: built.append(args) or real(*args))
    v, w = u, u
    for _ in range(3):
        # an equal but distinct model and step parameters at every step
        res = solve_step(g, v, dataclasses.replace(model), dataclasses.replace(sp), state=batch)
        want = solve_step(g, w, model, sp, state=ref)
        assert res.u_next.tobytes() == want.u_next.tobytes()
        v, w = res.u_next, want.u_next
    assert batch.problem is problem and not built


def test_step_with_state_records_its_flux_and_energy():
    g = Grid(1.0, 32)
    u = 1.0 + 0.3 * np.cos(np.pi * g.cell_centers())
    model, sp = barrier_model(alpha=2.0), StepParams(h=1e-4, tol_grad=1e-8)
    batch = StepBatch(g, [model], [sp], [energy(g, u, model.modified)])
    res = solve_step(g, u, model, sp, state=batch)
    one_shot = solve_step(g, u, model, sp)
    # the first step of a state has no flux to predict from, so it is the cold step
    assert np.array_equal(res.u_next, one_shot.u_next)
    assert res.energy_before == one_shot.energy_before
    (state,) = batch.states
    assert state.energy_star == res.energy_after
    assert np.array_equal(state.fluxes[-1], res.j[1:-1])


@pytest.mark.parametrize("kwargs", [
    {"h": math.inf}, {"h": math.nan}, {"h": 0.0}, {"eps0": math.inf}, {"eps_min": math.inf},
    {"tol_grad": math.inf}, {"tol_grad": -1.0}, {"max_newton": -1}, {"max_newton": 2.5},
    {"max_newton": True},
])
def test_step_params_refuse_non_finite_or_negative_values(kwargs):
    with pytest.raises(ValueError, match="must be"):
        StepParams(**dict({"h": 1e-4}, **kwargs))
