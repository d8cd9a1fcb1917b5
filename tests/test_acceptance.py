"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL
lines; the module takes about 20 seconds, most of it in the shared
randomized runs and the transport-action sweep.
"""

import itertools
import math

import numpy as np
import pytest

from tfilm.driver import (
    InitialDataSpec,
    RunConfig,
    parabola_profile,
    run,
    sigma_continuation,
    holder_quotient,
)
from tfilm.experiments import (
    bb_action_demo,
    dissipation_scaling_fit,
    liftoff_sweep,
    point_lemma_check,
    rate_fit,
)
from tfilm.grid import Grid
from tfilm.models import (
    ModelParams,
    constant_mobility,
    power_mobility,
    quadratic_potential,
    zero_potential,
)
from tfilm.step import StepParams


def verdict(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def mass_drift(series):
    m = series.column("mass")
    u0 = series.snapshots[0.0]
    dx = series.config.grid.dx
    scale = max(abs(m[0]), float(np.sum(np.abs(u0))) * dx)
    return float(np.max(np.abs(m - m[0]))) / scale


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def biharmonic_series():
    g = Grid(1.0, 128)
    model = ModelParams(alpha=1.0, mobility=constant_mobility(),
                        potential=zero_potential(), sigma=None)
    cfg = RunConfig(grid=g, model=model,
                    step=StepParams(h=1e-4, tol_grad=1e-8),
                    T=200e-4, record_every=1,
                    initial=InitialDataSpec("cosine", M=0.0, amplitude=1.0, mode=2))
    return run(cfg)


@pytest.fixture(scope="module")
def random_suite():
    """20 randomized configs spanning alpha x n x potential."""
    rng = np.random.default_rng(20240811)
    combos = list(itertools.product([0.5, 1.0, 2.0], [1.0, 2.0, 3.0],
                                    ["zero", "quadratic"]))
    suite = []
    for i in range(20):
        alpha, n, pk = combos[i % len(combos)]
        N = int(rng.choice([32, 48, 64]))
        g = Grid(1.0, N)
        x = g.cell_centers()
        coeffs = rng.standard_normal(4) / np.arange(1, 5) ** 2
        u0 = 1.0 + 0.4 * sum(c * np.cos((k + 1) * np.pi * x)
                             for k, c in enumerate(coeffs))
        u0 = np.maximum(u0, 0.3)
        pot = zero_potential() if pk == "zero" else \
            quadratic_potential(float(rng.uniform(0.2, 2.0)))
        model = ModelParams(alpha=alpha, mobility=power_mobility(n),
                            potential=pot, sigma=0.05)
        h = float(rng.choice([1e-5, 2e-5]))
        cfg = RunConfig(grid=g, model=model,
                        step=StepParams(h=h, tol_grad=1e-8), T=30 * h,
                        initial=InitialDataSpec("values", values=tuple(u0)))
        suite.append((cfg, run(cfg)))
    return suite


@pytest.fixture(scope="module")
def liftoff_report():
    return liftoff_sweep(
        [1e-1, 1e-2, 1e-3], M=1.0, n=2.0, alpha=1.0,
        grid=Grid(1.0, 256), step=StepParams(h=1e-5, tol_grad=1e-8),
        T=0.008, record_every=20,
    )


@pytest.fixture(scope="module")
def rates_runs():
    out = {}
    # Newtonian: constant-mobility single mode with a closed-form rate
    g = Grid(1.0, 128)
    model = ModelParams(alpha=1.0, mobility=constant_mobility(),
                        potential=zero_potential(), sigma=None)
    cfg = RunConfig(grid=g, model=model, step=StepParams(h=1e-4, tol_grad=1e-8),
                    T=0.05, record_every=50,
                    initial=InitialDataSpec("cosine", M=1.0, amplitude=0.3, mode=1))
    out["newtonian"] = run(cfg)

    # shear-thinning: algebraic decay
    model2 = ModelParams(alpha=2.0, mobility=power_mobility(2.0),
                         potential=zero_potential(), sigma=0.01)
    cfg2 = RunConfig(grid=g, model=model2,
                     step=StepParams(h=1e-4, tol_grad=1e-8, eps0=1e-3, eps_min=1e-9),
                     T=0.5, record_every=100,
                     initial=InitialDataSpec("lifted_parabola", M=1.0, delta=0.2))
    out["thinning"] = run(cfg2)

    # shear-thickening: finite-time extinction
    model3 = ModelParams(alpha=0.5, mobility=power_mobility(1.0),
                         potential=zero_potential(), sigma=0.01)
    cfg3 = RunConfig(grid=g, model=model3, step=StepParams(h=1e-4, tol_grad=1e-8),
                     T=0.3, record_every=100,
                     initial=InitialDataSpec("lifted_parabola", M=1.0, delta=0.2))
    out["thickening"] = run(cfg3)
    return out


@pytest.fixture(scope="module")
def continuation_report():
    g = Grid(1.0, 128)
    u0 = parabola_profile(g, 1.0)
    model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                        potential=zero_potential(), sigma=0.5)
    template = RunConfig(grid=g, model=model,
                         step=StepParams(h=1e-5, tol_grad=1e-8), T=5e-4,
                         record_every=10, initial=InitialDataSpec("constant"))
    return sigma_continuation(u0, [1e-2, 5e-3, 2.5e-3], template)


@pytest.fixture(scope="module")
def bb_reports():
    g = Grid(1.0, 3072)
    x = g.cell_centers()

    def endpoints():
        spec0 = InitialDataSpec("cos_bumps", background=0.01, amplitude=6.0,
                                width=0.012, centers=(0.125, 0.25))
        spec1 = InitialDataSpec("cos_bumps", background=0.01, amplitude=6.0,
                                width=0.012, centers=(0.75, 0.875))
        return spec0.build(g), spec1.build(g)

    u0, u1 = endpoints()
    sweep = [2, 4, 8, 16, 32]
    return {
        "superlinear": bb_action_demo(g, u0, u1, eta=1 / 8, M_sweep=sweep,
                                      n=2.0, alpha=1.0),
        "linear": bb_action_demo(g, u0, u1, eta=1 / 8, M_sweep=sweep,
                                 n=1.0, alpha=1.0),
    }


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_biharmonic_oracle(biharmonic_series):
    s = biharmonic_series
    g = s.config.grid
    h, k = s.config.step.h, 2
    lam = (2.0 - 2.0 * np.cos(k * np.pi / g.N)) / g.dx**2
    mode = np.cos(k * np.pi * g.cell_centers() / g.L)
    worst = 0.0
    for step_idx in range(1, 201):
        u = s.snapshots[step_idx]
        amp = 2.0 * float(np.mean(u * mode))
        pred = (1.0 + h * lam**2) ** (-step_idx)
        worst = max(worst, abs(amp - pred) / pred)
    verdict(1, worst <= 1e-8,
            f"modal amplitude vs (1+h lam^2)^-k over 200 steps: "
            f"worst rel err {worst:.3e} (tol 1e-8)")


def test_criterion_02_mass_conservation(biharmonic_series, random_suite,
                                        liftoff_report, rates_runs,
                                        continuation_report):
    drifts = [mass_drift(biharmonic_series)]
    drifts += [mass_drift(s) for _, s in random_suite]
    drifts += [mass_drift(s) for s in liftoff_report.series]
    drifts += [mass_drift(s) for s in rates_runs.values()]
    drifts += [mass_drift(s) for s in continuation_report.series]
    worst = max(drifts)
    verdict(2, worst <= 1e-13,
            f"relative mass drift over {len(drifts)} runs: worst {worst:.3e} "
            f"(tol 1e-13)")


def test_criterion_03_per_step_edi(random_suite):
    total, violations, worst = 0, 0, math.inf
    for cfg, s in random_suite:
        tol = cfg.tol_audit
        slacks = s.column("ede_slack")[1:]
        total += slacks.size
        violations += int(np.sum(slacks < -tol))
        worst = min(worst, float(slacks.min()))
    verdict(3, violations == 0,
            f"EDI slack >= -tol on {total} steps across 20 randomized configs "
            f"(alpha x n x potential): {violations} violations, "
            f"most negative slack {worst:.3e}")


def test_criterion_04_el_residual(random_suite):
    worst_ratio = 0.0
    for cfg, s in random_suite:
        p = cfg.model.p
        bound = 100.0 * (cfg.step.tol_grad + cfg.step.eps_min ** (p - 1.0))
        worst_ratio = max(worst_ratio,
                          float(np.max(s.column("el_residual")[1:])) / bound)

    # tightening tol_grad reduces the residual on a fixed config
    from tfilm.step import solve_step
    g = Grid(1.0, 64)
    x = g.cell_centers()
    u = 1.0 + 0.5 * np.cos(np.pi * x) + 0.2 * np.cos(2 * np.pi * x)
    model = ModelParams(alpha=2.0, mobility=power_mobility(3.0),
                        potential=quadratic_potential(1.0), sigma=0.05)
    vals = []
    for tol in (1e-2, 1e-4, 1e-6):
        sp = StepParams(h=1e-3, tol_grad=tol, eps0=1e-6, eps_min=1e-6)
        vals.append(solve_step(g, u, model, sp).el_residual_norm)
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))
    strict = vals[-1] < vals[0]
    verdict(4, worst_ratio <= 1.0 and monotone and strict,
            f"el_residual <= 100(tol_grad + eps_min^(p-1)) at every step "
            f"(worst ratio {worst_ratio:.3f}); tightening sweep "
            f"{[f'{v:.2e}' for v in vals]} monotone={monotone}")


def test_criterion_05_liftoff(liftoff_report):
    r = liftoff_report
    # once above M/2, trajectories must stay there (up to a small slack)
    stays = True
    for t_half, (times, min_u) in zip(r.t_half, r.min_u_trajectories):
        after = min_u[times >= t_half]
        stays &= bool(np.all(after >= 0.5 - 0.02))
    ok = r.all_reached and r.uniform_ok and r.ordering_ok and stays
    verdict(5, ok,
            f"t_half per delta {dict(zip(r.deltas, r.t_half))}, "
            f"max {r.t0_hat:.4g} <= 2 x median {r.median_t_half:.4g}; "
            f"E[u0] < E[v] for all deltas: {r.ordering_ok}; "
            f"min_u stays above M/2 after t_half: {stays}")


def test_criterion_06_dissipation_scaling():
    g = Grid(1.0, 40000)
    deltas = np.geomspace(0.1, 8e-4, 7)
    details, ok = [], True
    for n, alpha in [(2.0, 1.0), (3.0, 1.0), (2.0, 2.0)]:
        rep = dissipation_scaling_fit(deltas, 1.0, n, alpha, g)
        ok &= rep.slope_ok and rep.c_fit > 0.0
        details.append(f"(n={n:g},a={alpha:g}): slope {rep.slope:+.3f} "
                       f"target {rep.target:+g} c={rep.c_fit:.2g}")
    verdict(6, ok, "; ".join(details))


def test_criterion_07_point_lemma():
    g = Grid(1.0, 512)
    x = g.cell_centers()
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(50):
        coeffs = rng.standard_normal(6) / np.arange(1, 7) ** 1.5
        prof = sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
        prof = prof - prof.min() + 0.1
        found += int(point_lemma_check(prof, g).found)
    verdict(7, found == 50,
            f"witness with tol_fd = 5 dx (D-d)^2/(4 log(D/d)) found in "
            f"{found}/50 random smooth Neumann profiles")


def test_criterion_08_rates(rates_runs):
    g = Grid(1.0, 128)
    h = 1e-4
    lam = (2.0 - 2.0 * np.cos(np.pi / g.N)) / g.dx**2
    predicted = math.log(1.0 + h * lam**2) / h

    newt = rate_fit(rates_runs["newtonian"], 1.0)
    newt_ok = (newt.classification == "exponential" and newt.r_squared >= 0.99
               and abs(newt.rate - predicted) <= 0.05 * predicted)

    thin = rate_fit(rates_runs["thinning"], 2.0)
    thin_ok = thin.classification == "algebraic" and thin.r_squared >= 0.98

    thick = rate_fit(rates_runs["thickening"], 0.5, tol_extinct=1e-10)
    E_tail = rates_runs["thickening"].column("E_total")
    thick_ok = (thick.classification == "finite_time"
                and math.isfinite(thick.t_star) and E_tail[-1] <= 1e-10)

    verdict(8, newt_ok and thin_ok and thick_ok,
            f"alpha=1 exp rate {newt.rate:.2f} vs {predicted:.2f} "
            f"(R2={newt.r_squared:.4f}); alpha=2 {thin.classification} "
            f"exponent {thin.rate:.2f} (R2={thin.r_squared:.4f}); "
            f"alpha=0.5 {thick.classification} t*={thick.t_star:.4g}")


def test_criterion_09_bb_degeneracy(bb_reports):
    sup = bb_reports["superlinear"]
    lin = bb_reports["linear"]
    sup_ok = sup.strictly_decreasing and sup.final_over_initial <= 0.2
    lin_ok = lin.actions[-1] >= 0.8 * lin.actions[0]
    verdict(9, sup_ok and lin_ok,
            f"n=2 actions {[f'{a:.3f}' for a in sup.actions]} "
            f"(ratio {sup.final_over_initial:.3f} <= 0.2, strictly decreasing); "
            f"n=1 final/initial {lin.final_over_initial:.3f} >= 0.8")


def test_criterion_10_sigma_continuation(continuation_report):
    r = continuation_report
    positive = all(mh > 0.0 for mh in r.min_heights)
    distances_decreasing = all(b < a for a, b in
                               zip(r.sup_distances, r.sup_distances[1:]))
    edi_ok = all(s >= -r.tol_audit for s in r.limit_edi_min_slack)
    verdict(10, positive and distances_decreasing and edi_ok,
            f"min heights {[f'{m:.3g}' for m in r.min_heights]} all > 0; "
            f"sup distances {[f'{d:.3g}' for d in r.sup_distances]} decreasing; "
            f"limit-EDI min slack {[f'{s:.2g}' for s in r.limit_edi_min_slack]}")


def test_criterion_11_holder_quotient():
    base_h, quots = 2e-4, []
    for h in (base_h, base_h / 2, base_h / 4):
        model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                            potential=zero_potential(), sigma=0.01)
        cfg = RunConfig(grid=Grid(1.0, 128), model=model,
                        step=StepParams(h=h, tol_grad=1e-8), T=0.004,
                        record_every=max(1, int(round(base_h / h))),
                        initial=InitialDataSpec("lifted_parabola", M=1.0,
                                                delta=0.2))
        quots.append(holder_quotient(run(cfg), 1.0))
    spread = max(quots) / min(quots)
    verdict(11, spread < 2.0,
            f"quotients at h, h/2, h/4: {[f'{q:.4f}' for q in quots]} "
            f"(max/min {spread:.3f} < 2)")
