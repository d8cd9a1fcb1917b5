import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfilm.experiments
from tfilm.driver import InitialDataSpec, RunConfig, run
from tfilm.experiments import (
    _path_action,
    _path_work,
    _place_balls,
    bb_action_demo,
    bb_action_inputs,
    build_parabola_v,
    build_w_l,
    dissipation_inputs,
    dissipation_scaling_fit,
    liftoff_configs,
    liftoff_sweep,
    point_lemma_check,
    rate_fit,
)
from tfilm.grid import Grid, gradient
from tfilm.models import ModelParams, mobility_face, power_mobility, zero_potential
from tfilm.step import StepParams


# ---------------------------------------------------------------------------
# parabola

def test_parabola_mass_and_energy():
    for M in (1.0, 2.5):
        g = Grid(1.0, 1024)
        pv = build_parabola_v(M, g)
        assert pv.mass == pytest.approx(M, abs=5 * g.dx**2)
        assert pv.grad_sq == pytest.approx(3.0 * M * M, abs=10.0 * M * M * g.dx)
        assert pv.stated_grad_sq == 4.5 * M * M  # recorded, not asserted against
        assert pv.values[-1] == pytest.approx(0.0, abs=5 * M * g.dx)


def test_parabola_requires_unit_interval():
    with pytest.raises(ValueError):
        build_parabola_v(1.0, Grid(2.0, 64))


def test_energy_vs_min_property():
    # discrete counterpart of the minimiser property of delta + (1-delta/M) v
    g = Grid(1.0, 512)
    pv = build_parabola_v(1.0, g)
    rng = np.random.default_rng(0)
    x = g.cell_centers()
    for _ in range(25):
        coeffs = rng.standard_normal(5) / np.arange(1, 6) ** 1.5
        u = sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
        u = u - u.min() + rng.uniform(0.01, 0.3)
        u = u / (np.mean(u))  # mass 1
        delta = float(np.min(u))
        du = gradient(g, u)
        dir_sq = float(np.sum(du * du)) * g.dx
        bound = (1.0 - delta) ** 2 * pv.grad_sq
        assert dir_sq >= bound - 30.0 * g.dx


# ---------------------------------------------------------------------------
# w_l bump family

def test_w_l_matches_closed_forms():
    # independent oracle: beta_l = (1 - l)^2 / 12, slopes vanish at both ends
    for l in (0.5, 0.25, 0.1):
        g = Grid(1.0, 4096)
        wl = build_w_l(l, g)
        assert wl.beta == pytest.approx((1.0 - l) ** 2 / 12.0, rel=1e-3)
        assert abs(wl.slope_left) <= 10 * g.dx
        assert abs(wl.slope_right) <= 10 * g.dx
        assert np.min(wl.values) >= -50 * g.dx**2


def test_w_l_third_derivative_indicator():
    l = 0.25
    g = Grid(1.0, 2048)
    wl = build_w_l(l, g)
    xf = g.faces()[1:-1]
    inside = np.abs(xf - 0.5) < l - 3 * g.dx
    outside = np.abs(xf - 0.5) > l + 3 * g.dx
    mags = np.abs(wl.w3_faces[inside])
    mags = mags[mags > 0.5 / l**2]  # away from the central kink
    assert np.allclose(mags, 1.0 / l**2, rtol=1e-10)
    assert np.max(np.abs(wl.w3_faces[outside])) == 0.0


def test_w_l_slope_converges():
    errs = [abs(build_w_l(0.3, Grid(1.0, N)).slope_left) for N in (512, 2048)]
    assert errs[1] <= errs[0]


def test_w_l_range_validation():
    g = Grid(1.0, 256)
    for l in (0.0, 0.6, -0.1):
        with pytest.raises(ValueError):
            build_w_l(l, g)


# ---------------------------------------------------------------------------
# dissipation scaling

def test_dissipation_slopes():
    g = Grid(1.0, 40000)
    deltas = np.geomspace(0.1, 8e-4, 7)
    for n, alpha in [(2.0, 1.0), (3.0, 1.0), (2.0, 2.0)]:
        rep = dissipation_scaling_fit(deltas, 1.0, n, alpha, g)
        assert rep.slope == pytest.approx(n - 1.0 - 2.0 * alpha, abs=0.15)
        assert rep.slope_ok
        assert rep.c_fit > 0.0


def test_dissipation_capped_exponent_case():
    # n = 4, alpha = 1: the family scales like delta^1 while the lower
    # bound saturates at min{delta, 1}/log^2
    g = Grid(1.0, 40000)
    rep = dissipation_scaling_fit(np.geomspace(0.1, 8e-4, 7), 1.0, 4.0, 1.0, g)
    assert rep.slope == pytest.approx(1.0, abs=0.15)
    assert rep.c_fit > 0.0


def test_dissipation_resolution_refusal():
    g = Grid(1.0, 1000)
    with pytest.raises(ValueError, match="N >="):
        dissipation_scaling_fit(np.geomspace(0.1, 8e-4, 7), 1.0, 2.0, 1.0, g)


def test_dissipation_input_validation():
    g = Grid(1.0, 40000)
    with pytest.raises(ValueError):
        dissipation_scaling_fit([0.1, 0.05, 0.01], 1.0, 2.0, 1.0, g)  # 3 points
    with pytest.raises(ValueError):
        dissipation_scaling_fit([0.1, 0.05, 0.02, 0.011], 1.0, 2.0, 1.0, g)  # 1 decade
    with pytest.raises(ValueError):
        dissipation_scaling_fit([0.6, 0.05, 0.005, 0.0009], 1.0, 2.0, 1.0, g)  # > M/2


def test_dissipation_inputs_refuse_a_delta_wider_than_the_unit_interval():
    # M = 3 admits deltas below M/2 = 1.5, but the bump w_l of half-width
    # l = delta fits on the unit interval only for delta <= 1/2
    g = Grid(1.0, 3600)
    with pytest.raises(ValueError, match=r"each delta must be at most 1/2.*delta=0\.9"):
        dissipation_inputs([0.9, 0.3, 0.05, 0.009], 3.0, 2.0, 1.0, g)
    g = Grid(1.0, 8000)
    deltas = (0.5, 0.3, 0.05, 0.004)
    assert dissipation_inputs(deltas, 3.0, 2.0, 1.0, g) == deltas
    assert tfilm.experiments.build_w_l(0.5, g).values.shape == (g.N,)


# exponents that are not positive and finite, or whose dissipation
# exponent (alpha + 1)/alpha overflows
BAD_EXPONENTS = [(n, 1.0, "n must be positive") for n in (0.0, -1.0, math.inf, math.nan)] + [
    (2.0, alpha, "alpha must be positive") for alpha in (0.0, -1.0, 1e-320, math.inf, math.nan)]


@pytest.mark.parametrize("n,alpha,message", BAD_EXPONENTS)
def test_dissipation_and_transport_inputs_refuse_bad_exponents(n, alpha, message):
    g = Grid(1.0, 64)
    u = np.full(64, 0.5)
    with pytest.raises(ValueError, match=message):
        dissipation_inputs([0.1, 0.03, 0.01, 1e-3], 1.0, n, alpha, Grid(1.0, 40000))
    with pytest.raises(ValueError, match=message):
        bb_action_inputs(g, u, u + 0.1, eta=0.25, M_sweep=[2], n=n, alpha=alpha)
    with pytest.raises(ValueError, match=message):
        bb_action_demo(g, u, u + 0.1, eta=0.25, M_sweep=[2], n=n, alpha=alpha)


# ---------------------------------------------------------------------------
# point lemma

def test_point_lemma_constant_trivial():
    g = Grid(1.0, 64)
    w = point_lemma_check(np.full(64, 1.0), g)
    assert w.found
    assert w.required_grad == 0.0 and w.required_curv == 0.0


def test_point_lemma_bump_profile():
    g = Grid(1.0, 512)
    wl = build_w_l(0.5, g)
    delta = 0.1
    u = delta + (1.0 - delta) * wl.values / wl.beta
    w = point_lemma_check(u, g)
    assert w.found
    assert w.curv_product >= w.required_curv - w.tol_fd


def test_point_lemma_random_profiles():
    g = Grid(1.0, 512)
    x = g.cell_centers()
    rng = np.random.default_rng(7)
    for _ in range(20):
        coeffs = rng.standard_normal(6) / np.arange(1, 7) ** 1.5
        prof = sum(c * np.cos((k + 1) * np.pi * x) for k, c in enumerate(coeffs))
        prof = prof - prof.min() + 0.1
        assert point_lemma_check(prof, g).found


def test_point_lemma_rejects_nonpositive():
    g = Grid(1.0, 16)
    with pytest.raises(ValueError):
        point_lemma_check(np.zeros(16), g)


# ---------------------------------------------------------------------------
# rate fitting (oracle-level checks; regime runs live in acceptance)

def test_rate_fit_inconclusive_paths():
    model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                        potential=zero_potential(), sigma=0.001)
    cfg = RunConfig(grid=Grid(1.0, 48), model=model,
                    step=StepParams(h=1e-5, tol_grad=1e-8), T=5e-5,
                    initial=InitialDataSpec("lifted_parabola", M=1.0, delta=0.01))
    s = run(cfg)
    rep = rate_fit(s, 1.0)  # run too short to lift off
    assert rep.classification == "inconclusive"


def test_rate_fit_synthetic_exponential():
    # synthetic series with exact exponential energy decay
    class FakeSeries:
        def __init__(self, t, E):
            self._t, self._E = t, E
            model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                                potential=zero_potential(), sigma=0.01)
            self.config = RunConfig(grid=Grid(1.0, 8), model=model,
                                    step=StepParams(h=1e-3), T=1e-3,
                                    initial=InitialDataSpec("constant"))
            from tfilm.driver import StepDiagnostics
            self.diagnostics = np.rec.fromrecords(
                [(tt, 1.0, 0.9, 1.1, e, 0.0, e, 0.0, 0.0, 0.0, 0.0, 1)
                 for tt, e in zip(t, E)], dtype=StepDiagnostics)

        def column(self, name):
            return self.diagnostics[name]

        @property
        def times(self):
            return np.array(self._t)

    t = np.linspace(0.0, 1.0, 200)
    s = FakeSeries(t, 3.0 * np.exp(-8.0 * t))
    rep = rate_fit(s, 1.0)
    assert rep.classification == "exponential"
    assert rep.rate == pytest.approx(4.0, rel=1e-6)  # amplitude rate = half
    assert rep.r_squared > 0.999999


# ---------------------------------------------------------------------------
# liftoff (small instance; the criterion-scale sweep lives in acceptance)

def test_liftoff_small_instance():
    rep = liftoff_sweep([0.5, 0.05], M=1.0, n=2.0, alpha=1.0,
                        grid=Grid(1.0, 96), step=StepParams(h=5e-5, tol_grad=1e-8),
                        T=0.008, record_every=4)
    assert rep.t_half[0] == 0.0  # delta = M/2 starts at the threshold
    assert rep.all_reached
    assert rep.ordering_ok
    assert rep.sigma == pytest.approx(0.005)


def test_liftoff_hypothesis_violation():
    with pytest.raises(ValueError, match="2\\(alpha\\+1\\)"):
        liftoff_sweep([0.1], M=1.0, n=5.0, alpha=1.0,
                      grid=Grid(1.0, 64), step=StepParams(h=1e-5), T=1e-4)


def test_liftoff_unreached_is_failing_report_not_exception():
    rep = liftoff_sweep([0.01], M=1.0, n=2.0, alpha=1.0,
                        grid=Grid(1.0, 64), step=StepParams(h=1e-5, tol_grad=1e-8),
                        T=5e-5, record_every=1)
    assert rep.t_half == (None,)
    assert not rep.all_reached
    assert not rep.uniform_ok


# ---------------------------------------------------------------------------
# transport action

def test_bb_identical_endpoints_zero_action():
    g = Grid(1.0, 256)
    x = g.cell_centers()
    u = 0.5 + np.exp(-((x - 0.5) / 0.1) ** 2)
    rep = bb_action_demo(g, u, u.copy(), eta=0.25, M_sweep=[2, 4], n=2.0, alpha=1.0)
    assert all(a == 0.0 for a in rep.actions)


def test_bb_actions_nonnegative_and_tagged():
    g = Grid(1.0, 256)
    x = g.cell_centers()
    u0 = 0.3 + np.exp(-((x - 0.3) / 0.05) ** 2)
    u1 = 0.3 + np.exp(-((x - 0.7) / 0.05) ** 2)
    rep = bb_action_demo(g, u0, u1, eta=0.25, M_sweep=[2, 4], n=0.8, alpha=1.0,
                         stage_steps=16)
    assert all(a >= 0.0 for a in rep.actions)
    assert not rep.degeneracy_expected
    rep2 = bb_action_demo(g, u0, u1, eta=0.25, M_sweep=[2, 4], n=2.0, alpha=1.0,
                          stage_steps=16)
    assert rep2.degeneracy_expected


def test_bb_mass_normalisation():
    g = Grid(1.0, 256)
    x = g.cell_centers()
    u0 = 0.3 + np.exp(-((x - 0.3) / 0.05) ** 2)
    u1 = 2.7 * (0.3 + np.exp(-((x - 0.7) / 0.05) ** 2))  # mismatched mass
    rep = bb_action_demo(g, u0, u1, eta=0.25, M_sweep=[2], n=2.0, alpha=1.0,
                         stage_steps=16)
    assert math.isfinite(rep.actions[0])


def test_bb_rejects_nonpositive_endpoints():
    g = Grid(1.0, 128)
    u = np.full(128, 0.5)
    bad = u.copy()
    bad[3] = 0.0
    with pytest.raises(ValueError):
        bb_action_demo(g, bad, u, eta=0.25, M_sweep=[2], n=2.0, alpha=1.0)


def test_bb_flux_continuity_is_exact():
    # reconstruct one morph segment's flux and verify the discrete flow
    # equation residual vanishes, including the far boundary
    g = Grid(1.0, 128)
    x = g.cell_centers()
    ua = 0.3 + np.exp(-((x - 0.4) / 0.05) ** 2)
    ub = np.roll(ua, 5)
    dt = 0.01
    dudt = (ub - ua) / dt
    j = np.zeros(g.N + 1)
    j[1:-1] = -np.cumsum(dudt[:-1]) * g.dx
    resid = dudt + np.diff(j) / g.dx
    assert np.max(np.abs(resid[:-1])) < 1e-12
    assert abs(resid[-1]) < 1e-9 / dt  # closes up to the mass roundoff


def place_balls_loop(g, centers, weights, radius):
    """Reference: one substep of balls, placed one ball at a time."""
    faces = g.faces()
    out = np.zeros(g.N)
    for c, wgt in zip(centers, weights):
        if wgt == 0.0:
            continue
        left = max(c - radius, 0.0)
        right = min(c + radius, g.L)
        overlap = np.minimum(faces[1:], right) - np.maximum(faces[:-1], left)
        np.clip(overlap, 0.0, None, out=overlap)
        out += wgt * overlap / ((right - left) * g.dx)
    return out


@st.composite
def ball_sets(draw):
    """(grid, (S, P) centres, (P,) weights, radius), with centres at, near and
    away from both ends so that clipped balls are common."""
    N = draw(st.integers(4, 300))
    g = Grid(draw(st.floats(0.5, 3.0)), N)
    S, P = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    radius = g.L * draw(st.floats(1e-4, 1.5))
    edge = st.tuples(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.5]), st.booleans()).map(
        lambda t: t[0] * g.dx if t[1] else g.L - t[0] * g.dx)
    centre = st.one_of(st.floats(0.0, g.L), edge)
    centers = np.array([[draw(centre) for _ in range(P)] for _ in range(S)])
    weights = np.array([draw(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)))
                        for _ in range(P)])
    return g, centers, weights, radius


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ball_sets())
# a ball inside one cell: writing both of its ends as steps at the next
# face would cancel there
@example((Grid(0.53125, 29), np.array([[0.51293103]]), np.array([1.0]), 5.3125e-05))
# a narrow ball clipped at L, where 11 dx falls an ulp short of L
@example((Grid(1.875, 11), np.array([[1.875]]), np.array([1.0]), 1.875e-4))
def test_place_balls_matches_loop_and_keeps_mass(case):
    g, centers, weights, radius = case
    dens = _place_balls(g, centers, weights, radius)
    assert dens.shape == (centers.shape[0], g.N)
    for s, row in enumerate(centers):
        ref = place_balls_loop(g, row, weights, radius)
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(dens[s] - ref)) <= 1e-12 * scale
        for c, wgt in zip(row, weights):
            mass = float(np.sum(_place_balls(g, np.array([[c]]), np.array([wgt]),
                                             radius))) * g.dx
            assert mass == pytest.approx(wgt, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("centers,weights,radius", [
    ([0.5], [1.0], 0.25),                   # ends exactly on the faces 2/8 and 6/8
    ([0.3125], [2.0], 0.0625),              # on faces, one cell wide
    ([0.1, 0.9], [1.0, 0.5], 0.3),          # clipped at 0, and at L with r == L
    ([0.0, 1.0], [1.0, 3.0], 1.5),          # both cover the whole domain
    ([0.2, 0.5, 0.7], [0.0, 1.0, 0.0], 0.2),  # zero weights place nothing
    ([0.4, 0.6], [0.0, 0.0], 0.1),
])
def test_place_balls_explicit_cases(centers, weights, radius):
    g = Grid(1.0, 8)
    dens = _place_balls(g, np.array([centers]), np.array(weights), radius)[0]
    ref = place_balls_loop(g, centers, weights, radius)
    assert np.max(np.abs(dens - ref)) <= 1e-15 * max(1.0, np.max(ref))
    assert np.sum(dens) * g.dx == pytest.approx(sum(weights), rel=1e-15, abs=0.0)
    # these balls leave no roundoff in the running sum: untouched cells are 0
    assert np.all(dens[ref == 0.0] == 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ball_sets())
def test_place_balls_rows_are_placed_alone(case):
    g, centers, weights, radius = case
    S = centers.shape[0]
    for w in (weights, weights * (1.0 + np.arange(S))[:, None]):
        dens = _place_balls(g, centers, w, radius)
        for s in range(S):
            alone = _place_balls(g, centers[s:s + 1], w if w.ndim == 1 else w[s:s + 1], radius)
            assert np.array_equal(dens[s], alone[0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ball_sets())
def test_place_balls_into_a_buffer_is_the_returned_array_bit_for_bit(case):
    g, centers, weights, radius = case
    want = _place_balls(g, centers, weights, radius)
    out = np.full((centers.shape[0], g.N), np.nan)
    assert _place_balls(g, centers, weights, radius, out=out) is out
    assert np.array_equal(out, want)


# stage actions (concentrate, transport, spread) of the loop implementation
# for the criterion-9 endpoints at N=128; M = 1/2 clips the outer balls
STAGE_ACTIONS_N128 = {
    2.0: [(0.2170810078046959, 0.5528141679340001, 0.21708100780469552),
          (0.024175915319912596, 0.3163184131315122, 0.024175915319912464),
          (0.003055110290429656, 0.24926207345683768, 0.0030551102904297373)],
    1.0: [(0.008320621275842193, 0.13543964096167813, 0.008320621275842198),
          (0.0012291730069152176, 0.16655645582086173, 0.001229173006915215),
          (0.00018781971729301853, 0.1729092229839281, 0.00018781971729301894)],
}


@pytest.mark.parametrize("n", [2.0, 1.0])
def test_bb_stage_actions_fixed_inputs(n):
    g = Grid(1.0, 128)
    u0, u1 = (InitialDataSpec("cos_bumps", background=0.01, amplitude=6.0, width=0.012,
                              centers=centers).build(g)
              for centers in ((0.125, 0.25), (0.75, 0.875)))
    rep = bb_action_demo(g, u0, u1, eta=1 / 8, M_sweep=[0.5, 2, 4], n=n, alpha=1.0)
    got = np.array(rep.stage_actions)
    want = np.array(STAGE_ACTIONS_N128[n])
    assert np.max(np.abs(got - want) / want) <= 1e-12
    assert rep.actions == tuple(sum(parts) for parts in rep.stage_actions)


def test_bb_stage_actions_do_not_depend_on_the_chunk_size(monkeypatch):
    g = Grid(1.0, 128)
    u0, u1 = (InitialDataSpec("cos_bumps", background=0.01, amplitude=6.0, width=0.012,
                              centers=centers).build(g)
              for centers in ((0.125, 0.25), (0.75, 0.875)))

    def actions():
        return bb_action_demo(g, u0, u1, eta=1 / 8, M_sweep=[0.5, 2, 4], n=2.0,
                              alpha=1.0).stage_actions

    want = actions()
    cap = tfilm.experiments._CHUNK_BYTES
    for bytes_ in (cap // 4, 4 * cap):
        monkeypatch.setattr(tfilm.experiments, "_CHUNK_BYTES", bytes_)
        assert actions() == want


def path_action_plain(g, mob, p, alpha, states, duration):
    """The action of the substep states by the plain formulas, all at once."""
    dt = duration / (len(states) - 1)
    ua, ub = states[:-1], states[1:]
    j = -np.cumsum(((ub - ua) / dt)[:, :-1], axis=1) * g.dx
    m_faces = mobility_face(mob, 0.5 * (ua + ub), g)
    total = 0.0
    for r in np.sum(np.abs(j) ** p / m_faces ** (1.0 / alpha), axis=1):
        total += dt * g.dx * float(r)
    return total


@pytest.mark.parametrize("n,alpha", [(2.0, 1.0), (1.0, 1.0), (3.0, 0.5), (1.5, 2.0)])
def test_path_action_in_place_is_the_plain_formula_bit_for_bit(n, alpha):
    g = Grid(1.0, 48)
    rng = np.random.default_rng(11)
    states = 0.1 + rng.random((30, g.N))
    want = path_action_plain(g, power_mobility(n), (alpha + 1.0) / alpha, alpha, states, 0.5)

    def fill(s, out):  # the grid points are the state indices
        out[...] = states[s[:, 0]]

    for rows in (1, 7, 29):
        got = _path_action(g, power_mobility(n), (alpha + 1.0) / alpha, alpha, fill,
                           np.arange(len(states)), 0.5, _path_work(g, rows))
        assert got == want


@pytest.mark.parametrize("sweep", [[], [0], [2, -1], [2, float("nan")]])
def test_bb_rejects_bad_sweep(sweep):
    g = Grid(1.0, 64)
    u = np.full(64, 0.5)
    with pytest.raises(ValueError, match="M_sweep is empty|every M"):
        bb_action_demo(g, u, u + 0.1 * np.cos(np.pi * g.cell_centers()), eta=0.25,
                       M_sweep=sweep, n=2.0, alpha=1.0)


def test_liftoff_configs_refuse_a_delta_above_3M():
    # u0 = delta + (1 - delta/M) v dips below zero at x = 0 once delta > 3M
    with pytest.raises(ValueError, match="infinite energy under the barrier"):
        liftoff_configs([4.0], M=1.0, n=2.0, alpha=1.0, grid=Grid(1.0, 64),
                        step=StepParams(h=1e-5), T=1e-4)


@pytest.mark.parametrize("eta,message", [(0.6, "no interior atoms"), (0.0, "eta must be positive"),
                                         (-0.1, "eta must be positive")])
def test_bb_action_inputs_refuse_an_eta_without_atoms(eta, message):
    g = Grid(1.0, 64)
    u = np.full(64, 0.5)
    with pytest.raises(ValueError, match=message):
        bb_action_inputs(g, u, u + 0.1, eta=eta, M_sweep=[2], n=2.0, alpha=1.0)
    with pytest.raises(ValueError, match=message):
        bb_action_demo(g, u, u + 0.1, eta=eta, M_sweep=[2], n=2.0, alpha=1.0)


def test_bb_action_inputs_refuse_non_positive_endpoints():
    g = Grid(1.0, 64)
    u = np.full(64, 0.5)
    with pytest.raises(ValueError, match="endpoints must be strictly positive"):
        bb_action_inputs(g, u, np.concatenate([u[:-1], [0.0]]), eta=0.25, M_sweep=[2], n=2.0, alpha=1.0)


@pytest.mark.parametrize("bad,message", [
    (lambda u: np.where(np.arange(u.size) == 3, np.nan, u), "endpoint u1 has a non-finite cell"),
    (lambda u: np.where(np.arange(u.size) == 0, np.inf, u), "endpoint u1 has a non-finite cell"),
    (lambda u: u[None, :], r"endpoint u1 must be a 1-D field of 64 cells, got shape \(1, 64\)"),
    (lambda u: u[:-1], r"endpoint u1 must be a 1-D field of 64 cells, got shape \(63,\)"),
])
def test_bb_action_inputs_refuse_endpoints_that_are_not_finite_cell_fields(bad, message):
    g = Grid(1.0, 64)
    u = np.full(64, 0.5)
    with pytest.raises(ValueError, match=message):
        bb_action_inputs(g, u, bad(u + 0.1), eta=0.25, M_sweep=[2], n=2.0, alpha=1.0)
    with pytest.raises(ValueError, match=message.replace("u1", "u0")):
        bb_action_demo(g, bad(u), u + 0.1, eta=0.25, M_sweep=[2], n=2.0, alpha=1.0)


@pytest.mark.parametrize("stage_steps", [0, -1, -3, 2.0, True])
def test_bb_action_inputs_refuse_stage_steps_below_one(stage_steps):
    g = Grid(1.0, 64)
    u = np.full(64, 0.5)
    with pytest.raises(ValueError, match="stage_steps must be an integer >= 1"):
        bb_action_inputs(g, u, u + 0.1, eta=0.25, M_sweep=[2], n=2.0, alpha=1.0,
                         stage_steps=stage_steps)
    with pytest.raises(ValueError, match="stage_steps must be an integer >= 1"):
        bb_action_demo(g, u, u + 0.1, eta=0.25, M_sweep=[2], n=2.0, alpha=1.0,
                       stage_steps=stage_steps)
