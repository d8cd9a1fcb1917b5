import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfilm.grid import Grid, integrate
from tfilm.models import (
    INFINITE_ENERGY,
    ModelParams,
    ModifiedPotential,
    PotentialSpec,
    constant_mobility,
    energy,
    mobility_face,
    navier_slip_mobility,
    power_mobility,
    psi,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from tfilm.step import StepParams


def test_mobility_power_cube():
    g = Grid(1.0, 8)
    m = power_mobility(3.0)
    faces = mobility_face(m, np.full(8, 2.0), g)
    assert np.allclose(faces[1:-1], 8.0)


def test_mobility_zero_branch():
    m = power_mobility(2.0)
    assert np.all(m(np.array([-1.0, 0.0])) == 0.0)
    g = Grid(1.0, 4)
    u = np.array([1.0, -1.0, -1.0, 1.0])  # middle face average is -1
    faces = mobility_face(m, u, g)
    assert faces[2] == 0.0
    assert faces[1] == 0.0  # average of 1 and -1 is 0


def test_mobility_constant_and_navier_slip():
    g = Grid(1.0, 6)
    assert np.all(mobility_face(constant_mobility(), np.zeros(6), g) == 1.0)
    m = navier_slip_mobility(lam=0.5, alpha=2.0)
    s = 1.7
    assert m(np.array([s]))[0] == pytest.approx(0.5 * s**3 + s**4)


def test_mobility_positive_for_positive_field():
    g = Grid(1.0, 16)
    rng = np.random.default_rng(0)
    u = 0.1 + rng.random(16)
    for m in (power_mobility(1.5), navier_slip_mobility(1.0, 0.7)):
        assert np.all(mobility_face(m, u, g)[1:-1] > 0.0)


def test_mobility_face_of_stacked_heights_is_row_wise():
    g = Grid(1.0, 16)
    u = np.random.default_rng(1).uniform(-0.2, 1.5, (3, 16))
    for m in (power_mobility(2.0), navier_slip_mobility(1.0, 0.7), constant_mobility()):
        faces = mobility_face(m, u, g)
        assert faces.shape == (3, 17)
        for row, f in zip(u, faces):
            assert np.array_equal(f, mobility_face(m, row, g))


def test_mobility_face_into_a_buffer_is_the_fresh_evaluation_bit_for_bit():
    g = Grid(1.0, 16)
    u = np.random.default_rng(3).uniform(-0.2, 1.5, (3, 16))
    for m in (power_mobility(2.0), navier_slip_mobility(1.0, 0.7), constant_mobility()):
        out = np.full((3, 17), np.nan)
        assert np.array_equal(mobility_face(m, u, g, out=out), mobility_face(m, u, g))
        # the buffer holds the face heights
        assert np.array_equal(out[:, 1:-1], 0.5 * (u[:, :-1] + u[:, 1:]))
        assert np.array_equal(out[:, [0, -1]], u[:, [0, -1]])


def test_mobility_face_evaluates_the_mobility_once():
    g = Grid(1.0, 8)
    calls = []

    def m(s):
        calls.append(np.shape(s))
        return power_mobility(2.0)(s)

    u = np.random.default_rng(2).uniform(0.1, 1.0, (2, 8))
    faces = mobility_face(m, u, g)
    assert calls == [(2, 9)]
    assert np.array_equal(faces[:, 0], u[:, 0] ** 2)
    assert np.array_equal(faces[:, -1], u[:, -1] ** 2)
    assert np.array_equal(faces[:, 1:-1], (0.5 * (u[:, :-1] + u[:, 1:])) ** 2)
    with pytest.raises(ValueError, match="8 cells"):
        mobility_face(m, u[:, :7], g)


MOBILITIES = [power_mobility(2.0), power_mobility(1.0), power_mobility(0.7),
              navier_slip_mobility(0.5, 2.0), navier_slip_mobility(1.0, 0.5),
              constant_mobility()]


@pytest.mark.parametrize("m", MOBILITIES, ids=lambda m: f"{m.kind}-{m.n}-{m.lam}-{m.alpha}")
def test_mobility_of_positive_rows_is_the_masked_evaluation_bit_for_bit(m):
    rng = np.random.default_rng(5)
    rows = [rng.uniform(1e-3, 3.0, (4, 17)),                            # all positive
            rng.uniform(-0.5, 2.0, (4, 17)),                            # cells <= 0
            np.array([[0.0, 1.0, 2.0], [1.0, -0.0, np.nan], [5e-324, 1.0, -1.0]])]
    for s in rows:
        pos = s > 0
        sp = np.where(pos, s, 1.0)
        if m.kind == "power":
            masked = np.where(pos, sp**m.n, 0.0)
        elif m.kind == "navier_slip":
            masked = np.where(pos, m.lam * sp ** (m.alpha + 1) + sp ** (m.alpha + 2), 0.0)
        else:
            masked = np.ones_like(s)
        got = m(s)
        assert np.array_equal(got, masked)
        # a row alone takes the positive path when it is all positive
        for row, want in zip(s, masked):
            assert np.array_equal(m(row), want)


def test_modified_potential_rejects_bad_sigma():
    for s in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            ModifiedPotential(zero_potential(), s)


@pytest.mark.parametrize("base,sigma", [
    (zero_potential(), 1e-160),             # sigma**2 is subnormal: a_phi would be -inf
    (zero_potential(), 1e-200),             # sigma**2 is 0: a_phi would divide by zero
    (quadratic_potential(1.0), 1.4e-154),   # just below the smallest normal square
    (strong_singular_potential(1e-3), 1e-80),  # the Taylor data's A/(2 sigma)^4 is inf
    (zero_potential(), float("nan")),
])
def test_modified_potential_refuses_a_sigma_without_finite_glue(base, sigma):
    with pytest.raises(ValueError, match=r"sigma must be in \(0,1\), with a normal sigma\*\*2"):
        ModifiedPotential(base, sigma)


def test_modified_potential_accepts_the_smallest_sigma_with_a_normal_square():
    sigma = math.sqrt(2.2250738585072014e-308) * (1.0 + 1e-15)
    mp = ModifiedPotential(quadratic_potential(1.0), sigma)
    assert mp.sigma_sq >= 2.2250738585072014e-308
    assert all(math.isfinite(getattr(mp, name))
               for name in ("a_phi", "b_phi", "c_phi", "g0", "g1", "g2"))


def test_modified_potential_derives_its_glue_and_taylor_data():
    # only base and sigma are accepted; the rest is derived from them
    with pytest.raises(TypeError):
        ModifiedPotential(zero_potential(), 0.1, a_phi=0.0)
    base = strong_singular_potential(0.2)
    mp = ModifiedPotential(base, 0.1)
    assert (mp.a_phi, mp.b_phi, mp.c_phi) == (-3.0 / (16.0 * 0.1**2), 1.0 / 0.1, -1.5)
    assert (mp.g0, mp.g1, mp.g2) == (0.2 / 0.2**2, -2.0 * 0.2 / 0.2**3, 6.0 * 0.2 / 0.2**4)
    # below 2 sigma: the base's Taylor polynomial at 2 sigma plus the glue
    s = np.array([0.05, 0.15])
    d = s - 0.2
    taylor = 5.0 - 50.0 * d + 375.0 * d * d
    glue = 0.01 / s**2 - 18.75 * s**2 + 10.0 * s - 1.5
    assert mp.g_sigma(s) == pytest.approx(taylor + glue, rel=1e-14)
    at_2sigma = np.array([0.2])
    assert mp.g_sigma(at_2sigma) == base.g(at_2sigma)


@pytest.mark.parametrize("s,g,dg", [
    (1e-170, math.inf, -math.inf),   # s^2 and s^3 underflow
    (1e-100, 1e-4 / 1e-200, -2e-4 / 1e-300),   # s^4 underflows
], ids=["s-1e-170", "s-1e-100"])
def test_a_positive_height_whose_powers_underflow_gives_an_infinite_barrier(s, g, dg):
    # pytest turns a RuntimeWarning into an error, so the infinities come silently
    mp = ModifiedPotential(zero_potential(), 0.01)
    cells = np.array([s, 1.0])
    assert mp.g_sigma(cells)[0] == pytest.approx(g, rel=1e-12)
    d1, d2 = mp.dg_sigma(cells), mp.d2g_sigma(cells)
    assert d1[0] == pytest.approx(dg, rel=1e-12)
    assert d2[0] == math.inf
    assert (mp.g_sigma(cells)[1], d1[1], d2[1]) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("base", [
    zero_potential(), quadratic_potential(1.3), strong_singular_potential(0.2),
])
def test_model_rebuilds_its_barrier_on_replace(base):
    model = ModelParams(alpha=2.0, mobility=power_mobility(2.0), potential=base, sigma=0.2)
    assert model.modified == ModifiedPotential(base, 0.2)
    for s in (0.05, None):
        moved = dataclasses.replace(model, sigma=s)
        assert moved.modified == ModifiedPotential(base, s)
        assert moved.modified != model.modified
    assert model.modified.sigma == 0.2  # the original keeps its own


@pytest.mark.parametrize("value", [math.nan, -math.inf, 0.0, -1.0])
def test_positive_parameters_refuse_nonpositive_and_nan(value):
    with pytest.raises(ValueError, match="domain length"):
        Grid(value, 8)
    with pytest.raises(ValueError, match="alpha must be positive"):
        ModelParams(alpha=value, mobility=power_mobility(2.0),
                    potential=zero_potential(), sigma=0.1)
    with pytest.raises(ValueError, match="h must be positive"):
        StepParams(h=value)
    with pytest.raises(ValueError, match="tol_grad must be positive"):
        StepParams(h=1e-4, tol_grad=value)


@pytest.mark.parametrize("value", [1e-320, math.inf])
def test_model_refuses_an_alpha_whose_dissipation_exponent_overflows(value):
    # 1/alpha overflows at 1e-320, so p = (alpha + 1)/alpha would be inf
    with pytest.raises(ValueError, match="alpha must be positive and finite with a finite"):
        ModelParams(alpha=value, mobility=power_mobility(2.0), potential=zero_potential(),
                    sigma=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_mobility_refuses_parameters_outside_zero_to_inf(value):
    with pytest.raises(ValueError, match="power mobility needs a finite n > 0"):
        power_mobility(value)
    with pytest.raises(ValueError, match="navier_slip mobility needs a finite lam > 0"):
        navier_slip_mobility(value, 1.0)
    with pytest.raises(ValueError, match="navier_slip mobility needs a finite alpha > 0"):
        navier_slip_mobility(0.5, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_potential_refuses_nonfinite_and_negative_coefficients(value):
    with pytest.raises(ValueError, match="quadratic potential needs a finite a >= 0"):
        quadratic_potential(value)
    with pytest.raises(ValueError, match="strong_singular potential needs a finite A >= 0"):
        strong_singular_potential(value)


@pytest.mark.parametrize("kind, coefficients", [
    ("zero", {"a": 2.0}),
    ("zero", {"A": math.nan}),
    ("quadratic", {"a": 1.0, "A": 1e-3}),
    ("strong_singular", {"a": 1.0, "A": 1e-3}),
])
def test_potential_refuses_a_coefficient_its_kind_does_not_use(kind, coefficients):
    with pytest.raises(ValueError, match=f"the {kind} potential has no coefficient"):
        PotentialSpec(kind, **coefficients)


def test_barrier_agrees_with_base_above_2sigma():
    sigma = 0.1
    mp = ModifiedPotential(zero_potential(), sigma)
    s = np.array([3 * sigma, 2 * sigma, 5.0])
    assert np.allclose(mp.g_sigma(s), 0.0)
    mpq = ModifiedPotential(quadratic_potential(2.0), sigma)
    assert mpq.g_sigma(np.array([0.7]))[0] == pytest.approx(0.49)


def test_glue_junction_conditions():
    # phi and its first two derivatives vanish at s = 2 sigma
    for sigma in (0.3, 0.01):
        a = -3.0 / (16.0 * sigma**2)
        b = 1.0 / sigma
        c = -1.5
        s = 2.0 * sigma
        assert sigma**2 / s**2 + a * s**2 + b * s + c == pytest.approx(0.0, abs=1e-13)
        assert -2 * sigma**2 / s**3 + 2 * a * s + b == pytest.approx(0.0, abs=1e-13)
        assert 6 * sigma**2 / s**4 + 2 * a == pytest.approx(0.0, abs=1e-10)


def test_barrier_leading_order_near_zero():
    sigma = 0.05
    mp = ModifiedPotential(zero_potential(), sigma)
    for s in (1e-3, 1e-5):
        val = mp.g_sigma(np.array([s]))[0]
        assert val * s**2 / sigma**2 == pytest.approx(1.0, rel=1e-2)


@pytest.mark.parametrize("base", [
    zero_potential(), quadratic_potential(1.3), strong_singular_potential(0.2),
])
def test_barrier_smooth_and_convex(base):
    sigma = 0.07
    mp = ModifiedPotential(base, sigma)
    # the two branches agree at the junction itself: values one ulp to
    # either side differ only at machine level
    lo = np.array([np.nextafter(2 * sigma, 0.0)])
    hi = np.array([np.nextafter(2 * sigma, np.inf)])
    assert mp.g_sigma(lo)[0] == pytest.approx(mp.g_sigma(hi)[0], rel=1e-12, abs=1e-12)
    assert mp.dg_sigma(lo)[0] == pytest.approx(mp.dg_sigma(hi)[0], rel=1e-12, abs=1e-9)
    # convexity on a sample of (0, 10)
    s = np.geomspace(1e-3, 10.0, 400)
    assert np.all(mp.d2g_sigma(s) >= -1e-10)
    assert np.all(mp.g_sigma(s) >= -1e-14)
    # analytic derivatives against central differences
    s = np.geomspace(2e-3, 9.0, 60)
    hstep = 1e-7 * np.maximum(s, 1.0)
    fd1 = (mp.g_sigma(s + hstep) - mp.g_sigma(s - hstep)) / (2 * hstep)
    assert np.allclose(fd1, mp.dg_sigma(s), rtol=1e-5, atol=1e-5)
    fd2 = (mp.dg_sigma(s + hstep) - mp.dg_sigma(s - hstep)) / (2 * hstep)
    assert np.allclose(fd2, mp.d2g_sigma(s), rtol=1e-4, atol=1e-4)


def test_barrier_infinite_for_nonpositive():
    mp = ModifiedPotential(zero_potential(), 0.1)
    vals = mp.g_sigma(np.array([-1.0, 0.0, 1.0]))
    assert vals[0] == INFINITE_ENERGY and vals[1] == INFINITE_ENERGY
    assert math.isfinite(vals[2])


def test_psi_basics_and_roundtrip():
    assert psi(1.0, np.array([2.5]))[0] == 2.5
    assert psi(2.0, np.array([-3.0]))[0] == -9.0
    assert psi(0.5, np.array([0.0]))[0] == 0.0
    rng = np.random.default_rng(4)
    s = rng.standard_normal(50) * 3.0
    for alpha in (0.5, 1.0, 2.0):
        # psi's inverse is psi at the reciprocal exponent
        assert np.allclose(psi(1.0 / alpha, psi(alpha, s)), s, rtol=1e-12, atol=1e-12)


def test_energy_constant_above_barrier():
    g = Grid(1.0, 32)
    mp = ModifiedPotential(zero_potential(), 0.05)
    e = energy(g, np.full(32, 1.0), mp)
    assert e.total == pytest.approx(0.0, abs=1e-15)


def test_energy_parabola_dirichlet_limit():
    # oracle: quadrature of |v'|^2 = 9 M^2 x^2 on (0,1) gives 3 M^2,
    # so the energy's Dirichlet part tends to 3/2 for M = 1
    M = 1.0
    xx = np.linspace(0.0, 1.0, 200001)
    oracle = np.trapezoid((3.0 * M * xx) ** 2, xx)
    assert oracle == pytest.approx(3.0 * M**2, rel=1e-9)
    prev_err = None
    for N in (256, 1024, 4096):
        g = Grid(1.0, N)
        x = g.cell_centers()
        v = 1.5 * M * (1.0 - x * x)
        e = energy(g, v, ModifiedPotential(zero_potential(), None))
        err = abs(e.dirichlet - 0.5 * oracle)
        assert err < 10.0 * g.dx
        if prev_err is not None:
            assert err < prev_err
        prev_err = err


def test_energy_infinite_sentinel():
    g = Grid(1.0, 8)
    mp = ModifiedPotential(zero_potential(), 0.05)
    u = np.full(8, 1.0)
    u[3] = -0.2
    e = energy(g, u, mp)
    assert e.total == INFINITE_ENERGY
    assert math.isfinite(e.dirichlet)


def test_energy_translation_invariance_flat_potential():
    g = Grid(1.0, 64)
    mp = ModifiedPotential(zero_potential(), 0.05)
    rng = np.random.default_rng(5)
    u = 0.5 + 0.2 * rng.random(64)
    e1 = energy(g, u, mp)
    e2 = energy(g, u + 0.7, mp)
    assert e1.total == pytest.approx(e2.total, rel=1e-12)


def test_mass_of_parabola():
    g = Grid(1.0, 512)
    x = g.cell_centers()
    v = 1.5 * (1.0 - x * x)
    assert integrate(g, v) == pytest.approx(1.0, abs=2 * g.dx**2)


BASES = {
    "zero": st.just(zero_potential()),
    "quadratic": (st.just(0.0) | st.floats(0.01, 5.0)).map(quadratic_potential),
    "strong_singular": (st.just(0.0) | st.floats(1e-6, 0.1)).map(strong_singular_potential),
}


@st.composite
def potential_stacks(draw):
    """Members of every base kind and coefficient (zero included), with
    and without a barrier, and a (B, N) stack of heights: non-positive
    ones, 2 sigma itself, heights across the glue and above it, and
    heights whose powers underflow on the rows without a barrier."""
    N = draw(st.integers(4, 12))
    mps, rows = [], []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.sampled_from(sorted(BASES)).flatmap(BASES.get))
        sigma = draw(st.none() | st.sampled_from([0.05, 0.1]) | st.floats(1e-3, 0.5))
        special = [0.0, -0.0] + ([1e-160] if sigma is None else [2.0 * sigma])
        heights = st.floats(-1.0, 0.0) | st.floats(1e-6, 3.0) | st.sampled_from(special)
        mps.append(ModifiedPotential(base, sigma))
        rows.append(draw(st.lists(heights, min_size=N, max_size=N)))
    return mps, np.array(rows)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(potential_stacks())
def test_potential_stack_rows_equal_their_members(case):
    # each row of the stacked G_sigma, G_sigma', G_sigma'' and energy is its
    # member's own evaluation bit for bit
    mps, u = case
    g = Grid(1.0, u.shape[1])
    stack = ModifiedPotential.stack(mps)
    values, d1, d2 = stack.g_sigma(u), stack.dg_sigma(u), stack.d2g_sigma(u)
    stacked_energy = energy(g, u, stack)
    for i, mp in enumerate(mps):
        own = (mp.g_sigma(u[i]), mp.dg_sigma(u[i]), mp.d2g_sigma(u[i]))
        for got, want in zip((values[i], d1[i], d2[i]), own):
            assert got.tobytes() == want.tobytes(), i
        assert tuple(field[i] for field in stacked_energy) == energy(g, u[i], mp)


def test_a_stack_holds_shared_coefficients_as_scalars():
    # members of one G_sigma are that G_sigma; otherwise a coefficient the
    # members share is a scalar and the others are (B, 1) columns, and a
    # member without a barrier has 2 sigma = -inf beside members with one
    mp = ModifiedPotential(quadratic_potential(0.5), 0.1)
    assert ModifiedPotential.stack([mp, ModifiedPotential(quadratic_potential(0.5), 0.1)]) is mp
    stack = ModifiedPotential.stack([mp, ModifiedPotential(strong_singular_potential(1e-3), 0.1),
                                     ModifiedPotential(zero_potential(), None)])
    assert stack.base.a.tolist() == [[0.5], [0.0], [0.0]]
    assert stack.base.A.tolist() == [[0.0], [1e-3], [0.0]]
    assert stack.sigma.tolist() == [[0.1], [0.1], [-math.inf]]
    assert stack.c_phi.tolist() == [[-1.5], [-1.5], [0.0]]
    stack = ModifiedPotential.stack([mp, ModifiedPotential(zero_potential(), 0.1)])
    assert stack.sigma == 0.1 and stack.c_phi == -1.5 and stack.base.A == 0.0
