import dataclasses
import math

import numpy as np
import pytest

from tfilm.grid import Grid, integrate
from tfilm.models import (
    INFINITE_ENERGY,
    ModelParams,
    ModifiedPotential,
    PotentialStack,
    constant_mobility,
    energy,
    mobility_face,
    navier_slip_mobility,
    power_mobility,
    psi,
    psi_inverse,
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


def test_modified_potential_rejects_bad_sigma():
    for s in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            ModifiedPotential(zero_potential(), s)


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
        assert np.allclose(psi_inverse(alpha, psi(alpha, s)), s, rtol=1e-12, atol=1e-12)


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


def test_potential_stack_rows_equal_their_members():
    # kind blocks: barrier-less quadratic, then zero, quadratic and strong
    # singular under barriers; heights reach below 2 sigma and below zero
    g = Grid(1.0, 16)
    mps = [ModifiedPotential(quadratic_potential(0.7), None),
           ModifiedPotential(zero_potential(), 0.05), ModifiedPotential(zero_potential(), 0.2),
           ModifiedPotential(quadratic_potential(1.3), 0.1),
           ModifiedPotential(quadratic_potential(0.2), 0.3),
           ModifiedPotential(strong_singular_potential(1e-3), 0.2)]
    stack = PotentialStack(mps)
    u = np.random.default_rng(7).uniform(-0.05, 1.0, (len(mps), g.N))
    pos = np.abs(u) + 1e-3
    stacked_energy, (d1, d2) = energy(g, u, stack), stack.derivatives(pos)
    for i, mp in enumerate(mps):
        assert tuple(field[i] for field in stacked_energy) == energy(g, u[i], mp)
        assert np.array_equal(stack.g_sigma(pos)[i], mp.g_sigma(pos[i]))
        assert np.array_equal(d1[i], mp.derivatives(pos[i])[0])
        assert np.array_equal(d2[i], mp.derivatives(pos[i])[1])
    with pytest.raises(ValueError, match="consecutive"):
        PotentialStack([mps[1], mps[3], mps[2]])
