import math

import numpy as np
import pytest

from tfilm.grid import (
    Grid,
    divergence,
    gradient,
    integrate,
    laplacian_neumann,
    zero_flux,
)


def test_grid_invariants():
    g = Grid(2.0, 8)
    assert g.dx == 0.25
    assert Grid(2.0, np.int64(8)).dx == 0.25
    assert np.allclose(g.cell_centers(), (np.arange(8) + 0.5) * 0.25)
    assert np.allclose(g.faces(), np.arange(9) * 0.25)
    with pytest.raises(ValueError):
        Grid(1.0, 3)
    with pytest.raises(ValueError):
        Grid(-1.0, 8)
    for L in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(L, 8)


@pytest.mark.parametrize("N", [8.5, 8.0, True, "8"])
def test_grid_refuses_a_cell_count_that_is_not_an_integer(N):
    # 8.5 cells of width 1/8.5 would not tile (0, L)
    with pytest.raises(ValueError, match="N must be an integer >= 4"):
        Grid(1.0, N)


def test_divergence_zero_flux():
    g = Grid(1.0, 16)
    assert np.all(divergence(g, zero_flux(g)) == 0.0)


def test_divergence_telescoping_example():
    g = Grid(1.0, 4)
    j = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    assert np.allclose(divergence(g, j), [4.0, 0.0, 0.0, -4.0])


def test_divergence_requires_flux_typed():
    g = Grid(1.0, 8)
    j = np.ones(g.N + 1)
    with pytest.raises(ValueError):
        divergence(g, j)
    with pytest.raises(ValueError):
        divergence(g, np.zeros(g.N))  # wrong length


def test_conservation_random_fluxes():
    g = Grid(3.0, 37)
    rng = np.random.default_rng(1)
    for _ in range(20):
        j = zero_flux(g)
        j[1:-1] = rng.standard_normal(g.N - 1) * 10.0
        assert abs(integrate(g, divergence(g, j))) < 1e-13


def test_gradient_constant_and_linear():
    g = Grid(1.0, 4)
    assert np.all(gradient(g, np.full(4, 7.3)) == 0.0)
    du = gradient(g, g.cell_centers())
    assert du[0] == 0.0 and du[-1] == 0.0
    assert np.allclose(du[1:-1], 1.0)


def test_summation_by_parts():
    g = Grid(2.5, 23)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(g.N)
        j = zero_flux(g)
        j[1:-1] = rng.standard_normal(g.N - 1)
        lhs = np.sum(gradient(g, u) * j) * g.dx
        rhs = -np.sum(u * divergence(g, j)) * g.dx
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


def test_laplacian_kernel_and_eigenmode():
    g = Grid(1.0, 32)
    assert np.allclose(laplacian_neumann(g, np.full(g.N, 4.2)), 0.0)
    k = 3
    u = np.cos(k * np.pi * g.cell_centers() / g.L)
    lam = -(2.0 - 2.0 * np.cos(k * np.pi / g.N)) / g.dx**2
    assert np.allclose(laplacian_neumann(g, u), lam * u, atol=1e-9)


def test_laplacian_symmetric():
    g = Grid(1.0, 17)
    rng = np.random.default_rng(3)
    u, w = rng.standard_normal(g.N), rng.standard_normal(g.N)
    lhs = np.sum(laplacian_neumann(g, u) * w)
    rhs = np.sum(u * laplacian_neumann(g, w))
    assert abs(lhs - rhs) < 1e-10


def test_integrate_examples():
    g = Grid(1.0, 10)
    assert integrate(g, np.full(10, 2.0)) == pytest.approx(2.0)
    assert integrate(g, np.zeros(10)) == 0.0
    # midpoint rule is exact for linear integrands
    assert integrate(g, g.cell_centers()) == pytest.approx(0.5, abs=1e-15)
