"""Staggered 1D grid and discrete calculus.

Conventions used throughout the package:

* cell fields: numpy arrays of length ``N`` holding values at cell
  centers ``x_i = (i + 1/2) dx`` (film height, chemical potential, ...);
* face fields: numpy arrays of length ``N + 1`` holding values at faces
  ``x_f = f dx``.  A *flux-typed* face field has exact zeros in its
  boundary entries (no-flux boundary).

With heights at centers and fluxes at faces the discrete continuity
equation telescopes, so the total mass of ``u* - h div(j)`` equals the
total mass of ``u*`` bit for bit.  ``gradient`` encodes the homogeneous
Neumann condition through zero ghost slopes at the boundary faces, which
makes it the negative adjoint of ``divergence`` and keeps the discrete
integration-by-parts identity exact.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "zero_flux",
    "divergence",
    "gradient",
    "laplacian_neumann",
    "integrate",
]


@dataclass(frozen=True)
class Grid:
    """Uniform staggered grid on (0, L) with N cells."""

    L: float
    N: int

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral) or self.N < 4:
            raise ValueError(f"N must be an integer >= 4 (cells), got {self.N!r}")
        if not 0.0 < self.L < math.inf:
            raise ValueError(f"domain length must be positive and finite, got L={self.L}")

    @property
    def dx(self):
        return self.L / self.N

    def cell_centers(self):
        return (np.arange(self.N) + 0.5) * self.dx

    def faces(self):
        return np.arange(self.N + 1) * self.dx


def _check_cells(g, u):
    """u as floats; a cell field or a stack of them (..., N)."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != g.N:
        raise ValueError(f"cell field must have {g.N} cells on the last axis, got shape {u.shape}")
    return u


def _check_face(g, j):
    j = np.asarray(j, dtype=float)
    if j.shape != (g.N + 1,):
        raise ValueError(f"face field must have shape ({g.N + 1},), got {j.shape}")
    return j


def zero_flux(g):
    """Flux-typed face field of zeros."""
    return np.zeros(g.N + 1)


def divergence(g, j):
    """Discrete divergence of a flux-typed face field, cell by cell.

    out_i = (j_{i+1} - j_i) / dx.  The cell sum telescopes to
    (j_N - j_0)/dx = 0, so ``integrate(g, divergence(g, j)) == 0``
    exactly for every flux-typed j.
    """
    j = _check_face(g, j)
    if j[0] != 0.0 or j[-1] != 0.0:
        raise ValueError("divergence requires a flux-typed field (zero boundary entries)")
    return (j[1:] - j[:-1]) / g.dx


def gradient(g, u):
    """Discrete gradient of a cell field, face by face.

    Interior face f: (u_f - u_{f-1}) / dx.  Boundary faces carry the
    homogeneous Neumann ghost value 0, which makes this operator the
    negative adjoint of ``divergence`` under the dx-weighted inner
    products.  A stack of cell fields (..., N) gives face fields
    (..., N + 1).
    """
    u = _check_cells(g, u)
    out = np.zeros(u.shape[:-1] + (g.N + 1,))
    out[..., 1:-1] = (u[..., 1:] - u[..., :-1]) / g.dx
    return out


def laplacian_neumann(g, u):
    """divergence(gradient(u)): the Neumann discrete Laplacian.

    Symmetric and negative semi-definite in the cell inner product;
    constants are in its kernel.
    """
    return divergence(g, gradient(g, u))


def integrate(g, f):
    """Midpoint quadrature sum(f_i) * dx; (B,) sums of a stack (B, N)."""
    f = _check_cells(g, f)
    total = f.sum(axis=-1) * g.dx
    return float(total) if f.ndim == 1 else total
