"""Mobilities, potentials, the sigma-barrier, and the discrete energy.

The barrier turns the base potential G into a convex C^2 function
G_sigma that agrees with G above 2*sigma, blows up like sigma^2/s^2 as
s drops to 0, and is +inf for non-positive heights.  It is what keeps
every iterate of the implicit step strictly positive without explicit
constraints.  ``ModifiedPotential(base, sigma)`` is the one way to build
G_sigma: it checks sigma and derives the glue and Taylor data itself.
A ``ModelParams`` builds its G_sigma once, at construction, and carries
it as ``model.modified``.

Infinite energy is a value, not an error: it is reported through the
``INFINITE_ENERGY`` sentinel (IEEE +inf assigned directly, never reached
by overflowing arithmetic), which compares correctly against any finite
energy.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .grid import gradient, integrate

__all__ = [
    "INFINITE_ENERGY",
    "MobilitySpec",
    "power_mobility",
    "navier_slip_mobility",
    "constant_mobility",
    "PotentialSpec",
    "zero_potential",
    "quadratic_potential",
    "strong_singular_potential",
    "ModifiedPotential",
    "PotentialStack",
    "ModelParams",
    "mobility_face",
    "psi",
    "psi_inverse",
    "EnergyBreakdown",
    "energy",
]

INFINITE_ENERGY = math.inf


# ---------------------------------------------------------------------------
# mobility

@dataclass(frozen=True)
class MobilitySpec:
    """Degenerate mobility m(s): zero for s <= 0, positive for s > 0.

    kinds:
      power        m(s) = s^n                      (n > 0)
      navier_slip  m(s) = lam*s^(alpha+1) + s^(alpha+2)
      constant_one m(s) = 1  (test-only; never degenerates)
    """

    kind: str
    n: float = 0.0
    lam: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        used = {"power": ("n",), "navier_slip": ("lam", "alpha"), "constant_one": ()}
        if self.kind not in used:
            raise ValueError(f"unknown mobility kind {self.kind!r}")
        for name in used[self.kind]:
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self.kind} mobility needs a finite {name} > 0, got {value!r}")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant_one":
            return np.ones_like(s)
        pos = s > 0
        sp = np.where(pos, s, 1.0)
        if self.kind == "power":
            return np.where(pos, sp**self.n, 0.0)
        return np.where(pos, self.lam * sp ** (self.alpha + 1) + sp ** (self.alpha + 2), 0.0)


def power_mobility(n):
    return MobilitySpec("power", n=float(n))


def navier_slip_mobility(lam, alpha):
    return MobilitySpec("navier_slip", lam=float(lam), alpha=float(alpha))


def constant_mobility():
    return MobilitySpec("constant_one")


# ---------------------------------------------------------------------------
# base potentials

@dataclass(frozen=True)
class PotentialSpec:
    """Convex non-negative potential G on (0, inf).

    kinds:
      zero            G(s) = 0
      quadratic       G(s) = a s^2 / 2 for s > 0, 0 for s <= 0
      strong_singular G(s) = A / s^2 for s > 0, 0 for s <= 0
    """

    kind: str
    a: float = 0.0
    A: float = 0.0

    def __post_init__(self):
        used = {"zero": (), "quadratic": ("a",), "strong_singular": ("A",)}
        if self.kind not in used:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for name in ("a", "A"):
            value = getattr(self, name)
            if name not in used[self.kind] and value != 0.0:
                raise ValueError(f"the {self.kind} potential has no coefficient {name}, "
                                 f"got {name}={value!r}")
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{self.kind} potential needs a finite {name} >= 0, "
                                 f"got {value!r}")

    def g(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros(s.shape)
        if self.kind == "quadratic":
            return np.where(s > 0, 0.5 * self.a * s * s, 0.0)
        out = np.zeros(s.shape)
        pos = s > 0
        sp = np.where(pos, s, 1.0)
        with np.errstate(over="ignore", divide="ignore"):
            out[pos] = (self.A / (sp * sp))[pos]
        return out

    def dg(self, s):
        """G'(s); valid on s > 0 (0 returned elsewhere)."""
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros(s.shape)
        if self.kind == "quadratic":
            return np.where(s > 0, self.a * s, 0.0)
        pos = s > 0
        sp = np.where(pos, s, 1.0)
        out = np.zeros(s.shape)
        out[pos] = (-2.0 * self.A / sp**3)[pos]
        return out

    def d2g(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "zero":
            return np.zeros(s.shape)
        if self.kind == "quadratic":
            return np.where(s > 0, self.a, 0.0)
        pos = s > 0
        sp = np.where(pos, s, 1.0)
        out = np.zeros(s.shape)
        out[pos] = (6.0 * self.A / sp**4)[pos]
        return out


def zero_potential():
    return PotentialSpec("zero")


def quadratic_potential(a):
    return PotentialSpec("quadratic", a=float(a))


def strong_singular_potential(A):
    return PotentialSpec("strong_singular", A=float(A))


# ---------------------------------------------------------------------------
# sigma-modified potential

@dataclass(frozen=True)
class ModifiedPotential:
    """Barrier-modified potential G_sigma of a base potential.

    For sigma is None the base potential is used as-is (no barrier);
    this variant exists for linear test oracles only.  Otherwise sigma
    must lie in (0, 1).

    With a barrier, on (0, 2*sigma] the base is replaced by its
    second-order Taylor polynomial at 2*sigma (identical to the base for
    the zero and quadratic kinds) and the convex C^2 glue

        phi(s) = sigma^2/s^2 + a_phi s^2 + b_phi s + c_phi

    is added, with (a_phi, b_phi, c_phi) chosen so that phi and its
    first two derivatives vanish at s = 2*sigma.  phi'' > 0 on
    (0, 2*sigma), so G_sigma stays convex, matches G with C^2 contact at
    2*sigma, and grows like sigma^2/s^2 near zero.  The glue
    coefficients and the base Taylor data (g0, g1, g2) are derived from
    base and sigma at construction and cannot be passed in.
    """

    base: PotentialSpec
    sigma: Optional[float]
    a_phi: float = field(init=False, default=0.0)
    b_phi: float = field(init=False, default=0.0)
    c_phi: float = field(init=False, default=0.0)
    # base Taylor data at 2*sigma
    g0: float = field(init=False, default=0.0)
    g1: float = field(init=False, default=0.0)
    g2: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.sigma is None:
            return
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must be in (0,1), got {self.sigma}")
        sigma = float(self.sigma)
        two_sigma = np.array([2.0 * sigma])
        for name, value in (
            ("sigma", sigma),
            ("a_phi", -3.0 / (16.0 * sigma**2)),
            ("b_phi", 1.0 / sigma),
            ("c_phi", -1.5),
            ("g0", float(self.base.g(two_sigma)[0])),
            ("g1", float(self.base.dg(two_sigma)[0])),
            ("g2", float(self.base.d2g(two_sigma)[0])),
        ):
            object.__setattr__(self, name, value)

    @property
    def has_barrier(self):
        return self.sigma is not None

    def _at(self, low):
        """(sigma, g0, g1, g2, a_phi, b_phi, c_phi) at the cells of the mask
        low: scalars as they are, (B, 1) columns of a stack broadcast over
        their rows."""
        values = (self.sigma, self.g0, self.g1, self.g2, self.a_phi, self.b_phi, self.c_phi)
        if np.ndim(self.sigma) == 0:
            return values
        return tuple(np.broadcast_to(v, low.shape)[low] for v in values)

    def g_sigma(self, s):
        """G_sigma(s); +inf (sentinel) for s <= 0 when a barrier is set."""
        s = np.asarray(s, dtype=float)
        if not self.has_barrier:
            return self.base.g(s)
        two_sigma = 2.0 * self.sigma
        low = s < two_sigma
        if not low.any():
            return self.base.g(s)
        out = self.base.g(np.maximum(s, two_sigma))
        sl = s[low]
        sigma, g0, g1, g2, a_phi, b_phi, c_phi = self._at(low)
        d = sl - 2.0 * sigma
        sg = np.where(sl > 0, sl, 1.0)
        # the base's Taylor polynomial at 2*sigma plus the glue phi
        vals = (g0 + g1 * d + 0.5 * g2 * d * d
                + (sigma**2 / sg**2 + a_phi * sg**2 + b_phi * sg + c_phi))
        vals[sl <= 0] = INFINITE_ENERGY
        out[low] = vals
        return out

    def derivatives(self, s):
        """(G_sigma'(s), G_sigma''(s)) on s > 0, in one pass over the glue cells.

        Below 2*sigma the base is replaced by its Taylor polynomial; the
        glue derivatives are added where moreover s > 0.
        """
        s = np.asarray(s, dtype=float)
        if not self.has_barrier:
            return self.base.dg(s), self.base.d2g(s)
        two_sigma = 2.0 * self.sigma
        low = s < two_sigma
        if not low.any():
            return self.base.dg(s), self.base.d2g(s)
        capped = np.maximum(s, two_sigma)
        d1, d2 = self.base.dg(capped), self.base.d2g(capped)
        sl = s[low]
        sigma, _, g1, g2, a_phi, b_phi, _ = self._at(low)
        d1_low = g1 + g2 * (sl - 2.0 * sigma)
        d2_low = np.broadcast_to(g2, sl.shape).copy()
        glue = sl > 0
        if np.ndim(sigma):
            sigma, a_phi, b_phi = sigma[glue], a_phi[glue], b_phi[glue]
        sg = sl[glue]
        d1_low[glue] += -2.0 * sigma**2 / sg**3 + 2.0 * a_phi * sg + b_phi
        d2_low[glue] += 6.0 * sigma**2 / sg**4 + 2.0 * a_phi
        d1[low] = d1_low
        d2[low] = d2_low
        return d1, d2

    def dg_sigma(self, s):
        """G_sigma'(s) on s > 0."""
        return self.derivatives(s)[0]

    def d2g_sigma(self, s):
        """G_sigma''(s) on s > 0."""
        return self.derivatives(s)[1]


def _unchecked(cls, **values):
    """An instance of the frozen dataclass cls holding values as they are:
    the columns of members that were checked when they were built."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


class PotentialStack:
    """G_sigma of B members at once: row b of a (B, N) stack of heights is
    taken under member b's G_sigma.

    The members of one base kind and barrier come in one block of rows,
    which the methods of ``ModifiedPotential`` evaluate together on (B_k, 1)
    columns of their parameters.
    """

    _COLUMNS = ("a", "A", "sigma", "g0", "g1", "g2", "a_phi", "b_phi", "c_phi")

    def __init__(self, mps):
        keys = [(mp.base.kind, mp.has_barrier) for mp in mps]
        edges = [0, *(k for k in range(1, len(keys)) if keys[k] != keys[k - 1]), len(keys)]
        if len(set(keys)) != len(edges) - 1:
            raise ValueError("the members of one potential kind must be consecutive")
        table = np.array([[mp.base.a, mp.base.A] + [0.0 if mp.sigma is None else v
                                                    for v in mp._at(None)] for mp in mps])
        self.blocks = []
        for start, stop in zip(edges, edges[1:]):
            col = {name: table[start:stop, k:k + 1] for k, name in enumerate(self._COLUMNS)}
            kind, barrier = keys[start]
            base = _unchecked(PotentialSpec, kind=kind, a=col.pop("a"), A=col.pop("A"))
            if not barrier:
                col["sigma"] = None
            mp = _unchecked(ModifiedPotential, base=base, **col)
            self.blocks.append((slice(start, stop), mp))

    def g_sigma(self, s):
        return np.concatenate([mp.g_sigma(s[rows]) for rows, mp in self.blocks])

    def derivatives(self, s):
        parts = [mp.derivatives(s[rows]) for rows, mp in self.blocks]
        return tuple(np.concatenate(values) for values in zip(*parts))


# ---------------------------------------------------------------------------
# model parameters

@dataclass(frozen=True)
class ModelParams:
    """Rheology exponent, mobility, potential, and barrier parameter.

    sigma=None disables the barrier (test oracles only); otherwise
    sigma must lie in (0, 1).  ``modified`` is the model's G_sigma,
    built once here; ``dataclasses.replace`` builds it anew.
    """

    alpha: float
    mobility: MobilitySpec
    potential: PotentialSpec
    sigma: Optional[float]
    modified: ModifiedPotential = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "modified", ModifiedPotential(self.potential, self.sigma))

    @property
    def p(self):
        """Dissipation exponent (alpha + 1) / alpha."""
        return (self.alpha + 1.0) / self.alpha


# ---------------------------------------------------------------------------
# operations

def mobility_face(m, u, g):
    """Mobility sampled on faces from the previous-time height.

    Interior face f: m of the arithmetic mean of the two neighbour
    cells.  Boundary faces carry m of the adjacent cell; the flux is
    pinned to zero there so the value never enters the dynamics.  A
    stack of heights (..., N) gives faces (..., N + 1).
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (g.N,):
        raise ValueError(f"heights must have {g.N} cells on the last axis, got shape {u.shape}")
    return m(np.concatenate((u[..., :1], 0.5 * (u[..., :-1] + u[..., 1:]), u[..., -1:]),
                            axis=-1))


def psi(alpha, s):
    """Odd power law |s|^(alpha-1) s with psi(0) = 0 for every alpha."""
    s = np.asarray(s, dtype=float)
    return np.sign(s) * np.abs(s) ** alpha


def psi_inverse(alpha, s):
    """Inverse of psi: |s|^(1/alpha - 1) s."""
    s = np.asarray(s, dtype=float)
    return np.sign(s) * np.abs(s) ** (1.0 / alpha)


class EnergyBreakdown(NamedTuple):
    dirichlet: float
    potential: float
    total: float


def energy(g, u, mp):
    """Discrete energy: 0.5 * int |grad u|^2 + int G_sigma(u).

    Returns the infinite sentinel in `total` (and `potential`) whenever
    the barrier is active and some cell is non-positive.  A stack of
    heights (B, N) under a ``PotentialStack`` of B members gives a
    breakdown of (B,) arrays, row by row the values of the single heights.
    """
    u = np.asarray(u, dtype=float)
    du = gradient(g, u)
    dirichlet = 0.5 * (du * du).sum(axis=-1) * g.dx
    if u.ndim == 1:
        dirichlet = float(dirichlet)
        if mp.has_barrier and (u <= 0.0).any():
            return EnergyBreakdown(dirichlet, INFINITE_ENERGY, INFINITE_ENERGY)
    pot_vals = mp.g_sigma(u)  # +inf on the non-positive cells under a barrier
    potential = integrate(g, pot_vals)
    if u.ndim == 1:
        # a finite sum has no infinite term, so only a non-finite one is searched
        if not math.isfinite(potential) and np.isinf(pot_vals).any():
            return EnergyBreakdown(dirichlet, INFINITE_ENERGY, INFINITE_ENERGY)
    elif not np.isfinite(potential).all():
        infinite = ~np.isfinite(potential) & np.isinf(pot_vals).any(axis=-1)
        potential[infinite] = INFINITE_ENERGY
    return EnergyBreakdown(dirichlet, potential, dirichlet + potential)
