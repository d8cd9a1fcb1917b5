"""Mobilities, potentials, the sigma-barrier, and the discrete energy.

The barrier turns the base potential G into a convex C^2 function
G_sigma that agrees with G above 2*sigma, blows up like sigma^2/s^2 as
s drops to 0, and is +inf for non-positive heights.  It is what keeps
every iterate of the implicit step strictly positive without explicit
constraints.  ``ModifiedPotential(base, sigma)`` is the one way to build
G_sigma: it checks sigma and derives the glue and Taylor data itself.
A ``ModelParams`` builds its G_sigma once, at construction, and carries
it as ``model.modified``.  ``ModifiedPotential.with_derivatives`` is the
one copy of the glue and Taylor formulas; ``g_sigma``, ``dg_sigma`` and
``d2g_sigma`` are its projections.

``evaluate`` is the one evaluation of the discrete energy E_sigma, its
first variation mu = -lap(u) + G_sigma'(u) and the curvature G_sigma'',
all three from one pass over a stack of heights; the implicit step calls
it on every Newton iterate, and ``energy`` is its breakdown.  Where
G_sigma'' is constant on each row it is not built as an array: it is the
base's coefficient a, a scalar or a (B, 1) column (the scalar 0.0 for
G = 0), and the projections ``d2g`` and ``d2g_sigma`` broadcast it.

Infinite energy is a value, not an error: it is reported through the
``INFINITE_ENERGY`` sentinel (IEEE +inf, assigned on the non-positive
cells under a barrier, and reached on a positive cell so thin that
sigma^2/s^2 overflows), which compares correctly against any finite
energy.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

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
    "ModelParams",
    "mobility_face",
    "psi",
    "EnergyBreakdown",
    "evaluate",
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
        """m(s), elementwise.  Where every cell is positive, the powers are
        taken on s itself; otherwise on s with its cells <= 0 (and NaN)
        replaced by 1, those cells then set to 0.  Both paths do the same
        arithmetic on the positive cells, so they agree bit for bit."""
        s = np.asarray(s, dtype=float)
        if self.kind == "constant_one":
            return np.ones_like(s)
        pos = s > 0
        positive = pos.all()
        sp = s if positive else np.where(pos, s, 1.0)
        if self.kind == "power":
            m = sp**self.n
        else:
            m = self.lam * sp ** (self.alpha + 1) + sp ** (self.alpha + 2)
        return m if positive else np.where(pos, m, 0.0)


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

    Every kind is evaluated as a s^2/2 + A/s^2, its unused coefficients 0.
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

    def with_derivatives(self, s):
        """(G(s), G'(s), G''(s)) on s > 0 (0 elsewhere), in one pass, with a
        and A scalars or, in a stack, (B, 1) columns.  Where G'' is constant
        on each row it is not built as an array: where a and A are both the
        scalar 0 each of the three is the scalar 0.0, and where A is the
        scalar 0 and every cell is positive G'' is a itself (a scalar, or a
        column).  A zero scalar drops its term, and the A term skips the rows
        with A = 0, so that no 0/0 arises where a power of s underflows; it
        is added to the a term, if any, never to 0.0, so an underflowing
        -2A/s^3 keeps its sign."""
        a, A = self.a, self.A
        quad = isinstance(a, np.ndarray) or a != 0.0
        sing = isinstance(A, np.ndarray) or A != 0.0
        if not (quad or sing):
            return 0.0, 0.0, 0.0
        s = np.asarray(s, dtype=float)
        pos = s > 0
        out = (0.5 * a * s * s, a * s, a) if quad else None
        if not sing and pos.all():
            return out
        if sing:
            with np.errstate(over="ignore", divide="ignore"):
                sp = np.where(pos, s, 1.0)
                terms = tuple(np.divide(c, sp ** k, out=np.zeros(s.shape), where=A != 0.0)
                              for c, k in ((A, 2), (-2.0 * A, 3), (6.0 * A, 4)))
            out = terms if out is None else tuple(v + t for v, t in zip(out, terms))
        return tuple(np.where(pos, v, 0.0) for v in out)

    def g(self, s):
        return _projection(self, s, 0)

    def dg(self, s):
        """G'(s); valid on s > 0 (0 returned elsewhere)."""
        return _projection(self, s, 1)

    def d2g(self, s):
        return _projection(self, s, 2)


def _projection(potential, s, k):
    """The k-th of potential.with_derivatives(s), always a float array of
    s's shape: G, G', G'' of a ``PotentialSpec`` and G_sigma, G_sigma',
    G_sigma'' of a ``ModifiedPotential``."""
    s = np.asarray(s, dtype=float)
    return _dense(potential.with_derivatives(s)[k], s.shape)


def _dense(value, shape):
    """A value of a with_derivatives triple as a float array of the given
    shape: a scalar or a column, constant along each row, broadcast into a
    fresh array, which the caller may write."""
    return value if np.shape(value) == shape else np.full(shape, value, dtype=float)


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
    must lie in (0, 1), its square must be a normal float (sigma above
    about 1.5e-154), and the glue coefficients and base Taylor data it
    gives must be finite; any other sigma is refused with a ValueError.

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
    # sigma^2, taken once on Python floats, and the base Taylor data at 2*sigma
    sigma_sq: float = field(init=False, default=0.0)
    g0: float = field(init=False, default=0.0)
    g1: float = field(init=False, default=0.0)
    g2: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.sigma is None:
            return
        # one rule: sigma in (0, 1), sigma^2 a normal float (so that the glue
        # divides by no zero or subnormal), and every derived value finite
        values = ()
        if 0.0 < self.sigma < 1.0 and float(self.sigma)**2 >= sys.float_info.min:
            sigma = float(self.sigma)
            two_sigma = np.array([2.0 * sigma])
            values = (
                ("sigma", sigma),
                ("sigma_sq", sigma**2),
                ("a_phi", -3.0 / (16.0 * sigma**2)),
                ("b_phi", 1.0 / sigma),
                ("c_phi", -1.5),
                ("g0", float(self.base.g(two_sigma)[0])),
                ("g1", float(self.base.dg(two_sigma)[0])),
                ("g2", float(self.base.d2g(two_sigma)[0])),
            )
        if not values or not all(math.isfinite(value) for _, value in values):
            raise ValueError(f"sigma must be in (0,1), with a normal sigma**2 and finite glue "
                             f"and Taylor data at 2*sigma, got {self.sigma}")
        for name, value in values:
            object.__setattr__(self, name, value)

    @classmethod
    def stack(cls, mps):
        """G_sigma of B members at once: row b of a (B, N) stack of heights
        is taken under mps[b], with member b's arithmetic bit for bit.

        A coefficient that all members share stays a scalar, the others are
        (B, 1) columns.  In a stack with a barrier, a member without one has
        2*sigma = -inf, so none of its cells lies below it.
        """
        if all(mp == mps[0] for mp in mps):
            return mps[0]
        base = _unchecked(PotentialSpec, kind=None, **{
            name: scalar_or_column([getattr(mp.base, name) for mp in mps]) for name in "aA"})
        if not any(mp.has_barrier for mp in mps):
            return _unchecked(cls, base=base, sigma=None)
        values = {name: scalar_or_column([getattr(mp, name) for mp in mps])
                  for name in ("a_phi", "b_phi", "c_phi", "sigma_sq", "g0", "g1", "g2")}
        values["sigma"] = scalar_or_column([mp.sigma if mp.has_barrier else -math.inf
                                            for mp in mps])
        return _unchecked(cls, base=base, **values)

    @property
    def has_barrier(self):
        return self.sigma is not None

    def with_derivatives(self, s):
        """(G_sigma(s), G_sigma'(s), G_sigma''(s)) of the float array s,
        finding the cells below 2*sigma once: the one evaluation of the
        glue and of the base's Taylor polynomial.

        Below 2*sigma the base is replaced by its Taylor polynomial at
        2*sigma and the glue is added where moreover s > 0; G_sigma is
        +inf (sentinel) on the cells s <= 0.  A positive height whose
        powers underflow gives infinite values.  Where no cell lies below
        2*sigma the triple is the base's, so G_sigma'' is a scalar or a
        column where it is constant on each row (see
        ``PotentialSpec.with_derivatives``).
        """
        base = self.base
        if self.has_barrier:
            two_sigma = 2.0 * self.sigma
            low = s < two_sigma
            if low.any():
                v0, v1, v2 = (_dense(v, s.shape) for v in base.with_derivatives(
                    np.maximum(s, two_sigma)))
                sl = s[low]
                sigma, sigma_sq, g0, g1, g2, a_phi, b_phi, c_phi = (
                    _on(v, low) for v in (self.sigma, self.sigma_sq, self.g0, self.g1,
                                          self.g2, self.a_phi, self.b_phi, self.c_phi))
                d = sl - 2.0 * sigma
                glue = sl > 0
                sg = np.where(glue, sl, 1.0)
                with np.errstate(divide="ignore", over="ignore"):
                    vals = (g0 + g1 * d + 0.5 * g2 * d * d
                            + (sigma_sq / sg**2 + a_phi * sg**2 + b_phi * sg + c_phi))
                vals[sl <= 0] = INFINITE_ENERGY
                d1 = g1 + g2 * d
                d2 = np.broadcast_to(g2, sl.shape).copy()
                sigma_sq, a_phi, b_phi = (_on(v, glue) for v in (sigma_sq, a_phi, b_phi))
                sg = sl[glue]
                with np.errstate(divide="ignore", over="ignore"):
                    d1[glue] += -2.0 * sigma_sq / sg**3 + 2.0 * a_phi * sg + b_phi
                    d2[glue] += 6.0 * sigma_sq / sg**4 + 2.0 * a_phi
                v0[low], v1[low], v2[low] = vals, d1, d2
                return v0, v1, v2
        return base.with_derivatives(s)

    def g_sigma(self, s):
        """G_sigma(s); +inf (sentinel) for s <= 0 when a barrier is set."""
        return _projection(self, s, 0)

    def dg_sigma(self, s):
        """G_sigma'(s) on s > 0."""
        return _projection(self, s, 1)

    def d2g_sigma(self, s):
        """G_sigma''(s) on s > 0."""
        return _projection(self, s, 2)


def scalar_or_column(values, rows=None):
    """The common value of the members in rows (all by default) as a
    scalar, else the values of all members as a (B, 1) column.  A scalar
    keeps a one-member evaluation's arithmetic bit for bit (numpy's power
    with a column of exponents can differ from its power with a scalar in
    the last bit) and spares the broadcast."""
    first = values[0 if rows is None else rows[0]]
    for i in range(len(values)) if rows is None else rows:
        if values[i] != first:
            return np.array(values)[:, None]
    return first


def _on(v, mask):
    """The parameter v at the cells of mask: a scalar as it is, a column
    (or a row of cells) broadcast over mask's shape and gathered."""
    return np.broadcast_to(v, mask.shape)[mask] if isinstance(v, np.ndarray) else v


def _unchecked(cls, **values):
    """An instance of the frozen dataclass cls holding values as they are:
    the columns of members that were checked when they were built."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


# ---------------------------------------------------------------------------
# model parameters

def check_alpha(alpha):
    """Refuse, with a ValueError, an alpha that is not positive and finite
    or whose 1/alpha overflows (alpha below about 5.6e-309): the
    dissipation exponent (alpha + 1)/alpha must be finite."""
    if not (0.0 < alpha < math.inf and 1.0 / float(alpha) < math.inf):
        raise ValueError(f"alpha must be positive and finite with a finite 1/alpha, "
                         f"got {alpha}")


@dataclass(frozen=True)
class ModelParams:
    """Rheology exponent, mobility, potential, and barrier parameter.

    sigma=None disables the barrier (test oracles only); otherwise
    ``ModifiedPotential`` checks sigma.  ``modified`` is the model's G_sigma,
    built once here; ``dataclasses.replace`` builds it anew.
    """

    alpha: float
    mobility: MobilitySpec
    potential: PotentialSpec
    sigma: Optional[float]
    modified: ModifiedPotential = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_alpha(self.alpha)
        object.__setattr__(self, "modified", ModifiedPotential(self.potential, self.sigma))

    @property
    def p(self):
        """Dissipation exponent (alpha + 1) / alpha."""
        return (self.alpha + 1.0) / self.alpha


# ---------------------------------------------------------------------------
# operations

def mobility_face(m, u, g, out=None):
    """Mobility on the N - 1 interior faces, sampled from the
    previous-time height: m of the arithmetic mean of the two neighbour
    cells.  The boundary faces carry none, since the flux is pinned to
    zero there.  A stack of heights (..., N) gives faces (..., N - 1).
    The face heights are written into one (..., N - 1) float array, `out`
    if given (a buffer the caller reuses), on which m is evaluated once;
    m's result is returned.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (g.N,):
        raise ValueError(f"heights must have {g.N} cells on the last axis, got shape {u.shape}")
    faces = np.add(u[..., :-1], u[..., 1:], out=out)
    faces *= 0.5
    return m(faces)


def psi(alpha, s):
    """Odd power law |s|^(alpha-1) s with psi(0) = 0 for every alpha."""
    s = np.asarray(s, dtype=float)
    return np.sign(s) * np.abs(s) ** alpha


class EnergyBreakdown(NamedTuple):
    dirichlet: float
    potential: float
    total: float


def evaluate(g, u, mp, pad):
    """(energy breakdown of lists, mu, G_sigma'') of the (B, N) rows of u
    under mp, in one pass: the one evaluation of E_sigma, of its first
    variation mu = -lap(u) + G_sigma'(u) and of the barrier curvature.

    The gradient of u is taken once, into the interior of the zero-ended
    face buffer pad (B, N+1): the Dirichlet sums are taken over the whole
    buffer, and the Laplacian in mu is its difference.  G_sigma, G_sigma'
    and G_sigma'' come from one ``ModifiedPotential.with_derivatives``;
    where they vanish identically (G = 0 and no cell below 2*sigma) G_sigma
    and G_sigma' are the scalar 0.0, and no zero array is integrated or
    added; where G_sigma'' is constant on each row it is a scalar or a
    (B, 1) column.  A row's values do not depend on the rows beside it:
    its sums run along its own cells and are finished on Python floats.
    """
    dx = g.dx
    grad = pad[:, 1:-1]
    np.subtract(u[:, 1:], u[:, :-1], out=grad)
    grad /= dx
    dirichlet = [0.5 * s * dx for s in np.add.reduce(pad * pad, axis=-1).tolist()]
    lap = pad[:, 1:] - pad[:, :-1]
    lap /= dx
    pot, dg, d2g = mp.with_derivatives(u)
    if isinstance(pot, float):
        potential = [pot] * len(u)
    else:
        potential = (np.add.reduce(pot, axis=-1) * dx).tolist()
        for i, value in enumerate(potential):
            # a finite sum has no infinite term, so only a non-finite one is searched
            if not math.isfinite(value) and np.isinf(pot[i]).any():
                potential[i] = INFINITE_ENERGY
    total = [d + v for d, v in zip(dirichlet, potential)]
    return EnergyBreakdown(dirichlet, potential, total), np.subtract(dg, lap, out=lap), d2g


def energy(g, u, mp):
    """Discrete energy: 0.5 * int |grad u|^2 + int G_sigma(u), the
    breakdown of ``evaluate``.

    Returns the infinite sentinel in `total` (and `potential`) whenever
    the barrier is active and some cell is non-positive.  A stack of
    heights (B, N) under a ``ModifiedPotential.stack`` of B members (or one
    ``ModifiedPotential`` for all) gives a breakdown of lists of B floats;
    a single height is taken as a one-row stack.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return EnergyBreakdown(*(v[0] for v in energy(g, u[None], mp)))
    if u.ndim != 2 or u.shape[-1] != g.N:
        raise ValueError(f"heights must have {g.N} cells on the last axis, got shape {u.shape}")
    return evaluate(g, u, mp, np.zeros((len(u), g.N + 1)))[0]
