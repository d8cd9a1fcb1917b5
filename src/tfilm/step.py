"""One implicit minimising-movement step.

The step minimises

    E_sigma[u] + h * alpha/(alpha+1) * int |j|^p / m(u*)^(1/alpha) dx,
    p = (alpha+1)/alpha,

over pairs (u, j) tied by the discrete flow equation
u = u* - h div(j), j flux-typed.  The constraint is affine and
invertible in the interior fluxes, so the problem reduces to an
unconstrained strictly convex one in the N-1 interior face values.
Every candidate evaluated anywhere in the solver satisfies the flow
equation exactly, which makes mass conservation a telescoping identity
rather than a tolerance.

Newton's method needs two regularisations, one per rheology branch:

* shear-thinning (alpha > 1, p < 2): |s|^p has unbounded curvature at
  s = 0, so the power is smoothed to psi_eps(s) = (s^2+eps^2)^(p/2) -
  eps^p and eps is driven down a geometric ladder (continuation);
* shear-thickening (alpha < 1, p > 2): curvature vanishes at s = 0, so
  a tiny relative shift is added to the Hessian diagonal.

The barrier in G_sigma keeps iterates positive; a fraction-to-boundary
cap on the line search only prevents trial points from overshooting
past the singularity.

Each accepted iterate's energy, chemical potential and barrier
curvature G_sigma'' are evaluated once and carried: the curvature into
the next Hessian, the rest into ``StepResult``.  ``reduced_objective``
and ``el_residual`` are the standalone reference evaluations.

A Newton iteration keeps its numpy calls few and the arithmetic order of
the plain formulas, so its results are bit for bit theirs:

* the directions of all iterating members are one LAPACK dpbsv call
  (band Cholesky) through ``solveh_banded`` on the block-diagonal band
  of their bands, which raises like scipy's: ValueError for non-finite
  input, LinAlgError when the matrix is not positive definite; the first
  solve loads scipy's LAPACK extension module alone, never scipy.linalg;
* a height is u* - h (diff(j) / dx) of the zero-padded flux, taken in a
  face buffer built with the step's fixed data (once per run, or per
  step without a ``StepState``), as are the boundary-cap direction and
  the Laplacian inside the chemical potential;
* G_sigma' and G_sigma'' come from one pass of
  ``ModifiedPotential.derivatives`` over the cells below 2*sigma.

The Newton matrix is SPD by construction: G_sigma and the dissipation
are convex, and the flux-to-height map is injective with a range
orthogonal to the constants that -Delta_h annihilates.  So a direction
has one failure rule: a matrix that dpbsv finds not positive definite,
or a direction whose slope against the gradient is not negative, raises
``StepNonconvergenceError`` like the Newton cap does.

A step is warm-started from the flux that its ``StepState`` predicts.
``run`` carries one state from step to step: the energy of the height
the next step starts from (the previous step's ``energy_after``), the
last three accepted fluxes, and the step's fixed data (parameters, band
storage and buffers, built at its first step).  The prediction is the
flux extrapolated in time, quadratic through the last three, 3 j_k - 3
j_{k-1} + j_{k-2} (linear through two, the last flux alone after one
step): the step minimisers change smoothly in time, so the prediction
starts Newton closer to the next one than the previous flux does.  A
``solve_step`` without a state builds a fresh one, which has no flux to
predict from.

The warm start skips the eps ladder and solves at eps_min directly,
where the functional is strictly convex, so it reaches the cold start's
minimiser up to the Newton tolerance.  A warm flux that leaves the
barrier domain starts cold instead: zero flux down the full ladder.  A
member whose Newton fails from its warm start is solved cold too, and
its ``newton_iters`` count the failed attempt.

There is one step and one Newton loop, for B members on one grid:
``solve_step`` runs them with B = 1, and a ``StepBatch`` (``run_many``
marches every group of configs of one grid and one step count with it)
with its members, in the order given.  A pass evaluates the kernels
once on all (B, N) rows: the functional with the energy, the chemical potential, the
reduced gradient, the Newton bands and the boundary cap.  The members'
bands lie side by side in one (3, B, N-1) band storage, so the iterating
members' bands are one block-diagonal band, solved by one
``solveh_banded`` call; a band that is not positive definite is reported
for its member with that member's own minor.  The step's masses and
height ranges are taken once on all rows.  Every decision of a member
(convergence, the Newton cap, Armijo acceptance, a stall while
polishing, entry into its next eps level) is made on Python floats.
Each member walks its own eps ladder.  A parameter of the arithmetic
that all members share (alpha, p, h, each coefficient of G_sigma) is
held as a scalar and the others as (B, 1) columns, and the per-member
sums (energies, functional values) are finished on Python floats, so a
member of a batch that shares model and step parameters does the
arithmetic of its one-member step, ``run``'s, bit for bit, and G_sigma
is each member's own bit for bit in any batch.  Members with different
exponents match their one-member steps to roundoff: numpy's power with a
column of exponents can differ in the last bit from its power with a
scalar one.  A cold failure (a Newton cap, a stalled line search, a
failed direction) raises ``StepNonconvergenceError`` and ends the batch.
"""

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import divergence, integrate, zero_flux
from .models import (
    EnergyBreakdown,
    ModifiedPotential,
    energy,
    mobility_face,
    psi,
    psi_inverse,
    scalar_or_column,
)

__all__ = [
    "StepParams",
    "StepResult",
    "StepState",
    "StepBatch",
    "StepNonconvergenceError",
    "StepCheckError",
    "reduced_objective",
    "solve_step",
    "el_residual",
]


# Fixed ingredients of the scheme: the ratio of the eps ladder, the
# Armijo sufficient-decrease constant and the fraction-to-boundary factor.
_RHO = 0.1
_ARMIJO_C = 1e-4
_TAU_BOUNDARY = 0.9
_MAX_HALVINGS = 60
_GRAIN = 64.0 * np.finfo(float).eps  # relative granularity of the objective

_module = sys.modules[__name__]


def _flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``, loaded
    alone from its file, or the loaded one if it is in ``sys.modules``.

    ``scipy.linalg.lapack.dpbsv`` is this module's ``dpbsv``, so a solve
    is the same call either way; importing ``scipy.linalg`` would also
    initialise the rest of that package, which tfilm does not use.  The
    loader enters the module in ``sys.modules``, so a later
    ``import scipy.linalg`` takes this one.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy  # sets up the libraries scipy bundles

    machinery = importlib.machinery
    linalg = os.path.join(scipy.__path__[0], "linalg")
    spec = machinery.FileFinder(
        linalg, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no module {name} in {linalg} (scipy {scipy.__version__})", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def __getattr__(name):
    """Bind scipy's ``dpbsv`` or ``solve_banded`` here at first use (PEP
    562), so that importing tfilm loads no LAPACK.

    ``dpbsv`` comes from ``_flapack()`` and never imports scipy.linalg.
    ``solveh_banded`` calls it through the module attribute, so a
    replacement set on the module takes effect.  ``solve_banded`` is
    imported from scipy.linalg; tfilm does not use it, the benchmark's
    tracer wraps it.
    """
    if name == "dpbsv":
        value = _flapack().dpbsv
    elif name == "solve_banded":
        from scipy.linalg import solve_banded as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


@dataclass(frozen=True)
class StepParams:
    """Time step size and Newton/continuation knobs."""

    h: float
    eps0: float = 1e-2
    eps_min: float = 1e-8
    tol_grad: float = 1e-9
    max_newton: int = 80

    def __post_init__(self):
        for name in ("h", "eps0", "eps_min", "tol_grad"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.eps_min <= self.eps0:
            raise ValueError("need 0 < eps_min <= eps0")
        cap = self.max_newton
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 0:
            raise ValueError(f"max_newton must be an integer >= 0, got {cap!r}")


@dataclass
class StepResult:
    u_next: np.ndarray
    j: np.ndarray
    newton_iters: int
    el_residual_norm: float
    energy_before: tuple
    energy_after: tuple
    dissipation_flux_term: float
    dissipation_strong_term: float
    mass: float              # of u_next, as the mass check took it
    min_u: float
    max_u: float


class StepNonconvergenceError(RuntimeError):
    """Newton failed (iteration cap, stalled line search, or a direction
    that is not a descent direction); carries the last iterate.

    ``iters`` is the number of Newton iterations spent before giving up,
    and ``member`` the failing member's index in a batch (0 for one).
    """

    member = 0

    def __init__(self, message, u_last=None, j_last=None, grad_norm=None, iters=0):
        super().__init__(message)
        self.u_last = u_last
        self.j_last = j_last
        self.grad_norm = grad_norm
        self.iters = iters


class StepCheckError(RuntimeError):
    """A solved step broke mass conservation or the zero-flux comparison;
    carries the offending iterate."""

    def __init__(self, message, u_last=None, j_last=None):
        super().__init__(message)
        self.u_last = u_last
        self.j_last = j_last


# --- smoothed p-power and its derivatives scaled by alpha/(alpha+1) --------

def _psi_eps(s, p, eps, eps_p=None):
    """(s^2 + eps^2)^(p/2) - eps^p; equals |s|^p at eps = 0.  eps_p is
    eps^p, given for a column of eps as powers taken on Python floats."""
    if eps_p is None:
        eps_p = eps**p
    return (s * s + eps * eps) ** (0.5 * p) - eps_p


def _psi_tilde(s, p, eps):
    """alpha/(alpha+1) * psi_eps'(s) = s (s^2 + eps^2)^((p-2)/2)."""
    return s * (s * s + eps * eps) ** (0.5 * (p - 2.0))


def _psi_tilde_prime(s, p, eps):
    s2 = s * s
    q = s2 + eps * eps
    return q ** (0.5 * (p - 4.0)) * ((p - 1.0) * s2 + eps * eps)


def _functional(g, mp, scale, p, eps, w, q, u, e=None, eps_p=None):
    """(step functional, energy of u) at interior fluxes q and u = u* - h div(q).

    w = m(u*)^(-1/alpha) on interior faces and scale = h alpha/(alpha+1) dx.
    A known energy e of u is reused, so that only the dissipation term is
    added; the infinite energy sentinel carries through the sum.  B
    members take q (B, N-1), u (B, N), p, eps and eps_p as scalars or
    (B, 1) columns and scale as a list, and give a list of B values, the
    sums taken on Python floats.
    """
    if e is None:
        e = energy(g, u, mp)
    dissipation = np.add.reduce(w * _psi_eps(q, p, eps, eps_p), axis=-1).tolist()
    return [t + s * d for t, s, d in zip(e.total, scale, dissipation)], e


def _dissipation_scale(g, model, h):
    return h * (model.alpha / (model.alpha + 1.0)) * g.dx


def reduced_objective(g, j, u_star, model, step, eps):
    """Value of the step functional at a flux-typed face field j.

    The height is eliminated through u = u_star - h div(j); returns the
    infinite sentinel when the barrier is active and u has a
    non-positive cell.
    """
    u_star = np.asarray(u_star, dtype=float)
    m_int = _Problem(g, [model], [step]).checked(u_star[None],
                                                  [energy(g, u_star, model.modified)])
    u = u_star - step.h * divergence(g, j)
    w = m_int ** (-1.0 / model.alpha)
    q = np.asarray(j, dtype=float)[1:-1]
    return _functional(g, model.modified, [_dissipation_scale(g, model, step.h)],
                       model.p, eps, w, q[None], u[None])[0][0]


class _NotPositiveDefinite(np.linalg.LinAlgError):
    """dpbsv found leading minor ``minor`` of band ``block`` not positive
    definite; the message is the band's own, as if it were solved alone."""

    def __init__(self, minor, block):
        super().__init__(f"{minor}th leading minor not positive definite")
        self.minor, self.block = minor, block


def solveh_banded(ab, b):
    """Solve A x = b for the SPD band matrix A in upper band storage ab.

    One LAPACK dpbsv call (band Cholesky factorisation and solve), with
    the checks of scipy.linalg.solveh_banded: non-finite input raises
    ValueError, a matrix that is not positive definite raises LinAlgError
    (info > 0) and an illegal argument raises ValueError (info < 0).

    K pentadiagonal bands side by side, ab (3, K, n) with b (K, n), are
    solved as the one block-diagonal band they form, by the same single
    call; x is (K, n).  Their coupling entries ab[0, :, :2] and
    ab[1, :, 0] must be zero.  Band Cholesky at bandwidth 2 is unblocked
    and column by column, so each block gets the arithmetic of its own
    solve and x[k] is that solve bit for bit.  The LinAlgError names the
    first failing band (``block``) and its local minor, in its own
    message.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, x, info = _module.dpbsv(ab.reshape(3, -1), b.reshape(-1))
    if info > 0:
        block, minor = divmod(info - 1, ab.shape[-1])
        raise _NotPositiveDefinite(minor + 1, block)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x.reshape(b.shape)


def _chemical_potential(g, u, mp, pad):
    """(mu, G_sigma''(u)) with mu = -lap(u) + G_sigma'(u).

    pad is a face buffer with zero boundary entries (one row per member
    for a stack of heights); the gradient of u is written into its
    interior, so the Laplacian is its difference.
    """
    grad = pad[..., 1:-1]
    np.subtract(u[..., 1:], u[..., :-1], out=grad)
    grad /= g.dx
    lap = pad[..., 1:] - pad[..., :-1]
    lap /= g.dx
    dg, d2g = mp.derivatives(u)
    return dg - lap, d2g


def _el_defect(g, q, mu, m_int, alpha, alphas):
    """Face-weighted l^(alpha+1) norms of q - m Psi(-grad mu) on the
    interior faces of B members: rows of q, mu and m_int, alpha a scalar
    or a (B, 1) column, and alphas each member's, for the roots taken on
    Python floats."""
    r = q - m_int * psi(alpha, -(mu[..., 1:] - mu[..., :-1]) / g.dx)
    sums = (np.abs(r) ** (alpha + 1.0)).sum(axis=-1).tolist()
    return [(g.dx * s) ** (1.0 / (a + 1.0)) for s, a in zip(sums, alphas)]


def _flux_change(pad, q, h, dx):
    """h div(j) for the flux-typed j with interior values q, through the
    zero-ended face buffer pad (rows of q, pad and a column h for a stack)."""
    pad[..., 1:-1] = q
    d = pad[..., 1:] - pad[..., :-1]
    d /= dx
    d *= h
    return d


def _height(g, u_star, h, q, pad):
    return u_star - _flux_change(pad, q, h, g.dx)


def _reduced_gradient(dx, mu, w, q, p, eps):
    """The reduced gradient divided by h dx: grad mu + w psi_eps'(q) alpha/(alpha+1)."""
    return (mu[..., 1:] - mu[..., :-1]) / dx + w * _psi_tilde(q, p, eps)


def _newton_bands(dx, lap_diag, ao, h, w, d2g, q, p, eps):
    """(diagonal, first off-diagonal) of the Newton matrix in the
    interior-face index: the energy block h^2 D^T H_E D (pentadiagonal,
    its outer band set once per run) plus the dissipation diagonal."""
    ad = dx * (lap_diag + d2g)
    d0 = ad[..., :-1] - 2.0 * ao
    d0 += ad[..., 1:]
    d0 /= dx**2
    d1 = ao - ad[..., 1:-1]
    d1 += ao
    d1 /= dx**2
    d0 = h * h * d0 + h * dx * w * _psi_tilde_prime(q, p, eps)
    d1 *= h * h
    return d0, d1


def _shifted(d0):
    """The diagonal with the relative shift of shear-thickening (p > 2):
    psi_eps'' vanishes at s = 0 there."""
    return d0 + 1e-12 * (1.0 + np.abs(d0))


def _granularity(f):
    """Objective changes below this cannot be verified by comparing values."""
    return _GRAIN * (1.0 + abs(f))


def _level_tol(step, eps, last):
    return step.tol_grad if last else max(step.tol_grad, 0.1 * eps)


def _cold_ladder(model, step):
    """The eps levels of a cold solve: geometric from eps0 down to eps_min
    for shear-thinning (alpha > 1), eps_min alone otherwise."""
    if not (model.alpha > 1.0 and step.eps0 > step.eps_min):
        return [step.eps_min]
    ladder = []
    eps = step.eps0
    while eps > step.eps_min * (1.0 + 1e-12):
        ladder.append(eps)
        eps *= _RHO
    ladder.append(step.eps_min)
    return ladder


class _Problem:
    """What stays fixed for B members on one grid through a run.

    The parameters of the members' arithmetic are scalars where they
    share them and (B, 1) columns where they do not (the dissipation
    scales are a list), G_sigma among them (``ModifiedPotential.stack``).
    Besides them: the members of each mobility, the members shifting
    their Newton diagonal (a bool column), the cold eps ladders, the
    -Delta_h bands, the Newton band storage (3, B, N-1), in which the
    members' bands lie side by side as one block-diagonal band, and the
    zero-ended face buffer (B, N+1).
    """

    def __init__(self, g, models, steps):
        self.grid, self.models, self.steps = g, tuple(models), tuple(steps)
        self.alpha_each = [m.alpha for m in models]
        self.alpha = scalar_or_column(self.alpha_each)
        self.p_each = [m.p for m in models]
        self.p = scalar_or_column(self.p_each)
        self.h = scalar_or_column([sp.h for sp in steps])
        self.scale = [_dissipation_scale(g, m, sp.h) for m, sp in zip(models, steps)]
        self.shift = np.array([[m.p > 2.0] for m in models])
        self.any_shift = bool(self.shift.any())
        self.barrier = [m.modified.has_barrier for m in models]
        self.any_barrier = any(self.barrier)
        self.potential = ModifiedPotential.stack([m.modified for m in models])
        rows = {}
        for i, m in enumerate(models):
            rows.setdefault(m.mobility, []).append(i)
        self.mobilities = [(mob, np.array(r)) for mob, r in rows.items()]
        self.ladders = [_cold_ladder(m, sp) for m, sp in zip(models, steps)]
        self.caps = [sp.max_newton for sp in steps]
        B, dx = len(models), g.dx
        # -Delta_h on cells: its diagonal, a row per member so that it adds
        # to the rows without broadcasting, and dx times its off-diagonal
        self.lap_diag = np.full((B, g.N), 2.0 / dx**2)
        self.lap_diag[:, [0, -1]] = 1.0 / dx**2
        self.ao = dx * (-1.0 / dx**2)
        # each member's Newton band storage, its outer band h^2 D^T (-Delta_h) D
        # set; the entries that would couple it to its neighbours stay zero
        self.ab = np.zeros((3, B, g.N - 1))
        for i, sp in enumerate(steps):
            self.ab[0, i, 2:] = sp.h * sp.h * (-self.ao / dx**2)
        self.pad = np.zeros((B, g.N + 1))

    def checked(self, u_star, e_before):
        """The interior face mobilities of the rows of u_star, after the
        preconditions of a step from them: positive mobility on every
        interior face and a finite energy e_before of each row."""
        g = self.grid
        if len(self.mobilities) == 1:
            m_int = mobility_face(self.mobilities[0][0], u_star, g)[:, 1:-1]
        else:
            m_int = np.empty((len(u_star), g.N - 1))
            for mob, rows in self.mobilities:
                m_int[rows] = mobility_face(mob, u_star[rows], g)[:, 1:-1]
        if (m_int <= 0.0).any():
            raise ValueError("mobility vanishes on an interior face; step is ill-posed")
        if not all(math.isfinite(e.total) for e in e_before):
            raise ValueError("u_star has infinite energy (non-positive cell under the barrier)")
        return m_int

    def step(self, states, u_star):
        """The members' StepResults of one step from the rows of u_star,
        each state describing its member's row.

        A member whose Newton fails from its warm start is solved cold:
        the step is solved again with that member started cold and the
        others as before, which repeats their arithmetic, and its
        newton_iters also count the failed attempt's iterations.  A cold
        failure raises.
        """
        e_before = [s.energy_star for s in states]
        m_int = self.checked(u_star, e_before)
        spent = {}  # the iterations of each failed warm attempt, by member
        while True:
            start = self.start(states, u_star, m_int, e_before, cold=spent)
            try:
                sol = _solve(self, start)
                break
            except StepNonconvergenceError as exc:
                if not start.warm[exc.member]:
                    raise
                spent[exc.member] = exc.iters
        for i, iters in spent.items():
            sol.iters[i] += iters
        return self.results(states, start, sol)

    def start(self, states, u_star, m_int, e_before, cold=()):
        """The step from the rows of u_star, with the interior face
        mobilities m_int and energies e_before of u*: each member not in
        cold starts from its state's predicted flux at eps_min if it has
        one that stays in the barrier domain, else cold, from zero flux
        down its eps ladder."""
        g = self.grid
        q = np.zeros((len(states), g.N - 1))
        predicted = [None if i in cold else s.predicted_flux() for i, s in enumerate(states)]
        hot = [x is not None for x in predicted]
        if any(hot):
            for i, x in enumerate(predicted):
                if x is not None:
                    q[i] = x
            u_warm = _height(g, u_star, self.h, q, self.pad)
            e_warm = energy(g, u_warm, self.potential)
            # a warm flux that leaves the barrier domain starts cold
            hot = [ok and math.isfinite(e) for ok, e in zip(hot, e_warm.total)]
        if all(hot):
            u, e = u_warm, e_warm
        else:
            # from zero flux the height is u_star bit for bit, and so is its energy
            u, e = u_star.copy(), EnergyBreakdown(*map(list, zip(*e_before)))
            for i, ok in enumerate(hot):
                if ok:
                    u[i] = u_warm[i]
                    for a, b in zip(e, e_warm):
                        a[i] = b[i]
                else:
                    q[i] = 0.0
        ladders = [[sp.eps_min] if ok else lad
                   for ok, sp, lad in zip(hot, self.steps, self.ladders)]
        return _Start(u_star, m_int, m_int ** (-1.0 / self.alpha), e_before, q, u, e,
                      ladders, hot)

    def results(self, states, start, sol):
        """The members' StepResults of the solved step, after the mass and
        zero-flux comparison checks; each state records its member's step.
        The masses and the height range are taken once on all rows."""
        g, u = self.grid, sol.u
        flux, strong, el = _step_terms(g, sol.q, sol.mu, start.w, start.m_int, self.alpha,
                                       self.alpha_each, self.p)
        mass_star, mass = integrate(g, start.u_star).tolist(), integrate(g, u).tolist()
        lows, highs = u.min(axis=-1).tolist(), u.max(axis=-1).tolist()
        js = np.zeros((len(u), g.N + 1))
        js[:, 1:-1] = sol.q
        out = []
        for i, (state, e_after, e_before) in enumerate(zip(states, zip(*sol.energy),
                                                           start.e_before)):
            q = sol.q[i]
            if abs(mass[i] - mass_star[i]) > 1e-12 * (1.0 + abs(mass_star[i])):
                raise StepCheckError("mass drifted beyond roundoff in a single step",
                                     u_last=u[i], j_last=q)
            # the last ladder level is eps_min, so f is the functional there
            if sol.f[i] > e_before.total + 1e-10 * (1.0 + abs(e_before.total)):
                raise StepCheckError("step objective exceeds the zero-flux comparison value",
                                     u_last=u[i], j_last=q)
            e_after = EnergyBreakdown(*e_after)
            state.record(q, e_after)
            out.append(StepResult(u_next=u[i], j=js[i], newton_iters=sol.iters[i],
                                  el_residual_norm=el[i], energy_before=e_before,
                                  energy_after=e_after, dissipation_flux_term=flux[i],
                                  dissipation_strong_term=strong[i], mass=mass[i],
                                  min_u=lows[i], max_u=highs[i]))
        return out


class _Start(NamedTuple):
    """A step's data and its members' first iterates."""

    u_star: np.ndarray       # (B, N) heights the step starts from
    m_int: np.ndarray        # (B, N-1) face mobilities of u_star
    w: np.ndarray            # m_int^(-1/alpha)
    e_before: list           # EnergyBreakdown of each row of u_star
    q: np.ndarray            # (B, N-1) first interior fluxes
    u: np.ndarray            # u_star - h div(q)
    energy: tuple            # EnergyBreakdown of lists, of u
    ladders: list            # each member's eps levels
    warm: list               # whether each member starts from its prediction


class _Iterate(NamedTuple):
    """The members' accepted iterates and the quantities evaluated at them."""

    q: np.ndarray            # (B, N-1) interior face fluxes
    u: np.ndarray            # u_star - h div(q)
    energy: tuple            # EnergyBreakdown of lists, of u
    mu: np.ndarray           # chemical potential of u
    d2g: np.ndarray          # G_sigma''(u), the barrier's Hessian diagonal
    f: list                  # step functional of each member at its eps
    iters: list              # Newton iterations of each member


class StepState:
    """What a run carries from one step into the next.

    Built once per run for its grid g and step size h, from the energy
    breakdown of the initial height.  ``solve_step(..., state=state)``
    takes the energy of u* and the predicted warm start from it, builds
    the step's fixed data (``problem``) at its first step and keeps it,
    and on success records the step's flux and energy_after, so the state
    always describes the height the next step starts from.
    """

    def __init__(self, g, h, energy_star):
        self.grid, self.h = g, h
        self.energy_star = energy_star
        self.fluxes = deque(maxlen=3)  # accepted interior fluxes, oldest first
        self.problem = None

    def predicted_flux(self):
        """The next interior flux extrapolated in time from the kept ones:
        quadratic through three, linear through two, the last flux alone
        after one; None before the first step."""
        f = self.fluxes
        if len(f) == 3:
            return 3.0 * (f[2] - f[1]) + f[0]
        if len(f) == 2:
            return 2.0 * f[1] - f[0]
        return f[0] if f else None

    def record(self, q, energy_after):
        self.fluxes.append(q)
        self.energy_star = energy_after


def _failure(message, i, q, u, norms, it):
    """StepNonconvergenceError of member i, with its iterate."""
    err = StepNonconvergenceError(message, u_last=u[i].copy(), j_last=q[i].copy(),
                                  grad_norm=norms[i], iters=it[i])
    err.member = i
    return err


def _solve(prob, start):
    """Damped Newton of every member down its own eps ladder from start.

    A pass evaluates the kernels once on all rows; a member that is not
    iterating in it (done, or entering its next eps level) rides along
    with a zero direction, so its trial row is its iterate bit for bit.
    Any failure raises StepNonconvergenceError with the failing member's
    iterate.  Returns the solved ``_Iterate``.
    """
    g, dx, h, p, mp, pad = prob.grid, prob.grid.dx, prob.h, prob.p, prob.potential, prob.pad
    scale, caps, barrier = prob.scale, prob.caps, prob.barrier
    u_star, w, ladders = start.u_star, start.w, start.ladders
    q, u, e = start.q, start.u, start.energy
    mu, d2g = _chemical_potential(g, u, mp, pad)
    B = len(q)
    level, it, iters, done = [0] * B, [0] * B, [0] * B, [False] * B
    f, eps, tol = [0.0] * B, [0.0] * B, [0.0] * B
    norms, slope, t = [0.0] * B, [0.0] * B, [0.0] * B
    active, entering = list(range(B)), list(range(B))

    def level_done(i):
        iters[i] += it[i]
        if level[i] + 1 < len(ladders[i]):
            level[i] += 1
            entering.append(i)
        else:
            done[i] = True

    def direction_failed(reason, i):
        return _failure(f"Newton direction failed: {reason} (grad norm {norms[i]:.3e}, "
                        f"eps {eps[i]:g})", i, q, u, norms, it)

    while active:
        if entering:
            for i in entering:
                ladder = ladders[i]
                eps[i] = ladder[level[i]]
                tol[i] = _level_tol(prob.steps[i], eps[i], level[i] == len(ladder) - 1)
                it[i] = 0
            # done members ride along at any eps
            eps_col = scalar_or_column(eps, active)
            eps_p = scalar_or_column([x**y for x, y in zip(eps, prob.p_each)], active)
            # a new level keeps the energy, mu and G_sigma'' and re-adds
            # only the dissipation
            level_f = _functional(g, mp, scale, p, eps_col, w, q, u, e, eps_p)[0]
            for i in entering:
                f[i] = level_f[i]
            entering.clear()

        g_scaled = _reduced_gradient(dx, mu, w, q, p, eps_col)
        squares = np.add.reduce(g_scaled * g_scaled, axis=-1).tolist()
        go = []
        for i in active:
            norms[i] = grad_norm = math.sqrt(dx * squares[i])
            # converged on the gradient norm; a first iterate merely under tol
            # still gets one polishing iteration (unless the cap allows none):
            # without it, modes whose driving gradient has decayed below tol
            # would freeze instead of keeping their relative accuracy
            if grad_norm <= tol[i] and (it[i] >= 1 or grad_norm == 0.0 or caps[i] == 0):
                level_done(i)
            elif it[i] == caps[i]:
                message = (f"Newton did not reach tol_grad={tol[i]:g} in {caps[i]} "
                           f"iterations (grad norm {grad_norm:.3e}, eps {eps[i]:g})")
                floor = np.finfo(float).eps * float(np.max(np.abs(u_star[i]))) / dx**3
                if tol[i] <= 10.0 * floor:
                    message += (f"; tol_grad is within 10x of the roundoff floor "
                                f"eps_machine max|u*| / dx^3 = {floor:.3e} of this problem")
                raise _failure(message, i, q, u, norms, it)
            else:
                go.append(i)
        if go:
            grad_raw = h * dx * g_scaled
            d0, d1 = _newton_bands(dx, prob.lap_diag, prob.ao, h, w, d2g, q, p, eps_col)
            if prob.any_shift:
                d0 = np.where(prob.shift, _shifted(d0), d0)
            ab = prob.ab
            ab[2] = d0
            ab[1, :, 1:] = d1
            if len(go) < B:  # the iterating members' bands and gradients
                ab, grad_raw = ab[:, go], grad_raw[go]
            # one solve of the block-diagonal band of the iterating members
            try:
                x = solveh_banded(ab, -grad_raw)
            except _NotPositiveDefinite as exc:
                raise direction_failed(exc, go[exc.block]) from exc
            # each slope is a row @ column product, which numpy takes as np.dot does
            slopes = (grad_raw[:, None] @ x[..., None]).ravel().tolist()
            for i, dd in zip(go, slopes):
                if not dd < 0.0:
                    raise direction_failed(f"not a descent direction (slope {dd:.3e})", i)
                slope[i] = dd
            if len(go) < B:
                delta = np.zeros(q.shape)
                delta[go] = x
            else:
                delta = x

            if prob.any_barrier:
                # the height moves by -dh along delta; cap the cells it lowers
                dh = _flux_change(pad, delta, h, dx)
                lows = np.empty(u.shape)
                lows.fill(math.inf)
                np.divide(u, dh, out=lows, where=dh > 0.0)
                lows = lows.min(axis=-1).tolist()
            for i in go:
                t[i] = min(1.0, _TAU_BOUNDARY * lows[i]) if barrier[i] else 1.0

            # Predicted decreases below the objective's floating-point
            # granularity cannot be verified by comparing values; the
            # problem is convex with an SPD Hessian, so in that contraction
            # regime a feasible (boundary-capped) Newton step is taken
            # outright.  The other members ride along with a zero
            # direction at any step.
            t_col = scalar_or_column(t, go)
            pending, stepped = go, []
            for _ in range(_MAX_HALVINGS):
                q_try = q + t_col * delta
                u_try = _height(g, u_star, h, q_try, pad)
                f_try, e_try = _functional(g, mp, scale, p, eps_col, w, q_try, u_try, None, eps_p)
                took, rest = [], []
                for i in pending:
                    ti, fi = t[i], f_try[i]
                    if (fi <= f[i] + _ARMIJO_C * ti * slope[i]
                            or (-ti * slope[i] <= _granularity(f[i]) and math.isfinite(fi))):
                        f[i] = fi
                        took.append(i)
                    else:
                        rest.append(i)
                stepped += took
                pending = rest
                if not rest:
                    # every other row rode along, so each row is its member's iterate
                    q, u, e = q_try, u_try, e_try
                    break
                if took:
                    # an accepted member rides along the remaining halvings
                    q[took], u[took], delta[took] = q_try[took], u_try[took], 0.0
                    for a, b in zip(e, e_try):
                        for i in took:
                            a[i] = b[i]
                t_col *= 0.5
                for i in rest:
                    t[i] *= 0.5
            for i in pending:
                if norms[i] > tol[i]:
                    raise _failure(f"line search stalled at grad norm {norms[i]:.3e} > tol "
                                   f"{tol[i]:g}; tol_grad is below the roundoff floor of "
                                   "this problem", i, q, u, norms, it)
                level_done(i)  # stalled while polishing an already-converged iterate
            if stepped:
                mu, d2g = _chemical_potential(g, u, mp, pad)
                for i in stepped:
                    it[i] += 1
        active = [i for i in active if not done[i]]
    return _Iterate(q, u, e, mu, d2g, f, iters)


def _step_terms(g, q, mu, w, m_int, alpha, alphas, p):
    """(flux and strong dissipation integrals, EL defects) of the solved
    members, each with B entries."""
    dx = g.dx
    xi = psi_inverse(alpha, q / m_int)
    return ([dx * s for s in (w * np.abs(q) ** p).sum(axis=-1).tolist()],
            [dx * s for s in (m_int * np.abs(xi) ** (alpha + 1.0)).sum(axis=-1).tolist()],
            _el_defect(g, q, mu, m_int, alpha, alphas))


def solve_step(g, u_star, model, step, state=None):
    """Solve one minimising-movement step from u_star.

    Returns a StepResult whose (u_next, j) satisfy the discrete flow
    equation exactly.  The objective at the solution never exceeds the
    value of the feasible pair (u_star, 0), which is the one-step weak
    energy-dissipation inequality.

    With a run's ``StepState`` (for this g and step.h, describing u_star)
    its energy of u_star and fixed data are used instead of being built
    again, Newton starts from its predicted flux, and the solved step is
    recorded in it.  Without one, a fresh state is built, which has no
    flux to predict from.  A warm start is solved at eps_min directly.  If
    it leaves the barrier domain, or Newton fails from it, the step is
    solved cold: from zero flux down the full eps ladder.
    ``newton_iters`` then also counts the iterations of the failed warm
    attempt.
    """
    u_star = np.asarray(u_star, dtype=float)
    if state is None:
        state = StepState(g, step.h, energy(g, u_star, model.modified))
    elif state.grid != g or state.h != step.h:
        raise ValueError("the step state belongs to another grid or step size")
    prob = state.problem
    if prob is None or prob.models[0] is not model or prob.steps[0] is not step:
        prob = state.problem = _Problem(g, [model], [step])
    return prob.step([state], u_star[None])[0]


class StepBatch:
    """Members that share a grid, stepped together as ``solve_step(...,
    state=...)`` steps each, by the same step and Newton loop.

    Each member keeps its own ``StepState`` (so its predicted warm start)
    and walks its own eps ladder, and a member whose warm start leaves the
    barrier domain, or whose Newton fails from it, is solved cold.  The
    members' parameters are held as in a one-member step where they share
    them, so a member matches ``run`` bit for bit when the batch shares its
    model and step parameters, and to roundoff otherwise.  Members come in
    any order and are returned in it.  A cold failure raises
    ``solve_step``'s error type and leaves the batch unusable.
    """

    def __init__(self, g, models, steps, energies):
        self.grid = g
        self.problem = _Problem(g, models, steps)
        self.states = [StepState(g, sp.h, e) for sp, e in zip(steps, energies)]

    def step(self, u_stars):
        """Solve one step of every member from its current height, one row
        of u_stars each.  Returns the members' StepResults, in the order of
        the rows."""
        u_star = np.asarray(u_stars, dtype=float)
        shape = (len(self.states), self.grid.N)
        if u_star.shape != shape:
            raise ValueError(f"u_stars must have shape {shape}, one row per member, "
                             f"got {u_star.shape}")
        return self.problem.step(self.states, u_star)


def el_residual(g, res, u_star, model):
    """Defect of the optimality relation j = m(u*) Psi(-grad mu(u_next)).

    mu is the discrete chemical potential -lap(u_next) + G_sigma'(u_next);
    the defect is measured in the face-weighted l^(alpha+1) norm.  At
    convergence it sits at the level tol_grad + eps_min^(p-1) up to a
    reported constant, because the reduced gradient is exactly this
    relation passed through the smoothed power.  This recomputes from
    scratch what solve_step reports from its carried state.
    """
    mu, _ = _chemical_potential(g, res.u_next, model.modified, zero_flux(g))
    m_faces = mobility_face(model.mobility, u_star, g)
    return _el_defect(g, res.j[None, 1:-1], mu[None], m_faces[None, 1:-1], model.alpha,
                      [model.alpha])[0]
