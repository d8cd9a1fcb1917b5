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

* the direction is one LAPACK dpbsv call (band Cholesky) through
  ``solveh_banded``, which raises like scipy's: ValueError for
  non-finite input, LinAlgError when the matrix is not positive definite;
* a height is u* - h (diff(j) / dx) of the zero-padded flux, taken in a
  face buffer of the workspace (built with the ``StepState``: once per
  run, or per step without one), as are the boundary-cap direction and the
  Laplacian inside the chemical potential;
* G_sigma' and G_sigma'' come from one pass of
  ``ModifiedPotential.derivatives`` over the cells below 2*sigma.

The Newton matrix is SPD by construction: G_sigma and the dissipation
are convex, and the flux-to-height map is injective with a range
orthogonal to the constants that -Delta_h annihilates.  So a direction
has one failure rule: a matrix that dpbsv finds not positive definite,
or a direction whose slope against the gradient is not negative, raises
``StepNonconvergenceError`` like the Newton cap does.

A step is warm-started from the flux that its ``StepState`` predicts.
``run`` carries one state from step to step: the workspace of its grid
and h, the energy of the height the next step starts from (the previous
step's ``energy_after``), and the last three accepted fluxes.  The
prediction is the flux extrapolated in time, quadratic through the last
three, 3 j_k - 3 j_{k-1} + j_{k-2} (linear through two, the last flux
alone after one step): the step minimisers change smoothly in time, so
the prediction starts Newton closer to the next one than the previous
flux does.  A ``solve_step`` without a state builds a fresh one, which
has no flux to predict from.

The warm start skips the eps ladder and solves at eps_min directly,
where the functional is strictly convex, so it reaches the cold start's
minimiser up to the Newton tolerance.  A warm flux that leaves the
barrier domain, or a Newton failure from it, falls back to the cold
solve: zero flux down the full ladder.

A ``StepBatch`` steps several runs on one grid together, every member
every step (``run_many`` marches a group of configs of one grid and one
step count with it).  Each member is solved as ``solve_step`` with its
own ``StepState`` solves it, with the same kernels: the functional, the
chemical potential, the reduced gradient and the Newton bands take a
leading member axis, with per-member parameters (h, p, eps, ...) as
(B, 1) columns, and the potential is evaluated per kind on its rows by a
``models.PotentialStack``.  A Newton pass evaluates them once on all B
rows; only the band solve runs member by member, one dpbsv call for each
member still iterating.  A member that is not iterating rides along with
a zero direction, so its row is left as it was.  A member whose warm
start leaves the barrier domain starts cold, as in ``solve_step``, but a
Newton failure of any member (its cap, a stalled line search, a failed
direction) raises ``StepNonconvergenceError`` and ends the batch.  The
batch matches the single-member steps to roundoff, not bit for bit:
numpy's power with a column of exponents can differ in the last bit from
its power with a scalar one.
"""

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# unused here; kept because the tracer of bench/run.py wraps step.solve_banded
from scipy.linalg import solve_banded  # noqa: F401
from scipy.linalg.lapack import dpbsv

from .grid import divergence, integrate, zero_flux
from .models import (
    EnergyBreakdown,
    PotentialStack,
    energy,
    mobility_face,
    psi,
    psi_inverse,
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


class StepNonconvergenceError(RuntimeError):
    """Newton failed (iteration cap, stalled line search, or a direction
    that is not a descent direction); carries the last iterate.

    ``iters`` is the number of Newton iterations spent before giving up.
    """

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

def _psi_eps(s, p, eps):
    """(s^2 + eps^2)^(p/2) - eps^p; equals |s|^p at eps = 0."""
    return (s * s + eps * eps) ** (0.5 * p) - eps**p


def _psi_tilde(s, p, eps):
    """alpha/(alpha+1) * psi_eps'(s) = s (s^2 + eps^2)^((p-2)/2)."""
    return s * (s * s + eps * eps) ** (0.5 * (p - 2.0))


def _psi_tilde_prime(s, p, eps):
    s2 = s * s
    q = s2 + eps * eps
    return q ** (0.5 * (p - 4.0)) * ((p - 1.0) * s2 + eps * eps)


def _check_preconditions(g, u_star, model, e_before=None):
    """(face mobility, energy of u_star); a known energy e_before of u_star
    is taken as given."""
    m_faces = mobility_face(model.mobility, u_star, g)
    if (m_faces[1:-1] <= 0.0).any():
        raise ValueError("mobility vanishes on an interior face; step is ill-posed")
    if e_before is None:
        e_before = energy(g, u_star, model.modified)
    if not math.isfinite(e_before.total):
        raise ValueError("u_star has infinite energy (non-positive cell under the barrier)")
    return m_faces, e_before


def _functional(g, mp, scale, p, eps, w, q, u, e=None):
    """(step functional, energy of u) at interior fluxes q and u = u* - h div(q).

    w = m(u*)^(-1/alpha) on interior faces and scale = h alpha/(alpha+1) dx.
    A known energy e of u is reused, so that only the dissipation term is
    added; the infinite energy sentinel carries through the sum.  Stacks
    of B members take q (B, N-1), u (B, N), p and eps as (B, 1) columns,
    scale as (B,) and a ``PotentialStack``, and give (B,) values.
    """
    if e is None:
        e = energy(g, u, mp)
    return e.total + scale * (w * _psi_eps(q, p, eps)).sum(axis=-1), e


def _dissipation_scale(g, model, h):
    return h * (model.alpha / (model.alpha + 1.0)) * g.dx


def reduced_objective(g, j, u_star, model, step, eps):
    """Value of the step functional at a flux-typed face field j.

    The height is eliminated through u = u_star - h div(j); returns the
    infinite sentinel when the barrier is active and u has a
    non-positive cell.
    """
    m_faces, _ = _check_preconditions(g, u_star, model)
    u = u_star - step.h * divergence(g, j)
    w = m_faces[1:-1] ** (-1.0 / model.alpha)
    q = np.asarray(j, dtype=float)[1:-1]
    return float(_functional(g, model.modified, _dissipation_scale(g, model, step.h),
                             model.p, eps, w, q, u)[0])


def solveh_banded(ab, b):
    """Solve A x = b for the SPD band matrix A in upper band storage ab.

    One LAPACK dpbsv call (band Cholesky factorisation and solve), with
    the checks of scipy.linalg.solveh_banded: non-finite input raises
    ValueError, a matrix that is not positive definite raises LinAlgError
    (info > 0) and an illegal argument raises ValueError (info < 0).
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, x, info = dpbsv(ab, b)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x


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


def _el_defect(g, q, mu, m_int, alpha):
    """Face-weighted l^(alpha+1) norm of q - m Psi(-grad mu) on interior
    faces; (B,) norms of a stack of members with alpha a (B, 1) column."""
    r = q - m_int * psi(alpha, -(mu[..., 1:] - mu[..., :-1]) / g.dx)
    pprime = alpha + 1.0
    norm = g.dx * (np.abs(r) ** pprime).sum(axis=-1)
    if norm.ndim == 0:
        return float(norm ** (1.0 / pprime))
    # the root is a scalar power per member, as for one member: numpy's
    # array power can differ from it in the last bit
    return np.array([float(x ** (1.0 / pp)) for x, pp in zip(norm, pprime[:, 0])])


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
    its outer band set in the workspace) plus the dissipation diagonal."""
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


def _slope(grad_raw, delta):
    """The slope grad . delta of the Newton direction delta; a slope that is
    not negative raises StepNonconvergenceError."""
    dd = float(np.dot(grad_raw, delta))
    if not dd < 0.0:
        raise StepNonconvergenceError(f"not a descent direction (slope {dd:.3e})")
    return dd


def _granularity(f):
    """Objective changes below this cannot be verified by comparing values."""
    return _GRAIN * (1.0 + abs(f))


class _Iterate(NamedTuple):
    """An accepted iterate and the quantities evaluated at it."""

    q: np.ndarray            # interior face fluxes
    u: np.ndarray            # u_star - h div(q)
    energy: tuple            # EnergyBreakdown of u
    mu: np.ndarray           # chemical potential of u
    d2g: np.ndarray          # G_sigma''(u), the barrier's Hessian diagonal
    f: float                 # step functional at the current eps


class _Workspace(NamedTuple):
    """What stays fixed through one step."""

    lap_diag: np.ndarray     # diagonal of -Delta_h on cells
    ao: float                # dx * its off-diagonal
    ab: np.ndarray           # band storage of the Newton matrix, outer band set
    pad: np.ndarray          # face buffer with zero boundary entries


def _workspace(g, h):
    dx = g.dx
    lap_diag = np.full(g.N, 2.0 / dx**2)
    lap_diag[0] = lap_diag[-1] = 1.0 / dx**2
    ao = dx * (-1.0 / dx**2)
    ab = np.zeros((3, g.N - 1))
    ab[0, 2:] = h * h * (-ao / dx**2)  # the outer band h^2 D^T (-Delta_h) D
    return _Workspace(lap_diag, ao, ab, np.zeros(g.N + 1))


class StepState:
    """What a run carries from one step into the next.

    Built once per run for its grid g and step size h, from the energy
    breakdown of the initial height.  ``solve_step(..., state=state)``
    takes the workspace, the energy of u* and the predicted warm start
    from it, and on success records the step's flux and energy_after,
    so the state always describes the height the next step starts from.
    """

    def __init__(self, g, h, energy_star):
        self.grid, self.h = g, h
        self.ws = _workspace(g, h)
        self.energy_star = energy_star
        self.fluxes = deque(maxlen=3)  # accepted interior fluxes, oldest first

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


def _converged(grad_norm, tol, it, max_newton):
    """Converged on the gradient norm, after `it` iterations at this level
    (elementwise for arrays).  A first iterate that is merely under tol
    still gets one polishing iteration (unless the cap allows none):
    without it, modes whose driving gradient has decayed below tol would
    freeze instead of keeping their relative accuracy."""
    return (grad_norm <= tol) & ((it >= 1) | (grad_norm == 0.0) | (max_newton == 0))


def _newton(g, u_star, model, mp, w, ws, step, eps, tol, start):
    """Damped Newton at fixed smoothing eps from the accepted iterate `start`.

    Returns (iterate, iters).
    """
    dx, h, p = g.dx, step.h, model.p
    scale = _dissipation_scale(g, model, h)
    q, u, e, mu, d2g, f = start

    def failure(message):
        return StepNonconvergenceError(message, u_last=u, j_last=q, grad_norm=grad_norm, iters=it)

    for it in range(step.max_newton + 1):
        g_scaled = _reduced_gradient(dx, mu, w, q, p, eps)
        grad_norm = math.sqrt(dx * float((g_scaled * g_scaled).sum()))
        if _converged(grad_norm, tol, it, step.max_newton):
            return _Iterate(q, u, e, mu, d2g, f), it
        if it == step.max_newton:
            raise failure(f"Newton did not reach tol_grad={tol:g} in {step.max_newton} "
                          f"iterations (grad norm {grad_norm:.3e}, eps {eps:g})")

        grad_raw = h * dx * g_scaled
        d0, d1 = _newton_bands(dx, ws.lap_diag, ws.ao, h, w, d2g, q, p, eps)
        ab = ws.ab
        ab[2] = _shifted(d0) if p > 2.0 else d0
        ab[1, 1:] = d1
        try:
            delta = solveh_banded(ab, -grad_raw)
            dd = _slope(grad_raw, delta)
        except (np.linalg.LinAlgError, StepNonconvergenceError) as exc:
            raise failure(f"Newton direction failed: {exc} "
                          f"(grad norm {grad_norm:.3e}, eps {eps:g})") from exc

        t = 1.0
        if mp.has_barrier:
            # the height moves by -dh along delta; cap the cells it lowers
            dh = _flux_change(ws.pad, delta, h, dx)
            shrink = dh > 0.0
            if shrink.any():
                t = min(t, _TAU_BOUNDARY * float((u[shrink] / dh[shrink]).min()))

        # Predicted decreases below the objective's floating-point
        # granularity cannot be verified by comparing values; the
        # problem is convex with an SPD Hessian, so in that contraction
        # regime a feasible (boundary-capped) Newton step is taken
        # outright.
        granularity = _granularity(f)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            q_try = q + t * delta
            u_try = _height(g, u_star, h, q_try, ws.pad)
            f_try, e_try = _functional(g, mp, scale, p, eps, w, q_try, u_try)
            decrease_ok = f_try <= f + _ARMIJO_C * t * dd
            unmeasurable = -t * dd <= granularity and math.isfinite(f_try)
            if decrease_ok or unmeasurable:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if grad_norm <= tol:
                # stalled while polishing an already-converged iterate
                return _Iterate(q, u, e, mu, d2g, f), it
            raise failure(f"line search stalled at grad norm {grad_norm:.3e} > tol {tol:g}; "
                          "tol_grad is below the roundoff floor of this problem")
        q, u, e, f = q_try, u_try, e_try, f_try
        mu, d2g = _chemical_potential(g, u, mp, ws.pad)


def _level_tol(step, eps, last):
    return step.tol_grad if last else max(step.tol_grad, 0.1 * eps)


def _descend(g, u_star, model, mp, w, ws, step, ladder, start):
    """Newton down the eps ladder from the accepted iterate `start`.

    Returns (iterate, iters) at the last level.
    """
    total_iters = 0
    scale = _dissipation_scale(g, model, step.h)
    for eps in ladder:
        tol = _level_tol(step, eps, eps == ladder[-1])
        # a new level keeps the energy, mu and G_sigma'' and re-adds only
        # the dissipation
        f, _ = _functional(g, mp, scale, model.p, eps, w, start.q, start.u, start.energy)
        start, iters = _newton(g, u_star, model, mp, w, ws, step, eps, tol,
                               start._replace(f=f))
        total_iters += iters
    return start, total_iters


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


def _step_terms(g, u_star, q, u_next, mu, w, m_int, alpha, p):
    """(mass of u_star, mass of u_next, flux and strong dissipation
    integrals, EL defect) of a solved step; for a stack of members the
    fields are (B,) arrays, with alpha and p as (B, 1) columns."""
    dx = g.dx
    xi = psi_inverse(alpha, q / m_int)
    return (integrate(g, u_star), integrate(g, u_next),
            dx * (w * np.abs(q) ** p).sum(axis=-1),
            dx * (m_int * np.abs(xi) ** (alpha + 1.0)).sum(axis=-1),
            _el_defect(g, q, mu, m_int, alpha))


def _result(g, sol, e_before, iters, terms, state):
    """The StepResult of the solved iterate sol, after the mass and
    zero-flux comparison checks; the state records the step."""
    q, u_next = sol.q, sol.u
    mass_star, mass_next, diss_flux, diss_strong, el = map(float, terms)
    if abs(mass_next - mass_star) > 1e-12 * (1.0 + abs(mass_star)):
        raise StepCheckError("mass drifted beyond roundoff in a single step",
                             u_last=u_next, j_last=q)

    # the last ladder level is eps_min, so sol.f is the functional there
    if sol.f > e_before.total + 1e-10 * (1.0 + abs(e_before.total)):
        raise StepCheckError("step objective exceeds the zero-flux comparison value",
                             u_last=u_next, j_last=q)

    j = zero_flux(g)
    j[1:-1] = q
    state.record(q, sol.energy)
    return StepResult(
        u_next=u_next,
        j=j,
        newton_iters=iters,
        el_residual_norm=el,
        energy_before=e_before,
        energy_after=sol.energy,
        dissipation_flux_term=diss_flux,
        dissipation_strong_term=diss_strong,
    )


def solve_step(g, u_star, model, step, state=None):
    """Solve one minimising-movement step from u_star.

    Returns a StepResult whose (u_next, j) satisfy the discrete flow
    equation exactly.  The objective at the solution never exceeds the
    value of the feasible pair (u_star, 0), which is the one-step weak
    energy-dissipation inequality.

    With a run's ``StepState`` (for this g and step.h, describing u_star)
    its workspace and energy of u_star are used instead of being built
    again, Newton starts from its predicted flux, and the solved step is
    recorded in it.  Without one, a fresh state is built, which has no
    flux to predict from.  A warm start is solved at eps_min directly.  If
    it leaves the barrier domain, or Newton fails from it, the step is
    solved cold: from zero flux down the full eps ladder.
    ``newton_iters`` then also counts the iterations of the failed warm
    attempt.
    """
    u_star = np.asarray(u_star, dtype=float)
    mp = model.modified
    if state is not None and (state.grid != g or state.h != step.h):
        raise ValueError("the step state belongs to another grid or step size")
    m_faces, e_before = _check_preconditions(
        g, u_star, model, None if state is None else state.energy_star)
    if state is None:
        state = StepState(g, step.h, e_before)
    m_int = m_faces[1:-1]
    w = m_int ** (-1.0 / model.alpha)
    ws, q = state.ws, state.predicted_flux()
    args = (g, u_star, model, mp, w, ws, step)

    sol, total_iters = None, 0
    if q is not None:
        u = _height(g, u_star, step.h, q, ws.pad)
        e = energy(g, u, mp)
        if math.isfinite(e.total):  # else the warm flux leaves the barrier domain
            try:
                sol, total_iters = _descend(
                    *args, [step.eps_min],
                    _Iterate(q, u, e, *_chemical_potential(g, u, mp, ws.pad), None))
            except StepNonconvergenceError as exc:
                total_iters = exc.iters

    if sol is None:
        q = np.zeros(g.N - 1)
        u = _height(g, u_star, step.h, q, ws.pad)
        # from zero flux the height is u_star bit for bit, and so is its energy
        sol, iters = _descend(
            *args, _cold_ladder(model, step),
            _Iterate(q, u, e_before, *_chemical_potential(g, u, mp, ws.pad), None))
        total_iters += iters

    terms = _step_terms(g, u_star, sol.q, sol.u, sol.mu, w, m_int, model.alpha, model.p)
    return _result(g, sol, e_before, total_iters, terms, state)


class StepBatch:
    """Members that share a grid, stepped together as ``solve_step(...,
    state=...)`` steps each, with their Newton iterations evaluated
    together.

    Each member keeps its own ``StepState`` (so its predicted warm start),
    eps ladder and level, tolerance, iteration count, Armijo step,
    boundary cap and convergence flag.  A Newton pass evaluates the step
    kernels once on all B rows, with the per-member parameters as (B, 1)
    columns and the potential taken per kind on its rows
    (``PotentialStack``: the members of one potential kind must be
    consecutive), and solves the band of each member still iterating by
    its own dpbsv call.  A member that is not iterating in the pass (it
    has converged, or entered a new eps level in the pass) rides along
    with a zero direction and t = 1, so its trial point is its iterate;
    only the rows of the iterating members are updated.  The per-step
    checks of ``solve_step`` run per member.  A member whose warm start
    leaves the barrier domain starts cold instead.  Any failure, a Newton
    failure from a warm start included, raises ``solve_step``'s error type
    and leaves the batch unusable, and ``run_many`` then reruns the
    configs through ``run``.
    """

    def __init__(self, g, models, steps, energies):
        self.grid, self.models, self.steps = g, tuple(models), tuple(steps)
        self.states = [StepState(g, sp.h, e) for sp, e in zip(steps, energies)]
        self.ladders = [_cold_ladder(m, sp) for m, sp in zip(models, steps)]
        self.alpha = np.array([[m.alpha] for m in models])
        self.p = np.array([[m.p] for m in models])
        self.h = np.array([[sp.h] for sp in steps])
        self.scale = np.array([_dissipation_scale(g, m, sp.h) for m, sp in zip(models, steps)])
        self.shift = self.p[:, 0] > 2.0
        self.barrier = np.array([m.modified.has_barrier for m in models])
        self.max_newton = np.array([sp.max_newton for sp in steps])
        self.ab = np.stack([state.ws.ab for state in self.states])
        self.pad = np.zeros((len(models), g.N + 1))
        rows = {}
        for i, m in enumerate(models):
            rows.setdefault(m.mobility, []).append(i)
        self.mobilities = [(mob, np.array(r)) for mob, r in rows.items()]
        self.potential = PotentialStack([m.modified for m in models])

    def step(self, u_stars):
        """Solve one step of every member from its current height, one row
        of u_stars each.  Returns the members' StepResults."""
        g, B, N = self.grid, len(self.models), self.grid.N
        self.u_star = np.asarray(u_stars, dtype=float)
        # the preconditions of solve_step; the energy of u* is the state's
        m_int = np.empty((B, N - 1))
        for mob, rows in self.mobilities:
            m_int[rows] = mobility_face(mob, self.u_star[rows], g)[:, 1:-1]
        if (m_int <= 0.0).any():
            raise ValueError("mobility vanishes on an interior face; step is ill-posed")
        self.w = m_int ** (-1.0 / self.alpha)

        # the iterates: the predicted flux where it stays in the barrier
        # domain, else zero flux, whose height is u* and energy the state's.
        # The members step together, so all of them have a prediction or none.
        self.q = np.zeros((B, N - 1))
        if self.states[0].fluxes:
            for i, state in enumerate(self.states):
                self.q[i] = state.predicted_flux()
        self.u = _height(g, self.u_star, self.h, self.q, self.pad)
        e = energy(g, self.u, self.potential)
        warm = np.isfinite(e.total) & bool(self.states[0].fluxes)
        self.q[~warm], self.u[~warm] = 0.0, self.u_star[~warm]
        self.e = np.where(warm, np.stack(e),  # dirichlet, potential and total energy
                          np.array([state.energy_star for state in self.states]).T)
        self.mu, self.d2g = _chemical_potential(g, self.u, self.potential, self.pad)

        # where each member is in its solve
        self.ladder = [[sp.eps_min] if warm[i] else self.ladders[i]
                       for i, sp in enumerate(self.steps)]
        self.eps, self.tol, self.f = np.ones((B, 1)), np.zeros(B), np.zeros(B)
        self.level, self.it, self.iters = (np.zeros(B, dtype=int) for _ in range(3))
        self.active = np.ones(B, dtype=bool)
        self._enter_level(np.arange(B))
        while self.active.any():
            self._newton_pass()

        terms = _step_terms(g, self.u_star, self.q, self.u, self.mu, self.w, m_int,
                            self.alpha, self.p)
        results = []
        for i, state in enumerate(self.states):
            sol = _Iterate(self.q[i], self.u[i], EnergyBreakdown(*map(float, self.e[:, i])),
                           self.mu[i], self.d2g[i], self.f[i])
            results.append(_result(g, sol, state.energy_star, int(self.iters[i]),
                                   [t[i] for t in terms], state))
        return results

    def _enter_level(self, rows):
        """A new level keeps the energy, mu and G_sigma'' and re-adds only
        the dissipation."""
        for i in rows:
            ladder, level = self.ladder[i], self.level[i]
            self.eps[i] = ladder[level]
            self.tol[i] = _level_tol(self.steps[i], ladder[level], level == len(ladder) - 1)
        self.it[rows] = 0
        self.f[rows] = _functional(self.grid, None, self.scale[rows], self.p[rows],
                                   self.eps[rows], self.w[rows], self.q[rows], None,
                                   EnergyBreakdown(*self.e[:, rows]))[0]

    def _level_done(self, rows):
        self.iters[rows] += self.it[rows]
        more = [i for i in rows if self.level[i] < len(self.ladder[i]) - 1]
        self.active[rows] = False
        if more:
            more = np.array(more)
            self.active[more] = True
            self.level[more] += 1
            self._enter_level(more)

    def _newton_pass(self):
        """One damped Newton iteration of every member still iterating."""
        g, dx, h = self.grid, self.grid.dx, self.h
        g_scaled = _reduced_gradient(dx, self.mu, self.w, self.q, self.p, self.eps)
        grad_norm = np.sqrt(dx * (g_scaled * g_scaled).sum(axis=1))
        tol, cap, eps = self.tol, self.max_newton, self.eps
        converged = self.active & _converged(grad_norm, tol, self.it, cap)
        go = self.active & ~converged & (self.it < cap)
        capped = np.flatnonzero(self.active & ~converged & ~go)
        if capped.size:
            i = capped[0]
            raise StepNonconvergenceError(
                f"Newton did not reach tol_grad={tol[i]:g} in {cap[i]} "
                f"iterations (grad norm {grad_norm[i]:.3e}, eps {eps[i, 0]:g})")
        self._level_done(np.flatnonzero(converged))
        if not go.any():
            return

        grad_raw = h * dx * g_scaled
        ws = self.states[0].ws
        d0, d1 = _newton_bands(dx, ws.lap_diag, ws.ao, h, self.w, self.d2g, self.q, self.p, eps)
        d0[self.shift] = _shifted(d0[self.shift])
        # solveh_banded per iterating member, its finiteness checks made once for all
        rhs = -grad_raw
        if not (np.isfinite(d0).all() and np.isfinite(d1).all() and np.isfinite(rhs).all()):
            raise ValueError("array must not contain infs or NaNs")
        ab = self.ab
        ab[:, 2] = d0
        ab[:, 1, 1:] = d1
        delta, dd = np.zeros_like(grad_raw), np.zeros(len(go))
        for i in np.flatnonzero(go).tolist():
            _, x, info = dpbsv(ab[i], rhs[i])
            if info < 0:
                raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
            if info > 0:
                raise StepNonconvergenceError(
                    f"Newton direction failed: {info}th leading minor not positive definite")
            delta[i], dd[i] = x, _slope(grad_raw[i], x)

        # the height moves by -dh along delta; cap the cells it lowers
        dh = _flux_change(self.pad, delta, h, dx)
        shrink = dh > 0.0
        ratio = np.where(shrink, self.u, math.inf) / np.where(shrink, dh, 1.0)
        t = np.where(self.barrier, np.minimum(1.0, _TAU_BOUNDARY * ratio.min(axis=1)), 1.0)

        # the line search of _newton on the iterating members
        granularity = _granularity(self.f)
        pending = go.copy()
        for _ in range(_MAX_HALVINGS):
            q_try = self.q + t[:, None] * delta
            u_try = _height(g, self.u_star, h, q_try, self.pad)
            f_try, e_try = _functional(g, self.potential, self.scale, self.p, eps, self.w,
                                       q_try, u_try)
            decrease_ok = f_try <= self.f + _ARMIJO_C * t * dd
            unmeasurable = (-t * dd <= granularity) & np.isfinite(f_try)
            ok = decrease_ok | unmeasurable
            took = pending & ok
            self.q[took], self.u[took], self.f[took] = q_try[took], u_try[took], f_try[took]
            self.e[:, took] = np.stack(e_try)[:, took]
            pending &= ~ok
            if not pending.any():
                break
            # an accepted member rides along the remaining halvings at its new iterate
            delta[took] = 0.0
            t[pending] *= 0.5
        if pending.any():
            stalled = np.flatnonzero(pending & (grad_norm > tol))
            if stalled.size:
                i = stalled[0]
                raise StepNonconvergenceError(
                    f"line search stalled at grad norm {grad_norm[i]:.3e} > tol "
                    f"{tol[i]:g}; tol_grad is below the roundoff floor of this problem")
            # stalled while polishing an already-converged iterate
            self._level_done(np.flatnonzero(pending))
        moved = go & ~pending
        mu, d2g = _chemical_potential(g, self.u, self.potential, self.pad)
        self.mu[moved], self.d2g[moved] = mu[moved], d2g[moved]
        self.it[moved] += 1


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
    return _el_defect(g, res.j[1:-1], mu, m_faces[1:-1], model.alpha)
