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
  non-finite input, LinAlgError when the matrix is not positive definite
  (the step then solves by banded LU);
* a height is u* - h (diff(j) / dx) of the zero-padded flux, taken in a
  face buffer of the workspace (built once per step, or once per run
  with a ``StepState``), as are the boundary-cap direction and the
  Laplacian inside the chemical potential;
* G_sigma' and G_sigma'' come from one pass of
  ``ModifiedPotential.derivatives`` over the cells below 2*sigma.

A step can be warm-started from a flux j0.  The warm start skips the eps
ladder and solves at eps_min directly, where the functional is strictly
convex, so it reaches the cold start's minimiser up to the Newton
tolerance.  A warm flux that leaves the barrier domain, or a Newton
failure from it, falls back to the cold solve: zero flux down the full
ladder.

``run`` carries a ``StepState`` from step to step instead: the
workspace of its grid and h, the energy of the height the next step
starts from (the previous step's ``energy_after``), and the last three
accepted fluxes.  Its warm start is the flux extrapolated in time,
quadratic through the last three, j0 = 3 j_k - 3 j_{k-1} + j_{k-2}
(linear through two, the last flux alone after one step): the step
minimisers change smoothly in time, so the prediction starts Newton
closer to the next one than the previous flux does.
"""

import math
import numbers
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpbsv

from .grid import _check_face, divergence, integrate, zero_flux
from .models import INFINITE_ENERGY, energy, mobility_face, psi, psi_inverse

__all__ = [
    "StepParams",
    "StepResult",
    "StepState",
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
        if not isinstance(self.max_newton, numbers.Integral) or self.max_newton < 0:
            raise ValueError(f"max_newton must be an integer >= 0, got {self.max_newton!r}")


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
    """Newton iteration cap exceeded; carries the last iterate.

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


def _functional(g, model, mp, w, h, eps, q, u, e=None):
    """(step functional, energy of u) at interior fluxes q and u = u* - h div(q).

    w = m(u*)^(-1/alpha) on interior faces.  A known energy e of u is
    reused, so that only the dissipation term is added.
    """
    if e is None:
        e = energy(g, u, mp)
    if not math.isfinite(e.total):
        return INFINITE_ENERGY, e
    coeff = model.alpha / (model.alpha + 1.0)
    return e.total + h * coeff * g.dx * float((w * _psi_eps(q, model.p, eps)).sum()), e


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
    return _functional(g, model, model.modified, w, step.h, eps, q, u)[0]


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

    pad is a face buffer with zero boundary entries; the gradient of u is
    written into its interior, so the Laplacian is its difference.
    """
    grad = pad[1:-1]
    np.subtract(u[1:], u[:-1], out=grad)
    grad /= g.dx
    lap = pad[1:] - pad[:-1]
    lap /= g.dx
    dg, d2g = mp.derivatives(u)
    return dg - lap, d2g


def _el_defect(g, q, mu, m_int, alpha):
    """Face-weighted l^(alpha+1) norm of q - m Psi(-grad mu) on interior faces."""
    r = q - m_int * psi(alpha, -(mu[1:] - mu[:-1]) / g.dx)
    pprime = alpha + 1.0
    return float((g.dx * (np.abs(r) ** pprime).sum()) ** (1.0 / pprime))


def _flux_change(pad, q, h, dx):
    """h div(j) for the flux-typed j with interior values q, through the
    zero-ended face buffer pad."""
    pad[1:-1] = q
    d = pad[1:] - pad[:-1]
    d /= dx
    d *= h
    return d


def _height(g, u_star, h, q, pad):
    return u_star - _flux_change(pad, q, h, g.dx)


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
    d2: float                # outer band h^2 D^T (-Delta_h) D of the Newton matrix
    ab: np.ndarray           # band storage of the Newton matrix, outer band set
    pad: np.ndarray          # face buffer with zero boundary entries


def _workspace(g, h):
    dx = g.dx
    lap_diag = np.full(g.N, 2.0 / dx**2)
    lap_diag[0] = lap_diag[-1] = 1.0 / dx**2
    ao = dx * (-1.0 / dx**2)
    d2 = h * h * (-ao / dx**2)
    ab = np.zeros((3, g.N - 1))
    ab[0, 2:] = d2
    return _Workspace(lap_diag, ao, d2, ab, np.zeros(g.N + 1))


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


def _newton(g, u_star, model, mp, w, ws, step, eps, tol, start):
    """Damped Newton at fixed smoothing eps from the accepted iterate `start`.

    Returns (iterate, iters).
    """
    dx, h, p = g.dx, step.h, model.p
    q, u, e, mu, d2g, f = start

    for it in range(step.max_newton + 1):
        g_scaled = (mu[1:] - mu[:-1]) / dx + w * _psi_tilde(q, p, eps)
        grad_norm = math.sqrt(dx * float((g_scaled * g_scaled).sum()))
        # Converged on the gradient norm.  A first iterate that is merely
        # under tol still gets one polishing iteration (unless the cap
        # allows none): without it, modes whose driving gradient has
        # decayed below tol would freeze instead of keeping their
        # relative accuracy.
        if grad_norm <= tol and (it >= 1 or grad_norm == 0.0 or step.max_newton == 0):
            return _Iterate(q, u, e, mu, d2g, f), it
        if it == step.max_newton:
            raise StepNonconvergenceError(
                f"Newton did not reach tol_grad={tol:g} in {step.max_newton} iterations "
                f"(grad norm {grad_norm:.3e}, eps {eps:g})",
                u_last=u,
                j_last=q,
                grad_norm=grad_norm,
                iters=it,
            )

        grad_raw = h * dx * g_scaled

        # Hessian bands in the interior-face index: energy block
        # h^2 D^T H_E D (pentadiagonal) plus the dissipation diagonal.
        ad = dx * (ws.lap_diag + d2g)
        d0 = ad[:-1] - 2.0 * ws.ao
        d0 += ad[1:]
        d0 /= dx**2
        d1 = ws.ao - ad[1:-1]
        d1 += ws.ao
        d1 /= dx**2
        d0 = h * h * d0 + h * dx * w * _psi_tilde_prime(q, p, eps)
        d1 *= h * h
        if p > 2.0:
            d0 = d0 + 1e-12 * (1.0 + np.abs(d0))

        ab = ws.ab
        ab[2] = d0
        ab[1, 1:] = d1
        try:
            delta = solveh_banded(ab, -grad_raw)
        except np.linalg.LinAlgError:
            full = np.zeros((5, g.N - 1))
            full[0, 2:] = ws.d2
            full[1, 1:] = d1
            full[2] = d0
            full[3, :-1] = d1
            full[4, :-2] = ws.d2
            delta = solve_banded((2, 2), full, -grad_raw)

        dd = float(np.dot(grad_raw, delta))
        if dd >= 0.0:
            # safeguard: fall back to steepest descent
            delta = -grad_raw
            dd = -float(np.dot(grad_raw, grad_raw))

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
        granularity = 64.0 * np.finfo(float).eps * (1.0 + abs(f))
        accepted = False
        for _ in range(60):
            q_try = q + t * delta
            u_try = _height(g, u_star, h, q_try, ws.pad)
            f_try, e_try = _functional(g, model, mp, w, h, eps, q_try, u_try)
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
            raise StepNonconvergenceError(
                f"line search stalled at grad norm {grad_norm:.3e} > tol {tol:g}; "
                "tol_grad is below the roundoff floor of this problem",
                u_last=u,
                j_last=q,
                grad_norm=grad_norm,
                iters=it,
            )
        q, u, e, f = q_try, u_try, e_try, f_try
        mu, d2g = _chemical_potential(g, u, mp, ws.pad)


def _descend(g, u_star, model, mp, w, ws, step, ladder, start):
    """Newton down the eps ladder from the accepted iterate `start`.

    Returns (iterate, iters) at the last level.
    """
    total_iters = 0
    for eps in ladder:
        tol = step.tol_grad if eps == ladder[-1] else max(step.tol_grad, 0.1 * eps)
        # a new level keeps the energy, mu and G_sigma'' and re-adds only
        # the dissipation
        f, _ = _functional(g, model, mp, w, step.h, eps, start.q, start.u, start.energy)
        start, iters = _newton(g, u_star, model, mp, w, ws, step, eps, tol,
                               start._replace(f=f))
        total_iters += iters
    return start, total_iters


def solve_step(g, u_star, model, step, j0=None, state=None):
    """Solve one minimising-movement step from u_star.

    Returns a StepResult whose (u_next, j) satisfy the discrete flow
    equation exactly.  The objective at the solution never exceeds the
    value of the feasible pair (u_star, 0), which is the one-step weak
    energy-dissipation inequality.

    A warm start j0 (a face field) is solved at eps_min directly.  If it
    leaves the barrier domain, or Newton fails from it, the step is solved
    cold: from zero flux down the full eps ladder, exactly as without j0.
    ``newton_iters`` then also counts the iterations of the failed warm
    attempt.

    With a run's ``StepState`` (for this g and step.h, describing u_star)
    the warm start is its predicted flux, and its workspace and energy of
    u_star are used instead of being built again; the solved step is
    recorded in it.  Passing both j0 and state is an error.
    """
    if state is not None:
        if j0 is not None:
            raise ValueError("pass a warm start j0 or a run state, not both")
        if state.grid != g or state.h != step.h:
            raise ValueError("the step state belongs to another grid or step size")
    u_star = np.asarray(u_star, dtype=float)
    mp = model.modified
    m_faces, e_before = _check_preconditions(
        g, u_star, model, None if state is None else state.energy_star)
    m_int = m_faces[1:-1]
    w = m_int ** (-1.0 / model.alpha)

    if state is None:
        ws = _workspace(g, step.h)
        q = None if j0 is None else _check_face(g, j0)[1:-1].copy()
    else:
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
        if model.alpha > 1.0 and step.eps0 > step.eps_min:
            ladder = []
            eps = step.eps0
            while eps > step.eps_min * (1.0 + 1e-12):
                ladder.append(eps)
                eps *= _RHO
            ladder.append(step.eps_min)
        else:
            ladder = [step.eps_min]
        q = np.zeros(g.N - 1)
        u = _height(g, u_star, step.h, q, ws.pad)
        # from zero flux the height is u_star bit for bit, and so is its energy
        sol, iters = _descend(
            *args, ladder, _Iterate(q, u, e_before, *_chemical_potential(g, u, mp, ws.pad), None))
        total_iters += iters

    q, u_next = sol.q, sol.u
    j = zero_flux(g)
    j[1:-1] = q

    mass_star = integrate(g, u_star)
    mass_next = integrate(g, u_next)
    if abs(mass_next - mass_star) > 1e-12 * (1.0 + abs(mass_star)):
        raise StepCheckError("mass drifted beyond roundoff in a single step",
                             u_last=u_next, j_last=q)

    # the last ladder level is eps_min, so sol.f is the functional there
    if sol.f > e_before.total + 1e-10 * (1.0 + abs(e_before.total)):
        raise StepCheckError("step objective exceeds the zero-flux comparison value",
                             u_last=u_next, j_last=q)

    p = model.p
    diss_flux = g.dx * float((w * np.abs(q) ** p).sum())
    xi = psi_inverse(model.alpha, q / m_int)
    diss_strong = g.dx * float((m_int * np.abs(xi) ** (model.alpha + 1.0)).sum())

    if state is not None:
        state.record(q, sol.energy)
    return StepResult(
        u_next=u_next,
        j=j,
        newton_iters=total_iters,
        el_residual_norm=_el_defect(g, q, sol.mu, m_int, model.alpha),
        energy_before=e_before,
        energy_after=sol.energy,
        dissipation_flux_term=diss_flux,
        dissipation_strong_term=diss_strong,
    )


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
