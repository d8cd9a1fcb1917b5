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

Each accepted iterate's energy and chemical potential are evaluated
once and carried into ``StepResult``; ``reduced_objective`` and
``el_residual`` are the standalone reference evaluations.

A step can be warm-started from a flux j0 (``run`` passes the previous
step's).  The warm start skips the eps ladder and solves at eps_min
directly, where the functional is strictly convex, so it reaches the
cold start's minimiser up to the Newton tolerance.  A warm flux that
leaves the barrier domain, or a Newton failure from it, falls back to
the cold solve: zero flux down the full ladder.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from .grid import _check_face, divergence, integrate, laplacian_neumann, zero_flux
from .models import INFINITE_ENERGY, energy, mobility_face, psi, psi_inverse

__all__ = [
    "StepParams",
    "StepResult",
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
        if self.h <= 0:
            raise ValueError("h must be positive")
        if not 0.0 < self.eps_min <= self.eps0:
            raise ValueError("need 0 < eps_min <= eps0")
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")


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


def _check_preconditions(g, u_star, model, mp):
    m_faces = mobility_face(model.mobility, u_star, g)
    if np.any(m_faces[1:-1] <= 0.0):
        raise ValueError("mobility vanishes on an interior face; step is ill-posed")
    e_before = energy(g, u_star, mp)
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
    return e.total + h * coeff * g.dx * float(np.sum(w * _psi_eps(q, model.p, eps))), e


def reduced_objective(g, j, u_star, model, step, eps):
    """Value of the step functional at a flux-typed face field j.

    The height is eliminated through u = u_star - h div(j); returns the
    infinite sentinel when the barrier is active and u has a
    non-positive cell.
    """
    mp = model.modified()
    m_faces, _ = _check_preconditions(g, u_star, model, mp)
    u = u_star - step.h * divergence(g, j)
    w = m_faces[1:-1] ** (-1.0 / model.alpha)
    q = np.asarray(j, dtype=float)[1:-1]
    return _functional(g, model, mp, w, step.h, eps, q, u)[0]


def _chemical_potential(g, u, mp):
    return -laplacian_neumann(g, u) + mp.dg_sigma(u)


def _el_defect(g, q, mu, m_int, alpha):
    """Face-weighted l^(alpha+1) norm of q - m Psi(-grad mu) on interior faces."""
    r = q - m_int * psi(alpha, -np.diff(mu) / g.dx)
    pprime = alpha + 1.0
    return float((g.dx * np.sum(np.abs(r) ** pprime)) ** (1.0 / pprime))


def _height(g, u_star, h, q):
    j = zero_flux(g)
    j[1:-1] = q
    return u_star - h * divergence(g, j)


class _Iterate(NamedTuple):
    """An accepted iterate and the quantities evaluated at it."""

    q: np.ndarray            # interior face fluxes
    u: np.ndarray            # u_star - h div(q)
    energy: tuple            # EnergyBreakdown of u
    mu: np.ndarray           # chemical potential of u
    f: float                 # step functional at the current eps


def _newton(g, u_star, model, mp, w, bands, step, eps, tol, state):
    """Damped Newton at fixed smoothing eps from the accepted iterate `state`.

    Returns (iterate, iters).
    """
    N, dx, h, p = g.N, g.dx, step.h, model.p
    lap_diag, ao, d2 = bands
    q, u, e, mu, f = state

    for it in range(step.max_newton + 1):
        g_scaled = np.diff(mu) / dx + w * _psi_tilde(q, p, eps)
        grad_norm = math.sqrt(dx * float(np.sum(g_scaled * g_scaled)))
        # Converged on the gradient norm.  A first iterate that is merely
        # under tol still gets one polishing iteration (unless the cap
        # allows none): without it, modes whose driving gradient has
        # decayed below tol would freeze instead of keeping their
        # relative accuracy.
        if grad_norm <= tol and (it >= 1 or grad_norm == 0.0 or step.max_newton == 0):
            return _Iterate(q, u, e, mu, f), it
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
        ad = dx * (lap_diag + mp.d2g_sigma(u))
        d0 = (ad[:-1] - 2.0 * ao + ad[1:]) / dx**2
        d1 = (ao[:-1] - ad[1:-1] + ao[1:]) / dx**2
        d0 = h * h * d0 + h * dx * w * _psi_tilde_prime(q, p, eps)
        d1 = h * h * d1
        if p > 2.0:
            d0 = d0 + 1e-12 * (1.0 + np.abs(d0))

        M = N - 1
        ab = np.zeros((3, M))
        ab[2] = d0
        ab[1, 1:] = d1
        ab[0, 2:] = d2
        try:
            delta = solveh_banded(ab, -grad_raw, lower=False)
        except np.linalg.LinAlgError:
            full = np.zeros((5, M))
            full[0, 2:] = d2
            full[1, 1:] = d1
            full[2] = d0
            full[3, :-1] = d1
            full[4, :-2] = d2
            delta = solve_banded((2, 2), full, -grad_raw)

        dd = float(np.dot(grad_raw, delta))
        if dd >= 0.0:
            # safeguard: fall back to steepest descent
            delta = -grad_raw
            dd = -float(np.dot(grad_raw, grad_raw))

        t = 1.0
        if mp.has_barrier:
            jd = zero_flux(g)
            jd[1:-1] = delta
            du_dir = -h * divergence(g, jd)
            shrink = du_dir < 0.0
            if np.any(shrink):
                t = min(t, _TAU_BOUNDARY * float(np.min(u[shrink] / -du_dir[shrink])))

        # Predicted decreases below the objective's floating-point
        # granularity cannot be verified by comparing values; the
        # problem is convex with an SPD Hessian, so in that contraction
        # regime a feasible (boundary-capped) Newton step is taken
        # outright.
        granularity = 64.0 * np.finfo(float).eps * (1.0 + abs(f))
        accepted = False
        for _ in range(60):
            q_try = q + t * delta
            u_try = _height(g, u_star, h, q_try)
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
                return _Iterate(q, u, e, mu, f), it
            raise StepNonconvergenceError(
                f"line search stalled at grad norm {grad_norm:.3e} > tol {tol:g}; "
                "tol_grad is below the roundoff floor of this problem",
                u_last=u,
                j_last=q,
                grad_norm=grad_norm,
                iters=it,
            )
        q, u, e, f = q_try, u_try, e_try, f_try
        mu = _chemical_potential(g, u, mp)


def _descend(g, u_star, model, mp, w, bands, step, ladder, state):
    """Newton down the eps ladder from the accepted iterate `state`.

    Returns (iterate, iters) at the last level.
    """
    total_iters = 0
    for eps in ladder:
        tol = step.tol_grad if eps == ladder[-1] else max(step.tol_grad, 0.1 * eps)
        # a new level keeps the energy and mu and re-adds only the dissipation
        f, _ = _functional(g, model, mp, w, step.h, eps, state.q, state.u, state.energy)
        state, iters = _newton(g, u_star, model, mp, w, bands, step, eps, tol,
                               state._replace(f=f))
        total_iters += iters
    return state, total_iters


def solve_step(g, u_star, model, step, j0=None):
    """Solve one minimising-movement step from u_star.

    Returns a StepResult whose (u_next, j) satisfy the discrete flow
    equation exactly.  The objective at the solution never exceeds the
    value of the feasible pair (u_star, 0), which is the one-step weak
    energy-dissipation inequality.

    A warm start j0 (a face field) is solved at eps_min directly.  If it
    leaves the barrier domain, or Newton fails from it, the step is solved
    cold: from zero flux down the full eps ladder, exactly as without j0.  ``newton_iters`` then also counts the
    iterations of the failed warm attempt.
    """
    u_star = np.asarray(u_star, dtype=float)
    mp = model.modified()
    m_faces, e_before = _check_preconditions(g, u_star, model, mp)
    m_int = m_faces[1:-1]
    w = m_int ** (-1.0 / model.alpha)

    # -Delta_h bands on cells (diagonal, dx * superdiagonal) and the outer
    # band h^2 D^T (-Delta_h) D of the Newton matrix: fixed for the step
    dx = g.dx
    lap_diag = np.full(g.N, 2.0) / dx**2
    lap_diag[0] = lap_diag[-1] = 1.0 / dx**2
    ao = dx * (np.full(g.N - 1, -1.0) / dx**2)
    bands = (lap_diag, ao, step.h * step.h * (-ao[1:-1] / dx**2))
    args = (g, u_star, model, mp, w, bands, step)

    state, total_iters = None, 0
    if j0 is not None:
        q = _check_face(g, j0)[1:-1].copy()
        u = _height(g, u_star, step.h, q)
        e = energy(g, u, mp)
        if math.isfinite(e.total):  # else the warm flux leaves the barrier domain
            try:
                state, total_iters = _descend(
                    *args, [step.eps_min], _Iterate(q, u, e, _chemical_potential(g, u, mp), None))
            except StepNonconvergenceError as exc:
                total_iters = exc.iters

    if state is None:
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
        u = _height(g, u_star, step.h, q)
        # from zero flux the height is u_star bit for bit, and so is its energy
        state, iters = _descend(
            *args, ladder, _Iterate(q, u, e_before, _chemical_potential(g, u, mp), None))
        total_iters += iters

    q, u_next = state.q, state.u
    j = zero_flux(g)
    j[1:-1] = q

    mass_star = integrate(g, u_star)
    mass_next = integrate(g, u_next)
    if abs(mass_next - mass_star) > 1e-12 * (1.0 + abs(mass_star)):
        raise StepCheckError("mass drifted beyond roundoff in a single step",
                             u_last=u_next, j_last=q)

    # the last ladder level is eps_min, so state.f is the functional there
    if state.f > e_before.total + 1e-10 * (1.0 + abs(e_before.total)):
        raise StepCheckError("step objective exceeds the zero-flux comparison value",
                             u_last=u_next, j_last=q)

    p = model.p
    diss_flux = g.dx * float(np.sum(w * np.abs(q) ** p))
    xi = psi_inverse(model.alpha, q / m_int)
    diss_strong = g.dx * float(np.sum(m_int * np.abs(xi) ** (model.alpha + 1.0)))

    return StepResult(
        u_next=u_next,
        j=j,
        newton_iters=total_iters,
        el_residual_norm=_el_defect(g, q, state.mu, m_int, model.alpha),
        energy_before=e_before,
        energy_after=state.energy,
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
    mu = _chemical_potential(g, res.u_next, model.modified())
    m_faces = mobility_face(model.mobility, u_star, g)
    return _el_defect(g, res.j[1:-1], mu, m_faces[1:-1], model.alpha)
