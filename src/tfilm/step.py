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

Newton's method needs one regularisation, for shear-thinning (alpha > 1,
p < 2): |s|^p has unbounded curvature at s = 0, so the power is smoothed
to psi_eps(s) = (s^2+eps^2)^(p/2) - eps^p and eps is driven down a
geometric ladder (continuation).  Shear-thickening (alpha < 1, p > 2)
needs none: its curvature vanishes at s = 0, but the energy block of the
Newton matrix is SPD on its own (below).

The barrier in G_sigma keeps iterates positive: a line-search trial
outside the domain has infinite energy, so the line search backtracks
from it.

Each Newton iterate (the start and every line-search trial) is evaluated
once, by ``models.evaluate``, the one evaluation of E_sigma: its energy,
chemical potential mu and barrier curvature G_sigma'' come from one
pass, which takes the gradient of the height once and finds the cells
below 2*sigma once.  An accepted trial carries them: the curvature into
the next Hessian, the energy into ``StepResult``, and the last pass's
grad mu into the Euler-Lagrange defect.  When the halvings of a line
search run out after some members accepted a trial, the carried heights
are evaluated once more.  Where G_sigma'' is constant on each row (a
zero or quadratic base a s^2/2, no cell below 2*sigma, and every cell
positive unless a = 0) it is a itself, a scalar or a (B, 1) column: the
scalar 0.0 in the paper's G = 0 setting.  No array of copies is built.
``reduced_objective`` and ``el_residual`` recompute from scratch through
the same evaluation.

A Newton iteration keeps its numpy calls few and the arithmetic order of
the plain formulas, so its results are bit for bit theirs:

* the directions of all iterating members are one LAPACK dpbsv call
  (band Cholesky) through ``solveh_banded`` on the block-diagonal band
  of their bands, which raises like scipy's: ValueError for non-finite
  input, LinAlgError when the matrix is not positive definite; the first
  solve loads scipy's LAPACK extension module alone, never scipy.linalg;
* a height is u* - h (diff(j) / dx) of the zero-padded flux, taken in a
  face buffer built with the step's fixed data (once per run, or per
  step without a ``StepState``), as is the Laplacian inside the
  chemical potential;
* G_sigma, G_sigma' and G_sigma'' come from one pass of
  ``ModifiedPotential.with_derivatives``, the one copy of the glue and
  the base's Taylor data, over the cells below 2*sigma;
* the energy block h^2 D^T (-Delta_h + G_sigma'') D of the Newton matrix
  is built once per run at the curvature a where no member has a
  singular term, and a pass whose G_sigma'' is a scalar or a column
  takes it; a pass whose G_sigma'' has rows (the barrier zone, a
  singular G) builds its block from them with the same ``_energy_bands``;
  the dissipation diagonal is added into the band storage;
* the functional, the reduced gradient and the Newton bands share q^2
  and q^2 + eps^2, taken at a level's entry and at each trial and
  carried with the accepted iterate;
* the right-hand side -h dx grad is negated once, and each slope's sign
  is flipped on its Python float (negation is exact).

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
minimiser up to the Newton tolerance.  A member that fails from its
warm start is solved cold: zero flux down the full ladder, and its
``newton_iters`` count the failed attempt.  A predicted flux that leaves
the barrier domain is such a failure, with 0 iterations, so there is one
warm-to-cold rule.

There is one step and one Newton loop, for B members on one grid:
``solve_step`` runs them with B = 1, and a ``StepBatch`` (``run_many``
marches every group of configs of one grid and one step count with it)
with its members, in the order given.  A pass evaluates the kernels
once on all (B, N) rows: the reduced gradient, the Newton bands and,
per line-search trial, the one evaluation and the functional.  The
members' bands lie side by side in one (3, B, N-1) band storage, so the
iterating members' bands are one block-diagonal band, solved by one
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
failed direction) raises ``StepNonconvergenceError``, and a failed check
of the solved step ``StepCheckError``; either names the failing member
as ``member`` and ends the batch.
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

from .grid import divergence, integrate
from .models import (
    EnergyBreakdown,
    ModifiedPotential,
    energy,
    mobility_face,
    psi,
    scalar_or_column,
)
from .models import evaluate as _evaluate

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


# Fixed ingredients of the scheme: the ratio of the eps ladder and the
# Armijo sufficient-decrease constant.
_RHO = 0.1
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 60
_GRAIN = 64.0 * np.finfo(float).eps  # relative granularity of the objective

_module = sys.modules[__name__]


def _flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``, loaded
    alone from its file, or the loaded one if it is in ``sys.modules``.

    ``scipy.linalg.lapack.dpbsv`` is this module's ``dpbsv``, so a solve
    is the same call either way; importing ``scipy.linalg`` would also
    initialise the rest of that package, which tfilm does not use.  The
    file is looked up in the directory of the imported scipy, or else of
    the scipy ``importlib.util.find_spec`` finds, so a solve does not run
    scipy's ``__init__``, which imports much of ``scipy._lib``.  The
    loader enters the module in ``sys.modules``, so a later
    ``import scipy.linalg`` takes this one.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        root = scipy.__path__[0]
    else:
        spec = importlib.util.find_spec("scipy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        root = spec.submodule_search_locations[0]
    machinery = importlib.machinery
    linalg = os.path.join(root, "linalg")
    spec = machinery.FileFinder(
        linalg, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        import scipy

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
    mass: float              # of u_next, as the mass check took it
    min_u: float
    max_u: float


class StepNonconvergenceError(RuntimeError):
    """Newton failed (iteration cap, stalled line search, or a direction
    that is not a descent direction); carries the last iterate.

    ``iters`` is the number of Newton iterations spent before giving up,
    and ``member`` the failing member's index in a batch (0 for one).
    """

    def __init__(self, message, u_last=None, j_last=None, grad_norm=None, iters=0, member=0):
        super().__init__(message)
        self.u_last = u_last
        self.j_last = j_last
        self.grad_norm = grad_norm
        self.iters = iters
        self.member = member


class StepCheckError(RuntimeError):
    """A solved step broke mass conservation or the zero-flux comparison;
    carries the offending iterate and, as ``member``, the failing member's
    index in a batch (0 for one)."""

    def __init__(self, message, u_last=None, j_last=None, member=0):
        super().__init__(message)
        self.u_last = u_last
        self.j_last = j_last
        self.member = member


# --- the step functional ----------------------------------------------------

def _functional(scale, p, eps_p, w, r, e):
    """Step functional values of B members from the energy breakdown e of
    their heights: e.total plus scale * sum w psi_eps(q), with psi_eps(q) =
    (q^2 + eps^2)^(p/2) - eps^p the smoothed p-power (|q|^p at eps = 0).

    w = m(u*)^(-1/alpha) on interior faces, scale = h alpha/(alpha+1) dx
    (a list), r = q^2 + eps^2 and eps_p = eps^p; p, eps_p scalars or (B, 1)
    columns.  The sums are taken on Python floats; the infinite energy
    sentinel carries through them.
    """
    dissipation = np.add.reduce(w * (r ** (0.5 * p) - eps_p), axis=-1).tolist()
    return [t + s * d for t, s, d in zip(e.total, scale, dissipation)]


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
    return _functional([_dissipation_scale(g, model, step.h)], model.p, eps**model.p, w,
                       q * q + eps * eps, energy(g, u[None], model.modified))[0]


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


def _el_defect(g, q, dmu, m_int, alpha, alphas):
    """Face-weighted l^(alpha+1) norms of q - m Psi(-grad mu) on the
    interior faces of B members: rows of q, of grad mu (dmu) and of m_int,
    alpha a scalar or a (B, 1) column, and alphas each member's, for the
    roots taken on Python floats."""
    r = q - m_int * psi(alpha, -dmu)
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


def _reduced_gradient(dx, mu, w, q, r, p):
    """(the reduced gradient divided by h dx, grad mu): grad mu + w
    alpha/(alpha+1) psi_eps'(q) = grad mu + w q r^((p-2)/2), r = q^2 + eps^2."""
    dmu = mu[..., 1:] - mu[..., :-1]
    dmu /= dx
    return dmu + w * (q * r ** (0.5 * (p - 2.0))), dmu


def _energy_bands(dx, lap_diag, ao, h, d2g):
    """(diagonal, first off-diagonal) of the energy block h^2 D^T H_E D of
    the Newton matrix in the interior-face index, H_E = -Delta_h +
    G_sigma'' (pentadiagonal, its outer band set once per run), from the
    rows of G_sigma'' or its value constant on each row (a scalar or a
    column)."""
    ad = dx * (lap_diag + d2g)
    d0 = ad[..., :-1] - 2.0 * ao
    d0 += ad[..., 1:]
    d0 /= dx**2
    d1 = ao - ad[..., 1:-1]
    d1 += ao
    d1 /= dx**2
    d1 *= h * h
    return h * h * d0, d1


def _newton_bands(ab, energy_bands, dx, h, w, s2, r, eps2, p):
    """Write the Newton matrix into the band storage ab (3, B, N-1): the
    energy block plus the dissipation diagonal h dx w alpha/(alpha+1)
    psi_eps''(q), from s2 = q^2, r = q^2 + eps^2 and eps2 = eps^2."""
    d0, d1 = energy_bands
    np.add(d0, h * dx * w * (r ** (0.5 * (p - 4.0)) * ((p - 1.0) * s2 + eps2)), out=ab[2])
    ab[1, :, 1:] = d1


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
    Besides them: the members of each mobility, the cold eps ladders, the
    -Delta_h bands, the Newton band storage (3, B, N-1), in which the
    members' bands lie side by side as one block-diagonal band, and the
    zero-ended face buffer (B, N+1).  Where no member has a singular term
    (A = 0), a G_sigma'' that ``evaluate`` gives as a scalar or a column is
    the members' a, so the energy block at that curvature
    (``energy_bands``) is built here once; it is None otherwise.
    """

    def __init__(self, g, models, steps):
        self.grid, self.models, self.steps = g, tuple(models), tuple(steps)
        self.alpha_each = [m.alpha for m in models]
        self.alpha = scalar_or_column(self.alpha_each)
        self.p_each = [m.p for m in models]
        self.p = scalar_or_column(self.p_each)
        self.h = scalar_or_column([sp.h for sp in steps])
        self.scale = [_dissipation_scale(g, m, sp.h) for m, sp in zip(models, steps)]
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
        base = self.potential.base
        singular = isinstance(base.A, np.ndarray) or base.A != 0.0
        self.energy_bands = None if singular else _energy_bands(dx, self.lap_diag, self.ao,
                                                                self.h, base.a)

    def checked(self, u_star, e_before):
        """The interior face mobilities of the rows of u_star, after the
        preconditions of a step from them: positive mobility on every
        interior face and a finite energy e_before of each row."""
        g = self.grid
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

        A member that fails from its warm start (a start outside the
        barrier domain, with 0 iterations, or a failed Newton) is solved
        cold: the step is solved again with that member started cold and
        the others as before, which repeats their arithmetic, and its
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
        one, else cold, from zero flux down its eps ladder.  The first
        heights are evaluated once, a cold member's being its u*."""
        g = self.grid
        q = np.zeros((len(states), g.N - 1))
        warm = []
        for i, s in enumerate(states):
            x = None if i in cold else s.predicted_flux()
            warm.append(x is not None)
            if x is not None:
                q[i] = x
        # from zero flux a cold member's row is its row of u_star bit for bit
        u = _height(g, u_star, self.h, q, self.pad)
        e, mu, d2g = _evaluate(g, u, self.potential, self.pad)
        ladders = [[sp.eps_min] if ok else lad
                   for ok, sp, lad in zip(warm, self.steps, self.ladders)]
        return _Start(u_star, m_int, m_int ** (-1.0 / self.alpha), e_before, q, u, e, mu, d2g,
                      ladders, warm)

    def results(self, states, start, sol):
        """The members' StepResults of the solved step, after the mass and
        zero-flux comparison checks; each state records its member's step.
        The dissipation integrals dx sum w |q|^p, the EL defects, the masses
        and the height ranges are taken once on all rows."""
        g, u = self.grid, sol.u
        flux = [g.dx * s for s in (start.w * np.abs(sol.q) ** self.p).sum(axis=-1).tolist()]
        el = _el_defect(g, sol.q, sol.dmu, start.m_int, self.alpha, self.alpha_each)
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
                                     u_last=u[i], j_last=q, member=i)
            # the last ladder level is eps_min, so f is the functional there
            if sol.f[i] > e_before.total + 1e-10 * (1.0 + abs(e_before.total)):
                raise StepCheckError("step objective exceeds the zero-flux comparison value",
                                     u_last=u[i], j_last=q, member=i)
            e_after = EnergyBreakdown(*e_after)
            state.record(q, e_after)
            out.append(StepResult(u_next=u[i], j=js[i], newton_iters=sol.iters[i],
                                  el_residual_norm=el[i], energy_before=e_before,
                                  energy_after=e_after, dissipation_flux_term=flux[i],
                                  mass=mass[i], min_u=lows[i], max_u=highs[i]))
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
    mu: np.ndarray           # chemical potential of u
    d2g: object              # G_sigma''(u): rows, or a scalar or column where
                             # it is constant on each row (``evaluate``)
    ladders: list            # each member's eps levels
    warm: list               # whether each member starts from its prediction


class _Iterate(NamedTuple):
    """The members' accepted iterates and the quantities evaluated at them."""

    q: np.ndarray            # (B, N-1) interior face fluxes
    u: np.ndarray            # u_star - h div(q)
    energy: tuple            # EnergyBreakdown of lists, of u
    mu: np.ndarray           # chemical potential of u
    d2g: object              # G_sigma''(u), as in _Start
    dmu: np.ndarray          # grad mu, taken by the last pass
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
    return StepNonconvergenceError(message, u_last=u[i].copy(), j_last=q[i].copy(),
                                   grad_norm=norms[i], iters=it[i], member=i)


def _solve(prob, start):
    """Damped Newton of every member down its own eps ladder from start.

    A pass evaluates the kernels once on all rows; a member that is not
    iterating in it (done, or entering its next eps level) rides along
    with a zero direction, so its trial row is its iterate bit for bit.
    Any failure raises StepNonconvergenceError with the failing member's
    iterate; a start outside the barrier domain (infinite energy, which
    only a predicted flux can reach) fails before any iteration.  Returns
    the solved ``_Iterate``.
    """
    g, dx, h, p, mp, pad = prob.grid, prob.grid.dx, prob.h, prob.p, prob.potential, prob.pad
    scale, caps = prob.scale, prob.caps
    u_star, w, ladders = start.u_star, start.w, start.ladders
    q, u, e, mu, d2g = start.q, start.u, start.energy, start.mu, start.d2g
    B = len(q)
    for i, total in enumerate(e.total):
        if not math.isfinite(total):
            raise _failure("the start leaves the barrier domain (infinite energy)",
                           i, q, u, [None] * B, [0] * B)
    level, it, iters, done = [0] * B, [0] * B, [0] * B, [False] * B
    f, eps, tol = [0.0] * B, [0.0] * B, [0.0] * B
    norms, slope = [0.0] * B, [0.0] * B
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
            eps2 = eps_col * eps_col
            eps_p = scalar_or_column([x**y for x, y in zip(eps, prob.p_each)], active)
            # a new level keeps the energy, mu and G_sigma'' and re-adds only
            # the dissipation; q^2 and q^2 + eps^2, shared by the functional,
            # the gradient and the Newton bands, are carried until q changes
            s2 = q * q
            r = s2 + eps2
            level_f = _functional(scale, p, eps_p, w, r, e)
            for i in entering:
                f[i] = level_f[i]
            entering.clear()

        g_scaled, dmu = _reduced_gradient(dx, mu, w, q, r, p)
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
            # minus the reduced gradient times h dx; negation is exact, so the
            # slopes are minus rhs @ x bit for bit
            rhs = -(h * dx) * g_scaled
            # the energy block of a curvature constant on each row is the one
            # built for the run (G_sigma'' is then a's own value)
            energy_bands = prob.energy_bands
            if energy_bands is None or isinstance(d2g, np.ndarray) and d2g.shape[1] > 1:
                energy_bands = _energy_bands(dx, prob.lap_diag, prob.ao, h, d2g)
            ab = prob.ab
            _newton_bands(ab, energy_bands, dx, h, w, s2, r, eps2, p)
            if len(go) < B:  # the iterating members' bands and right-hand sides
                ab, rhs = ab[:, go], rhs[go]
            # one solve of the block-diagonal band of the iterating members
            try:
                x = solveh_banded(ab, rhs)
            except _NotPositiveDefinite as exc:
                raise direction_failed(exc, go[exc.block]) from exc
            # each slope is a row @ column product, which numpy takes as np.dot does
            slopes = (rhs[:, None] @ x[..., None]).ravel().tolist()
            for i, dd in zip(go, slopes):
                dd = -dd
                if not dd < 0.0:
                    raise direction_failed(f"not a descent direction (slope {dd:.3e})", i)
                slope[i] = dd
            if len(go) < B:
                delta = np.zeros(q.shape)
                delta[go] = x
            else:
                delta = x

            # A trial outside the barrier domain has infinite energy, so
            # Armijo and the granularity clause both reject it.  Predicted
            # decreases below the objective's floating-point granularity
            # cannot be verified by comparing values; the problem is convex
            # with an SPD Hessian, so in that contraction regime a
            # (finite-energy) Newton step is taken outright.  The other
            # members ride along with a zero direction at any step.
            t = 1.0
            pending, stepped = go, []
            for _ in range(_MAX_HALVINGS):
                q_try = q + delta if t == 1.0 else q + t * delta
                u_try = _height(g, u_star, h, q_try, pad)
                e_try, mu_try, d2g_try = _evaluate(g, u_try, mp, pad)
                s2_try = q_try * q_try
                r_try = s2_try + eps2
                f_try = _functional(scale, p, eps_p, w, r_try, e_try)
                took, rest = [], []
                for i in pending:
                    fi = f_try[i]
                    if (fi <= f[i] + _ARMIJO_C * t * slope[i]
                            or (-t * slope[i] <= _granularity(f[i]) and math.isfinite(fi))):
                        f[i] = fi
                        took.append(i)
                    else:
                        rest.append(i)
                stepped += took
                pending = rest
                if not rest:
                    # every other row rode along, so each row is its member's iterate
                    q, u, e, mu, d2g = q_try, u_try, e_try, mu_try, d2g_try
                    s2, r = s2_try, r_try
                    break
                if took:
                    # an accepted member rides along the remaining halvings
                    q[took], u[took], delta[took] = q_try[took], u_try[took], 0.0
                t *= 0.5
            else:
                if stepped:
                    # the rows accepted before the halvings ran out come from
                    # different trials; a row's evaluation does not depend on
                    # the others, so evaluating them together gives its own
                    e, mu, d2g = _evaluate(g, u, mp, pad)
                    s2 = q * q
                    r = s2 + eps2
            for i in pending:
                if norms[i] > tol[i]:
                    raise _failure(f"line search stalled at grad norm {norms[i]:.3e} > tol "
                                   f"{tol[i]:g}; tol_grad is below the roundoff floor of "
                                   "this problem", i, q, u, norms, it)
                level_done(i)  # stalled while polishing an already-converged iterate
            for i in stepped:
                it[i] += 1
        active = [i for i in active if not done[i]]
    # no member stepped in the last pass, so its grad mu is the solution's
    return _Iterate(q, u, e, mu, d2g, dmu, f, iters)


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
    Newton fails from it (at once, with 0 iterations, if it leaves the
    barrier domain), the step is solved cold: from zero flux down the
    full eps ladder.  ``newton_iters`` then also counts the iterations of
    the failed warm attempt.
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
    and walks its own eps ladder, and a member that fails from its warm
    start (one outside the barrier domain fails at once) is solved cold.
    The members' parameters are held as in a one-member step where they
    share them, so a member matches ``run`` bit for bit when the batch
    shares its model and step parameters, and to roundoff otherwise.
    Members come in any order and are returned in it.  A cold failure
    raises ``solve_step``'s error, which names the failing member as
    ``member``, and leaves the batch unusable.
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
    scratch, through the step's one evaluation, what solve_step reports
    from its carried state.
    """
    _, mu, _ = _evaluate(g, res.u_next[None], model.modified, np.zeros((1, g.N + 1)))
    m_faces = mobility_face(model.mobility, u_star, g)
    dmu = (mu[:, 1:] - mu[:, :-1]) / g.dx
    return _el_defect(g, res.j[None, 1:-1], dmu, m_faces[None, 1:-1], model.alpha,
                      [model.alpha])[0]
