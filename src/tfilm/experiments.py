"""Desk-scale experiments: lift-off, dissipation scalings, the interior
point bound, decay-rate classification, and the degenerate transport
action.

These drive the simulator (or closed-form constructions) and assemble
pass/fail style reports.  Fitted exponents come with R^2 so a caller
can reject sloppy fits; uniformity of the lift-off time is tested as a
max-to-median ratio because the underlying constant is not explicit.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .driver import InitialDataSpec, RunConfig, parabola_profile, run_many
from .grid import Grid, gradient, integrate, laplacian_neumann
from .models import (
    ModelParams,
    mobility_face,
    power_mobility,
    zero_potential,
)

__all__ = [
    "ParabolaV",
    "build_parabola_v",
    "LiftoffReport",
    "liftoff_configs",
    "liftoff_sweep",
    "WlProfile",
    "build_w_l",
    "DissipationScalingReport",
    "dissipation_inputs",
    "dissipation_scaling_fit",
    "PointWitness",
    "point_lemma_check",
    "RateReport",
    "rate_fit",
    "BBActionReport",
    "bb_action_inputs",
    "bb_action_demo",
]


# ---------------------------------------------------------------------------
# the touching parabola and the lift-off sweep

@dataclass(frozen=True)
class ParabolaV:
    values: np.ndarray
    mass: float
    grad_sq: float        # discrete int |v'|^2; -> 3 M^2 as N -> inf
    stated_grad_sq: float  # 9 M^2 / 2, recorded verbatim, not asserted

    @property
    def energy(self):
        return 0.5 * self.grad_sq


def build_parabola_v(M, g):
    """Sample the minimal-energy touching profile on (0, 1).

    The recorded ``stated_grad_sq`` reproduces the source's headline
    constant for int |v'|^2; the operative threshold everywhere in this
    package is the quadrature value ``grad_sq`` (which converges to
    3 M^2).
    """
    v = parabola_profile(g, M)
    dv = gradient(g, v)
    return ParabolaV(
        values=v,
        mass=integrate(g, v),
        grad_sq=float(np.sum(dv * dv)) * g.dx,
        stated_grad_sq=4.5 * M * M,
    )


@dataclass(frozen=True)
class LiftoffReport:
    deltas: tuple
    sigma: float
    t_half: tuple          # None entries mark trajectories that never reached M/2
    t0_hat: float
    median_t_half: float
    uniform_ok: bool
    all_reached: bool
    energies: tuple        # E[u0(delta)]
    energy_v: float        # discrete E[v]
    ordering_ok: bool      # every E[u0(delta)] < E[v]
    min_u_trajectories: tuple  # (times, min_u) arrays per delta
    series: tuple


def liftoff_configs(deltas, M, n, alpha, grid, step, T, record_every=1):
    """The run configs of the lift-off family, one per delta.

    Refuses, with a ValueError, a family outside the superlinearity
    window 2(alpha+1) > n, a non-positive delta or M, a grid other than
    the unit interval, and whatever its model and run configs refuse.
    The barrier is set to min(deltas)/10 so it is inert above that scale.
    """
    deltas = tuple(float(d) for d in deltas)
    if 2.0 * (alpha + 1.0) <= n:
        raise ValueError(f"lift-off requires 2(alpha+1) > n, got alpha={alpha}, n={n}")
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("need at least one delta, and every delta must be positive")
    if not M > 0:
        raise ValueError(f"M must be positive, got {M}")
    parabola_profile(grid, M)  # refuses a domain other than (0, 1)
    model = ModelParams(alpha=alpha, mobility=power_mobility(n),
                        potential=zero_potential(), sigma=min(deltas) / 10.0)
    return [
        RunConfig(
            grid=grid,
            model=model,
            step=step,
            T=T,
            record_every=record_every,
            initial=InitialDataSpec("lifted_parabola", M=M, delta=d),
        )
        for d in deltas
    ]


def liftoff_sweep(deltas, M, n, alpha, grid, step, T, record_every=1):
    """Run the lift-off family u0 = delta + (1 - delta/M) v and time min_u.

    The family is checked and built by ``liftoff_configs``.  Every member
    has mass M and energy (1 - delta/M)^2 E[v], below E[v] for
    0 < delta < 2M.
    """
    configs = liftoff_configs(deltas, M, n, alpha, grid, step, T, record_every)
    deltas = tuple(c.initial.delta for c in configs)
    sigma = configs[0].model.sigma

    pv = build_parabola_v(M, grid)
    e_v = pv.energy
    energies = tuple(0.5 * (1.0 - d / M) ** 2 * pv.grad_sq for d in deltas)
    ordering_ok = all(e < e_v for e in energies)

    series = run_many(configs)

    t_half = []
    trajectories = []
    for s in series:
        times = s.times
        min_u = s.column("min_u")
        trajectories.append((times, min_u))
        hit = np.nonzero(min_u >= 0.5 * M)[0]
        t_half.append(float(times[hit[0]]) if hit.size else None)

    reached = [t for t in t_half if t is not None]
    all_reached = len(reached) == len(deltas)
    t0_hat = max(reached) if reached else math.inf
    median = float(np.median(reached)) if reached else math.inf
    uniform_ok = all_reached and t0_hat <= 2.0 * max(median, step.h)

    return LiftoffReport(
        deltas=deltas,
        sigma=sigma,
        t_half=tuple(t_half),
        t0_hat=t0_hat,
        median_t_half=median,
        uniform_ok=uniform_ok,
        all_reached=all_reached,
        energies=energies,
        energy_v=e_v,
        ordering_ok=ordering_ok,
        min_u_trajectories=tuple(trajectories),
        series=tuple(series),
    )


# ---------------------------------------------------------------------------
# the bump family for the dissipation bounds

@dataclass(frozen=True)
class WlProfile:
    l: float
    values: np.ndarray       # w at cell centers, >= 0, touching at x = 1/2
    beta: float              # int w dx (-> (1-l)^2/12)
    w3_faces: np.ndarray     # first difference of w2 at interior faces
    slope_left: float        # discrete w'(0), O(dx)
    slope_right: float       # discrete w'(1), O(dx)


def build_w_l(l, g):
    """Integrate w'' = -1 + (1/l)(1 - |x - 1/2|/l)_+ twice from the center.

    The construction pins w(1/2) = w'(1/2) = 0; the Neumann slopes at 0
    and 1 then vanish by the triangle-area identity, up to quadrature
    error O(dx), and w stays non-negative up to O(dx^2).
    """
    if not 0.0 < l <= 0.5:
        raise ValueError(f"l must lie in (0, 1/2], got {l}")
    if abs(g.L - 1.0) > 1e-12:
        raise ValueError("w_l is defined on the unit interval")
    x = g.cell_centers()
    y = x - 0.5
    w2 = -1.0 + (1.0 / l) * np.maximum(1.0 - np.abs(y) / l, 0.0)

    # slopes at faces via midpoint cumulative sums, shifted to vanish at x=1/2
    slope = np.zeros(g.N + 1)
    slope[1:] = np.cumsum(w2) * g.dx
    mid = g.N // 2
    slope -= np.interp(0.5, g.faces(), slope)

    w = np.zeros(g.N)
    w[0] = 0.0
    w[1:] = np.cumsum(slope[1:-1]) * g.dx
    # pin the value at the center: average of the two cells straddling 1/2
    w -= 0.5 * (w[mid - 1] + w[mid]) if g.N % 2 == 0 else w[mid]

    if abs(slope[0]) > 10.0 * g.dx or abs(slope[-1]) > 10.0 * g.dx:
        raise AssertionError("boundary slopes of w_l exceed the O(dx) budget")
    if np.min(w) < -50.0 * g.dx**2:
        raise AssertionError("w_l dips below the -O(dx^2) budget")

    return WlProfile(
        l=l,
        values=w,
        beta=integrate(g, w),
        w3_faces=np.diff(w2) / g.dx,
        slope_left=float(slope[0]),
        slope_right=float(slope[-1]),
    )


@dataclass(frozen=True)
class DissipationScalingReport:
    deltas: tuple
    values: tuple            # D(u_delta)
    slope: float
    target: float            # n - 1 - 2 alpha
    slope_ok: bool
    lower_bound: tuple       # f_{n,alpha}(delta)
    c_fit: float             # min D/f over the sweep; positive = bound holds
    n_cells: int


def _check_exponents(n, alpha):
    """Refuse, with a ValueError, a mobility exponent n that is not
    positive and finite, and an alpha that is not or whose 1/alpha
    overflows (alpha below about 5.6e-309): the dissipation exponent
    (alpha + 1)/alpha must be finite."""
    if not 0.0 < n < math.inf:
        raise ValueError(f"n must be positive and finite, got {n}")
    if not (0.0 < alpha < math.inf and 1.0 / float(alpha) < math.inf):
        raise ValueError(f"alpha must be positive and finite with a finite 1/alpha, "
                         f"got {alpha}")


def dissipation_inputs(deltas, M, n, alpha, g):
    """The deltas of a dissipation-scaling fit, checked with its exponents.

    Refuses, with a ValueError, an n or alpha that ``_check_exponents``
    refuses, fewer than 4 deltas, a span of less than two decades, a
    delta outside (0, M/2), deltas that do not strictly decrease, a grid
    other than the unit interval, and a grid with N < 32/min(delta), too
    coarse to resolve the narrowest bump.
    """
    _check_exponents(n, alpha)
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) < 4:
        raise ValueError("need at least 4 deltas for the slope fit")
    if any(not 0.0 < d < 0.5 * M for d in deltas):
        raise ValueError("each delta must lie in (0, M/2)")
    if max(deltas) / min(deltas) < 100.0:
        raise ValueError("deltas must span at least two decades")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if abs(g.L - 1.0) > 1e-12:
        raise ValueError("w_l is defined on the unit interval")
    required = int(math.ceil(32.0 / min(deltas)))
    if g.N < required:
        raise ValueError(f"grid too coarse to resolve the bump: need N >= {required}")
    return deltas


def dissipation_scaling_fit(deltas, M, n, alpha, g, slope_tol=0.15):
    """Evaluate D(u_delta) = int u^n |u'''|^(alpha+1) over the bump family.

    u_delta = delta + (M - delta)/beta_l * w_l with l = delta; |u'''| is
    the exact piecewise value (scale / l^2 on the bump) so the
    quadrature only has to resolve u^n.  The inputs are checked by
    ``dissipation_inputs``.
    """
    deltas = dissipation_inputs(deltas, M, n, alpha, g)
    x = g.cell_centers()
    values = []
    fvals = []
    for d in deltas:
        wl = build_w_l(d, g)
        scale = (M - d) / wl.beta
        u = d + scale * wl.values
        in_bump = np.abs(x - 0.5) < d
        third = scale / d**2
        values.append(float(np.sum(u[in_bump] ** n) * g.dx) * third ** (alpha + 1.0))
        fvals.append(min(1.0, d ** (n - 1.0 - 2.0 * alpha))
                     / math.log(M / d) ** (alpha + 1.0))

    slope = float(np.polyfit(np.log(deltas), np.log(values), 1)[0])
    target = n - 1.0 - 2.0 * alpha
    c_fit = min(v / f for v, f in zip(values, fvals))
    return DissipationScalingReport(
        deltas=deltas,
        values=tuple(values),
        slope=slope,
        target=target,
        slope_ok=abs(slope - target) <= slope_tol,
        lower_bound=tuple(fvals),
        c_fit=c_fit,
        n_cells=g.N,
    )


# ---------------------------------------------------------------------------
# interior point bound

@dataclass(frozen=True)
class PointWitness:
    found: bool
    x0: float
    grad_at: float
    curv_product: float      # u(x0) u''(x0)
    required_grad: float     # (D - delta)/2
    required_curv: float     # (D - delta)^2 / (4 log(D/delta))
    tol_fd: float


def point_lemma_check(u, g):
    """Search for a cell with steep slope and large height-curvature product.

    For a positive Neumann profile with range [delta, D] there is a
    point with |u'| >= (D - delta)/2 and u u'' >= (D - delta)^2 /
    (4 log(D/delta)); the discrete search allows the O(dx) slack
    tol_fd = 5 dx times that curvature bound.  A constant profile passes
    trivially with zero bounds.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("profile must be strictly positive")
    delta = float(np.min(u))
    D = float(np.max(u))
    du = gradient(g, u)
    d2u = laplacian_neumann(g, u)

    if D <= delta * (1.0 + 1e-14):
        return PointWitness(True, float(g.cell_centers()[0]), 0.0, 0.0, 0.0, 0.0, 0.0)

    req_grad = 0.5 * (D - delta)
    req_curv = (D - delta) ** 2 / (4.0 * math.log(D / delta))
    tol_fd = 5.0 * g.dx * req_curv

    adj = np.maximum(np.abs(du[:-1]), np.abs(du[1:]))
    steep = adj >= req_grad
    prod = u * d2u
    candidates = np.nonzero(steep & (prod >= req_curv - tol_fd))[0]
    if candidates.size:
        best = candidates[np.argmax(prod[candidates])]
        return PointWitness(True, float(g.cell_centers()[best]),
                            float(adj[best]), float(prod[best]),
                            req_grad, req_curv, tol_fd)
    # report the nearest miss for diagnosis
    steep_idx = np.nonzero(steep)[0]
    best = steep_idx[np.argmax(prod[steep_idx])] if steep_idx.size else int(np.argmax(prod))
    return PointWitness(False, float(g.cell_centers()[best]),
                        float(adj[best]), float(prod[best]),
                        req_grad, req_curv, tol_fd)


# ---------------------------------------------------------------------------
# decay-rate classification

@dataclass(frozen=True)
class RateReport:
    classification: str      # exponential | algebraic | finite_time | inconclusive
    rate: float              # amplitude rate (alpha = 1) or log-log exponent (alpha > 1)
    r_squared: float
    t_star: float            # extinction time (alpha < 1), inf otherwise
    note: str = ""


# Energies below this fraction of the tail's first energy are roundoff and
# are left out of the fits
_ENERGY_FLOOR = 1e-13


def _r_squared(y, yhat):
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def rate_fit(series, alpha, tol_extinct=1e-10):
    """Classify the energy decay on the lifted-off tail of a run.

    The tail starts where min u reaches half the mean height.
    alpha = 1: least-squares slope of log E vs t; the reported rate is
    half the energy rate, i.e. the amplitude rate, which for the
    constant-mobility single-mode oracle equals log(1 + h lam_k^2)/h.
    alpha > 1: slope of log E vs log t (algebraic exponent).
    alpha < 1: first time E <= tol_extinct with E staying there.
    """
    times = series.times
    E = series.column("E_total")
    M = series.column("mass")[0] / series.config.grid.L
    min_u = series.column("min_u")
    lifted = np.nonzero(min_u >= 0.5 * M)[0]
    if lifted.size == 0:
        return RateReport("inconclusive", math.nan, 0.0, math.inf, "run never lifted off")
    start = int(lifted[0])

    if alpha < 1.0:
        below = np.nonzero(E <= tol_extinct)[0]
        below = below[below >= start]
        if below.size == 0:
            return RateReport("inconclusive", math.nan, 0.0, math.inf,
                              "energy never reached tol_extinct")
        first = int(below[0])
        if np.all(E[first:] <= tol_extinct):
            return RateReport("finite_time", math.nan, 1.0, float(times[first]))
        return RateReport("inconclusive", math.nan, 0.0, float(times[first]),
                          "energy resurfaced above tol_extinct")

    scale = max(E[start], _ENERGY_FLOOR)
    usable = np.nonzero((np.arange(len(E)) >= max(start, 1)) & (E > _ENERGY_FLOOR * scale))[0]
    if usable.size < 5:
        return RateReport("inconclusive", math.nan, 0.0, math.inf, "fit window too short")
    t, logE = times[usable], np.log(E[usable])

    if alpha == 1.0:
        coef = np.polyfit(t, logE, 1)
        r2 = _r_squared(logE, np.polyval(coef, t))
        return RateReport("exponential", -0.5 * float(coef[0]), r2, math.inf)
    coef = np.polyfit(np.log(t), logE, 1)
    r2 = _r_squared(logE, np.polyval(coef, np.log(t)))
    return RateReport("algebraic", float(coef[0]), r2, math.inf)


# ---------------------------------------------------------------------------
# degenerate transport action

@dataclass(frozen=True)
class BBActionReport:
    eta: float
    M_values: tuple
    actions: tuple
    stage_actions: tuple        # (concentrate, transport, spread) per M
    strictly_decreasing: bool
    final_over_initial: float
    degeneracy_expected: bool   # superlinear mobility (n > 1)
    mass: float
    n: float
    alpha: float


def _lump_to_atoms(g, dens, z):
    """Nearest-point mass lumping of a non-negative density onto atoms z."""
    x = g.cell_centers()
    idx = np.argmin(np.abs(x[:, None] - z[None, :]), axis=1)
    weights = np.zeros(len(z))
    np.add.at(weights, idx, dens * g.dx)
    return weights


# Cap, in bytes, on every float64 or int64 temporary of the transport path:
# substeps are processed in chunks of at most this size whatever N is (the
# move stage's widest temporaries are its (rows, N) states and its (rows, 2P)
# ball ends), and the few temporaries of one chunk stay within a core's L2
# cache.  Every substep row is computed alone, so the cap moves no result.
_CHUNK_BYTES = 1 << 17


def _chunk_rows(width):
    """Rows of `width` eight-byte entries that fit in _CHUNK_BYTES (at least 1)."""
    return max(1, _CHUNK_BYTES // (8 * width))


def _place_balls(g, centers, weights, radius):
    """Densities with mass weights[k] spread uniformly over |x - centers[s, k]| < radius.

    `centers` is (S, P): S substeps of P balls; `weights` is (P,) or
    (S, P); the result is (S, N).
    Cells are weighted by their exact overlap with the ball, so the
    discrete mass equals the atom weight to roundoff and the profile
    varies continuously as the center slides (whole-cell quantisation
    would make a translating bump "breathe" and pollute the flux).  A
    ball cut off by 0 or L is normalised by its clipped width
    min(c + r, L) - max(c - r, 0), so it keeps its mass.

    A ball of density sigma = w / (r - l) on its clipped ends l < r
    changes value only at its end cells cl, cr (floor(x / dx), clamped
    to N - 1).  Those get sigma times their overlap over dx, with the
    overlaps f_{cl+1} - l and r - f_cr (f_c = c dx); a ball inside one
    cell gets sigma (r - l) / dx there.  The cells strictly between
    take sigma from a running sum of +sigma at cl + 1 and -sigma at cr.  Two bincounts
    with per-row offsets add the end parts and the difference rows, so
    each substep row is computed alone: a row comes out bit for bit the
    same whatever other rows are placed with it.  The running sum leaves
    roundoff of order eps * sum(sigma) in the gaps between balls.
    """
    centers = np.asarray(centers, dtype=float)
    S, P = centers.shape
    N, dx = g.N, g.dx
    left = np.maximum(centers - radius, 0.0)
    right = np.minimum(centers + radius, g.L)
    sigma = weights / (right - left)
    cl = np.minimum(np.floor(left / dx), N - 1).astype(np.intp)
    cr = np.minimum(np.floor(right / dx), N - 1).astype(np.intp)
    one = cl == cr
    # (S, 2, P) stacks: each substep's left ends, then its right ends
    ends = np.stack((np.where(one, right - left, (cl + 1) * dx - left),
                     np.where(one, 0.0, right - cr * dx)), axis=1) * (sigma / dx)[:, None]
    # without an interior cell the two steps would cancel at one index
    step = np.where(cr > cl + 1, sigma, 0.0)
    rows = np.arange(S)[:, None, None] * N
    dens = np.bincount((np.stack((np.minimum(cl + 1, cr), cr), axis=1) + rows).ravel(),
                       weights=np.stack((step, -step), axis=1).ravel(),
                       minlength=S * N).reshape(S, N)
    np.cumsum(dens, axis=1, out=dens)
    dens += np.bincount((np.stack((cl, cr), axis=1) + rows).ravel(),
                        weights=ends.ravel(), minlength=S * N).reshape(S, N)
    return dens


def _path_action(g, mob, p, alpha, blocks, n_sub, duration):
    """Action of a piecewise-linear-in-time path of n_sub substeps.

    `blocks` yields the n_sub + 1 states in order as (S, N) arrays; the
    last state of each block is carried into the next, so no more than
    one block is held at once.  The flux of each substep comes from the
    continuity equation by a cumulative sum, so every interpolated pair
    satisfies the discrete flow equation exactly, and the integrand
    |j|^p / m(u)^(1/alpha) is taken at the substep midpoint.

    The integrand is formed in place, with the operations of
    ``np.abs(-cumsum((ub - ua) / dt) * dx) ** p / m ** (1/alpha)`` in
    their order, so the action is theirs bit for bit, while a chunk
    keeps few chunk-sized arrays alive.  Every such array freed can
    leave malloc's heap top large enough to be returned to the system
    and faulted back in at the next chunk.
    """
    dt = duration / n_sub
    total = 0.0
    last = None
    for block in blocks:
        states = block if last is None else np.concatenate((last[None], block))
        last = states[-1].copy()
        ua, ub = states[:-1], states[1:]
        dudt = np.subtract(ub, ua)
        dudt /= dt
        mid = np.add(ua, ub)
        mid *= 0.5
        del block, states, ua, ub
        j = dudt[:, :-1]  # the flux, then the integrand, in du/dt's buffer
        np.cumsum(j, axis=1, out=j)
        np.negative(j, out=j)
        j *= g.dx
        np.abs(j, out=j)
        j **= p
        m_faces = mobility_face(mob, mid, g)
        del mid
        m_faces **= 1.0 / alpha
        j /= m_faces[:, 1:-1]
        del m_faces
        rows = np.sum(j, axis=1)
        for r in rows:
            total += dt * g.dx * float(r)
    return total


def bb_action_inputs(g, u0, u1, eta, M_sweep, n, alpha, stage_steps=48):
    """(u0, u1, M values, atoms) of a transport-action demo, checked.

    Refuses, with a ValueError, an n or alpha that ``_check_exponents``
    refuses, an empty M_sweep, an M that is not positive and finite,
    endpoints that are not finite 1-D fields of N cells or not strictly
    positive, an eta that leaves no interior atom z = eta, 2 eta, ...
    below L - eta, and a stage_steps that is not an integer >= 1.
    """
    steps = stage_steps
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ValueError(f"stage_steps must be an integer >= 1, got {stage_steps!r}")
    _check_exponents(n, alpha)
    M_values = tuple(float(M) for M in M_sweep)
    if not M_values:
        raise ValueError("M_sweep is empty")
    if not all(0.0 < M < math.inf for M in M_values):
        raise ValueError(f"every M must be positive and finite, got {M_values}")
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    for name, u in (("u0", u0), ("u1", u1)):
        if u.shape != (g.N,):
            raise ValueError(f"endpoint {name} must be a 1-D field of {g.N} cells, "
                             f"got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ValueError(f"endpoint {name} has a non-finite cell")
    if np.min(u0) <= 0 or np.min(u1) <= 0:
        raise ValueError("endpoints must be strictly positive")
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    z = np.arange(eta, g.L - eta + 1e-12, eta)
    if z.size == 0:
        raise ValueError("eta too large: no interior atoms")
    return u0, u1, M_values, z


def bb_action_demo(g, u0, u1, eta, M_sweep, n, alpha, stage_steps=48):
    """Action of the three-stage concentrate/transport/spread path.

    Stage 1 morphs u0 linearly onto narrow bumps of width 2 eta/M at the
    atom grid, stage 2 translates every coupled bump pair at constant
    speed, stage 3 morphs onto u1.  Fluxes are recovered from the
    continuity equation by cumulative sums, so every interpolated pair
    satisfies the discrete flow equation exactly; the action integrand
    |j|^((alpha+1)/alpha) / m(u)^(1/alpha) is integrated by midpoint
    quadrature in time.  The translating balls of stage 2 are placed by
    ``_place_balls`` (end cells and one running sum per substep).  Each
    stage is streamed in substep chunks of at most ``_CHUNK_BYTES`` per
    temporary; each substep row is computed alone, so the actions are
    the same bit for bit whatever the chunk size.  The inputs are
    checked by ``bb_action_inputs``.
    """
    u0, u1, M_values, z = bb_action_inputs(g, u0, u1, eta, M_sweep, n, alpha,
                                           stage_steps)
    mass0 = integrate(g, u0)
    u1 = u1 * (mass0 / integrate(g, u1))
    if abs(integrate(g, u1) - mass0) > 1e-12 * mass0:
        raise ValueError("masses do not match after normalisation")

    if np.array_equal(u0, u1):
        # the constant curve is admissible and free
        zero = (0.0, 0.0, 0.0)
        return BBActionReport(
            eta=eta, M_values=M_values,
            actions=(0.0,) * len(M_values),
            stage_actions=(zero,) * len(M_values),
            strictly_decreasing=False, final_over_initial=1.0,
            degeneracy_expected=n > 1.0, mass=mass0, n=n, alpha=alpha,
        )

    mob = power_mobility(n)
    p = (alpha + 1.0) / alpha
    delta = 0.5 * min(float(np.min(u0)), float(np.min(u1)))
    a_w = _lump_to_atoms(g, u0 - delta, z)
    b_w = _lump_to_atoms(g, u1 - delta, z)
    mtot = float(np.sum(a_w))
    gamma = np.outer(a_w, b_w) / mtot  # mass-normalised product coupling

    # coupled pairs (z_i -> z_j) with their transported masses
    src, dst = np.nonzero(gamma > 0.0)
    z_from, z_to, weights = z[src], z[dst], gamma[src, dst]
    max_travel = float(np.max(np.abs(z_to - z_from)))

    # transported bumps must not hop more than about a cell per substep,
    # or the sampled flux turns bursty and the p-norm overcharges it
    transport_steps = max(stage_steps, int(math.ceil(2.0 * max_travel / g.dx)))
    s_morph = np.linspace(0.0, 1.0, stage_steps + 1)
    s_move = np.linspace(0.0, 1.0, transport_steps + 1)
    morph_rows = _chunk_rows(g.N + 1)
    move_rows = _chunk_rows(max(g.N + 1, 2 * weights.size))

    def stage_action(s_grid, rows, state):
        blocks = (state(s_grid[lo:lo + rows, None])
                  for lo in range(0, s_grid.size, rows))
        return _path_action(g, mob, p, alpha, blocks, s_grid.size - 1, 1.0 / 3.0)

    actions = []
    stage_split = []
    for M in M_values:
        radius = eta / M
        P0, P1 = delta + _place_balls(g, np.stack((z, z)), np.stack((a_w, b_w)), radius)
        parts = (
            stage_action(s_morph, morph_rows, lambda s: u0 + s * (P0 - u0)),
            stage_action(s_move, move_rows, lambda s: delta + _place_balls(
                g, z_from + s * (z_to - z_from), weights, radius)),
            stage_action(s_morph, morph_rows, lambda s: P1 + s * (u1 - P1)),
        )
        stage_split.append(parts)
        actions.append(sum(parts))

    decreasing = all(b < a for a, b in zip(actions, actions[1:]))
    return BBActionReport(
        eta=eta,
        M_values=M_values,
        actions=tuple(actions),
        stage_actions=tuple(stage_split),
        strictly_decreasing=decreasing,
        final_over_initial=actions[-1] / actions[0] if actions[0] > 0 else math.inf,
        degeneracy_expected=n > 1.0,
        mass=mass0,
        n=n,
        alpha=alpha,
    )
