"""Configuration parsing and run artifacts (CSV, JSON, SVG).

Configs are flat JSON with a strict schema: unknown keys are rejected
so a typo in a sweep cannot silently fall back to a default.  All
floating-point output carries 17 significant digits, which round-trips
doubles exactly, and re-running a config byte-reproduces
diagnostics.csv.  Every artifact is written to a temporary file beside
its target and renamed over it, so a failed write leaves the previous
file (or none) and never a partial one.
"""

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .driver import InitialDataSpec, RunConfig
from .grid import Grid
from .models import (
    MobilitySpec,
    PotentialSpec,
    constant_mobility,
    navier_slip_mobility,
    power_mobility,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from .models import ModelParams
from .step import StepParams

__all__ = [
    "ConfigError",
    "parse_config",
    "parse_step",
    "STEP_KEYS",
    "parse_config_file",
    "echo_config",
    "write_timeseries",
    "write_summary",
    "write_csv",
    "fmt",
    "DirectoryLock",
    "line_plot_svg",
]

DIAGNOSTICS_HEADER = (
    "t,mass,min_u,max_u,E_dirichlet,E_potential,E_total,"
    "diss_flux,diss_strong,ede_slack,el_residual,newton_iters"
)

STEP_KEYS = {"h", "eps0", "eps_min", "rho", "tol_grad", "max_newton", "armijo_c",
             "tau_boundary"}

_RUN_KEYS = {
    "L", "N", "T", "alpha", "mobility", "potential", "sigma", "record_every", "initial",
} | STEP_KEYS


class ConfigError(ValueError):
    """Invalid or unparsable configuration."""


def fmt(x):
    """Serialise a float with 17 significant digits (exact round trip)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _reject_unknown(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _require(d, key, where):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return d[key]


def _parse_mobility(raw):
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError("mobility must be an object or a kind string")
    kind = _require(raw, "kind", "mobility")
    if kind == "power":
        _reject_unknown(raw, {"kind", "n"}, "mobility")
        return power_mobility(_require(raw, "n", "mobility(power)"))
    if kind == "navier_slip":
        _reject_unknown(raw, {"kind", "lambda", "alpha"}, "mobility")
        return navier_slip_mobility(
            _require(raw, "lambda", "mobility(navier_slip)"),
            _require(raw, "alpha", "mobility(navier_slip)"),
        )
    if kind == "constant_one":
        _reject_unknown(raw, {"kind"}, "mobility")
        return constant_mobility()
    raise ConfigError(f"unknown mobility kind {kind!r}")


def _parse_potential(raw):
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError("potential must be an object or a kind string")
    kind = _require(raw, "kind", "potential")
    if kind == "zero":
        _reject_unknown(raw, {"kind"}, "potential")
        return zero_potential()
    if kind == "quadratic":
        _reject_unknown(raw, {"kind", "a"}, "potential")
        return quadratic_potential(_require(raw, "a", "potential(quadratic)"))
    if kind == "strong_singular":
        _reject_unknown(raw, {"kind", "A"}, "potential")
        return strong_singular_potential(_require(raw, "A", "potential(strong_singular)"))
    raise ConfigError(f"unknown potential kind {kind!r}")


_INITIAL_KEYS = {
    "constant": {"kind", "M"},
    "cosine": {"kind", "M", "amplitude", "mode"},
    "parabola": {"kind", "M"},
    "lifted_parabola": {"kind", "M", "delta"},
    "cos_bumps": {"kind", "background", "amplitude", "width", "centers"},
    "values": {"kind", "values"},
}


def _parse_initial(raw):
    if raw is None:
        return InitialDataSpec("constant", M=1.0)
    if not isinstance(raw, dict):
        raise ConfigError("initial must be an object")
    kind = _require(raw, "kind", "initial")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"unknown initial kind {kind!r}")
    _reject_unknown(raw, _INITIAL_KEYS[kind], "initial")
    kwargs = {k: v for k, v in raw.items() if k != "kind"}
    if "centers" in kwargs:
        kwargs["centers"] = tuple(kwargs["centers"])
    if "values" in kwargs:
        kwargs["values"] = tuple(kwargs["values"])
    return InitialDataSpec(kind, **kwargs)


def _number(kind, value, key):
    """int(value) or float(value); a ConfigError for null or non-numeric values."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_step(data, where="config"):
    """StepParams from the STEP_KEYS entries of a config dict; "h" is required."""
    _require(data, "h", where)
    values = {k: _number(int if k == "max_newton" else float, data[k], k)
              for k in STEP_KEYS if k in data}
    try:
        return StepParams(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(data):
    """Validate a simulate-style config dict into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(data, _RUN_KEYS, "config")

    N = _number(int, _require(data, "N", "config"), "N")
    L = _number(float, data.get("L", 1.0), "L")
    if N < 4:
        raise ConfigError("N must be at least 4")
    if L <= 0:
        raise ConfigError("L must be positive")

    alpha = _number(float, _require(data, "alpha", "config"), "alpha")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    sigma = _require(data, "sigma", "config")
    if sigma is not None:
        sigma = _number(float, sigma, "sigma")
        if not 0.0 < sigma < 1.0:
            raise ConfigError("sigma must be in (0,1)")

    step = parse_step(data)
    T = _number(float, _require(data, "T", "config"), "T")

    try:
        model = ModelParams(
            alpha=alpha,
            mobility=_parse_mobility(_require(data, "mobility", "config")),
            potential=_parse_potential(_require(data, "potential", "config")),
            sigma=sigma,
        )
        return RunConfig(
            grid=Grid(L=L, N=N),
            model=model,
            step=step,
            T=T,
            record_every=_number(int, data.get("record_every", 1), "record_every"),
            initial=_parse_initial(data.get("initial")),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def echo_config(cfg):
    """Normalised dict representation; parse_config(echo_config(c)) == c."""
    model, step, init = cfg.model, cfg.step, cfg.initial
    mob = {"kind": model.mobility.kind}
    if model.mobility.kind == "power":
        mob["n"] = model.mobility.n
    elif model.mobility.kind == "navier_slip":
        mob["lambda"] = model.mobility.lam
        mob["alpha"] = model.mobility.alpha
    pot = {"kind": model.potential.kind}
    if model.potential.kind == "quadratic":
        pot["a"] = model.potential.a
    elif model.potential.kind == "strong_singular":
        pot["A"] = model.potential.A
    initial = {"kind": init.kind}
    for key in sorted(_INITIAL_KEYS[init.kind] - {"kind"}):
        val = getattr(init, key)
        if val is not None:
            initial[key] = list(val) if isinstance(val, tuple) else val
    return {
        "L": cfg.grid.L,
        "N": cfg.grid.N,
        "h": step.h,
        "T": cfg.T,
        "alpha": model.alpha,
        "mobility": mob,
        "potential": pot,
        "sigma": model.sigma,
        "record_every": cfg.record_every,
        "eps0": step.eps0,
        "eps_min": step.eps_min,
        "rho": step.rho,
        "tol_grad": step.tol_grad,
        "max_newton": step.max_newton,
        "armijo_c": step.armijo_c,
        "tau_boundary": step.tau_boundary,
        "initial": initial,
    }


# ---------------------------------------------------------------------------
# artifact writers

@contextmanager
def _atomic_text(path):
    """Text file to write in place of `path`, renamed over it on success.

    On any failure the temporary file is removed and `path` is untouched.
    No fsync: the rename makes the file whole, not durable.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    f = open(tmp, "x")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows):
    with _atomic_text(path) as f:
        f.write("\n".join([header] + [",".join(fmt(v) for v in row) for row in rows]) + "\n")


def write_timeseries(series, outdir):
    """diagnostics.csv, per-snapshot u_t<stamp>.csv, summary.json, SVG plots."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = [
        (d.t, d.mass, d.min_u, d.max_u, d.E_dirichlet, d.E_potential, d.E_total,
         d.diss_flux, d.diss_strong, d.ede_slack, d.el_residual, d.newton_iters)
        for d in series.diagnostics
    ]
    write_csv(outdir / "diagnostics.csv", DIAGNOSTICS_HEADER, rows)

    x = series.config.grid.cell_centers()
    for t, u in series.snapshots.items():
        write_csv(outdir / f"u_t{t:.9g}.csv", "x,u", zip(x, u))

    times = series.times
    line_plot_svg(outdir / "energy.svg", times, series.column("E_total"),
                  "t", "E_total")
    line_plot_svg(outdir / "minu.svg", times, series.column("min_u"),
                  "t", "min_u")
    return outdir


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def write_summary(outdir, payload):
    path = Path(outdir) / "summary.json"
    with _atomic_text(path) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                           default=_json_default) + "\n")
    return path


def line_plot_svg(path, xs, ys, xlabel, ylabel, width=640, height=400):
    """Bare-bones polyline plot; no plotting dependency."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pad = 50
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = pad + (xs - x0) / (x1 - x0) * (width - 2 * pad)
    py = height - pad - (ys - y0) / (y1 - y0) * (height - 2 * pad)
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
        f'height="{height - 2 * pad}" fill="none" stroke="black"/>\n'
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle">{xlabel}</text>\n'
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{ylabel}</text>\n'
        f'<text x="{pad}" y="{height - pad + 16}" text-anchor="middle">{x0:.4g}</text>\n'
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="middle">{x1:.4g}</text>\n'
        f'<text x="{pad - 6}" y="{height - pad}" text-anchor="end">{y0:.4g}</text>\n'
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end">{y1:.4g}</text>\n'
        "</svg>\n"
    )
    with _atomic_text(path) as f:
        f.write(svg)


def _pid_alive(pid):
    """Whether a process with this PID exists (signal 0 probes without sending)."""
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # exists, owned by another user
        pass
    return True


class DirectoryLock:
    """Exclusive lock file per output directory.

    Concurrent runs must target distinct directories; a second runner
    pointed at a locked directory fails fast instead of interleaving
    artifacts.  The lock file holds the holder's PID.  A refusal names
    that PID and whether it is alive; with ``break_stale`` a lock whose
    holder is no longer running is removed and taken.  A lock held by a
    live process, or whose PID cannot be read, is never broken.  Breaking
    is not atomic: two runs that break the same stale lock at the same
    moment can both proceed.
    """

    def __init__(self, outdir, break_stale=False):
        self.path = Path(outdir) / ".tfilm.lock"
        self.break_stale = break_stale

    def _holder(self):
        """(PID, alive) recorded in the lock file; (None, None) if it holds no valid PID."""
        try:
            pid = int(self.path.read_text().strip())
        except (OSError, ValueError):
            pid = 0
        return (pid, _pid_alive(pid)) if pid > 0 else (None, None)

    def _acquire(self):
        fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._acquire()
            return self
        except FileExistsError:
            pid, alive = self._holder()
        if alive is False and self.break_stale:
            self.path.unlink(missing_ok=True)
            try:
                self._acquire()
                return self
            except FileExistsError:  # another run took it first
                pid, alive = self._holder()
        if pid is None:
            holder = "no valid holder PID in the lock file"
        else:
            holder = f"holder PID {pid} is {'alive' if alive else 'not running'}"
        if alive is False and not self.break_stale:
            holder += "; pass --break-lock to remove it"
        raise RuntimeError(
            f"output directory is locked by another run: {self.path} ({holder})"
        ) from None

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        return False
