"""Configuration parsing and run artifacts (CSV, JSON, SVG).

Configs are flat JSON, and each CLI command has one schema in
COMMAND_SCHEMAS that `parse` checks a config against: unknown keys are
rejected so a typo in a sweep cannot silently fall back to a default,
and a null or wrongly typed value is a ConfigError naming its key.  All
floating-point output carries 17 significant digits, which round-trips
doubles exactly, and re-running a config byte-reproduces
diagnostics.csv.  `fmt` is the rule for one value; the writers produce
the same text with one `%` call per CSV row, and one per snapshot file
on a template that holds the run's x column.  Every artifact is written
to a temporary file beside its target and renamed over it, so a failed
write leaves the previous file (or none) and never a partial one.
"""

import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import experiments as ex
from .driver import InitialDataSpec, RunConfig, StepDiagnostics
from .grid import Grid
from .models import ModelParams, MobilitySpec, PotentialSpec
from .step import StepParams

__all__ = [
    "ConfigError",
    "COMMAND_SCHEMAS",
    "parse",
    "config_keys",
    "parse_config",
    "parse_config_file",
    "echo_config",
    "write_timeseries",
    "write_summary",
    "write_csv",
    "csv_lines",
    "fmt",
    "DirectoryLock",
    "line_plot_svg",
]

# diagnostics.csv has one column per StepDiagnostics field, in field order
DIAGNOSTICS_HEADER = ",".join(StepDiagnostics.names)


class ConfigError(ValueError):
    """Invalid or unparsable configuration."""


def fmt(x):
    """Serialise a float with 17 significant digits (exact round trip)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config schemas
#
# A schema maps each config key to (converter, default).  A converter
# takes the raw JSON value and returns the checked value or raises
# TypeError, ValueError or OverflowError, which `parse` reports as
# "<key>: <message>".
# Defaults are used as given, not converted.

_REQUIRED = object()  # the default of a key that must be given


class Schema(NamedTuple):
    """Config keys combined by `build(**values)` into one value.

    `keys` maps a key to (converter, default), or to a nested Schema whose
    keys are read from the same level of the config, such as the grid's L
    and N, and whose built value is passed under that name.
    """

    build: Callable
    keys: dict


def config_keys(schema):
    """Every config key of a schema, nested schemas included."""
    keys = set()
    for key, entry in schema.keys.items():
        keys |= config_keys(entry) if isinstance(entry, Schema) else {key}
    return keys


def parse(data, schema, where="config"):
    """Checked value of the config dict `data` under `schema`.

    Rejects unknown keys, names a missing required key, raises
    ConfigError("<key>: ...") for a value its converter refuses, and
    turns a ValueError of a build into a ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(data) - config_keys(schema)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return _build(data, schema, where)


def _build(data, schema, where):
    values = {}
    for key, entry in schema.keys.items():
        if isinstance(entry, Schema):
            values[key] = _build(data, entry, where)
            continue
        convert, default = entry
        if key in data:
            try:
                values[key] = convert(data[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {where}")
        else:
            values[key] = default
    try:
        return schema.build(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _real(v):
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"expected a real number, got {type(v).__name__}")
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v}")
    return v


def _real_or_null(v):
    return None if v is None else _real(v)


def _integer(v):
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, float):
        raise ValueError(f"expected an integer, got {v!r}")
    raise TypeError(f"expected an integer, got {type(v).__name__}")


def _reals(v):
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"expected a list of real numbers, got {type(v).__name__}")
    return tuple(_real(x) for x in v)


_CONVERTERS = {float: _real, int: _integer, Optional[tuple]: _reals}


def _dataclass_keys(cls, names=None):
    """Schema keys for the fields of a dataclass (or the named ones), with its defaults."""
    return {f.name: (_CONVERTERS[f.type], _REQUIRED if f.default is MISSING else f.default)
            for f in fields(cls) if names is None or f.name in names}


class _Kind:
    """Converter of an object {"kind": k, <field>: ...} into cls(k, **fields).

    `kinds` maps each kind to the schema keys of its fields; `names`
    renames a config field to the attribute of cls.  With `shorthand` a
    bare kind string stands for {"kind": k}.
    """

    def __init__(self, cls, kinds, names=None, shorthand=False):
        self.cls, self.kinds, self.names, self.shorthand = cls, kinds, names or {}, shorthand

    def __call__(self, raw):
        if self.shorthand and isinstance(raw, str):
            raw = {"kind": raw}
        if not isinstance(raw, dict):
            raise TypeError(f"expected an object, got {type(raw).__name__}")
        if "kind" not in raw:
            raise ValueError("missing required key 'kind'")
        kind = raw["kind"]
        if not isinstance(kind, str) or kind not in self.kinds:
            raise ValueError(f"unknown kind {kind!r}, expected one of {', '.join(self.kinds)}")

        def build(**values):
            return self.cls(kind, **{self.names.get(k, k): v for k, v in values.items()})

        given = {k: v for k, v in raw.items() if k != "kind"}
        return parse(given, Schema(build, self.kinds[kind]), f"kind {kind!r}")

    def echo(self, spec):
        """The config object of `spec`: its kind and every field that is set."""
        out = {"kind": spec.kind}
        for key in self.kinds[spec.kind]:
            val = getattr(spec, self.names.get(key, key))
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out


_MOBILITY = _Kind(MobilitySpec, {
    "power": {"n": (_real, _REQUIRED)},
    "navier_slip": {"lambda": (_real, _REQUIRED), "alpha": (_real, _REQUIRED)},
    "constant_one": {},
}, names={"lambda": "lam"}, shorthand=True)

_POTENTIAL = _Kind(PotentialSpec, {
    "zero": {},
    "quadratic": {"a": (_real, _REQUIRED)},
    "strong_singular": {"A": (_real, _REQUIRED)},
}, shorthand=True)

_INITIAL = _Kind(InitialDataSpec, {
    kind: _dataclass_keys(InitialDataSpec, names) for kind, names in {
        "constant": {"M"},
        "cosine": {"M", "amplitude", "mode"},
        "parabola": {"M"},
        "lifted_parabola": {"M", "delta"},
        "cos_bumps": {"background", "amplitude", "width", "centers"},
        "values": {"values"},
    }.items()
})

_GRID = Schema(Grid, {"L": (_real, 1.0), "N": (_integer, _REQUIRED)})

_STEP = Schema(StepParams, _dataclass_keys(StepParams))


def _run_config(grid, step, T, alpha, mobility, potential, sigma, record_every, initial):
    model = ModelParams(alpha=alpha, mobility=mobility, potential=potential, sigma=sigma)
    return RunConfig(grid=grid, model=model, step=step, T=T, record_every=record_every,
                     initial=initial)


_RUN = Schema(_run_config, {
    "grid": _GRID,
    "step": _STEP,
    "T": (_real, _REQUIRED),
    "alpha": (_real, _REQUIRED),
    "mobility": (_MOBILITY, _REQUIRED),
    "potential": (_POTENTIAL, _REQUIRED),
    "sigma": (_real_or_null, _REQUIRED),  # null: no barrier
    "record_every": (_integer, 1),
    "initial": (_INITIAL, InitialDataSpec("constant", M=1.0)),
})


def _audit_span(cfg, s_idx, t_idx):
    if t_idx is None:
        t_idx = cfg.n_steps
    if not 0 <= s_idx < t_idx <= cfg.n_steps:
        raise ConfigError(f"s_idx, t_idx: need 0 <= s_idx < t_idx <= {cfg.n_steps} "
                          f"(the number of steps), got {s_idx}, {t_idx}")
    return {"cfg": cfg, "s_idx": s_idx, "t_idx": t_idx}


def _liftoff_sweep(**values):
    ex.liftoff_configs(**values)  # the sweep's own checks, before any output
    return values


def _bb_action(g, u0, u1, **values):
    """The demo's arguments, with the endpoint heights built on g and checked."""
    u0, u1 = u0.build(g), u1.build(g)
    ex.bb_action_inputs(g, u0, u1, **values)  # before any output
    return dict(values, g=g, u0=u0, u1=u1)


def _point_lemma(**values):
    """The command's values, checked before any output."""
    for key, least in (("profiles", 1), ("modes", 1), ("seed", 0)):
        if values[key] < least:
            raise ValueError(f"{key} must be >= {least}, got {values[key]}")
    if not values["floor"] > 0.0:
        raise ValueError(f"floor must be positive, got {values['floor']}")
    return values


def _dissipation_bound(**values):
    ex.dissipation_inputs(values["deltas"], values["M"], values["n"], values["alpha"],
                          values["g"])  # the fit's own checks
    return values


# the checked values each command of the CLI takes
COMMAND_SCHEMAS = {
    "simulate": _RUN,
    "audit-ede": Schema(_audit_span, {
        "cfg": _RUN, "s_idx": (_integer, 0), "t_idx": (_integer, None),  # None: last step
    }),
    "rates": Schema(dict, {"cfg": _RUN, "tol_extinct": (_real, 1e-10)}),
    "sweep-liftoff": Schema(_liftoff_sweep, {
        "grid": _GRID, "step": _STEP, "T": (_real, _REQUIRED), "M": (_real, _REQUIRED),
        "n": (_real, _REQUIRED), "alpha": (_real, _REQUIRED), "deltas": (_reals, _REQUIRED),
        "record_every": (_integer, 1),
    }),
    "dissipation-bound": Schema(_dissipation_bound, {
        "g": _GRID, "M": (_real, _REQUIRED), "n": (_real, _REQUIRED),
        "alpha": (_real, _REQUIRED), "deltas": (_reals, _REQUIRED), "slope_tol": (_real, 0.15),
    }),
    "bb-action": Schema(_bb_action, {
        "g": _GRID, "u0": (_INITIAL, _REQUIRED), "u1": (_INITIAL, _REQUIRED),
        "eta": (_real, _REQUIRED), "M_sweep": (_reals, _REQUIRED), "n": (_real, _REQUIRED),
        "alpha": (_real, _REQUIRED), "stage_steps": (_integer, 48),
    }),
    "point-lemma": Schema(_point_lemma, {
        "grid": _GRID, "profiles": (_integer, 50), "seed": (_integer, 0),
        "modes": (_integer, 6), "floor": (_real, 0.1),
    }),
}


def parse_config(data):
    """Validate a simulate-style config dict into a RunConfig."""
    return parse(data, _RUN)


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
    model = cfg.model
    return {
        "L": cfg.grid.L,
        "N": cfg.grid.N,
        "T": cfg.T,
        "alpha": model.alpha,
        "mobility": _MOBILITY.echo(model.mobility),
        "potential": _POTENTIAL.echo(model.potential),
        "sigma": model.sigma,
        "record_every": cfg.record_every,
        "initial": _INITIAL.echo(cfg.initial),
        **{key: getattr(cfg.step, key) for key in _STEP.keys},
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
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    f = open(tmp, "x")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_lines(rows):
    """Each row as the CSV line `",".join(fmt(v) for v in row)`.

    A row is formatted by one `%` call on the template of its cell types,
    `%d` for an integer (or boolean) cell and `%.17g` for any other real
    one, which is the text `fmt` gives each cell.
    """
    templates = {}
    lines = []
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = ",".join(
                "%d" if issubclass(t, (int, np.integer)) else "%.17g" for t in types)
        lines.append(template % row)
    return lines


def write_csv(path, header, rows):
    with _atomic_text(path) as f:
        f.write("\n".join([header, *csv_lines(rows)]) + "\n")


def write_timeseries(series, outdir):
    """diagnostics.csv, per-snapshot u_t<stamp>.csv, summary.json, SVG plots."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    write_csv(outdir / "diagnostics.csv", DIAGNOSTICS_HEADER, series.diagnostics.tolist())

    # the x column is the same in every snapshot: format it once per run
    x = series.config.grid.cell_centers().tolist()
    snapshot = "x,u\n" + "".join(f"{xi:.17g},%.17g\n" for xi in x)
    h = series.config.step.h
    for k, u in series.snapshots.items():
        with _atomic_text(outdir / f"u_t{k * h:.9g}.csv") as f:
            f.write(snapshot % tuple(u.tolist()))

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


def line_plot_svg(path, xs, ys, xlabel, ylabel):
    """Bare-bones 640 x 400 polyline plot; no plotting dependency."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    width, height, pad = 640, 400, 50
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
