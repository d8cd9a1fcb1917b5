"""Command-line surface.

    tfilm <command> --config <path> --out <dir> [--threads K] [--seed S] [--break-lock]

Commands: simulate, sweep-liftoff, dissipation-bound, bb-action, rates,
audit-ede, point-lemma.  Exit code 0 means every audit in the command's
report passed, 2 means some audit failed (reports are still written),
1 means the command errored out.  A directory locked by another run is
refused with exit 1; --break-lock removes a lock whose recorded holder is
no longer running, never one held by a live process.
"""

import argparse
import math
import sys

import numpy as np

from . import experiments as ex
from .driver import EnergyAuditError, audit_ede, run
from .grid import Grid
from .io import (
    STEP_KEYS,
    ConfigError,
    DirectoryLock,
    _reject_unknown,
    _require,
    echo_config,
    parse_config,
    parse_config_file,
    parse_step,
    write_csv,
    write_summary,
    write_timeseries,
)
from .step import StepNonconvergenceError

__all__ = ["main"]


def _simulate_audits(series):
    cfg = series.config
    mass0 = series.diagnostics[0].mass
    u0 = series.snapshots[0.0]
    mass_scale = max(abs(mass0),
                     float(np.sum(np.abs(u0))) * cfg.grid.dx, 1e-300)
    mass_ok = all(abs(d.mass - mass0) <= 1e-13 * mass_scale for d in series.diagnostics)
    slack_ok = all(d.ede_slack >= -cfg.tol_audit for d in series.diagnostics[1:])
    E = series.column("E_total")
    mono_ok = bool(np.all(np.diff(E) <= 1e-12 * (1.0 + np.abs(E[:-1]))))
    p = cfg.model.p
    el_bound = 100.0 * (cfg.step.tol_grad + cfg.step.eps_min ** (p - 1.0))
    el_ok = all(d.el_residual <= el_bound for d in series.diagnostics[1:])
    return {
        "mass_conserved": mass_ok,
        "ede_per_step": slack_ok,
        "energy_monotone": mono_ok,
        "el_residual_bounded": el_ok,
        "el_residual_bound": el_bound,
    }


def _cmd_simulate(data, outdir, threads, seed):
    cfg = parse_config(data)
    series = run(cfg)
    write_timeseries(series, outdir)
    audits = _simulate_audits(series)
    write_summary(outdir, {
        "command": "simulate",
        "config": echo_config(cfg),
        "tolerances": {"tol_audit": cfg.tol_audit},
        "audits": audits,
    })
    return all(v for k, v in audits.items() if isinstance(v, bool))


def _cmd_audit_ede(data, outdir, threads, seed):
    extra = {k: data.pop(k) for k in ("s_idx", "t_idx") if k in data}
    cfg = parse_config(data)
    series = run(cfg)
    s_idx = int(extra.get("s_idx", 0))
    t_idx = int(extra.get("t_idx", len(series.diagnostics) - 1))
    report = audit_ede(series, s_idx, t_idx)
    write_timeseries(series, outdir)
    write_summary(outdir, {
        "command": "audit-ede",
        "config": echo_config(cfg),
        "audit": {
            "s_idx": report.s_idx,
            "t_idx": report.t_idx,
            "slack": report.slack,
            "equality_defect": report.equality_defect,
            "tol": report.tol,
            "ok": report.ok,
        },
    })
    return report.ok


def _cmd_rates(data, outdir, threads, seed):
    tol_extinct = float(data.pop("tol_extinct", 1e-10))
    cfg = parse_config(data)
    series = run(cfg)
    report = ex.rate_fit(series, cfg.model.alpha, tol_extinct=tol_extinct)
    write_timeseries(series, outdir)
    write_summary(outdir, {
        "command": "rates",
        "config": echo_config(cfg),
        "rates": {
            "classification": report.classification,
            "rate": None if math.isnan(report.rate) else report.rate,
            "r_squared": report.r_squared,
            "t_star": None if math.isinf(report.t_star) else report.t_star,
            "note": report.note,
        },
    })
    return report.classification != "inconclusive"


_LIFTOFF_KEYS = {"L", "N", "T", "M", "n", "alpha", "deltas", "record_every"} | STEP_KEYS


def _cmd_sweep_liftoff(data, outdir, threads, seed):
    _reject_unknown(data, _LIFTOFF_KEYS, "liftoff config")
    n = float(_require(data, "n", "liftoff config"))
    alpha = float(_require(data, "alpha", "liftoff config"))
    if 2.0 * (alpha + 1.0) <= n:
        raise ConfigError(
            f"lift-off requires 2(alpha+1) > n; got alpha={alpha}, n={n}"
        )
    grid = Grid(L=float(data.get("L", 1.0)), N=int(_require(data, "N", "liftoff config")))
    step = parse_step(data, "liftoff config")
    report = ex.liftoff_sweep(
        deltas=_require(data, "deltas", "liftoff config"),
        M=float(_require(data, "M", "liftoff config")),
        n=n,
        alpha=alpha,
        grid=grid,
        step=step,
        T=float(_require(data, "T", "liftoff config")),
        record_every=int(data.get("record_every", 1)),
        threads=threads,
    )
    write_csv(outdir / "liftoff.csv", "delta,t_half,energy_u0",
              [(d, math.nan if t is None else t, e)
               for d, t, e in zip(report.deltas, report.t_half, report.energies)])
    for i, (times, min_u) in enumerate(report.min_u_trajectories):
        write_csv(outdir / f"minu_delta{i}.csv", "t,min_u", zip(times, min_u))
    write_summary(outdir, {
        "command": "sweep-liftoff",
        "deltas": list(report.deltas),
        "sigma": report.sigma,
        "t_half": [None if t is None else t for t in report.t_half],
        "t0_hat": None if math.isinf(report.t0_hat) else report.t0_hat,
        "median_t_half": None if math.isinf(report.median_t_half) else report.median_t_half,
        "energy_v": report.energy_v,
        "energies": list(report.energies),
        "audits": {
            "all_reached": report.all_reached,
            "uniform": report.uniform_ok,
            "energy_ordering": report.ordering_ok,
        },
    })
    return report.all_reached and report.uniform_ok and report.ordering_ok


_DISS_KEYS = {"L", "N", "M", "n", "alpha", "deltas", "slope_tol"}


def _cmd_dissipation_bound(data, outdir, threads, seed):
    _reject_unknown(data, _DISS_KEYS, "dissipation config")
    grid = Grid(L=float(data.get("L", 1.0)), N=int(_require(data, "N", "dissipation config")))
    report = ex.dissipation_scaling_fit(
        deltas=_require(data, "deltas", "dissipation config"),
        M=float(_require(data, "M", "dissipation config")),
        n=float(_require(data, "n", "dissipation config")),
        alpha=float(_require(data, "alpha", "dissipation config")),
        g=grid,
        slope_tol=float(data.get("slope_tol", 0.15)),
    )
    write_csv(outdir / "dissipation.csv", "delta,D,f_lower",
              zip(report.deltas, report.values, report.lower_bound))
    write_summary(outdir, {
        "command": "dissipation-bound",
        "slope": report.slope,
        "target": report.target,
        "c_fit": report.c_fit,
        "n_cells": report.n_cells,
        "audits": {"slope_within_tol": report.slope_ok,
                   "lower_bound_positive": report.c_fit > 0.0},
    })
    return report.slope_ok and report.c_fit > 0.0


_BB_KEYS = {"L", "N", "eta", "M_sweep", "n", "alpha", "u0", "u1", "stage_steps"}


def _cmd_bb_action(data, outdir, threads, seed):
    from .io import _parse_initial

    _reject_unknown(data, _BB_KEYS, "bb-action config")
    grid = Grid(L=float(data.get("L", 1.0)), N=int(_require(data, "N", "bb config")))
    u0 = _parse_initial(_require(data, "u0", "bb config")).build(grid)
    u1 = _parse_initial(_require(data, "u1", "bb config")).build(grid)
    report = ex.bb_action_demo(
        grid, u0, u1,
        eta=float(_require(data, "eta", "bb config")),
        M_sweep=_require(data, "M_sweep", "bb config"),
        n=float(_require(data, "n", "bb config")),
        alpha=float(_require(data, "alpha", "bb config")),
        stage_steps=int(data.get("stage_steps", 48)),
    )
    write_csv(outdir / "bb_action.csv", "M,action,concentrate,transport,spread",
              [(M, a, s[0], s[1], s[2])
               for M, a, s in zip(report.M_values, report.actions, report.stage_actions)])
    ok = report.strictly_decreasing if report.degeneracy_expected else True
    write_summary(outdir, {
        "command": "bb-action",
        "eta": report.eta,
        "M_values": list(report.M_values),
        "actions": list(report.actions),
        "final_over_initial": report.final_over_initial,
        "degeneracy_expected": report.degeneracy_expected,
        "audits": {"monotone_decreasing": report.strictly_decreasing,
                   "ok": ok},
    })
    return ok


_POINT_KEYS = {"L", "N", "profiles", "seed", "modes", "floor", "amplitude"}


def _cmd_point_lemma(data, outdir, threads, seed):
    _reject_unknown(data, _POINT_KEYS, "point-lemma config")
    grid = Grid(L=float(data.get("L", 1.0)), N=int(_require(data, "N", "point config")))
    n_profiles = int(data.get("profiles", 50))
    modes = int(data.get("modes", 6))
    floor = float(data.get("floor", 0.1))
    rng = np.random.default_rng(seed if seed is not None else int(data.get("seed", 0)))
    x = grid.cell_centers()
    rows = []
    all_found = True
    for trial in range(n_profiles):
        coeffs = rng.standard_normal(modes) / np.arange(1, modes + 1) ** 1.5
        prof = sum(c * np.cos((k + 1) * np.pi * x / grid.L)
                   for k, c in enumerate(coeffs))
        prof = prof - prof.min() + floor
        w = ex.point_lemma_check(prof, grid)
        all_found &= w.found
        rows.append((trial, int(w.found), w.x0, w.grad_at, w.curv_product,
                     w.required_grad, w.required_curv, w.tol_fd))
    write_csv(outdir / "point_lemma.csv",
              "trial,found,x0,grad,curv_product,required_grad,required_curv,tol_fd",
              rows)
    write_summary(outdir, {
        "command": "point-lemma",
        "profiles": n_profiles,
        "found": sum(r[1] for r in rows),
        "audits": {"all_found": all_found},
    })
    return all_found


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep-liftoff": _cmd_sweep_liftoff,
    "dissipation-bound": _cmd_dissipation_bound,
    "bb-action": _cmd_bb_action,
    "rates": _cmd_rates,
    "audit-ede": _cmd_audit_ede,
    "point-lemma": _cmd_point_lemma,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tfilm",
        description="1D power-law thin-film simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--break-lock", action="store_true",
                       help="remove a lock left by a run that is no longer running")
    args = parser.parse_args(argv)

    from pathlib import Path

    try:
        data = parse_config_file(args.config)
        outdir = Path(args.out)
        with DirectoryLock(outdir, break_stale=args.break_lock):
            outdir.mkdir(parents=True, exist_ok=True)
            ok = _COMMANDS[args.command](data, outdir, args.threads, args.seed)
    except (ConfigError, StepNonconvergenceError, EnergyAuditError,
            RuntimeError, ValueError) as exc:
        print(f"tfilm: error: {exc}", file=sys.stderr)
        return 1
    if not ok:
        print("tfilm: audits failed (reports written)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
