"""Command-line surface.

    tfilm <command> --config <path> --out <dir> [--break-lock]

Commands: simulate, sweep-liftoff, dissipation-bound, bb-action, rates,
audit-ede, point-lemma.  The config is checked against the command's
schema in `io.COMMAND_SCHEMAS` before anything runs, and the command
takes the checked values; point-lemma takes its random seed from the
config key "seed".  A command writes its artifacts and returns the
entries of its summary and its verdict; ``main`` writes `summary.json`
from them, with the command's name as "command".  simulate, audit-ede
and rates run their config and compute their report before they write
any artifact.  Exit code 0 means every audit in the command's
report passed, 2 means some audit failed (reports are still written),
1 means the command errored out; a failed command removes the output
directory if it made it and left it empty.  A directory locked by
another run is refused with exit 1; --break-lock removes a lock whose
recorded holder is no longer running, never one held by a live process.
"""

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiments as ex
from .driver import EnergyAuditError, audit_ede, run
from .io import (
    COMMAND_SCHEMAS,
    ConfigError,
    DirectoryLock,
    echo_config,
    parse,
    parse_config_file,
    write_csv,
    write_summary,
    write_timeseries,
)
from .step import StepNonconvergenceError

__all__ = ["main"]


def _simulate_report(series):
    cfg = series.config
    mass = series.column("mass")
    mass_scale = max(abs(mass[0]),
                     float(np.sum(np.abs(series.snapshots[0]))) * cfg.grid.dx, 1e-300)
    mass_ok = bool(np.all(np.abs(mass - mass[0]) <= 1e-13 * mass_scale))
    slack_ok = bool(np.all(series.column("ede_slack")[1:] >= -cfg.tol_audit))
    E = series.column("E_total")
    mono_ok = bool(np.all(np.diff(E) <= 1e-12 * (1.0 + np.abs(E[:-1]))))
    el_bound = cfg.el_bound
    el_ok = bool(np.all(series.column("el_residual")[1:] <= el_bound))
    return {
        "tolerances": {"tol_audit": cfg.tol_audit},
        "audits": {
            "mass_conserved": mass_ok,
            "ede_per_step": slack_ok,
            "energy_monotone": mono_ok,
            "el_residual_bounded": el_ok,
            "el_residual_bound": el_bound,
        },
    }, mass_ok and slack_ok and mono_ok and el_ok


def _run_and_write(cfg, outdir, report):
    """Run cfg, take report(series), its summary entries and verdict, and
    only then write the series; the entries gain the config's echo."""
    series = run(cfg)
    entries, ok = report(series)
    write_timeseries(series, outdir)
    return {"config": echo_config(cfg), **entries}, ok


def _cmd_simulate(cfg, outdir):
    return _run_and_write(cfg, outdir, _simulate_report)


def _cmd_audit_ede(values, outdir):
    def report(series):
        audit = audit_ede(series, values["s_idx"], values["t_idx"])
        return {"audit": asdict(audit)}, audit.ok

    return _run_and_write(values["cfg"], outdir, report)


def _cmd_rates(values, outdir):
    def report(series):
        fit = ex.rate_fit(series, values["cfg"].model.alpha, tol_extinct=values["tol_extinct"])
        return {"rates": {
            "classification": fit.classification,
            "rate": None if math.isnan(fit.rate) else fit.rate,
            "r_squared": fit.r_squared,
            "t_star": None if math.isinf(fit.t_star) else fit.t_star,
            "note": fit.note,
        }}, fit.classification != "inconclusive"

    return _run_and_write(values["cfg"], outdir, report)


def _cmd_sweep_liftoff(values, outdir):
    report = ex.liftoff_sweep(**values)
    write_csv(outdir / "liftoff.csv", "delta,t_half,energy_u0",
              [(d, math.nan if t is None else t, e)
               for d, t, e in zip(report.deltas, report.t_half, report.energies)])
    for i, (times, min_u) in enumerate(report.min_u_trajectories):
        write_csv(outdir / f"minu_delta{i}.csv", "t,min_u", zip(times, min_u))
    return {
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
    }, report.all_reached and report.uniform_ok and report.ordering_ok


def _cmd_dissipation_bound(values, outdir):
    report = ex.dissipation_scaling_fit(**values)
    write_csv(outdir / "dissipation.csv", "delta,D,f_lower",
              zip(report.deltas, report.values, report.lower_bound))
    return {
        "slope": report.slope,
        "target": report.target,
        "c_fit": report.c_fit,
        "n_cells": report.n_cells,
        "audits": {"slope_within_tol": report.slope_ok,
                   "lower_bound_positive": report.c_fit > 0.0},
    }, report.slope_ok and report.c_fit > 0.0


def _cmd_bb_action(values, outdir):
    report = ex.bb_action_demo(**values)
    write_csv(outdir / "bb_action.csv", "M,action,concentrate,transport,spread",
              [(M, a, s[0], s[1], s[2])
               for M, a, s in zip(report.M_values, report.actions, report.stage_actions)])
    ok = report.strictly_decreasing if report.degeneracy_expected else True
    return {
        "eta": report.eta,
        "M_values": list(report.M_values),
        "actions": list(report.actions),
        "final_over_initial": report.final_over_initial,
        "degeneracy_expected": report.degeneracy_expected,
        "audits": {"monotone_decreasing": report.strictly_decreasing,
                   "ok": ok},
    }, ok


def _cmd_point_lemma(values, outdir):
    grid, modes = values["grid"], values["modes"]
    rng = np.random.default_rng(values["seed"])
    x = grid.cell_centers()
    rows = []
    all_found = True
    for trial in range(values["profiles"]):
        coeffs = rng.standard_normal(modes) / np.arange(1, modes + 1) ** 1.5
        prof = sum(c * np.cos((k + 1) * np.pi * x / grid.L)
                   for k, c in enumerate(coeffs))
        prof = prof - prof.min() + values["floor"]
        w = ex.point_lemma_check(prof, grid)
        all_found &= w.found
        rows.append((trial, int(w.found), w.x0, w.grad_at, w.curv_product,
                     w.required_grad, w.required_curv, w.tol_fd))
    write_csv(outdir / "point_lemma.csv",
              "trial,found,x0,grad,curv_product,required_grad,required_curv,tol_fd",
              rows)
    return {
        "profiles": values["profiles"],
        "found": sum(r[1] for r in rows),
        "audits": {"all_found": all_found},
    }, all_found


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
        p.add_argument("--break-lock", action="store_true",
                       help="remove a lock left by a run that is no longer running")
    args = parser.parse_args(argv)

    outdir = Path(args.out)
    try:
        values = parse(parse_config_file(args.config), COMMAND_SCHEMAS[args.command])
        with DirectoryLock(outdir, break_stale=args.break_lock):
            entries, ok = _COMMANDS[args.command](values, outdir)
            write_summary(outdir, {"command": args.command, **entries})
    except (ConfigError, StepNonconvergenceError, EnergyAuditError,
            RuntimeError, ValueError, OSError, MemoryError) as exc:
        print(f"tfilm: error: {exc}", file=sys.stderr)
        return 1
    if not ok:
        print("tfilm: audits failed (reports written)", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
