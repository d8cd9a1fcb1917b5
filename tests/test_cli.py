import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfilm.cli
import tfilm.experiments
import tfilm.step
from tfilm.cli import main
from tfilm.driver import InitialDataSpec, RunConfig, run
from tfilm.grid import Grid
from tfilm.io import (
    COMMAND_SCHEMAS,
    DIAGNOSTICS_HEADER,
    ConfigError,
    DirectoryLock,
    config_keys,
    csv_lines,
    echo_config,
    fmt,
    line_plot_svg,
    parse,
    parse_config,
    parse_config_file,
    write_csv,
    write_summary,
    write_timeseries,
)
from tfilm.models import ModelParams, power_mobility, zero_potential
from tfilm.step import StepParams

MINIMAL = {
    "L": 1, "N": 128, "h": 1e-4, "T": 0.1, "alpha": 1,
    "mobility": {"kind": "power", "n": 3}, "potential": "zero", "sigma": 0.01,
}


def test_parse_minimal_config():
    cfg = parse_config(dict(MINIMAL))
    assert cfg.grid.N == 128
    assert cfg.model.alpha == 1.0
    assert cfg.model.mobility.kind == "power"
    assert cfg.model.sigma == 0.01


def test_sigma_out_of_range():
    bad = dict(MINIMAL, sigma=1.5)
    with pytest.raises(ConfigError, match="sigma must be in \\(0,1\\)"):
        parse_config(bad)


def test_unknown_key_rejected():
    bad = dict(MINIMAL, sigm=0.01)
    with pytest.raises(ConfigError, match="sigm"):
        parse_config(bad)


def test_alpha_and_h_validation():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(dict(MINIMAL, alpha=-1))
    with pytest.raises(ConfigError, match="h must be positive"):
        parse_config(dict(MINIMAL, h=0))


def test_step_key_of_wrong_type_rejected():
    with pytest.raises(ConfigError, match="NoneType"):
        parse_config(dict(MINIMAL, eps0=None))


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n "L": 1,\n "N": }\n')
    with pytest.raises(ConfigError, match="broken.json:3"):
        parse_config_file(p)


def test_config_round_trip():
    cfg = parse_config(dict(MINIMAL, initial={"kind": "cosine", "M": 1.0,
                                              "amplitude": 0.25, "mode": 2}))
    echoed = echo_config(cfg)
    cfg2 = parse_config(json.loads(json.dumps(echoed)))
    assert echo_config(cfg2) == echoed


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(100) * 10.0 ** rng.integers(-12, 12, 100):
        assert float(fmt(x)) == x


def small_series(T=5e-4, initial=None, N=32, record_every=2):
    model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                        potential=zero_potential(), sigma=0.05)
    cfg = RunConfig(grid=Grid(1.0, N), model=model,
                    step=StepParams(h=1e-4, tol_grad=1e-8), T=T,
                    record_every=record_every,
                    initial=initial or InitialDataSpec("cosine", M=1.0,
                                                       amplitude=0.2, mode=1))
    return run(cfg)


def test_write_timeseries_layout(tmp_path):
    s = small_series()
    write_timeseries(s, tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == ("t,mass,min_u,max_u,E_dirichlet,E_potential,E_total,"
                        "diss_flux,diss_strong,ede_slack,el_residual,newton_iters")
    assert len(lines) == 1 + len(s.diagnostics)  # header + steps + initial row
    snaps = sorted(tmp_path.glob("u_t*.csv"))
    assert len(snaps) == len(s.snapshots)
    assert (tmp_path / "energy.svg").exists()
    assert (tmp_path / "minu.svg").exists()


def test_written_floats_round_trip(tmp_path):
    s = small_series()
    write_timeseries(s, tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    for line, d in zip(lines, s.diagnostics):
        vals = line.split(",")
        assert float(vals[0]) == d.t
        assert float(vals[6]) == d.E_total
        assert float(vals[9]) == d.ede_slack


def test_constant_run_constant_energy_column(tmp_path):
    s = small_series(initial=InitialDataSpec("constant", M=1.0))
    write_timeseries(s, tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    etot = {line.split(",")[6] for line in lines}
    assert len(etot) == 1


@pytest.mark.parametrize("value", [1e300, 2.0**53, -(2.0**54)])
def test_a_constant_plot_series_gets_finite_coordinates(tmp_path, value):
    # a zero span padded by 1 is lost in the rounding of a value this large
    path = tmp_path / "plot.svg"
    line_plot_svg(path, [value] * 3, [value] * 3, "x", "y")
    points = re.search(r'points="([^"]*)"', path.read_text()).group(1)
    coords = [float(c) for point in points.split() for c in point.split(",")]
    assert len(coords) == 6 and all(math.isfinite(c) for c in coords)


def test_rerun_byte_reproduces(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_timeseries(small_series(), a)
    write_timeseries(small_series(), b)
    assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()


# ---------------------------------------------------------------------------
# the template writers against the `fmt` rule

def reference_csv(header, rows):
    """CSV text with every cell serialised by its own `fmt` call."""
    return "\n".join([header] + [",".join(fmt(v) for v in row) for row in rows]) + "\n"


def reference_write_timeseries(series, outdir):
    """write_timeseries as one `fmt` call per cell and a plain write per file."""
    outdir.mkdir()
    rows = [[getattr(d, k) for k in DIAGNOSTICS_HEADER.split(",")] for d in series.diagnostics]
    (outdir / "diagnostics.csv").write_text(reference_csv(DIAGNOSTICS_HEADER, rows))
    x = series.config.grid.cell_centers()
    for k, u in series.snapshots.items():
        t = k * series.config.step.h
        (outdir / f"u_t{t:.9g}.csv").write_text(reference_csv("x,u", zip(x, u)))
    line_plot_svg(outdir / "energy.svg", series.times, series.column("E_total"), "t", "E_total")
    line_plot_svg(outdir / "minu.svg", series.times, series.column("min_u"), "t", "min_u")


def tree_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("series", [small_series, lambda: small_series(T=1e-3, N=37,
                                                                       record_every=3)],
                         ids=["small", "N37-every3"])
def test_write_timeseries_matches_fmt_reference(tmp_path, series):
    s = series()
    write_timeseries(s, tmp_path / "new")
    reference_write_timeseries(s, tmp_path / "ref")
    written = tree_bytes(tmp_path / "new")
    assert written == tree_bytes(tmp_path / "ref")
    assert len(written) == 1 + len(s.snapshots) + 2


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


INT64 = st.integers(-(2**63), 2**63 - 1)
CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_to_float),  # any 64-bit pattern, nan payloads too
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308,
                     10**17 - 1, 2**63 - 1, -(2**63), np.int64(10**17 - 1)]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    INT64,
    INT64.map(np.int64),
    st.booleans(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(CELLS, max_size=12), max_size=8))
def test_csv_lines_match_fmt(rows):
    assert csv_lines(rows) == [",".join(fmt(v) for v in row) for row in rows]


def test_command_csvs_match_fmt_reference(tmp_path, monkeypatch):
    reports = {}

    def record(name):
        fn = getattr(tfilm.experiments, name)

        def wrapper(*args, **kwargs):
            reports.setdefault(name, []).append(fn(*args, **kwargs))
            return reports[name][-1]

        monkeypatch.setattr(tfilm.experiments, name, wrapper)

    for name in ("liftoff_sweep", "bb_action_demo", "point_lemma_check"):
        record(name)
    for command, cfg in [("sweep-liftoff", NO_LIFTOFF), ("bb-action", VALID_CONFIGS["bb-action"]),
                         ("point-lemma", {"N": 64, "profiles": 3, "seed": 3})]:
        p = write_json(tmp_path / f"{command}.json", cfg)
        assert main([command, "--config", str(p), "--out", str(tmp_path / command)]) in (0, 2)

    (lift,), (bb,), witnesses = (reports[k] for k in ("liftoff_sweep", "bb_action_demo",
                                                      "point_lemma_check"))
    expected = {
        "sweep-liftoff/liftoff.csv": reference_csv(
            "delta,t_half,energy_u0",
            [(d, math.nan if t is None else t, e)
             for d, t, e in zip(lift.deltas, lift.t_half, lift.energies)]),
        **{f"sweep-liftoff/minu_delta{i}.csv": reference_csv("t,min_u", zip(times, min_u))
           for i, (times, min_u) in enumerate(lift.min_u_trajectories)},
        "bb-action/bb_action.csv": reference_csv(
            "M,action,concentrate,transport,spread",
            [(M, a, *s) for M, a, s in zip(bb.M_values, bb.actions, bb.stage_actions)]),
        "point-lemma/point_lemma.csv": reference_csv(
            "trial,found,x0,grad,curv_product,required_grad,required_curv,tol_fd",
            [(i, int(w.found), w.x0, w.grad_at, w.curv_product, w.required_grad,
              w.required_curv, w.tol_fd) for i, w in enumerate(witnesses)]),
    }
    assert "nan" in expected["sweep-liftoff/liftoff.csv"]  # no member lifted off
    for name, text in expected.items():
        assert (tmp_path / name).read_text() == text, name
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/*.csv")}
    assert written == set(expected)


def test_directory_lock(tmp_path):
    with DirectoryLock(tmp_path):
        with pytest.raises(RuntimeError, match="locked"):
            with DirectoryLock(tmp_path):
                pass
    # released on exit
    with DirectoryLock(tmp_path):
        pass


def test_diagnostics_bytes_unchanged_by_atomic_write(tmp_path):
    s = small_series()
    write_timeseries(s, tmp_path)
    rows = [",".join(fmt(getattr(d, k)) for k in DIAGNOSTICS_HEADER.split(","))
            for d in s.diagnostics]
    expected = "\n".join([DIAGNOSTICS_HEADER] + rows) + "\n"
    assert (tmp_path / "diagnostics.csv").read_bytes() == expected.encode()
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_failed_writes_leave_no_partial_file(tmp_path, monkeypatch):
    def rows():
        yield (1.0, 2.0)
        raise OSError("disk full")

    target = tmp_path / "a.csv"
    with pytest.raises(OSError, match="disk full"):
        write_csv(target, "x,y", rows())
    assert list(tmp_path.iterdir()) == []

    # a failed rewrite keeps the previous file whole
    write_csv(target, "x,y", [(1.0, 2.0)])
    before = target.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        write_csv(target, "x,y", rows())
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]

    with pytest.raises(ValueError):
        write_summary(tmp_path, {"value": float("nan")})
    assert list(tmp_path.iterdir()) == [target]

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_summary(tmp_path, {"value": 1.0})
    assert list(tmp_path.iterdir()) == [target]


def dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_lock_refusal_names_holder(tmp_path):
    lock = tmp_path / ".tfilm.lock"
    lock.write_text(str(os.getpid()))
    with pytest.raises(RuntimeError, match=f"holder PID {os.getpid()} is alive"):
        with DirectoryLock(tmp_path):
            pass
    pid = dead_pid()
    lock.write_text(str(pid))
    with pytest.raises(RuntimeError, match=f"holder PID {pid} is not running.*--break-lock"):
        with DirectoryLock(tmp_path):
            pass
    lock.write_text("")
    with pytest.raises(RuntimeError, match="no valid holder PID"):
        with DirectoryLock(tmp_path):
            pass
    assert lock.read_text() == ""


def test_break_lock_removes_only_stale_locks(tmp_path):
    lock = tmp_path / ".tfilm.lock"
    lock.write_text(str(dead_pid()))
    with DirectoryLock(tmp_path, break_stale=True):
        assert lock.read_text() == str(os.getpid())
    assert not lock.exists()
    lock.write_text(str(2**70))  # beyond any platform's PID range
    with DirectoryLock(tmp_path, break_stale=True):
        pass
    for content in (str(os.getpid()), str(os.getppid()), "garbage", "0", "-1"):
        lock.write_text(content)
        with pytest.raises(RuntimeError, match="locked"):
            with DirectoryLock(tmp_path, break_stale=True):
                pass
        assert lock.read_text() == content


def test_cli_break_lock(tmp_path):
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=48, T=2e-4, tol_grad=1e-8))
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".tfilm.lock"
    lock.write_text(str(os.getpid()))
    assert main(["simulate", "--config", str(p), "--out", str(out), "--break-lock"]) == 1
    assert lock.read_text() == str(os.getpid())
    lock.write_text(str(dead_pid()))
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert main(["simulate", "--config", str(p), "--out", str(out), "--break-lock"]) == 0
    assert not lock.exists()
    assert (out / "diagnostics.csv").exists()


# ---------------------------------------------------------------------------
# end-to-end CLI

def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


def test_cli_simulate_end_to_end(tmp_path):
    cfg = dict(MINIMAL, N=48, T=0.001, tol_grad=1e-8,
               initial={"kind": "cosine", "M": 1.0, "amplitude": 0.2, "mode": 1})
    p = write_json(tmp_path / "sim.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["audits"]["mass_conserved"]
    assert summary["audits"]["ede_per_step"]
    assert not (out / ".tfilm.lock").exists()
    # re-parse of the echoed config reproduces it
    assert echo_config(parse_config(summary["config"])) == summary["config"]


def test_cli_bad_config_exit_1(tmp_path, capsys):
    audit = dict(MINIMAL, T=5e-4)  # 5 steps
    point = {"N": 64, "profiles": 2}
    bb = VALID_CONFIGS["bb-action"]
    cases = [
        ("simulate", dict(MINIMAL, sigma=1.5), "sigma must be in (0,1)"),
        # T must be a whole number of steps: 2.5 steps would run to t = 3e-4
        ("simulate", dict(MINIMAL, T=2.5e-4), "T must be a whole number"),
        ("simulate", dict(MINIMAL, T=0.5e-4), "T must be a whole number"),
        ("simulate", dict(MINIMAL, initial={"kind": "cosine", "mode": 1.5}), "initial: mode:"),
        ("simulate", dict(MINIMAL, initial={"kind": "constant", "M": "2"}), "initial: M:"),
        ("simulate", dict(MINIMAL, mobility={"kind": "power", "n": True}), "mobility: n:"),
        ("simulate", dict(MINIMAL, initial={"kind": "lifted_parabola", "M": 0, "delta": 0.1}),
         "initial: lifted_parabola M must be positive"),
        ("audit-ede", dict(audit, t_idx=99), "s_idx, t_idx:"),
        ("audit-ede", dict(audit, s_idx=3, t_idx=2), "s_idx, t_idx:"),
        ("audit-ede", dict(audit, s_idx=-1), "s_idx, t_idx:"),
        ("audit-ede", dict(audit, t_idx=2.5), "t_idx:"),
        ("audit-ede", dict(audit, s_idx=True), "s_idx:"),
        ("point-lemma", dict(point, seed=1.5), "seed:"),
        ("point-lemma", dict(point, profiles=True), "profiles:"),
        ("point-lemma", dict(point, modes=6.5), "modes:"),
        ("bb-action", dict(bb, stage_steps=48.5), "stage_steps:"),
        ("bb-action", dict(bb, M_sweep=[1, "2"]), "M_sweep:"),
        ("sweep-liftoff", dict(NO_LIFTOFF, record_every=False), "record_every:"),
        ("sweep-liftoff", dict(NO_LIFTOFF, deltas=0.1), "deltas:"),
        ("rates", dict(MINIMAL, tol_extinct="1e-10"), "tol_extinct:"),
    ]
    for i, (command, cfg, message) in enumerate(cases):
        p = write_json(tmp_path / f"bad{i}.json", cfg)
        assert main([command, "--config", str(p), "--out", str(tmp_path / f"o{i}")]) == 1
        err = capsys.readouterr().err
        assert f"tfilm: error: {message}" in err, (command, cfg, err)
        assert not (tmp_path / f"o{i}").exists()  # refused before the run


def test_cli_liftoff_hypothesis_exit_1(tmp_path):
    cfg = {"N": 64, "h": 1e-5, "T": 1e-4, "M": 1.0, "n": 5.0, "alpha": 1.0,
           "deltas": [0.1]}
    p = write_json(tmp_path / "lift.json", cfg)
    assert main(["sweep-liftoff", "--config", str(p), "--out",
                 str(tmp_path / "o")]) == 1


def test_cli_locked_directory_exit_1(tmp_path):
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=48, T=2e-4, tol_grad=1e-8))
    out = tmp_path / "out"
    out.mkdir()
    (out / ".tfilm.lock").write_text("123")
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_cli_out_through_a_file_exit_1(tmp_path, capsys, out):
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=48, T=2e-4, tol_grad=1e-8))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert "tfilm: error:" in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory"


def test_cli_failed_artifact_write_exit_1(tmp_path, capsys, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=48, T=2e-4, tol_grad=1e-8))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert "tfilm: error: disk full" in capsys.readouterr().err
    assert not (out / ".tfilm.lock").exists()


def test_cli_run_too_long_to_record_exit_1(tmp_path, capsys):
    # 1e13 steps need a 873 TiB record, more than the address space holds, so
    # numpy refuses the allocation before it touches any memory
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=8, h=1e-13, T=1.0))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "tfilm: error: Unable to allocate" in err
    assert "Traceback" not in err
    assert not out.exists()


# a cell of 1e-30 under the barrier: Newton reaches its cap in step 1
THIN_CELL = dict(MINIMAL, N=8, h=1e-4, T=1e-4, mobility={"kind": "power", "n": 2},
                 initial={"kind": "values", "values": [1e-30] + [1] * 7})


@pytest.mark.parametrize("steps", [dict(h=1e-4, T=1e-4), dict(h=1e-13, T=1.0)],
                         ids=["newton-cap", "record-too-large"])
def test_cli_failure_removes_the_empty_directories_it_made(tmp_path, capsys, steps):
    p = write_json(tmp_path / "sim.json", dict(THIN_CELL, **steps))
    out = tmp_path / "new" / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert "tfilm: error:" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    # a directory that existed before the run is kept
    out.mkdir(parents=True)
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


# without a barrier a film can reach a non-positive cell, where the face
# mobility of an interior face vanishes
DRYING_DROP = {"N": 32, "T": 0.05, "h": 1e-4, "alpha": 1, "mobility": {"kind": "power", "n": 1},
               "potential": "zero", "sigma": None,
               "initial": {"kind": "cos_bumps", "background": 1e-3, "amplitude": 1,
                           "width": 0.2, "centers": [0.5]}}


@pytest.mark.parametrize("background, step", [(1e-3, "step 2 (t = 0.0002)"),
                                              (0, "step 1 (t = 0.0001)")])
def test_cli_vanishing_face_mobility_names_its_step(tmp_path, capsys, background, step):
    cfg = dict(DRYING_DROP, initial=dict(DRYING_DROP["initial"], background=background))
    p = write_json(tmp_path / "sim.json", cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"tfilm: error: {step} failed: mobility vanishes on an "
                                       "interior face; step is ill-posed\n")
    assert not out.exists()


def test_cli_failure_keeps_a_directory_it_made_that_holds_a_file(tmp_path, monkeypatch):
    def failing_summary(outdir, data):
        raise OSError("disk full")

    monkeypatch.setattr(tfilm.cli, "write_summary", failing_summary)
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=8, T=2e-4))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert (out / "diagnostics.csv").exists()
    assert not (out / ".tfilm.lock").exists()


@pytest.mark.parametrize("sweep", [[], [2, 0]])
def test_cli_bb_action_bad_sweep_exit_1(tmp_path, capsys, sweep):
    bump = {"kind": "cos_bumps", "background": 0.1, "amplitude": 1.0, "width": 0.05}
    cfg = {"N": 64, "eta": 0.25, "M_sweep": sweep, "n": 2.0, "alpha": 1.0,
           "u0": dict(bump, centers=[0.3]), "u1": dict(bump, centers=[0.7])}
    p = write_json(tmp_path / "bb.json", cfg)
    assert main(["bb-action", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "tfilm: error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # refused before the run


def test_cli_point_lemma(tmp_path):
    p = write_json(tmp_path / "pl.json", {"N": 256, "profiles": 10, "seed": 3})
    out = tmp_path / "out"
    assert main(["point-lemma", "--config", str(p), "--out", str(out)]) == 0
    rows = (out / "point_lemma.csv").read_text().splitlines()
    assert len(rows) == 11


def test_cli_dissipation_bound(tmp_path):
    cfg = {"N": 40000, "M": 1.0, "n": 2.0, "alpha": 1.0,
           "deltas": list(np.geomspace(0.1, 8e-4, 7))}
    p = write_json(tmp_path / "d.json", cfg)
    out = tmp_path / "out"
    assert main(["dissipation-bound", "--config", str(p), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["audits"]["slope_within_tol"]


def test_cli_audit_ede(tmp_path):
    cfg = dict(MINIMAL, N=48, T=5e-4, tol_grad=1e-8,
               initial={"kind": "cosine", "M": 1.0, "amplitude": 0.2, "mode": 1},
               s_idx=0, t_idx=5)
    p = write_json(tmp_path / "a.json", cfg)
    out = tmp_path / "out"
    assert main(["audit-ede", "--config", str(p), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["audit"]["ok"]


def test_cli_rates_inconclusive_exit_2(tmp_path):
    # run far too short to classify: audits fail but reports are written
    cfg = dict(MINIMAL, N=48, T=3e-4, h=1e-4, tol_grad=1e-8, sigma=0.001,
               initial={"kind": "lifted_parabola", "M": 1.0, "delta": 0.01})
    p = write_json(tmp_path / "r.json", cfg)
    out = tmp_path / "out"
    assert main(["rates", "--config", str(p), "--out", str(out)]) == 2
    assert (out / "summary.json").exists()


# a sweep in which no member lifts off before T
NO_LIFTOFF = {"N": 64, "h": 1e-5, "T": 2e-5, "M": 1.0, "n": 2, "alpha": 1,
              "deltas": [0.1, 0.01]}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_liftoff_unreached_writes_standard_json(tmp_path):
    p = write_json(tmp_path / "lift.json", NO_LIFTOFF)
    out = tmp_path / "out"
    assert main(["sweep-liftoff", "--config", str(p), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert summary["t0_hat"] is None
    assert summary["median_t_half"] is None
    assert summary["t_half"] == [None, None]


def test_cli_liftoff_step_keys_validated(tmp_path, capsys):
    p = write_json(tmp_path / "bad.json", dict(NO_LIFTOFF, eps_min=0.5))
    assert main(["sweep-liftoff", "--config", str(p), "--out", str(tmp_path / "o1")]) == 1
    assert "tfilm: error: need 0 < eps_min <= eps0" in capsys.readouterr().err
    p = write_json(tmp_path / "ok.json", dict(NO_LIFTOFF, max_newton=60))
    assert main(["sweep-liftoff", "--config", str(p), "--out", str(tmp_path / "o2")]) == 2


# sigma: null is valid (no barrier), so sigma gets a non-numeric value instead
@pytest.mark.parametrize("key,value", [
    ("N", None), ("L", None), ("alpha", None), ("T", None), ("record_every", None),
    ("sigma", [0.01]),
    # integer keys refuse non-integral values and booleans; real keys refuse
    # booleans and strings
    ("N", 32.7), ("N", True), ("record_every", 1.5), ("max_newton", 2.5),
    ("alpha", True), ("alpha", "1"), ("h", False), ("sigma", "0.01"),
    # JSON parses NaN, Infinity and -Infinity; real keys refuse them
    *((key, value) for key in ("alpha", "L", "h", "tol_grad", "T")
      for value in (math.nan, math.inf, -math.inf)),
])
def test_cli_non_numeric_config_value_exit_1(tmp_path, capsys, key, value):
    p = write_json(tmp_path / "bad.json", dict(MINIMAL, **{key: value}))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert f"tfilm: error: {key}:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [("rho", 0.1), ("armijo_c", 1e-4), ("tau_boundary", 0.9)])
def test_cli_fixed_step_constant_is_unknown_key(tmp_path, capsys, key, value):
    # the ladder ratio and Armijo constant are fixed by the scheme; the line
    # search has no fraction-to-boundary factor, and that key is refused too
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, **{key: value}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"tfilm: error: unknown key(s) in config: {key}" in err
    assert "Traceback" not in err
    assert not out.exists()


BUMP_AT_HALF = {"kind": "cos_bumps", "background": 0.5, "amplitude": 0.5, "centers": [0.5]}


@pytest.mark.parametrize("N,width", [(32, None), (33, None), (32, -0.1)])
def test_cli_cos_bumps_width_must_be_positive(tmp_path, capsys, N, width):
    initial = BUMP_AT_HALF if width is None else dict(BUMP_AT_HALF, width=width)
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=N, T=2e-4, initial=initial))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "tfilm: error: initial: cos_bumps width must be positive" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_step_check_failure_exit_1(tmp_path, capsys, monkeypatch):
    # every mass evaluation inside the step differs from the last one
    counter, real = itertools.count(), tfilm.step.integrate
    monkeypatch.setattr(tfilm.step, "integrate", lambda g, f: real(g, f) + next(counter))
    p = write_json(tmp_path / "sim.json", dict(MINIMAL, N=48, T=2e-4, tol_grad=1e-8))
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "tfilm: error: step 1 (t = 0.0001) failed: mass drifted" in err
    assert "Traceback" not in err


# one valid config per command; every key of the command's schema is
# set to null in turn below
VALID_CONFIGS = {
    "simulate": dict(MINIMAL, potential={"kind": "quadratic", "a": 0.5},
                     initial={"kind": "cosine", "M": 1.0, "amplitude": 0.2, "mode": 1}),
    "audit-ede": dict(MINIMAL, s_idx=0, t_idx=5),
    "rates": dict(MINIMAL, tol_extinct=1e-10,
                  initial={"kind": "lifted_parabola", "M": 1.0, "delta": 0.01}),
    "sweep-liftoff": NO_LIFTOFF,
    "dissipation-bound": {"N": 40000, "M": 1.0, "n": 2.0, "alpha": 1.0,
                          "deltas": [0.1, 0.03, 0.01, 0.003, 1e-3], "slope_tol": 0.15},
    "bb-action": {"N": 64, "eta": 0.25, "M_sweep": [1, 2], "n": 2.0, "alpha": 1.0,
                  "stage_steps": 8,
                  "u0": {"kind": "cos_bumps", "background": 0.1, "amplitude": 1.0,
                         "width": 0.05, "centers": [0.3]},
                  "u1": {"kind": "values", "values": [1.0] * 64}},
    "point-lemma": {"N": 64, "profiles": 2, "seed": 3, "modes": 6, "floor": 0.1},
}

# null means "no barrier" for sigma and is refused everywhere else
NULL_CASES = [
    (command, key) for command, schema in COMMAND_SCHEMAS.items()
    for key in sorted(config_keys(schema)) if key != "sigma"
] + [
    (command, f"{key}.{field}") for command in COMMAND_SCHEMAS
    for key, value in VALID_CONFIGS.get(command, {}).items() if isinstance(value, dict)
    for field in value
]


@pytest.mark.parametrize("command,key", NULL_CASES, ids=[f"{c}-{k}" for c, k in NULL_CASES])
def test_cli_null_value_exit_1(tmp_path, capsys, command, key):
    cfg = json.loads(json.dumps(VALID_CONFIGS[command]))
    parse(cfg, COMMAND_SCHEMAS[command])
    top, _, field = key.partition(".")
    if field:
        cfg[top][field] = None
    else:
        cfg[top] = None
    p = write_json(tmp_path / "null.json", cfg)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"tfilm: error: {top}:" in err
    assert "Traceback" not in err


# config errors that the experiments and the step parameters refuse, checked
# by the command's schema before the output directory is made
DISSIPATION = VALID_CONFIGS["dissipation-bound"]
REFUSED_BEFORE_THE_LOCK = {
    "liftoff-window": ("sweep-liftoff", dict(NO_LIFTOFF, n=4), "lift-off requires 2(alpha+1) > n"),
    "liftoff-domain": ("sweep-liftoff", dict(NO_LIFTOFF, L=2.0),
                       "the touching parabola is defined on the unit interval"),
    "dissipation-span": ("dissipation-bound", dict(DISSIPATION, deltas=[0.1, 0.05, 0.02, 0.011]),
                         "deltas must span at least two decades"),
    "dissipation-zero-delta": ("dissipation-bound",
                               dict(DISSIPATION, deltas=[0.1, 0.01, 1e-3, 0.0]),
                               "each delta must lie in (0, M/2)"),
    # M = 3 admits deltas below M/2 = 1.5, but a bump of half-width delta fits
    # on the unit interval only for delta <= 1/2
    "dissipation-wide-delta": ("dissipation-bound",
                               {"N": 3600, "M": 3, "n": 2, "alpha": 1,
                                "deltas": [0.9, 0.3, 0.05, 0.009]},
                               "each delta must be at most 1/2"),
    "dissipation-resolution": ("dissipation-bound", dict(DISSIPATION, N=1000),
                               "grid too coarse to resolve the bump"),
    "max-newton": ("simulate", dict(MINIMAL, max_newton=-1), "max_newton must be an integer >= 0"),
    # a sigma whose square underflows: 1e-200 divided by zero in the glue,
    # and 1e-160 (a subnormal square) gave an infinite glue coefficient
    **{f"sigma-{sigma!r}": ("simulate", dict(MINIMAL, sigma=sigma),
                            "sigma must be in (0,1), with a normal sigma**2")
       for sigma in (1e-200, 1e-160)},
    # a cell width whose cube is not a normal float: the step's set-up divided
    # by dx^2 = 0 (1e-200) or overflowed (1e200)
    **{f"simulate-L-{L!r}": ("simulate", dict(MINIMAL, L=L, N=16),
                             f"domain length L={L} on N=16 cells") for L in (1e-200, 1e200)},
    # a gradient scale max|u0| / dx^3 whose square overflows: the Newton
    # gradient norm would be inf
    **{f"simulate-L-{L!r}-gradient-scale": (
        "simulate", dict(MINIMAL, L=L, N=16, T=1e-4,
                         initial={"kind": "cosine", "M": 1.0, "amplitude": 0.2}),
        f"domain length L={L} on N=16 cells gives a gradient scale") for L in (1e-52, 1e-100)},
    # initial data that cannot start: built and checked by the RunConfig
    **{f"{command}-initial-length": (
        command, dict(MINIMAL, N=32, initial={"kind": "values", "values": [1, 1, 1]}),
        "initial values must have length 32") for command in ("simulate", "rates", "audit-ede")},
    **{f"{command}-initial-under-barrier": (
        command, dict(MINIMAL, initial={"kind": "cosine", "M": 0.1, "amplitude": 0.5}),
        "initial height has infinite energy under the barrier")
       for command in ("simulate", "rates", "audit-ede")},
    # a positive cell so thin that G_sigma overflows (1e-170), or that the
    # square of the barrier's gradient scale does (1e-100, 1e-60)
    **{f"simulate-thin-cell-{c!r}": (
        "simulate", dict(MINIMAL, N=8, T=1e-4, mobility={"kind": "power", "n": 2},
                         initial={"kind": "values", "values": [c] + [1.0] * 7}), message)
       for c, message in (
           (1e-170, "initial height has infinite energy under the barrier (a non-positive "
                    "cell, or one so thin that G_sigma overflows)"),
           (1e-100, "initial height's thinnest cell 1.000e-100 gives a barrier gradient "
                    "scale max|G_sigma'(u0)| / dx = 1.600e+297 whose square overflows"),
           (1e-60, "initial height's thinnest cell 1.000e-60 gives a barrier gradient "
                   "scale max|G_sigma'(u0)| / dx = 1.600e+177 whose square overflows"))},
    "liftoff-delta-above-3M": ("sweep-liftoff", dict(NO_LIFTOFF, deltas=[4.0], M=1.0),
                               "initial height has infinite energy under the barrier"),
    # the inputs bb_action_inputs refuses
    "bb-action-no-atoms": ("bb-action", dict(VALID_CONFIGS["bb-action"], eta=0.6),
                           "eta too large: no interior atoms"),
    "bb-action-endpoint": ("bb-action",
                           dict(VALID_CONFIGS["bb-action"],
                                u1={"kind": "values", "values": [1.0] * 63 + [0.0]}),
                           "endpoints must be strictly positive"),
    "bb-action-sweep": ("bb-action", dict(VALID_CONFIGS["bb-action"], M_sweep=[1, -2]),
                        "every M must be positive and finite"),
    # exponents that are not positive and finite, or an alpha whose 1/alpha
    # overflows: once the run starts, alpha = 0 divides by zero and 1e-320
    # gives a NaN summary
    **{f"{command}-{key}-{value!r}": (command, dict(VALID_CONFIGS[command], **{key: value}),
                                      f"{key} must be positive")
       for command in ("bb-action", "dissipation-bound")
       for key, values in (("alpha", (0.0, -1.0, 1e-320)), ("n", (0.0, -1.0)))
       for value in values},
    # the run commands refuse it through ModelParams (n=1 keeps lift-off's
    # window open at alpha -> 0)
    **{f"{command}-alpha-1e-320": (command, dict(VALID_CONFIGS[command], alpha=1e-320, **extra),
                                   "alpha must be positive and finite with a finite 1/alpha")
       for command, extra in (("simulate", {}), ("rates", {}), ("audit-ede", {}),
                              ("sweep-liftoff", {"n": 1}))},
    **{f"bb-action-stage-steps-{steps}": (
        "bb-action", dict(VALID_CONFIGS["bb-action"], stage_steps=steps),
        "stage_steps must be an integer >= 1") for steps in (0, -1, -3)},
    # point-lemma inputs that would fail or pass vacuously once it runs
    "point-lemma-no-profiles": ("point-lemma", dict(VALID_CONFIGS["point-lemma"], profiles=0),
                                "profiles must be >= 1"),
    "point-lemma-no-modes": ("point-lemma", dict(VALID_CONFIGS["point-lemma"], modes=0),
                             "modes must be >= 1"),
    "point-lemma-negative-modes": ("point-lemma", dict(VALID_CONFIGS["point-lemma"], modes=-2),
                                   "modes must be >= 1"),
    "point-lemma-negative-seed": ("point-lemma", dict(VALID_CONFIGS["point-lemma"], seed=-1),
                                  "seed must be >= 0"),
    "point-lemma-zero-floor": ("point-lemma", dict(VALID_CONFIGS["point-lemma"], floor=0.0),
                               "floor must be positive"),
    "point-lemma-negative-floor": ("point-lemma", dict(VALID_CONFIGS["point-lemma"], floor=-0.5),
                                   "floor must be positive"),
}


@pytest.mark.parametrize("command,cfg,message", REFUSED_BEFORE_THE_LOCK.values(),
                         ids=REFUSED_BEFORE_THE_LOCK.keys())
def test_cli_config_error_makes_no_output_directory(tmp_path, capsys, command, cfg, message):
    p = write_json(tmp_path / "bad.json", cfg)
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"tfilm: error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


# the import graph: scipy's LAPACK extension module loads at the first Newton
# solve, alone, so the commands that never solve do not pay for it and no
# command pays for scipy's package __init__ or the rest of scipy.linalg.
# Each case runs in a fresh interpreter, since this one has imported scipy
# already.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(tfilm.step.__file__)))
FLAPACK = "scipy.linalg._flapack"

CLI_CASE = """
from tfilm.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
assert code == {expected}, code
"""

SOLVE_CASE = """
import numpy as np
from tfilm import Grid, ModelParams, StepParams, power_mobility, solve_step, zero_potential
g = Grid(1.0, 16)
model = ModelParams(alpha=1.0, mobility=power_mobility(2.0), potential=zero_potential(),
                    sigma=None)
solve_step(g, 1.0 + 0.1 * np.cos(np.pi * g.cell_centers()), model, StepParams(h=1e-4))
"""

RUN_MANY_CASE = """
import numpy as np
from tfilm import (Grid, InitialDataSpec, ModelParams, RunConfig, StepParams, power_mobility,
                   run_many, zero_potential)
g = Grid(1.0, 16)
configs = [RunConfig(grid=g, model=ModelParams(alpha=alpha, mobility=power_mobility(2.0),
                                               potential=zero_potential(), sigma=None),
                     step=StepParams(h=1e-4), T=3e-4,
                     initial=InitialDataSpec("cosine", M=1.0, amplitude=0.1, mode=1))
           for alpha in (1.0, 2.0)]
assert len(run_many(configs)) == 2
"""


def loaded_modules(tmp_path, code):
    """(scipy, scipy.linalg, scipy.linalg._flapack): whether each is
    imported after `code` runs to a clean exit in a fresh interpreter that
    imports tfilm from this checkout."""
    code += ("\nimport sys\nprint('scipy' in sys.modules, 'scipy.linalg' in sys.modules, "
             f"{FLAPACK!r} in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC))
    assert res.returncode == 0, res.stderr
    return tuple(word == "True" for word in res.stdout.split()[-3:])


def cli_case(tmp_path, command, cfg, expected):
    argv = [command, "--config", str(write_json(tmp_path / "cfg.json", cfg)),
            "--out", str(tmp_path / "out")]
    return CLI_CASE.format(argv=argv, expected=expected)


# each case: (code, whether it loads LAPACK); none loads scipy or scipy.linalg
IMPORT_CASES = {
    "import-tfilm": (lambda tmp: "import tfilm", False),
    "import-tfilm-cli": (lambda tmp: "import tfilm.cli", False),
    "help": (lambda tmp: CLI_CASE.format(argv=["--help"], expected=0), False),
    # bb-action's audit fails on this coarse config (exit 2), reports written
    **{command: (lambda tmp, command=command, code=code:
                 cli_case(tmp, command, VALID_CONFIGS[command], code), False)
       for command, code in (("bb-action", 2), ("point-lemma", 0), ("dissipation-bound", 0))},
    "refused-simulate": (lambda tmp: cli_case(tmp, "simulate", dict(MINIMAL, sigma=1.5), 1),
                         False),
    "simulate": (lambda tmp: cli_case(tmp, "simulate",
                                      dict(VALID_CONFIGS["simulate"], N=32, T=2e-4), 0), True),
    "solve-step": (lambda tmp: SOLVE_CASE, True),
    "run-many": (lambda tmp: RUN_MANY_CASE, True),
}


@pytest.mark.parametrize("case,loads", IMPORT_CASES.values(), ids=IMPORT_CASES.keys())
def test_scipy_linalg_loads_at_the_first_solve_only(tmp_path, case, loads):
    assert loaded_modules(tmp_path, case(tmp_path)) == (False, False, loads)


def test_step_binds_scipys_band_solvers_on_first_access(tmp_path):
    code = """
import sys
import tfilm.step as step
assert "dpbsv" not in vars(step)
dpbsv = step.dpbsv
assert "scipy.linalg" not in sys.modules
import scipy.linalg
assert step.dpbsv is dpbsv is scipy.linalg.lapack.dpbsv
assert step.solve_banded is scipy.linalg.solve_banded
assert "dpbsv" in vars(step) and "solve_banded" in vars(step)
try:
    step.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("step.no_such_name resolved")
"""
    assert loaded_modules(tmp_path, code) == (True, True, True)
    # a process that has imported scipy.linalg first binds its module
    code = """
import scipy.linalg
import tfilm.step as step
assert step.dpbsv is scipy.linalg.lapack.dpbsv
"""
    assert loaded_modules(tmp_path, code) == (True, True, True)


def test_a_scipy_without_its_lapack_module_fails_the_first_solve(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = f"""
import os
import scipy
scipy.__path__ = [{str(empty)!r}]
try:
    exec({SOLVE_CASE!r})
except ImportError as exc:
    linalg = os.path.join({str(empty)!r}, "linalg")
    assert exc.name == {FLAPACK!r}, exc.name
    assert str(exc) == f"no module {FLAPACK} in {{linalg}} (scipy {{scipy.__version__}})", exc
else:
    raise AssertionError("the solve found LAPACK")
"""
    assert loaded_modules(tmp_path, code) == (True, False, False)
