"""tfilm benchmark: one workload in one process, end to end or traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

tfilm is imported from ``src/`` beside this directory, never from an
installed copy; without it the command exits 1 and prints no result.

A run imports tfilm, builds the workload's inputs from the seed, and runs a
small warm-up call that is also checked against ``reference.json``; all of
that is set-up.  It then repeats the workload's top-level call for
``--seconds`` and gates every call's output.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Every time reported is scaled to a reference host speed (see
hostspeed.py): the host-speed kernels run before the first timed call and
after each one, and a call's time is multiplied by the host speed measured
by the kernel runs just before and after it.  Set-up times are scaled by
kernel runs made right after the set-up.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
passing call's time and rate, and ``setup_s`` as the median over this
process and SETUP_PROBES child processes.  ``--trace 1`` alternates
untraced and traced calls, reports the per-layer metrics from the traced
ones and the tracing overhead from the pair, and writes the spans to
``.bench_out/trace-<workload>-seed<n>.csv``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import END, NAME, PARENT, START, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("march_nonnewtonian", "newtonian_artifacts", "family_sweep", "transport_action")
SETUP_PROBES = 3
REFERENCE_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_workloads():
    """Import tfilm from ROOT/src and the workload module on top of it."""
    src = ROOT / "src"
    if not (src / "tfilm" / "__init__.py").is_file():
        sys.exit(f"bench: tfilm sources not found under {src}")
    sys.path.insert(0, str(src))
    import tfilm

    if Path(tfilm.__file__).resolve().parent != (src / "tfilm").resolve():
        sys.exit(f"bench: imported tfilm from {tfilm.__file__}, not from {src}")
    import workloads

    return workloads


def set_up(args, workdir):
    """Import, build the inputs, run the warm-up/reference case.

    Returns (workloads module, workload, reference Outcome, seconds).
    """
    t0 = time.perf_counter()
    workloads = import_workloads()
    wl = workloads.build(args.workload, args.seed, args.size, workdir)
    ref = workloads.build(args.workload, REFERENCE_SEED, "small", workdir)
    _, outcome = workloads.timed_call(ref)
    stored = json.loads((BENCH / "reference.json").read_text())[args.workload]
    if outcome.fingerprint is not None and not ref.matches(outcome.fingerprint, stored):
        outcome.errors.append(f"reference case differs from reference.json by more "
                              f"than rtol {ref.rtol:g}")
    return workloads, wl, outcome, time.perf_counter() - t0


def probe_setup(args):
    """Scaled set-up seconds measured in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(res.stdout.split()[-1])


def make_tracer():
    cli, driver, ex, grid, step = (sys.modules[f"tfilm.{m}"] for m in
                                   ("cli", "driver", "experiments", "grid", "step"))
    spans = [
        (cli, "main", "cli.main"),
        (cli, "run", "driver.run"),
        (cli, "write_timeseries", "io.write_timeseries"),
        (cli, "write_summary", "io.write_summary"),
        (driver, "run", "driver.run"),
        (driver, "run_many", "driver.run_many"),
        (driver, "solve_step", "step.solve_step"),
        (driver, "energy", "driver.energy"),
        (step, "energy", "step.energy"),
        (step, "solveh_banded", "step.solveh_banded"),
        (step, "solve_banded", "step.solve_banded"),
        (step, "el_residual", "step.el_residual"),
        (ex, "bb_action_demo", "experiments.bb_action_demo"),
    ]
    counts = [
        (step, "mobility_face", "step.mobility_face"),
        (step, "divergence", "step.divergence"),
        (grid, "divergence", "grid.divergence"),
        (ex, "mobility_face", "experiments.mobility_face"),
    ]
    hooks = {"step.solve_step":
             lambda tr, res: tr.counts.update({"step.newton_iters": res.newton_iters})}
    return Tracer(spans, counts, hooks)


def quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, records):
    """Per-layer numbers from the traced calls of ``records``."""
    traced = [o for _, t, o in records if t]
    calls = len(traced)
    by_name = tracer.by_name()

    def durs(name):
        return by_name.get(name, ([], []))[0]

    def total(name):
        return sum(durs(name))

    def self_total(name):
        return sum(by_name.get(name, ([], []))[1])

    def ratio(a, b):
        return a / b if b else 0.0

    spans = tracer.spans
    steps = len(durs("step.solve_step"))
    iters = tracer.counts["step.newton_iters"]
    solve = durs("step.solve_step")

    def child_time(child, parent):
        return sum(s[END] - s[START] for s in spans
                   if s[NAME] == child and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == parent)

    io_s = total("io.write_timeseries") + total("io.write_summary")
    io_bytes = sum(o.bytes for o in traced)
    median_traced = median_call(records, traced=True)[0]
    median_plain = median_call(records, traced=False)[0]
    overhead = median_traced - median_plain
    energy_calls = len(durs("step.energy")) + len(durs("driver.energy"))
    return {
        "step.solve_step.ms_p50": 1e3 * quantile(solve, 50),
        "step.solve_step.ms_p99": 1e3 * quantile(solve, 99),
        "step.solve_step.samples": steps,
        "step.newton_iters_per_step": ratio(iters, steps),
        "step.solveh_banded.calls_per_step": ratio(len(durs("step.solveh_banded")), steps),
        "step.solveh_banded.ms_per_step": ratio(1e3 * total("step.solveh_banded"), steps),
        "step.solve_banded.calls": ratio(len(durs("step.solve_banded")), calls),
        "step.energy.calls_per_newton_iter": ratio(len(durs("step.energy")), iters),
        "step.el_residual.ms_per_step": ratio(1e3 * total("step.el_residual"), steps),
        "step.self_ms_per_step": ratio(1e3 * self_total("step.solve_step"), steps),
        "models.energy.calls_per_step": ratio(energy_calls, steps),
        "models.energy.ms_per_step":
            ratio(1e3 * (total("step.energy") + total("driver.energy")), steps),
        "models.mobility_face.calls_per_step": ratio(tracer.counts["step.mobility_face"], steps),
        "grid.divergence.calls_per_step":
            ratio(tracer.counts["step.divergence"] + tracer.counts["grid.divergence"], steps),
        "driver.run.self_ms_per_step":
            ratio(1e3 * (total("driver.run") - child_time("step.solve_step", "driver.run")), steps),
        "driver.run_many.member_sum_over_wall":
            ratio(child_time("driver.run", "driver.run_many"), total("driver.run_many")),
        "io.write_timeseries.s": ratio(total("io.write_timeseries"), calls),
        "io.files_written": ratio(sum(o.files for o in traced), calls),
        "io.bytes_written": ratio(io_bytes, calls),
        "io.write_mb_per_s": ratio(io_bytes / 1e6, io_s),
        "cli.main.self_s": ratio(self_total("cli.main"), calls),
        "experiments.bb_action_demo.s_per_call":
            ratio(total("experiments.bb_action_demo"), len(durs("experiments.bb_action_demo"))),
        "experiments.mobility_face.calls_per_call":
            ratio(tracer.counts["experiments.mobility_face"],
                  len(durs("experiments.bb_action_demo"))),
        "trace.wall_s": median_traced,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / median_plain,
    }


def median_call(records, traced=None):
    """(median seconds, steps per call) over the passing records (over all,
    if none passed), optionally only the traced or the untraced ones."""
    pool = [r for r in records if traced is None or r[1] == traced]
    pool = [r for r in pool if not r[2].errors] or pool
    steps = max(r[2].steps for r in pool)
    return statistics.median(r[0] for r in pool), steps


def end_to_end_metrics(records, setups):
    wall, steps = median_call(records)
    return {
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(args, workdir):
    workloads, wl, ref_outcome, setup_s = set_up(args, workdir)
    import hostspeed  # numpy is imported by now, and charged to set-up

    setup_s *= hostspeed.scale()
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import numpy
    import scipy

    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={os.environ[THREAD_VARS[0]]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    setups = [setup_s]
    if not args.trace:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]

    tracer = make_tracer() if args.trace else None
    calls = []  # (unscaled seconds, traced, Outcome)
    probes = [hostspeed.probe()]
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(calls) % 2 == 1
        elapsed, outcome = workloads.timed_call(wl, tracer if traced else None, len(calls))
        probes.append(hostspeed.probe(hostspeed.runs_after(elapsed, probes[-1])))
        calls.append((elapsed, traced, outcome))
        if time.perf_counter() >= deadline and len(calls) >= (2 if tracer else 1):
            break
    walls = [e for e, _, _ in calls]
    scaled = hostspeed.scaled(walls, probes)
    records = [(s, t, o) for s, (_, t, o) in zip(scaled, calls)]  # scaled seconds

    # repeated calls on the same inputs must agree with the first good one
    first = next((o.fingerprint for _, _, o in records if not o.errors), None)
    for _, _, o in records:
        if not o.errors and not wl.matches(o.fingerprint, first):
            o.errors.append(f"differs from the run's first call by more than rtol {wl.rtol:g}")
    outcomes = [ref_outcome] + [o for _, _, o in records]
    for i, o in enumerate(outcomes):
        for err in o.errors:
            where = f"call {i - 1}" if i else "warm-up"
            print(f"bench: {args.workload} {where}: {err}", file=sys.stderr)
    failed = sum(1 for o in outcomes if o.errors)

    if tracer is not None:
        values = layer_metrics(tracer, records)
        tracer.write_csv(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.csv")
    else:
        values = end_to_end_metrics(records, setups)
    kernels = [(f"{k} kernel", [p[k] for p in probes]) for k in hostspeed.KERNELS]
    for label, xs in [("unscaled", walls), ("scaled", scaled)] + kernels:
        print(f"# {label} s: n={len(xs)} min={min(xs):.4g} "
              f"median={statistics.median(xs):.4g} max={max(xs):.4g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the warm-up size, for smoke runs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        remove(workdir)


def remove(workdir):
    """Delete the run's files and commit the deletion to disk before
    exiting, so that freeing their blocks does not slow the next run."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        fd = os.open(workdir.parent, os.O_RDONLY)
    except OSError:  # never made
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    try:
        workdir.parent.rmdir()
    except OSError:  # another run still uses it
        pass


if __name__ == "__main__":
    sys.exit(main())
