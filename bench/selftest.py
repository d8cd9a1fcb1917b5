"""Self-test of the benchmark; exits 1 on the first failed check.

    python3 bench/selftest.py

For every workload it makes a small-size smoke run untraced and traced and
checks that the result line has the contract's keys, that every metric
declared in BENCHMARK.json is printed by name with its unit, that traced
spans nest (each child inside its parent, every self time >= 0) and that
no operation failed.  It also checks that the generator refuses a tol_grad
below the roundoff floor, that host-speed scaling is proportional, and that
the command fails without a result in a directory holding only
BENCHMARK.json and bench/.
"""

import json
import shutil
import subprocess
import sys

import run
from spans import Tracer


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def bench(root, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--size", "small", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_smoke(workload, trace, declared):
    res = bench(run.ROOT, workload, trace)
    if res.returncode != 0:
        fail(f"{workload} trace={trace} exited {res.returncode}: {res.stderr.strip()}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{workload} trace={trace}: {result['failed']}/{result['attempted']} failed: "
             f"{res.stderr.strip()}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{workload} trace={trace}: metrics {sorted(set(metrics) ^ set(declared))} "
             "do not match BENCHMARK.json")
    for name, unit in declared.items():
        m = metrics[name]
        if m["unit"] != unit or not isinstance(m["value"], (int, float)):
            fail(f"{workload}: metric {name} is {m}, declared unit {unit}")
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines):
            fail(f"{workload}: {name} not printed with its unit")
    if trace:
        spans = Tracer.from_csv(run.ROOT / ".bench_out" / f"trace-{workload}-seed1.csv")
        if not spans.spans:
            fail(f"{workload}: traced run recorded no spans")
        errors = spans.nesting_errors()
        if errors:
            fail(f"{workload}: {len(errors)} nesting errors, first: {errors[0]}")


def check_roundoff_guard(workloads):
    from tfilm.driver import InitialDataSpec, RunConfig
    from tfilm.grid import Grid
    from tfilm.models import ModelParams, power_mobility, zero_potential
    from tfilm.step import StepParams

    model = ModelParams(alpha=1.0, mobility=power_mobility(2.0),
                        potential=zero_potential(), sigma=0.01)
    for tol, refused in ((1e-8, True), (1e-5, False)):
        cfg = RunConfig(grid=Grid(1.0, 512), model=model,
                        step=StepParams(h=1e-5, tol_grad=tol), T=1e-5,
                        initial=InitialDataSpec("cosine", M=1.0, amplitude=0.2))
        try:
            workloads.check_roundoff_floor(cfg)
        except ValueError:
            if not refused:
                fail(f"roundoff guard refused tol_grad={tol:g} at N=512")
        else:
            if refused:
                fail(f"roundoff guard accepted tol_grad={tol:g} at N=512")


def check_scaling():
    import hostspeed

    ref = dict(hostspeed.REFERENCE_S)
    slow = {k: 2.0 * v for k, v in ref.items()}
    mixed = {k: v * (1.0 if i else 4.0) for i, (k, v) in enumerate(ref.items())}
    cases = [([ref, ref], 1.0), ([slow, slow], 2.0), ([mixed, mixed], 1.6)]
    for probes, factor in cases:
        scaled = hostspeed.scaled([0.5, 1.0], probes + probes[:1])
        if any(abs(s * factor - w) > 1e-12 for s, w in zip(scaled, [0.5, 1.0])):
            fail(f"host-speed scaling of [0.5, 1.0] by {probes} gave {scaled}")


def check_bare_checkout():
    bare = run.ROOT / ".bench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        res = bench(bare, run.WORKLOADS[0], 0)
        if res.returncode == 0 or '"metrics"' in res.stdout:
            fail("run.py printed a result without tfilm sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_smoke(workload, trace, declared[trace])
    check_roundoff_guard(run.import_workloads())
    check_scaling()
    check_bare_checkout()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
