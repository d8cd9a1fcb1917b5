"""Regenerate reference.json: the small-size, seed-0 result of each workload.

    python3 bench/make_reference.py

Every benchmark run recomputes these cases during set-up and compares them
with the stored values.  Regenerate only when a change to tfilm is meant to
move the results, and say so in that change.
"""

import json
import shutil
import sys

import run


def main():
    workloads = run.import_workloads()
    workdir = run.ROOT / ".bench_tmp" / "reference"
    reference = {}
    try:
        for name in run.WORKLOADS:
            wl = workloads.build(name, run.REFERENCE_SEED, "small", workdir)
            _, outcome = workloads.timed_call(wl)
            if outcome.errors:
                sys.exit(f"{name}: {outcome.errors}")
            reference[name] = outcome.fingerprint.tolist()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
