"""Host-speed calibration: fixed kernels timed between the benchmark's calls.

On a shared host, neighbours slow the CPU by up to 2x for stretches of
seconds to minutes.  CPU time rises with wall time and there is no steal
time, so no choice of clock avoids this.  The benchmark therefore runs two
kernels that do not touch tfilm before the first timed call and after every
one, and scales each call's time to the speed of a reference host:

* ``numpy_kernel``: small-array numpy arithmetic and a banded Cholesky
  solve at N = 64, 256 and 1024, the kind of work in tfilm's steps;
* ``text_kernel``: formatting floats with 17 significant digits and
  joining them into CSV lines, the kind of work in tfilm's artifact writers.

Neighbours do not slow the two alike, nor exactly as they slow tfilm, so
the host speed is the mean of the two kernels' speeds.  A call's host speed is measured by the kernel runs just before and just
after it; the longer the call, the more kernel runs, so that the kernels
take about ``PROBE_SHARE`` of the time.
"""

import statistics
import time

import numpy as np
from scipy.linalg import solveh_banded

# About the fastest run of each kernel on the build host (2 vCPUs, Intel
# Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), so that scaled times
# read close to the seconds an unloaded host of that kind takes.
REFERENCE_S = {"numpy": 0.033, "text": 0.022}
# kernel time between two calls, as a share of the call before
PROBE_SHARE = 0.1

_X = np.linspace(0.0, 1.0, 1024)
_U = 1.0 + 0.3 * np.cos(np.pi * _X)


def numpy_kernel():
    """Fixed numpy/scipy work independent of tfilm; returns a checksum."""
    acc = 0.0
    for n in (64, 256, 1024):
        u = 1.0 + 0.3 * np.cos(np.pi * np.linspace(0.0, 1.0, n))
        ab = np.zeros((2, n))
        for _ in range(250):
            m = (0.5 * (u[1:] + u[:-1])) ** 2
            s = np.abs(np.diff(u) * n) ** 1.5 / m
            ab[0, 1:] = -0.1 * m
            ab[1] = 1.0
            ab[1, 1:] += 0.1 * m
            ab[1, :-1] += 0.1 * m
            y = solveh_banded(ab, u, lower=False)
            acc += float(np.sum(s)) + float(y[n // 2]) + float(np.log(u).sum())
    return acc


def text_kernel():
    """Fixed formatting of numpy floats into CSV lines; returns the
    characters produced."""
    chars = 0
    for _ in range(12):
        lines = [",".join(f"{float(v):.17g}" for v in row) for row in zip(_X, _U)]
        chars += len("\n".join(lines))
    return chars


KERNELS = {"numpy": numpy_kernel, "text": text_kernel}


def probe(runs=1):
    """Median seconds each kernel takes now over ``runs`` runs, by name."""
    times = {name: [] for name in KERNELS}
    for _ in range(runs):
        for name, kernel in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(ts) for name, ts in times.items()}


def runs_after(call_s, last_probe):
    """Kernel runs for the probe after a call of ``call_s`` seconds."""
    return max(1, round(PROBE_SHARE * call_s / sum(last_probe.values())))


def speed(probes):
    """Host speed relative to the reference host (1 there, below 1 when
    slower): the mean over the kernels of ``REFERENCE_S`` over the kernel's
    median time in ``probes``."""
    return statistics.mean(ref / statistics.median(p[name] for p in probes)
                           for name, ref in REFERENCE_S.items())


def scale():
    """Host speed now, from three kernel runs after one untimed warm-up
    run: multiply a time just measured by it."""
    probe()
    return speed([probe(3)])


def scaled(walls, probes):
    """Scale call i, timed between ``probes[i]`` and ``probes[i + 1]``, by
    the host speed those two measured."""
    return [wall * speed(probes[i:i + 2]) for i, wall in enumerate(walls)]
