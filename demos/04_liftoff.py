#!/usr/bin/env python3
# Guaranteed lift-off, desk scale.  Initial films delta + (1-delta/M) v
# sit below the energy of the touching parabola v, pinch down to delta
# at the right edge, and still reach min u >= M/2 after a time that does
# not degrade as delta -> 0.  The sweep checks that uniformity.

from tfilm import Grid, StepParams
from tfilm.experiments import build_parabola_v, liftoff_sweep

g = Grid(L=1.0, N=256)
pv = build_parabola_v(1.0, g)
print(f"touching parabola: mass {pv.mass:.6f}, int|v'|^2 = {pv.grad_sq:.4f} "
      f"(reported headline value {pv.stated_grad_sq}), E[v] = {pv.energy:.4f}")

report = liftoff_sweep(
    deltas=[1e-1, 1e-2, 1e-3],
    M=1.0, n=2.0, alpha=1.0,
    grid=g,
    step=StepParams(h=1e-5, tol_grad=1e-8),
    T=0.008,
    record_every=20,
)

print(f"barrier sigma = {report.sigma}")
for delta, t_half, e0 in zip(report.deltas, report.t_half, report.energies):
    print(f"  delta {delta:7.0e}: E[u0] = {e0:.4f} < E[v], "
          f"min u reaches 1/2 at t = {t_half}")
print(f"uniformity: max t_half {report.t0_hat:.4g} <= "
      f"2 x median {report.median_t_half:.4g} -> {report.uniform_ok}")
