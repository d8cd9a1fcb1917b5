"""1D power-law thin-film equation: implicit variational stepping with a
singular barrier potential, energy-dissipation auditing, and desk-scale
experiments (lift-off, dissipation scalings, degenerate transport action).
"""

from .driver import (
    AuditReport,
    ContinuationReport,
    EnergyAuditError,
    InitialDataSpec,
    RunConfig,
    StepDiagnostics,
    TimeSeries,
    audit_ede,
    holder_quotient,
    parabola_profile,
    run,
    run_many,
    sigma_continuation,
)
from .grid import Grid, divergence, gradient, integrate, laplacian_neumann, zero_flux
from .models import (
    INFINITE_ENERGY,
    EnergyBreakdown,
    MobilitySpec,
    ModelParams,
    ModifiedPotential,
    PotentialSpec,
    constant_mobility,
    energy,
    mobility_face,
    navier_slip_mobility,
    power_mobility,
    psi,
    quadratic_potential,
    strong_singular_potential,
    zero_potential,
)
from .step import (
    StepBatch,
    StepCheckError,
    StepNonconvergenceError,
    StepParams,
    StepResult,
    el_residual,
    reduced_objective,
    solve_step,
)

__version__ = "0.1.0"
