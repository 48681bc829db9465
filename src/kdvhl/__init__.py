"""Numerical laboratory for KdV on the half line with Dirichlet control.

Weighted L2 functionals with a smoothed moving cutoff, a theta-scheme solver
for the boundary value problem, energy-identity bookkeeping at one and two
derivatives, trace diagnostics at the boundary, and a whole-line spectral
reference for cross-validation.
"""

from .config import ConfigError, ExperimentConfig, dump_config, load_config, parse_config
from .datagen import (
    KinkSpec,
    ResolutionWarning,
    boundary_pulse,
    gaussian_bump,
    kink_data,
    soliton_boundary,
    soliton_data,
    soliton_solution,
)
from .diagnostics import (
    DiagnosticsConfig,
    DissipationAudit,
    IdentityBreakdown,
    InterpolationCheck,
    RunningDiagnostics,
    TraceIntegral,
    dissipation_audit,
    interpolation_check,
    stopping_time,
    trace_identity_residual,
    trace_integral,
)
from .discretization import Field, Grid1D, TraceSeries, deriv_matrix, fd_weights, integrate, trace_derivs
from .oracle import (
    ManufacturedSolution,
    PeriodicGrid,
    WholelineTrajectory,
    WindowProbe,
    decaying_hump,
    extract_halfline_data,
    spectral_restriction,
    wholeline_solve,
    wholeline_times,
)
from .solver import (
    BoundaryData,
    CompatibilityResult,
    SolverConfig,
    SolverError,
    Trajectory,
    check_compatibility,
    solve,
)
from .weights import CutoffSpec, WeightSpec, chi, eta, moving_weight

__version__ = "0.1.0"

__all__ = [
    "BoundaryData", "CompatibilityResult", "ConfigError", "CutoffSpec",
    "DiagnosticsConfig", "DissipationAudit", "ExperimentConfig", "Field",
    "Grid1D", "IdentityBreakdown", "InterpolationCheck", "KinkSpec",
    "ManufacturedSolution", "PeriodicGrid", "ResolutionWarning",
    "RunningDiagnostics", "SolverConfig", "SolverError", "TraceIntegral",
    "TraceSeries", "Trajectory", "WeightSpec", "WholelineTrajectory", "WindowProbe",
    "boundary_pulse", "check_compatibility", "chi", "decaying_hump",
    "deriv_matrix", "dissipation_audit", "dump_config", "eta",
    "extract_halfline_data", "fd_weights", "gaussian_bump",
    "integrate", "interpolation_check",
    "kink_data", "load_config",
    "moving_weight", "parse_config",
    "solve", "soliton_boundary", "soliton_data",
    "soliton_solution", "spectral_restriction", "stopping_time",
    "trace_derivs", "trace_identity_residual",
    "trace_integral", "wholeline_solve", "wholeline_times",
]
