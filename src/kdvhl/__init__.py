"""Numerical laboratory for KdV on the half line with Dirichlet control.

Weighted L2 functionals with a smoothed moving cutoff, a theta-scheme solver
for the boundary value problem, energy-identity bookkeeping at one and two
derivatives, trace diagnostics at the boundary, and a whole-line spectral
reference for cross-validation.

Each module lists its public names once, in its own __all__; the package
re-exports them all.
"""

from . import config, datagen, diagnostics, discretization, oracle, solver, weights
from .config import *  # noqa: F401,F403
from .datagen import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .discretization import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .weights import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(name for mod in (config, datagen, diagnostics, discretization, oracle,
                                  solver, weights) for name in mod.__all__)
