import numpy as np
import pytest

from kdvhl import BoundaryData, Field, Grid1D, SolverConfig, gaussian_bump, solve


@pytest.fixture(scope="session")
def small_run():
    """One short unforced nonlinear run, far from the boundary; shared by the
    diagnostics consistency tests."""
    grid = Grid1D(16.0, 161)
    u0 = Field(grid, gaussian_bump(0.8, 6.0, 1.0)(grid.nodes), 0.0)
    cfg = SolverConfig(dt=0.01, T=0.4, snapshot_stride=1)
    traj = solve(u0, cfg, BoundaryData())
    return traj


def rel_err(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


@pytest.fixture
def relerr():
    return rel_err
