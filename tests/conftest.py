import numpy as np
import pytest

from kdvhl import CutoffSpec, Field, chi, deriv_matrix, integrate, moving_weight


class Kept(list):
    """Test-side observer: a copy of every state solve passes, in order, since
    solve itself keeps only its final state."""

    def __call__(self, field):
        self.append(Field(field.grid, field.values.copy(), field.t))


@pytest.fixture(scope="session")
def kept():
    """The Kept observer class; each call makes an empty record."""
    return Kept


def _interpolation_reference(field, ws):
    """One state's terms of the weighted interpolation bound on the full grid, from
    the raw state: sup (u_xx)^2 chi', int (u_xx)^2 chi', int (u_xxx)^2 chi' and
    int (u_xx)^2 chi' for the companion cutoff (eps/3, b + eps)."""
    cut, grid = ws.cutoff, field.grid
    x = grid.nodes
    q = deriv_matrix(grid, 2) @ field.values
    qx = deriv_matrix(grid, 3) @ field.values
    c1 = moving_weight(ws, x, field.t, 1)
    c1w = chi(CutoffSpec(cut.epsilon / 3.0, cut.b + cut.epsilon), x + ws.v * field.t - ws.x0, 1)
    return (float(np.max(q * q * c1)), integrate(q * q * c1, grid),
            integrate(qx * qx * c1, grid), integrate(q * q * c1w, grid))


@pytest.fixture(scope="session")
def interpolation_reference():
    """The full-grid reference of the interpolation terms RunningDiagnostics records:
    a callable of (state, weight spec) returning the four terms."""
    return _interpolation_reference


def rel_err(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


@pytest.fixture
def relerr():
    return rel_err
