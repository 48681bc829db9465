"""Implicit theta-scheme for u_t + u_xxx + (u^2)_x = F on the half-line.

One boundary condition is imposed on the left (u(0,t) = f(t), the Dirichlet
row is exact) and two on the right (u(L) = 0 and u_x(L) = 0, which closes the
third-derivative operator).  The dispersive term is implicit: A = I + theta*dt*D3
is banded with symmetric part I inside, as centred D3 is skew, up to the rounding of
the Fornberg weights: D3's computed centre weight is 1.28e-15/h^3 on the soliton
recipe's grid, not 0, and a D1 pair reads -80.0 / 79.99999999999999 at n = 6401 on
L = 40.  So SuperLU factors A once without pivoting, which is stable for such A (Golub &
Van Loan 1979), and each Picard sweep on the midpoint-averaged nonlinear flux solves it
with two BLAS dtbsv calls, both scipy's compiled kernels loaded from their files.
Each step iterates from the cubic in time through u^n and the three states before it,
4u^n - 6u^{n-1} + 4u^{n-2} - u^{n-3}; steps 1-3 use the lower-order extrapolant through
every state there is (u^n on step 1 and in linear runs).  The solutions are smooth in
time away from t = 0, so each order brings the start about one power of dt closer to
the fixed point.  The order stops at the cubic: a quartic start caps more steps on
rough data (a kink profile), which is not smooth enough in time for it.  A step
iterates until the last update, or the estimated distance to the fixed point (Hairer &
Wanner IV.8), is within picard_tol*(1 + max|u^n|), for at most picard_max sweeps, and
records its sweep count and that estimate.  A forced step reuses the last step's
F(x, t^{n+1}) as its F(x, t^n) whenever the two times agree bit for bit.  solve
computes no wall traces: an observer (diagnostics.TraceSeries) records them.
Before the first step solve checks, once per run, the corner condition
u0(0) = f(0) to 1e-10 and (BoundaryData.validate) that f and fprime are finite
and consistent; either failure is a ConfigError, the CLI's exit 2.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .config import ConfigError
from .discretization import Field, Grid1D, _scipy_ext, deriv_matrix

_superlu = _scipy_ext("scipy.sparse.linalg._dsolve._superlu")
_dtbsv = _scipy_ext("scipy.linalg._fblas").dtbsv

__all__ = [
    "SolverError",
    "BoundaryData",
    "SolverConfig",
    "Trajectory",
    "solve",
]


# corner condition u0(0) = f(0), required for a clean start
_CORNER_TOL = 1e-10
# BoundaryData.validate: relative tolerance of fprime against a centered difference of
# f, at this many evenly spaced probe times
_FPRIME_RTOL = 1e-6
_N_PROBE = 9


class SolverError(RuntimeError):
    """Raised on Picard divergence, singular systems, or non-finite states."""


@dataclass
class BoundaryData:
    """Left-boundary value f(t) and its time derivative fprime(t).

    fprime is consumed by the trace diagnostics (it closes the third-derivative
    trace through the equation itself), so a finite-difference cross-check
    against f guards against inconsistent pairs.  keys names the config keys
    that set f, for validate's refusals.
    """

    f: Callable[[float], float]
    fprime: Callable[[float], float]
    keys: tuple = ()

    def validate(self, T: float):
        """Check that f and fprime are finite and fprime matches a centered
        difference of f at probe times."""
        blame = f" (set by {', '.join(self.keys)})" if self.keys else ""
        ts = np.linspace(0.0, T, _N_PROBE)
        dh = 6e-6 * max(1.0, T)
        if T <= 4.0 * dh:
            return
        worst = 0.0
        scale = 1.0
        for t in ts:
            a = min(max(t, dh), T - dh)  # keep the probe inside [0, T]
            with np.errstate(all="ignore"):  # a non-finite value is refused just below
                vals = (self.f(a + dh), self.f(a - dh), self.fprime(a))
            if not np.all(np.isfinite(vals)):
                raise ConfigError(f"boundary data f or fprime{blame} is not finite near "
                                  f"t = {a:.6g}")
            fd = (vals[0] - vals[1]) / (2.0 * dh)
            fp = vals[2]
            worst = max(worst, abs(fp - fd))
            scale = max(scale, abs(fp), abs(fd))
        if worst > _FPRIME_RTOL * scale:
            raise ConfigError(
                f"boundary data{blame} inconsistent: |fprime - d/dt f| = {worst:.3e} "
                f"exceeds {_FPRIME_RTOL:.1e} * {scale:.3e} at probe times"
            )


@dataclass
class SolverConfig:
    """Time-stepping parameters; dt ~ h is the intended operating point."""

    dt: float
    T: float
    theta: float = 0.5
    picard_max: int = 4
    picard_tol: float = 1e-12
    nonlinear: bool = True
    forcing: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (0.0 < self.dt <= self.T):
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.picard_max < 1:
            raise ValueError("picard_max must be >= 1")
        if not (0.0 < self.picard_tol < np.inf):
            raise ValueError(f"picard_tol must be positive and finite, got {self.picard_tol}")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")

    @property
    def nsteps(self) -> int:
        n = int(round(self.T / self.dt))
        if abs(n * self.dt - self.T) > 1e-9 * max(1.0, self.T):
            raise ValueError(
                f"T = {self.T} is not an integer number of steps of dt = {self.dt}"
            )
        return n


@dataclass
class Trajectory:
    """Output of one solve: stored snapshots and per-step Picard bookkeeping."""

    grid: Grid1D
    times: np.ndarray
    snapshots: list
    snapshot_steps: list
    picard_updates: np.ndarray
    picard_distances: np.ndarray  # per step: estimated distance left to the fixed point
    picard_sweeps: np.ndarray     # per step; entry 0 (the initial state) is 0
    picard_converged: np.ndarray  # per step: the stop test passed within picard_max

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


class _BandLU(namedtuple("_BandLU", "kl L ku U")):
    """Pivot-free LU factors in band storage: unit-lower L, kl below; U, ku above."""

    def solve(self, b):
        """Overwrite b with A^-1 b: two banded triangular solves (dtbsv)."""
        y = _dtbsv(self.kl, self.L, b, lower=1, diag=1, overwrite_x=1)
        return _dtbsv(self.ku, self.U, y, overwrite_x=1)


def _band(F, upper: bool):
    """A triangular factor's SuperLU CSC arrays, cut at indptr[-1], as (bandwidth, band)."""
    data, indices, indptr = F
    n, nnz = len(indptr) - 1, indptr[-1]
    cols = np.repeat(np.arange(n), np.diff(indptr))
    off = cols - indices[:nnz] if upper else indices[:nnz] - cols  # distance from the diagonal
    k = int(np.max(off))
    B = np.zeros((k + 1, n), order="F")
    B[k - off if upper else off, cols] = data[:nnz]
    return k, B


def splu(A) -> _BandLU:
    """Band LU without row interchanges of A, given as CSC arrays (data, indices, indptr)
    with C int indices; like scipy's splu, its solve(b) gives A^-1 b.  The factors are
    SuperLU's, from the call scipy's splu(A, permc_spec="NATURAL", diag_pivot_thresh=0)
    makes; without interchanges their bandwidths are A's."""
    data, indices, indptr = A
    n = len(indptr) - 1
    try:
        lu = _superlu.gstrf(n, len(data), data, indices, indptr,
                            csc_construct_func=lambda arrays, shape: arrays, ilu=False,
                            options={"DiagPivotThresh": 0.0, "ColPerm": "NATURAL",
                                     "SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"implicit system is singular: {exc}") from exc
    (kl, L), (ku, U) = _band(lu.L, False), _band(lu.U, True)
    ident, growth = np.arange(n), np.max(np.abs(U)) / np.max(np.abs(data))
    if not (np.array_equal(lu.perm_r, ident) and np.array_equal(lu.perm_c, ident)
            and np.all(U[ku] != 0.0) and growth <= 1e3):  # every recipe: growth 1
        raise SolverError(f"implicit system needs pivoting (growth max|U|/max|A| = {growth:.3e})")
    return _BandLU(kl, L, ku, U)


class _System:
    """Factorized implicit operator and the explicit-side matrices."""

    def __init__(self, grid: Grid1D, dt: float, theta: float):
        n = grid.n
        self.D3 = deriv_matrix(grid, 3)
        self.D1 = deriv_matrix(grid, 1)
        # A = I + theta*dt*D3 in CSC arrays, each entry as scipy's sparse sum forms it
        # (theta*dt*w, then 1.0 added on the diagonal, exact zeros dropped).  Row 0 is
        # the Dirichlet row; right closure: u(L) = 0 with u_x(L) = 0 imposed through the
        # last interior node; pinning both end values keeps the wall exactly energy-neutral
        # for the centered interior stencil.  A pinned row keeps only its diagonal, 1
        w, cols, indptr = self.D3
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        a = (theta * dt) * w
        a[rows == cols] += 1.0
        a = np.where(np.isin(rows, (0, n - 2, n - 1)), rows == cols, a)
        order = np.lexsort((rows, cols))  # by column, rows ascending
        order = order[a[order] != 0.0]
        colptr = np.searchsorted(cols[order], np.arange(n + 1)).astype(np.int32)
        self.lu = splu((a[order], rows[order], colptr))


# weights on u^n, u^{n-1}, ... of the polynomial through u^n and m earlier states at t^{n+1}
_EXTRAPOLANTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))
_HISTORY = len(_EXTRAPOLANTS) - 1  # earlier states a step's start uses: the cubic


def _extrapolate(u: np.ndarray, history) -> np.ndarray:
    """The polynomial in time through u^n and history = (u^{n-1}, u^{n-2}, ...), most
    recent first and at most _HISTORY long, evaluated one step ahead (a new array)."""
    w = _EXTRAPOLANTS[len(history)]
    uk = w[0] * u
    for c, p in zip(w[1:], history):
        uk += c * p
    return uk


class _LastForcing:
    """A forcing F(x, t) that hands back its last row when called again at the same
    t.  One step's F(x, t^{n+1}) is the next step's F(x, t^n) whenever solve's
    pinned clock n*dt equals t^{n-1} + dt bit for bit, which it mostly does."""

    def __init__(self, forcing):
        self.forcing, self.last = forcing, (None, None)

    def __call__(self, x, t):
        if t != self.last[0]:
            self.last = (t, np.asarray(self.forcing(x, t), dtype=float))
        return self.last[1]


def _advance(field: Field, cfg: SolverConfig, bd: BoundaryData, sys_: _System, history=()):
    """One theta-step from u^n, with history = the accepted states before it, most
    recent first; returns (new field, final Picard update norm, estimated distance
    left to the fixed point, sweeps, whether the stop test passed)."""
    u = field.values
    t = field.t
    tn = t + cfg.dt
    expl = u - (cfg.dt * (1.0 - cfg.theta)) * (sys_.D3 @ u)
    if cfg.forcing is not None:
        x = field.grid.nodes
        Fn = np.asarray(cfg.forcing(x, t), dtype=float)  # first: a _LastForcing may hold it
        expl = expl + cfg.dt * (
            cfg.theta * np.asarray(cfg.forcing(x, tn), dtype=float) + (1.0 - cfg.theta) * Fn
        )
    b_left = float(bd.f(tn))
    tol = cfg.picard_tol * (1.0 + float(np.max(np.abs(u))))
    uk = _extrapolate(u, history) if cfg.nonlinear else u
    delta, prev_delta, converged = 0.0, np.inf, False
    for sweeps in range(1, cfg.picard_max + 1):
        if cfg.nonlinear:
            um = u + uk
            b = expl - (0.25 * cfg.dt) * (sys_.D1 @ (um * um))  # dt * D1(((u + uk)/2)^2)
        else:
            b = expl.copy()
        b[0] = b_left
        b[-2] = 0.0
        b[-1] = 0.0
        unew = sys_.lu.solve(b)
        delta = float(np.max(np.abs(unew - uk)))
        if not np.isfinite(delta):  # a NaN or an inf anywhere in unew
            raise SolverError(f"non-finite state at t = {tn:.6g}")
        uk = unew
        # from the second sweep on, rate/(1 - rate)*delta estimates the distance left
        rate = delta / prev_delta
        if (not cfg.nonlinear or delta <= tol
                or (sweeps > 1 and rate < 1.0 and rate * delta <= (1.0 - rate) * tol)):
            converged = True
            break
        if delta > 4.0 * prev_delta:
            raise SolverError(
                f"picard iteration diverging at t = {tn:.6g} "
                f"(update grew {delta:.3e} from {prev_delta:.3e}); dt too large"
            )
        prev_delta = delta
    # a single update is its own estimate; a rate >= 1 gives none
    if sweeps == 1:
        distance = delta
    else:
        distance = rate / (1.0 - rate) * delta if rate < 1.0 else np.inf
    # constrained rows hold exactly, not merely to factorization round-off
    uk[0] = b_left
    uk[-2] = 0.0
    uk[-1] = 0.0
    return Field(field.grid, uk, tn), delta, distance, sweeps, converged


def solve(u0: Field, cfg: SolverConfig, bd: BoundaryData, observers=()) -> Trajectory:
    """March nsteps = T/dt steps from u0.

    Observers are called with the state at t=0 and after every step; they are
    how diagnostics, the wall traces among them, accumulate without storing dense
    history.  Snapshots keep every snapshot_stride-th state (endpoints always
    included).
    """
    nsteps = cfg.nsteps
    mismatch = abs(float(u0.values[0]) - float(bd.f(0.0)))
    if not mismatch <= _CORNER_TOL:
        raise ConfigError(f"incompatible data at the corner: |u0(0) - f(0)| = {mismatch:.3e} > "
                          f"{_CORNER_TOL:.0e} (move data.center or change boundary.*)")
    bd.validate(cfg.T)
    sys_ = _System(u0.grid, cfg.dt, cfg.theta)
    updates = np.zeros(nsteps + 1)
    distances = np.zeros(nsteps + 1)
    sweeps = np.zeros(nsteps + 1, dtype=int)
    converged = np.ones(nsteps + 1, dtype=bool)
    state = Field(u0.grid, u0.values.copy(), 0.0)
    snapshots = [Field(u0.grid, state.values.copy(), 0.0)]
    snapshot_steps = [0]
    # huge data overflows the observers before the first step can fail; the
    # stepper's non-finite check reports it once, not numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for obs in observers:
            obs(state)
        history = ()  # references, not copies: each step's state is a new array
        step_cfg = cfg if cfg.forcing is None else replace(cfg, forcing=_LastForcing(cfg.forcing))
        for k in range(1, nsteps + 1):
            un = state.values
            state, updates[k], distances[k], sweeps[k], converged[k] = _advance(
                state, step_cfg, bd, sys_, history)
            history = (un,) + history[:_HISTORY - 1]
            # pin the step clock to k*dt so long runs do not accumulate drift
            state.t = k * cfg.dt
            if k % cfg.snapshot_stride == 0 or k == nsteps:
                snapshots.append(Field(state.grid, state.values.copy(), state.t))
                snapshot_steps.append(k)
            for obs in observers:
                obs(state)
    return Trajectory(
        grid=u0.grid,
        times=np.arange(nsteps + 1) * cfg.dt,  # each state's pinned clock k*dt
        snapshots=snapshots,
        snapshot_steps=snapshot_steps,
        picard_updates=updates,
        picard_distances=distances,
        picard_sweeps=sweeps,
        picard_converged=converged,
    )
