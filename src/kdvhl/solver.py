"""Implicit theta-scheme for u_t + u_xxx + (u^2)_x = F on the half-line.

One boundary condition is imposed on the left (u(0,t) = f(t), the Dirichlet
row is exact) and two on the right (u(L) = 0 and u_x(L) = 0, which closes the
third-derivative operator).  The dispersive term is implicit: A = I + theta*dt*D3
is banded with symmetric part I inside, as centred D3 is skew, up to the rounding of
the Fornberg weights: D3's computed centre weight is 1.28e-15/h^3 on the soliton
recipe's grid, not 0, and a D1 pair reads -80.0 / 79.99999999999999 at n = 6401 on
L = 40.  So SuperLU factors A once without pivoting, which is stable for such A (Golub &
Van Loan 1979), and each Picard sweep on the midpoint-averaged nonlinear flux solves it
with two unit-diagonal BLAS dtbsv calls, scipy's compiled kernel loaded from its file,
and one product by the pivot reciprocals between them: U is scaled by rows once per
factorization, so no row divides by its pivot inside the serial recurrence.
Each step iterates from u^n + grad u^n + ... + grad^k u^n (Newton's backward differences),
the order-k polynomial in time through u^n and k earlier states: k = 0, 1, 2 on steps 1-3
(u^n also in linear runs), then the cubic.  On step 16 and every 128th after it, if the
last eight states' steps converged, solve re-chooses k in 3..6 from grad^{k+1} u^n, the
order-k start's error on the last step: k rises only where it starts within the stop
tolerance (one sweep), or where the cubic's error would cost three sweeps; on rough
data (a kink profile) higher differences grow, and the cubic stays.  A step
iterates until the last update, or the estimated distance to the fixed point (Hairer &
Wanner IV.8), is within picard_tol*(1 + max|u^n|), for at most picard_max sweeps, and
records its sweep count and that estimate.  For theta > 0 the last sweep's solve gives
theta*dt*D3 u^{n+1} = b - u^{n+1} off the pinned rows, so a step hands the next its
explicit part u^{n+1} - (1 - theta)*dt*D3 u^{n+1} as u^{n+1} - ((1 - theta)/theta)(b -
u^{n+1}), 2u^{n+1} - b at theta = 1/2, with no D3 product: a fresh product's rounding is
unrelated to the step before, and as it doubles with each backward difference it kept
the order choice at the cubic.  Step 1 has no solve before it, and at theta = 0 (A = I)
b holds no D3 u, so both form the product.  A forced step reuses the last step's
F(x, t^{n+1}) as its F(x, t^n) whenever the two times agree bit for bit.  solve calls
f once per block of _BOUNDARY_BLOCK = 128 steps, on each of the block's t^{n+1}, so an
inflow that is still arriving (the oracle's) is read only as far as the block needs;
a step's sweeps allocate only their flux and b.  solve keeps only the final state and
computes no wall traces: observers, such as diagnostics.TraceSeries, measure every
other state as the march passes it.  Before the first step solve checks the corner
condition u0(0) = f(0) to 1e-10 and (BoundaryData.validate) that f and its
complex-step fprime are finite at t = 0, and before each block that they are finite
at the block's times; either failure is a ConfigError, the CLI's exit 2.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from math import comb, isfinite
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
_BOUNDARY_BLOCK = 128  # steps whose boundary values solve evaluates and checks in one call


class SolverError(RuntimeError):
    """Raised on Picard divergence, singular systems, or non-finite states."""


@dataclass
class BoundaryData:
    """Left-boundary value f(t); its time derivative fprime(t) is taken from f.

    fprime is the complex step Im f(t + ih)/h, h = 1e-30, which has no
    cancellation error (Squire & Trapp, SIAM Rev. 40, 1998).  f must therefore
    take a complex t through numpy: no float(), abs or np.real inside.  f must also
    take an ndarray of real (or complex) times and return their values elementwise,
    each the bits of f at that time alone: solve evaluates a block of steps' values
    in one call.  fprime closes the trace diagnostics' third-derivative trace through
    the equation.  f defaults to the zero boundary f = 0.  keys names the config keys
    that set f, for validate's refusals.
    """

    f: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    keys: tuple = ()

    def fprime(self, t):
        """df/dt at t, a time or an array of times, by complex step."""
        return np.imag(self.f(t + 1e-30j)) / 1e-30

    def validate(self, times: np.ndarray) -> np.ndarray:
        """Check that f and fprime are finite at each of the times (an array); returns
        f(times), as floats."""
        with np.errstate(all="ignore"):  # a non-finite value is refused just below
            f = np.asarray(self.f(times), dtype=float)
            ok = np.isfinite(f) & np.isfinite(self.fprime(times))
        if not ok.all():
            blame = f" (set by {', '.join(self.keys)})" if self.keys else ""
            raise ConfigError(f"boundary data f or fprime{blame} is not finite near "
                              f"t = {times[np.argmin(ok)]:.6g}")
        return f


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

    def __post_init__(self):
        if not (0.0 < self.dt <= self.T):
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.picard_max < 1:
            raise ValueError("picard_max must be >= 1")
        if not (0.0 < self.picard_tol < np.inf):
            raise ValueError(f"picard_tol must be positive and finite, got {self.picard_tol}")

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
    """Output of one solve: the final state and per-step Picard bookkeeping."""

    grid: Grid1D
    final: Field
    picard_updates: np.ndarray
    picard_distances: np.ndarray  # per step: estimated distance left to the fixed point
    picard_sweeps: np.ndarray     # per step; entry 0 (the initial state) is 0
    picard_converged: np.ndarray  # per step: the stop test passed within picard_max


class _BandLU(namedtuple("_BandLU", "kl L ku U U1 rdiag")):
    """Pivot-free LU factors in band storage: unit-lower L, kl below; U, ku above, and
    U = diag(1/rdiag) U1 with U1 = U's rows times rdiag = 1/diag(U), its diagonal 1."""

    def solve(self, b):
        """Overwrite b with A^-1 b: two unit-diagonal banded triangular solves (dtbsv)
        and one product by the pivot reciprocals between them.  A non-unit dtbsv would
        divide each row by its pivot inside its serial recurrence: half its time."""
        y = _dtbsv(self.kl, self.L, b, lower=1, diag=1, overwrite_x=1)
        y *= self.rdiag
        return _dtbsv(self.ku, self.U1, y, diag=1, overwrite_x=1)


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
    makes; without interchanges their bandwidths are A's.  U's rows are scaled once
    by the pivot reciprocals, so that each solve runs both recurrences unit-diagonal;
    a pivot that is 0, or whose reciprocal or scaled row is not finite (a subnormal
    pivot), is refused like an interchange."""
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
    rows = np.arange(-ku, 1)[:, None] + np.arange(n)  # i of the band entry U[ku + i - j, j]
    with np.errstate(all="ignore"):  # a non-finite pivot or row is refused below
        rdiag = 1.0 / U[ku]
        U1 = np.multiply(U, rdiag[np.maximum(rows, 0)], order="F")  # padding stays 0
    ident, growth = np.arange(n), np.max(np.abs(U)) / np.max(np.abs(data))
    if not (np.array_equal(lu.perm_r, ident) and np.array_equal(lu.perm_c, ident)
            and np.all(np.isfinite(U1)) and growth <= 1e3):  # every recipe: growth 1
        raise SolverError(f"implicit system needs pivoting (growth max|U|/max|A| = {growth:.3e})")
    U1[ku] = 1.0  # d * (1/d) may round off 1; the unit-diagonal dtbsv never reads it
    return _BandLU(kl, L, ku, U, U1, rdiag)


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


# weights on u^n, u^{n-1}, ... of the order-k start u^n + grad u^n + ... + grad^k u^n (Newton's
# backward differences), the polynomial through u^n and k earlier states at t^{n+1}:
# (-1)^j C(k + 1, j + 1) on u^{n-j}, k = 0..6
_EXTRAPOLANTS = tuple(tuple(float((-1) ** j * comb(k + 1, j + 1)) for j in range(k + 1))
                      for k in range(7))
_HISTORY = 7  # earlier states kept: grad^7 u^n is the sextic start's error
_CHOOSE_EVERY = 128  # steps between order choices, the first on step 16


def _extrapolate(u: np.ndarray, history, work: np.ndarray) -> np.ndarray:
    """The polynomial in time through u^n and history = (u^{n-1}, u^{n-2}, ...), most
    recent first and at most 6 long, evaluated one step ahead (a new array); each
    product with an earlier state is written into work, an array like u."""
    w = _EXTRAPOLANTS[len(history)]
    uk = w[0] * u
    for c, p in zip(w[1:], history):
        uk += np.multiply(c, p, out=work)
    return uk


def _order(u: np.ndarray, history, tol: float) -> int:
    """The start's order from the errors e_k = max|grad^{k+1} u^n| of the order-k starts on
    the last step, k = 3..6: the lowest k with e_k <= tol (one sweep), else the k of the
    least e_k when e_3 > 1e4*tol (three sweeps or more), else 3.  Ufuncs only."""
    d, errs = np.array([u, *history]), []
    for level in range(1, _HISTORY + 1):
        d = d[:-1] - d[1:]  # row j: grad^level u^{n-j}
        if level > 3:
            errs.append(float(np.max(np.abs(d[0]))))
    return next((k for k, e in enumerate(errs, start=3) if e <= tol),
                3 + errs.index(min(errs)) if errs[0] > 1e4 * tol else 3)


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


def _advance(field: Field, cfg: SolverConfig, f_left: float, sys_: _System, history=(),
             expl=None):
    """One theta-step from u^n to u^{n+1}(0) = f_left, with history = the accepted states
    before it, most recent first, and expl = u^n - (1 - theta)*dt*D3 u^n as the last step
    carried it (None: a D3 product forms it); returns (new field, final Picard update norm,
    estimated distance left to the fixed point, sweeps, whether the stop test passed, the
    new state's expl, None at theta = 0).  One work array holds each temporary in turn."""
    u = field.values
    t = field.t
    tn = t + cfg.dt
    if expl is None:
        expl = u - (cfg.dt * (1.0 - cfg.theta)) * (sys_.D3 @ u)
    if cfg.forcing is not None:
        x = field.grid.nodes
        Fn = np.asarray(cfg.forcing(x, t), dtype=float)  # first: a _LastForcing may hold it
        expl = expl + cfg.dt * (
            cfg.theta * np.asarray(cfg.forcing(x, tn), dtype=float) + (1.0 - cfg.theta) * Fn
        )
    work = np.empty_like(u)
    tol = cfg.picard_tol * (1.0 + float(np.abs(u, out=work).max()))
    uk = _extrapolate(u, history, work) if cfg.nonlinear else u
    delta, prev_delta, converged = 0.0, np.inf, False
    for sweeps in range(1, cfg.picard_max + 1):
        if cfg.nonlinear:
            um = np.add(u, uk, out=work)
            flux = sys_.D1 @ np.multiply(um, um, out=work)
            flux *= 0.25 * cfg.dt  # dt * D1(((u + uk)/2)^2)
            b = expl - flux
        else:
            b = expl.copy()
        b[0] = f_left
        b[-2] = 0.0
        b[-1] = 0.0
        unew = sys_.lu.solve(b)
        delta = float(np.abs(np.subtract(unew, uk, out=work), out=work).max())
        if not isfinite(delta):  # a NaN or an inf anywhere in unew
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
    uk[0] = f_left
    uk[-2] = 0.0
    uk[-1] = 0.0
    # off the pinned rows the last solve gave (I + theta*dt*D3) uk = b, so theta*dt*D3 uk
    # = b - uk and the next expl is uk - c*(b - uk), c = (1 - theta)/theta; the solve
    # overwrote b, rebuilt here to the same bits off the pinned rows, in flux's buffer.
    # At theta = 0, A = I and b holds no D3 uk
    carried = None
    if cfg.theta > 0.0:
        c = (1.0 - cfg.theta) / cfg.theta
        carried = np.subtract(expl, flux, out=flux) if cfg.nonlinear else expl.copy()
        carried *= -c
        carried += (1.0 + c) * uk  # (1 + c)*uk - c*b: 2uk - b at theta = 1/2, uk at theta = 1
    return Field(field.grid, uk, tn), delta, distance, sweeps, converged, carried


def solve(u0: Field, cfg: SolverConfig, bd: BoundaryData, observers=()) -> Trajectory:
    """March nsteps = T/dt steps from u0.

    Observers are called with the state at t=0 and after every step; they are
    how diagnostics, the wall traces among them, accumulate and how a caller
    measures any state but the last, which is the only one solve keeps.
    """
    nsteps = cfg.nsteps
    mismatch = abs(float(u0.values[0]) - float(bd.f(0.0)))
    if not mismatch <= _CORNER_TOL:
        raise ConfigError(f"incompatible data at the corner: |u0(0) - f(0)| = {mismatch:.3e} > "
                          f"{_CORNER_TOL:.0e} (move data.center or change boundary.*)")
    bd.validate(np.zeros(1))
    sys_ = _System(u0.grid, cfg.dt, cfg.theta)
    updates = np.zeros(nsteps + 1)
    distances = np.zeros(nsteps + 1)
    sweeps = np.zeros(nsteps + 1, dtype=int)
    converged = np.ones(nsteps + 1, dtype=bool)
    state = Field(u0.grid, u0.values.copy(), 0.0)
    # huge data overflows the observers before the first step can fail; the
    # stepper's non-finite check reports it once, not numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for obs in observers:
            obs(state)
        # references, not copies: each step's state is a new array
        history, order, expl = (), 3, None
        step_cfg = cfg if cfg.forcing is None else replace(cfg, forcing=_LastForcing(cfg.forcing))
        for k in range(1, nsteps + 1):
            if (k - 1) % _BOUNDARY_BLOCK == 0:
                # f(t^{n+1}) of the block's steps in one call; step k's field.t is the
                # pinned (k - 1)*dt
                f_left = bd.validate(
                    np.arange(k - 1, min(k - 1 + _BOUNDARY_BLOCK, nsteps)) * cfg.dt + cfg.dt)
            un = state.values
            if k % _CHOOSE_EVERY == 16 and converged[k - _HISTORY - 1:k].all():
                order = _order(un, history, cfg.picard_tol * (1.0 + float(np.max(np.abs(un)))))
            state, updates[k], distances[k], sweeps[k], converged[k], expl = _advance(
                state, step_cfg, f_left[(k - 1) % _BOUNDARY_BLOCK], sys_, history[:order],
                expl)
            history = (un,) + history[:_HISTORY - 1]
            # pin the step clock to k*dt so long runs do not accumulate drift
            state.t = k * cfg.dt
            for obs in observers:
                obs(state)
    return Trajectory(
        grid=u0.grid,
        final=state,
        picard_updates=updates,
        picard_distances=distances,
        picard_sweeps=sweeps,
        picard_converged=converged,
    )
