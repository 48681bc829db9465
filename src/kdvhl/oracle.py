"""Independent references: a whole-line pseudospectral solver and manufactured
solutions.

The whole-line solver integrates u_t + u_xxx + (u^2)_x = 0 on a large periodic
domain with an integrating-factor RK4 (the dispersive phase is exact, only the
nonlinear flux is stepped) and 2/3-rule dealiasing.  The data are real, so the
march runs on the half spectrum, through scipy's compiled pocketfft kernel:
r2c/c2r on one thread, loaded from its file like kdvhl's other three kernels
but only once a march runs, so neither numpy.fft nor a scipy package is
imported.  It is streamed: observers see every step's spectrum and no state is
kept, so it needs O(m + nsteps) memory (one spectrum and the time grid) however
long it runs.  Restricting such a
run to a window [x*, x*+L] manufactures inflow data for the half-line solver
whose answer can then be cross-checked against the restriction itself.

Bounded buffers: a WindowProbe keeps three doubles per step and the spectra it
was asked to keep; a restriction builds its (m/2+1)-row matrix over blocks of
_BLOCK = 64 points, one block at a time (525 kB of complex values at m = 1024,
however many points are restricted).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import ConfigError
from .discretization import Field, Grid1D, _Hermite, _scipy_ext
from .solver import BoundaryData, SolverError

__all__ = [
    "PeriodicGrid",
    "WholelineTrajectory",
    "WindowProbe",
    "wholeline_times",
    "wholeline_solve",
    "spectral_restriction",
    "extract_halfline_data",
    "ManufacturedSolution",
    "decaying_hump",
]

_SUPPORT_TOL = 1e-10
_BLOCK = 64  # points per block of the restriction matrix


@dataclass(frozen=True)
class PeriodicGrid:
    """Periodic domain [x_left, x_left + P) sampled at m points (m a power of 2)."""

    P: float
    m: int
    x_left: float = 0.0

    def __post_init__(self):
        if not (self.P > 0.0):
            raise ConfigError(f"period must be positive, got {self.P}")
        if self.m < 16 or (self.m & (self.m - 1)) != 0:
            raise ConfigError(f"m must be a power of two >= 16, got {self.m}")

    @property
    def dx(self) -> float:
        return self.P / self.m

    @property
    def nodes(self):
        return self.x_left + self.dx * np.arange(self.m)

    @property
    def wavenumbers(self):
        """The m/2 + 1 nonnegative wavenumbers of the half spectrum (rfft order),
        in numpy's rfftfreq arithmetic."""
        return 2.0 * np.pi * (np.arange(self.m // 2 + 1) * (1.0 / (self.m * self.dx)))


@dataclass
class WholelineTrajectory:
    """Time grid of a streamed march; the states went to its observers."""

    grid: PeriodicGrid
    times: np.ndarray


def _restriction_matrix(grid: PeriodicGrid, x, order: int = 0):
    """Matrix R with Re(uhat @ R) the order-th derivative of the series at x.

    Modes 1 .. m/2-1 stand for a conjugate pair each, so they count twice.
    """
    k = grid.wavenumbers
    w = np.full(k.size, 2.0 / grid.m)
    w[0] = w[-1] = 1.0 / grid.m
    R = np.outer(k, np.asarray(x, dtype=float) - grid.x_left) * 1j
    np.exp(R, out=R)
    R *= (w * (1j * k) ** order)[:, None]
    return R


def spectral_restriction(uhat, grid: PeriodicGrid, x):
    """Evaluate a half spectrum (or a stack of them, one per row) at the points x
    by its trigonometric series.

    The matrix is built over blocks of _BLOCK points, so a wide window never
    holds an (m/2+1) x len(x) complex array.  einsum keeps the products on one
    thread: a multithreaded BLAS loses more waking its idle workers for each
    block than it gains on products this small.
    """
    uhat = np.asarray(uhat)
    x = np.asarray(x, dtype=float)
    out = np.empty(uhat.shape[:-1] + x.shape)
    for s in range(0, x.size, _BLOCK):
        out[..., s:s + _BLOCK] = np.einsum("...k,kj->...j", uhat,
                                           _restriction_matrix(grid, x[s:s + _BLOCK])).real
    return out


def wholeline_times(u0_values, grid: PeriodicGrid, T: float, cfl: float = 0.5) -> np.ndarray:
    """The step times of wholeline_solve for the same arguments.

    The step is cfl * dx / max|2 u0| (the nonlinear advection limit; the stiff
    dispersive part is integrated exactly), shrunk to divide T.
    """
    speed = max(2.0 * float(np.max(np.abs(u0_values))), 1e-8)
    dt = cfl * grid.dx / speed
    nsteps = max(1, int(np.ceil(T / dt - 1e-12)))
    return (T / nsteps) * np.arange(nsteps + 1)


def wholeline_solve(u0_values, grid: PeriodicGrid, T: float, cfl: float = 0.5,
                    observers=()) -> WholelineTrajectory:
    """March the periodic problem to time T.

    Each observer is called as obs(step, t, uhat) with the half spectrum
    rfft(u) at step 0 and after every step; an observer must not modify uhat
    and should copy what it keeps.  Data must be effectively
    compactly supported: below 1e-10 within P/8 of both period ends.
    """
    pocketfft = _scipy_ext("scipy.fft._pocketfft.pypocketfft")  # loaded by the first march
    u0 = np.asarray(u0_values, dtype=float)
    if u0.shape != (grid.m,):
        raise ValueError(f"u0 has shape {u0.shape}, grid has m={grid.m}")
    guard = int(np.ceil(grid.m / 8))
    edge = max(np.max(np.abs(u0[:guard])), np.max(np.abs(u0[-guard:])))
    if edge > _SUPPORT_TOL:
        raise ConfigError(
            f"periodic support guard violated: |u0| reaches {edge:.2e} within "
            f"P/8 of a period end (limit {_SUPPORT_TOL:.0e})"
        )
    times = wholeline_times(u0, grid, T, cfl)
    dt = times[1]

    k = grid.wavenumbers
    L = 1j * k**3
    # 2/3 rule: the kept modes are a prefix of the half spectrum, so the flux
    # multiplier -ik carries the output mask and zero-padding the input one
    dealias = k <= (2.0 / 3.0) * k[-1]
    nkeep = int(np.count_nonzero(dealias))
    flux = np.where(dealias, -1j * k, 0.0)
    E = np.exp(0.5 * dt * L)
    E2 = E * E
    pad = np.zeros(k.size, dtype=complex)  # the kept prefix, its tail zero
    u = np.empty(grid.m)

    def nonlin(uhat):
        pad[:nkeep] = uhat[:nkeep]
        pocketfft.c2r(pad, (0,), grid.m, False, 2, u, 1)  # irfft: 1/m, one thread
        np.multiply(u, u, out=u)
        return flux * pocketfft.r2c(u, (0,), True, 0, None, 1)

    uhat = pocketfft.r2c(u0, (0,), True, 0, None, 1)
    for obs in observers:
        obs(0, 0.0, uhat)
    # a blow-up is reported once, by the non-finite check, not by overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, len(times)):
            Nv = nonlin(uhat)
            a = E * (uhat + (0.5 * dt) * Nv)
            Na = nonlin(a)
            b = E * uhat + (0.5 * dt) * Na
            Nb = nonlin(b)
            c = E2 * uhat + dt * (E * Nb)
            Nc = nonlin(c)
            uhat = E2 * uhat + (dt / 6.0) * (E2 * Nv + 2.0 * E * (Na + Nb) + Nc)
            if not np.all(np.isfinite(uhat)):
                raise SolverError(f"whole-line solve went non-finite at t={times[step]:.6g}")
            for obs in observers:
                obs(step, times[step], uhat)
    return WholelineTrajectory(grid=grid, times=times)


class WindowProbe:
    """wholeline_solve observer for the window [x*, x*+L] of the half-line grid.

    Records u, u_x and u_xxx at x* on every step (one small product each, kept as
    three doubles) and keeps the spectra of step 0 and of the steps in keep,
    nothing more.
    """

    def __init__(self, grid: PeriodicGrid, x_star: float, window: Grid1D, keep=()):
        if not (grid.x_left <= x_star and x_star + window.L <= grid.x_left + grid.P):
            raise ConfigError(
                f"window [{x_star}, {x_star + window.L}] is not contained in the "
                f"period [{grid.x_left}, {grid.x_left + grid.P}]"
            )
        self.grid, self.x_star, self.window = grid, x_star, window
        self.keep = frozenset(keep) | {0}
        self.spectra = {}
        self._traces = array("d")
        self._taps = np.hstack([_restriction_matrix(grid, [x_star], p) for p in (0, 1, 3)])

    def __call__(self, step: int, t: float, uhat):
        self._traces.extend((uhat @ self._taps).real)
        if step in self.keep:
            self.spectra[step] = uhat.copy()

    @property
    def traces(self) -> np.ndarray:
        """u, u_x and u_xxx at x*, one row per observed step (a copy)."""
        return np.array(self._traces).reshape(-1, 3)


def extract_halfline_data(traj: WholelineTrajectory,
                          probe: WindowProbe) -> tuple[Field, BoundaryData]:
    """Restrict a probed whole-line run to [x*, x*+L]: initial data plus inflow trace.

    f(t) is the solution at x*, and its slope comes from the equation itself,
    f'(t) = -(u_xxx + 2 u u_x)(x*, t), evaluated spectrally, so no time
    differencing enters.  Between march times f is the cubic Hermite
    interpolant of these values and slopes, and fprime is its derivative, so
    the pair is consistent by construction.
    """
    fvals, d1, d3 = probe.traces.T
    inflow = _Hermite(traj.times, fvals, -(d3 + 2.0 * fvals * d1))
    u0_vals = spectral_restriction(probe.spectra[0], probe.grid,
                                   probe.x_star + probe.window.nodes)
    bd = BoundaryData(f=lambda t: float(inflow(t)), fprime=lambda t: float(inflow(t, 1)))
    return Field(probe.window, u0_vals, 0.0), bd


@dataclass
class ManufacturedSolution:
    """Closed-form u_e with the derivatives the forcing construction needs.

    Cross-differencing at construction guards the hand-derived callables: u_x
    and u_xxx against centered differences of u, u_t against a time difference.
    """

    u: Callable[[np.ndarray, float], np.ndarray]
    u_x: Callable[[np.ndarray, float], np.ndarray]
    u_xxx: Callable[[np.ndarray, float], np.ndarray]
    u_t: Callable[[np.ndarray, float], np.ndarray]

    def __post_init__(self):
        xs = np.linspace(0.7, 9.3, 7)
        for t in (0.13, 0.77):
            hx = 1e-3
            du = (self.u(xs + hx, t) - self.u(xs - hx, t)) / (2 * hx)
            d3 = (
                -0.5 * self.u(xs - 2 * hx, t) + self.u(xs - hx, t)
                - self.u(xs + hx, t) + 0.5 * self.u(xs + 2 * hx, t)
            ) / hx**3
            ht = 1e-5
            dt_ = (self.u(xs, t + ht) - self.u(xs, t - ht)) / (2 * ht)
            scale = max(1.0, float(np.max(np.abs(du))), float(np.max(np.abs(d3))))
            if np.max(np.abs(du - self.u_x(xs, t))) > 1e-3 * scale:
                raise ValueError("manufactured u_x disagrees with differencing of u")
            if np.max(np.abs(d3 - self.u_xxx(xs, t))) > 1e-2 * scale:
                raise ValueError("manufactured u_xxx disagrees with differencing of u")
            if np.max(np.abs(dt_ - self.u_t(xs, t))) > 1e-3 * scale:
                raise ValueError("manufactured u_t disagrees with differencing of u")

    def forcing(self, x, t: float):
        """Residual forcing F = u_t + u_xxx + 2 u u_x that freezes u_e in."""
        return self.u_t(x, t) + self.u_xxx(x, t) + 2.0 * self.u(x, t) * self.u_x(x, t)

    def boundary(self) -> BoundaryData:
        return BoundaryData(
            f=lambda t: float(self.u(np.array(0.0), t)),
            fprime=lambda t: float(self.u_t(np.array(0.0), t)),
        )

    def initial(self, grid: Grid1D) -> Field:
        return Field(grid, self.u(grid.nodes, 0.0), 0.0)


def decaying_hump(amplitude: float = 1.0, center: float = 8.0,
                  width: float = 2.0) -> ManufacturedSolution:
    """u_e = a e^{-t} sech^2((x-c)/w): smooth, localized, all derivatives closed."""

    def parts(x):
        z = (np.asarray(x, dtype=float) - center) / width
        s2 = 1.0 / np.cosh(z) ** 2
        tz = np.tanh(z)
        return s2, tz

    def u(x, t):
        s2, _ = parts(x)
        return amplitude * np.exp(-t) * s2

    def u_x(x, t):
        s2, tz = parts(x)
        return amplitude * np.exp(-t) * (-2.0 * s2 * tz) / width

    def u_xxx(x, t):
        s2, tz = parts(x)
        return amplitude * np.exp(-t) * (-8.0 * s2 * tz**3 + 16.0 * s2**2 * tz) / width**3

    def u_t(x, t):
        s2, _ = parts(x)
        return -amplitude * np.exp(-t) * s2

    return ManufacturedSolution(u=u, u_x=u_x, u_xxx=u_xxx, u_t=u_t)

