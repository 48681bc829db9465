"""Independent references: a whole-line pseudospectral solver and a manufactured
solution.

The whole-line solver integrates u_t + u_xxx + (u^2)_x = 0 on a large periodic
domain with an integrating-factor RK4 (the dispersive phase is exact, only the
nonlinear flux is stepped) and 2/3-rule dealiasing.  The data are real, so the
march runs on the half spectrum, through scipy's compiled pocketfft kernel:
r2c/c2r on one thread, loaded from its file like kdvhl's other three kernels
but only once a march runs, so neither numpy.fft nor a scipy package is
imported.  It is streamed: observers see every step's spectrum and no state is
kept, so it needs O(m + nsteps) memory (one spectrum and the time grid) however
long it runs.  The march allocates its buffers once and updates one spectrum
in place, so an observer sees the same array at every step and must copy what
it keeps.  Restricting such a run to a window [x*, x*+L] (by chirp-z
transforms on pocketfft's c2c) manufactures inflow data for the half-line
solver whose answer can then be cross-checked against the restriction itself.

Bounded buffers: a WindowProbe keeps three doubles per step and copies of the
spectra of step 0 and of the four steps around each sample time.  Of the march,
only the inflow's Hermite table and the time grid it views are alive during the
half-line solve.  A restriction evaluates _BLOCK = 128 points at a time, as a
chirp-z transform on pocketfft's c2c: however many points it restricts, it
holds the chirp's transform and one complex row of the FFT length (640 at
m = 1024, 10 kB) per spectrum of the stack, and each block's two transforms
take every row at once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

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
    "decaying_hump",
]

_SUPPORT_TOL = 1e-10
_BLOCK = 128  # points per chirp-z block of the restriction
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


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


def _series_weights(grid: PeriodicGrid):
    """Weight of each half-spectrum mode in the real trigonometric series: modes
    1 .. m/2-1 stand for a conjugate pair each, so they count twice."""
    w = np.full(grid.m // 2 + 1, 2.0 / grid.m)
    w[0] = w[-1] = 1.0 / grid.m
    return w


def _restriction_matrix(grid: PeriodicGrid, x, order: int = 0):
    """Matrix R with Re(uhat @ R) the order-th derivative of the series at x: the
    dense form, for WindowProbe's three taps at x*."""
    k = grid.wavenumbers
    R = np.outer(k, np.asarray(x, dtype=float) - grid.x_left) * 1j
    np.exp(R, out=R)
    R *= (_series_weights(grid) * (1j * k) ** order)[:, None]
    return R


def spectral_restriction(uhat, grid: PeriodicGrid, x0: float, h: float, n: int):
    """Evaluate a half spectrum (or a stack of them, one per row) at the n points
    x0 + j h by its trigonometric series.

    On a block of S = _BLOCK points from x_s the series is the chirp-z transform
    sum_q a_q exp(i th q p), p < S, of a_q = w_q uhat_q exp(i k_q (x_s - x_left))
    (w_q the series weights), with th = 2 pi h / P.  Bluestein's
    q p = (q^2 + p^2 - (p - q)^2) / 2 makes it a convolution with the chirp
    exp(-i th r^2 / 2), which pocketfft's c2c takes on one thread, every row at
    once, at its good_size N >= m/2 + S (the least length of small prime
    factors: 640 at m = 1024).  The chirp's transform is built once per call; a
    block costs m/2 + 1 prefactor exponentials and two transforms in one
    rows x N complex buffer, however many points are restricted.  Each chirp
    phase th r^2 / 2 is an exact product (th / 2 split into a 24-bit head and
    its tail, r^2 < 2^29 for m <= 32768): phases rounded once put coarse
    windows up to 3x farther than the dense sum from a long-double one.
    """
    pocketfft = _scipy_ext(_POCKETFFT)
    uhat = np.asarray(uhat)
    k = grid.wavenumbers
    S = min(_BLOCK, n)
    N = pocketfft.good_size(k.size - 1 + S)
    half = np.pi * h / grid.P
    head = float(np.float32(half))

    def chirp(r):
        """exp(i th r^2 / 2) for the integers r."""
        r2 = (r * r).astype(float)
        return np.exp(1j * (head * r2)) * np.exp(1j * ((half - head) * r2))

    q = np.arange(k.size)
    pre = _series_weights(grid) * chirp(q)
    post = chirp(np.arange(S))
    lags = np.arange(1 - k.size, S)  # p - q; a negative lag wraps to the end
    kernel = np.zeros(N, dtype=complex)
    kernel[lags] = chirp(lags).conj()
    pocketfft.c2c(kernel, (0,), True, 2, kernel, 1)  # its transform, times 1/N
    buf = np.empty(uhat.shape[:-1] + (N,), dtype=complex)
    axes = (buf.ndim - 1,)
    out = np.empty(uhat.shape[:-1] + (n,))
    for s in range(0, n, S):
        np.multiply(uhat, pre * np.exp(1j * (k * (x0 + s * h - grid.x_left))),
                    out=buf[..., :k.size])
        buf[..., k.size:] = 0.0
        pocketfft.c2c(buf, axes, True, 0, buf, 1)
        buf *= kernel
        pocketfft.c2c(buf, axes, False, 0, buf, 1)
        e = min(S, n - s)
        out[..., s:s + e] = (buf[..., :e] * post[:e]).real
    return out


def wholeline_times(u0_values, grid: PeriodicGrid, T: float, cfl: float) -> np.ndarray:
    """The time grid of a march to time T, for wholeline_solve and WindowProbe.

    The step is cfl * dx / max|2 u0| (the nonlinear advection limit; the stiff
    dispersive part is integrated exactly), shrunk to divide T.
    """
    speed = max(2.0 * float(np.max(np.abs(u0_values))), 1e-8)
    dt = cfl * grid.dx / speed
    nsteps = max(1, int(np.ceil(T / dt - 1e-12)))
    return (T / nsteps) * np.arange(nsteps + 1)


def wholeline_solve(u0_values, grid: PeriodicGrid, times, observers=()) -> WholelineTrajectory:
    """March the periodic problem over the time grid times from wholeline_times.

    Each observer is called as obs(step, t, uhat) with the half spectrum
    rfft(u) at step 0 and after every step.  uhat is one buffer that the march
    updates in place, the same array at every call: an observer must not modify
    it and must copy what it keeps.  Data must be effectively compactly
    supported: below 1e-10 within P/8 of both period ends.
    """
    pocketfft = _scipy_ext(_POCKETFFT)  # loaded by the oracle's first call
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
    E_2 = 2.0 * E
    # as complex scalars they give the same products, without a cast per call
    half, step_dt, sixth = (np.complex128(c) for c in (0.5 * dt, dt, dt / 6.0))
    # every buffer of the march, allocated once; each product keeps the operand
    # order of the textbook update (E * s, not s * E: complex products are not
    # bitwise commutative under FMA)
    pad = np.zeros(k.size, dtype=complex)  # a stage's kept prefix, its tail zero
    stage = pad[:nkeep]
    u = np.empty(grid.m)
    spec, Nv, Na, Nb, Nc, E2u, s1, s2 = np.empty((8, k.size), dtype=complex)
    # the kept prefixes, all that the stages feed to nonlin
    Ek, t1, t2, Nvk, Nak, Nbk, E2uk = (b[:nkeep] for b in (E, s1, s2, Nv, Na, Nb, E2u))
    finite = np.empty(k.size, dtype=bool)

    def nonlin(N):
        """N = flux * rfft(irfft(pad)**2), the flux of the stage held in pad."""
        pocketfft.c2r(pad, (0,), grid.m, False, 2, u, 1)  # irfft: 1/m, one thread
        np.multiply(u, u, out=u)
        pocketfft.r2c(u, (0,), True, 0, spec, 1)
        np.multiply(flux, spec, out=N)

    uhat = pocketfft.r2c(u0, (0,), True, 0, None, 1)  # updated in place from here on
    uk = uhat[:nkeep]
    for obs in observers:
        obs(0, 0.0, uhat)
    # a blow-up is reported once, by the non-finite check, not by overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, len(times)):
            stage[:] = uk
            nonlin(Nv)
            # a = E * (uhat + (dt/2) Nv), on the kept prefix only
            np.multiply(half, Nvk, out=t1)
            np.add(uk, t1, out=t1)
            np.multiply(Ek, t1, out=stage)
            nonlin(Na)
            # b = E * uhat + (dt/2) Na
            np.multiply(Ek, uk, out=t1)
            np.multiply(half, Nak, out=t2)
            np.add(t1, t2, out=stage)
            nonlin(Nb)
            # c = E2 * uhat + dt * (E * Nb)
            np.multiply(E2, uhat, out=E2u)
            np.multiply(Ek, Nbk, out=t1)
            np.multiply(step_dt, t1, out=t1)
            np.add(E2uk, t1, out=stage)
            nonlin(Nc)
            # uhat = E2 * uhat + (dt/6) * (E2 * Nv + 2E * (Na + Nb) + Nc)
            np.multiply(E2, Nv, out=s1)
            np.add(Na, Nb, out=s2)
            np.multiply(E_2, s2, out=s2)
            np.add(s1, s2, out=s1)
            np.add(s1, Nc, out=s1)
            np.multiply(sixth, s1, out=s1)
            np.add(E2u, s1, out=uhat)
            np.isfinite(uhat, out=finite)
            if not finite.all():
                raise SolverError(f"whole-line solve went non-finite at t={times[step]:.6g}")
            for obs in observers:
                obs(step, times[step], uhat)
    return WholelineTrajectory(grid=grid, times=times)


class WindowProbe:
    """wholeline_solve observer for the window [x*, x*+L] of the half-line grid.

    Records u, u_x and u_xxx at x* on every step of the time grid times (one small
    product each, kept as three doubles).  It keeps copies of the spectra of step
    0 and of the four steps around each sample time, whose cubic Lagrange
    interpolant in time gives that sample's spectrum, nothing more.
    """

    def __init__(self, grid: PeriodicGrid, x_star: float, window: Grid1D, times, samples=()):
        if not (grid.x_left <= x_star and x_star + window.L <= grid.x_left + grid.P):
            raise ConfigError(
                f"window [{x_star}, {x_star + window.L}] is not contained in the "
                f"period [{grid.x_left}, {grid.x_left + grid.P}]"
            )
        self.grid, self.x_star, self.window, self.times = grid, x_star, window, times
        self._windows = []
        for th in samples:
            j = min(max(np.searchsorted(times, th), 2), len(times) - 2)
            idx = np.arange(j - 2, j + 2)
            tloc = times[idx]
            lag = np.array([
                np.prod([(th - tloc[b]) / (tloc[a] - tloc[b]) for b in range(4) if b != a])
                for a in range(4)
            ])
            self._windows.append((idx, lag))
        self._keep = frozenset(i for idx, _ in self._windows for i in idx.tolist()) | {0}
        self.spectra = {}
        self._traces = array("d")
        self._taps = np.hstack([_restriction_matrix(grid, [x_star], p) for p in (0, 1, 3)])

    def __call__(self, step: int, t: float, uhat):
        self._traces.frombytes((uhat @ self._taps).real.tobytes())
        if step in self._keep:
            self.spectra[step] = uhat.copy()

    @property
    def traces(self) -> np.ndarray:
        """u, u_x and u_xxx at x*, one row per observed step (a copy)."""
        return np.array(self._traces).reshape(-1, 3)

    def sample_spectra(self) -> np.ndarray:
        """One row per sample time: the Lagrange cubic in time of its four kept spectra."""
        return np.array([lag @ np.array([self.spectra[i] for i in idx])
                         for idx, lag in self._windows])


def extract_halfline_data(probe: WindowProbe) -> tuple[Field, BoundaryData, np.ndarray]:
    """Restrict a probed whole-line run to [x*, x*+L]: initial data, inflow trace
    and the window values at each of the probe's sample times.

    f(t) is the solution at x*, and its slope comes from the equation itself,
    f'(t) = -(u_xxx + 2 u u_x)(x*, t), evaluated spectrally, so no time
    differencing enters.  Between march times f is the cubic Hermite
    interpolant of these values and slopes, and fprime, its complex step, is the
    cubic's derivative to rounding.  The step-0 spectrum and the sample spectra
    are restricted in one spectral_restriction call, each block's transforms
    taking all rows at once, with the same bits as a call per spectrum; it runs
    before the inflow is built, so its buffers never coexist with the inflow's
    O(nsteps) arrays.
    """
    stack = np.vstack([probe.spectra[0], probe.sample_spectra()])
    restr = spectral_restriction(stack, probe.grid, probe.x_star, probe.window.h,
                                 probe.window.n)
    fvals, d1, d3 = probe.traces.T
    inflow = _Hermite(probe.times, fvals, -(d3 + 2.0 * fvals * d1))
    return Field(probe.window, restr[0], 0.0), BoundaryData(f=inflow), restr[1:]


def decaying_hump(amplitude: float = 1.0, center: float = 8.0, width: float = 2.0):
    """The manufactured solution u_e = a e^{-t} sech^2((x-c)/w), smooth, localized
    and with every derivative closed, and the forcing F = u_t + u_xxx + 2 u u_x that
    freezes it in: returns (u_e, F), each a callable of (x, t).  A run's initial
    data u_e(x, 0) and boundary value u_e(0, t) are read from u_e."""

    def parts(x):
        z = (np.asarray(x, dtype=float) - center) / width
        return 1.0 / np.cosh(z) ** 2, np.tanh(z)

    def u(x, t):
        return amplitude * np.exp(-t) * parts(x)[0]

    def forcing(x, t):
        s2, tz = parts(x)
        a = amplitude * np.exp(-t)
        u_e = a * s2
        u_x = a * (-2.0 * s2 * tz) / width
        u_xxx = a * (-8.0 * s2 * tz**3 + 16.0 * s2**2 * tz) / width**3
        return -u_e + u_xxx + 2.0 * u_e * u_x  # u_t = -u_e

    return u, forcing
