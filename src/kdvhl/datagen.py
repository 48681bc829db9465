"""Initial and boundary data families for the half-line runs.

The kink construction plants a one-sided power singularity (x-x1)_+^m under a
compactly supported smooth envelope, so the data is rough at x1 but perfectly
smooth to the right of the envelope: exactly the split the moving-window
functionals are designed to see.  Solitons and smooth pulses provide the
matching well-resolved scenarios.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .discretization import Field, Grid1D
from .solver import BoundaryData

__all__ = [
    "ResolutionWarning",
    "KinkSpec",
    "kink_data",
    "gaussian_bump",
    "boundary_pulse",
    "soliton_solution",
    "soliton_data",
    "soliton_boundary",
]


class ResolutionWarning(UserWarning):
    """Grid too coarse for a data feature (run proceeds anyway)."""


def _envelope(x, lo: float, hi: float):
    """Smooth bump supported on (lo, hi), scaled to peak value 1."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    if np.any(inside):
        s = x[inside]
        w = -1.0 / ((s - lo) * (hi - s))
        wmax = -1.0 / (0.25 * (hi - lo) ** 2)
        out[inside] = np.exp(w - wmax)
    return out


@dataclass(frozen=True)
class KinkSpec:
    """Rough-left / smooth-right initial profile.

    u0(x) = base(x) + amplitude * (x - x1)_+^m * envelope(x), with the envelope
    supported on (env_lo, env_hi).  m = 1 puts a corner in u0' at x1, so the
    global second-derivative energy diverges ~ 1/h under refinement while the
    profile stays smooth right of env_hi.
    """

    m: int
    x1: float
    amplitude: float
    env_lo: float
    env_hi: float
    base: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"kink power m must be >= 1, got {self.m}")
        if not (self.env_lo < self.x1 < self.env_hi):
            raise ValueError(
                f"kink point x1={self.x1} must sit inside the envelope "
                f"support ({self.env_lo}, {self.env_hi})"
            )


def kink_data(spec: KinkSpec, grid: Grid1D) -> Field:
    """Sample the kink profile on a grid; warns if the envelope is unresolved."""
    if (spec.env_hi - spec.env_lo) / grid.h < 16:
        warnings.warn(
            f"envelope support ({spec.env_lo}, {spec.env_hi}) spans fewer than "
            f"16 grid cells at h={grid.h:.4g}",
            ResolutionWarning,
        )
    x = grid.nodes
    ramp = np.where(x > spec.x1, (x - spec.x1) ** spec.m, 0.0)
    vals = spec.amplitude * ramp * _envelope(x, spec.env_lo, spec.env_hi)
    if spec.base is not None:
        vals = vals + np.asarray(spec.base(x), dtype=float)
    return Field(grid, vals, 0.0)


def gaussian_bump(amplitude: float, center: float, width: float):
    """Smooth background profile A*exp(-((x-c)/w)^2)."""
    def profile(x):
        z = (np.asarray(x, dtype=float) - center) / width
        with np.errstate(over="ignore"):  # far out z*z is inf, and exp(-inf) = 0 is right
            zz = z * z
        return amplitude * np.exp(-zz)
    return profile


def boundary_pulse(kind: str, **params) -> BoundaryData:
    """Closed-form boundary data families (f and fprime both analytic).

    kinds: "zero"; "gaussian-pulse" with A, t_c, w giving f = A t^2
    exp(-((t-t_c)/w)^2); "ramped-cosine" with A, omega, ramp giving
    f = A t^2/(t^2+ramp^2) cos(omega t).  All satisfy f(0) = 0.
    """
    if kind == "zero":
        return BoundaryData(f=lambda t: 0.0, fprime=lambda t: 0.0)
    if kind == "gaussian-pulse":
        A = float(params["A"])
        t_c = float(params["t_c"])
        w = float(params["w"])

        def f(t):
            z = (t - t_c) / w
            return A * t * t * np.exp(-z * z)

        def fprime(t):
            z = (t - t_c) / w
            return A * (2.0 * t - 2.0 * t * t * z / w) * np.exp(-z * z)

        return BoundaryData(f=f, fprime=fprime)
    if kind == "ramped-cosine":
        A = float(params["A"])
        om = float(params["omega"])
        r = float(params["ramp"])

        def f(t):
            s = t * t / (t * t + r * r)
            return A * s * np.cos(om * t)

        def fprime(t):
            d = t * t + r * r
            s = t * t / d
            sp = 2.0 * t * r * r / (d * d)
            return A * (sp * np.cos(om * t) - s * om * np.sin(om * t))

        return BoundaryData(f=f, fprime=fprime)
    raise ValueError(f"unknown boundary pulse kind {kind!r}")


def soliton_solution(c: float, x_c: float):
    """Exact right-moving solitary wave of u_t + u_xxx + (u^2)_x = 0.

    u(x,t) = (3c/2) sech^2(sqrt(c)/2 * (x - c t - x_c)); speed c > 0.
    """
    if c <= 0.0:
        raise ValueError(f"soliton speed must be positive, got {c}")
    rc = np.sqrt(c)

    def u(x, t):
        z = 0.5 * rc * (np.asarray(x, dtype=float) - c * t - x_c)
        return 1.5 * c / np.cosh(z) ** 2

    return u


def soliton_data(c: float, x_c: float, grid: Grid1D) -> Field:
    """Soliton profile at t=0; warns when either tail exceeds 1e-10."""
    u = soliton_solution(c, x_c)
    vals = u(grid.nodes, 0.0)
    tail = max(abs(vals[0]), abs(vals[-1]))
    if tail > 1e-10:
        warnings.warn(
            f"soliton tail {tail:.2e} exceeds 1e-10 at a domain end; "
            "the truncated-domain run will see it",
            ResolutionWarning,
        )
    return Field(grid, vals, 0.0)


def soliton_boundary(c: float, x_c: float) -> BoundaryData:
    """Boundary data matching the exact soliton at x = 0."""
    rc = np.sqrt(c)
    u = soliton_solution(c, x_c)

    def f(t):
        return u(0.0, t)

    def fprime(t):
        z = 0.5 * rc * (-c * t - x_c)
        # d/dt sech^2(z) = -2 sech^2 tanh * dz/dt, dz/dt = -c^(3/2)/2
        return 1.5 * c * np.tanh(z) * c * rc / np.cosh(z) ** 2

    return BoundaryData(f=f, fprime=fprime)
