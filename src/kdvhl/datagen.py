"""Initial and boundary data families for the half-line runs.

The kink construction plants a one-sided power singularity (x-x1)_+^m under a
compactly supported smooth envelope, so the data is rough at x1 but perfectly
smooth to the right of the envelope: exactly the split the moving-window
functionals are designed to see.  Solitons and smooth pulses provide the
matching well-resolved scenarios.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional

import numpy as np

from .discretization import Field, Grid1D

__all__ = [
    "ResolutionWarning",
    "kink_data",
    "gaussian_bump",
    "gaussian_pulse",
    "ramped_cosine",
    "soliton_solution",
    "soliton_data",
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


def kink_data(m: int, x1: float, amplitude: float, env_lo: float, env_hi: float,
              grid: Grid1D, base: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> Field:
    """Rough-left / smooth-right initial profile, sampled on a grid.

    u0(x) = base(x) + amplitude * (x - x1)_+^m * envelope(x), with the envelope
    supported on (env_lo, env_hi).  m = 1 puts a corner in u0' at x1, so the
    global second-derivative energy diverges ~ 1/h under refinement while the
    profile stays smooth right of env_hi.  Warns if the envelope is unresolved.
    """
    if m < 1:
        raise ValueError(f"kink power m must be >= 1, got {m}")
    if not (env_lo < x1 < env_hi):
        raise ValueError(
            f"kink point x1={x1} must sit inside the envelope "
            f"support ({env_lo}, {env_hi})"
        )
    if (env_hi - env_lo) / grid.h < 16:
        warnings.warn(
            f"envelope support ({env_lo}, {env_hi}) spans fewer than "
            f"16 grid cells at h={grid.h:.4g}",
            ResolutionWarning,
        )
    x = grid.nodes
    # 0 off (x1, env_hi): past env_hi (x - x1)**m may overflow, and inf * 0 is NaN
    ramp = np.where((x > x1) & (x < env_hi), x - x1, 0.0) ** m
    vals = amplitude * ramp * _envelope(x, env_lo, env_hi)
    if base is not None:
        vals = vals + np.asarray(base(x), dtype=float)
    return Field(grid, vals, 0.0)


def gaussian_bump(amplitude: float, center: float, width: float):
    """Smooth background profile A*exp(-((x-c)/w)^2)."""
    def profile(x):
        z = (np.asarray(x, dtype=float) - center) / width
        with np.errstate(over="ignore"):  # far out z*z is inf, and exp(-inf) = 0 is right
            zz = z * z
        return amplitude * np.exp(-zz)
    return profile


def gaussian_pulse(A: float, t_c: float, w: float):
    """Boundary data f(t) = A t^2 exp(-((t-t_c)/w)^2), with f(0) = 0; f takes a complex t."""
    def f(t):
        z = (t - t_c) / w
        return A * t * t * np.exp(-z * z)
    return f


def ramped_cosine(A: float, omega: float, ramp: float):
    """Boundary data f(t) = A t^2/(t^2+ramp^2) cos(omega t), with f(0) = 0; f takes a
    complex t."""
    def f(t):
        s = t * t / (t * t + ramp * ramp)
        return A * s * np.cos(omega * t)
    return f


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
