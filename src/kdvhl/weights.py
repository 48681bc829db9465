"""Smooth cutoff weights used by the moving-window energy functionals.

Everything here is built from a single C-infinity brick, exp(-1/theta): a
symmetric unit step `eta` and the two-parameter family `chi(eps, b)` that
vanishes on (0, eps], equals 1 on [b, infinity) and ramps up in between,
nondecreasing only to about 1e-9: just past eps its Hermite table undershoots
by up to 1.08e-9 (see CutoffSpec).  The translate chi(x + v*t - x0) is the
weight that sweeps leftward across the half-line as time advances;
`moving_weight` evaluates it and its first three derivatives.

Bounded buffers: a CutoffSpec keeps its 4097-knot Hermite table of chi, and
building it evaluates the 12-node Gauss rule on 256 of the 4096 panels at a time,
with no derivative pieces, so the transients are about 25 kB per array, not the
393 kB that all panels at once would take.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import _Hermite

__all__ = ["eta", "CutoffSpec", "chi", "WeightSpec", "moving_weight"]

# exp(w) underflows to 0.0 well before w = -745; beyond this cut the bump and
# every derivative of it are zero to double precision.
_LOG_FLOOR = -500.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_PANELS = 4096
_PANEL_CHUNK = 256  # panels per evaluation of the quadrature rule (bounds its transients)


def eta(theta):
    """Symmetric smooth step: 0 for theta <= 0, 1 for theta >= 1.

    Built as psi(theta) / (psi(theta) + psi(1-theta)), which makes the
    partition identity eta(theta) + eta(1-theta) = 1 hold to round-off.
    """
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta)
    out = np.empty_like(theta)
    out[theta <= 0.0] = 0.0
    out[theta >= 1.0] = 1.0
    mid = (theta > 0.0) & (theta < 1.0)
    t = theta[mid]
    with np.errstate(over="ignore"):  # -1/t is -inf at a subnormal t, and exp(-inf) = 0 is right
        a = np.exp(-1.0 / t)
    bb = np.exp(-1.0 / (1.0 - t))
    out[mid] = a / (a + bb)
    return out[0] if scalar else out


def _bump(s, eps, b, orders):
    """Derivatives of the unnormalized bump exp(w), w = -1/((s-eps)(b-s)), at
    points s inside (eps, b): one row per order in 0..2 from one exponent.  The
    derivative pieces are formed only when an order above 0 is asked for."""
    s = np.asarray(s, dtype=float)
    p = s - eps
    q = b - s
    pq = p * q
    w = -1.0 / pq
    live = w > _LOG_FLOOR
    g = np.where(live, np.exp(w), 0.0)
    if max(orders) > 0:
        pq2 = pq**2
        d = q - p                  # (pq)' since p' = 1, q' = -1
        w1 = d / pq2
        w2 = -2.0 / pq2 - 2.0 * d**2 / pq**3
    return np.array([g if k == 0 else np.where(live, (w1 if k == 1 else w2 + w1**2) * g, 0.0)
                     for k in orders])


@dataclass(frozen=True)
class CutoffSpec:
    """Parameters of one cutoff chi_{eps,b}; normalization cached at construction.

    The profile is defined through its derivative: chi' is the bump
    exp(-1/((s-eps)(b-s))) scaled to unit integral, so chi ramps from 0 at eps
    to 1 at b.  The ramp is the Hermite interpolant of a table, not exactly
    monotone: on the first panels past eps, where chi' grows by orders of
    magnitude across one panel, the cubic undershoots, and chi falls back by up
    to 1.08e-9 absolute (b - eps near 20; 7e-21 at 4, 2e-32 at 2).  The standing
    assumption b >= 5*eps is enforced.
    """

    epsilon: float
    b: float
    _norm: float = field(init=False, repr=False, compare=False)
    _antideriv: _Hermite = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError(f"cutoff requires epsilon > 0, got {self.epsilon}")
        if not (self.b >= 5.0 * self.epsilon):
            raise ValueError(
                f"cutoff requires b >= 5*epsilon, got b={self.b}, epsilon={self.epsilon}"
            )
        # cumulative integral of the bump on a fixed panel grid, one composite
        # Gauss-Legendre rule per panel.  Its total is the normalization, so
        # the table ends at exactly 1 and chi is continuous at b; the Hermite
        # interpolant with the exact slopes chi' = bump/z reproduces chi
        # between knots
        edges = np.linspace(self.epsilon, self.b, _PANELS + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = half * _GL_NODES
        panel = half * np.concatenate([
            _bump(m[:, None] + nodes, self.epsilon, self.b, (0,))[0] @ _GL_WEIGHTS
            for m in np.split(mids, _PANELS // _PANEL_CHUNK)])
        cum = np.concatenate([[0.0], np.cumsum(panel)])
        z = float(cum[-1])
        if not z > 0.0:
            raise ValueError(f"cutoff band b - epsilon = {self.b - self.epsilon:.3g} is too "
                             f"narrow: its bump underflows to 0, so chi has no normalization")
        slopes = np.zeros(_PANELS + 1)  # the bump vanishes at eps and b
        slopes[1:-1] = _bump(edges[1:-1], self.epsilon, self.b, (0,))[0]
        object.__setattr__(self, "_norm", z)
        object.__setattr__(self, "_antideriv", _Hermite(edges, cum / z, slopes / z))


def chi(spec: CutoffSpec, x, order=0):
    """Evaluate chi_{eps,b} (order=0) or its derivatives (order=1..3).

    chi is exactly 0 on (-inf, eps], exactly 1 on [b, inf); derivatives are
    exactly 0 outside (eps, b) and come from closed-form differentiation of
    the normalized bump, so their supports are sharp.  A tuple of orders gives
    one stacked row per order from a single bump evaluation, each row equal
    bit for bit to the single-order call.
    """
    orders = (order,) if np.ndim(order) == 0 else tuple(order)
    if not set(orders) <= {0, 1, 2, 3}:
        raise ValueError(f"chi derivative order must be in 0..3, got {order}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    mid = (x > spec.epsilon) & (x < spec.b)
    xm = x[mid]
    ders = [k - 1 for k in orders if k > 0]
    bump = iter(_bump(xm, spec.epsilon, spec.b, ders) / spec._norm if ders else ())
    out = np.zeros((len(orders),) + x.shape)
    for row, k in zip(out, orders):
        if k == 0:
            row[x >= spec.b] = 1.0
        row[mid] = next(bump) if k else np.clip(spec._antideriv(xm), 0.0, 1.0)
    if scalar:
        out = out[:, 0]
    return out if np.ndim(order) else out[0]


@dataclass(frozen=True)
class WeightSpec:
    """A cutoff together with the translation law x -> x + v*t - x0."""

    cutoff: CutoffSpec
    v: float
    x0: float

    def __post_init__(self):
        if not (0.0 <= self.v < np.inf and np.isfinite(self.x0)):
            raise ValueError(f"weight needs finite v >= 0 and x0, got v={self.v}, x0={self.x0}")

    @property
    def sup_chi_prime(self):
        """Peak of chi' (used by the Young-split bookkeeping)."""
        c = self.cutoff
        s = np.linspace(c.epsilon, c.b, 2049)
        return float(np.max(chi(c, s, order=1)))


def moving_weight(wspec: WeightSpec, x, t: float, order: int = 0):
    """chi_{eps,b}(x + v*t - x0) and derivatives, the sweeping weight."""
    return chi(wspec.cutoff, np.asarray(x, dtype=float) + wspec.v * t - wspec.x0, order)
