"""Moving-window energy functionals, boundary-trace diagnostics and the
integrated-by-parts identities they satisfy.

The central objects are the derivative energies J_l(t) = int (d_x^l u)^2
chi(x + v t - x0) dx.  Multiplying the differentiated equation by
(d_x^l u) chi and integrating by parts yields, for l = 1,

    1/2 dJ_1/dt - v/2 int w^2 chi' + 3/2 int w_x^2 chi' - 1/2 int w^2 chi'''
        + int w^3 chi - int u w^2 chi'
    = u_xxx(0) w(0) chi0 - 1/2 w_x(0)^2 chi0 - w_x(0) w(0) chi0'
        + 1/2 w(0)^2 chi0'' + f w(0)^2 chi0 + int F_x w chi,

with w = u_x and chi0 = chi(v t - x0); for l = 2 the same structure holds with
q = u_xx, the nonlinear pair 5 int u_x q^2 chi - int u q^2 chi', and traces one
order higher.  Every term is recorded as a signed series; their sum is the
residual, which must vanish to discretization order.  The third boundary
derivative is taken from the equation itself, u_xxx(0) = F(0) - f' - 2 f u_x(0),
with the one-sided stencil kept as a cross-check only.

The observer's cost follows the weight's transition band eps < a < b of the
argument a = x + v t - x0, found by binary search since a grows with x: off
the band chi is exactly 0 or 1 and its derivatives vanish.  One stacked
evaluation on [a(0)] + a(band) gives every order the terms need; node 0 rides
along because chi(v t - x0) is both the trace factor chi0 and the trapezoid
end weight at x = 0.  A chi' or chi''' term is a sum over the band.  A chi term
is formed from the band on and summed over the grid with zeros on the left,
in the full-grid order, so J_l keeps every bit (dJ/dt divides ulps by dt).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from typing import Optional

import numpy as np

from .discretization import Field, Grid1D, deriv_matrix, fd_weights, integrate, trace_derivs
from .solver import BoundaryData, Trajectory
from .weights import CutoffSpec, WeightSpec, chi, moving_weight

__all__ = [
    "DiagnosticsConfig",
    "stopping_time",
    "TraceIntegral",
    "trace_integral",
    "trace_identity_residual",
    "IdentityBreakdown",
    "InterpolationCheck",
    "interpolation_check",
    "DissipationAudit",
    "dissipation_audit",
    "RunningDiagnostics",
]

# fixed summation order defining every identity residual (bit-for-bit contract)
_TERM_ORDER_L1 = (
    "time_derivative", "weight_transport", "smoothing", "weight_third",
    "nl_cubic", "nl_transport", "forcing",
    "trace_d3d1", "trace_d2sq", "trace_d2d1", "trace_d1sq", "trace_cubic",
)
_TERM_ORDER_L2 = (
    "time_derivative", "weight_transport", "smoothing", "weight_third",
    "nl_steepening", "nl_transport", "forcing",
    "trace_d4d2", "trace_d3sq", "trace_d3d2", "trace_d2sq", "trace_cubic",
)

# derivative orders j of the Kato functional sup_x int_0^T (d_x^j u)^2 dt
_KATO_ORDERS = (1, 2)


@dataclass(frozen=True)
class DiagnosticsConfig:
    """What to accumulate during a run.

    identity_levels selects which integrated-by-parts identities to track
    (subset of {1, 2}); R is the hard-window width (defaults to b so the hard
    window contains the chi' support); delta is the Young-split parameter,
    report-only, defaulting to 0.05 / sup(chi')^2 which keeps the split's
    leading coefficient positive.
    """

    wspec: WeightSpec
    identity_levels: tuple = ()
    R: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self):
        if not set(self.identity_levels) <= {1, 2}:
            raise ValueError("identity bookkeeping is available for levels 1 and 2 only")
        if self.R is not None and self.R <= self.wspec.cutoff.epsilon:
            raise ValueError(
                f"hard-window width R={self.R} must exceed epsilon="
                f"{self.wspec.cutoff.epsilon}"
            )

    @property
    def hard_window_R(self) -> float:
        return self.R if self.R is not None else self.wspec.cutoff.b

    def young_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return 0.05 / self.wspec.sup_chi_prime**2


def stopping_time(T: float, wspec: WeightSpec, j: int) -> float:
    """Time horizon on which the level-j window estimate is asserted.

    Level 1 survives to T; higher levels stop when the window's foot would
    cross the boundary, at (x0 + epsilon)/v.
    """
    if j <= 1 or wspec.v == 0.0:
        return T
    return min(T, (wspec.x0 + wspec.cutoff.epsilon) / wspec.v)


def _weighted_sq(grid: Grid1D, vals, w) -> float:
    return integrate(vals * vals * w, grid)


def _hard_window_indices(grid: Grid1D, wspec: WeightSpec, R: float, t: float):
    lo = max(wspec.x0 + wspec.cutoff.epsilon - wspec.v * t, 0.0)
    hi = wspec.x0 + R - wspec.v * t
    i0 = int(np.ceil(lo / grid.h - 1e-12))
    i1 = int(np.floor(hi / grid.h + 1e-12))
    return i0, i1


@dataclass
class TraceIntegral:
    """Windowed boundary dissipation int_{t0}^{t1} (d_x^k u(0,t))^2 dt."""

    value: float
    k: int
    t_start: float
    t_end: float
    empty: bool


def _wall_traces(bd: BoundaryData, forcing, t: float, d1: float):
    """f(t) and the third trace from the equation, u_xxx(0) = F(0,t) - f' - 2 f u_x(0)."""
    f = float(bd.f(t))
    F0 = 0.0
    if forcing is not None:
        F0 = float(np.asarray(forcing(np.array([0.0]), t)).ravel()[0])
    return f, F0 - float(bd.fprime(t)) - 2.0 * f * d1


def _equation_d3(traj: Trajectory):
    """Equation-route third trace at every step of a trajectory."""
    tr = traj.traces
    return np.array([_wall_traces(traj.boundary, traj.config.forcing, t, d1)[1]
                     for t, d1 in zip(tr.times, tr.d1)])


def trace_integral(traj: Trajectory, k: int, wspec: WeightSpec, j: int = 1,
                   window: Optional[tuple] = None) -> TraceIntegral:
    """Boundary-trace dissipation over the late-time gain window.

    Defaults to [(b + x0)/v, T*] with T* = stopping_time(T, wspec, j); an empty
    window (which the j >= 2 stopping branch forces whenever it binds) returns
    value 0 with the empty flag set.  k=3 uses the equation route for the trace.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"trace order must be 1, 2 or 3, got {k}")
    times = traj.traces.times
    T = times[-1]
    if window is None:
        t0 = np.inf if wspec.v == 0.0 else (wspec.cutoff.b + wspec.x0) / wspec.v
        t1 = stopping_time(T, wspec, j)
    else:
        t0, t1 = window
    if t0 >= t1:
        return TraceIntegral(value=0.0, k=k, t_start=t0, t_end=t1, empty=True)
    if k == 3:
        g = _equation_d3(traj)
    else:
        g = traj.traces.order(k)
    m = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if np.count_nonzero(m) < 2:
        return TraceIntegral(value=0.0, k=k, t_start=t0, t_end=t1, empty=True)
    val = float(np.trapezoid(g[m] ** 2, times[m]))
    return TraceIntegral(value=val, k=k, t_start=t0, t_end=t1, empty=False)


def trace_identity_residual(traj: Trajectory):
    """r(t) = u_xxx(0,t)|_stencil + f' + 2 f u_x(0,t) - F(0,t) and its RMS.

    Measures how well the one-sided third-derivative probe satisfies the
    boundary identity the equation forces; shrinks at discretization order.
    """
    times = traj.traces.times
    r = traj.traces.d3 - _equation_d3(traj)
    rms = float(np.sqrt(np.mean(r * r)))
    return times, r, rms


@lru_cache(maxsize=64)
def _aux_cutoff(eps: float, b: float) -> CutoffSpec:
    return CutoffSpec(eps, b)


@lru_cache(maxsize=16)
def _trace_d4_weights(h: float):
    return fd_weights(np.arange(6, dtype=float) * h, 0.0, 4)


def _trace_d4(field: Field) -> float:
    """One-sided fourth-derivative probe (order 2); noisy, used only where the
    weight has already switched on at the boundary."""
    return float(_trace_d4_weights(field.grid.h) @ field.values[:6])


@dataclass
class _State:
    """What the per-state diagnostics read at one time level, evaluated once.

    derivs holds u and D_k u for k = 1, 2 and, when asked for, 3 (else None);
    sq holds u_x^2 and u_xx^2.  The band is the node range lo <= i < hi where
    eps < x_i + v t - x0 < b.  chi holds one row per order 0, 1 and, for
    identity bookkeeping, 2 and 3; column 0 is the weight at x = 0 (the trace
    factors chi0), the other columns the band.  The forcing F on the nodes
    exists only for identity bookkeeping.
    """

    field: Field
    derivs: tuple
    sq: tuple
    lo: int
    hi: int
    chi: np.ndarray
    F: Optional[np.ndarray]
    f: float
    d1t: float
    d2t: float
    d3t: float  # equation route

    def integral(self, k: int, *factors) -> float:
        """Trapezoid of the product of the nodal factors times chi^(k)(x + v t - x0),
        formed on the band only (k >= 1) or from the band on (k = 0, where chi = 1
        right of the band); the module docstring gives the summation order."""
        grid = self.field.grid
        lo, hi, n = self.lo, self.hi, grid.n
        c = self.chi[k]
        if k == 0:
            vals = np.zeros(n)
            vals[lo:] = reduce(mul, [f[lo:] for f in factors])
            vals[lo:hi] *= c[1:]
            return integrate(vals, grid)
        g = reduce(mul, [f[lo:hi] for f in factors])
        last = g[-1] * c[-1] if hi == n and lo < n else 0.0  # band reaches x = L
        return grid.h * (g @ c[1:] - 0.5 * (reduce(mul, [f[0] for f in factors]) * c[0] + last))


def _evaluate_state(field: Field, D: dict, wspec: WeightSpec, bd: BoundaryData,
                    forcing, identity: bool) -> _State:
    """Evaluate a _State; u_xxx is computed when D holds the k = 3 operator."""
    x = field.grid.nodes
    t = field.t
    u = field.values
    derivs = (u, D[1] @ u, D[2] @ u, D[3] @ u if 3 in D else None)
    cut = wspec.cutoff
    a = x + wspec.v * t - wspec.x0
    lo = int(np.searchsorted(a, cut.epsilon, "right"))
    hi = int(np.searchsorted(a, cut.b, "left"))
    c = chi(cut, np.concatenate((a[:1], a[lo:hi])), (0, 1, 2, 3) if identity else (0, 1))
    F = None
    if identity and forcing is not None:
        F = np.asarray(forcing(x, t), dtype=float)
    _, d1t, d2t, _ = trace_derivs(field)
    f, d3t = _wall_traces(bd, forcing, t, d1t)
    return _State(field=field, derivs=derivs, sq=(derivs[1] * derivs[1], derivs[2] * derivs[2]),
                  lo=lo, hi=hi, chi=c, F=F, f=f, d1t=d1t, d2t=d2t, d3t=d3t)


def _identity_terms(st: _State, level: int, wspec: WeightSpec, D: dict, kcp: float) -> dict:
    """All signed identity terms except the dJ/dt piece; kcp = int u_xx^2 chi'."""
    u, w, q, qx = st.derivs
    ww, qq = st.sq
    b0, b1, b2 = st.chi[:3, 0]
    v = wspec.v
    f, d1t, d2t, d3t = st.f, st.d1t, st.d2t, st.d3t

    out = {}
    if level == 1:
        out["weight_transport"] = -0.5 * v * st.integral(1, ww)
        out["smoothing"] = 1.5 * kcp
        out["weight_third"] = -0.5 * st.integral(3, ww)
        out["nl_cubic"] = st.integral(0, ww, w)
        out["nl_transport"] = -st.integral(1, u, ww)
        if st.F is not None:
            out["forcing"] = -st.integral(0, D[1] @ st.F, w)
        else:
            out["forcing"] = 0.0
        out["trace_d3d1"] = -d3t * d1t * b0
        out["trace_d2sq"] = 0.5 * d2t * d2t * b0
        out["trace_d2d1"] = d2t * d1t * b1
        out["trace_d1sq"] = -0.5 * d1t * d1t * b2
        out["trace_cubic"] = -f * d1t * d1t * b0
    else:
        out["weight_transport"] = -0.5 * v * kcp
        out["smoothing"] = 1.5 * st.integral(1, qx, qx)
        out["weight_third"] = -0.5 * st.integral(3, qq)
        out["nl_steepening"] = 5.0 * st.integral(0, w, qq)
        out["nl_transport"] = -st.integral(1, u, qq)
        if st.F is not None:
            out["forcing"] = -st.integral(0, D[2] @ st.F, q)
        else:
            out["forcing"] = 0.0
        d4t = _trace_d4(st.field) if b0 != 0.0 else 0.0
        out["trace_d4d2"] = -d4t * d2t * b0
        out["trace_d3sq"] = 0.5 * d3t * d3t * b0
        out["trace_d3d2"] = d3t * d2t * b1
        out["trace_d2sq"] = -0.5 * d2t * d2t * b2
        out["trace_cubic"] = -f * d2t * d2t * b0
    return out


@dataclass
class IdentityBreakdown:
    """Signed per-step identity terms; residual == ordered sum, by definition.

    normalized is int |residual| dt divided by the largest single term's
    int |term| dt, the refinement-study metric.
    """

    level: int
    times: np.ndarray
    J: np.ndarray
    terms: dict
    residual: np.ndarray
    normalized: float
    scale: float

    @staticmethod
    def assemble(level: int, times, J, terms: dict) -> "IdentityBreakdown":
        times = np.asarray(times, dtype=float)
        J = np.asarray(J, dtype=float)
        order = _TERM_ORDER_L1 if level == 1 else _TERM_ORDER_L2
        full = dict(terms)
        full["time_derivative"] = 0.5 * np.gradient(J, times)
        residual = np.zeros_like(times)
        for name in order:
            residual = residual + np.asarray(full[name], dtype=float)
        scale = max(
            float(np.trapezoid(np.abs(np.asarray(full[n], dtype=float)), times))
            for n in order
        )
        resid_int = float(np.trapezoid(np.abs(residual), times))
        normalized = resid_int / scale if scale > 0.0 else 0.0
        return IdentityBreakdown(
            level=level, times=times, J=J, terms=full,
            residual=residual, normalized=normalized, scale=scale,
        )


@dataclass
class InterpolationCheck:
    """sup-bound check: ||(u_xx)^2 chi'||_inf against the three gain integrals."""

    lhs: float
    rhs_terms: tuple
    ratio: float
    degenerate: bool


def interpolation_check(field: Field, wspec: WeightSpec) -> InterpolationCheck:
    """Compare sup (u_xx)^2 chi' with the integrals that dominate it.

    rhs terms: int (u_xx)^2 chi', int (u_xxx)^2 chi', and int (u_xx)^2 chi'
    for the widened companion cutoff (eps/3, b+eps) whose derivative dominates
    |chi''|.  The ratio lhs/sum(rhs) should stay O(1) under refinement.
    """
    grid = field.grid
    cut = wspec.cutoff
    x = grid.nodes
    q = deriv_matrix(grid, 2) @ field.values
    qx = deriv_matrix(grid, 3) @ field.values
    c1 = moving_weight(wspec, x, field.t, 1)
    wide = _aux_cutoff(cut.epsilon / 3.0, cut.b + cut.epsilon)
    c1w = chi(wide, x + wspec.v * field.t - wspec.x0, 1)
    lhs = float(np.max(q * q * c1))
    rhs = (
        _weighted_sq(grid, q, c1),
        _weighted_sq(grid, qx, c1),
        _weighted_sq(grid, q, c1w),
    )
    s = sum(rhs)
    if s <= 0.0:
        return InterpolationCheck(lhs=lhs, rhs_terms=rhs, ratio=0.0 if lhs == 0.0 else np.inf,
                                  degenerate=True)
    return InterpolationCheck(lhs=lhs, rhs_terms=rhs, ratio=lhs / s, degenerate=False)


@dataclass
class DissipationAudit:
    """Unforced, f=0 energy law: E(T) - E(0) = -1/2 int u_x(0,t)^2 dt."""

    e_initial: float
    e_final: float
    dissipated: float
    predicted: float
    discrepancy: float
    relative: float


def dissipation_audit(traj: Trajectory) -> DissipationAudit:
    """Compare the measured L2-energy drop with the boundary drain integral."""
    g = traj.grid
    e0 = 0.5 * integrate(traj.snapshots[0].values ** 2, g)
    eT = 0.5 * integrate(traj.snapshots[-1].values ** 2, g)
    times = traj.traces.times
    drain = -0.5 * float(np.trapezoid(traj.traces.d1 ** 2, times))
    measured = eT - e0
    disc = abs(measured - drain)
    rel = disc / max(abs(measured), 1e-300)
    return DissipationAudit(
        e_initial=e0, e_final=eT, dissipated=measured, predicted=drain,
        discrepancy=disc, relative=rel,
    )


class RunningDiagnostics:
    """Observer that accumulates the full report during a solve.

    Records per step: J_1, J_2, both smoothing accumulations, the running
    boundary-trace integrals, the mass curve, identity terms for the
    configured levels, and per-node accumulators for the sup-type functionals.
    Attach to solve(..., observers=[rd]); call finish() afterwards.
    """

    def __init__(self, grid: Grid1D, bd: BoundaryData, cfg: DiagnosticsConfig,
                 forcing=None):
        self.grid = grid
        self.bd = bd
        self.cfg = cfg
        self.forcing = forcing
        self.t = []
        self.J1 = []
        self.J2 = []
        self.mass = []
        self.k_cp = [0.0]
        self.k_win = [0.0]
        self.tr2 = [0.0]
        self.tr3 = [0.0]
        self.identity = {lv: {} for lv in cfg.identity_levels}
        self._prev = None
        self._kato = {j: np.zeros(grid.n) for j in _KATO_ORDERS}
        self._kato_prev = {}
        self._peak = np.zeros(grid.n)
        self._stri4 = []
        third = 2 in cfg.identity_levels
        self._D = {k: deriv_matrix(grid, k) for k in ((1, 2, 3) if third else (1, 2))}

    def __call__(self, field: Field):
        cfg = self.cfg
        ws = cfg.wspec
        g = self.grid
        t = field.t
        st = _evaluate_state(field, self._D, ws, self.bd, self.forcing,
                             bool(cfg.identity_levels))
        u, w, _, _ = st.derivs
        self.t.append(t)
        self.J1.append(st.integral(0, st.sq[0]))
        self.J2.append(st.integral(0, st.sq[1]))
        self.mass.append(integrate(u * u, g))

        kcp = st.integral(1, st.sq[1])
        i0, i1 = _hard_window_indices(g, ws, cfg.hard_window_R, t)
        kwin = integrate(st.sq[1], g, window=(i0, i1))
        tr2_inst = st.d2t * st.d2t
        tr3_inst = st.d3t * st.d3t

        if self._prev is not None:
            dt = t - self._prev["t"]
            self.k_cp.append(self.k_cp[-1] + 0.5 * dt * (kcp + self._prev["kcp"]))
            self.k_win.append(self.k_win[-1] + 0.5 * dt * (kwin + self._prev["kwin"]))
            self.tr2.append(self.tr2[-1] + 0.5 * dt * (tr2_inst + self._prev["tr2"]))
            self.tr3.append(self.tr3[-1] + 0.5 * dt * (tr3_inst + self._prev["tr3"]))
        self._prev = {"t": t, "kcp": kcp, "kwin": kwin, "tr2": tr2_inst, "tr3": tr3_inst}

        for lv in cfg.identity_levels:
            store = self.identity[lv]
            for k2, v2 in _identity_terms(st, lv, ws, self._D, kcp).items():
                store.setdefault(k2, []).append(v2)

        for j in _KATO_ORDERS:
            g2 = st.sq[j - 1]
            if j in self._kato_prev:
                dt = t - self._prev_t_kato
                self._kato[j] += 0.5 * dt * (g2 + self._kato_prev[j])
            self._kato_prev[j] = g2
        self._prev_t_kato = t

        np.maximum(self._peak, np.abs(u), out=self._peak)
        self._stri4.append(float(np.max(np.abs(w)) ** 4))  # inf, not OverflowError

    def finish(self) -> dict:
        times = np.asarray(self.t)
        out = {
            "times": times,
            "J1": np.asarray(self.J1),
            "J2": np.asarray(self.J2),
            "mass": np.asarray(self.mass),
            "K1_chiprime": np.asarray(self.k_cp),
            "K1_window": np.asarray(self.k_win),
            "trace2_acc": np.asarray(self.tr2),
            "trace3_acc": np.asarray(self.tr3),
            "strichartz": float(np.trapezoid(np.asarray(self._stri4), times) ** 0.25),
            "maximal": float(np.sqrt(integrate(self._peak**2, self.grid))),
            "kato": {j: (float(np.max(self._kato[j])),
                         float(self.grid.nodes[int(np.argmax(self._kato[j]))]))
                     for j in _KATO_ORDERS},
        }
        out["identity"] = {}
        for lv in self.cfg.identity_levels:
            series = {k: np.asarray(v) for k, v in self.identity[lv].items()}
            out["identity"][lv] = IdentityBreakdown.assemble(lv, times, out[f"J{lv}"], series)
        return out
