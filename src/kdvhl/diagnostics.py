"""Moving-window energy functionals, boundary-trace diagnostics and the
integrated-by-parts identities they satisfy.

The central objects are the derivative energies J_l(t) = int (d_x^l u)^2
chi(x + v t - x0) dx.  Multiplying the equation differentiated l times by
(d_x^l u) chi and integrating by parts yields, at every level l,

    1/2 dJ_l/dt - v/2 int (d^l u)^2 chi' + 3/2 int (d^{l+1} u)^2 chi'
        - 1/2 int (d^l u)^2 chi''' + c_l int u_x (d^l u)^2 chi - int u (d^l u)^2 chi'
    = d_{l+2} d_l chi0 - 1/2 d_{l+1}^2 chi0 - d_{l+1} d_l chi0' + 1/2 d_l^2 chi0''
        + f d_l^2 chi0 + int (d^l F) (d^l u) chi,

with d_k = d_x^k u(0, t), chi0 = chi(v t - x0) and c_1 = 1, c_2 = 5; levels 1
and 2 are implemented.  Every term is recorded as a signed series; their sum is
the residual, which must vanish to discretization order.  The third boundary
derivative is taken from the equation itself, u_xxx(0) = F(0) - f' - 2 f u_x(0),
with the one-sided stencil kept as a cross-check only; the fourth is the
one-sided probe, read only once chi0 > 0.

A run's wall values are computed once per state, by the TraceSeries observer;
RunningDiagnostics owns one and returns it from finish(), and every trace reader
takes it.  Given a stride, the observer also records the terms of the weighted
interpolation bound on every stride-th state and the last, from the block that
holds the state.  trace_integral, interpolation_check and dissipation_audit
return their report.json blocks as plain dicts, interpolation_check from those
recorded terms; the audit reads E = 1/2 int u^2 at both ends of the run from the
observer's int u^2 series, so each state's energy is integrated once.

The observer evaluates states in blocks: RunningDiagnostics buffers each
observed state, and a block of at most max(1, 2**15 // n) states (a budget of
2**15 doubles per block array) is evaluated at once, so the fixed cost of a
sparse product, a chi call or a sum is paid per block, not per state.  Every
value equals the one-state-at-a-time form bit for bit: each state's row of
D_k U^T is D_k u, a row sum of a C-ordered block sums in the order of the 1-D
sum, chi is evaluated pointwise, the Kato accumulators are still added one
state at a time, and the running time integrals are cumulative sums, which add
in time order as a state-by-state recurrence would.  A full block waits for
the next state, so the block that ends the run is always known as the last:
it is evaluated on the nstates-th state or, without nstates, by finish(),
which is the only way to read the results.

The weight is one chi call per block on the full rows a = x + v t - x0, with
every order the terms need; column 0 is each state's trace factor chi0 =
chi(v t - x0).  Every cutoff term, against chi^(k) for any k, is the trapezoid
of its product times that row over the whole grid.  Off the transition band
eps < a < b chi is exactly 0 or 1 and its derivatives vanish, and a finite
product times a zero weight is an exact zero.  A sampled state's interpolation
terms reuse the block's u_xx^2, chi' rows and int u_xx^2 chi'; only the
companion cutoff's chi' (one moving_weight call per block, on the sampled
states' rows) and, when the block holds no u_xxx, D_3 u of the sampled states
are computed for them.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from .discretization import Field, Grid1D, deriv_matrix, integrate, trace_derivs
from .solver import BoundaryData
from .weights import CutoffSpec, WeightSpec, chi, moving_weight

__all__ = [
    "stopping_time",
    "TraceSeries",
    "trace_integral",
    "trace_identity_residual",
    "interpolation_check",
    "dissipation_audit",
    "RunningDiagnostics",
]

# per identity level l: the name and coefficient c_l of its nonlinear term
_LEVELS = {1: ("nl_cubic", 1.0), 2: ("nl_steepening", 5.0)}


def _term_order(l: int) -> tuple:
    """The level-l identity's term names, in the fixed summation order that
    defines its residual (bit-for-bit contract)."""
    return ("time_derivative", "weight_transport", "smoothing", "weight_third",
            _LEVELS[l][0], "nl_transport", "forcing", f"trace_d{l + 2}d{l}",
            f"trace_d{l + 1}sq", f"trace_d{l + 1}d{l}", f"trace_d{l}sq", "trace_cubic")


# derivative orders j of the Kato functional sup_x int_0^T (d_x^j u)^2 dt
_KATO_ORDERS = (1, 2)


def stopping_time(T: float, wspec: WeightSpec, j: int) -> float:
    """Time horizon on which the level-j window estimate is asserted.

    Level 1 survives to T; higher levels stop when the window's foot would
    cross the boundary, at (x0 + epsilon)/v.
    """
    if j <= 1 or wspec.v == 0.0:
        return T
    return min(T, (wspec.x0 + wspec.cutoff.epsilon) / wspec.v)


def _hard_window_indices(grid: Grid1D, wspec: WeightSpec, R: float, t: float):
    lo = max(wspec.x0 + wspec.cutoff.epsilon - wspec.v * t, 0.0)
    hi = wspec.x0 + R - wspec.v * t
    i0 = int(np.ceil(lo / grid.h - 1e-12))
    i1 = int(np.floor(hi / grid.h + 1e-12))
    return i0, i1


def _wall_traces(bd: BoundaryData, forcing, t: float, d1: float):
    """f(t) and the third trace from the equation, u_xxx(0) = F(0,t) - f' - 2 f u_x(0)."""
    f = float(bd.f(t))
    F0 = 0.0
    if forcing is not None:
        F0 = float(np.asarray(forcing(np.array([0.0]), t)).ravel()[0])
    return f, F0 - bd.fprime(t) - 2.0 * f * d1


def _column(i: int, doc: str) -> property:
    return property(lambda self: np.ascontiguousarray(self.table()[:, i]), doc=doc)


class TraceSeries:
    """Observer recording each observed state's wall values at x = 0.

    Per state it evaluates once the one-sided u_x, u_xx, u_xxx and u_xxxx
    (trace_derivs) and _wall_traces' f(t) and equation-route u_xxx(0), at the
    state's time with the forcing as given; table() holds them one row per state.
    """

    times = _column(0, "time of each observed state")
    d1 = _column(2, "one-sided u_x(0)")
    d2 = _column(3, "one-sided u_xx(0)")
    d3 = _column(4, "one-sided u_xxx(0), the cross-check of d3_equation")
    d3_equation = _column(6, "u_xxx(0) = F(0,t) - f'(t) - 2 f u_x(0)")

    def __init__(self, bd: BoundaryData, forcing=None):
        self.bd, self.forcing = bd, forcing
        self._rows = array("d")

    def __call__(self, field: Field):
        _, d1, d2, d3, d4 = trace_derivs(field)
        f, d3e = _wall_traces(self.bd, self.forcing, field.t, d1)
        self._rows.extend((field.t, f, d1, d2, d3, d4, d3e))

    def table(self, start: int = 0) -> np.ndarray:
        """The series from observed state start on, one row per state: t, f, d1, d2,
        d3, d4 (the u_xxxx probe), d3_equation."""
        return np.array(self._rows[7 * start:]).reshape(-1, 7)


def trace_integral(traces: TraceSeries, k: int, wspec: WeightSpec, j: int = 1) -> dict:
    """Boundary-trace dissipation int_{t0}^{t1} (d_x^k u(0,t))^2 dt, k = 2 or 3, over
    the late-time gain window, as the report's {value, t_start, t_end, empty} block.

    The window is [(b + x0)/v, T*] with T* = stopping_time(T, wspec, j) and T the
    last observed time; an empty window (which the j >= 2 stopping branch forces
    whenever it binds, and v = 0 always) returns value 0 with the empty flag set.
    k = 3 uses the equation route for the trace.
    """
    if k not in (2, 3):
        raise ValueError(f"trace order must be 2 or 3, got {k}")
    times = traces.times
    t0 = np.inf if wspec.v == 0.0 else (wspec.cutoff.b + wspec.x0) / wspec.v
    t1 = stopping_time(times[-1], wspec, j)
    m = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if t0 >= t1 or np.count_nonzero(m) < 2:
        return {"value": 0.0, "t_start": t0, "t_end": t1, "empty": True}
    g = traces.d2 if k == 2 else traces.d3_equation
    val = float(np.trapezoid(g[m] ** 2, times[m]))
    return {"value": val, "t_start": t0, "t_end": t1, "empty": False}


def trace_identity_residual(traces: TraceSeries) -> float:
    """The RMS over the observed states of r(t) = u_xxx(0,t)|_stencil + f' + 2 f u_x(0,t)
    - F(0,t), the record's d3 - d3_equation.

    Measures how well the one-sided third-derivative probe satisfies the
    boundary identity the equation forces; shrinks at discretization order.
    """
    r = traces.d3 - traces.d3_equation
    return float(np.sqrt(np.mean(r * r)))


# doubles of state values one observer block holds: a block is max(1, 2**15 // n)
# states, and each array derived from it is the same size (a memory budget)
_BLOCK_DOUBLES = 2**15


def _running_trapezoid(x, t) -> np.ndarray:
    """The trapezoid integral of x from t[0] to every t[i], added in time order."""
    out = np.zeros(len(t))
    np.cumsum(0.5 * np.diff(t) * (x[1:] + x[:-1]), out=out[1:])
    return out


def _deriv_rows(Dk, XT) -> np.ndarray:
    """D_k applied to every row of X, given XT = X.T C-ordered: one sparse times
    dense product, returned with one row per state, C-ordered."""
    return np.ascontiguousarray((Dk @ XT).T)


class _Block:
    """What the diagnostics read on a block of B states, evaluated once.

    derivs holds the rows u and D_k u for k = 1, 2 and, when asked for, 3 (else
    None); sq holds u_x^2 and u_xx^2.  chi holds, per order 0, 1 and, for identity
    bookkeeping, 2 and 3, the weight chi^(k)(x + v t - x0) on the block's full
    rows, from one chi call; column 0 is each state's trace factor chi0.
    """

    def __init__(self, grid: Grid1D, U, t, D: dict, wspec: WeightSpec, orders):
        self.grid = grid
        UT = np.ascontiguousarray(U.T)
        self.derivs = (U,) + tuple(_deriv_rows(D[k], UT) if k in D else None for k in (1, 2, 3))
        w, q = self.derivs[1:3]
        self.sq = (w * w, q * q)
        self.chi = chi(wspec.cutoff, grid.nodes + wspec.v * t[:, None] - wspec.x0, orders)

    def integral(self, k: int, prod, states=None) -> np.ndarray:
        """Per state, the trapezoid of prod times chi^(k)(x + v t - x0) over the grid;
        given states (indices into the block), prod holds one row per listed state."""
        c = self.chi[k] if states is None else self.chi[k][states]
        return integrate(np.multiply(prod, c, order="C"), self.grid)


def _identity_terms(blk: _Block, l: int, wspec: WeightSpec, D: dict, kcp, traces,
                    F) -> dict:
    """The level-l identity's signed terms except the dJ/dt piece, one value per
    state of the block, in _term_order(l); kcp = int u_xx^2 chi', traces the
    block's columns of the wall record's table(), F the forcing rows or None."""
    u, w = blk.derivs[:2]
    ul, ul1 = blk.derivs[l:l + 2]  # d_x^l u and d_x^(l+1) u
    sq = blk.sq[l - 1]  # (d_x^l u)^2
    b0, b1, b2 = blk.chi[:3, :, 0]
    _, f, d1t, d2t, _, d4t, d3t = traces
    # the wall value of each order at x = 0; the u_xxxx probe is noisy, so it is
    # read only once chi0 > 0
    wall = (None, d1t, d2t, d3t, np.where(b0 != 0.0, d4t, 0.0))
    tl, tl1, tl2 = wall[l:l + 3]
    # int (d_x^k u)^2 chi' for k = l and l + 1: the observer's kcp at order 2
    chi1_l = kcp if l == 2 else blk.integral(1, sq)
    chi1_l1 = kcp if l + 1 == 2 else blk.integral(1, ul1 * ul1)
    if F is not None:
        forcing = -blk.integral(0, _deriv_rows(D[l], np.ascontiguousarray(F.T)) * ul)
    else:
        forcing = np.zeros(len(u))
    return dict(zip(_term_order(l)[1:], (
        -0.5 * wspec.v * chi1_l, 1.5 * chi1_l1, -0.5 * blk.integral(3, sq),
        _LEVELS[l][1] * blk.integral(0, sq * w), -blk.integral(1, u * sq), forcing,
        -tl2 * tl * b0, 0.5 * tl1 * tl1 * b0, tl1 * tl * b1, -0.5 * tl * tl * b2,
        -f * tl * tl * b0)))


def _identity_breakdown(l: int, times, J, terms: dict) -> dict:
    """The level-l identity from its terms: {terms, residual, normalized, scale, term_integrals}.

    terms gains the dJ/dt piece, 1/2 dJ_l/dt, last; residual is their sum in
    _term_order(l), by definition; term_integrals maps each term to int |term| dt;
    normalized is int |residual| dt over scale, the largest of those integrals.
    """
    if times.size < 2:
        raise ValueError(f"identity bookkeeping needs at least two observed states for "
                         f"dJ/dt, got {times.size}")
    terms = {**terms, "time_derivative": 0.5 * np.gradient(J, times)}
    residual = np.zeros_like(times)
    for name in _term_order(l):
        residual = residual + terms[name]
    resid_int, *integrals = (float(np.trapezoid(np.abs(x), times))
                             for x in (residual, *terms.values()))
    scale = max(integrals)
    return {"terms": terms, "residual": residual, "term_integrals": dict(zip(terms, integrals)),
            "normalized": resid_int / scale if scale > 0.0 else 0.0, "scale": scale}


def interpolation_check(terms) -> dict:
    """The report's {max_ratio, n_samples, any_degenerate} block from the
    interpolation terms RunningDiagnostics.finish() recorded, one row per sampled
    state: sup (u_xx)^2 chi' and the three integrals that dominate it.  The ratio
    sup/sum of the integrals should stay O(1) under refinement; a state is
    degenerate when its sum is zero, where the ratio is 0 (zero sup) or inf.
    max_ratio is the largest finite ratio, 0 if there is none."""
    sums = [(lhs, a + b + c) for lhs, a, b, c in np.asarray(terms).tolist()]
    finite = [r for r in (lhs / s for lhs, s in sums if s > 0.0) if np.isfinite(r)]
    return {"max_ratio": max(finite, default=0.0), "n_samples": len(sums),
            "any_degenerate": any(s <= 0.0 for _, s in sums)}


def dissipation_audit(fin: dict) -> dict:
    """Unforced, f=0 energy law E(T) - E(0) = -1/2 int u_x(0,t)^2 dt, as the report's
    dissipation block: the energy change of RunningDiagnostics.finish() against its
    wall record's boundary drain; E = 1/2 int u^2 is read off the observer's "mass"
    series int u^2 at the first and last observed states."""
    e0, eT = 0.5 * fin["mass"][0], 0.5 * fin["mass"][-1]
    traces = fin["traces"]
    drain = -0.5 * float(np.trapezoid(traces.d1 ** 2, traces.times))
    measured = eT - e0
    disc = abs(measured - drain)
    return {"e_initial": e0, "e_final": eT, "dissipated": measured, "predicted": drain,
            "discrepancy": disc, "relative": disc / max(abs(measured), 1e-300)}


class RunningDiagnostics:
    """Observer that accumulates the full report during a solve.

    Records per step: J_1, J_2, both smoothing accumulations, the running
    boundary-trace integrals, the int u^2 series ("mass", which dissipation_audit
    reads), identity terms for the levels in identity_levels (a subset of
    {1, 2}), and per-node accumulators for the sup-type functionals.  R is the
    hard-window width, defaulting to b so the hard window contains the chi'
    support.  Given a stride, it also records the terms of the weighted
    interpolation bound (finish()'s "interpolation", which interpolation_check
    reduces; empty without a stride) on every stride-th observed state and the
    last.  Attach to
    solve(..., observers=[rd]); call finish() afterwards, the only way to read
    what was recorded.  Each call buffers the state and records its wall values
    (finish()'s "traces"); a full block of buffered states is evaluated when the
    next state arrives, and the last block on the last state, given nstates (the
    number of states the run will observe), or else in finish().
    """

    def __init__(self, grid: Grid1D, bd: BoundaryData, wspec: WeightSpec,
                 identity_levels: tuple = (), R: Optional[float] = None, forcing=None,
                 nstates: Optional[int] = None, stride: Optional[int] = None):
        if not set(identity_levels) <= {1, 2}:
            raise ValueError("identity bookkeeping is available for levels 1 and 2 only")
        if len(set(identity_levels)) < len(identity_levels):
            raise ValueError(f"identity level repeated in {tuple(identity_levels)}")
        if R is not None and R <= wspec.cutoff.epsilon:
            raise ValueError(
                f"hard-window width R={R} must exceed epsilon={wspec.cutoff.epsilon}"
            )
        if stride is not None and not (isinstance(stride, (int, np.integer)) and stride >= 1):
            raise ValueError(f"stride must be None or an integer >= 1, got {stride!r}")
        self.grid = grid
        self.wspec = wspec
        self.identity_levels = tuple(identity_levels)
        self.R = R if R is not None else wspec.cutoff.b
        self.forcing = forcing
        self.traces = TraceSeries(bd, forcing)
        self._nstates = nstates
        self._seen = 0
        rows = max(1, _BLOCK_DOUBLES // grid.n)
        if nstates is not None:
            rows = max(1, min(rows, nstates))
        self._rows = 0
        self._U = np.empty((rows, grid.n))
        identity = bool(identity_levels)
        self._F = np.empty((rows, grid.n)) if identity and forcing is not None else None
        self._orders = (0, 1, 2, 3) if identity else (0, 1)
        third = 2 in identity_levels
        self._D = {k: deriv_matrix(grid, k) for k in ((1, 2, 3) if third else (1, 2))}
        self._stride = stride
        if stride is not None:
            cut = wspec.cutoff
            # the companion cutoff, whose chi' dominates |chi''|
            self._wide = WeightSpec(CutoffSpec(cut.epsilon / 3.0, cut.b + cut.epsilon),
                                    wspec.v, wspec.x0)
            self._D3 = deriv_matrix(grid, 3)
        self._series = {name: [] for name in (
            "times", "J1", "J2", "mass", "kcp", "kwin", "stri4", "interpolation")}
        self._identity = {lv: {} for lv in identity_levels}
        self._prev = None  # the last evaluated state: t, u_x^2 and u_xx^2
        self._kato = {j: np.zeros(grid.n) for j in _KATO_ORDERS}
        self._peak = np.zeros(grid.n)

    def __call__(self, field: Field):
        if self._rows == len(self._U):
            self._evaluate()
        r = self._rows
        self._U[r] = field.values
        self.traces(field)
        if self._F is not None:
            self._F[r] = self.forcing(self.grid.nodes, field.t)
        self._rows = r + 1
        self._seen += 1
        if self._seen == self._nstates:
            self._evaluate(last=True)

    def _evaluate(self, last: bool = False):
        """Evaluate the buffered states as one block and append their series; last
        when the block ends with the run's last state."""
        B, self._rows = self._rows, 0
        g, ws = self.grid, self.wspec
        traces = self.traces.table(self._seen - B).T
        t = traces[0]
        blk = _Block(g, self._U[:B], t, self._D, ws, self._orders)
        u, w, _, _ = blk.derivs
        ww, qq = blk.sq
        kcp = blk.integral(1, qq)
        kwin = np.array([integrate(row, g, window=_hard_window_indices(g, ws, self.R, ti))
                         for row, ti in zip(qq, t.tolist())])
        series = self._series
        series["times"].append(t)
        series["J1"].append(blk.integral(0, ww))
        series["J2"].append(blk.integral(0, qq))
        series["mass"].append(integrate(u * u, g))
        series["kcp"].append(kcp)
        series["kwin"].append(kwin)

        # the Kato accumulators add one state at a time, from the last evaluated one
        first = self._prev is None
        tp, sq0 = (t[0], (ww[0], qq[0])) if first else self._prev
        half = 0.5 * np.diff(t, prepend=tp)
        for j, s, s0 in zip(_KATO_ORDERS, (ww, qq), sq0):
            inc = np.empty_like(s)
            np.add(s[1:], s[:-1], out=inc[1:])
            np.add(s[0], s0, out=inc[0])
            inc *= half[:, None]
            for row in inc[first:]:
                self._kato[j] += row
        self._prev = (t[-1], (ww[-1].copy(), qq[-1].copy()))

        F = self._F[:B] if self._F is not None else None
        for lv in self.identity_levels:
            store = self._identity[lv]
            for name, vals in _identity_terms(blk, lv, ws, self._D, kcp, traces, F).items():
                store.setdefault(name, []).append(vals)

        np.maximum(self._peak, np.max(np.abs(u), axis=0), out=self._peak)
        # a numpy scalar power gives inf, not OverflowError
        series["stri4"].append(np.array([float(m ** 4) for m in np.max(np.abs(w), axis=1)]))

        if self._stride is not None:
            k0 = self._seen - B  # the block's first state's index in the run
            picks = [i for i in range(B) if (k0 + i) % self._stride == 0 or (last and i == B - 1)]
            if picks:
                series["interpolation"].append(self._interpolation_terms(blk, picks, kcp, t))

    def _interpolation_terms(self, blk: _Block, picks: list, kcp, t) -> np.ndarray:
        """The terms of the weighted interpolation bound on the block's states picks,
        one row per state: sup (u_xx)^2 chi', int (u_xx)^2 chi' (the observer's kcp),
        int (u_xxx)^2 chi' and int (u_xx)^2 chi' for the companion cutoff (eps/3,
        b + eps), whose chi' on the picked rows is one moving_weight call."""
        qq, d3 = blk.sq[1][picks], blk.derivs[3]
        d3 = d3[picks] if d3 is not None else _deriv_rows(
            self._D3, np.ascontiguousarray(blk.derivs[0][picks].T))
        cw = moving_weight(self._wide, self.grid.nodes, t[picks][:, None], 1)
        return np.column_stack((np.max(qq * blk.chi[1][picks], axis=1, initial=0.0),
                                kcp[picks], blk.integral(1, d3 * d3, picks),
                                integrate(qq * cw, self.grid)))

    def finish(self) -> dict:
        if self._rows:
            self._evaluate(last=True)
        out = {name: np.concatenate(parts) if parts else np.zeros(0)
               for name, parts in self._series.items()}
        times = out["times"]
        d2, d3 = self.traces.d2, self.traces.d3_equation
        for name, x in (("K1_chiprime", out.pop("kcp")), ("K1_window", out.pop("kwin")),
                        ("trace2_acc", d2 * d2), ("trace3_acc", d3 * d3)):
            out[name] = _running_trapezoid(x, times)
        out["strichartz"] = float(np.trapezoid(out.pop("stri4"), times) ** 0.25)
        out["maximal"] = float(np.sqrt(integrate(self._peak**2, self.grid)))
        out["kato"] = {j: (float(np.max(self._kato[j])),
                           float(self.grid.nodes[int(np.argmax(self._kato[j]))]))
                       for j in _KATO_ORDERS}
        out["identity"] = {}
        for lv in self.identity_levels:
            series = {k: np.concatenate(v) for k, v in self._identity[lv].items()}
            out["identity"][lv] = _identity_breakdown(lv, times, out[f"J{lv}"], series)
        out["traces"] = self.traces
        return out
