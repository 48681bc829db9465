"""Window functionals and identity bookkeeping of the online observer, checked
against closed forms of the exact soliton and under grid refinement."""

import math
from functools import reduce
from operator import mul

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from kdvhl.datagen import ResolutionWarning, gaussian_bump, soliton_data, soliton_solution
from kdvhl.diagnostics import (
    RunningDiagnostics,
    TraceSeries,
    _hard_window_indices,
    _identity_breakdown,
    _wall_traces,
    dissipation_audit,
    interpolation_check,
    stopping_time,
    trace_identity_residual,
    trace_integral,
)
from kdvhl.discretization import Field, Grid1D, deriv_matrix, fd_weights, integrate, trace_derivs
from kdvhl.solver import BoundaryData, SolverConfig, solve
from kdvhl.weights import CutoffSpec, WeightSpec, chi, moving_weight

WS = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=1.0, x0=4.0)


def _bump_run(n, dt, kept):
    """Short nonlinear bump run on [0, 16] with the online accumulator and a Kept
    record of every state attached; returns the states, finish() and the observer."""
    grid = Grid1D(16.0, n)
    u0 = Field(grid, gaussian_bump(0.8, 6.0, 1.0)(grid.nodes), 0.0)
    rd = RunningDiagnostics(grid, BoundaryData(), WS, identity_levels=(1, 2))
    states = kept()
    solve(u0, SolverConfig(dt=dt, T=0.4), BoundaryData(), observers=[rd, states])
    return states, rd.finish(), rd


@pytest.fixture(scope="module")
def diag_run(kept):
    return _bump_run(161, 0.01, kept)


def test_stopping_time_branches():
    assert stopping_time(2.0, WS, 1) == 2.0
    ws_fast = WeightSpec(cutoff=CutoffSpec(0.5, 2.5), v=10.0, x0=1.0)
    assert stopping_time(2.0, ws_fast, 2) == pytest.approx(0.15)
    assert stopping_time(0.1, ws_fast, 2) == pytest.approx(0.1)  # T binds
    ws_still = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=0.0, x0=4.0)
    assert stopping_time(2.0, ws_still, 2) == 2.0


def test_running_diagnostics_input_checks():
    # the Young-split delta is report-only: test_config_cli covers young.delta
    grid, bd = Grid1D(16.0, 161), BoundaryData()
    with pytest.raises(ValueError, match="levels 1 and 2"):
        RunningDiagnostics(grid, bd, WS, identity_levels=(3,))
    with pytest.raises(ValueError, match="must exceed epsilon"):
        RunningDiagnostics(grid, bd, WS, R=0.1)
    assert RunningDiagnostics(grid, bd, WS).R == WS.cutoff.b
    assert RunningDiagnostics(grid, bd, WS, R=3.0).R == 3.0
    # a stride of 0 would end the solve in a modulo by zero at the first block, and
    # -3 or 2.5 would silently sample other states: one line at construction
    for stride in (0, -3, 2.5):
        with pytest.raises(ValueError, match="stride must be None or an integer >= 1") as err:
            RunningDiagnostics(grid, bd, WS, stride=stride)
        assert "\n" not in str(err.value)


def test_smoothing_chiprime_bounded_by_window(diag_run):
    _, fin, rd = diag_run
    assert rd.R == WS.cutoff.b
    bound = WS.sup_chi_prime * fin["K1_window"][-1]
    assert fin["K1_chiprime"][-1] <= bound * (1.0 + 1e-12)


def test_identity_residual_decays_under_refinement(diag_run, kept):
    # joint halving of h and dt; the bound is the acceptance gate's (test 07)
    _, coarse, _ = diag_run
    _, fine, _ = _bump_run(321, 0.005, kept)
    for lv in (1, 2):
        ratio = coarse["identity"][lv]["normalized"] / fine["identity"][lv]["normalized"]
        assert ratio >= 2.5, (lv, ratio)


def test_identity_term_integrals_name_their_terms(diag_run):
    # the breakdown's int |term| dt, which the report prints, sits under each term's
    # own name, and scale and normalized are read off those integrals
    fin = diag_run[1]
    times = fin["times"]
    for lv in (1, 2):
        br = fin["identity"][lv]
        want = {name: float(np.trapezoid(np.abs(x), times)) for name, x in br["terms"].items()}
        assert br["term_integrals"] == want and list(br["term_integrals"]) == list(want)
        assert br["scale"] == max(want.values())
        assert br["normalized"] == float(np.trapezoid(np.abs(br["residual"]), times)) / br["scale"]


# a weight whose gain window [(b+x0)/v, T] opens at t = 0: (2 - 2)/1
WS_OPEN = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=1.0, x0=-2.0)


def test_trace_integral_window_and_flags(diag_run):
    traces = diag_run[1]["traces"]
    # gain window [(b+x0)/v, T*]; here (2+4)/1 = 6 > T = 0.4
    ti = trace_integral(traces, 2, WS, j=1)
    assert set(ti) == {"value", "t_start", "t_end", "empty"}
    assert ti["empty"] and ti["value"] == 0.0
    assert ti["t_start"] == pytest.approx(6.0)
    # a window on the data that exists
    ti2 = trace_integral(traces, 2, WS_OPEN)
    assert (ti2["t_start"], ti2["t_end"]) == (0.0, pytest.approx(0.4))
    assert not ti2["empty"] and ti2["value"] >= 0.0
    # motionless weight never opens a window
    ws0 = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=0.0, x0=4.0)
    assert trace_integral(traces, 2, ws0)["empty"]
    for k in (0, 1, 4):
        with pytest.raises(ValueError, match="2 or 3"):
            trace_integral(traces, k, WS)


def test_trace_integral_equation_route_zero_for_quiet_boundary(diag_run):
    traces = diag_run[1]["traces"]
    # f = 0, F = 0 and u_x(0) ~ 0 make the equation-route third trace vanish
    ti = trace_integral(traces, 3, WS_OPEN)
    assert not ti["empty"] and ti["value"] <= 1e-20


def test_trace_identity_residual_zero_run():
    grid = Grid1D(16.0, 161)
    traces = TraceSeries(BoundaryData())
    solve(Field(grid, np.zeros(grid.n), 0.0), SolverConfig(dt=0.01, T=0.1),
          BoundaryData(), observers=[traces])
    assert trace_identity_residual(traces) == 0.0
    assert np.all(traces.d3 == 0.0) and np.all(traces.d3_equation == 0.0)


def test_interpolation_check_paths(diag_run, interpolation_reference, monkeypatch):
    # the observer's recorded terms against the full-grid reference, on every
    # tenth state of a run and a zero state after them; with three-state blocks and
    # no nstates the last block is full at the last state and is evaluated in finish()
    from kdvhl import diagnostics

    states, fin, _ = diag_run
    assert fin["interpolation"].size == 0  # no stride, nothing recorded
    grid = states[-1].grid
    zero = Field(grid, np.zeros(grid.n), states[-1].t + 0.01)
    fields = states[::10] + [zero]
    assert len(fields) == 6
    monkeypatch.setattr(diagnostics, "_BLOCK_DOUBLES", 3 * grid.n)
    recorded = {}
    for stride in (1, 10**18):
        rd = RunningDiagnostics(grid, BoundaryData(), WS, stride=stride)
        for f in fields:
            rd(f)
        recorded[stride] = rd.finish()["interpolation"]
    terms = recorded[1]
    want = np.array([interpolation_reference(f, WS) for f in fields])
    assert terms.tobytes() == want.tobytes()
    assert recorded[10**18].tobytes() == terms[[0, -1]].tobytes()  # the first and last

    final = interpolation_check(terms[-2:-1])
    assert final == {"max_ratio": final["max_ratio"], "n_samples": 1, "any_degenerate": False}
    assert 0.0 < final["max_ratio"] < 10.0
    # a zero state is degenerate, with ratio 0
    assert interpolation_check(terms[-1:]) == {
        "max_ratio": 0.0, "n_samples": 1, "any_degenerate": True}
    # the largest finite ratio over the states, and 0 for no states
    ratios = [interpolation_check(row[None])["max_ratio"] for row in terms[:-1]]
    assert interpolation_check(terms) == {
        "max_ratio": max(ratios), "n_samples": 6, "any_degenerate": True}
    assert interpolation_check(np.zeros((0, 4))) == {
        "max_ratio": 0.0, "n_samples": 0, "any_degenerate": False}


def test_dissipation_audit_consistency(diag_run):
    # the small domain lets dispersive radiation reach the wall, so the
    # drain is genuinely nonzero; the audit's bookkeeping must close on
    # itself and the two routes must agree to coarse-grid accuracy
    _, fin, _ = diag_run
    aud = dissipation_audit(fin)
    assert aud["dissipated"] == pytest.approx(aud["e_final"] - aud["e_initial"], abs=1e-15)
    assert aud["discrepancy"] == pytest.approx(abs(aud["dissipated"] - aud["predicted"]),
                                               abs=1e-15)
    assert aud["predicted"] < 0.0 and aud["dissipated"] < 0.0
    assert aud["relative"] <= 0.15


def test_maximal_dominates_initial_mass(diag_run):
    states, fin, _ = diag_run
    e0 = np.sqrt(integrate(states[0].values ** 2, states[0].grid))
    assert fin["maximal"] >= e0 * (1.0 - 1e-12)


def _probe_d4(fld):
    """The one-sided 6-node u_xxxx(0) probe, from its own Fornberg weights."""
    return float(fd_weights(np.arange(6) * fld.grid.h, 0.0, 4) @ fld.values[:6])


def test_trace_d4_exact_on_quintics():
    # two grid spacings in turn: a weight cache keyed on anything but h would
    # hand the second grid the first one's weights
    for L in (0.7, 2.59):
        g = Grid1D(L, 8)
        for deg in range(6):
            got = trace_derivs(Field(g, (g.nodes + 0.5) ** deg, 0.0))[4]
            exact = 0.0 if deg < 4 else {4: 24.0, 5: 120.0 * 0.5}[deg]
            assert got == pytest.approx(exact, abs=1e-6 * max(1.0, exact)), (L, deg)


def _full_grid_reference(states, wspec, bd, forcing):
    """Per-step J_1, J_2, accumulated K1_chiprime and the identity terms from
    full-grid weights: every node weighted by moving_weight, chi0 from three
    scalar chi calls, each integral one trapezoid over the whole grid."""
    grid = states[0].grid
    x = grid.nodes
    D1, D2, D3 = (deriv_matrix(grid, k) for k in (1, 2, 3))
    ref = {"J1": [], "J2": [], "K1_chiprime": [0.0], 1: {}, 2: {}}
    kcp_prev = None
    for fld in states:
        t, u = fld.t, fld.values
        w, q, qx = D1 @ u, D2 @ u, D3 @ u
        c0, c1, c3 = (moving_weight(wspec, x, t, k) for k in (0, 1, 3))
        b0, b1, b2 = (float(chi(wspec.cutoff, wspec.v * t - wspec.x0, k)) for k in (0, 1, 2))
        F = forcing(x, t)
        _, d1t, d2t = trace_derivs(fld)[:3]
        f = bd.f(t)
        d3t = F[0] - bd.fprime(t) - 2.0 * f * d1t
        d4t = _probe_d4(fld) if b0 != 0.0 else 0.0
        kcp = integrate(q * q * c1, grid)
        ref["J1"].append(integrate(w * w * c0, grid))
        ref["J2"].append(integrate(q * q * c0, grid))
        if kcp_prev is not None:
            ref["K1_chiprime"].append(ref["K1_chiprime"][-1] + 0.5 * (t - t_prev) * (kcp + kcp_prev))
        kcp_prev, t_prev = kcp, t
        terms = {
            1: {"weight_transport": -0.5 * wspec.v * integrate(w * w * c1, grid),
                "smoothing": 1.5 * kcp,
                "weight_third": -0.5 * integrate(w * w * c3, grid),
                "nl_cubic": integrate(w**3 * c0, grid),
                "nl_transport": -integrate(u * w * w * c1, grid),
                "forcing": -integrate((D1 @ F) * w * c0, grid),
                "trace_d3d1": -d3t * d1t * b0, "trace_d2sq": 0.5 * d2t * d2t * b0,
                "trace_d2d1": d2t * d1t * b1, "trace_d1sq": -0.5 * d1t * d1t * b2,
                "trace_cubic": -f * d1t * d1t * b0},
            2: {"weight_transport": -0.5 * wspec.v * kcp,
                "smoothing": 1.5 * integrate(qx * qx * c1, grid),
                "weight_third": -0.5 * integrate(q * q * c3, grid),
                "nl_steepening": 5.0 * integrate(w * q * q * c0, grid),
                "nl_transport": -integrate(u * q * q * c1, grid),
                "forcing": -integrate((D2 @ F) * q * c0, grid),
                "trace_d4d2": -d4t * d2t * b0, "trace_d3sq": 0.5 * d3t * d3t * b0,
                "trace_d3d2": d3t * d2t * b1, "trace_d2sq": -0.5 * d2t * d2t * b2,
                "trace_cubic": -f * d2t * d2t * b0},
        }
        for lv in (1, 2):
            for name, val in terms[lv].items():
                ref[lv].setdefault(name, []).append(val)
    return ref


# weight origins x0 on [0, 16] with eps = 0.4, b = 2, v = 1 and t in [0, 0.3],
# and what the weight is at x = 0 and x = L: the band inside the grid, across
# x = 0 (chi0 strictly between 0 and 1), past x = 0 (empty band, the whole grid
# in the tail), across x = L, and short of x = L (the weight zero everywhere)
@pytest.mark.parametrize("x0,at0,atL", [(6.0, "0", "1"), (-1.0, "mid", "1"), (-3.0, "1", "1"),
                                        (15.0, "0", "mid"), (20.0, "0", "0")])
def test_band_restriction_matches_full_grid_weights(x0, at0, atL):
    # a smooth state that vanishes at neither end, with boundary data and
    # forcing, so every term and both trapezoid end weights are exercised
    grid = Grid1D(16.0, 161)
    x = grid.nodes
    ws = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=1.0, x0=x0)
    bd = BoundaryData(f=lambda t: 0.1 + 0.2 * t)

    def forcing(xs, t):
        return 0.1 * np.sin(np.asarray(xs) - t)

    states = [Field(grid, 0.5 * np.cos(0.7 * x + t) + 0.3 * np.sin(1.3 * x - 2.0 * t) + 0.2, t)
              for t in np.linspace(0.0, 0.3, 7)]
    rd = RunningDiagnostics(grid, bd, ws, identity_levels=(1, 2), forcing=forcing)
    for fld in states:
        rd(fld)
    fin = rd.finish()
    ref = _full_grid_reference(states, ws, bd, forcing)
    times = fin["times"]
    for lv in (1, 2):
        ref[lv]["time_derivative"] = 0.5 * np.gradient(ref[f"J{lv}"], times)
    pairs = [(name, fin[name], ref[name]) for name in ("J1", "J2", "K1_chiprime")]
    pairs += [(f"l{lv} {name}", fin["identity"][lv]["terms"][name], series)
              for lv in (1, 2) for name, series in ref[lv].items()]
    assert len(pairs) == 3 + 2 * 12
    for name, got, want in pairs:
        want = np.asarray(want)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * scale, (x0, name)
    for t in times:
        for xe, kind in ((0.0, at0), (grid.L, atL)):
            c = float(moving_weight(ws, xe, t))
            assert (c == float(kind)) if kind != "mid" else (0.0 < c < 1.0), (x0, t, xe)


def _soliton_references(c, x_c, L, T, ws):
    """Every functional the observer reports, from the exact soliton.

    Derivatives come from sympy; x integrals from adaptive quadrature; t
    integrals from the trapezoid rule on 201 times.  The cutoff is rebuilt from
    its definition (chi' is the bump exp(-1/((s-eps)(b-s))) of unit mass).
    """
    eps, b = ws.cutoff.epsilon, ws.cutoff.b
    x, t = sp.symbols("x t", real=True)
    u = sp.Rational(3, 2) * c / sp.cosh(sp.sqrt(c) / 2 * (x - c * t - x_c)) ** 2
    exact, d1, d2 = (sp.lambdify((x, t), sp.diff(u, x, k), "numpy") for k in (0, 1, 2))
    ts = np.linspace(0.0, T, 201)

    def xquad(f, lo, hi, points=None):
        return quad(f, lo, hi, epsrel=1e-12, epsabs=0.0, limit=200, points=points)[0]

    def bump(s):
        return math.exp(-1.0 / ((s - eps) * (b - s))) if eps < s < b else 0.0

    norm = xquad(bump, eps, b)

    def chi(s):
        return 0.0 if s <= eps else 1.0 if s >= b else xquad(bump, eps, s) / norm

    def arg(tt):  # the weight is chi(x + v t - x0)
        return ws.v * tt - ws.x0

    lo_T, hi_T = eps - arg(T), b - arg(T)
    ref = {f"J{k}": xquad(lambda s, dk=dk: dk(s, T) ** 2 * chi(s + arg(T)), lo_T, L, [hi_T])
           for k, dk in ((1, d1), (2, d2))}
    kcp = [xquad(lambda s: d2(s, tt) ** 2 * bump(s + arg(tt)) / norm, eps - arg(tt), b - arg(tt))
           for tt in ts]
    kwin = [xquad(lambda s: d2(s, tt) ** 2, max(eps - arg(tt), 0.0), b - arg(tt)) for tt in ts]
    ref["K1_chiprime"] = np.trapezoid(kcp, ts)
    ref["K1_window"] = np.trapezoid(kwin, ts)
    # sup_x |u_x| is the same at every time while the crest is inside the domain
    sup_ux = -minimize_scalar(lambda s: -abs(d1(s, 0.0)), bounds=(x_c - 3.0, x_c),
                              method="bounded", options={"xatol": 1e-10}).fun
    ref["strichartz"] = np.trapezoid(np.full_like(ts, sup_ux**4), ts) ** 0.25
    # sup_t u(x, t)^2 sits at the time the crest is nearest x
    ref["maximal"] = math.sqrt(xquad(lambda s: exact(s, min(max((s - x_c) / c, 0.0), T)) ** 2,
                                     0.0, L, [x_c, x_c + c * T]))
    kato = {}
    xs = np.linspace(0.0, L, 3001)
    for j, dj in ((1, d1), (2, d2)):
        def G(s, dj=dj):
            return np.trapezoid(dj(np.asarray(s)[..., None], ts) ** 2, ts, axis=-1)
        i = int(np.argmax(G(xs)))
        best = minimize_scalar(lambda s: -G(s), bounds=(xs[i - 1], xs[i + 1]),
                               method="bounded", options={"xatol": 1e-10})
        kato[j] = (-best.fun, G)
    return ref, kato


@pytest.fixture(scope="module")
def soliton_runs():
    """The exact-soliton references and the observer's output at two resolutions.

    The crest starts at x = 9 and the weight's ramp [x0 + eps - v t, x0 + b - v t]
    sweeps back across it.  The references are computed offline from the closed
    form; every reported functional must approach them at second order under
    joint halving of h and dt.
    """
    c, x_c, L, T = 1.0, 9.0, 30.0, 1.0
    ws = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=1.0, x0=8.0)
    ref, kato = _soliton_references(c, x_c, L, T, ws)
    fins = []
    for n, dt in ((601, 0.01), (1201, 0.005)):
        grid = Grid1D(L, n)
        # the tail at x = 0 is 7.4e-4; the boundary data carries it exactly
        with pytest.warns(ResolutionWarning):
            u0 = soliton_data(c, x_c, grid)
        bd = BoundaryData(f=lambda t: soliton_solution(c, x_c)(0.0, t))
        rd = RunningDiagnostics(grid, bd, ws)
        solve(u0, SolverConfig(dt=dt, T=T), bd, observers=[rd])
        fins.append(rd.finish())
    return ref, kato, fins


def _decay(ref, fins, pick):
    """Ratio of coarse to fine relative error for each key of `ref`."""
    errs = [{k: abs(pick(fin, k) / ref[k] - 1.0) for k in ref} for fin in fins]
    return {k: errs[0][k] / errs[1][k] for k in ref}


def test_online_J_matches_offline(soliton_runs):
    ref, _, fins = soliton_runs
    ref = {k: ref[k] for k in ("J1", "J2")}
    decay = _decay(ref, fins, lambda fin, k: fin[k][-1])
    for k in ref:
        assert decay[k] >= 3.5, (k, decay)


def test_online_smoothing_matches_offline(soliton_runs):
    ref, _, fins = soliton_runs
    ref = {k: ref[k] for k in ("K1_chiprime", "K1_window")}
    decay = _decay(ref, fins, lambda fin, k: fin[k][-1])
    assert decay["K1_chiprime"] >= 3.5, decay
    # the hard window's ends snap to grid nodes, an O(h) effect
    assert decay["K1_window"] >= 1.8, decay


def test_online_sup_functionals_match_offline(soliton_runs):
    ref, kato, fins = soliton_runs
    ref = {k: ref[k] for k in ("strichartz", "maximal")}
    for j, (sup, _) in kato.items():
        ref[f"kato{j}"] = sup

    def pick(fin, k):
        return fin["kato"][int(k[-1])][0] if k.startswith("kato") else fin[k]

    decay = _decay(ref, fins, pick)
    for fin in fins:
        for j, (sup, G) in kato.items():
            value, x_arg = fin["kato"][j]
            # the j = 1 functional has two equal crests (8.13 and 10.87), so
            # the location is not compared: the exact functional at the
            # returned node must be as close to the sup as the value itself
            assert 1.0 - G(x_arg) / sup <= abs(value / sup - 1.0), (j, x_arg)
    for k in ("strichartz", "maximal", "kato2"):
        assert decay[k] >= 3.5, (k, decay)
    assert decay["kato1"] >= 3.0, decay


def _per_state_reference(states, grid, bd, ws, levels, forcing):
    """finish() of the observer as it was before states were evaluated in blocks:
    each state alone, every order's weight on its full row from one chi call (chi0
    at node 0), J_l's weight written over the band, each chi^(k) term for k >= 1 the
    full-row trapezoid, every functional and identity term appended one state at a
    time.  "traces" holds the
    wall record's rows: t, f, u_x, u_xx, u_xxx, u_xxxx and the equation-route u_xxx."""
    cut, n, x = ws.cutoff, grid.n, grid.nodes
    D = {k: deriv_matrix(grid, k) for k in (1, 2, 3)}
    series = {k: [] for k in ("t", "J1", "J2", "mass", "stri4")}
    acc = {k: [0.0] for k in ("K1_chiprime", "K1_window", "trace2_acc", "trace3_acc")}
    ident = {lv: {} for lv in levels}
    walls = []
    kato = {j: np.zeros(n) for j in (1, 2)}
    peak = np.zeros(n)
    prev = None
    for fld in states:
        t, u = fld.t, fld.values
        w, q, qx = D[1] @ u, D[2] @ u, D[3] @ u
        ww, qq = w * w, q * q
        a = x + ws.v * t - ws.x0
        lo = int(np.searchsorted(a, cut.epsilon, "right"))
        hi = int(np.searchsorted(a, cut.b, "left"))
        c = chi(cut, a, (0, 1, 2, 3))

        def integral(k, *factors):
            if k == 0:
                vals = np.zeros(n)
                vals[lo:] = reduce(mul, [f[lo:] for f in factors])
                vals[lo:hi] *= c[k][lo:hi]
                return integrate(vals, grid)
            return integrate(reduce(mul, factors) * c[k], grid)

        _, d1t, d2t, d3s = trace_derivs(fld)[:4]
        f, d3t = _wall_traces(bd, forcing, t, d1t)
        walls.append((t, f, d1t, d2t, d3s, _probe_d4(fld), d3t))
        series["t"].append(t)
        series["J1"].append(integral(0, ww))
        series["J2"].append(integral(0, qq))
        series["mass"].append(integrate(u * u, grid))
        i0, i1 = _hard_window_indices(grid, ws, ws.cutoff.b, t)  # the default R
        inst = {"K1_chiprime": integral(1, qq), "K1_window": integrate(qq, grid, window=(i0, i1)),
                "trace2_acc": d2t * d2t, "trace3_acc": d3t * d3t}
        if prev is not None:
            dt = t - prev[0]
            for k, v in inst.items():
                acc[k].append(acc[k][-1] + 0.5 * dt * (v + prev[1][k]))
            for j, g2 in ((1, ww), (2, qq)):
                kato[j] += 0.5 * dt * (g2 + prev[2][j - 1])
        prev = (t, inst, (ww, qq))
        F = np.asarray(forcing(x, t), dtype=float)
        b0, b1, b2 = c[:3, 0]
        kcp = inst["K1_chiprime"]
        d4t = walls[-1][5] if b0 != 0.0 else 0.0
        terms = {
            1: {"weight_transport": -0.5 * ws.v * integral(1, ww), "smoothing": 1.5 * kcp,
                "weight_third": -0.5 * integral(3, ww), "nl_cubic": integral(0, ww, w),
                "nl_transport": -integral(1, u, ww), "forcing": -integral(0, D[1] @ F, w),
                "trace_d3d1": -d3t * d1t * b0, "trace_d2sq": 0.5 * d2t * d2t * b0,
                "trace_d2d1": d2t * d1t * b1, "trace_d1sq": -0.5 * d1t * d1t * b2,
                "trace_cubic": -f * d1t * d1t * b0},
            2: {"weight_transport": -0.5 * ws.v * kcp, "smoothing": 1.5 * integral(1, qx, qx),
                "weight_third": -0.5 * integral(3, qq), "nl_steepening": 5.0 * integral(0, w, qq),
                "nl_transport": -integral(1, u, qq), "forcing": -integral(0, D[2] @ F, q),
                "trace_d4d2": -d4t * d2t * b0, "trace_d3sq": 0.5 * d3t * d3t * b0,
                "trace_d3d2": d3t * d2t * b1, "trace_d2sq": -0.5 * d2t * d2t * b2,
                "trace_cubic": -f * d2t * d2t * b0},
        }
        for lv in levels:
            for k, v in terms[lv].items():
                ident[lv].setdefault(k, []).append(v)
        np.maximum(peak, np.abs(u), out=peak)
        series["stri4"].append(float(np.max(np.abs(w)) ** 4))
    times = np.asarray(series["t"])
    out = {"times": times}
    out.update({k: np.asarray(series[k]) for k in ("J1", "J2", "mass")})
    out.update({k: np.asarray(v) for k, v in acc.items()})
    out["strichartz"] = float(np.trapezoid(np.asarray(series["stri4"]), times) ** 0.25)
    out["maximal"] = float(np.sqrt(integrate(peak**2, grid)))
    out["kato"] = {j: (float(np.max(kato[j])), float(x[int(np.argmax(kato[j]))]))
                   for j in (1, 2)}
    out["identity"] = {lv: _identity_breakdown(
        lv, times, out[f"J{lv}"], {k: np.asarray(v) for k, v in ident[lv].items()})
        for lv in levels}
    out["traces"] = np.array(walls)
    return out


def _assert_same_bits(got, want, where):
    """Equal floats and arrays, element for element, keys in the same order."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for k in want:
            _assert_same_bits(got[k], want[k], (where, k))
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_bits(g, w, (where, i))
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), where


# a block holds 2**15 // n states: 40 at n = 801.  The weight origins put the
# band across x = 0 late in the run (chi0 turns on, so the u_xxxx probe is read)
# and across x = L early in it.  The interpolation terms are recorded on every
# tenth state, so states 40 and 80 are sampled first in their blocks, and the
# last; they too are full-row trapezoids and match the full-grid reference bit
# for bit
@pytest.mark.parametrize("x0", [1.0, 15.0])
@pytest.mark.parametrize("count", [1, 39, 40, 41, 83])
def test_blocked_observer_matches_per_state_reference(x0, count, interpolation_reference):
    grid = Grid1D(16.0, 801)
    assert max(1, 2**15 // grid.n) == 40
    x = grid.nodes
    ws = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=1.0, x0=x0)
    # dJ/dt needs two states, so a single state is observed without identities
    levels = (1, 2) if count > 1 else ()
    bd = BoundaryData(f=lambda t: 0.1 + 0.2 * t)

    def forcing(xs, t):
        return 0.1 * np.sin(np.asarray(xs) - t)

    states = [Field(grid, 0.5 * np.cos(0.7 * x + t) + 0.3 * np.sin(1.3 * x - 2.0 * t) + 0.2, t)
              for t in 0.02 * np.arange(count)]
    want = _per_state_reference(states, grid, bd, ws, levels, forcing)
    picks = sorted({*range(0, count, 10), count - 1})
    interp = np.array([interpolation_reference(states[k], ws) for k in picks])
    for nstates in (None, count):
        rd = RunningDiagnostics(grid, bd, ws, identity_levels=levels, forcing=forcing,
                                nstates=nstates, stride=10)
        for fld in states:
            rd(fld)
        got = rd.finish()
        got["traces"] = got["traces"].table()
        terms = got.pop("interpolation")
        _assert_same_bits(got, want, nstates)
        assert terms.tobytes() == interp.tobytes()


def _old_band_form(grid, cut, a, row, k):
    """The observer's chi^(k) integral, k >= 1, as it was summed before the full-row
    form: the trapezoid of row times chi^(k)(a) as a dot product over the band
    eps < a < b alone, the end weights from chi^(k) at x = 0 and, when the band
    reaches it, at x = L."""
    lo, hi = int(a.searchsorted(cut.epsilon, "right")), int(a.searchsorted(cut.b, "left"))
    c = chi(cut, a[lo:hi], k)
    last = row[-1] * c[-1] if hi == grid.n and lo < hi else 0.0
    return grid.h * (row[lo:hi] @ c - 0.5 * (row[0] * float(chi(cut, a[0], k)) + last))


def test_chi_derivative_integrals_match_the_old_band_sums():
    # a band 19.6 wide on a grid 16 long: with x0 = -1 it crosses x = 0 (chi0
    # strictly between 0 and 1) and x = L on every state, so both trapezoid end
    # weights carry a chi^(k) value, and so does the companion cutoff's band.
    # Every recorded chi' and chi''' integral (K1_chiprime, the four identity terms
    # of each level, the interpolation integrals) moved from the band dot product
    # to the full-row sum by rounding alone
    grid = Grid1D(16.0, 801)
    x = grid.nodes
    ws = WeightSpec(cutoff=CutoffSpec(0.4, 20.0), v=1.0, x0=-1.0)
    wide = CutoffSpec(0.4 / 3.0, 20.4)
    states = [Field(grid, 0.5 * np.cos(0.7 * x + t) + 0.3 * np.sin(1.3 * x - 2.0 * t) + 0.2, t)
              for t in 0.02 * np.arange(45)]
    rd = RunningDiagnostics(grid, BoundaryData(f=lambda t: 0.1 + 0.2 * t), ws,
                            identity_levels=(1, 2), stride=1)
    for fld in states:
        rd(fld)
    fin = rd.finish()
    names = ("weight_transport", "smoothing", "weight_third", "nl_transport")
    got = {(lv, name): fin["identity"][lv]["terms"][name] for lv in (1, 2) for name in names}
    want = {key: [] for key in got}
    kcp, interp = [], []
    D = [deriv_matrix(grid, k) for k in (1, 2, 3)]
    for fld in states:
        u, a = fld.values, x + ws.v * fld.t - ws.x0
        assert ws.cutoff.epsilon < a[0] and a[-1] < ws.cutoff.b  # the band holds the grid
        du = [u] + [Dk @ u for Dk in D]
        for lv in (1, 2):
            sq = du[lv] * du[lv]
            for name, val in zip(names, (
                    -0.5 * ws.v * _old_band_form(grid, ws.cutoff, a, sq, 1),
                    1.5 * _old_band_form(grid, ws.cutoff, a, du[lv + 1] * du[lv + 1], 1),
                    -0.5 * _old_band_form(grid, ws.cutoff, a, sq, 3),
                    -_old_band_form(grid, ws.cutoff, a, u * sq, 1))):
                want[lv, name].append(val)
        qq = du[2] * du[2]
        kcp.append(_old_band_form(grid, ws.cutoff, a, qq, 1))
        interp.append((kcp[-1], _old_band_form(grid, ws.cutoff, a, du[3] * du[3], 1),
                       _old_band_form(grid, wide, a, qq, 1)))
    kcp, times = np.array(kcp), fin["times"]
    got["K1_chiprime"] = fin["K1_chiprime"]
    want["K1_chiprime"] = np.append(0.0, np.cumsum(0.5 * np.diff(times) * (kcp[1:] + kcp[:-1])))
    got["interpolation"], want["interpolation"] = fin["interpolation"][:, 1:], interp
    for key, series in want.items():
        series = np.asarray(series)
        assert np.all(np.abs(got[key] - series) <= 1e-13 * np.abs(series)), key


def test_companion_cutoff_is_one_call_per_sampled_block(monkeypatch, kept,
                                                        interpolation_reference):
    # l2_stopped records the interpolation terms of all its 161 states (stride 1) in
    # 40-state blocks at n = 801: the companion cutoff's chi' is one moving_weight
    # call per block that holds a sampled state, 5 in all, and the recorded terms
    # still match the full-grid reference
    from kdvhl import diagnostics, experiments
    from kdvhl.cli import resolve_config

    calls, states = [], kept()
    moving_weight_, solve_ = diagnostics.moving_weight, experiments.solve

    def spy_weight(*args):
        calls.append(args)
        return moving_weight_(*args)

    def spy_solve(u0, cfg, bd, observers=()):
        return solve_(u0, cfg, bd, observers=[*observers, states])

    monkeypatch.setattr(diagnostics, "moving_weight", spy_weight)
    monkeypatch.setattr(experiments, "solve", spy_solve)
    cfg = resolve_config("l2_stopped")
    fin, ws = experiments._run_with_diagnostics(cfg, cfg.snapshot_stride)[2:4]
    assert cfg.snapshot_stride == 1 and len(states) == 161
    assert len(calls) == 5
    terms = fin["interpolation"]
    want = np.array([interpolation_reference(f, ws) for f in states])
    assert terms.tobytes() == want.tobytes()


def test_identity_bookkeeping_needs_two_states():
    # dJ/dt is a difference of two states: one observed state is refused with one
    # line, not an IndexError from np.gradient
    grid = Grid1D(16.0, 161)
    rd = RunningDiagnostics(grid, BoundaryData(), WS, (1, 2))
    rd(Field(grid, gaussian_bump(0.8, 6.0, 1.0)(grid.nodes), 0.0))
    with pytest.raises(ValueError, match="at least two observed states") as err:
        rd.finish()
    assert "\n" not in str(err.value)


def test_identity_study_keeps_no_snapshots(monkeypatch):
    # the identity study reads only the observer's finish(): each level's solve
    # runs under the RunningDiagnostics alone, which measures no sampled state,
    # and its trajectory holds no state but the final one
    from dataclasses import fields

    from kdvhl import experiments
    from kdvhl.cli import resolve_config

    seen, solve_ = [], experiments.solve

    def spy(u0, cfg, bd, observers=()):
        traj = solve_(u0, cfg, bd, observers=observers)
        held = [f.name for f in fields(traj) if isinstance(getattr(traj, f.name), Field)]
        seen.append(([type(o).__name__ for o in observers], held))
        return traj

    monkeypatch.setattr(experiments, "solve", spy)
    cfg = resolve_config("identity_l2")
    cfg.n, cfg.T, cfg.levels = 201, 0.25, 2
    experiments.run_identity(cfg)
    assert seen == [(["RunningDiagnostics"], ["final"])] * 2


def test_wall_traces_computed_once_per_state(monkeypatch):
    # the wall record is the only code that computes wall values: a converge level
    # and the oracle-compare half-line solve read no trace and compute none, and a
    # simulate run computes each state's traces once, inside its observer
    from kdvhl import diagnostics, experiments
    from kdvhl.cli import resolve_config

    # trace_derivs runs only in diagnostics, which imported it; every Grid1D also
    # looks up discretization._trace_weights, so counting those would count grids
    calls = {"trace_derivs": 0, "_wall_traces": 0}
    for name in calls:
        def spy(*args, _real=getattr(diagnostics, name), _key=name):
            calls[_key] += 1
            return _real(*args)

        monkeypatch.setattr(diagnostics, name, spy)

    conv = resolve_config("mms")
    conv.n, conv.T, conv.levels = 201, 0.2, 1
    experiments.run_converge(conv)
    oracle = resolve_config("oracle")
    oracle.T, oracle.oracle_samples = 0.4, 3
    experiments.run_oracle_compare(oracle)
    assert calls == {"trace_derivs": 0, "_wall_traces": 0}

    sim = resolve_config("dissipation")
    sim.n, sim.dt, sim.T = 401, 0.025, 0.5
    report, _ = experiments.run_simulate(sim)
    assert calls == {"trace_derivs": 21, "_wall_traces": 21}
    assert report["dissipation"]["predicted"] < 0.0


def _equation_d3_post_hoc(times, states, bd, forcing):
    """The equation-route u_xxx(0) recomputed after the run from every kept
    state: the reference the wall record must reproduce."""
    d1 = [trace_derivs(s)[1] for s in states]
    return np.array([_wall_traces(bd, forcing, t, d)[1] for t, d in zip(times, d1)])


def test_trace_record_matches_post_hoc_equation_route(kept):
    # a forced run with a moving boundary value (the decaying_hump manufactured
    # solution): the record's k = 3 window integral and identity residual equal,
    # bit for bit, the route that recomputed the traces from the stored states
    from kdvhl.oracle import decaying_hump

    u_e, forcing = decaying_hump(1.0, 2.0, 1.0)
    grid = Grid1D(20.0, 201)
    bd = BoundaryData(f=lambda t: u_e(0.0, t))
    traces, states = TraceSeries(bd, forcing), kept()
    solve(Field(grid, u_e(grid.nodes, 0.0), 0.0), SolverConfig(dt=0.02, T=0.6, forcing=forcing),
          bd, observers=[traces, states])
    times = np.arange(31) * 0.02  # each state's pinned clock k*dt
    assert len(states) == 31
    assert np.min(np.abs([bd.f(t) for t in times])) > 0.01
    d3e = _equation_d3_post_hoc(times, states, bd, forcing)
    d3 = np.array([trace_derivs(s)[3] for s in states])

    # the gain window [(b + x0)/v, T] = [0.1, 0.6]
    t0, t1 = 0.1, 0.6
    m = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    ti = trace_integral(traces, 3, WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=1.0, x0=-1.9))
    assert (ti["t_start"], ti["t_end"]) == (pytest.approx(t0), pytest.approx(t1))
    assert not ti["empty"] and ti["value"] > 0.0
    assert ti["value"] == float(np.trapezoid(d3e[m] ** 2, times[m]))

    r_want = d3 - d3e
    r = traces.d3 - traces.d3_equation
    assert traces.times.tobytes() == times.tobytes() and r.tobytes() == r_want.tobytes()
    rms = trace_identity_residual(traces)
    assert rms == float(np.sqrt(np.mean(r_want * r_want))) and rms > 0.0
