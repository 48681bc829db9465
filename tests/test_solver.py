"""Implicit stepper: boundary rows, energy behavior, failure modes."""

from dataclasses import replace
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from scipy.sparse import csc_matrix, csr_matrix, diags as sp_diags, identity as sp_identity
from scipy.sparse.linalg import splu as superlu

from kdvhl.cli import _LEVELED, available_recipes, resolve_config
from kdvhl.config import ConfigError
from kdvhl.datagen import gaussian_bump, gaussian_pulse
from kdvhl.diagnostics import TraceSeries
from kdvhl.discretization import Field, Grid1D, deriv_matrix, integrate
from kdvhl.experiments import _oracle_reference, refine, scenario, solver_config
from kdvhl import solver
from kdvhl.solver import (
    BoundaryData,
    SolverConfig,
    SolverError,
    _System,
    _extrapolate,
    solve,
    splu,
)


def bump_field(grid, amplitude=0.8, center=None, width=1.0):
    c = center if center is not None else 0.4 * grid.L
    return Field(grid, gaussian_bump(amplitude, c, width)(grid.nodes), 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=2.0, T=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, theta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, picard_max=0)
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="picard_tol"):
            SolverConfig(dt=0.1, T=1.0, picard_tol=tol)
    # solve keeps only its final state, so it takes no stride of stored states
    with pytest.raises(TypeError, match="snapshot_stride"):
        SolverConfig(dt=0.1, T=1.0, snapshot_stride=1)


def test_nsteps_requires_integer_multiple():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, T=1.0).nsteps
    assert SolverConfig(dt=0.25, T=1.0).nsteps == 4


def test_zero_data_stays_zero(kept):
    g = Grid1D(20.0, 201)
    traces, states = TraceSeries(BoundaryData()), kept()
    solve(Field(g, np.zeros(g.n), 0.0), SolverConfig(dt=0.05, T=0.5),
          BoundaryData(), observers=[traces, states])
    assert all(np.all(s.values == 0.0) for s in states)
    assert np.all(traces.d3 == 0.0)


def test_dirichlet_row_exact(kept):
    g = Grid1D(20.0, 401)
    bd = BoundaryData(f=gaussian_pulse(A=0.5, t_c=0.4, w=0.2))
    states = kept()
    solve(Field(g, np.zeros(g.n), 0.0), SolverConfig(dt=0.01, T=1.0), bd, observers=[states])
    fvals = np.array([bd.f(s.t) for s in states])
    # the observer sees every state
    assert np.max(np.abs(np.array([s.values[0] for s in states]) - fvals)) <= 1e-12


def test_right_wall_rows_pinned(kept):
    g = Grid1D(20.0, 401)
    states = kept()
    solve(bump_field(g), SolverConfig(dt=0.01, T=0.5), BoundaryData(), observers=[states])
    # every computed step pins the far wall exactly; the observed initial
    # field keeps whatever tail the data carries
    for s in states[1:]:
        assert s.values[-1] == 0.0
        assert s.values[-2] == 0.0


def test_incompatible_corner_raises():
    # one check, in solve: a config error naming the mismatch and its 1e-10 tolerance
    g = Grid1D(20.0, 201)
    u0 = Field(g, np.full(g.n, 0.1), 0.0)
    with pytest.raises(ConfigError, match="incompatible") as err:
        solve(u0, SolverConfig(dt=0.1, T=0.5), BoundaryData())
    msg = str(err.value)
    assert "corner" in msg and "1.000e-01" in msg and "1e-10" in msg and "\n" not in msg
    u0.values[0] = 1e-11  # within the tolerance
    solve(u0, SolverConfig(dt=0.1, T=0.5), BoundaryData())


def test_trace_sampling_every_step(kept):
    # the observers see the initial state and every step's, each at its pinned clock k*dt
    g = Grid1D(20.0, 201)
    states = kept()
    solve(bump_field(g), SolverConfig(dt=0.05, T=0.15), BoundaryData(), observers=[states])
    assert [s.t for s in states] == [k * 0.05 for k in range(4)]


@pytest.mark.parametrize("stride", [1, 3, 7, 10, 11, 10**18])
def test_simulate_samples_every_stride_th_step_and_the_last(monkeypatch, kept,
                                                           interpolation_reference, stride):
    # time.snapshot_stride = s: simulate's observer records the interpolation terms of
    # steps 0, s, 2s, ... and the last, each at its pinned clock k*dt, from the block
    # that holds the state; a stride >= nsteps records the first and last states only.
    # Three-state blocks put steps 3, 6 and 9 first in theirs; without identity
    # levels the block holds no u_xxx, with level 2 it does
    from kdvhl import diagnostics, experiments

    states, recorded = kept(), []
    solve_, check = experiments.solve, experiments.interpolation_check
    monkeypatch.setattr(experiments, "solve", lambda u0, scfg, bd, observers=(): solve_(
        u0, scfg, bd, observers=[*observers, states]))
    monkeypatch.setattr(experiments, "interpolation_check",
                        lambda terms: recorded.append(terms) or check(terms))
    monkeypatch.setattr(diagnostics, "_BLOCK_DOUBLES", 3 * 201)
    steps = list(range(0, 10, stride)) + [10]  # nsteps = 10; [0, 10] for stride >= 10
    for levels in ((), (1, 2)):
        states.clear()
        cfg = resolve_config("dissipation")
        cfg.n, cfg.dt, cfg.T, cfg.snapshot_stride = 201, 0.05, 0.5, stride
        cfg.identity_levels = levels
        report, _ = experiments.run_simulate(cfg)
        got = recorded.pop()
        want = np.array([interpolation_reference(states[k], experiments.weight_spec(cfg))
                         for k in steps])
        assert [states[k].t for k in steps] == [k * 0.05 for k in steps]
        assert got.shape == (len(steps), 4)
        assert got.tobytes() == want.tobytes(), levels
        assert report["interpolation"]["n_samples"] == len(steps)


def test_picard_divergence_raises():
    g = Grid1D(20.0, 201)
    u0 = Field(g, gaussian_bump(40.0, 10.0, 1.5)(g.nodes), 0.0)
    with pytest.raises(SolverError, match="diverging"):
        solve(u0, SolverConfig(dt=0.2, T=0.4, picard_max=6), BoundaryData())


def test_picard_converges_fast_at_operating_point():
    g = Grid1D(20.0, 401)
    traj = solve(bump_field(g), SolverConfig(dt=0.01, T=0.5), BoundaryData())
    assert float(np.max(traj.picard_updates)) <= 1e-6


def test_linear_step_is_energy_neutral_while_boundary_quiet(kept):
    # theta = 1/2 with all three wall rows homogeneous: the discrete L2 norm
    # must not grow while nothing has reached the left boundary
    g = Grid1D(40.0, 801)
    u0 = Field(g, gaussian_bump(1.0, 30.0, 2.0)(g.nodes), 0.0)
    cfg = SolverConfig(dt=0.05, T=0.5, nonlinear=False)
    traces, states = TraceSeries(BoundaryData()), kept()
    solve(u0, cfg, BoundaryData(), observers=[traces, states])
    assert np.max(np.abs(traces.d1)) <= 1e-10  # boundary actually quiet
    E = np.array([integrate(s.values**2, g) for s in states])
    assert np.max(E[1:] / E[:-1]) <= 1.0 + 1e-10


def test_linear_growth_excess_vanishes_under_refinement(kept):
    # once radiation reaches x = 0 the scheme sheds energy through the
    # boundary; any step-local excess above 1 must die out at least
    # quadratically under joint halving
    excess = []
    for n, dt in ((401, 0.1), (801, 0.05)):
        g = Grid1D(40.0, n)
        u0 = Field(g, gaussian_bump(1.0, 10.0, 2.0)(g.nodes), 0.0)
        states = kept()
        solve(u0, SolverConfig(dt=dt, T=3.0, nonlinear=False), BoundaryData(),
              observers=[states])
        E = np.array([integrate(s.values**2, g) for s in states])
        excess.append(max(np.max(E[1:] / E[:-1]) - 1.0, 1e-16))
    assert excess[1] <= excess[0] / 4.0


def test_backward_euler_decays(kept):
    g = Grid1D(40.0, 401)
    u0 = Field(g, gaussian_bump(1.0, 20.0, 2.0)(g.nodes), 0.0)
    states = kept()
    solve(u0, SolverConfig(dt=0.05, T=0.5, theta=1.0, nonlinear=False), BoundaryData(),
          observers=[states])
    E = np.array([integrate(s.values**2, g) for s in states])
    assert np.all(E[1:] <= E[:-1] * (1.0 + 1e-14))


def test_boundary_drain_dominates_unforced_energy_loss():
    # coarse-resolution audit of E(T) - E(0) = -1/2 int u_x(0,t)^2 dt;
    # the recipe-resolution version is covered by the acceptance gate
    from kdvhl.diagnostics import RunningDiagnostics, dissipation_audit
    from kdvhl.weights import CutoffSpec, WeightSpec

    g = Grid1D(40.0, 801)
    u0 = Field(g, gaussian_bump(1.0, 3.0, 0.6)(g.nodes), 0.0)
    rd = RunningDiagnostics(g, BoundaryData(), WeightSpec(CutoffSpec(0.4, 2.0), 1.0, 4.0))
    solve(u0, SolverConfig(dt=0.0125, T=2.0), BoundaryData(), observers=[rd])
    aud = dissipation_audit(rd.finish())
    assert aud["dissipated"] < 0.0
    assert aud["relative"] <= 3e-2


def test_nonfinite_state_raises():
    # a NaN or an inf planted in the initial data reaches the stepper's first
    # solve; either one makes the Picard update non-finite
    g = Grid1D(20.0, 201)
    for bad in (np.nan, np.inf):
        u0 = bump_field(g)
        u0.values[g.n // 2] = bad
        with pytest.raises(SolverError, match="non-finite"), np.errstate(invalid="ignore"):
            solve(u0, SolverConfig(dt=0.05, T=0.5), BoundaryData())


def _start_reference(u, prev):
    """The polynomial in time through u^n and prev = (u^{n-1}, ..., u^{n-k}) at t^{n+1},
    from its Lagrange weights on the times 0, -1, ..., -k at 1: integers, so exact in
    floating point; summed most recent first."""
    k = len(prev)
    w = [float(prod(Fraction(1 + m, m - j) for m in range(k + 1) if m != j))
         for j in range(k + 1)]
    uk = w[0] * u
    for c, p in zip(w[1:], prev):
        uk = uk + c * p
    return uk


def _order_reference(states, tol):
    """The start's order from states = (u^n, u^{n-1}, ..., u^{n-7}): with e_k the largest
    |(k + 1)-th difference| at u^n, the lowest k in 3..6 with e_k <= tol, else the k
    of the least e_k when e_3 > 1e4*tol, else 3."""
    oldest_first = np.array(states[::-1])
    errs = [np.max(np.abs(np.diff(oldest_first, n=k + 1, axis=0)[-1])) for k in range(3, 7)]
    within = [k for k, e in zip(range(3, 7), errs) if e <= tol]
    if within:
        return within[0]
    return 3 + int(np.argmin(errs)) if errs[0] > 1e4 * tol else 3


def _advance_reference(field, cfg, bd, sys_, prev=(), expl=None):
    """The stepper's Picard loop written out with the midpoint flux's own 0.5 and
    dt scalings. The first iterate is the polynomial in time through u^n and
    prev = (u^{n-1}, u^{n-2}, ...), as many as are given, at t^{n+1}; expl is
    u^n - (1 - theta)*dt*D3 u^n, from a D3 product when not given. Returns
    (new field, final update norm, estimated distance left, sweeps, stop test
    passed, the new state's expl): off the pinned rows the last solve gives
    theta*dt*D3 u^{n+1} = b - u^{n+1}, with b kept by a copy."""
    u, tn = field.values, field.t + cfg.dt
    if expl is None:
        expl = u - (cfg.dt * (1.0 - cfg.theta)) * (sys_.D3 @ u)
    b_left = float(bd.f(tn))
    tol = cfg.picard_tol * (1.0 + float(np.max(np.abs(u))))
    uk = _start_reference(u, prev)
    deltas, ok = [np.inf], False
    for sweeps in range(1, cfg.picard_max + 1):
        um = 0.5 * (u + uk)
        b = expl - cfg.dt * (sys_.D1 @ (um * um))
        b[0], b[-2], b[-1] = b_left, 0.0, 0.0
        unew = sys_.lu.solve(b.copy())
        deltas.append(float(np.max(np.abs(unew - uk))))
        uk = unew
        rate = deltas[-1] / deltas[-2]
        if deltas[-1] <= tol or (sweeps >= 2 and rate < 1.0
                                 and rate * deltas[-1] <= (1.0 - rate) * tol):
            ok = True
            break
    if sweeps == 1:
        dist = deltas[-1]
    else:
        dist = rate / (1.0 - rate) * deltas[-1] if rate < 1.0 else np.inf
    uk[0], uk[-2], uk[-1] = b_left, 0.0, 0.0
    c = (1.0 - cfg.theta) / cfg.theta
    return Field(field.grid, uk, tn), deltas[-1], dist, sweeps, ok, (1.0 + c) * uk - c * b


def _march_reference(u0, cfg, bd, extrapolate=True):
    """March the reference step, from u^n on every step unless extrapolate; returns
    (final field, [(final update, distance, sweeps, stop flag, state values, start
    order)] per step).  Each step takes the explicit part the step before carried.
    Step k starts from the order-(k - 1) polynomial up to step 4,
    then from the cubic, whose order _order_reference re-chooses on step 16 and every
    128th step after it when the eight steps before stopped within the cap (step 0,
    the initial state, counts as stopped)."""
    sys_ = _System(u0.grid, cfg.dt, cfg.theta)  # factorization is deterministic: solve's bits
    state, prev, steps, order, expl = u0, [], [], 3, None
    for k in range(1, cfg.nsteps + 1):
        un = state.values
        if k % 128 == 16 and all(step[3] for step in steps[k - 9:]):
            order = _order_reference([un, *prev],
                                     cfg.picard_tol * (1.0 + float(np.max(np.abs(un)))))
        start = tuple(prev[:order]) if extrapolate else ()
        state, upd, dist, nsw, ok, expl = _advance_reference(state, cfg, bd, sys_, start, expl)
        state.t, prev = k * cfg.dt, [un] + prev[:6]
        steps.append((upd, dist, nsw, ok, state.values.copy(), len(start)))
    return state, steps


@pytest.mark.parametrize("amplitude,dt,picard_max", [(50.0, 1e-4, 12), (0.8, 0.02, 4)],
                         ids=["converges", "capped"])
def test_picard_stop_bound_keeps_every_decision(amplitude, dt, picard_max, kept):
    # the stepper folds the flux's 0.5 and dt into one dt/4, starts from the
    # extrapolant of the order it chooses from its own backward differences and stops
    # on the estimated distance to the fixed point; every state, final update,
    # distance, sweep count and stop flag must match the reference bit for bit. At
    # amplitude 50 max|u| sets the tolerance
    g = Grid1D(20.0, 401)
    cfg = SolverConfig(dt=dt, T=20 * dt, picard_max=picard_max)
    u0, bd, states = bump_field(g, amplitude, center=8.0), BoundaryData(), kept()
    traj = solve(u0, cfg, bd, observers=[states])
    _, steps = _march_reference(u0, cfg, bd)
    for k, (upd, dist, nsw, ok, values, _) in enumerate(steps, start=1):
        assert upd == traj.picard_updates[k]
        assert dist == traj.picard_distances[k]
        assert nsw == traj.picard_sweeps[k]
        assert ok == traj.picard_converged[k]
        assert np.array_equal(values, states[k].values)
    # the first case stops before the cap on every step, the second at it
    sweeps = set(traj.picard_sweeps[1:].tolist())
    assert max(sweeps) < picard_max if amplitude > 1.0 else sweeps == {picard_max}
    converged = traj.picard_converged[1:]
    assert converged.all() if amplitude > 1.0 else not converged.any()
    # the first case re-chooses a higher order on step 16; the second never may, as
    # every step before it ends at the cap
    orders = [step[5] for step in steps]
    assert orders[:15] == [0, 1, 2] + [3] * 12
    assert min(orders[15:]) > 3 if amplitude > 1.0 else orders[15:] == [3] * 5


def test_capped_steps_are_recorded():
    g = Grid1D(20.0, 401)
    cfg = SolverConfig(dt=0.01, T=0.2, picard_max=2)
    traj = solve(bump_field(g), cfg, BoundaryData())
    assert traj.picard_sweeps[0] == 0 and np.all(traj.picard_sweeps[1:] == 2)
    assert not traj.picard_converged[1:].any()
    assert float(np.max(traj.picard_updates)) > cfg.picard_tol


def test_rate_test_never_stops_on_a_single_update():
    # every first update here exceeds the tolerance, so the rate/(1 - rate)
    # estimate needs a second update before it may stop the iteration
    g = Grid1D(20.0, 401)
    traj = solve(bump_field(g, center=8.0), SolverConfig(dt=0.01, T=0.3, picard_max=12),
                 BoundaryData())
    assert traj.picard_converged.all()
    assert np.all(traj.picard_sweeps[1:] >= 2)


def _start_orders(monkeypatch, run):
    """The start's order on each step of the solves run() makes: the number of earlier
    states solve hands _advance."""
    orders, advance = [], solver._advance

    def spy(field, cfg, f_left, sys_, history=(), expl=None):
        orders.append(len(history))
        return advance(field, cfg, f_left, sys_, history, expl)

    with monkeypatch.context() as m:
        m.setattr(solver, "_advance", spy)
        run()
    return orders


def test_start_is_the_newton_extrapolant_of_the_chosen_order(monkeypatch):
    # the order-k start reproduces a state sequence of degree k in time to rounding,
    # and misses one of degree k + 1, for k = 0..6
    coef = np.random.default_rng(0).standard_normal((8, 50))

    def states(degree):  # u at t = 0, 0.1, ..., 0.7, most recent first
        return [sum(c * t**j for j, c in enumerate(coef[:degree + 1]))
                for t in 0.1 * np.arange(7, -1, -1)]

    for k in range(7):
        u = states(k)
        scale = np.max(np.abs(u[0]))
        start = _extrapolate(u[1], tuple(u[2:2 + k]), np.empty(50))
        assert np.max(np.abs(start - u[0])) <= 1e-14 * scale
        u = states(k + 1)
        start = _extrapolate(u[1], tuple(u[2:2 + k]), np.empty(50))
        assert np.max(np.abs(start - u[0])) > 1e-6 * scale
    # steps 1-4 start from orders 0-3 and later ones from the cubic until the first
    # choice on step 16; on the soliton recipe's grid it chooses a higher order, and
    # no step's order ever falls below 3
    u0, bd, scfg = _soliton_start(150)
    orders = _start_orders(monkeypatch, lambda: solve(u0, scfg, bd))
    assert orders[:15] == [0, 1, 2] + [3] * 12
    assert min(orders[15:]) > 3 and max(orders) <= 6
    assert {k for k in range(5, 151) if orders[k - 1] != orders[k - 2]} <= {16, 144}


@pytest.mark.parametrize("grads,order", [
    ((0.5, 1, 1, 1), 3),            # the cubic is within tol: it stays
    ((16, 0.5, 0.25, 0.5), 4),      # the lowest order within tol
    ((2048, 8, 4, 8), 3),           # none within tol, the cubic's error under 1e4*tol
    ((16384, 8, 2, 4), 5),          # the cubic's error above 1e4*tol: the least error
    ((16384, 32768, 65536, 131072), 3),  # errors growing with the order: the cubic
])
def test_order_choice_rule(grads, order):
    # states built from chosen backward differences at u^n, by Newton's formula
    # u^{n-j} = sum_m (-1)^m C(j, m) grad^m u^n; every value is dyadic, so each
    # difference the choice takes is exact and e_k = |grad^{k+1} u^n| with tol = 1
    v = np.array([1.0, -0.5, 0.25])
    grad = [1.0, 0.5, 0.25, 0.125, *grads]
    states = [sum((-1) ** m * comb(j, m) * g * v for m, g in enumerate(grad))
              for j in range(8)]
    assert solver._order(states[0], tuple(states[1:]), 1.0) == order


def test_kink_profile_keeps_the_cubic_on_every_step(monkeypatch):
    # l1_full_time's kink profile is rough in time: its higher differences grow with
    # the order, so every choice, at every level, keeps the cubic
    from kdvhl.experiments import run_propagation

    choices, order = [], solver._order

    def spy(*args):
        choices.append(order(*args))
        return choices[-1]

    monkeypatch.setattr(solver, "_order", spy)
    orders = _start_orders(monkeypatch,
                           lambda: run_propagation(resolve_config("l1_full_time")))
    assert len(choices) >= 5 and set(choices) == {3}
    assert max(orders) == 3


def test_noise_floor_lets_the_order_rise_past_the_cubic(monkeypatch):
    # a smooth unforced bump at dt/h^3 = 6400: once start-up has passed, the order-5
    # start's error is within tol (e_5 reads 0.2-0.5 tol on steps 272 and 400). A fresh
    # explicit D3 product on every step adds rounding unrelated to the step before, and
    # that noise doubles with each difference: e_5 read 1.6-1.7 tol and the cubic was kept
    choices, order = [], solver._order

    def spy(*args):
        choices.append(order(*args))
        return choices[-1]

    monkeypatch.setattr(solver, "_order", spy)
    g, dt = Grid1D(8.0, 1281), 0.0015625
    assert dt / g.h**3 >= 1e3
    solve(bump_field(g, 1.0, center=3.0, width=0.6), SolverConfig(dt=dt, T=410 * dt),
          BoundaryData())
    assert len(choices) == 4  # steps 16, 144, 272 and 400
    assert min(choices[2:]) > 3


@pytest.mark.parametrize("theta", [0.5, 0.6])
def test_carried_explicit_part_matches_the_d3_product(theta):
    # off the pinned rows the last solve gives theta*dt*D3 u^{n+1} = b - u^{n+1}, so the
    # part a step carries equals u - (1 - theta)*dt*D3 u to rounding: within
    # eps*(1 + dt*|D3|_inf)*max|u|, the scale of the product's own rounding (the worst
    # of these five steps, on the dissipation recipe's h and dt, reads 0.03 of it)
    g, dt = Grid1D(8.0, 1281), 0.0015625
    cfg = SolverConfig(dt=dt, T=dt, theta=theta)
    sys_ = _System(g, dt, theta)
    D3 = csr_matrix(deriv_matrix(g, 3), shape=(g.n, g.n))
    scale = np.finfo(float).eps * (1.0 + dt * np.max(abs(D3).sum(axis=1)))
    state, expl = bump_field(g, 1.0, center=3.0, width=0.6), None
    for _ in range(5):
        state, *_, expl = solver._advance(state, cfg, 0.0, sys_, (), expl)
        u = state.values
        want = u - (dt * (1.0 - theta)) * (D3 @ u)
        assert np.max(np.abs(expl - want)[1:-2]) <= scale * np.max(np.abs(u))


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_theta_ends_keep_the_d3_product_route_bit_for_bit(theta, kept):
    # at theta = 0, A = I, so the last solve's b holds no D3 u: nothing is carried and
    # every step forms its D3 product; at theta = 1 the carried part is u^{n+1} itself.
    # Either way solve's states are the bits of a march that forms the product anew
    g = Grid1D(20.0, 201)
    cfg = SolverConfig(dt=0.001, T=0.012, theta=theta)
    u0, bd, states = bump_field(g), BoundaryData(), kept()
    solve(u0, cfg, bd, observers=[states])
    sys_ = _System(g, cfg.dt, theta)
    state, history = u0, ()
    for k in range(1, 13):
        un = state.values
        state, *_, carried = solver._advance(state, cfg, float(bd.f(state.t + cfg.dt)), sys_,
                                             history[:3])
        if theta == 0.0:
            assert carried is None
        else:
            assert carried.tobytes() == state.values.tobytes()
        state.t, history = k * cfg.dt, (un,) + history[:6]
        assert state.values.tobytes() == states[k].values.tobytes()


def _soliton_start(steps):
    cfg = resolve_config("soliton")
    _, u0, bd, _, _ = scenario(cfg)
    return u0, bd, SolverConfig(dt=cfg.dt, T=steps * cfg.dt)


def test_extrapolated_start_is_closer_to_the_fixed_point():
    # soliton recipe grid, 100 steps, at the default cap of 4 sweeps: the
    # stepper against the reference started from u^n on every step
    u0, bd, scfg = _soliton_start(100)
    capped = solve(u0, scfg, bd).final.values
    old_start, _ = _march_reference(u0, scfg, bd, extrapolate=False)
    converged = solve(u0, SolverConfig(dt=scfg.dt, T=scfg.T, picard_tol=1e-14, picard_max=60),
                      bd).final.values
    assert np.max(np.abs(old_start.values - converged)) >= 10.0 * np.max(np.abs(capped - converged))


def test_cubic_start_converges_on_the_soliton_grid():
    # soliton recipe grid, 100 steps, at the default cap of 4 sweeps: every
    # step ends at the cap when started from u^n or from 2u^n - u^{n-1}
    u0, bd, scfg = _soliton_start(100)
    traj = solve(u0, scfg, bd)
    assert int(np.sum(~traj.picard_converged)) <= 10


def _csc_arrays(A):
    """The (data, indices, indptr) arrays of a scipy CSC matrix, as splu takes them."""
    return A.data, A.indices, A.indptr


def _independent_system(n, L, dt, theta):
    """A = I + theta*dt*D3 with rows 0, n-2, n-1 pinned, assembled apart from _System:
    the pinned rows of theta*dt*D3 zeroed by a diagonal scaling, then the identity added."""
    keep = np.ones(n)
    keep[[0, -2, -1]] = 0.0
    D3 = csr_matrix(deriv_matrix(Grid1D(L, n), 3), shape=(n, n))
    return (sp_diags(keep) @ ((theta * dt) * D3) + sp_identity(n)).tocsc()


def _band_cases():
    """(n, L, dt, theta) of every grid a bundled recipe steps on, plus both
    ends of theta and a step far beyond dt ~ h."""
    cases = {(801, 40.0, 0.0125, 0.0), (801, 40.0, 0.0125, 1.0), (801, 40.0, 10.0, 0.5)}
    for name in available_recipes():
        cfg = resolve_config(name)
        # simulate and oracle-compare solve on the recipe's own grid only
        for _ in range(cfg.levels if cfg.experiment in _LEVELED else 1):
            cases.add((cfg.n, cfg.L, cfg.dt, cfg.theta))
            cfg = refine(cfg)
    return sorted(cases)


@pytest.mark.parametrize("n,L,dt,theta", _band_cases())
def test_band_solve_matches_pivoted_lu(n, L, dt, theta):
    g = Grid1D(L, n)
    A = _independent_system(n, L, dt, theta)
    b = np.random.default_rng(n).standard_normal(n)
    ref = superlu(A).solve(b)
    got = _System(g, dt, theta).lu.solve(b.copy())
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert np.max(np.abs(A @ got - b)) <= 10.0 * np.max(np.abs(A @ ref - b))


def _band_of(F, k, upper):
    """A triangular scipy factor in LAPACK band storage of bandwidth k, read from its
    COO entries: U[k + i - j, j] = U_ij above the diagonal, L[i - j, j] = L_ij below."""
    F = F.tocoo()
    off = F.col - F.row if upper else F.row - F.col
    assert off.min() >= 0 and off.max() == k
    B = np.zeros((k + 1, F.shape[1]), order="F")
    B[k - off if upper else off, F.col] = F.data
    return B


@pytest.mark.parametrize("n,L,dt,theta", _band_cases())
def test_band_factors_equal_scipy_splu_bit_for_bit(n, L, dt, theta):
    # _System's own assembly and gstrf call against scipy's public splu with the
    # same pivot-free options on an independently assembled A: the factors, and so
    # every solve, are the same bits
    A = _independent_system(n, L, dt, theta)
    ref = superlu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    for lu in (_System(Grid1D(L, n), dt, theta).lu, splu(_csc_arrays(A))):
        assert _band_of(ref.L, lu.kl, False).tobytes() == lu.L.tobytes()
        assert _band_of(ref.U, lu.ku, True).tobytes() == lu.U.tobytes()


@pytest.mark.parametrize("n,L,dt,theta", _band_cases())
def test_unit_upper_factor_is_u_scaled_by_its_pivot_reciprocals(n, L, dt, theta):
    lu = _System(Grid1D(L, n), dt, theta).lu
    ku = lu.ku
    assert lu.rdiag.tobytes() == (1.0 / lu.U[ku]).tobytes()
    assert np.all(lu.U1[ku] == 1.0)
    for k in range(ku):  # band row k holds U_ij, i = j + k - ku, for j >= ku - k
        j = np.arange(ku - k, n)
        assert lu.U1[k, j].tobytes() == (lu.U[k, j] * lu.rdiag[j + k - ku]).tobytes()


@pytest.mark.parametrize("case", ["interchange", "growth", "subnormal"])
def test_band_factor_rejects_systems_that_need_pivoting(case):
    # tridiagonal and nonsingular either way: a zero corner forces a row interchange,
    # a tiny one makes max|U| / max|A| about 1e8.  A diagonal pivot of 1e-310 is
    # subnormal, so its reciprocal overflows to inf
    if case == "subnormal":
        M = np.diag([1.0, 1.0, 1e-310, 1.0])
    else:
        M = sp_diags([np.ones(7), np.full(8, 2.0), np.ones(7)], [-1, 0, 1]).toarray()
        M[0, 0] = 0.0 if case == "interchange" else 1e-8
        assert abs(np.linalg.det(M)) > 0.1
    with pytest.raises(SolverError, match="needs pivoting"):
        splu(_csc_arrays(csc_matrix(M)))


@pytest.mark.parametrize("which", ["f", "fprime"])
def test_nonfinite_boundary_data_rejected(which):
    # "f": NaN from t = 0.05 on.  "fprime": sin(1e300 t) is finite on the real axis,
    # but its complex step Im sin(1e300 (t + ih)) = cos(1e300 t) sinh(1e270) overflows
    def nan_late(t):
        return 0.0 * t if np.real(t) < 0.05 else np.nan * t

    def fast(t):
        return np.sin(1e300 * t)

    if which == "fprime":
        assert np.all(np.isfinite(fast(np.linspace(0.0, 0.5, 9))))
    bd = BoundaryData(f=nan_late if which == "f" else fast)
    with pytest.raises(ValueError, match="not finite"):
        bd.validate(0.5)
    with pytest.raises(ValueError, match="not finite"):
        solve(Field(Grid1D(20.0, 201), np.zeros(201), 0.0), SolverConfig(dt=0.05, T=0.5), bd)


def test_forcing_is_reused_across_steps_bit_for_bit(kept, monkeypatch):
    # one step's F(x, t^{n+1}) serves the next step as F(x, t^n) when the pinned
    # clock n*dt equals t^{n-1} + dt exactly; the states equal a march that
    # evaluates the forcing twice on every step
    from kdvhl.oracle import decaying_hump

    u_e, forcing_e = decaying_hump(1.0, 8.0, 2.0)
    calls = []

    def forcing(x, t):
        calls.append(t)
        return forcing_e(x, t)

    g = Grid1D(30.0, 201)
    dt, nsteps = 0.0125, 40
    cfg = SolverConfig(dt=dt, T=nsteps * dt, forcing=forcing)
    bd = BoundaryData(f=lambda t: u_e(0.0, t))
    states = kept()
    orders = _start_orders(monkeypatch, lambda: solve(Field(g, u_e(g.nodes, 0.0), 0.0), cfg,
                                                      bd, observers=[states]))
    misses = sum((k - 1) * dt != (k - 2) * dt + dt for k in range(2, nsteps + 1))
    assert 0 < misses < nsteps // 2  # both branches of the reuse run
    assert len(calls) == nsteps + 1 + misses

    # each step of the reference march starts from the order solve chose for it,
    # some of them above the cubic
    assert max(orders) > 3
    sys_ = _System(g, dt, 0.5)
    state, history, expl = Field(g, u_e(g.nodes, 0.0), 0.0), (), None
    for k in range(1, nsteps + 1):
        un = state.values
        state, *_, expl = solver._advance(state, cfg, float(bd.f(state.t + dt)), sys_,
                                          history[:orders[k - 1]], expl)
        state.t, history = k * dt, (un,) + history[:6]
        assert np.array_equal(state.values, states[k].values)


@pytest.mark.parametrize("recipe,changes", [
    ("dissipation", {}),                 # the default zero boundary
    ("soliton", {}),                     # auto: the soliton's exact wall value
    ("mms", {}),                         # auto: the manufactured solution's
    ("trace_gain", {}),                  # gaussian-pulse
    ("trace_gain", dict(boundary_kind="ramped-cosine")),
    ("oracle", {}),                      # the whole-line march's Hermite inflow
])
def test_each_step_gets_its_boundary_value_bit_for_bit(monkeypatch, recipe, changes):
    # solve evaluates f once, on every step's t^{n+1} as one array; step k must get the
    # bits of f at its own field.t + dt, the pinned (k - 1)*dt plus dt, alone
    cfg = resolve_config(recipe)
    cfg = replace(cfg, T=40 * cfg.dt, **changes)
    if cfg.experiment == "oracle-compare":
        (u0, bd, _), forcing = _oracle_reference(cfg, Grid1D(cfg.L, cfg.n), ()), None
    else:
        _, u0, bd, forcing, _ = scenario(cfg)
    got, advance = [], solver._advance

    def spy(field, cfg, f_left, sys_, history=(), expl=None):
        got.append((field.t, f_left))
        return advance(field, cfg, f_left, sys_, history, expl)

    monkeypatch.setattr(solver, "_advance", spy)
    solve(u0, solver_config(cfg, forcing), bd)
    assert len(got) == 40
    for k, (t, f_left) in enumerate(got, start=1):
        want = float(bd.f((k - 1) * cfg.dt + cfg.dt))
        assert t == (k - 1) * cfg.dt
        assert np.float64(f_left).tobytes() == np.float64(want).tobytes()
    assert any(f_left != 0.0 for _, f_left in got) == (recipe != "dissipation")


def test_kdv_scaling_covariance_bit_for_bit():
    # v(x, t) = 4 u(2x, 8t) solves u_t + u_xxx + (u^2)_x = 0 when u does, and half
    # the h with dt/8 maps the scheme onto itself by powers of two, so the scaled
    # run is 4x the first to the last bit; the Picard cap is pinned, because the
    # stop rule's tolerance does not scale with the solution
    bump = gaussian_bump(1.0, 10.0, 1.5)
    g = Grid1D(40.0, 801)
    u = solve(Field(g, bump(g.nodes), 0.0),
              SolverConfig(dt=0.0125, T=1.0, picard_tol=1e-300, picard_max=3),
              BoundaryData())
    g = Grid1D(20.0, 801)
    v = solve(Field(g, 4.0 * bump(2.0 * g.nodes), 0.0),
              SolverConfig(dt=0.0125 / 8, T=1.0 / 8, picard_tol=1e-300, picard_max=3),
              BoundaryData())
    assert np.array_equal(v.final.values, 4.0 * u.final.values)
    assert np.array_equal(v.picard_sweeps, u.picard_sweeps)
