"""Implicit stepper: boundary rows, energy behavior, failure modes."""

import numpy as np
import pytest
from scipy.sparse import csc_matrix, csr_matrix, diags as sp_diags, identity as sp_identity
from scipy.sparse.linalg import splu as superlu

from kdvhl.cli import _LEVELED, available_recipes, resolve_config
from kdvhl.config import ConfigError
from kdvhl.datagen import boundary_pulse, gaussian_bump
from kdvhl.diagnostics import TraceSeries
from kdvhl.discretization import Field, Grid1D, deriv_matrix, integrate
from kdvhl.experiments import refine, scenario
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
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, T=1.0, snapshot_stride=0)


def test_nsteps_requires_integer_multiple():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.3, T=1.0).nsteps
    assert SolverConfig(dt=0.25, T=1.0).nsteps == 4


def test_zero_data_stays_zero():
    g = Grid1D(20.0, 201)
    traces = TraceSeries(boundary_pulse("zero"))
    traj = solve(Field(g, np.zeros(g.n), 0.0), SolverConfig(dt=0.05, T=0.5),
                 boundary_pulse("zero"), observers=[traces])
    assert all(np.all(s.values == 0.0) for s in traj.snapshots)
    assert np.all(traces.d3 == 0.0)


def test_dirichlet_row_exact():
    g = Grid1D(20.0, 401)
    bd = boundary_pulse("gaussian-pulse", A=0.5, t_c=0.4, w=0.2)
    traj = solve(Field(g, np.zeros(g.n), 0.0), SolverConfig(dt=0.01, T=1.0), bd)
    fvals = np.array([bd.f(t) for t in traj.times])
    # snapshot_stride = 1 keeps every state
    assert np.max(np.abs(np.array([s.values[0] for s in traj.snapshots]) - fvals)) <= 1e-12


def test_right_wall_rows_pinned():
    g = Grid1D(20.0, 401)
    traj = solve(bump_field(g), SolverConfig(dt=0.01, T=0.5), boundary_pulse("zero"))
    # every computed step pins the far wall exactly; the stored initial
    # field keeps whatever tail the data carries
    for s in traj.snapshots[1:]:
        assert s.values[-1] == 0.0
        assert s.values[-2] == 0.0


def test_incompatible_corner_raises():
    # one check, in solve: a config error naming the mismatch and its 1e-10 tolerance
    g = Grid1D(20.0, 201)
    u0 = Field(g, np.full(g.n, 0.1), 0.0)
    with pytest.raises(ConfigError, match="incompatible") as err:
        solve(u0, SolverConfig(dt=0.1, T=0.5), boundary_pulse("zero"))
    msg = str(err.value)
    assert "corner" in msg and "1.000e-01" in msg and "1e-10" in msg and "\n" not in msg
    u0.values[0] = 1e-11  # within the tolerance
    solve(u0, SolverConfig(dt=0.1, T=0.5), boundary_pulse("zero"))


def test_inconsistent_boundary_pair_rejected():
    g = Grid1D(20.0, 201)
    bad = BoundaryData(f=lambda t: 0.1 * np.sin(t), fprime=lambda t: np.cos(t))
    with pytest.raises(ValueError, match="inconsistent"):
        solve(Field(g, np.zeros(g.n), 0.0), SolverConfig(dt=0.1, T=1.0), bad)


def test_trace_sampling_every_step():
    g = Grid1D(20.0, 201)
    traj = solve(bump_field(g), SolverConfig(dt=0.05, T=0.15), boundary_pulse("zero"))
    assert len(traj.times) == 4
    assert traj.times == pytest.approx([0.0, 0.05, 0.1, 0.15], abs=1e-15)


def test_snapshot_stride_keeps_endpoints():
    g = Grid1D(20.0, 201)
    cfg = SolverConfig(dt=0.05, T=0.5, snapshot_stride=7)
    traj = solve(bump_field(g), cfg, boundary_pulse("zero"))
    assert traj.snapshot_steps == [0, 7, 10]
    assert traj.snapshots[-1].t == pytest.approx(0.5)


def test_picard_divergence_raises():
    g = Grid1D(20.0, 201)
    u0 = Field(g, gaussian_bump(40.0, 10.0, 1.5)(g.nodes), 0.0)
    with pytest.raises(SolverError, match="diverging"):
        solve(u0, SolverConfig(dt=0.2, T=0.4, picard_max=6), boundary_pulse("zero"))


def test_picard_converges_fast_at_operating_point():
    g = Grid1D(20.0, 401)
    traj = solve(bump_field(g), SolverConfig(dt=0.01, T=0.5), boundary_pulse("zero"))
    assert float(np.max(traj.picard_updates)) <= 1e-6


def test_linear_step_is_energy_neutral_while_boundary_quiet():
    # theta = 1/2 with all three wall rows homogeneous: the discrete L2 norm
    # must not grow while nothing has reached the left boundary
    g = Grid1D(40.0, 801)
    u0 = Field(g, gaussian_bump(1.0, 30.0, 2.0)(g.nodes), 0.0)
    cfg = SolverConfig(dt=0.05, T=0.5, nonlinear=False)
    traces = TraceSeries(boundary_pulse("zero"))
    traj = solve(u0, cfg, boundary_pulse("zero"), observers=[traces])
    assert np.max(np.abs(traces.d1)) <= 1e-10  # boundary actually quiet
    E = np.array([integrate(s.values**2, g) for s in traj.snapshots])
    assert np.max(E[1:] / E[:-1]) <= 1.0 + 1e-10


def test_linear_growth_excess_vanishes_under_refinement():
    # once radiation reaches x = 0 the scheme sheds energy through the
    # boundary; any step-local excess above 1 must die out at least
    # quadratically under joint halving
    excess = []
    for n, dt in ((401, 0.1), (801, 0.05)):
        g = Grid1D(40.0, n)
        u0 = Field(g, gaussian_bump(1.0, 10.0, 2.0)(g.nodes), 0.0)
        traj = solve(u0, SolverConfig(dt=dt, T=3.0, nonlinear=False), boundary_pulse("zero"))
        E = np.array([integrate(s.values**2, g) for s in traj.snapshots])
        excess.append(max(np.max(E[1:] / E[:-1]) - 1.0, 1e-16))
    assert excess[1] <= excess[0] / 4.0


def test_backward_euler_decays():
    g = Grid1D(40.0, 401)
    u0 = Field(g, gaussian_bump(1.0, 20.0, 2.0)(g.nodes), 0.0)
    traj = solve(u0, SolverConfig(dt=0.05, T=0.5, theta=1.0, nonlinear=False),
                 boundary_pulse("zero"))
    E = np.array([integrate(s.values**2, g) for s in traj.snapshots])
    assert np.all(E[1:] <= E[:-1] * (1.0 + 1e-14))


def test_boundary_drain_dominates_unforced_energy_loss():
    # coarse-resolution audit of E(T) - E(0) = -1/2 int u_x(0,t)^2 dt;
    # the recipe-resolution version is covered by the acceptance gate
    from kdvhl.diagnostics import RunningDiagnostics, dissipation_audit
    from kdvhl.weights import CutoffSpec, WeightSpec

    g = Grid1D(40.0, 801)
    u0 = Field(g, gaussian_bump(1.0, 3.0, 0.6)(g.nodes), 0.0)
    rd = RunningDiagnostics(g, boundary_pulse("zero"), WeightSpec(CutoffSpec(0.4, 2.0), 1.0, 4.0))
    solve(u0, SolverConfig(dt=0.0125, T=2.0, snapshot_stride=160),
          boundary_pulse("zero"), observers=[rd])
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
            solve(u0, SolverConfig(dt=0.05, T=0.5), boundary_pulse("zero"))


def _advance_reference(field, cfg, bd, sys_, prev=()):
    """The stepper's Picard loop written out with the midpoint flux's own 0.5 and
    dt scalings. The first iterate is the polynomial in time through u^n and
    prev = (u^{n-1}, u^{n-2}, u^{n-3}), as many as are given, at t^{n+1}. Returns
    (new field, final update norm, estimated distance left, sweeps, stop test passed)."""
    u, tn = field.values, field.t + cfg.dt
    expl = u - (cfg.dt * (1.0 - cfg.theta)) * (sys_.D3 @ u)
    b_left = float(bd.f(tn))
    tol = cfg.picard_tol * (1.0 + float(np.max(np.abs(u))))
    if len(prev) == 3:
        uk = 4.0 * u - 6.0 * prev[0] + 4.0 * prev[1] - prev[2]
    elif len(prev) == 2:
        uk = 3.0 * u - 3.0 * prev[0] + prev[1]
    else:
        uk = 2.0 * u - prev[0] if prev else u
    deltas, ok = [np.inf], False
    for sweeps in range(1, cfg.picard_max + 1):
        um = 0.5 * (u + uk)
        b = expl - cfg.dt * (sys_.D1 @ (um * um))
        b[0], b[-2], b[-1] = b_left, 0.0, 0.0
        unew = sys_.lu.solve(b)
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
    return Field(field.grid, uk, tn), deltas[-1], dist, sweeps, ok


def _march_reference(u0, cfg, bd, extrapolate=True):
    """March the reference step, from u^n on every step unless extrapolate; returns
    (final field, [(final update, distance, sweeps, stop flag, state values)] per step)."""
    sys_ = _System(u0.grid, cfg.dt, cfg.theta)  # factorization is deterministic: solve's bits
    state, prev, steps = u0, [], []
    for k in range(1, cfg.nsteps + 1):
        un = state.values
        state, upd, dist, nsw, ok = _advance_reference(state, cfg, bd, sys_,
                                                       tuple(prev) if extrapolate else ())
        state.t, prev = k * cfg.dt, [un] + prev[:2]
        steps.append((upd, dist, nsw, ok, state.values.copy()))
    return state, steps


@pytest.mark.parametrize("amplitude,dt,picard_max", [(50.0, 1e-4, 12), (0.8, 0.02, 4)],
                         ids=["converges", "capped"])
def test_picard_stop_bound_keeps_every_decision(amplitude, dt, picard_max):
    # the stepper folds the flux's 0.5 and dt into one dt/4, starts from the cubic
    # through the last four states and stops on the estimated distance to the fixed
    # point; every state, final update, distance, sweep count and stop flag must
    # match the reference bit for bit. At amplitude 50 max|u| sets the tolerance
    g = Grid1D(20.0, 401)
    cfg = SolverConfig(dt=dt, T=20 * dt, picard_max=picard_max)
    u0, bd = bump_field(g, amplitude, center=8.0), boundary_pulse("zero")
    traj = solve(u0, cfg, bd)
    _, steps = _march_reference(u0, cfg, bd)
    for k, (upd, dist, nsw, ok, values) in enumerate(steps, start=1):
        assert upd == traj.picard_updates[k]
        assert dist == traj.picard_distances[k]
        assert nsw == traj.picard_sweeps[k]
        assert ok == traj.picard_converged[k]
        assert np.array_equal(values, traj.snapshots[k].values)
    # the first case stops before the cap on every step, the second at it
    sweeps = set(traj.picard_sweeps[1:].tolist())
    assert max(sweeps) < picard_max if amplitude > 1.0 else sweeps == {picard_max}
    converged = traj.picard_converged[1:]
    assert converged.all() if amplitude > 1.0 else not converged.any()


def test_capped_steps_are_recorded():
    g = Grid1D(20.0, 401)
    cfg = SolverConfig(dt=0.01, T=0.2, picard_max=2)
    traj = solve(bump_field(g), cfg, boundary_pulse("zero"))
    assert traj.picard_sweeps[0] == 0 and np.all(traj.picard_sweeps[1:] == 2)
    assert not traj.picard_converged[1:].any()
    assert float(np.max(traj.picard_updates)) > cfg.picard_tol


def test_rate_test_never_stops_on_a_single_update():
    # every first update here exceeds the tolerance, so the rate/(1 - rate)
    # estimate needs a second update before it may stop the iteration
    g = Grid1D(20.0, 401)
    traj = solve(bump_field(g, center=8.0), SolverConfig(dt=0.01, T=0.3, picard_max=12),
                 boundary_pulse("zero"))
    assert traj.picard_converged.all()
    assert np.all(traj.picard_sweeps[1:] >= 2)


def test_start_is_the_cubic_through_the_last_four_states(monkeypatch):
    # a state sequence cubic in time is extrapolated to rounding from four states,
    # and only from four; solve hands step k its k - 1 earlier states up to three
    coef = np.random.default_rng(0).standard_normal((4, 50))

    def states(degree):  # u at t = 0, 0.01, ..., 0.04, most recent first
        return [sum(c * t**j for j, c in enumerate(coef[:degree + 1]))
                for t in 0.01 * np.arange(4, -1, -1)]

    for m in range(4):
        u = states(m)
        got = _extrapolate(u[1], tuple(u[2:2 + m]))
        assert np.max(np.abs(got - u[0])) <= 1e-14 * np.max(np.abs(u[0]))
    u = states(3)
    assert np.max(np.abs(_extrapolate(u[1], tuple(u[2:4])) - u[0])) > 1e-8
    orders = []

    def spy(field, cfg, bd, sys_, history=()):
        orders.append(len(history))
        return advance(field, cfg, bd, sys_, history)

    advance = solver._advance
    monkeypatch.setattr(solver, "_advance", spy)
    g = Grid1D(20.0, 201)
    solve(bump_field(g), SolverConfig(dt=0.01, T=0.06), boundary_pulse("zero"))
    assert orders == [0, 1, 2, 3, 3, 3]


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


@pytest.mark.parametrize("corner", [0.0, 1e-8], ids=["interchange", "growth"])
def test_band_factor_rejects_systems_that_need_pivoting(corner):
    # tridiagonal and nonsingular either way; a zero corner forces a row
    # interchange, a tiny one makes max|U| / max|A| about 1e8
    M = sp_diags([np.ones(7), np.full(8, 2.0), np.ones(7)], [-1, 0, 1]).toarray()
    M[0, 0] = corner
    assert abs(np.linalg.det(M)) > 0.1
    with pytest.raises(SolverError, match="needs pivoting"):
        splu(_csc_arrays(csc_matrix(M)))


@pytest.mark.parametrize("which", ["f", "fprime"])
def test_nonfinite_boundary_data_rejected(which):
    # NaN from t = 0.05 on: max(worst, nan) would keep the running worst at 0
    def bad(t):
        return 0.0 if t < 0.05 else float("nan")

    def zero(t):
        return 0.0

    bd = BoundaryData(f=bad, fprime=zero) if which == "f" else BoundaryData(f=zero, fprime=bad)
    with pytest.raises(ValueError, match="not finite"):
        bd.validate(0.5)
    with pytest.raises(ValueError, match="not finite"):
        solve(Field(Grid1D(20.0, 201), np.zeros(201), 0.0), SolverConfig(dt=0.05, T=0.5), bd)


def test_forcing_is_reused_across_steps_bit_for_bit():
    # one step's F(x, t^{n+1}) serves the next step as F(x, t^n) when the pinned
    # clock n*dt equals t^{n-1} + dt exactly; the states equal a march that
    # evaluates the forcing twice on every step
    from kdvhl.oracle import decaying_hump

    ms = decaying_hump(1.0, 8.0, 2.0)
    calls = []

    def forcing(x, t):
        calls.append(t)
        return ms.forcing(x, t)

    g = Grid1D(30.0, 201)
    dt, nsteps = 0.0125, 40
    cfg = SolverConfig(dt=dt, T=nsteps * dt, forcing=forcing)
    traj = solve(ms.initial(g), cfg, ms.boundary())
    misses = sum((k - 1) * dt != (k - 2) * dt + dt for k in range(2, nsteps + 1))
    assert 0 < misses < nsteps // 2  # both branches of the reuse run
    assert len(calls) == nsteps + 1 + misses

    sys_ = _System(g, dt, 0.5)
    state, history = ms.initial(g), ()
    for k in range(1, nsteps + 1):
        un = state.values
        state = solver._advance(state, cfg, ms.boundary(), sys_, history)[0]
        state.t, history = k * dt, (un,) + history[:2]
        assert np.array_equal(state.values, traj.snapshots[k].values)
