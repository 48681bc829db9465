"""Window functionals and identity bookkeeping, online vs offline routes."""

import numpy as np
import pytest

from kdvhl.datagen import gaussian_bump
from kdvhl.diagnostics import (
    DiagnosticsConfig,
    RunningDiagnostics,
    _trace_d4,
    dissipation_audit,
    identity_residual,
    interpolation_check,
    kato_functional,
    maximal_functional,
    propagation_functional,
    smoothing_functional,
    stopping_time,
    strichartz_functional,
    trace_identity_residual,
    trace_integral,
)
from kdvhl.discretization import Field, Grid1D, integrate
from kdvhl.solver import SolverConfig, solve, zero_boundary
from kdvhl.weights import CutoffSpec, WeightSpec

WS = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=1.0, x0=4.0)


@pytest.fixture(scope="module")
def diag_run():
    """Short nonlinear run with the online accumulator attached."""
    grid = Grid1D(16.0, 161)
    u0 = Field(grid, gaussian_bump(0.8, 6.0, 1.0)(grid.nodes), 0.0)
    dcfg = DiagnosticsConfig(wspec=WS, l=2, identity_levels=(1, 2))
    rd = RunningDiagnostics(grid, zero_boundary(), dcfg)
    cfg = SolverConfig(dt=0.01, T=0.4, snapshot_stride=1)
    traj = solve(u0, cfg, zero_boundary(), observers=[rd])
    return traj, rd.finish(), dcfg


def test_stopping_time_branches():
    assert stopping_time(2.0, WS, 1) == 2.0
    ws_fast = WeightSpec(cutoff=CutoffSpec(0.5, 2.5), v=10.0, x0=1.0)
    assert stopping_time(2.0, ws_fast, 2) == pytest.approx(0.15)
    assert stopping_time(0.1, ws_fast, 2) == pytest.approx(0.1)  # T binds
    ws_still = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=0.0, x0=4.0)
    assert stopping_time(2.0, ws_still, 2) == 2.0


def test_diagnostics_config_validation():
    with pytest.raises(ValueError):
        DiagnosticsConfig(wspec=WS, l=4)
    with pytest.raises(ValueError):
        DiagnosticsConfig(wspec=WS, identity_levels=(3,))
    with pytest.raises(ValueError):
        DiagnosticsConfig(wspec=WS, R=0.1)
    with pytest.raises(ValueError):
        DiagnosticsConfig(wspec=WS, kato_orders=(4,))
    d = DiagnosticsConfig(wspec=WS)
    assert d.hard_window_R == WS.cutoff.b
    assert d.young_delta() == pytest.approx(0.05 / WS.sup_chi_prime**2)
    assert DiagnosticsConfig(wspec=WS, delta=0.01).young_delta() == 0.01


def test_online_J_matches_offline(diag_run):
    traj, fin, _ = diag_run
    for j, key in ((1, "J1"), (2, "J2")):
        times, vals = propagation_functional(traj, j, WS)
        assert np.max(np.abs(times - fin["times"])) == 0.0
        assert np.max(np.abs(vals - fin[key])) <= 1e-13


def test_online_smoothing_matches_offline(diag_run):
    traj, fin, dcfg = diag_run
    _, run_cp = smoothing_functional(traj, 1, WS, mode="chiprime")
    _, run_win = smoothing_functional(traj, 1, WS, mode="window", R=dcfg.hard_window_R)
    assert run_cp[-1] == pytest.approx(fin["K1_chiprime"][-1], rel=1e-12, abs=1e-15)
    assert run_win[-1] == pytest.approx(fin["K1_window"][-1], rel=1e-12, abs=1e-15)


def test_smoothing_chiprime_bounded_by_window(diag_run):
    traj, _, dcfg = diag_run
    _, run_cp = smoothing_functional(traj, 1, WS, mode="chiprime")
    _, run_win = smoothing_functional(traj, 1, WS, mode="window", R=WS.cutoff.b)
    bound = WS.sup_chi_prime * run_win[-1]
    assert run_cp[-1] <= bound * (1.0 + 1e-12)


def test_smoothing_mode_validation(diag_run):
    traj, _, _ = diag_run
    with pytest.raises(ValueError):
        smoothing_functional(traj, 1, WS, mode="soft")
    with pytest.raises(ValueError):
        smoothing_functional(traj, 1, WS, mode="window", R=0.1)
    with pytest.raises(ValueError):
        smoothing_functional(traj, 3, WS)


def test_online_sup_functionals_match_offline(diag_run):
    traj, fin, _ = diag_run
    for j in (1, 2):
        val, xarg = kato_functional(traj, j)
        assert fin["kato"][j][0] == pytest.approx(val, rel=1e-12)
        assert fin["kato"][j][1] == xarg
    assert strichartz_functional(traj) == pytest.approx(fin["strichartz"], rel=1e-12)
    assert maximal_functional(traj) == pytest.approx(fin["maximal"], rel=1e-12)


def test_online_identity_matches_offline(diag_run):
    traj, fin, _ = diag_run
    for lv in (1, 2):
        off = identity_residual(traj, lv, WS)
        on = fin["identity"][lv]
        assert np.max(np.abs(on.residual - off.residual)) <= 1e-12
        assert on.normalized == pytest.approx(off.normalized, rel=1e-9, abs=1e-15)


def test_identity_needs_dense_uniform_snapshots():
    grid = Grid1D(16.0, 161)
    u0 = Field(grid, gaussian_bump(0.8, 6.0, 1.0)(grid.nodes), 0.0)
    traj = solve(u0, SolverConfig(dt=0.01, T=0.05, snapshot_stride=5), zero_boundary())
    with pytest.raises(ValueError, match="3 snapshots"):
        identity_residual(traj, 1, WS)
    traj2 = solve(u0, SolverConfig(dt=0.01, T=0.07, snapshot_stride=3), zero_boundary())
    with pytest.raises(ValueError, match="uniformly spaced"):
        identity_residual(traj2, 1, WS)


def test_identity_rejects_unknown_level(diag_run):
    traj, _, _ = diag_run
    with pytest.raises(ValueError):
        identity_residual(traj, 3, WS)


def test_trace_integral_window_and_flags(diag_run):
    traj, _, _ = diag_run
    # default gain window [(b+x0)/v, T*]; here (2+4)/1 = 6 > T = 0.4
    ti = trace_integral(traj, 2, WS, j=1)
    assert ti.empty and ti.value == 0.0
    assert ti.t_start == pytest.approx(6.0)
    # explicit window on the data that exists
    ti2 = trace_integral(traj, 2, WS, window=(0.0, 0.4))
    assert not ti2.empty and ti2.value >= 0.0
    # motionless weight never opens a window
    ws0 = WeightSpec(cutoff=CutoffSpec(0.4, 2.0), v=0.0, x0=4.0)
    assert trace_integral(traj, 2, ws0).empty
    with pytest.raises(ValueError):
        trace_integral(traj, 0, WS)


def test_trace_integral_equation_route_zero_for_quiet_boundary(diag_run):
    traj, _, _ = diag_run
    # f = 0, F = 0 and u_x(0) ~ 0 make the equation-route third trace vanish
    ti = trace_integral(traj, 3, WS, window=(0.0, 0.4))
    assert ti.value <= 1e-20


def test_trace_identity_residual_zero_run():
    grid = Grid1D(16.0, 161)
    traj = solve(Field(grid, np.zeros(grid.n), 0.0), SolverConfig(dt=0.01, T=0.1),
                 zero_boundary())
    _, r, rms = trace_identity_residual(traj)
    assert rms == 0.0 and np.all(r == 0.0)


def test_interpolation_check_paths(diag_run):
    traj, _, _ = diag_run
    ic = interpolation_check(traj.final, WS)
    assert not ic.degenerate
    assert 0.0 < ic.ratio < 10.0
    zero = Field(traj.grid, np.zeros(traj.grid.n), 0.0)
    icz = interpolation_check(zero, WS)
    assert icz.degenerate and icz.ratio == 0.0


def test_dissipation_audit_consistency(diag_run):
    # the small domain lets dispersive radiation reach the wall, so the
    # drain is genuinely nonzero; the audit's bookkeeping must close on
    # itself and the two routes must agree to coarse-grid accuracy
    traj, _, _ = diag_run
    aud = dissipation_audit(traj)
    assert aud.dissipated == pytest.approx(aud.e_final - aud.e_initial, abs=1e-15)
    assert aud.discrepancy == pytest.approx(abs(aud.dissipated - aud.predicted), abs=1e-15)
    assert aud.predicted < 0.0 and aud.dissipated < 0.0
    assert aud.relative <= 0.15


def test_propagation_functional_rejects_high_order(diag_run):
    traj, _, _ = diag_run
    with pytest.raises(ValueError):
        propagation_functional(traj, 4, WS)


def test_maximal_dominates_initial_mass(diag_run):
    traj, _, _ = diag_run
    e0 = np.sqrt(integrate(traj.snapshots[0].values ** 2, traj.grid))
    assert maximal_functional(traj) >= e0 * (1.0 - 1e-12)


def test_trace_d4_exact_on_quintics():
    # two grid spacings in turn: a weight cache keyed on anything but h would
    # hand the second grid the first one's weights
    for L in (0.7, 2.59):
        g = Grid1D(L, 8)
        for deg in range(6):
            got = _trace_d4(Field(g, (g.nodes + 0.5) ** deg, 0.0))
            exact = 0.0 if deg < 4 else {4: 24.0, 5: 120.0 * 0.5}[deg]
            assert got == pytest.approx(exact, abs=1e-6 * max(1.0, exact)), (L, deg)
