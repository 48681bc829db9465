"""Data families: kink construction, boundary pulses, solitary waves."""

from dataclasses import replace

import numpy as np
import pytest

from kdvhl.cli import resolve_config
from kdvhl.datagen import (
    ResolutionWarning,
    gaussian_bump,
    gaussian_pulse,
    kink_data,
    ramped_cosine,
    soliton_data,
    soliton_solution,
)
from kdvhl.discretization import Grid1D, deriv_matrix, integrate
from kdvhl.experiments import scenario
from kdvhl.solver import BoundaryData


def test_kink_data_validation():
    g = Grid1D(40.0, 801)
    with pytest.raises(ValueError, match="m must be >= 1"):
        kink_data(0, 1.5, 1.0, 1.0, 2.0, g)
    with pytest.raises(ValueError, match="inside the envelope"):
        kink_data(1, 2.5, 1.0, 1.0, 2.0, g)


def test_kink_profile_support():
    g = Grid1D(40.0, 1601)
    x1, env_hi = 1.9, 2.2
    u0 = kink_data(1, x1, 1.0, 1.0, env_hi, g)
    x = g.nodes
    assert np.all(u0.values[x <= x1] == 0.0)
    assert np.all(u0.values[x >= env_hi] == 0.0)
    inside = (x > x1 + 0.05) & (x < env_hi - 0.05)
    assert np.all(u0.values[inside] > 0.0)


def test_kink_base_profile_added():
    g = Grid1D(40.0, 801)
    base = gaussian_bump(0.3, 6.0, 1.2)
    u0 = kink_data(1, 1.9, 1.0, 1.0, 2.2, g, base)
    i = np.argmin(np.abs(g.nodes - 6.0))
    assert u0.values[i] == pytest.approx(0.3, rel=1e-6)


def test_kink_second_derivative_diverges_under_refinement():
    vals = []
    for n in (801, 1601):
        g = Grid1D(40.0, n)
        u0 = kink_data(1, 1.9, 1.0, 1.0, 2.2, g)
        vals.append(integrate((deriv_matrix(g, 2) @ u0.values) ** 2, g))
    assert vals[1] / vals[0] >= 1.5


def test_kink_smooth_power_two_stays_bounded():
    # m = 2 puts the corner one derivative deeper: the second-derivative
    # energy converges, so its growth factors fall toward 1 under halving
    # while the m = 1 factors stay pinned near 2 (the 1/h divergence)
    vals = []
    for n in (801, 1601, 3201):
        g = Grid1D(40.0, n)
        u0 = kink_data(2, 1.9, 1.0, 1.0, 2.2, g)
        vals.append(integrate((deriv_matrix(g, 2) @ u0.values) ** 2, g))
    ratios = [vals[1] / vals[0], vals[2] / vals[1]]
    assert ratios[1] < ratios[0]
    assert ratios[1] <= 1.3


def test_kink_warns_on_coarse_grid():
    with pytest.warns(ResolutionWarning):
        kink_data(1, 1.5, 1.0, 1.0, 2.0, Grid1D(40.0, 41))


def test_gaussian_bump_formula():
    f = gaussian_bump(2.0, 5.0, 1.5)
    assert f(5.0) == pytest.approx(2.0)
    assert f(6.5) == pytest.approx(2.0 * np.exp(-1.0))
    assert f(np.array([5.0, 6.5])).shape == (2,)


def test_boundary_pulse_zero():
    # the default boundary is f = 0
    bd = BoundaryData()
    assert bd.f(0.7) == 0.0
    assert bd.fprime(1.3) == 0.0


@pytest.mark.parametrize("kind,params", [
    ("gaussian-pulse", dict(A=0.5, t_c=0.6, w=0.25)),
    ("ramped-cosine", dict(A=0.4, omega=3.0, ramp=0.5)),
])
def test_boundary_pulse_consistency(kind, params):
    factory = {"gaussian-pulse": gaussian_pulse, "ramped-cosine": ramped_cosine}[kind]
    bd = BoundaryData(f=factory(**params))
    assert bd.f(0.0) == pytest.approx(0.0, abs=1e-14)
    h = 1e-6
    for t in (0.2, 0.6, 1.1, 1.9):
        fd = (bd.f(t + h) - bd.f(t - h)) / (2.0 * h)
        assert bd.fprime(t) == pytest.approx(fd, abs=1e-6)
    bd.validate(2.0)


def _gaussian_pulse_slope(t, A=0.5, t_c=0.6, w=0.25):
    z = (t - t_c) / w
    return A * (2.0 * t - 2.0 * t * t * z / w) * np.exp(-z * z)


def _ramped_cosine_slope(t, A=0.4, om=3.0, r=0.5):
    d = t * t + r * r
    return A * (2.0 * t * r * r / (d * d) * np.cos(om * t) - t * t / d * om * np.sin(om * t))


def _soliton_slope(t, c=1.0, x_c=8.0):
    # d/dt (3c/2) sech^2(z) with z = sqrt(c)/2 (-c t - x_c), dz/dt = -c^(3/2)/2
    z = 0.5 * np.sqrt(c) * (-c * t - x_c)
    return 1.5 * c * np.tanh(z) * c * np.sqrt(c) / np.cosh(z) ** 2


@pytest.mark.parametrize("bd,slope", [
    (BoundaryData(), lambda t: 0.0 * t),
    (BoundaryData(f=gaussian_pulse(A=0.5, t_c=0.6, w=0.25)), _gaussian_pulse_slope),
    (BoundaryData(f=ramped_cosine(A=0.4, omega=3.0, ramp=0.5)), _ramped_cosine_slope),
    (BoundaryData(f=lambda t: soliton_solution(1.0, 8.0)(0.0, t)), _soliton_slope),
], ids=["zero", "gaussian-pulse", "ramped-cosine", "soliton"])
def test_fprime_is_the_exact_derivative(bd, slope):
    # the complex step of f against the closed-form derivative at 401 times, to a
    # few ulps of the series' largest slope; the zero family's is exactly 0
    ts = np.linspace(0.0, 2.0, 401)
    fp = np.array([bd.fprime(t) for t in ts])
    ref = slope(ts)
    assert np.max(np.abs(fp - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


def test_soliton_solution_shape():
    u = soliton_solution(1.0, 10.0)
    x = np.linspace(0.0, 40.0, 4001)
    assert np.max(u(x, 0.0)) == pytest.approx(1.5, rel=1e-6)
    # crest moves with speed c
    assert x[np.argmax(u(x, 4.0))] == pytest.approx(14.0, abs=0.02)


def test_soliton_speed_must_be_positive():
    with pytest.raises(ValueError):
        soliton_solution(0.0, 5.0)


def test_soliton_data_warns_on_visible_tail():
    with pytest.warns(ResolutionWarning):
        soliton_data(1.0, 7.0, Grid1D(14.0, 201))


def test_soliton_data_quiet_when_localized():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        soliton_data(1.0, 30.0, Grid1D(60.0, 601))


def _assert_wall(bd, f, keys, T):
    # bd.f and its complex-step f' equal f and f's complex step bit for bit at 9
    # times in [0, T], with the keys that set f named for validate's refusals
    for t in np.linspace(0.0, T, 9):
        assert bd.f(t) == f(t)
        assert bd.fprime(t) == float(np.imag(f(t + 1e-30j))) / 1e-30
    assert bd.keys == keys
    bd.validate(T)


@pytest.mark.parametrize("recipe,keys", [
    ("soliton", ("data.c", "data.center")),
    ("mms", ("data.amplitude", "data.center", "data.width")),
])
def test_scenario_auto_boundary_is_the_exact_solution_at_the_wall(recipe, keys):
    # f(t) = exact(0, t)
    cfg = resolve_config(recipe)
    _, _, bd, _, exact = scenario(cfg)
    _assert_wall(bd, lambda t: exact(0.0, t), keys, cfg.T)


def _pulse_wall(t):  # trace_gain's boundary.A, boundary.t_c, boundary.w
    z = (t - 0.6) / 0.25
    return 0.5 * t * t * np.exp(-z * z)


def _cosine_wall(t):  # boundary.A, boundary.omega, boundary.ramp set below
    return 0.4 * (t * t / (t * t + 0.7 * 0.7)) * np.cos(2.5 * t)


@pytest.mark.parametrize("recipe,overrides,f,keys", [
    ("dissipation", {}, lambda t: 0.0, ()),
    ("dissipation", {"boundary_kind": "auto"}, lambda t: 0.0, ()),
    ("trace_gain", {}, _pulse_wall, ("boundary.A", "boundary.t_c", "boundary.w")),
    ("identity_l1", {"boundary_kind": "ramped-cosine", "boundary_omega": 2.5,
                     "boundary_ramp": 0.7},
     _cosine_wall, ("boundary.A", "boundary.omega", "boundary.ramp")),
], ids=["zero", "auto-on-bump", "gaussian-pulse", "ramped-cosine"])
def test_scenario_boundary_is_the_closed_form_at_the_wall(recipe, overrides, f, keys):
    # the boundary.kind families, and auto on data with no exact solution (f = 0),
    # with each boundary.* value in its slot of the closed form
    cfg = replace(resolve_config(recipe), **overrides)
    _, _, bd, _, exact = scenario(cfg)
    assert exact is None
    _assert_wall(bd, f, keys, cfg.T)
