"""Independent references: symbolic verification and the periodic solver."""

import tracemalloc

import numpy as np
import pytest
import sympy as sp

from kdvhl.config import ConfigError, parse_config
from kdvhl.datagen import gaussian_bump, soliton_solution
from kdvhl.discretization import Grid1D
from kdvhl.experiments import run_oracle_compare
from kdvhl.oracle import (
    ManufacturedSolution,
    PeriodicGrid,
    WindowProbe,
    decaying_hump,
    extract_halfline_data,
    spectral_restriction,
    wholeline_solve,
)


def _reference_march(u0, grid, T, cfl):
    """The integrating-factor RK4 on the full complex spectrum, every state kept.

    Independent of the streamed half-spectrum march: its own wavenumbers,
    explicit 2/3 masks on both sides of the flux, fft/ifft throughout.
    """
    speed = max(2.0 * float(np.max(np.abs(u0))), 1e-8)
    nsteps = max(1, int(np.ceil(T / (cfl * grid.dx / speed) - 1e-12)))
    dt = T / nsteps
    k = 2.0 * np.pi * np.fft.fftfreq(grid.m, d=grid.dx)
    mask = np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k))
    E = np.exp(0.5 * dt * 1j * k**3)
    E2 = E * E

    def nonlin(uhat):
        u = np.fft.ifft(np.where(mask, uhat, 0.0)).real
        return -1j * k * np.where(mask, np.fft.fft(u * u), 0.0)

    states = np.empty((nsteps + 1, grid.m))
    states[0] = u0
    uhat = np.fft.fft(u0)
    for step in range(1, nsteps + 1):
        Nv = nonlin(uhat)
        a = E * (uhat + (0.5 * dt) * Nv)
        Na = nonlin(a)
        b = E * uhat + (0.5 * dt) * Na
        Nb = nonlin(b)
        c = E2 * uhat + dt * (E * Nb)
        Nc = nonlin(c)
        uhat = E2 * uhat + (dt / 6.0) * (E2 * Nv + 2.0 * E * (Na + Nb) + Nc)
        states[step] = np.fft.ifft(uhat).real
    return dt * np.arange(nsteps + 1), states


class _Collect:
    """Observer keeping every (step, t, spectrum) it is shown."""

    def __init__(self):
        self.steps, self.times, self.spectra = [], [], []

    def __call__(self, step, t, uhat):
        self.steps.append(step)
        self.times.append(t)
        self.spectra.append(uhat.copy())

    def states(self, m):
        return np.fft.irfft(np.array(self.spectra), n=m, axis=1)


def test_soliton_satisfies_equation_symbolically():
    x, t = sp.symbols("x t", real=True)
    c = sp.Symbol("c", positive=True)
    xc = sp.Symbol("x_c", real=True)
    u = sp.Rational(3, 2) * c * sp.sech(sp.sqrt(c) / 2 * (x - c * t - xc)) ** 2
    residual = sp.diff(u, t) + sp.diff(u, x, 3) + sp.diff(u**2, x)
    assert sp.simplify(residual) == 0


def test_decaying_hump_derivatives_match_sympy():
    a, cen, w = 1.3, 8.0, 2.0
    x, t = sp.symbols("x t", real=True)
    u_sym = a * sp.exp(-t) * sp.sech((x - cen) / w) ** 2
    lam = {
        "u": sp.lambdify((x, t), u_sym, "numpy"),
        "u_x": sp.lambdify((x, t), sp.diff(u_sym, x), "numpy"),
        "u_xxx": sp.lambdify((x, t), sp.diff(u_sym, x, 3), "numpy"),
        "u_t": sp.lambdify((x, t), sp.diff(u_sym, t), "numpy"),
    }
    ms = decaying_hump(a, cen, w)
    xs = np.linspace(1.0, 15.0, 41)
    for tv in (0.0, 0.4, 1.7):
        assert np.max(np.abs(ms.u(xs, tv) - lam["u"](xs, tv))) <= 1e-12
        assert np.max(np.abs(ms.u_x(xs, tv) - lam["u_x"](xs, tv))) <= 1e-12
        assert np.max(np.abs(ms.u_xxx(xs, tv) - lam["u_xxx"](xs, tv))) <= 1e-11
        assert np.max(np.abs(ms.u_t(xs, tv) - lam["u_t"](xs, tv))) <= 1e-12


def test_forcing_is_equation_residual():
    a, cen, w = 1.0, 8.0, 2.0
    x, t = sp.symbols("x t", real=True)
    u_sym = a * sp.exp(-t) * sp.sech((x - cen) / w) ** 2
    F_sym = sp.diff(u_sym, t) + sp.diff(u_sym, x, 3) + sp.diff(u_sym**2, x)
    F_lam = sp.lambdify((x, t), F_sym, "numpy")
    ms = decaying_hump(a, cen, w)
    F = ms.forcing
    xs = np.linspace(2.0, 14.0, 31)
    for tv in (0.1, 0.9):
        assert np.max(np.abs(F(xs, tv) - F_lam(xs, tv))) <= 1e-11


def test_manufactured_cross_check_catches_bad_derivative():
    ms = decaying_hump()
    with pytest.raises(ValueError, match="u_x"):
        ManufacturedSolution(u=ms.u, u_x=lambda x, t: 2.0 * ms.u_x(x, t),
                             u_xxx=ms.u_xxx, u_t=ms.u_t)


def test_periodic_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(-1.0, 64)
    with pytest.raises(ValueError):
        PeriodicGrid(60.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid(60.0, 8)
    g = PeriodicGrid(64.0, 128, x_left=-32.0)
    assert g.dx == pytest.approx(0.5)
    assert g.nodes[0] == -32.0


def test_support_guard_rejects_wide_data():
    g = PeriodicGrid(60.0, 128, x_left=-30.0)
    with pytest.raises(ValueError, match="support guard"):
        wholeline_solve(np.ones(g.m), g, T=1.0)


@pytest.fixture(scope="module")
def soliton_run():
    per = PeriodicGrid(96.0, 512, x_left=-30.0)
    u0 = soliton_solution(1.0, 8.0)(per.nodes, 0.0)
    seen = _Collect()
    probe = WindowProbe(per, 12.0, Grid1D(20.0, 201))
    traj = wholeline_solve(u0, per, T=2.0, cfl=0.1, observers=[seen, probe])
    return per, traj, seen, probe


def test_wholeline_observers_see_every_step(soliton_run):
    per, traj, seen, probe = soliton_run
    assert seen.steps == list(range(len(traj.times)))
    assert np.array_equal(seen.times, traj.times)
    assert len(probe.traces) == len(traj.times)


def test_wholeline_matches_complex_reference(soliton_run):
    per, traj, seen, _ = soliton_run
    u0 = soliton_solution(1.0, 8.0)(per.nodes, 0.0)
    times, states = _reference_march(u0, per, T=2.0, cfl=0.1)
    assert np.array_equal(times, traj.times)
    assert np.max(np.abs(seen.states(per.m) - states)) <= 1e-12


def test_wholeline_conserves_mass(soliton_run):
    per, traj, seen, _ = soliton_run
    masses = np.sum(seen.states(per.m), axis=1) * per.dx
    assert np.max(np.abs(masses - masses[0])) <= 1e-10


def test_wholeline_preserves_energy(soliton_run):
    per, traj, seen, _ = soliton_run
    e = np.sum(seen.states(per.m) ** 2, axis=1) * per.dx
    assert abs(e[-1] - e[0]) / e[0] <= 1e-6


def test_wholeline_transports_soliton(soliton_run):
    per, traj, seen, _ = soliton_run
    ref = soliton_solution(1.0, 8.0)(per.nodes, traj.times[-1])
    assert np.max(np.abs(seen.states(per.m)[-1] - ref)) <= 1e-5


def test_wholeline_dealiases_the_flux():
    # a wave packet whose spectrum lies wholly above the 2/3 cutoff: the rule
    # keeps it out of the flux, so it moves linearly and the kept modes stay at
    # round-off (5e-15); without the rule its square (a mean near k = 0 and the
    # 1.7 k_max harmonic, aliased to 0.3 k_max) fills them to 0.12 of the spectrum
    per = PeriodicGrid(96.0, 512, x_left=-30.0)
    x = per.nodes
    u0 = 0.5 * np.exp(-(((x - 18.0) / 5.0) ** 2)) * np.cos(0.85 * (np.pi / per.dx) * x)
    k = per.wavenumbers
    kept = k <= (2.0 / 3.0) * k[-1]
    worst = []

    def kept_fraction(step, t, uhat):
        worst.append(np.max(np.abs(uhat[kept])) / np.max(np.abs(uhat)))

    traj = wholeline_solve(u0, per, T=1.0, cfl=0.1, observers=[kept_fraction])
    assert len(worst) == len(traj.times) > 1
    assert max(worst) <= 1e-12


def test_spectral_restriction_interpolates(soliton_run):
    per, traj, seen, _ = soliton_run
    k = len(traj.times) // 2
    at_nodes = spectral_restriction(seen.spectra[k], per, per.nodes)
    assert np.max(np.abs(at_nodes - seen.states(per.m)[k])) <= 1e-12
    mids = per.nodes[100:140] + 0.5 * per.dx
    exact = soliton_solution(1.0, 8.0)(mids, traj.times[k])
    assert np.max(np.abs(spectral_restriction(seen.spectra[k], per, mids) - exact)) <= 1e-4
    # a stack of spectra restricts row by row
    stack = spectral_restriction(np.array(seen.spectra[:3]), per, mids)
    for row, uhat in zip(stack, seen.spectra[:3]):
        assert np.array_equal(row, spectral_restriction(uhat, per, mids))


def test_window_probe_derivative_taps():
    # the probe's u, u_x and u_xxx taps at x* against the series itself and
    # centered differences of the exact profile
    per = PeriodicGrid(64.0, 256, x_left=-32.0)
    u = soliton_solution(1.0, 0.0)
    uhat = np.fft.rfft(u(per.nodes, 0.0))
    x = np.linspace(-3.0, 3.0, 13)
    h = 1e-3
    d1 = (u(x + h, 0.0) - u(x - h, 0.0)) / (2 * h)
    d3 = (u(x + 2 * h, 0.0) - 2 * u(x + h, 0.0) + 2 * u(x - h, 0.0) - u(x - 2 * h, 0.0)) / (2 * h**3)
    taps = []
    for xs in x:
        probe = WindowProbe(per, xs, Grid1D(20.0, 201))
        probe(0, 0.0, uhat)
        probe(1, 0.1, 2.0 * uhat)  # one row per observed step, linear in the spectrum
        assert np.allclose(probe.traces[1], 2.0 * probe.traces[0], rtol=1e-14, atol=0.0)
        taps.append(probe.traces[0])
    got_u, got_d1, got_d3 = np.array(taps).T
    assert np.max(np.abs(got_u - spectral_restriction(uhat, per, x))) <= 1e-14
    assert np.max(np.abs(got_d1 - d1)) <= 1e-6
    assert np.max(np.abs(got_d3 - d3)) <= 1e-5


def test_extraction_window_must_fit():
    per = PeriodicGrid(96.0, 512, x_left=-30.0)
    with pytest.raises(ConfigError, match="not contained"):
        WindowProbe(per, 60.0, Grid1D(20.0, 201))


def test_extracted_data_consistent(soliton_run):
    per, traj, seen, probe = soliton_run
    u0, bd = extract_halfline_data(traj, probe)
    grid = probe.window
    # corner compatibility and a self-consistent (f, f') pair
    assert abs(bd.f(0.0) - u0.values[0]) <= 1e-12
    bd.validate(2.0)
    # at the march times f is the probed trace and f' the equation's slope
    fvals, d1, d3 = np.array(probe.traces).T
    f = np.array([bd.f(t) for t in traj.times])
    fp = np.array([bd.fprime(t) for t in traj.times])
    assert np.max(np.abs(f - fvals)) <= 1e-14 * np.max(np.abs(fvals))
    slope = -(d3 + 2.0 * fvals * d1)
    assert np.max(np.abs(fp - slope)) <= 1e-12 * np.max(np.abs(slope))
    # the restriction itself at t=0
    exact = soliton_solution(1.0, 8.0)(12.0 + grid.nodes, 0.0)
    assert np.max(np.abs(u0.values - exact)) <= 1e-8


def test_bump_data_round_trip():
    per = PeriodicGrid(96.0, 256, x_left=-48.0)
    u0 = gaussian_bump(0.5, 0.0, 3.0)(per.nodes)
    seen = _Collect()
    traj = wholeline_solve(u0, per, T=0.5, cfl=0.3, observers=[seen])
    assert len(seen.spectra) == len(traj.times)
    assert seen.steps[0] == 0 and seen.times[0] == 0.0
    assert np.array_equal(seen.spectra[0], np.fft.rfft(u0))


_ORACLE_SMALL = """
experiment = oracle-compare
grid.L = 40.0
grid.n = 401
time.dt = 0.02
time.T = {T}
oracle.P = 120.0
oracle.m = 512
oracle.x_left = -30.0
oracle.x_star = 20.0
oracle.cfl = 0.1
oracle.kind = soliton
oracle.c = 1.0
oracle.center = 12.0
"""


def test_oracle_compare_memory_does_not_grow_with_T():
    # warm the operator caches and lazy imports outside the measurement
    run_oracle_compare(parse_config(_ORACLE_SMALL.format(T=4.0)))
    peaks = []
    for T in (4.0, 8.0):
        cfg = parse_config(_ORACLE_SMALL.format(T=T))
        tracemalloc.start()
        try:
            report, _ = run_oracle_compare(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report["passes"]["equivalence"]
    assert peaks[1] <= 1.1 * peaks[0]


def test_spectral_restriction_peak_memory():
    # blocks of 64 points: one block's (m/2 + 1) x 64 complex matrix, not the
    # (m/2 + 1) x len(x) one nor a 256-point block's
    grid = PeriodicGrid(120.0, 1024, -30.0)
    uhat = np.fft.rfft(gaussian_bump(1.0, 12.0, 2.0)(grid.nodes))
    x = 20.0 + np.linspace(0.0, 40.0, 2001)
    spectral_restriction(uhat, grid, x)
    tracemalloc.start()
    try:
        spectral_restriction(uhat, grid, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak
