"""Independent references: symbolic verification and the periodic solver."""

import os
import pickle
import signal
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import sympy as sp

from kdvhl import oracle
from kdvhl.cli import main, resolve_config
from kdvhl.config import ConfigError, parse_config
from kdvhl.datagen import gaussian_bump, soliton_solution
from kdvhl.discretization import Grid1D
from kdvhl.experiments import _oracle_reference, run_oracle_compare
from kdvhl.oracle import (
    PeriodicGrid,
    WindowProbe,
    _restriction_matrix,
    decaying_hump,
    extract_halfline_data,
    spectral_restriction,
    wholeline_march,
    wholeline_solve,
    wholeline_times,
)
from kdvhl.solver import BoundaryData, SolverError


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


def _march(u0, grid, T, cfl, observers=()):
    """wholeline_march over the time grid that wholeline_times gives; returns that grid."""
    times = wholeline_times(u0, grid, T, cfl)
    wholeline_march(u0, grid, times, observers=observers)
    return times


def _streamed(u0, probe):
    """The worker's march of u0, observed by probe: the half-line initial data, the
    inflow, the sample rows and the trajectory, read to its end and closed."""
    with wholeline_solve(u0, probe) as traj:
        u0_half, bd = traj.halfline_data()
        rows = extract_halfline_data(traj)
    return u0_half, bd, rows, traj


def _replay(probe, seen):
    """Show the probe every step a _Collect saw, as the march would."""
    for step, (t, uhat) in enumerate(zip(seen.times, seen.spectra)):
        probe(step, t, uhat)
    return probe


def test_soliton_satisfies_equation_symbolically():
    x, t = sp.symbols("x t", real=True)
    c = sp.Symbol("c", positive=True)
    xc = sp.Symbol("x_c", real=True)
    u = sp.Rational(3, 2) * c * sp.sech(sp.sqrt(c) / 2 * (x - c * t - xc)) ** 2
    residual = sp.diff(u, t) + sp.diff(u, x, 3) + sp.diff(u**2, x)
    assert sp.simplify(residual) == 0


def _hump_sympy(a, cen, w, modules="numpy"):
    """sympy's u_e = a e^{-t} sech^2((x - cen)/w), its u_t and its equation residual
    F = u_t + u_xxx + (u^2)_x, each lambdified for modules to a callable of (x, t)."""
    x, t = sp.symbols("x t", real=True)
    u_sym = a * sp.exp(-t) * sp.sech((x - cen) / w) ** 2
    u_t = sp.diff(u_sym, t)
    F_sym = u_t + sp.diff(u_sym, x, 3) + sp.diff(u_sym**2, x)
    return tuple(sp.lambdify((x, t), e, modules) for e in (u_sym, u_t, F_sym))


def test_decaying_hump_derivatives_match_sympy():
    # F = (u_t + u_xxx) + (u^2)_x is linear in the amplitude in its first part and
    # quadratic in its second, so the humps at amplitudes a and 2a separate the two:
    # each is held to sympy on its own, and a wrong u_x cannot offset a wrong u_xxx
    a, cen, w = 1.3, 8.0, 2.0
    x, t = sp.symbols("x t", real=True)
    u_sym = a * sp.exp(-t) * sp.sech((x - cen) / w) ** 2
    lin_lam = sp.lambdify((x, t), sp.diff(u_sym, t) + sp.diff(u_sym, x, 3), "numpy")
    quad_lam = sp.lambdify((x, t), sp.diff(u_sym**2, x), "numpy")
    u_lam = sp.lambdify((x, t), u_sym, "numpy")
    u, F = decaying_hump(a, cen, w)
    _, F2 = decaying_hump(2.0 * a, cen, w)
    xs = np.linspace(1.0, 15.0, 41)
    for tv in (0.0, 0.4, 1.7):
        quad = 0.5 * (F2(xs, tv) - 2.0 * F(xs, tv))
        assert np.max(np.abs(u(xs, tv) - u_lam(xs, tv))) <= 1e-12
        assert np.max(np.abs(quad - quad_lam(xs, tv))) <= 1e-11
        assert np.max(np.abs(F(xs, tv) - quad - lin_lam(xs, tv))) <= 1e-11


def test_forcing_is_equation_residual():
    # decaying_hump's u_e and its closed-form forcing against sympy: a wrong
    # coefficient in any derivative the forcing is built from shows here
    for a, cen, w, xs, ts in ((1.0, 8.0, 2.0, np.linspace(2.0, 14.0, 31), (0.1, 0.9)),
                              (1.3, 8.0, 2.0, np.linspace(1.0, 15.0, 41), (0.0, 0.4, 1.7))):
        u_lam, _, F_lam = _hump_sympy(a, cen, w)
        u, F = decaying_hump(a, cen, w)
        for tv in ts:
            assert np.max(np.abs(u(xs, tv) - u_lam(xs, tv))) <= 1e-12
            assert np.max(np.abs(F(xs, tv) - F_lam(xs, tv))) <= 1e-11


def test_manufactured_boundary_slope_is_u_t():
    # the complex step of f(t) = u_e(0, t) against sympy's u_t at x = 0, evaluated
    # in 30-digit arithmetic so that the reference carries no rounding of its own
    u, _ = decaying_hump(1.3, 8.0, 2.0)
    bd = BoundaryData(f=lambda t: u(0.0, t))
    ts = np.linspace(0.0, 2.0, 401)
    fp = np.array([bd.fprime(t) for t in ts])
    u_t = _hump_sympy(1.3, 8.0, 2.0, "mpmath")[1]
    with mpmath.workdps(30):
        ref = np.array([float(u_t(0, mpmath.mpf(t))) for t in ts])
    assert np.max(np.abs(fp - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


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
        _march(np.ones(g.m), g, T=1.0, cfl=0.5)


@pytest.fixture(scope="module")
def soliton_run():
    per = PeriodicGrid(96.0, 512, x_left=-30.0)
    u0 = soliton_solution(1.0, 8.0)(per.nodes, 0.0)
    times = wholeline_times(u0, per, 2.0, 0.1)
    seen = _Collect()
    probe = WindowProbe(per, 12.0, Grid1D(20.0, 201), times)
    wholeline_march(u0, per, times, observers=[seen, probe])
    return per, times, seen, probe


def test_wholeline_observers_see_every_step(soliton_run):
    per, times, seen, probe = soliton_run
    assert seen.steps == list(range(len(times)))
    assert np.array_equal(seen.times, times)
    assert len(probe.traces) == len(times)


def test_wholeline_matches_complex_reference(soliton_run):
    per, times, seen, _ = soliton_run
    u0 = soliton_solution(1.0, 8.0)(per.nodes, 0.0)
    ref_times, states = _reference_march(u0, per, T=2.0, cfl=0.1)
    assert np.array_equal(ref_times, times)
    assert np.max(np.abs(seen.states(per.m) - states)) <= 1e-12


def test_wholeline_conserves_mass(soliton_run):
    per, times, seen, _ = soliton_run
    masses = np.sum(seen.states(per.m), axis=1) * per.dx
    assert np.max(np.abs(masses - masses[0])) <= 1e-10


def test_wholeline_preserves_energy(soliton_run):
    per, times, seen, _ = soliton_run
    e = np.sum(seen.states(per.m) ** 2, axis=1) * per.dx
    assert abs(e[-1] - e[0]) / e[0] <= 1e-6


def test_wholeline_transports_soliton(soliton_run):
    per, times, seen, _ = soliton_run
    ref = soliton_solution(1.0, 8.0)(per.nodes, times[-1])
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

    times = _march(u0, per, T=1.0, cfl=0.1, observers=[kept_fraction])
    assert len(worst) == len(times) > 1
    assert max(worst) <= 1e-12


def test_spectral_restriction_interpolates(soliton_run):
    per, times, seen, _ = soliton_run
    k = len(times) // 2
    at_nodes = spectral_restriction(seen.spectra[k], per, per.x_left, per.dx, per.m)
    assert np.max(np.abs(at_nodes - seen.states(per.m)[k])) <= 1e-12
    mids = (per.nodes[100] + 0.5 * per.dx, per.dx, 40)
    exact = soliton_solution(1.0, 8.0)(per.nodes[100:140] + 0.5 * per.dx, times[k])
    assert np.max(np.abs(spectral_restriction(seen.spectra[k], per, *mids) - exact)) <= 1e-4
    # a stack of spectra restricts row by row
    stack = spectral_restriction(np.array(seen.spectra[:3]), per, *mids)
    for row, uhat in zip(stack, seen.spectra[:3]):
        assert np.array_equal(row, spectral_restriction(uhat, per, *mids))


def test_restriction_of_a_spectrum_shorter_than_a_block():
    # 33 modes against 128-point blocks, over three blocks: every third point is
    # a grid node, where the series gives back the sampled data
    per = PeriodicGrid(96.0, 64, x_left=-30.0)
    u = np.random.default_rng(1).standard_normal(per.m)
    values = spectral_restriction(np.fft.rfft(u), per, per.x_left, per.dx / 3, 3 * per.m)
    assert np.max(np.abs(values[::3] - u)) <= 1e-13


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
        probe = WindowProbe(per, xs, Grid1D(20.0, 201), [0.0, 0.1])
        probe(0, 0.0, uhat)
        probe(1, 0.1, 2.0 * uhat)  # one row per observed step, linear in the spectrum
        assert np.allclose(probe.traces[1], 2.0 * probe.traces[0], rtol=1e-14, atol=0.0)
        taps.append(probe.traces[0])
    got_u, got_d1, got_d3 = np.array(taps).T
    assert np.max(np.abs(got_u - spectral_restriction(uhat, per, -3.0, 0.5, 13))) <= 1e-14
    assert np.max(np.abs(got_d1 - d1)) <= 1e-6
    assert np.max(np.abs(got_d3 - d3)) <= 1e-5


def test_extraction_window_must_fit():
    per = PeriodicGrid(96.0, 512, x_left=-30.0)
    with pytest.raises(ConfigError, match="not contained"):
        WindowProbe(per, 60.0, Grid1D(20.0, 201), [0.0, 0.1])


def test_extracted_data_consistent(soliton_run):
    per, times, seen, probe = soliton_run
    u0, bd, restr, _ = _streamed(soliton_solution(1.0, 8.0)(per.nodes, 0.0),
                                 WindowProbe(per, 12.0, probe.window, times, times[-2:]))
    grid = probe.window
    assert restr.shape == (2, grid.n)
    # corner compatibility and a self-consistent (f, f') pair
    assert abs(bd.f(0.0) - u0.values[0]) <= 1e-12
    bd.validate(np.linspace(0.0, 2.0, 9))
    # at the march times f is the probed trace and f' the equation's slope
    fvals, d1, d3 = np.array(probe.traces).T
    f = np.array([bd.f(t) for t in times])
    fp = np.array([bd.fprime(t) for t in times])
    assert np.max(np.abs(f - fvals)) <= 1e-14 * np.max(np.abs(fvals))
    slope = -(d3 + 2.0 * fvals * d1)
    assert np.max(np.abs(fp - slope)) <= 1e-12 * np.max(np.abs(slope))
    # the restriction itself at t=0
    exact = soliton_solution(1.0, 8.0)(12.0 + grid.nodes, 0.0)
    assert np.max(np.abs(u0.values - exact)) <= 1e-8


def test_inflow_slope_is_the_hermite_cubics_derivative(soliton_run):
    # the complex step of the inflow against the derivative of the cubic Hermite
    # piece through the probed values and equation slopes at the two march times
    # around each t, written out in the Hermite basis
    per, times, seen, probe = soliton_run
    _, bd, _, _ = _streamed(soliton_solution(1.0, 8.0)(per.nodes, 0.0),
                            WindowProbe(per, 12.0, probe.window, times, times[-1:]))
    knots = np.asarray(times)
    fvals, d1, d3 = np.array(probe.traces).T
    slopes = -(d3 + 2.0 * fvals * d1)
    ts = np.concatenate([np.linspace(0.0, knots[-1], 997), knots])
    i = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(knots) - 2)
    h = knots[i + 1] - knots[i]
    s = (ts - knots[i]) / h
    ref = ((6.0 * s * s - 6.0 * s) * (fvals[i] - fvals[i + 1]) / h
           + (3.0 * s * s - 4.0 * s + 1.0) * slopes[i] + (3.0 * s * s - 2.0 * s) * slopes[i + 1])
    fp = np.array([bd.fprime(t) for t in ts])
    assert np.max(np.abs(fp - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))


def test_stacked_restriction_matches_separate_calls(soliton_run):
    # the sample spectra share each block's transforms; on a 2001-point window (the
    # oracle recipe's) every row is the bits of its own call, as is step 0's
    per, times, seen, probe = soliton_run
    samples = times[1::len(times) // 9][:9]
    wide = _replay(WindowProbe(per, 12.0, Grid1D(40.0, 2001), times, samples), seen)
    spectra = wide.sample_spectra()
    u0, _, restr, _ = _streamed(soliton_solution(1.0, 8.0)(per.nodes, 0.0),
                                WindowProbe(per, 12.0, Grid1D(40.0, 2001), times, samples))
    x = (12.0, wide.window.h, wide.window.n)
    assert np.array_equal(u0.values, spectral_restriction(seen.spectra[0], per, *x))
    assert len(restr) == 9
    for row, uhat in zip(restr, spectra):
        assert np.array_equal(row, spectral_restriction(uhat, per, *x))


def _longdouble_series(uhat, grid, x):
    """The trigonometric series of the half spectra uhat (one per row) at the
    np.longdouble points x, summed directly in np.longdouble."""
    ld = np.longdouble
    k = 8 * np.arctan(ld(1)) * np.arange(grid.m // 2 + 1, dtype=ld) / ld(grid.P)
    w = np.full(k.size, ld(2) / grid.m)
    w[0] = w[-1] = ld(1) / grid.m
    phase = np.outer(k, np.asarray(x, dtype=ld) - ld(grid.x_left))
    return (w * uhat.real.astype(ld)) @ np.cos(phase) - (w * uhat.imag.astype(ld)) @ np.sin(phase)


def test_chirp_z_restriction_is_as_accurate_as_the_dense_sum():
    # 10 spectra from the oracle recipe's march, on its window and on two windows
    # whose lengths are not a multiple of the 128-point block (one of them coarse,
    # where the chirp's phases are largest): on every 7th point the chirp-z
    # restriction is within 2x of the dense exponential sum's own distance from a
    # long-double direct sum (each at its points: x0 + j h exactly, and the
    # rounded doubles the dense sum takes)
    cfg = resolve_config("oracle")
    per = PeriodicGrid(cfg.oracle_P, cfg.oracle_m, cfg.oracle_x_left)
    u0 = soliton_solution(cfg.oracle_c, cfg.oracle_center)(per.nodes, 0.0)
    times = wholeline_times(u0, per, cfg.T, cfg.oracle_cfl)
    keep = np.linspace(0, len(times) - 1, 10).astype(int)
    window = Grid1D(cfg.L, cfg.n)
    probe = WindowProbe(per, cfg.oracle_x_star, window, times, times[keep])
    wholeline_march(u0, per, times, observers=[probe])
    spectra = probe.sample_spectra()
    for x0, h, n in ((cfg.oracle_x_star, window.h, window.n), (17.3, 0.031, 389),
                     (-20.0, 0.7, 130)):
        j = np.r_[0:n:7, n - 1]
        chirp_z = spectral_restriction(spectra, per, x0, h, n)[:, j]
        near = np.max(np.abs(chirp_z - _longdouble_series(
            spectra, per, np.longdouble(x0) + j * np.longdouble(h))))
        xd = x0 + h * j
        dense = np.max(np.abs((spectra @ _restriction_matrix(per, xd)).real
                              - _longdouble_series(spectra, per, xd)))
        assert 0 < near <= 2 * dense, (n, near, dense)


def test_kept_spectra_survive_the_in_place_march(soliton_run):
    # the march hands every observer one buffer that it updates in place: a
    # reference taken at a step is the final state by the end, while the
    # probe's kept copies still hold their own steps' spectra
    per, times, seen, _ = soliton_run
    u0 = soliton_solution(1.0, 8.0)(per.nodes, 0.0)
    refs = []
    probe = WindowProbe(per, 12.0, Grid1D(20.0, 201), times, times[[1, 5]])
    wholeline_march(u0, per, times,
                    observers=[probe, lambda step, t, uhat: refs.append(uhat)])
    assert all(r is refs[0] for r in refs)
    assert np.array_equal(refs[0], seen.spectra[-1])
    assert sorted(probe.spectra) == list(range(7))
    for step, kept in probe.spectra.items():
        assert np.array_equal(kept, seen.spectra[step])
        assert not np.array_equal(kept, seen.spectra[-1])


def test_probe_samples_on_march_steps_are_the_march_spectra(soliton_run):
    # at a march time the cubic Lagrange weights are one-hot, so the sample's
    # spectrum is that step's own, bit for bit, at both ends and inside
    per, times, seen, _ = soliton_run
    steps = [0, 1, 2, 7, len(times) // 2, len(times) - 2, len(times) - 1]
    probe = _replay(WindowProbe(per, 12.0, Grid1D(20.0, 201), times, times[steps]),
                    seen)
    assert np.array_equal(probe.sample_spectra(), np.array([seen.spectra[s] for s in steps]))


def test_probe_keeps_step_0_and_the_sample_windows(soliton_run):
    # each sample keeps the four steps around it (the first four and the last
    # four at the ends), and the probe keeps those and step 0, nothing else
    per, times, seen, _ = soliton_run
    t, n = times, len(times) - 1
    samples = [0.5 * (t[10] + t[11]), 0.25 * t[40] + 0.75 * t[41], t[n]]
    probe = _replay(WindowProbe(per, 12.0, Grid1D(20.0, 201), t, samples), seen)
    assert sorted(probe.spectra) == [0, 9, 10, 11, 12, 39, 40, 41, 42, n - 3, n - 2, n - 1, n]
    for step, kept in probe.spectra.items():
        assert np.array_equal(kept, seen.spectra[step])


def test_march_commutes_with_kdv_scaling():
    # u -> 4 u(2x, 8t) maps KdV solutions to solutions, and every factor is a
    # power of two: on the halved period with the same m and T/8 the march
    # takes the same steps, and each spectrum is exactly 4x the original's
    u0 = gaussian_bump(0.8, 0.0, 3.0)
    runs = []
    for P, T in ((120.0, 4.0), (60.0, 4.0 / 8.0)):
        per = PeriodicGrid(P, 256, x_left=-P / 2)
        seen = _Collect()
        scale = 120.0 / P
        times = _march(scale**2 * u0(scale * per.nodes), per, T=T, cfl=0.1,
                      observers=[seen])
        runs.append((times, np.array(seen.spectra)))
    (times, spectra), (times2, spectra2) = runs
    assert len(times) == len(times2) > 50
    assert np.array_equal(times2, times / 8.0)
    assert np.array_equal(spectra2, 4.0 * spectra)


def test_march_keeps_the_mean_mode_bitwise(soliton_run):
    # the flux -ik vanishes at k = 0 and the phase there is exp(0) = 1, so
    # the mass mode never changes, not even in its last bit
    per, times, seen, _ = soliton_run
    mean = np.array([s[0] for s in seen.spectra])
    assert len(mean) == len(times)
    assert np.array_equal(mean, np.full(len(mean), mean[0]))


def test_bump_data_round_trip():
    per = PeriodicGrid(96.0, 256, x_left=-48.0)
    u0 = gaussian_bump(0.5, 0.0, 3.0)(per.nodes)
    seen = _Collect()
    times = _march(u0, per, T=0.5, cfl=0.3, observers=[seen])
    assert len(seen.spectra) == len(times)
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
    # with the default 9 samples, and with 7, whose sampled steps (0, 33, 67, ...
    # at T = 4) share no common divisor: only the sampled states are kept either way
    for samples in ("", "oracle.samples = 7\n"):
        # warm the operator caches and lazy imports outside the measurement
        run_oracle_compare(parse_config(_ORACLE_SMALL.format(T=4.0) + samples))
        peaks = []
        for T in (4.0, 8.0):
            cfg = parse_config(_ORACLE_SMALL.format(T=T) + samples)
            tracemalloc.start()
            try:
                report, _ = run_oracle_compare(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report["passes"]["equivalence"]
        assert peaks[1] <= 1.1 * peaks[0], (samples, peaks)


def test_spectral_restriction_peak_memory():
    # chirp-z blocks of 128 points: the chirp's transform, one complex buffer of
    # the FFT length (640 here) per row and the output, about 82 kB, not the
    # 16 MB (m/2 + 1) x len(x) matrix of exponentials a dense sum takes; the
    # bound is the one that the dense sum's 64-point blocks (0.95 MB) were held
    # to.  Ten times the points cost only the output's 8 bytes per point more
    # (one unblocked chirp over the window would cost about 12 x that)
    grid = PeriodicGrid(120.0, 1024, -30.0)
    uhat = np.fft.rfft(gaussian_bump(1.0, 12.0, 2.0)(grid.nodes))
    peaks = []
    for n in (2001, 20001):
        x = (20.0, 40.0 / (n - 1), n)
        spectral_restriction(uhat, grid, *x)
        tracemalloc.start()
        try:
            spectral_restriction(uhat, grid, *x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 3_000_000, peaks
    assert peaks[1] - peaks[0] <= 1.1 * 8 * 18000, peaks


def test_window_probe_refuses_samples_on_fewer_than_4_times():
    # a sample's cubic Lagrange window takes four march times; on three it used to
    # reach step -1 and divide by zero
    per = PeriodicGrid(64.0, 64, x_left=-32.0)
    times = np.linspace(0.0, 0.02, 3)
    with pytest.raises(ValueError, match="at least 4 times, got 3"):
        WindowProbe(per, 0.0, Grid1D(20.0, 101), times, [0.01])
    WindowProbe(per, 0.0, Grid1D(20.0, 101), times)  # without samples it may be short


def test_probe_without_samples_extracts_no_sample_rows():
    per = PeriodicGrid(64.0, 64, x_left=-32.0)
    u0 = gaussian_bump(0.5, 8.0, 2.0)(per.nodes)
    times = wholeline_times(u0, per, 2.0, 0.5)
    assert len(times) == 5
    bare, sampled = (WindowProbe(per, 0.0, Grid1D(20.0, 101), times, s)
                     for s in ((), times[-1:]))
    u0_bare, bd_bare, rows, _ = _streamed(u0, bare)
    u0_sampled, bd_sampled, _, _ = _streamed(u0, sampled)
    assert rows.shape == (0, 101)
    assert bare.sample_spectra().shape == (0, per.m // 2 + 1)
    # the initial data and the inflow are the sampled probe's, bit for bit
    assert np.array_equal(u0_bare.values, u0_sampled.values)
    assert bd_bare.f(1.25) == bd_sampled.f(1.25)


def _no_child_left():
    # every path reaps the march's worker
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _records(traj):
    """Every record of a trajectory's stream, unpickled until its end."""
    records = []
    while True:
        try:
            records.append(pickle.load(traj._stream))
        except EOFError:
            return records


def test_worker_streams_the_in_process_march_bit_for_bit(soliton_run):
    # the worker's records against a march in this process with its own probe:
    # step 0's spectrum at once, the three traces of every step in records of 64
    # steps, each led by the last row of the record before, then each sample
    # time's spectrum, all bit for bit
    per, times, _, probe = soliton_run
    u0 = soliton_solution(1.0, 8.0)(per.nodes, 0.0)
    samples = [0.5 * (times[10] + times[11]), times[100], times[-1]]
    local = WindowProbe(per, 12.0, probe.window, times, samples)
    wholeline_march(u0, per, times, observers=[local])
    with wholeline_solve(u0, WindowProbe(per, 12.0, probe.window, times, samples)) as traj:
        records = _records(traj)
    traces = records[1:-1]
    assert len(traces) == -(-len(times) // oracle._ROWS)
    assert records[0].tobytes() == local.spectra[0].tobytes()
    for before, after in zip(traces, traces[1:]):
        assert after[0].tobytes() == before[-1].tobytes()
    assert b"".join([traces[0].tobytes()] + [r[1:].tobytes() for r in traces[1:]]) \
        == local.traces.tobytes()
    assert records[-1].tobytes() == local.sample_spectra().tobytes()
    assert traj.worker_rusage.ru_maxrss > 0
    _no_child_left()


def test_worker_memory_does_not_grow_with_the_march():
    # the worker's body, in this process, into a sink that discards its input:
    # once a trace record is sent the probe keeps only its last row, so the peak
    # holds the march's buffers and the kept spectra, not 24 bytes per step
    per = PeriodicGrid(120.0, 256, x_left=-30.0)
    u0 = soliton_solution(1.0, 12.0)(per.nodes, 0.0)
    window = Grid1D(40.0, 401)

    def probe(T):
        times = wholeline_times(u0, per, T, 0.1)
        return WindowProbe(per, 20.0, window, times, np.linspace(0.0, T, 3))

    with open(os.devnull, "wb") as sink:
        oracle._stream(u0, probe(16.0), sink)  # warm the kernels and lazy imports
        peaks, steps = [], []
        for T in (16.0, 32.0):
            p = probe(T)
            tracemalloc.start()
            try:
                oracle._stream(u0, p, sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            steps.append(len(p.times) - 1)
    assert steps[1] > 1.9 * steps[0] > 1900, steps
    assert peaks[1] - peaks[0] < 8 * (steps[1] - steps[0]), (peaks, steps)


def _oracle_config(T, **changes):
    return replace(parse_config(_ORACLE_SMALL.format(T=T)), **changes)


def test_march_failure_in_the_worker_is_the_callers_solver_error(tmp_path, capsys):
    # a bump of amplitude 50 at cfl 100 goes non-finite on the march's first step,
    # in the worker; the caller raises the march's own SolverError, word for word,
    # and the CLI exits 3 with that one line
    cfg = _oracle_config(1.0, oracle_kind="bump", oracle_amplitude=50.0, oracle_center=10.0,
                         oracle_cfl=100.0)
    per = PeriodicGrid(cfg.oracle_P, cfg.oracle_m, cfg.oracle_x_left)
    u0 = gaussian_bump(50.0, 10.0, cfg.oracle_width)(per.nodes)
    with pytest.raises(SolverError, match="whole-line solve went non-finite") as here:
        wholeline_march(u0, per, wholeline_times(u0, per, cfg.T, cfg.oracle_cfl))
    with pytest.raises(SolverError) as there:
        run_oracle_compare(cfg)
    assert str(there.value) == str(here.value)
    _no_child_left()
    text = _ORACLE_SMALL.format(T=1.0).replace("oracle.kind = soliton", "oracle.kind = bump")
    cfgfile = tmp_path / "blowup.cfg"
    cfgfile.write_text(text.replace("oracle.cfl = 0.1", "oracle.cfl = 100")
                       + "oracle.amplitude = 50\n")
    assert main(["oracle-compare", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"solver failure: {here.value}\n"
    _no_child_left()


def test_half_line_failure_beside_the_worker():
    # on a coarse march (m = 256) the half-line solve diverges at its last step
    # (c = 9 at dt = 0.5), in the caller, while the worker marches: the caller
    # raises the error that a march run first, in the same process, gave, and the
    # worker is reaped
    cfg = _oracle_config(2.0, n=201, oracle_m=256, dt=0.5, oracle_c=9.0)
    with pytest.raises(SolverError) as err:
        run_oracle_compare(cfg)
    assert str(err.value) == ("picard iteration diverging at t = 2 (update grew 2.558e+02 "
                              "from 5.412e+01); dt too large")
    _no_child_left()


def test_killed_worker_is_a_solver_error_not_a_hang():
    # the oracle recipe's 4094 trace rows fill more than a pipe holds, so the
    # worker is still marching when it is killed after its first record
    cfg = resolve_config("oracle")
    with _oracle_reference(cfg, Grid1D(cfg.L, cfg.n), ()) as traj:
        traj.halfline_data()
        os.kill(traj._pid, signal.SIGKILL)
        with pytest.raises(SolverError, match="march stopped after .* of 4095 time steps"):
            traj.sample_spectra()
    _no_child_left()
    # an error in the caller ends a worker that is still marching
    with pytest.raises(KeyError):
        with _oracle_reference(cfg, Grid1D(cfg.L, cfg.n), ()) as traj:
            traj.halfline_data()
            raise KeyError("caller")
    assert traj.rows < len(traj.times)
    _no_child_left()


@pytest.mark.parametrize("error,raised", [
    (ConfigError("oracle.m is too small"), ConfigError),
    (MemoryError("no room for the spectra"), MemoryError),
    (KeyError("step"), RuntimeError),
])
def test_worker_error_crosses_as_its_class(monkeypatch, error, raised):
    # the worker's ConfigError, SolverError and MemoryError reach the caller as the
    # same class with the same message; any other error, as a RuntimeError that
    # names it and carries the worker's traceback
    def fail(u0, probe, out):
        raise error

    monkeypatch.setattr(oracle, "_stream", fail)
    cfg = _oracle_config(1.0)
    with pytest.raises(raised) as got:
        with _oracle_reference(cfg, Grid1D(cfg.L, cfg.n), ()) as traj:
            traj.halfline_data()
    if raised is RuntimeError:
        assert str(got.value).startswith("the whole-line worker raised KeyError: Traceback")
    else:
        assert str(got.value) == str(error)
    _no_child_left()


def test_truncated_record_is_a_solver_error(monkeypatch):
    # a worker whose stream ends inside a record: the caller's unpickling fails,
    # and it raises the stream's SolverError, not the UnpicklingError
    def truncated(u0, probe, out):
        out.write(pickle.dumps(u0)[:40])

    monkeypatch.setattr(oracle, "_stream", truncated)
    cfg = _oracle_config(1.0)
    with pytest.raises(SolverError, match="march stopped after 0 of"):
        with _oracle_reference(cfg, Grid1D(cfg.L, cfg.n), ()) as traj:
            traj.halfline_data()
    _no_child_left()


def test_worker_exits_when_its_caller_stops_reading():
    # a caller that dies closes its end of the pipe: the worker's next write fails
    # (EPIPE) and it exits by itself, unkilled, with status 1
    cfg = resolve_config("oracle")
    traj = _oracle_reference(cfg, Grid1D(cfg.L, cfg.n), ())
    traj.halfline_data()
    traj._stream.close()
    _, status, _ = os.wait4(traj._pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1
    _no_child_left()
