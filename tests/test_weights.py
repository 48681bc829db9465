"""Cutoff family: exact piecewise structure, sharp supports, normalization."""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from kdvhl.weights import CutoffSpec, WeightSpec, chi, eta, moving_weight

EPS, B = 0.4, 2.0


@pytest.fixture(scope="module")
def cut():
    return CutoffSpec(EPS, B)


@pytest.fixture(scope="module")
def wspec(cut):
    return WeightSpec(cutoff=cut, v=1.0, x0=4.0)


def test_eta_plateau_values():
    assert eta(0.0) == 0.0
    assert eta(-3.0) == 0.0
    assert eta(1.0) == 1.0
    assert eta(7.5) == 1.0
    assert eta(0.5) == pytest.approx(0.5, abs=1e-15)


def test_eta_partition_identity():
    th = np.linspace(-0.5, 1.5, 1000)
    assert np.max(np.abs(eta(th) + eta(1.0 - th) - 1.0)) <= 1e-10


def test_eta_monotone_and_scalar():
    th = np.linspace(-0.1, 1.1, 400)
    assert np.all(np.diff(eta(th)) >= 0.0)
    assert np.isscalar(eta(0.3)) or np.ndim(eta(0.3)) == 0


@pytest.mark.parametrize("eps,b", [(0.4, 2.0), (0.2, 1.0), (0.5, 2.5)])
def test_chi_piecewise_structure(eps, b):
    spec = CutoffSpec(eps, b)
    left = np.linspace(-1.0, eps, 1000)
    right = np.linspace(b, b + 3.0, 1000)
    assert np.max(np.abs(chi(spec, left))) <= 1e-10
    assert np.max(np.abs(chi(spec, right) - 1.0)) <= 1e-10
    mid = np.linspace(eps, b, 1000)
    vals = chi(spec, mid)
    assert np.all(np.diff(vals) >= -1e-14)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("eps,b", [(0.4, 2.0), (0.2, 1.0), (0.5, 2.5)])
def test_chi_matches_quadrature_reference(eps, b):
    # chi(x) = int_eps^x bump / int_eps^b bump by adaptive quadrature, built
    # here apart from the cutoff's panel table and interpolant
    def bump(s):
        return np.exp(-1.0 / ((s - eps) * (b - s)))

    def integral(x):
        return quad(bump, eps, x, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    z = integral(b)
    x = np.concatenate([np.linspace(eps, b, 203)[1:-1], eps + (b - eps) * np.array([1e-3, 0.999])])
    ref = np.array([integral(xi) for xi in x]) / z
    cut = CutoffSpec(eps, b)
    assert np.max(np.abs(chi(cut, x) - ref)) <= 1e-12
    # continuous with the plateau: the last double below b is 1 to rounding
    assert chi(cut, b) == 1.0 and 1.0 - chi(cut, np.nextafter(b, 0.0)) <= 4e-16


@pytest.mark.parametrize("order", [1, 2, 3])
def test_chi_derivative_supports_sharp(cut, order):
    outside = np.array([EPS - 1e-12, EPS, B, B + 1e-12, -1.0, 5.0])
    assert np.all(chi(cut, outside, order) == 0.0)
    inside = np.linspace(EPS + 1e-3, B - 1e-3, 257)
    assert np.any(chi(cut, inside, order) != 0.0)


def test_chi_prime_unit_integral(cut):
    # trapezoid is spectrally accurate here: chi' is smooth with all
    # derivatives vanishing at both ends of the sample interval
    s = np.linspace(EPS - 0.1, B + 0.1, 1000)
    total = np.trapezoid(chi(cut, s, 1), s)
    assert abs(total - 1.0) <= 1e-10


def test_chi_prime_positive_inside(cut):
    s = np.linspace(EPS + 1e-6, B - 1e-6, 500)
    assert np.all(chi(cut, s, 1) >= 0.0)
    assert chi(cut, 0.5 * (EPS + B), 1) > 0.1


def test_chi_matches_difference_of_antiderivative(cut):
    h = 1e-5
    s = np.linspace(EPS + 0.05, B - 0.05, 101)
    fd = (chi(cut, s + h) - chi(cut, s - h)) / (2.0 * h)
    assert np.max(np.abs(fd - chi(cut, s, 1))) <= 1e-6


def test_chi_second_matches_difference_of_first(cut):
    h = 1e-5
    s = np.linspace(EPS + 0.05, B - 0.05, 101)
    fd = (chi(cut, s + h, 1) - chi(cut, s - h, 1)) / (2.0 * h)
    assert np.max(np.abs(fd - chi(cut, s, 2))) <= 1e-5


def test_chi_third_matches_difference_of_second(cut):
    h = 1e-4
    s = np.linspace(EPS + 0.1, B - 0.1, 101)
    fd = (chi(cut, s + h, 2) - chi(cut, s - h, 2)) / (2.0 * h)
    scale = np.max(np.abs(chi(cut, s, 3))) + 1.0
    assert np.max(np.abs(fd - chi(cut, s, 3))) <= 1e-4 * scale


def test_chi_scalar_round_trip(cut):
    v = chi(cut, 1.3)
    assert np.ndim(v) == 0
    assert 0.0 < float(v) < 1.0


def test_chi_invalid_order(cut):
    with pytest.raises(ValueError):
        chi(cut, 1.0, order=4)


def test_cutoff_requires_positive_epsilon():
    with pytest.raises(ValueError):
        CutoffSpec(0.0, 2.0)
    with pytest.raises(ValueError):
        CutoffSpec(-0.1, 2.0)


def test_cutoff_requires_wide_support():
    with pytest.raises(ValueError):
        CutoffSpec(0.5, 2.0)
    CutoffSpec(0.4, 2.0)  # exactly 5x is allowed


def test_cutoff_normalization_cached(cut):
    # chi' is the bump divided by its integral over (eps, b), cached at construction
    def bump(s):
        return np.exp(-1.0 / ((s - EPS) * (B - s)))

    assert cut._norm == pytest.approx(quad(bump, EPS, B, epsabs=0.0, epsrel=1e-13)[0],
                                      rel=1e-12)
    s = np.linspace(EPS + 0.1, B - 0.1, 7)
    assert np.allclose(chi(cut, s, 1) * cut._norm, bump(s), rtol=1e-14, atol=0.0)


def test_cutoff_refuses_band_too_narrow_to_normalize():
    # the bump's exponent -1/((s - eps)(b - s)) stays below the log floor on a band
    # b - eps <= 2/sqrt(500) = 0.0894, so every bump value is 0; a zero normalization
    # would make chi NaN
    with pytest.raises(ValueError, match="normalization"):
        CutoffSpec(0.01, 0.05)
    with pytest.raises(ValueError, match="normalization"):
        CutoffSpec(0.01, 0.01 + 2.0 / np.sqrt(500.0))
    cut = CutoffSpec(0.01, 0.1)  # a band of 0.09 keeps a sliver of mass
    assert cut._norm > 0.0
    assert chi(cut, 0.1) == 1.0 and np.all(np.isfinite(chi(cut, np.linspace(0.0, 0.2, 401))))


def test_weight_spec_rejects_negative_speed(cut):
    with pytest.raises(ValueError):
        WeightSpec(cutoff=cut, v=-0.5, x0=4.0)


@pytest.mark.parametrize("v,x0", [(np.inf, 4.0), (np.nan, 4.0), (1.0, np.nan),
                                  (1.0, np.inf), (1.0, -np.inf)])
def test_weight_spec_rejects_nonfinite_keys(cut, v, x0):
    with pytest.raises(ValueError):
        WeightSpec(cutoff=cut, v=v, x0=x0)


def test_sup_chi_prime_reference_value(wspec):
    assert wspec.sup_chi_prime == pytest.approx(1.1756371919630966, rel=1e-9)


def test_moving_weight_translation(wspec):
    x = np.linspace(0.0, 10.0, 400)
    for t in (0.0, 0.7, 2.0):
        direct = chi(wspec.cutoff, x + wspec.v * t - wspec.x0)
        assert np.array_equal(moving_weight(wspec, x, t), direct)


def test_moving_weight_foot_sweeps_left(wspec):
    # support foot sits at x0 + eps - v t
    for t in (0.0, 1.0, 2.5):
        foot = wspec.x0 + EPS - wspec.v * t
        assert moving_weight(wspec, foot - 1e-6, t) == 0.0
        assert moving_weight(wspec, foot + 0.05, t) > 0.0


def test_moving_weight_derivative_orders(wspec):
    x = np.linspace(0.0, 10.0, 200)
    w1 = moving_weight(wspec, x, 0.5, 1)
    assert np.array_equal(w1, chi(wspec.cutoff, x + 0.5 - wspec.x0, 1))
    # stacked orders, in any order and with the support edges and both
    # plateaus sampled, match the single-order calls bit for bit
    s = np.concatenate([np.linspace(-1.0, 3.0, 401), [EPS, B, EPS + 1e-9, B - 1e-9]])
    orders = (3, 0, 2, 1)
    stacked = chi(wspec.cutoff, s, orders)
    assert stacked.shape == (4, s.size)
    for row, k in zip(stacked, orders):
        assert np.array_equal(row, chi(wspec.cutoff, s, k))
    for x0 in (0.0, 1.3, EPS, B):
        assert np.array_equal(chi(wspec.cutoff, x0, orders),
                              [chi(wspec.cutoff, x0, k) for k in orders])
    assert np.array_equal(moving_weight(wspec, x, 0.5, (0, 1))[1], w1)


def test_cutoff_construction_peak_memory():
    # the quadrature runs over 256 panels at a time and forms no derivative
    # pieces; all 4096 panels at once take 393 kB per array, 4.4 MB in all
    CutoffSpec(EPS, B)
    tracemalloc.start()
    try:
        CutoffSpec(EPS, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
