"""Finite-difference operators: stencil exactness, traces, quadrature, interpolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csc_matrix, csr_matrix, diags as sp_diags, identity as sp_identity

from kdvhl.config import ConfigError
from kdvhl.discretization import (
    Field,
    Grid1D,
    _Hermite,
    _trace_weights,
    deriv_matrix,
    fd_weights,
    integrate,
    trace_derivs,
)
from kdvhl.solver import _System


def test_fd_weights_classic_forward_difference():
    w = fd_weights(np.array([0.0, 1.0, 2.0]), 0.0, 1)
    assert w == pytest.approx([-1.5, 2.0, -0.5], abs=1e-14)


def test_fd_weights_second_derivative():
    w = fd_weights(np.array([0.0, 1.0, 2.0]), 1.0, 2)
    assert w == pytest.approx([1.0, -2.0, 1.0], abs=1e-14)


def test_fd_weights_polynomial_exactness():
    xs = np.array([0.0, 0.3, 1.1, 1.7, 2.4])
    for k in (1, 2, 3):
        w = fd_weights(xs, 0.9, k)
        for deg in range(len(xs)):
            val = w @ xs**deg
            exact = 0.0
            if deg >= k:
                coef = np.prod(np.arange(deg, deg - k, -1))
                exact = coef * 0.9 ** (deg - k)
            assert val == pytest.approx(exact, abs=1e-10)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_fd_weights_exact_on_drawn_polynomials(data):
    # 1 to 8 distinct nodes on a lattice of spacing h, in any order, x0 anywhere
    # near them, k < len(xs): p(x) = sum_j c_j ((x - x0)/h)^j has degree < len(xs)
    # and p^(k)(x0) = k! c_k / h^k, up to the rounding of the terms the weights sum
    n = data.draw(st.integers(1, 8), label="nodes")
    k = data.draw(st.integers(0, n - 1), label="k")
    h = data.draw(st.floats(1e-3, 1e3), label="h")
    xs = h * np.array(data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n,
                                         unique=True), label="lattice"), dtype=float)
    x0 = h * data.draw(st.floats(-20.0, 20.0), label="x0/h")
    c = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="c")
    s = (xs - x0) / h
    vals = sum(cj * s**j for j, cj in enumerate(c))
    w = fd_weights(xs, x0, k)
    want = math.factorial(k) * c[k] / h**k
    assert abs(w @ vals - want) <= 1e-12 * (np.abs(w) @ np.abs(vals))


def test_fd_weights_needs_enough_nodes():
    with pytest.raises(ValueError):
        fd_weights(np.array([0.0, 1.0]), 0.0, 2)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(-1.0, 100)
    with pytest.raises(ValueError):
        Grid1D(10.0, 5)
    g = Grid1D(10.0, 11)
    assert g.h == pytest.approx(1.0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0


def test_grid_nodes_built_once_and_read_only():
    g = Grid1D(10.0, 11)
    assert g.nodes is g.nodes
    assert np.array_equal(g.nodes, np.linspace(0.0, 10.0, 11))
    with pytest.raises(ValueError, match="read-only"):
        g.nodes[3] = 0.0


def test_field_shape_check():
    g = Grid1D(10.0, 11)
    with pytest.raises(ValueError):
        Field(g, np.zeros(10), 0.0)


@pytest.mark.parametrize("k,poly,dpoly", [
    (1, lambda x: x**2, lambda x: 2 * x),
    (2, lambda x: x**2, lambda x: 2.0 + 0 * x),
    (2, lambda x: x**3, lambda x: 6 * x),
    (3, lambda x: x**3, lambda x: 6.0 + 0 * x),
    (3, lambda x: x**4, lambda x: 24 * x),
])
def test_deriv_matrix_polynomial_exactness(k, poly, dpoly):
    g = Grid1D(8.0, 33)
    D = deriv_matrix(g, k)
    got = D @ poly(g.nodes)
    assert np.max(np.abs(got - dpoly(g.nodes))) <= 1e-7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_deriv_matrix_second_order_on_smooth(k):
    errs = []
    for n in (201, 401):
        g = Grid1D(10.0, n)
        got = deriv_matrix(g, k) @ np.sin(g.nodes)
        exact = {1: np.cos, 2: lambda x: -np.sin(x), 3: lambda x: -np.cos(x)}[k](g.nodes)
        errs.append(np.max(np.abs(got - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def _per_row_deriv_matrix(n, h, k):
    """Reference assembly: one Fornberg call per row, centered inside and
    one-sided same-width near the edges."""
    rows, cols, data = [], [], []
    for i in range(n):
        if k == 1:
            lo, m = min(max(i - 1, 0), n - 3), 3
        elif k == 2:
            lo, m = (i - 1, 3) if 1 <= i <= n - 2 else ((0, 4) if i == 0 else (n - 4, 4))
        else:
            lo, m = (i - 2, 5) if 2 <= i <= n - 3 else ((0, 5) if i < 2 else (n - 5, 5))
        w = fd_weights(np.arange(m, dtype=float) * h, (i - lo) * h, k)
        rows.extend([i] * m)
        cols.extend(range(lo, lo + m))
        data.extend(w)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("n", [8, 9, 601])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_deriv_matrix_equals_per_row_reference(n, k):
    g = Grid1D(30.0, n)
    got = deriv_matrix(g, k)
    ref = _per_row_deriv_matrix(n, g.h, k)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


@pytest.mark.parametrize("n", [8, 601, 6401])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_deriv_matrix_product_equals_csr_matrix_bit_for_bit(n, k):
    # the operator runs the kernels csr_matrix @ runs, on a vector and on the
    # C-ordered blocks the observer passes; signed zeros in x and exact zeros in
    # the sums must come out with the same sign
    D = deriv_matrix(Grid1D(30.0, n), k)
    ref = csr_matrix(D, shape=(n, n))
    rng = np.random.default_rng(n + k)
    x = rng.standard_normal(n)
    x[: n // 2] = 0.0
    x[: n // 4] = -0.0
    block = np.ascontiguousarray(np.stack([x] + [rng.standard_normal(n) for _ in range(53)]).T)
    for v in (x, block, np.ascontiguousarray(block[:, :1])):
        got, want = D @ v, ref @ v
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_implicit_system_solve_matches_lil_reference():
    # _System keeps only the band factors of its operator, so the assembly is
    # checked through L U against the LIL-built reference, entry for entry
    g = Grid1D(40.0, 801)
    dt, theta = 0.0125, 0.5
    n = g.n
    D3 = csr_matrix(deriv_matrix(g, 3), shape=(n, n))
    A = (sp_identity(n, format="lil") + (theta * dt) * D3.tolil()).tolil()
    for r in (0, n - 2, n - 1):
        A.rows[r], A.data[r] = [r], [1.0]
    lu = _System(g, dt, theta).lu
    kl, L, ku, U = lu.kl, lu.L, lu.ku, lu.U
    # band storage: L[i - j, j] = L_ij below a unit diagonal, U[ku + i - j, j] = U_ij
    Lm = sp_identity(n) + sp_diags([L[d, : n - d] for d in range(1, kl + 1)],
                                   [-d for d in range(1, kl + 1)])
    Um = sp_diags([U[ku - d, d:] for d in range(ku + 1)], list(range(ku + 1)))
    assert abs(Lm @ Um - csc_matrix(A)).max() <= np.finfo(float).eps * abs(A).max()


def test_deriv_matrix_invalid_order():
    with pytest.raises(ValueError):
        deriv_matrix(Grid1D(10.0, 11), 4)


def test_trace_derivs_on_polynomials():
    g = Grid1D(8.0, 81)
    assert trace_derivs(Field(g, g.nodes**2, 0.0)) == pytest.approx((0.0, 0.0, 2.0, 0.0, 0.0),
                                                                    abs=1e-8)
    # the 3-node first-derivative probe is second order, so on a cubic its
    # wall value carries a 2 h^2 truncation term; the deeper probes are exact
    d0, d1, d2, d3, d4 = trace_derivs(Field(g, g.nodes**3, 0.0))
    assert (d0, d2, d3) == pytest.approx((0.0, 0.0, 6.0), abs=1e-7)
    assert abs(d1) <= 2.0 * g.h**2 + 1e-9
    assert abs(d4) <= 1e-5  # the 6-node probe divides rounding by h^4
    got = trace_derivs(Field(g, 2.0 + 3.0 * g.nodes, 0.0))
    assert got == pytest.approx((2.0, 3.0, 0.0, 0.0, 0.0), abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_trace_weights_quiet_at_huge_h():
    # the recurrence's running product of node gaps overflows at h = 5e72; the
    # probe rows are refused without a numpy warning
    with pytest.raises(ConfigError, match="grid.L"):
        _trace_weights.__wrapped__(5e72)


def test_integrate_exact_on_linear():
    g = Grid1D(10.0, 101)
    assert integrate(2.0 * g.nodes + 1.0, g) == pytest.approx(110.0, rel=1e-13)


def test_integrate_window_semantics():
    g = Grid1D(10.0, 101)
    v = np.ones(g.n)
    assert integrate(v, g, window=(0, 100)) == pytest.approx(10.0)
    assert integrate(v, g, window=(10, 20)) == pytest.approx(1.0)
    assert integrate(v, g, window=(20, 10)) == 0.0
    assert integrate(v, g, window=(50, 50)) == 0.0
    # out-of-range indices clip to the grid
    assert integrate(v, g, window=(-5, 200)) == pytest.approx(10.0)


def test_hermite_reproduces_cubics_on_nonuniform_knots():
    x = np.sort(np.random.default_rng(5).uniform(-2.0, 3.0, 17))
    p = np.polynomial.Polynomial([2.0, 0.3, -1.2, 0.7])
    dp = p.deriv()
    h = _Hermite(x, p(x), dp(x))
    t = np.concatenate([np.linspace(x[0], x[-1], 1001), x])
    assert np.max(np.abs(h(t) - p(t))) <= 1e-13 * np.max(np.abs(p(t)))
    # the slope by complex step, which continues each cubic piece analytically
    def slope(t):
        return np.imag(h(t + 1e-30j)) / 1e-30

    assert np.max(np.abs(slope(t) - dp(t))) <= 1e-12 * np.max(np.abs(dp(t)))
    # a knot returns its value exactly and its slope to an ulp (the step's /h rounds);
    # a scalar gives the array's entry
    assert np.array_equal(h(x[:-1]), p(x[:-1]))
    assert np.all(np.abs(slope(x[:-1]) - dp(x[:-1])) <= np.spacing(np.abs(dp(x[:-1]))))
    assert np.ndim(h(0.3)) == 0 and h(0.3) == h(np.array([0.3]))[0]
