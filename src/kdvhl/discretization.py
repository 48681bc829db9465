"""Uniform half-line grid, finite-difference operators and quadrature.

Interior stencils are the standard second-order centered ones (5-point for the
third derivative); rows too close to an edge fall back to one-sided stencils of
the same width, which keeps every row at accuracy order >= 2.  Stencil weights
come from the classic recurrence for finite-difference coefficients on
arbitrary nodes, so boundary closures and trace probes share one code path.
On a uniform grid a row's weights depend only on its stencil's width and the
row's offset inside it, so each distinct stencil (at most five per operator)
is derived once and copied into every row that uses it.  scipy's compiled CSR kernels
apply the operators.  A cubic Hermite interpolant serves chi and the oracle's inflow.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import import_module, machinery, util

import numpy as np

from .config import ConfigError

__all__ = [
    "Grid1D",
    "Field",
    "fd_weights",
    "deriv_matrix",
    "trace_derivs",
    "integrate",
]


def _scipy_ext(name: str):
    """scipy's compiled module `name`: the one in sys.modules once loaded, else loaded
    from its file, running no scipy package __init__ (~0.3 s of imports kdvhl never uses),
    else the normal import, giving the same module.  kdvhl loads four: `_sparsetools` (CSR
    products), `_superlu` (gstrf) and `_fblas` (dtbsv) on import, and `pypocketfft`
    (r2c/c2r) on the oracle's first march."""
    if name in sys.modules:
        return sys.modules[name]
    stem = os.path.join(util.find_spec("scipy").submodule_search_locations[0],  # no import
                        *name.split(".")[1:])
    for path in (stem + s for s in machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)):
        spec = util.spec_from_file_location(name, path)
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return sys.modules.setdefault(name, module)
    return import_module(name)


_sparsetools = _scipy_ext("scipy.sparse._sparsetools")


def fd_weights(xs, x0: float, k: int):
    """Weights approximating the k-th derivative at x0 from nodes xs.

    Fornberg's recurrence; exact for polynomials of degree < len(xs).
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if k >= n:
        raise ValueError(f"need more than {k} nodes for derivative order {k}")
    c = np.zeros((n, k + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, k)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for s in range(mn, 0, -1):
                    c[i, s] = c1 * (s * c[i - 1, s - 1] - c5 * c[i - 1, s]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for s in range(mn, 0, -1):
                c[j, s] = (c4 * c[j, s] - s * c[j, s - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, k]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [0, L] with n nodes, h = L/(n-1), refused where its wall probes fail."""

    L: float
    n: int

    def __post_init__(self):
        if not (self.L > 0.0):
            raise ValueError(f"grid length must be positive, got {self.L}")
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 nodes, got {self.n}")
        _trace_weights(self.h)  # builds the x = 0 probe rows, refusing a bad h

    @property
    def h(self) -> float:
        return self.L / (self.n - 1)

    @cached_property
    def nodes(self):
        nodes = np.linspace(0.0, self.L, self.n)
        nodes.flags.writeable = False  # shared by every reader: copy it before writing
        return nodes


@dataclass
class Field:
    """Grid function at one time level."""

    grid: Grid1D
    values: np.ndarray
    t: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"field has {self.values.shape} values for an n={self.grid.n} grid"
            )


def _row_stencils(n: int, k: int):
    """First node and width of every row's stencil: centered inside, one-sided
    same-width near the edges so accuracy order 2 holds on every row."""
    i = np.arange(n)
    if k == 1:
        return np.clip(i - 1, 0, n - 3), np.full(n, 3)
    if k == 2:
        lo, m = i - 1, np.full(n, 3)
        lo[0], lo[-1] = 0, n - 4
        m[0] = m[-1] = 4
        return lo, m
    if k == 3:
        return np.clip(i - 2, 0, n - 5), np.full(n, 5)
    raise ValueError(f"derivative order must be 1, 2 or 3, got {k}")


class _CSR(namedtuple("_CSR", "data indices indptr")):
    """A square matrix as CSR arrays: rows in order, int32 column indices."""

    def __matmul__(self, x):
        """The product with a vector or a C-ordered (n, m) block, by csr_matrix's kernels."""
        n = len(self.indptr) - 1
        if len(x) != n:  # the kernels would read past the end of x
            raise ValueError(f"an operator on {n} nodes applied to {len(x)} rows")
        y = np.zeros(x.shape)
        if x.ndim == 1:
            _sparsetools.csr_matvec(n, n, self.indptr, self.indices, self.data, x, y)
        else:
            _sparsetools.csr_matvecs(n, n, x.shape[1], self.indptr, self.indices, self.data,
                                     x.ravel(), y.ravel())
        return y


@lru_cache(maxsize=64)
def _deriv_matrix_cached(n: int, h: float, k: int) -> _CSR:
    lo, m = _row_stencils(n, k)
    offset = np.arange(n) - lo
    indptr = np.concatenate(([0], np.cumsum(m))).astype(np.int32)
    indices = (np.repeat(lo - indptr[:-1], m) + np.arange(indptr[-1])).astype(np.int32)
    data = np.empty(indptr[-1])
    for off, width in sorted(set(zip(offset.tolist(), m.tolist()))):
        with np.errstate(all="ignore"):  # a huge or tiny h is refused just below
            w = fd_weights(np.arange(width, dtype=float) * h, off * h, k)
        if not np.all(np.isfinite(w)):
            raise ConfigError(f"key 'grid.L' = {h * (n - 1):.6g} with grid.n = {n} gives h = "
                              f"{h:.3g}, at which the order-{k} difference weights are not finite")
        first = indptr[:-1][(offset == off) & (m == width)]  # each row's first entry
        data[first[:, None] + np.arange(width)] = w
    return _CSR(data, indices, indptr)


def deriv_matrix(grid: Grid1D, k: int) -> _CSR:
    """The k-th derivative operator for the grid, as CSR arrays (cached per (n, h, k))."""
    return _deriv_matrix_cached(grid.n, grid.h, k)


@lru_cache(maxsize=16)
def _trace_weights(h: float):
    """The one-sided probe rows at x = 0 for spacing h: 3 nodes for u_x, 4 for u_xx,
    5 for u_xxx, 6 for u_xxxx, each accuracy order 2, built once per h.

    Refuses an h at which a row is not finite or misses its moment condition
    sum_j w_j (jh)^k = k!: past h ~ 2e61 the recurrence's running product of node gaps
    overflows and the u_xxxx row loses its last weight, and near 1e-79 the rows reach
    inf, while the operators' narrower stencils stay finite.  h^k is applied one factor
    at a time, so no power of h leaves the float range."""
    with np.errstate(all="ignore"):  # a bad h is refused just below
        rows = tuple(fd_weights(np.arange(k + 2, dtype=float) * h, 0.0, k)
                     for k in (1, 2, 3, 4))
        for k, w in enumerate(rows, 1):
            scaled = w
            for _ in range(k):
                scaled = scaled * h
            moment = scaled @ np.arange(len(w), dtype=float) ** k
            if not (np.all(np.isfinite(w)) and abs(moment / math.factorial(k) - 1.0) <= 1e-10):
                raise ConfigError(f"key 'grid.L' gives h = {h:.3g}, at which the order-{k} "
                                  f"one-sided wall probe is not finite or not exact on x^{k}")
    return rows


def trace_derivs(field: Field):
    """(u, u_x, u_xx, u_xxx, u_xxxx) at the left boundary node, one-sided, order >= 2."""
    u = field.values
    return (u[0],) + tuple(float(w @ u[:len(w)]) for w in _trace_weights(field.grid.h))


def integrate(values, grid: Grid1D, window=None) -> float | np.ndarray:
    """Composite trapezoid of nodal values along the last axis, row by row as in 1-D, on
    the inclusive index window (i0, i1) or the full grid; empty or inverted windows give 0."""
    values = np.asarray(values, dtype=float)
    if window is None:
        i0, i1 = 0, grid.n - 1
    else:
        i0, i1 = window
        i0 = max(int(i0), 0)
        i1 = min(int(i1), grid.n - 1)
    if i1 <= i0:
        return 0.0
    seg = values[..., i0 : i1 + 1]
    return grid.h * (np.sum(seg, axis=-1) - 0.5 * (seg[..., 0] + seg[..., -1]))


class _Hermite:
    """Piecewise-cubic Hermite interpolant of values y and slopes dy at knots x.

    Each piece is a cubic in s = t - x_i, so a knot returns its value and slope
    exactly.  One path serves a scalar t (a few microseconds) and an array.  A
    complex t picks its piece by its real part, for a complex-step derivative.
    """

    def __init__(self, x, y, dy):
        x, y, dy = (np.asarray(v, dtype=float) for v in (x, y, dy))
        h = np.diff(x)
        sec = np.diff(y) / h
        self._inner, self._left = x[1:-1], x[:-1]
        self._coef = np.array([y[:-1], dy[:-1], (3.0 * sec - 2.0 * dy[:-1] - dy[1:]) / h,
                               (dy[:-1] + dy[1:] - 2.0 * sec) / h**2])

    def __call__(self, t):
        """The interpolant at t."""
        i = np.searchsorted(self._inner, t.real, side="right")
        y, m, a, b = self._coef[:, i]
        s = t - self._left[i]
        return y + s * (m + s * (a + s * b))
