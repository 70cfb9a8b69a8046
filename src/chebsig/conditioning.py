"""Conditioning of polynomial bases under the continuous L2 inner product.

A basis is discretized as a tall matrix whose column j samples the degree-j
basis function on a fine second-kind Chebyshev grid, with every row scaled
by the square root of the matching Clenshaw-Curtis quadrature weight.  The
Euclidean inner product of two such columns is then the quadrature value of
the L2 inner product of the basis functions, so singular values and
condition numbers of the matrix approximate those of the continuous basis.
For polynomial columns and the default grid the quadrature is exact to
rounding, which is why the digits here are grid-independent.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from .cheb import Domain, _count, _finite, cheb_points_second_kind

__all__ = [
    "Basis",
    "NumericallySingularError",
    "clenshaw_curtis_weights",
    "build_basis_matrix",
    "singular_values",
    "condition_number",
    "conditioning_sweep",
]

DEFAULT_GRID = 1024

#: sigma_min below 1e3 * eps * sigma_max counts as numerically singular.
_SINGULAR_FACTOR = 1e3 * 2.0 ** -52


class Basis(enum.Enum):
    CHEBYSHEV = "chebyshev"
    MONOMIAL = "monomial"


class NumericallySingularError(ValueError):
    """The basis matrix is numerically rank-deficient."""


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Quadrature weights for the n+1 second-kind points on [-1, 1]: a
    fresh copy of the weights computed once per n."""
    return _clenshaw_curtis_weights(_count(n, "n", 0)).copy()


@functools.lru_cache(maxsize=8)
def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """The weights of ``clenshaw_curtis_weights``, read-only: the (n+1) x
    n/2 cosine matrix is built in place (theta 2k is exactly 2 theta k)
    once per n, and run-all asks for two sizes."""
    if n == 0:
        w = np.array([2.0])
    else:
        theta = np.arange(n + 1) * (np.pi / n)
        ks = np.arange(1, n // 2 + 1)
        b = np.where(ks == n / 2, 1.0, 2.0)
        m = np.outer(theta, 2.0 * ks)
        correction = np.cos(m, out=m) @ (b / (4.0 * ks ** 2 - 1.0))
        w = (1.0 - correction) * (2.0 / n)
        w[0] *= 0.5
        w[-1] *= 0.5
    w.flags.writeable = False
    return w


def build_basis_matrix(basis: Basis, domain: Domain, max_degree: int) -> np.ndarray:
    """Assemble the weighted sample matrix for degrees 0..max_degree: one
    column per degree, sqrt-weight scaled, one row per grid point.

    The grid has max(DEFAULT_GRID, 4*(max_degree+1)) points, enough for the
    quadrature to resolve every column product.  ValueError if an entry
    overflows.
    """
    max_degree = _count(max_degree, "max_degree", 0)
    grid_size = max(DEFAULT_GRID, 4 * (max_degree + 1))
    nodes = cheb_points_second_kind(grid_size - 1, domain)
    x = nodes.points
    weights = _clenshaw_curtis_weights(grid_size - 1) * (domain.width / 2.0)
    sqrt_w = np.sqrt(weights)
    with np.errstate(over="ignore", invalid="ignore"):
        if basis is Basis.CHEBYSHEV:
            # T_{k+1} = 2 s T_k - T_{k-1}, one new column per degree.
            s = domain.to_unit(x)
            cols = [np.ones_like(s), s][: max_degree + 1]
            for _ in range(max_degree - 1):
                cols.append(2.0 * s * cols[-1] - cols[-2])
        else:
            cols = [x ** k for k in range(max_degree + 1)]
        return _finite(np.column_stack(cols) * sqrt_w[:, None],
                       f"the {basis.value} basis of degree {max_degree} on "
                       f"[{domain.a}, {domain.b}] overflows")


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of the weighted sample matrix, descending."""
    return np.linalg.svd(_finite(m, "the matrix must be finite"), compute_uv=False)


def condition_number(m: np.ndarray) -> float:
    """sigma_max / sigma_min of the basis matrix.

    Raises
    ------
    NumericallySingularError
        If sigma_min is below 1e3 * eps * sigma_max.
    """
    sv = singular_values(m)
    if sv[-1] <= _SINGULAR_FACTOR * sv[0]:
        raise NumericallySingularError(
            f"numerically singular basis matrix (sigma ratio {sv[-1] / sv[0]:.3e})"
        )
    return float(sv[0] / sv[-1])


def conditioning_sweep(basis: Basis, domain: Domain, n_max: int) -> np.ndarray:
    """Condition number of the degree 0..n truncations for n = 0..n_max."""
    n_max = _count(n_max, "n_max", 0)
    full = build_basis_matrix(basis, domain, n_max)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        out[n] = condition_number(full[:, : n + 1])
    return out
