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

from .cheb import _BLOCK_ELEMENTS, Domain, _count, _finite, cheb_points_second_kind

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


def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """The weights of ``clenshaw_curtis_weights``, read-only; cached for
    n <= 2^16, so no larger n is held once its caller drops it."""
    return _cached_weights(n) if n <= 2 ** 16 else _cached_weights.__wrapped__(n)


@functools.lru_cache(maxsize=8)
def _cached_weights(n: int) -> np.ndarray:
    """The rows of cos(2 outer(theta, k)) @ moments, a block at a time in
    one reused buffer (theta 2k is exactly 2 theta k): memory O(block), not
    O(n^2).  BLAS dgemv sums rows four at a time in one order and a call's
    last one to three rows in others (SkylakeX); blocks start at multiples
    of 64 rows, so each row gets the bits of one call over the whole matrix
    on one thread.  Below n of about 14000 a block is also too small for
    OpenBLAS to split over threads, a split at odd rows that moved the bits
    of 273 sizes up to 1399.  A one-row product goes to ddot, which sums in
    another order again, so a lone last row joins the block before it."""
    if n == 0:
        w = np.array([2.0])
    else:
        theta = np.arange(n + 1) * (np.pi / n)
        ks = np.arange(1, n // 2 + 1)
        b = np.where(ks == n / 2, 1.0, 2.0)
        ks2, moments = 2.0 * ks, b / (4.0 * ks ** 2 - 1.0)
        step = max(_BLOCK_ELEMENTS // (64 * max(ks.size, 1)), 1) * 64
        buf = np.empty((min(step + 1, n + 1), ks.size))
        correction = np.empty(n + 1)
        for start in range(0, n, step):
            rows = slice(start, start + step if start + step < n else n + 1)
            block = np.multiply(theta[rows, None], ks2, out=buf[: rows.stop - start])
            correction[rows] = np.cos(block, out=block) @ moments
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
    # Column-major, so each column is written in one contiguous pass.
    m = np.empty((grid_size, max_degree + 1), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        if basis is Basis.CHEBYSHEV:
            # T_{k+1} = 2 s T_k - T_{k-1}, one new column per degree.
            s = domain.to_unit(x)
            m[:, 0] = 1.0
            if max_degree:
                m[:, 1] = s
            for k in range(2, max_degree + 1):
                m[:, k] = 2.0 * s * m[:, k - 1] - m[:, k - 2]
        else:
            for k in range(max_degree + 1):
                m[:, k] = x ** k
        m *= sqrt_w[:, None]
    return _finite(m, f"the {basis.value} basis of degree {max_degree} on "
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
