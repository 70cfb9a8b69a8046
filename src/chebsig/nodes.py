"""Legendre nodes, node-set comparisons, and floating-point node probes."""

from __future__ import annotations

import math

import numpy as np

from .cheb import UNIT_DOMAIN, Domain, NodeSet, _count, _finite, _row_blocks

__all__ = [
    "legendre_points",
    "uniform_points",
    "compare_nodes",
    "mean_distance",
    "smallest_nonzero_midpoint",
]

#: Newton sweeps before legendre_points gives up; counts up to 1e4 need 4 or 5.
_NEWTON_SWEEPS = 100


def _legendre_and_derivative(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def legendre_points(count: int) -> NodeSet:
    """Roots of the degree-count Legendre polynomial on [-1, 1], ascending.

    Newton iteration on the recurrence, started from the classical
    cos(pi (4k-1) / (4n+2)) guesses, run until every update is below 1e-15.

    Raises
    ------
    RuntimeError
        If Newton has not converged after ``_NEWTON_SWEEPS`` sweeps (not
        expected for any count <= 1e4).
    """
    count = _count(count, "count", 1)
    k = np.arange(1, count + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * count + 2))
    for _ in range(_NEWTON_SWEEPS):
        p, dp = _legendre_and_derivative(count, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise RuntimeError(f"Legendre Newton iteration stalled for count={count}")
    return NodeSet(np.sort(x), UNIT_DOMAIN)


def uniform_points(count: int, domain: Domain = UNIT_DOMAIN) -> NodeSet:
    """count equally spaced points spanning the domain, endpoints included."""
    count = _count(count, "count", 2)
    return NodeSet(np.linspace(domain.a, domain.b, count), domain)


def compare_nodes(a: NodeSet, b: NodeSet) -> float:
    """Largest absolute gap between two equally sized node sets.

    Both sets are compared in ascending order (NodeSet points already are).
    """
    if len(a) != len(b):
        raise ValueError(f"node counts differ: {len(a)} vs {len(b)}")
    return float(np.max(np.abs(a.points - b.points)))


def mean_distance(points) -> np.ndarray:
    """Geometric mean distance from each point to the other points.

    Entry j is (prod_{i != j} |x_j - x_i|)^(1/(count-1)); the zero
    self-distance is excluded, otherwise every entry would vanish.
    Computed through logarithms so large point sets neither overflow nor
    underflow the product, a block of rows at a time, so memory is
    O(block), not O(count^2).  Non-finite points, or finite ones whose span
    overflows, raise ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("need at least 2 points")
    _finite(pts, "points must be finite")
    if not math.isfinite(float(pts.max()) - float(pts.min())):
        raise ValueError("the span of the points overflows")
    # Each row's sum is row-local, so blocks of rows give the bits of the
    # whole matrix.
    logs = np.empty(pts.size)
    for rows, diff in _row_blocks(pts.size, pts.size):
        np.subtract(pts[rows, None], pts, out=diff)
        np.abs(diff, out=diff)
        np.fill_diagonal(diff[:, rows.start :], 1.0)  # log 1 = 0 leaves the self-distance out
        if np.any(diff == 0.0):
            raise ValueError("points must be distinct")
        np.log(diff, out=diff)
        diff.sum(axis=1, out=logs[rows])
    return np.exp(logs / (pts.size - 1))


def smallest_nonzero_midpoint() -> int:
    """First even n >= 2 whose middle second-kind node is nonzero in binary64.

    The midpoint entry is cos((n/2) pi / n) computed exactly as written,
    with pi the nearest binary64 value: multiply by the index first, then
    divide by n, then take the cosine.  Deterministic on IEEE-754 hardware.
    """
    n = 2
    while math.cos((n // 2) * math.pi / n) == 0.0:
        n += 2
    return n
