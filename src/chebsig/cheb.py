"""Chebyshev nodes, series, and interpolants on an interval [a, b].

The central object is :class:`ChebInterpolant`, a Chebyshev series stored as
an ascending coefficient vector ``a_0 ... a_n`` together with its domain.
Construction from values at second-kind nodes goes through a fast cosine
transform (a length-2n real FFT of the even extension); evaluation uses the
Clenshaw recurrence.  Barycentric evaluation on raw node values is a second
route inside [a, b], exact at the nodes, and Clenshaw outside it.

Points outside the domain are accepted by all evaluation routines and give
polynomial extrapolation, which diverges rapidly away from [a, b]; callers
that need in-domain semantics must clip themselves.  Values that overflow
raise ValueError.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Domain",
    "NodeKind",
    "NodeSet",
    "ChebInterpolant",
    "UnresolvedFunctionError",
    "cheb_points_second_kind",
    "cheb_points_first_kind",
    "eval_cheb_poly",
    "interpolant_from_values",
    "interpolant_from_function",
    "evaluate",
    "values_at_nodes",
    "evaluate_barycentric",
    "derivative",
    "min_and_max",
    "truncate",
]

_EPS = 2.0 ** -52


class UnresolvedFunctionError(RuntimeError):
    """Adaptive construction hit the largest grid without resolving.

    Attributes
    ----------
    best : ChebInterpolant
        The interpolant from the finest grid tried, for diagnostic use.
    """

    def __init__(self, message: str, best: "ChebInterpolant"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Domain:
    """Closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("domain endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"domain requires a < b, got [{self.a}, {self.b}]")
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(b - a) and math.isfinite(a + b)):
            raise ValueError(f"domain [{a}, {b}] overflows: b - a or a + b is not finite")

    @property
    def width(self) -> float:
        return self.b - self.a

    def from_unit(self, s):
        """Map s in [-1, 1] onto [a, b]."""
        return 0.5 * (self.a + self.b) + 0.5 * (self.b - self.a) * np.asarray(s)

    def to_unit(self, x):
        """Map x in [a, b] onto [-1, 1]."""
        return (2.0 * np.asarray(x) - (self.a + self.b)) / (self.b - self.a)


UNIT_DOMAIN = Domain(-1.0, 1.0)


class NodeKind(enum.Enum):
    CHEB_FIRST = "cheb-first"
    CHEB_SECOND = "cheb-second"
    LEGENDRE = "legendre"
    UNIFORM = "uniform"
    CUSTOM = "custom"


@dataclass(frozen=True)
class NodeSet:
    """A tagged, strictly increasing vector of sample abscissae."""

    kind: NodeKind
    points: np.ndarray
    domain: Domain

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("points must be a non-empty 1-D vector")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly increasing")
        if pts[0] < self.domain.a or pts[-1] > self.domain.b:
            raise ValueError("points must lie within the domain")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class ChebInterpolant:
    """Chebyshev series sum_k coeffs[k] * T_k on a domain [a, b].

    Coefficients are stored in ascending degree order, ``coeffs[0]`` being
    the constant term.  Degree is ``len(coeffs) - 1``.
    """

    coeffs: np.ndarray
    domain: Domain

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-D vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __len__(self) -> int:
        """Number of stored coefficients (the series "length")."""
        return self.coeffs.size

    def __call__(self, x):
        return evaluate(self, x)

    def __add__(self, other: "ChebInterpolant") -> "ChebInterpolant":
        """Coefficient-wise sum; the shorter series is zero-padded."""
        if not isinstance(other, ChebInterpolant):
            return NotImplemented
        if self.domain != other.domain:
            raise ValueError("cannot add interpolants on different domains")
        n = max(self.coeffs.size, other.coeffs.size)
        c = np.zeros(n)
        c[: self.coeffs.size] += self.coeffs
        c[: other.coeffs.size] += other.coeffs
        return ChebInterpolant(c, self.domain)


def _mirrored_half_points(count: int, angles_of_positive_half) -> np.ndarray:
    """Build an ascending, exactly sign-symmetric point set on [-1, 1].

    The strictly positive points are computed from the given angle array via
    sin (small arguments, so no cancellation near the symmetry point), the
    negative half is their exact negation, and an odd middle point is pinned
    to 0.0.  This makes points[j] == -points[count-1-j] bit-exact.
    """
    pos = np.sin(angles_of_positive_half)
    out = np.empty(count)
    half = pos.size
    out[count - half:] = pos
    out[:half] = -pos[::-1]
    if count % 2 == 1:
        out[count // 2] = 0.0
    return out


def cheb_points_second_kind(n: int, domain: Domain = UNIT_DOMAIN) -> NodeSet:
    """Second-kind Chebyshev points: n+1 points cos(j*pi/n), ascending.

    Parameters
    ----------
    n : int
        Polynomial degree; the grid has n+1 points including both
        endpoints.  Must be >= 1 (a single node is not an interpolation
        grid).
    domain : Domain
        Interval the points are affinely mapped onto.

    Returns
    -------
    NodeSet
        Ascending points; on [-1, 1] the set is sign-symmetric bit-exactly.
    """
    if n < 1:
        raise ValueError("cheb_points_second_kind requires degree n >= 1")
    count = n + 1
    # Ascending order is x_j = sin((2j - n) pi / (2n)); take the j with a
    # positive argument and mirror.
    j = np.arange(n // 2 + 1, count)
    unit = _mirrored_half_points(count, (2 * j - n) * (np.pi / (2 * n)))
    return NodeSet(NodeKind.CHEB_SECOND, _map_unit_points(unit, domain, ends=True), domain)


def cheb_points_first_kind(count: int, domain: Domain = UNIT_DOMAIN) -> NodeSet:
    """First-kind (Gauss-Chebyshev) points: roots of T_count, ascending.

    These are cos((2j+1) pi / (2 count)) for j = 0 .. count-1, strictly
    interior to the domain, sign-symmetric bit-exactly on [-1, 1].
    """
    if count < 1:
        raise ValueError("cheb_points_first_kind requires count >= 1")
    # Ascending: x_j = sin((2j + 1 - count) pi / (2 count)).
    j = np.arange((count + 1) // 2, count)
    unit = _mirrored_half_points(count, (2 * j + 1 - count) * (np.pi / (2 * count)))
    return NodeSet(NodeKind.CHEB_FIRST, _map_unit_points(unit, domain), domain)


def _map_unit_points(unit: np.ndarray, domain: Domain, ends: bool = False) -> np.ndarray:
    """Map ascending unit points onto the domain; ``ends`` says that the
    first and last are -1 and 1, and pins them to a and b."""
    if domain.a == -1.0 and domain.b == 1.0:
        return unit  # keep the signed zeros / exact symmetry untouched
    # from_unit can round an end point just outside [a, b], e.g.
    # Domain(0.24, 3.14).from_unit(-1) = 0.23999999999999977, or just inside.
    pts = np.clip(domain.from_unit(unit), domain.a, domain.b)
    if ends:
        pts[0], pts[-1] = domain.a, domain.b
    if np.any(pts[1:] <= pts[:-1]):
        raise ValueError(
            f"domain [{domain.a}, {domain.b}] is too narrow to separate {unit.size} nodes"
        )
    return pts


def eval_cheb_poly(k: int, x):
    """T_k(x) by the three-term recurrence T_{k+1} = 2 x T_k - T_{k-1}.

    Accepts scalar or array x.  Arguments with |x| > 1 are extrapolation.
    """
    if k < 0:
        raise ValueError("degree k must be >= 0")
    x = np.asarray(x, dtype=float)
    t_prev = np.ones_like(x)
    if k == 0:
        return t_prev if t_prev.ndim else float(t_prev)
    t_cur = x.copy()
    for _ in range(k - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur if t_cur.ndim else float(t_cur)


def _values_to_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at ascending second-kind points.

    Realized as a type-I fast cosine transform: the values are reflected
    into an even sequence of length 2n and pushed through a real FFT.
    """
    n = values.size - 1
    g = values[::-1]  # reorder to cos(m*pi/n) sampling, m = 0..n
    ext = np.concatenate([g, g[-2:0:-1]])
    spec = np.fft.rfft(ext)
    coeffs = spec[: n + 1].real / n
    coeffs[0] *= 0.5
    coeffs[n] *= 0.5
    return coeffs


def interpolant_from_values(values, domain: Domain = UNIT_DOMAIN) -> ChebInterpolant:
    """Interpolant through values given at the n+1 second-kind points.

    Parameters
    ----------
    values : array_like, length n+1 with n >= 1
        Samples at ``cheb_points_second_kind(n, domain)``, ascending order.
    domain : Domain

    Returns
    -------
    ChebInterpolant
        Degree-n series; reading it back through :func:`values_at_nodes`
        reproduces the input to within 50 eps * max|values|.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need at least 2 values (degree n >= 1)")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return ChebInterpolant(_values_to_coeffs(v), domain)


def _chop_point(coeffs: np.ndarray, tol: float) -> int:
    """Series length after discarding the negligible tail.

    Envelope-plateau chopping rule of Aurentz & Trefethen (2017): walk the
    non-increasing envelope of |coeffs| until the decay stalls (a rounding
    plateau), then place the cut near the start of the plateau.  Returns
    ``len(coeffs)`` when no plateau below tol^(2/3) exists, which callers
    read as "not resolved".
    """
    n = coeffs.size
    if n < 17:
        return n
    env = np.abs(coeffs[::-1])
    np.maximum.accumulate(env, out=env)
    env = env[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]

    # Test j = 2..n while j2 = floor(1.25 j + 5.5) (round half up, as
    # published) stays <= n, that is while 5 j <= 4 n - 19; j2 increases
    # with j, so that is a prefix.  Entry i of e1 is env[j - 1] for
    # j = i + 2, whose j2 is (5 i + 32) // 4.
    e1 = env[1 : (4 * n - 19) // 5]
    # env is non-increasing, so its zeros are a suffix of e1.
    live = int(np.count_nonzero(e1))
    # The test is e2 / e1 > r with r = 3 (1 - ln e1 / ln tol), and e2 <= e1,
    # so it needs r < 1.  Where e1 > 2 tol^(2/3), r > 1 + 3 ln 2 / |ln tol|
    # (1.057 for tol = 2^-52), far past rounding: no j there can pass, and
    # those j are a prefix of e1.  Only the rest is tested.
    start = int(np.count_nonzero(e1[:live] > 2.0 * tol ** (2.0 / 3.0)))
    q = env[(5 * np.arange(start, live) + 28) // 4] / e1[start:live]
    r = 3.0 * (1.0 - np.log(e1[start:live]) / math.log(tol))
    # np.log and math.log (the one-j-at-a-time walk's) can differ in the
    # last bit, which could flip a near-tie.  Over the 1.67 M entries tested
    # in the 5802 chops of six adaptive benchmark seeds, the two r differed
    # by at most 6.7e-16, and no q lay within 2e-6 of its r.  So a decision
    # further than 1e-12 from its tie is the same with either log; inside
    # that band r is recomputed with math.log.
    for k in np.flatnonzero(np.abs(q - r) <= 1e-12):
        r[k] = 3.0 * (1.0 - math.log(e1[start + k]) / math.log(tol))
    # The walk stops at the first j whose ratio test passes, else at the
    # first zero of the envelope; with neither there is no plateau.
    hits = np.flatnonzero(q > r)
    if hits.size:
        i = start + int(hits[0])
    elif live < e1.size:
        i = live
    else:
        return n
    plateau_point = i + 1
    j2 = (5 * i + 32) // 4

    if env[plateau_point - 1] == 0.0:
        return plateau_point

    j3 = int(np.sum(env >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        env = env.copy()
        env[j2 - 1] = tol ** (7.0 / 6.0)
    cc = np.log10(env[:j2])
    cc += np.linspace(0.0, (-1.0 / 3.0) * math.log10(tol), j2)
    d = int(np.argmin(cc))
    return max(d, 1)


def interpolant_from_function(
    f: Callable,
    domain: Domain = UNIT_DOMAIN,
    n: int | None = None,
) -> ChebInterpolant:
    """Interpolant of a callable, either at a fixed degree or adaptively.

    Parameters
    ----------
    f : callable
        Vectorized real function, finite on the domain.
    domain : Domain
    n : int or None
        Fixed degree (samples at n+1 second-kind points).  None selects
        adaptive mode: grids of 2^k + 1 points for k = 3..16, accepted once
        the coefficient tail has decayed to a plateau below 2^-52
        relative to the largest coefficient, then chopped there.

    Raises
    ------
    UnresolvedFunctionError
        Adaptive mode still unresolved on the 2^16 + 1 grid; the exception
        carries the finest-grid interpolant in ``best``.
    """
    if n is not None:
        if n < 1:
            raise ValueError("fixed mode requires degree n >= 1")
        nodes = cheb_points_second_kind(n, domain)
        return interpolant_from_values(_sample(f, nodes.points), domain)

    coeffs = None
    for k in range(3, 17):
        m = 2 ** k
        nodes = cheb_points_second_kind(m, domain)
        coeffs = _values_to_coeffs(_sample(f, nodes.points))
        scale = np.max(np.abs(coeffs))
        if scale == 0.0:
            return ChebInterpolant(np.zeros(1), domain)
        cut = _chop_point(coeffs, _EPS)
        if cut < coeffs.size:
            return ChebInterpolant(coeffs[:cut], domain)
    raise UnresolvedFunctionError(
        "function not resolved on the 65537-point grid",
        ChebInterpolant(coeffs, domain),
    )


def _sample(f: Callable, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(points), dtype=float)
    if vals.ndim == 0:
        vals = np.full(points.shape, vals)  # a constant f may return a scalar
    elif vals.shape != points.shape:
        raise ValueError(
            f"f returned shape {vals.shape} for {points.size} points; "
            "it must return one value per point"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("function returned non-finite values on the grid")
    return vals


def values_at_nodes(p: ChebInterpolant) -> np.ndarray:
    """Values at the n+1 second-kind nodes via the inverse cosine transform.

    This is the synthesis half of the construction transform, so a
    values -> coefficients -> values round trip through it is accurate to a
    few rounding errors regardless of how rough the data is (pointwise
    Clenshaw evaluation accumulates O(n eps) on non-smooth data).  A
    constant series yields the single value.
    """
    c = p.coeffs
    n = c.size - 1
    if n == 0:
        return c.copy()
    spec = np.zeros(n + 1)
    spec[0] = 2.0 * n * c[0]
    spec[n] = 2.0 * n * c[n]
    spec[1:n] = n * c[1:n]
    ext = np.fft.irfft(spec, 2 * n)
    return ext[: n + 1][::-1].copy()


def evaluate(p: ChebInterpolant, x):
    """Evaluate the series by the Clenshaw recurrence.

    Scalar in, float out; array in, array out.  Points outside the domain
    extrapolate; non-finite points and overflowing values raise ValueError.
    The recurrence runs in place in three preallocated buffers with ``2 s``
    computed once, and rounds every element exactly as the textbook form
    ``b1, b2 = 2.0 * s * b1 - b2 + c[k], b1`` does, so the results have the
    same bits.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    c = p.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        s = p.domain.to_unit(x)
        s2 = 2.0 * s
        b1 = np.zeros_like(s)
        b2 = np.zeros_like(s)
        t = np.empty_like(s)
        for k in range(c.size - 1, 0, -1):
            np.multiply(s2, b1, out=t)
            t -= b2
            t += c[k]
            b1, b2, t = t, b1, b2
        out = s * b1 - b2 + c[0]
    if not np.all(np.isfinite(out)):
        raise ValueError("the series value overflows")
    return out if out.ndim else float(out)


def evaluate_barycentric(values, nodes: NodeSet, x):
    """Interpolation through values at second-kind points, one rule per query.

    Inside [a, b]: the second barycentric form with weights (-1)^j, halved
    at the two endpoints; a query whose sum of weight quotients is not
    finite (on a node, or ulps from one) gets its nearest node's value,
    bit-exactly on a node.  Outside [a, b], where that sum cancels (Webb,
    Trefethen & Gonnet 2012): Clenshaw on ``interpolant_from_values(values,
    domain)``, the same polynomial.  Non-finite points or values, and
    overflowing values, raise ValueError.

    Parameters
    ----------
    values : array_like
        Samples at ``nodes``, same length.
    nodes : NodeSet
        Must have kind CHEB_SECOND.
    x : scalar or array_like
        Query points.
    """
    v = np.asarray(values, dtype=float)
    if nodes.kind is not NodeKind.CHEB_SECOND:
        raise ValueError("barycentric weights here assume second-kind nodes")
    pts, dom = nodes.points, nodes.domain
    if v.shape != pts.shape:
        raise ValueError(f"got {v.size} values for {pts.size} nodes")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    xq = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xq)):
        raise ValueError("points must be finite")
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)

    w = np.ones(pts.size)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    # Scaling v by an exact power of two to max|v| < 1 keeps ratio @ v
    # finite where den is.  Outside rows stay in the one matrix, because
    # the BLAS product can round a row differently when the row count changes.
    _, e = np.frexp(np.max(np.abs(v)))
    ratio = xq[:, None] - pts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(w, ratio, out=ratio)
        den = np.sum(ratio, axis=1)
        out = np.ldexp((ratio @ np.ldexp(v, -e)) / den, e)
    inside = (xq >= dom.a) & (xq <= dom.b)
    snap = inside & ~np.isfinite(den)
    out[snap] = v[np.argmin(np.abs(xq[snap, None] - pts), axis=1)]
    if not np.all(np.isfinite(out[inside])):
        raise ValueError("the interpolant value overflows")
    if not np.all(inside):
        out[~inside] = evaluate(interpolant_from_values(v, dom), xq[~inside])
    return float(out[0]) if scalar else out


def derivative(p: ChebInterpolant) -> ChebInterpolant:
    """Derivative series via b_{k-1} = b_{k+1} + 2k a_k, domain-scaled."""
    c = p.coeffs
    n = c.size - 1
    if n == 0:
        return ChebInterpolant(np.zeros(1), p.domain)
    b = np.zeros(n + 2)
    for k in range(n, 0, -1):
        b[k - 1] = b[k + 1] + 2.0 * k * c[k]
    b[0] *= 0.5
    return ChebInterpolant(b[:n] * (2.0 / p.domain.width), p.domain)


def min_and_max(p: ChebInterpolant) -> tuple[float, float]:
    """Global minimum and maximum of the interpolant over its domain.

    Brackets sign changes of p' on a Chebyshev-spaced grid of
    8*degree + 16 points (endpoints pinned to a and b), bisects each
    bracket to an abscissa tolerance of 1e-13, and compares the candidate
    values together with the endpoints.  Near the ends the extrema of a
    degree-n polynomial crowd to O(n^-2) spacing, which a uniform grid of
    the same size cannot resolve.
    """
    dom = p.domain
    dp = derivative(p)
    m = 8 * p.degree + 16
    grid = dom.from_unit(-np.cos(np.arange(m) * (np.pi / (m - 1))))
    grid[0], grid[-1] = dom.a, dom.b
    dv = evaluate(dp, grid)

    candidates = [np.array([dom.a, dom.b]), grid[dv == 0.0]]
    sign_flip = np.nonzero(dv[:-1] * dv[1:] < 0.0)[0]
    lo = grid[sign_flip].copy()
    hi = grid[sign_flip + 1].copy()
    flo = dv[sign_flip].copy()
    while lo.size and np.max(hi - lo) > 1e-13:
        mid = 0.5 * (lo + hi)
        fm = np.atleast_1d(evaluate(dp, mid))
        left = flo * fm <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    candidates.append(0.5 * (lo + hi))

    vals = evaluate(p, np.concatenate(candidates))
    return float(np.min(vals)), float(np.max(vals))


def truncate(p: ChebInterpolant, tol_rel: float) -> ChebInterpolant:
    """Drop trailing coefficients with |a_k| < tol_rel * max|a_j|.

    Never returns an empty series; a_0 is always kept.
    """
    if tol_rel <= 0:
        raise ValueError("tol_rel must be positive")
    c = p.coeffs
    cutoff = tol_rel * np.max(np.abs(c))
    keep = np.nonzero(np.abs(c) >= cutoff)[0]
    last = int(keep[-1]) if keep.size else 0
    return ChebInterpolant(c[: last + 1], p.domain)
