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

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Domain",
    "NodeSet",
    "ChebInterpolant",
    "UnresolvedFunctionError",
    "cheb_points_second_kind",
    "cheb_points_first_kind",
    "interpolant_from_values",
    "interpolant_from_function",
    "evaluate",
    "evaluate_barycentric",
    "derivative",
    "min_and_max",
    "truncate",
]

_EPS = 2.0 ** -52
#: ``_chop_point``'s level, 2 eps^(2/3): no plateau starts above it.
_CHOP_LEVEL = 2.0 * _EPS ** (2.0 / 3.0)

#: Elements of the work buffer of a row-blocked kernel (256 KiB of float64,
#: so a block stays in L2); a row longer than this gets a block of its own.
_BLOCK_ELEMENTS = 2 ** 15

#: Barycentric rows this wide or wider, in both evaluators, are filled and
#: summed under numpy's ufunc buffer cut to 16 elements; otherwise the
#: row-broadcast ops are copied through the 8192-element buffer, faster
#: only on narrow rows (crossover between widths 65 and 113, ROADMAP.md
#: "Measured"; 301-sample trig rows: 19.6 -> 11.1 ms per 10000 queries).
#: Elementwise ops and row sums round alike under any buffer size.
_UNBUFFERED_WIDTH = 128


def _row_blocks(count: int, width: int):
    """Yield (rows, block) that cover rows 0..count-1 of a count x width
    matrix: rows a slice, block a (rows, width) view of one buffer of about
    ``_BLOCK_ELEMENTS`` floats, reused by every block."""
    step = max(_BLOCK_ELEMENTS // width, 1)
    buf = np.empty((min(step, count), width))
    for start in range(0, count, step):
        rows = slice(start, min(start + step, count))
        yield rows, buf[: rows.stop - start]


def _barycentric_rows(values: np.ndarray, count: int, fill, distance) -> np.ndarray:
    """Rows 0..count-1 of the barycentric quotient sum_k g_k v_k / sum_k g_k.

    ``fill(rows, g)`` writes the weight quotients of a slice of rows into
    the block g.  Blocks come from ``_row_blocks``, so memory is O(block),
    and both sums of a row (``np.sum``, ``np.vecdot``) are row-local, so a
    row gets the same bits whatever else shares the call.  The values are
    scaled once by ``_overflow_scale``, which keeps each numerator finite
    where its sum of g is.  A row whose sum of g is not finite (on a node,
    or ulps from one) gets ``values[argmin(distance(i))]``, a block of rows
    i at a time, ``distance(i)`` their distances to the nodes: on a node,
    its value bit for bit.  Any other non-finite row raises ValueError.
    One errstate scopes the call and the buffer size (numpy >= 2.0).
    """
    scale = _overflow_scale(values)
    scaled = values * scale
    out, den = np.empty(count), np.empty(count)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if values.size >= _UNBUFFERED_WIDTH:
            np.setbufsize(16)
        for rows, g in _row_blocks(count, values.size):
            fill(rows, g)
            np.sum(g, axis=1, out=den[rows])
            np.vecdot(g, scaled, out=out[rows])
        out /= den
        out /= scale
    snap = np.flatnonzero(~np.isfinite(den))
    step = max(_BLOCK_ELEMENTS // values.size, 1)
    for start in range(0, snap.size, step):
        i = snap[start : start + step]
        out[i] = values[np.argmin(distance(i), axis=1)]
    return _finite(out, "the interpolant value overflows")


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
        x = np.asarray(x)
        with np.errstate(over="ignore"):
            s = (2.0 * x - (self.a + self.b)) / (self.b - self.a)
            if np.isfinite(s).all():
                return s
            # 2 x overflows for |x| > 8.99e307; the halved form does not, but
            # halving a subnormal width gives 0, so it is the fallback only.
            halved = (x - 0.5 * (self.a + self.b)) / (0.5 * (self.b - self.a))
            return np.where(np.isfinite(s), s, halved)


UNIT_DOMAIN = Domain(-1.0, 1.0)


@dataclass(frozen=True)
class NodeSet:
    """A strictly increasing vector of sample abscissae within a domain."""

    points: np.ndarray
    domain: Domain

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("points must be a non-empty 1-D vector")
        _finite(pts, "points must be finite")
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
        c = _finite(c, "coeffs must be finite").copy()
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
        with np.errstate(over="ignore"):
            c[: other.coeffs.size] += other.coeffs
        return ChebInterpolant(_finite(c, "the series sum overflows"), self.domain)


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
    n = _count(n, "n", 1)
    unit = _second_kind_unit_points(n)
    return NodeSet(_map_unit_points(unit, domain, ends=True), domain)


def _second_kind_unit_points(n: int) -> np.ndarray:
    """The n + 1 second-kind points on [-1, 1], ascending and read-only; cached
    for n <= 2^16, the largest the library asks for, so no larger n is held."""
    return _cached_unit_points(n) if n <= 2 ** 16 else _cached_unit_points.__wrapped__(n)


@functools.lru_cache(maxsize=8)
def _cached_unit_points(n: int) -> np.ndarray:
    # Ascending order is x_j = sin((2j - n) pi / (2n)); take the j with a
    # positive argument and mirror.
    j = np.arange(n // 2 + 1, n + 1)
    unit = _mirrored_half_points(n + 1, (2 * j - n) * (np.pi / (2 * n)))
    unit.flags.writeable = False
    return unit


def cheb_points_first_kind(count: int, domain: Domain = UNIT_DOMAIN) -> NodeSet:
    """First-kind (Gauss-Chebyshev) points: roots of T_count, ascending.

    These are cos((2j+1) pi / (2 count)) for j = 0 .. count-1, strictly
    interior to the domain, sign-symmetric bit-exactly on [-1, 1].
    """
    count = _count(count, "count", 1)
    # Ascending: x_j = sin((2j + 1 - count) pi / (2 count)).
    j = np.arange((count + 1) // 2, count)
    unit = _mirrored_half_points(count, (2 * j + 1 - count) * (np.pi / (2 * count)))
    return NodeSet(_map_unit_points(unit, domain), domain)


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


def _overflow_scale(v: np.ndarray) -> float:
    """2^-e, e >= 0, that takes max|v| below 1: exact for normal values, it
    keeps a linear map's partial sums finite wherever its result is."""
    return 2.0 ** -max(math.frexp(np.abs(v).max())[1], 0)


def _finite(a, message: str) -> np.ndarray:
    """a as a float array; ValueError(message) if an element is not finite."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(message)
    return a


def _unscaled(y, divisor: float, message: str) -> np.ndarray:
    """y / divisor, ValueError(message) where it overflows: the rule for a
    result computed on values scaled by ``_overflow_scale``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(y / divisor, message)


def _count(value, name: str, minimum: int) -> int:
    """value as an int; ValueError naming it unless it is an integer (not a
    bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return int(value)


def _values_to_coeffs(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at ascending second-kind points,
    along the last axis.

    Realized as a type-I fast cosine transform: the values are reflected
    into an even sequence of length 2n and pushed through a real FFT.
    """
    n = values.shape[-1] - 1
    scale = _overflow_scale(values)
    ext = np.empty(values.shape[:-1] + (2 * n,))  # samples at cos(m*pi/n), m = 0..2n-1
    np.multiply(values[..., ::-1], scale, out=ext[..., : n + 1])
    np.multiply(values[..., 1:-1], scale, out=ext[..., n + 1 :])
    coeffs = np.fft.rfft(ext)[..., : n + 1].real
    coeffs[..., ::n] *= 0.5  # the first and last
    if scale > 2.0 ** -1020:  # scaled |values| < 1, so |coeffs| < 2 n: no overflow
        return coeffs / (n * scale)
    return _unscaled(coeffs, n * scale, "the series coefficients overflow")


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
        Degree-n series; its inverse cosine transform (the synthesis half
        of this one) gives back the input to within 50 eps * max|values|.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"values must be 1-D with at least 2 entries, got shape {v.shape}")
    return ChebInterpolant(_values_to_coeffs(_finite(v, "values must be finite")), domain)


def _chop_point(coeffs: np.ndarray) -> int:
    """Series length after discarding the negligible tail.

    Aurentz & Trefethen's (2017) envelope-plateau rule at tolerance eps = 2^-52:
    walk the non-increasing envelope of |coeffs| until its decay stalls at a
    rounding plateau, and cut near the plateau's start.  ``len(coeffs)``, read
    as "not resolved", means that no plateau below eps^(2/3) exists.
    """
    n = coeffs.size
    if n < 17:
        return n
    mag = np.abs(coeffs)
    top = mag.max()
    if top == 0.0:
        return 1

    # Test j = 2..n while j2 = floor(1.25 j + 5.5) (round half up, as
    # published) stays <= n, that is while 5 j <= 4 n - 19; j2 increases
    # with j, so that is a prefix.  Entry i of e1 is env[j - 1] for
    # j = i + 2, whose j2 is (5 i + 32) // 4.
    stop = (4 * n - 19) // 5
    # The test is e2 / e1 > r with r = 3 (1 - ln e1 / ln eps), and e2 <= e1,
    # so it needs r < 1.  Where e1 > _CHOP_LEVEL = 2 eps^(2/3),
    # r > 1 + 3 ln 2 / |ln eps| = 1.057, far past rounding: no j there can
    # pass, and those j are a prefix of e1.  Only the rest is tested.
    # The envelope does not increase, so its last tested entry,
    # env[stop - 1] = max|c[stop - 1:]| / top, is the least of e1.  When it
    # lies above that level, so does every e1: none is zero, none can pass,
    # and the walk ends with no plateau.  Decide that before building the
    # envelope; the quotient is the one env holds, so the decision is the
    # same bit for bit.  (At equality the walk runs and also returns n.)
    if mag[stop - 1 :].max() / top > _CHOP_LEVEL:
        return n
    env = np.maximum.accumulate(mag[::-1])[::-1] / top
    e1 = env[1:stop]
    # e1 does not increase: its first live entries are > 0, its first start > level.
    live = e1.size - int(e1[::-1].searchsorted(0.0, "right"))
    start = e1.size - int(e1[::-1].searchsorted(_CHOP_LEVEL, "right"))
    # The walk stops at the first j whose ratio test passes, else at the first
    # zero of the envelope: one pass tests every j from start to that zero.
    # np.log and math.log (the one-j-at-a-time walk's) can differ in the last
    # bit, which could flip a near-tie.  Over the 1.67 M entries tested in the
    # 5802 chops of six adaptive benchmark seeds, the two r differed by at most
    # 6.7e-16, and no q lay within 2e-6 of its r.  So a decision further than
    # 1e-12 from its tie is the same with either log; inside that band r is
    # recomputed with math.log.
    e = e1[start:live]
    q = env[np.arange(5 * start + 28, 5 * live + 28, 5) // 4] / e
    d = q - 3.0 * (1.0 - np.log(e) / math.log(_EPS))
    i = start + next((k for k in np.flatnonzero(d >= -1e-12) if d[k] > 1e-12
                      or q[k] > 3.0 * (1.0 - math.log(e[k]) / math.log(_EPS))), e.size)
    if i == e1.size:  # no hit and no zero: no plateau
        return n
    j2 = (5 * i + 32) // 4
    if env[j2 - 1] < _EPS ** (7.0 / 6.0):  # cut j2 to one past the last entry >= it
        j2 = env.size + 1 - int(env[::-1].searchsorted(_EPS ** (7.0 / 6.0)))
        env[j2 - 1] = _EPS ** (7.0 / 6.0)
    cc = np.log10(env[:j2])
    cc += _ramp((-1.0 / 3.0) * math.log10(_EPS), j2)
    return max(int(np.argmin(cc)), 1)


def _ramp(stop: float, count: int) -> np.ndarray:
    """``np.linspace(0.0, stop, count)`` for count >= 2, bit for bit: numpy's
    own arithmetic for a zero start, without its argument handling."""
    ramp = np.arange(count) * (stop / (count - 1))
    ramp[-1] = stop
    return ramp


@functools.lru_cache(maxsize=9)
def _tail_rows(n: int) -> np.ndarray:
    """Read-only (n+1) x 4 matrix taking values at the ascending second-kind
    points to their coefficients j = stop - 1, stop, n - 1 and n, stop being
    ``_chop_point``'s: (2/n) T_j(x_i), weighed as the transform weighs them."""
    stop = (4 * (n + 1) - 19) // 5
    m = np.arange(n, -1, -1)  # x_i = cos(m_i pi / n), ascending
    rows = np.cos(np.outer(m, [stop - 1, stop, n - 1, n]) % (2 * n) * (np.pi / n)) * (2.0 / n)
    rows[[0, -1]] *= 0.5
    rows[:, 3] *= 0.5
    rows.flags.writeable = False
    return rows


def _tail_unresolved(values: np.ndarray) -> bool:
    """True only where ``_chop_point`` finds no plateau in the coefficients
    of these values, decided from four of them without the transform.

    Every coefficient is at most 2 max|v|, so one above 4 ``_CHOP_LEVEL``
    max|v| puts the chop's last tested envelope entry above that level.
    The factor 2 leaves 1.5e-10 max|v| for rounding, which stays below
    1e-12 max|v| up to 4097 points.  Outside 2^-900 < max|v| <
    2^900 rounding is not relative, and False leaves the grid to the chop."""
    top = np.abs(values).max()
    if not 2.0 ** -900 < top < 2.0 ** 900:
        return False
    tail = (values @ _tail_rows(values.size - 1)).tolist()
    return max(map(abs, tail)) > 4.0 * _CHOP_LEVEL * top


def interpolant_from_function(
    f: Callable,
    domain: Domain = UNIT_DOMAIN,
    n: int | None = None,
) -> ChebInterpolant:
    """Interpolant of a callable, either at a fixed degree or adaptively.

    Parameters
    ----------
    f : callable
        Vectorized real function, finite on the domain, and pointwise: its
        value at a point must not depend on the other points in the array.
    domain : Domain
    n : int or None
        Fixed degree (samples at n+1 second-kind points).  None selects
        adaptive mode: grids of 2^k + 1 points for k = 3..16, accepted once
        the coefficient tail has decayed to a plateau below 2^-52
        relative to the largest coefficient, then chopped there.  Each
        grid is every other point of the next, so ``f`` is called on the
        9-point grid and then only on each finer grid's 2^(k-1) new points:
        2^K + 1 evaluations in all when grid K resolves.  Grids of 17 to
        4097 points whose tail certificate (``_tail_unresolved``) shows them
        unresolved skip the transform; the chop rejects them too, so the
        result, the calls to ``f`` and ``best`` keep every bit.

    Raises
    ------
    UnresolvedFunctionError
        Adaptive mode still unresolved on the 2^16 + 1 grid; the exception
        carries the finest-grid interpolant in ``best``.
    """
    if n is not None:
        nodes = cheb_points_second_kind(_count(n, "n", 1), domain)
        return interpolant_from_values(_sample(f, nodes.points), domain)

    unit = _second_kind_unit_points(2 ** 16)
    # f gets contiguous copies, never strided views of the cached grid.  The
    # 9-point series is never built: _chop_point leaves it unresolved.
    vals = _sample(f, np.ascontiguousarray(_map_unit_points(unit[:: 2 ** 13], domain, ends=True)))
    for k in range(4, 17):
        pts = _map_unit_points(unit[:: 2 ** (16 - k)], domain, ends=True)
        prev, vals = vals, np.empty(pts.size)
        vals[::2], vals[1::2] = prev, _sample(f, np.ascontiguousarray(pts[1::2]))
        if k <= 12 and _tail_unresolved(vals):
            continue
        coeffs = _values_to_coeffs(vals)
        cut = _chop_point(coeffs)
        if cut < coeffs.size:
            return ChebInterpolant(coeffs[:cut], domain)
    raise UnresolvedFunctionError("function not resolved on the 65537-point grid",
                                  ChebInterpolant(coeffs, domain))


def _sample(f: Callable, points: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(points), dtype=float)
    if vals.ndim == 0:
        vals = np.full(points.shape, vals)  # a constant f may return a scalar
    elif vals.shape != points.shape:
        raise ValueError(
            f"f returned shape {vals.shape} for {points.size} points; "
            "it must return one value per point"
        )
    return _finite(vals, "function returned non-finite values on the grid")


def _line_rows(s: np.ndarray) -> list[np.ndarray]:
    """Four uninitialised arrays shaped like s, rows of one allocation that
    each start on a 64-byte cache line: numpy's ufuncs write a line-aligned
    output about twice as fast, and the rows' places do not depend on the
    heap.  Each row but the last is padded to a multiple of 8 floats."""
    width = -(-s.size // 8) * 8
    buf = np.empty(3 * width + s.size + 7)
    skip = -buf.__array_interface__["data"][0] % 64 // 8
    return [buf[skip + i * width:][: s.size].reshape(s.shape) for i in range(4)]


def evaluate(p: ChebInterpolant, x):
    """Evaluate the series by the Clenshaw recurrence.

    Scalar in, float out; array in, array out.  Points outside the domain
    extrapolate; non-finite points and overflowing values raise ValueError.
    The recurrence runs in place in the four ``_line_rows`` with ``2 s``
    computed once, on coefficients scaled by ``_overflow_scale``.  It rounds
    every element as the textbook form ``b1, b2 = 2.0 * s * b1 - b2 + c[k],
    b1`` does, so the bits match wherever no partial sum is subnormal.
    """
    x = _finite(x, "points must be finite")
    scale = _overflow_scale(p.coeffs)
    c = p.coeffs * scale
    with np.errstate(over="ignore", invalid="ignore"):
        s = p.domain.to_unit(x)
        s2, b1, b2, t = _line_rows(s)
        np.multiply(s, 2.0, out=s2)
        b1[...] = 0.0
        b2[...] = 0.0
        for k in range(c.size - 1, 0, -1):
            np.multiply(s2, b1, out=t)
            t -= b2
            t += c[k]
            b1, b2, t = t, b1, b2
        out = _unscaled(s * b1 - b2 + c[0], scale, "the series value overflows")
    return out if out.ndim else float(out)


def evaluate_barycentric(values, nodes: NodeSet, x):
    """Interpolation through values at second-kind points, one rule per query.

    Inside [a, b]: the second barycentric form with weights (-1)^j, halved
    at the two endpoints; a query whose sum of weight quotients is not
    finite (on a node, or ulps from one) gets its nearest node's value,
    bit-exactly on a node.  Outside [a, b], where that sum cancels (Webb,
    Trefethen & Gonnet 2012): Clenshaw on ``interpolant_from_values(values,
    domain)``, the same polynomial.  Non-finite points or values, and
    overflowing values, raise ValueError.  ``_barycentric_rows`` takes the
    inside queries: memory O(block), each query's bits batch-independent.

    Parameters
    ----------
    values : array_like
        Samples at ``nodes``, same length.
    nodes : NodeSet
        ``cheb_points_second_kind(len(nodes) - 1, nodes.domain)``, bit for
        bit: the weights hold on those points only.  Any other set raises
        ValueError.
    x : scalar or array_like
        Query points, of any shape; the result has the same shape.
    """
    v = np.asarray(values, dtype=float)
    pts, dom = nodes.points, nodes.domain
    if pts.size < 2:
        raise ValueError("barycentric evaluation needs at least 2 nodes (degree n >= 1)")
    unit = _second_kind_unit_points(pts.size - 1)
    if not np.array_equal(pts, _map_unit_points(unit, dom, ends=True)):
        raise ValueError("nodes must be cheb_points_second_kind(len(nodes) - 1, nodes.domain)")
    if v.shape != pts.shape:
        raise ValueError(f"values must be 1-D, one per node ({pts.size}), got shape {v.shape}")
    _finite(v, "values must be finite")
    xq = _finite(x, "points must be finite")
    shape = xq.shape
    xq = xq.ravel()

    w = np.ones(pts.size)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    inside = (xq >= dom.a) & (xq <= dom.b)
    at = np.flatnonzero(inside)

    def fill(rows, ratio):
        np.subtract(xq[at[rows], None], pts, out=ratio)
        np.divide(w, ratio, out=ratio)

    out = _barycentric_rows(v, at.size, fill, lambda i: np.abs(xq[at[i], None] - pts))
    if at.size < xq.size:
        inner, out = out, np.empty(xq.shape)
        out[at] = inner
        out[~inside] = evaluate(interpolant_from_values(v, dom), xq[~inside])
    return float(out[0]) if not shape else out.reshape(shape)


def derivative(p: ChebInterpolant) -> ChebInterpolant:
    """Derivative series via b_{k-1} = b_{k+1} + 2k a_k, domain-scaled.

    The recurrence runs on coefficients scaled by ``_overflow_scale``; a
    derivative whose coefficients do not fit in a float raises ValueError.
    """
    n = p.coeffs.size - 1
    if n == 0:
        return ChebInterpolant(np.zeros(1), p.domain)
    scale = _overflow_scale(p.coeffs)
    # u = b_{n+1}, b_n, ..., b_0 holds two running sums, every other entry
    # each, which np.cumsum adds in the recurrence's order, k = n down to 1.
    u = np.zeros(n + 2)
    u[2:] = 2.0 * np.arange(n, 0, -1) * (p.coeffs[:0:-1] * scale)
    u[0::2], u[1::2] = np.cumsum(u[0::2]), np.cumsum(u[1::2])
    b = u[:1:-1]
    b[0] *= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        b = b * (2.0 / p.domain.width)
    return ChebInterpolant(_unscaled(b, scale, "the derivative coefficients overflow"), p.domain)


def _colleague_roots(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the colleague matrices of the rows of a, ascending
    Chebyshev coefficients.  A row cut after its last coefficient above eps
    times its largest has degree d; its m x m matrix (m = a.shape[1] - 1)
    is the colleague matrix in its leading d x d block and 3.0 on the rest
    of the diagonal, so a zero leading coefficient is never divided by."""
    m = a.shape[1] - 1
    big = np.abs(a) > _EPS * np.abs(a).max(axis=1, keepdims=True)
    d = np.max(big * np.arange(m + 1), axis=1)
    r = np.arange(m)
    c = np.zeros((a.shape[0], m, m))
    c[:, r[1:], r[:-1]] = c[:, r[:-1], r[1:]] = np.where(r[1:] < d[:, None], 0.5, 0.0)
    c[:, :1, 1:2] *= 2.0  # x T_0 = T_1
    c[:, r, r] = np.where(r < d[:, None], 0.0, 3.0)
    i = np.flatnonzero(d)
    lead = a[i, d[i]] * np.where(d[i] == 1, 1.0, 2.0)
    c[i, d[i] - 1] -= np.where(r < d[i, None], a[i, :m], 0.0) / lead[:, None]
    return np.linalg.eigvals(c)


#: min_and_max's proxies of p' have this degree, with a piece of [-1, 1] per
#: _DEGREES_PER_PIECE degrees of p'; an eigenvalue within _ROOT_SLACK of its
#: piece (half-width 1) in real and imaginary part counts as a root.
_PROXY_DEGREE, _DEGREES_PER_PIECE, _ROOT_SLACK = 32, 12, 1e-2


def min_and_max(p: ChebInterpolant) -> tuple[float, float]:
    """Global minimum and maximum of the interpolant over its domain.

    p on [a, b] is the series on [-1, 1] composed with an affine map, so
    the search runs on the unit series, the same bits on every domain.
    Roots of p' come from local Chebyshev proxies (Boyd 2013, *SIAM Review*
    55; Trefethen, *ATAP*, ch. 18): one Clenshaw pass samples p' on K pieces
    with breakpoints -cos(i pi / K), which crowd to the ends as the extrema
    do; one FFT gives the proxies and one ``eigvals`` all their roots.  A
    p' of degree at most ``_PROXY_DEGREE`` is its own proxy.  One Newton
    step polishes each root, and p is compared there and at -1 and 1.
    """
    # The roots of p' are those of the derivative of p scaled by a power of
    # two, which fits in a float where p' itself may not.
    dp = derivative(ChebInterpolant(np.ldexp(p.coeffs, -math.frexp(np.abs(p.coeffs).max())[1]),
                                    UNIT_DOMAIN))
    if dp.degree > _PROXY_DEGREE:
        k = dp.degree // _DEGREES_PER_PIECE
        t = -np.cos(np.arange(k + 1) * (np.pi / k))
        centre, half = 0.5 * (t[1:] + t[:-1]), 0.5 * (t[1:] - t[:-1])
        s = centre[:, None] + half[:, None] * _second_kind_unit_points(_PROXY_DEGREE)
        a = _values_to_coeffs(evaluate(dp, s))
    else:  # a 33-point proxy of a p' of degree 31 or 32 can miss an extremum by 5%
        centre, half, a = np.zeros(1), np.ones(1), dp.coeffs[None]
    lam = _colleague_roots(a)
    piece, j = np.nonzero((np.abs(lam.imag) <= _ROOT_SLACK)
                          & (np.abs(lam.real) <= 1.0 + _ROOT_SLACK))
    # A root rounded to 2^-24 of its half-width, far below the proxy's error,
    # starts Newton at the same bits whatever CPU eigvals ran on.
    x = centre[piece] + half[piece] * (np.round(lam.real[piece, j] * 2.0 ** 24) / 2.0 ** 24)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = evaluate(dp, x) / evaluate(derivative(dp), x)
        x = np.where(np.abs(step) <= _ROOT_SLACK * half[piece], x - step, x)
    x = np.concatenate([[-1.0, 1.0], np.clip(x, -1.0, 1.0)])
    vals = evaluate(ChebInterpolant(p.coeffs, UNIT_DOMAIN), x)
    return float(np.min(vals)), float(np.max(vals))


def truncate(p: ChebInterpolant, tol_rel: float) -> ChebInterpolant:
    """Drop trailing coefficients with |a_k| < tol_rel * max|a_j|.

    Never returns an empty series; a_0 is always kept.  A tol_rel that is
    not positive (NaN included) raises ValueError.
    """
    if not tol_rel > 0:
        raise ValueError("tol_rel must be positive")
    c = p.coeffs
    cutoff = tol_rel * np.max(np.abs(c))
    keep = np.nonzero(np.abs(c) >= cutoff)[0]
    last = int(keep[-1]) if keep.size else 0
    return ChebInterpolant(c[: last + 1], p.domain)
