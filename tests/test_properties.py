"""Property tests of the library invariants: randomized, or exhaustive over a small range."""

import contextlib
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chebsig import cheb
from chebsig.cheb import (
    _CHOP_LEVEL,
    ChebInterpolant,
    Domain,
    _chop_point,
    cheb_points_first_kind,
    cheb_points_second_kind,
    evaluate,
    evaluate_barycentric,
    interpolant_from_values,
    truncate,
)
from chebsig.fourier import (
    amplitude_spectrum,
    resample_spectral,
    trig_interpolate,
)
from chebsig.nodes import mean_distance
from chebsig.signals import Signal, moving_average

finite_values = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2, max_size=60,
)


@settings(deadline=None, max_examples=60)
@given(finite_values)
def test_transform_round_trip(inverse_cosine_transform, values):
    v = np.asarray(values)
    back = inverse_cosine_transform(interpolant_from_values(v).coeffs)
    scale = max(1.0, np.max(np.abs(v)))
    assert np.max(np.abs(back - v)) < 1e-12 * scale


_EXTREME_DOMAINS = [
    Domain(-1e300, 1e300),
    Domain(1e300, 1.5e300),
    Domain(1.0, 1.0 + 1e-12),
    Domain(-1e-310, 1e-310),
    Domain(-1e-3, 1e9),
]


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=3000),
       st.one_of(st.builds(lambda a, width: Domain(a / 100, (a + width) / 100),
                           st.integers(min_value=-10 ** 4, max_value=10 ** 4),
                           st.integers(min_value=1, max_value=10 ** 4)),
                 st.sampled_from(_EXTREME_DOMAINS)),
       st.integers(min_value=0, max_value=10 ** 6))
def test_barycentric_accepts_every_second_kind_grid(n, dom, pick):
    # The bit-for-bit node check never refuses a grid the library made.
    try:
        nodes = cheb_points_second_kind(n, dom)
    except ValueError as err:
        assert "too narrow" in str(err)
        return
    v = np.cos(np.arange(n + 1.0))
    j = pick % (n + 1)
    assert evaluate_barycentric(v, nodes, nodes.points[j]) == v[j]


@settings(deadline=None, max_examples=40)
@given(finite_values, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_barycentric_matches_clenshaw(values, x):
    v = np.asarray(values)
    nodes = cheb_points_second_kind(v.size - 1)
    p = interpolant_from_values(v)
    scale = max(1.0, np.max(np.abs(v)))
    assert abs(evaluate_barycentric(v, nodes, x) - evaluate(p, x)) < 1e-10 * scale


@settings(deadline=None, max_examples=40)
@given(finite_values, st.floats(min_value=1e-16, max_value=1e-2))
def test_truncate_is_a_prefix_and_never_empty(values, tol):
    p = interpolant_from_values(values)
    q = truncate(p, tol)
    assert 1 <= len(q) <= len(p)
    assert np.array_equal(q.coeffs, p.coeffs[: len(q)])


def test_dft_round_trip_any_length():
    for n in [*range(2, 513), 1000, 1024, 2 ** 16]:
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        back = resample_spectral(Signal(np.arange(n, dtype=float), v), n).y
        assert np.max(np.abs(back - v)) < 1e-12 * min(1.0, np.max(np.abs(v))), n


def test_parseval():
    for n in range(2, 513):
        rng = np.random.default_rng(n + 7)
        v = rng.standard_normal(n)
        _, amps, _ = amplitude_spectrum(Signal(np.arange(n, dtype=float), v))
        lhs = np.sum(v ** 2)
        rhs = np.sum(amps ** 2) / n
        assert abs(lhs - rhs) < 1e-9 * max(lhs, 1.0), n


@settings(deadline=None, max_examples=100)
@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=-1e4, max_value=1e4),
       st.integers(min_value=2, max_value=5000))
def test_linspace_step_is_derived(span, start_in_spans, n):
    a = start_in_spans * span
    t = np.linspace(a, a + span, n)
    assert Signal(t, np.zeros(n)).step == (t[-1] - t[0]) / (n - 1)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=-10 ** 4, max_value=10 ** 4),
       st.integers(min_value=1, max_value=10 ** 4),
       st.integers(min_value=1, max_value=200),
       st.sampled_from([cheb_points_first_kind, cheb_points_second_kind]))
def test_nodes_on_two_decimal_domains(a, width, n, kind):
    # Mapped nodes stay inside [a, b]; clipping moves only those that
    # from_unit rounded outside it, and second-kind end nodes are a and b.
    dom = Domain(a / 100, (a + width) / 100)
    pts = kind(n, dom).points
    raw = dom.from_unit(kind(n).points)
    assert dom.a <= pts[0] and pts[-1] <= dom.b
    inside = (dom.a <= raw) & (raw <= dom.b)
    if kind is cheb_points_second_kind:
        assert pts[0] == dom.a and pts[-1] == dom.b
        inside[[0, -1]] = False
    assert np.array_equal(pts[inside], raw[inside])


def test_cardinal_delta():
    # The interpolant of the unit vector e_k is 1 at node k and 0 at the
    # other nodes, bit for bit.
    for n in range(2, 65):
        t = 2.0 * np.arange(n) / n
        for e in np.eye(n):
            assert np.array_equal(trig_interpolate(t, e, t), e), n


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10 ** 6))
def test_trig_interpolation_exact_at_samples(n, seed):
    # Every query shape returns the samples bit for bit on the nodes.
    rng = np.random.default_rng(seed)
    t = 1.5 + 0.25 * np.arange(n)
    y = rng.uniform(-1, 1, n)
    assert np.array_equal(trig_interpolate(t, y, t), y)
    k = int(rng.integers(n))
    assert trig_interpolate(t, y, t[k]) == y[k]
    order = rng.permutation(n)
    grid = np.stack([t, t[order]])
    assert np.array_equal(trig_interpolate(t, y, grid), np.stack([y, y[order]]))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                min_size=2, max_size=40, unique=True))
def test_mean_distance_positive_and_order_free(raw):
    pts = np.array(sorted(raw), dtype=float) * 1e-3
    prof = mean_distance(pts)
    assert np.all(prof > 0)
    shuffled = mean_distance(pts[::-1])
    assert np.allclose(np.sort(prof), np.sort(shuffled))


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-50, max_value=50, allow_nan=False),
       st.integers(min_value=1, max_value=12))
@example(7.25, 5)
def test_moving_average_dc_gain(level, window):
    s = Signal(np.arange(40.0), np.full(40, level))
    out = moving_average(s, window)
    assert np.allclose(out.y[window - 1:], level, rtol=0, atol=1e-12 * max(1, abs(level)))


def _textbook_clenshaw(p, x):
    """Clenshaw in its textbook form: the bit-identity reference for evaluate."""
    s = p.domain.to_unit(np.asarray(x, dtype=float))
    c = p.coeffs
    b1 = np.zeros_like(s)
    b2 = np.zeros_like(s)
    for k in range(c.size - 1, 0, -1):
        b1, b2 = 2.0 * s * b1 - b2 + c[k], b1
    out = s * b1 - b2 + c[0]
    return out if out.ndim else float(out)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([Domain(-1.0, 1.0), Domain(-3.0, 7.5)]),
       st.sampled_from(["scalar", "0-d", "array", "2-d", "strided", "offset"]),
       st.sampled_from([*range(18), 12049]))
@example(7, 0, Domain(-1.0, 1.0), "array", 0)
@example(7, 1, Domain(-1.0, 1.0), "2-d", 7)
@example(7, 2, Domain(-1.0, 1.0), "2-d", 0)
@example(2000, 3, Domain(-3.0, 7.5), "array", 12049)
@example(300, 4, Domain(-3.0, 7.5), "strided", 17)
@example(300, 5, Domain(-1.0, 1.0), "offset", 9)
def test_evaluate_is_bit_identical_to_textbook_clenshaw(degree, seed, domain, shape, count):
    # Counts on both sides of a multiple of 8 (evaluate pads its work rows
    # to one) up to 12049; 2-D queries of shape (3, count); and x as a
    # strided view or a view one float into a larger buffer.
    rng = np.random.default_rng(seed)
    p = ChebInterpolant(rng.standard_normal(degree + 1) / np.arange(1, degree + 2), domain)
    # The points reach 4/(degree+1) half-widths past each end: far enough to
    # extrapolate, near enough that T_degree stays finite there.
    reach = 1.0 + 4.0 / (degree + 1)
    x = domain.from_unit(rng.uniform(-reach, reach, 3 * count + 1))
    x = {"scalar": float(x[0]), "0-d": np.array(x[0]), "array": x[:count],
         "2-d": x[:3 * count].reshape(3, count), "strided": x[:3 * count:3],
         "offset": x[1:count + 1]}[shape]
    got, want = evaluate(p, x), _textbook_clenshaw(p, x)
    assert type(got) is type(want)
    assert np.array_equal(got, want)


def _textbook_derivative(p):
    """The recurrence b_{k-1} = b_{k+1} + 2k a_k one k at a time, on the
    series scaled as ``derivative`` scales it: the bit-identity reference
    for derivative."""
    n = p.degree
    if n == 0:
        return np.zeros(1)
    scale = cheb._overflow_scale(p.coeffs)
    c = p.coeffs * scale
    b = np.zeros(n + 2)
    for k in range(n, 0, -1):
        b[k - 1] = b[k + 1] + 2.0 * k * c[k]
    b[0] *= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        return b[:n] * (2.0 / p.domain.width) / scale


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=3000),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=-300.0, max_value=300.0),
       st.sampled_from([Domain(-1.0, 1.0), Domain(0.0, 1e-3), Domain(-7.5, 1e4)]))
@example(0, 0, 0.0, Domain(-1.0, 1.0))
@example(1, 1, 0.0, Domain(0.0, 1e-3))
@example(3000, 2, 300.0, Domain(-1.0, 1.0))
@example(3000, 3, -300.0, Domain(-7.5, 1e4))
@example(2999, 4, 290.0, Domain(0.0, 1e-3))
def test_derivative_is_bit_identical_to_textbook_loop(degree, seed, log10_size, domain):
    # Magnitudes 1e(log10_size +- 8), clipped to 1e300: near 1e300 on a short
    # domain the derivative overflows, and must raise where the loop's does not fit.
    rng = np.random.default_rng(seed)
    size = 10.0 ** np.minimum(log10_size + rng.uniform(-8.0, 8.0, degree + 1), 300.0)
    p = ChebInterpolant(rng.standard_normal(degree + 1) * size, domain)
    want = _textbook_derivative(p)
    if not np.isfinite(want).all():
        with pytest.raises(ValueError, match="derivative coefficients overflow"):
            cheb.derivative(p)
    else:
        assert _bits(cheb.derivative(p).coeffs).tobytes() == _bits(want).tobytes()


def _scalar_chop_point(coeffs, tol):
    """The plateau walk one j at a time: the bit-identity reference for
    _chop_point (Aurentz & Trefethen 2017)."""
    n = coeffs.size
    if n < 17:
        return n
    env = np.abs(coeffs[::-1])
    np.maximum.accumulate(env, out=env)
    env = env[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]

    plateau_point = None
    j2 = 0
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return n
        e1 = env[j - 1]
        e2 = env[j2 - 1]
        if e1 == 0.0:
            plateau_point = j - 1
            break
        r = 3.0 * (1.0 - math.log(e1) / math.log(tol))
        if e2 / e1 > r:
            plateau_point = j - 1
            break
    if plateau_point is None:
        return n

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


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["decay", "zero_tail", "plateau", "interpolant"]))
def test_chop_point_matches_scalar_walk(n, seed, tail):
    rng = np.random.default_rng(seed)
    if tail == "interpolant":
        # A Runge function's coefficients: geometric decay into a rounding
        # plateau, as adaptive construction sees them.
        x = cheb_points_second_kind(max(n - 1, 1)).points
        width = rng.uniform(0.1, 50.0)
        coeffs = interpolant_from_values(1.0 / (1.0 + (width * x) ** 2)).coeffs
    else:
        rate = 10.0 ** -rng.uniform(1e-3, 1.0)
        coeffs = rate ** np.arange(n) * rng.choice([-1.0, 1.0], n)
        if tail == "zero_tail":
            coeffs[rng.integers(1, n + 1):] = 0.0
        elif tail == "plateau":
            level = 10.0 ** rng.uniform(-17.0, -5.0)
            coeffs += level * rng.standard_normal(n)
    assert _chop_point(coeffs) == _scalar_chop_point(coeffs, cheb._EPS)


@pytest.mark.parametrize("n", [8193, 65537])
@pytest.mark.parametrize("tail", ["plateau", "zero"])
def test_chop_point_matches_scalar_walk_far_past_start(n, tail):
    # c_0 = 1, a drop below the chop level by c_9, then a slow geometric
    # decay to 1e-15 over 3/4 of the tested range, on which no ratio test
    # passes.  The walk stops thousands of entries past its start: where the
    # plateau of 5e-16 comes into the ratio's reach (the first hit), or at
    # the envelope's first zero.  Either way the cut is where the decay ends.
    end = 3 * ((4 * n - 19) // 5) // 4
    coeffs = np.zeros(n)
    coeffs[0] = 1.0
    coeffs[1:9] = 0.01 ** np.arange(1, 9)
    coeffs[9:end] = 7e-11 * (1e-15 / 7e-11) ** (np.arange(end - 9) / (end - 9))
    if tail == "plateau":
        coeffs[end:] = 5e-16
    coeffs[1::2] *= -1.0
    assert _chop_point(coeffs) == _scalar_chop_point(coeffs, cheb._EPS) == end


def _near_tie_cases(tol, count):
    """(e1, e2) pairs whose plateau decision e2 / e1 > r flips with the log
    used for r: np.log(e1) differs from math.log(e1) in the last bit, and
    e2 is nudged by nextafter into the gap between the two r."""
    rng = np.random.default_rng(8)
    e1 = 10.0 ** rng.uniform(-11.0, -10.55, 400_000)
    r_np = 3.0 * (1.0 - np.log(e1) / math.log(tol))
    r_math = 3.0 * (1.0 - np.fromiter(map(math.log, e1), float, e1.size) / math.log(tol))
    cases = []
    for k in np.flatnonzero(r_np != r_math):
        e2 = np.nextafter(e1[k] * r_math[k], 0.0)
        for _ in range(16):
            q = e2 / e1[k]
            if (q > r_math[k]) != (q > r_np[k]) and q != r_np[k]:
                cases.append((float(e1[k]), float(e2), bool(q > r_math[k])))
                break
            e2 = np.nextafter(e2, 1.0)
        if len(cases) == count:
            break
    return cases


def test_chop_point_rechecks_near_ties_with_math_log():
    # The envelope 1, e1 (x6), e2, then a tail decaying well inside every
    # later ratio test: the first test, e2 / e1 > r(e1), decides the cut.
    # If it passes the plateau starts at once and the series is cut to 1;
    # if not, no test passes and the series is unresolved (17).
    tol = 2.0 ** -52
    cases = _near_tie_cases(tol, 12)
    if not cases:
        pytest.skip("np.log agrees with math.log on every candidate here")
    for e1, e2, passes in cases:
        coeffs = np.empty(17)
        coeffs[0] = 1.0
        coeffs[1:7] = e1
        coeffs[7] = e2
        coeffs[8:] = 0.25 * e1 * 0.8 ** np.arange(9)
        want = 1 if passes else 17
        assert _scalar_chop_point(coeffs, tol) == want
        assert _chop_point(coeffs) == want


class _CountingMath:
    """The math module, counting calls to log."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


@pytest.mark.parametrize("n", [17, 100, 4097, 65537])
def test_chop_point_early_rejection_boundary(monkeypatch, n):
    # The last tested envelope entry, max|c[stop - 1:]| / max|c| with
    # stop = (4 n - 19) // 5, set to the rejection level 2 eps^(2/3) and to
    # its neighbours.  Only strictly above it may _chop_point return before
    # the walk; at the level the walk runs (and, as r > 1 there, also finds
    # no plateau).  The walk is _chop_point's only caller of math.log.
    stop = (4 * n - 19) // 5
    counter = _CountingMath()
    monkeypatch.setattr(cheb, "math", counter)
    for last, walks in [(np.nextafter(_CHOP_LEVEL, 0.0), True), (_CHOP_LEVEL, True),
                        (np.nextafter(_CHOP_LEVEL, 1.0), False)]:
        coeffs = np.empty(n)
        coeffs[0] = -1.0
        coeffs[1:stop - 1] = 0.5 ** np.arange(1, stop - 1) + last
        coeffs[stop - 1] = last
        coeffs[stop:] = 0.25 * last * 0.9 ** np.arange(n - stop)
        counter.logs = 0
        assert _chop_point(coeffs) == _scalar_chop_point(coeffs, cheb._EPS)
        assert (counter.logs > 0) is walks


def test_chop_point_matches_scalar_walk_on_an_adaptive_round(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    # Every grid's values: grids of up to 4097 points all reach the tail
    # certificate, which may reject them untransformed; larger ones reach
    # only the transform.
    grids = []
    certify, to_coeffs = cheb._tail_unresolved, cheb._values_to_coeffs

    def record_certified(values):
        grids.append(values.copy())
        return certify(values)

    def record_transformed(values):
        if values.size > 2 ** 12 + 1:
            grids.append(values.copy())
        return to_coeffs(values)

    monkeypatch.setattr(cheb, "_tail_unresolved", record_certified)
    monkeypatch.setattr(cheb, "_values_to_coeffs", record_transformed)
    for seed in (0, 1):
        for op in workloads.Adaptive(seed).ops(0):
            op()
    seen = [to_coeffs(v) for v in grids]
    assert len(seen) > 900
    mismatched = [i for i, c in enumerate(seen)
                  if _chop_point(c) != _scalar_chop_point(c, cheb._EPS)]
    assert mismatched == []


def test_ramp_is_linspace_bit_for_bit():
    # The chop's ramp for every cut length up to 2999 and the largest
    # grids', under tolerances from 2^-52 to 1e-6.
    for tol in (2.0 ** -52, 1e-14, 1e-12, 1e-10, 1e-6):
        rise = (-1.0 / 3.0) * math.log10(tol)
        for count in [*range(2, 3000), 13107, 52430, 65537]:
            assert cheb._ramp(rise, count).tobytes() == np.linspace(0.0, rise, count).tobytes()


def _tail_series(k, decay, tail, parity, seed):
    """Coefficients of degree 2^k whose magnitude at stop - 1, the chop's
    last tested envelope index, is tail times the chop level relative to c_0
    (geometric or algebraic decay, random signs), or a lone coefficient
    there beside c_0 = 1 (or c_1 = 1 for odd parity): "single", whose
    values have max|v| = 1 + tail * level at x = 1."""
    n = 2 ** k
    stop = (4 * (n + 1) - 19) // 5
    j = np.arange(n + 1.0)
    if decay == "single":
        head = 1 if parity == "odd" else 0
        c = np.zeros(n + 1)
        c[head] = 1.0
        c[stop - 1 if parity == "mixed" or (stop - 1 - head) % 2 == 0 else stop] = tail * _CHOP_LEVEL
        return c
    if decay == "geometric":
        c = (tail * _CHOP_LEVEL) ** (j / (stop - 1))
    else:
        c = (j + 1.0) ** (math.log(tail * _CHOP_LEVEL) / math.log(stop))
    c *= np.random.default_rng(seed).choice([-1.0, 1.0], n + 1)
    if parity == "odd":
        c[::2] = 0.0
    elif parity == "even":
        c[1::2] = 0.0
    return c


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=4, max_value=12),
       st.sampled_from(["geometric", "algebraic", "single"]),
       st.floats(min_value=0.1, max_value=100.0),
       st.sampled_from(["odd", "even", "mixed"]),
       st.integers(min_value=-800, max_value=800),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
# A lone tail coefficient just above and just below 4 levels of max|v|.
@example(4, "single", 4.0 * (1 + 1e-3), "even", 0, 0)
@example(4, "single", 4.0 * (1 - 1e-3), "odd", 800, 0)
@example(12, "single", 4.0 * (1 + 1e-3), "odd", -800, 0)
@example(12, "single", 4.0 * (1 - 1e-3), "mixed", 0, 0)
@example(9, "single", 4.0 * (1 + 1e-3), "mixed", 800, 0)
@example(9, "single", 4.0 * (1 - 1e-3), "even", -800, 0)
def test_tail_certificate_rejects_only_grids_the_chop_rejects(
        inverse_cosine_transform, k, decay, tail, parity, log2_scale, seed):
    v = inverse_cosine_transform(_tail_series(k, decay, tail, parity, seed)) * 2.0 ** log2_scale
    rejected = cheb._tail_unresolved(v)
    if rejected:
        assert _chop_point(cheb._values_to_coeffs(v)) == v.size
    if decay == "single":
        # Its lone coefficient passes 4 levels of max|v| = 1 + tail * level
        # where tail > 4 (1 + 3e-10); rounding moves that by less than 1e-6.
        assert rejected == (tail > 4.0) or abs(tail - 4.0) < 4e-4


@pytest.mark.parametrize("k", range(4, 13))
@pytest.mark.parametrize("log2_scale", [-899, 0, 899])
def test_tail_rows_give_the_transforms_tail(k, log2_scale):
    # The certificate's error against the transform's four coefficients,
    # which its factor-2 margin of 1.5e-10 max|v| must cover.
    n = 2 ** k
    stop = (4 * (n + 1) - 19) // 5
    v = np.random.default_rng(k).standard_normal(n + 1) * 2.0 ** log2_scale
    want = cheb._values_to_coeffs(v)[[stop - 1, stop, n - 1, n]]
    assert np.abs(v @ cheb._tail_rows(n) - want).max() <= 1e-12 * np.abs(v).max()


def test_tail_rows_cache_holds_nine_grids():
    # A construction that reaches the 65537-point grid passes every size.
    cheb._tail_rows.cache_clear()
    with pytest.raises(cheb.UnresolvedFunctionError):
        cheb.interpolant_from_function(lambda x: np.sin(1e6 * x))
    assert cheb._tail_rows.cache_info().currsize == 9
    assert sum(cheb._tail_rows(2 ** k).nbytes for k in range(4, 13)) <= 256 * 1024
    assert cheb._tail_rows.cache_info().currsize == 9


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _textbook_barycentric(values, nodes, x):
    """Second-kind barycentric interpolation with an explicit exact-node scan
    and separate diff and w/diff matrices: the bit-identity reference for
    evaluate_barycentric (Berrut & Trefethen 2004)."""
    v, pts = np.asarray(values, dtype=float), nodes.points
    w = np.ones(pts.size)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    xq = np.asarray(x, dtype=float)
    scalar = xq.ndim == 0
    xq = np.atleast_1d(xq)
    diff = xq[:, None] - pts[None, :]
    exact_q, exact_n = np.nonzero(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = w / diff
        out = np.vecdot(ratio, v) / np.sum(ratio, axis=1)
    out[exact_q] = v[exact_n]
    bad = np.nonzero(~np.isfinite(out))[0]
    out[bad] = v[np.argmin(np.abs(diff[bad]), axis=1)]
    return float(out[0]) if scalar else out


def _reference_barycentric(values, nodes, x):
    """The textbook form inside [a, b] and Clenshaw on the interpolant of
    the values outside it: the bit-identity reference for
    evaluate_barycentric.  Raises ValueError where Clenshaw overflows."""
    dom = nodes.domain
    want = _textbook_barycentric(values, nodes, x)
    xq = np.atleast_1d(x)
    outside = (xq < dom.a) | (xq > dom.b)
    if not outside.any():
        return want
    clenshaw = evaluate(interpolant_from_values(values, dom), xq[outside])
    if np.ndim(x) == 0:
        return float(clenshaw[0])
    want[outside] = clenshaw
    return want


_SUBNORMALS = np.array([5e-324, -5e-324, 2.2250738585e-313, -1e-310])


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=299),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.booleans(),
       st.sampled_from(["on", "next", "inside", "outside", "subnormal", "mix"]),
       st.booleans())
# Rows of cheb._UNBUFFERED_WIDTH nodes or more are filled and summed under a
# 16-element ufunc buffer: rows on both sides of that width, and wide ones.
@example(cheb._UNBUFFERED_WIDTH - 2, 1, True, "mix", False)
@example(cheb._UNBUFFERED_WIDTH - 1, 2, True, "mix", False)
@example(cheb._UNBUFFERED_WIDTH - 2, 3, False, "mix", False)
@example(cheb._UNBUFFERED_WIDTH - 1, 4, False, "mix", False)
@example(1000, 5, True, "mix", False)
@example(1500, 6, True, "mix", False)
@example(1000, 7, False, "mix", False)
@example(1500, 8, False, "mix", False)
def test_barycentric_is_bit_identical_to_textbook_form(n, seed, unit, where, scalar):
    rng = np.random.default_rng(seed)
    if unit:
        dom = Domain(-1.0, 1.0)
    else:
        a = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 2.0)
        dom = Domain(a, a + 10.0 ** rng.uniform(-6.0, 2.0))
    nodes = cheb_points_second_kind(n, dom)
    pts = nodes.points
    v = rng.standard_normal(n + 1)
    pick = rng.integers(0, n + 1, 16)
    queries = {
        "on": pts[pick],
        "next": np.nextafter(pts[pick], np.where(pick % 2, np.inf, -np.inf)),
        "inside": dom.from_unit(rng.uniform(-1.0, 1.0, 16)),
        "outside": dom.from_unit(np.sign(rng.uniform(-1.0, 1.0, 16)) * rng.uniform(1.0, 1.5, 16)),
        # offsets from a node at 0.0 (odd counts on symmetric domains)
        "subnormal": _SUBNORMALS,
    }
    queries["mix"] = np.concatenate(list(queries.values()))
    x = queries[where]
    if scalar:
        x = float(x[0])
    try:
        want = _reference_barycentric(v, nodes, x)
    except ValueError:
        with pytest.raises(ValueError, match="overflows"):
            evaluate_barycentric(v, nodes, x)
        return
    got = evaluate_barycentric(v, nodes, x)
    assert type(got) is type(want)
    assert np.array_equal(_bits(got), _bits(want))


def test_barycentric_mixed_call_keeps_textbook_bits_inside():
    # Only the 7 inside rows enter the barycentric blocks; the outside rows
    # go to Clenshaw.  The row sums are row-local, so the inside rows keep
    # the bits the textbook form gives them in a call with all 9 rows.
    rng = np.random.default_rng(50)
    v = rng.standard_normal(51)
    nodes = cheb_points_second_kind(50)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 7), [1.25, -1.5]])
    got = evaluate_barycentric(v, nodes, x)
    assert np.array_equal(_bits(got[:7]), _bits(_textbook_barycentric(v, nodes, x)[:7]))
    assert np.array_equal(_bits(got[7:]), _bits(evaluate(interpolant_from_values(v), x[7:])))


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.integers(min_value=1, max_value=3000),
                 st.sampled_from([2 ** 14, 2 ** 15 + 6])),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=4))
def test_barycentric_query_bits_do_not_depend_on_the_batch(n, seed, blocks):
    # Each query must get the same bits alone, in the full batch and in a
    # shuffled sub-batch, whichever block of rows it lands in.  From
    # n = 2^14 on, every row is a block of its own.
    rng = np.random.default_rng(seed)
    nodes = cheb_points_second_kind(n)
    pts = nodes.points
    v = rng.standard_normal(n + 1)
    rows = max(cheb._BLOCK_ELEMENTS // (n + 1), 1)
    size = blocks * rows + int(rng.integers(0, rows))
    pick = rng.integers(0, n + 1, size)
    side = np.where(rng.integers(0, 2, size) == 1, 1.0, -1.0)
    x = np.choose(rng.integers(0, 4, size), [
        pts[pick],
        np.nextafter(pts[pick], side * np.inf),
        rng.uniform(-1.0, 1.0, size),
        # just outside, close enough that extrapolating degree n stays finite
        side * (1.0 + rng.uniform(0.0, 1.0 / n ** 2, size)),
    ])
    got = _bits(evaluate_barycentric(v, nodes, x))
    for i in rng.integers(0, size, 8):
        assert _bits(evaluate_barycentric(v, nodes, x[i])) == got[i]
    sub = rng.permutation(size)[: int(rng.integers(1, size + 1))]
    assert np.array_equal(_bits(evaluate_barycentric(v, nodes, x[sub])), got[sub])


def test_barycentric_memory_is_bounded_by_the_block():
    # One queries x nodes matrix of this size would take 306 MiB.  The
    # second batch sits on nodes, so every row snaps: the nearest-node
    # lookup must also run a block of rows at a time.
    rng = np.random.default_rng(20000)
    nodes = cheb_points_second_kind(2000)
    v = rng.standard_normal(2001)
    x = rng.uniform(-1.0, 1.0, 20000)
    pick = rng.integers(0, 2001, 20000)
    for queries in (x, nodes.points[pick]):
        tracemalloc.start()
        try:
            got = evaluate_barycentric(v, nodes, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
    assert np.array_equal(_bits(got), _bits(v[pick]))


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.integers(min_value=2, max_value=300), st.just(2 ** 15 + 6)),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=4))
def test_trig_query_bits_do_not_depend_on_the_batch(n, seed, blocks):
    # As for evaluate_barycentric: the same bits alone, in the full batch
    # and in a shuffled sub-batch.  At n = 2^15 + 6 every row is a block.
    rng = np.random.default_rng(seed)
    t = rng.uniform(-5.0, 5.0) + rng.uniform(0.01, 1.0) * np.arange(n)
    y = rng.standard_normal(n)
    period = n * (t[-1] - t[0]) / (n - 1)
    rows = max(cheb._BLOCK_ELEMENTS // n, 1)
    size = blocks * rows + int(rng.integers(0, rows))
    pick = rng.integers(0, n, size)
    x = np.choose(rng.integers(0, 4, size), [
        t[pick],
        np.nextafter(t[pick], np.inf),
        rng.uniform(t[0], t[-1], size),
        t[pick] + period * rng.integers(-3, 4, size),
    ])
    got = _bits(trig_interpolate(t, y, x))
    for i in rng.integers(0, size, 8):
        assert _bits(trig_interpolate(t, y, x[i])) == got[i]
    sub = rng.permutation(size)[: int(rng.integers(1, size + 1))]
    assert np.array_equal(_bits(trig_interpolate(t, y, x[sub])), got[sub])


def _textbook_trig(sample_x, sample_y, x):
    """Barycentric trigonometric interpolation (Henrici 1979) with the full
    queries x samples matrix, an explicit exact-sample scan and a snap of
    every other non-finite row to its nearest sample: the bit-identity
    reference for trig_interpolate.  The samples are scaled by a power of
    two taking max|y| below 1, so the sums overflow only where the value
    does."""
    samples = Signal(sample_x, sample_y)
    xs, ys, n = samples.t, samples.y, len(samples)
    rate = np.pi / (n * samples.step)
    theta = (np.atleast_1d(np.asarray(x, dtype=float)) - xs[0]) * rate
    theta_k = (xs - xs[0]) * rate
    sq, cq = np.sin(theta)[:, None], np.cos(theta)[:, None]
    sk, ck = np.sin(theta_k), np.cos(theta_k)
    sign = (-1.0) ** np.arange(n)
    sin_diff = sq * (sign * ck) - cq * (sign * sk)  # (-1)^k sin(theta - theta_k)
    exact_q, exact_k = np.nonzero(sin_diff == 0.0)
    scale = 2.0 ** -max(math.frexp(np.max(np.abs(ys)))[1], 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = 1.0 / sin_diff if n % 2 else (cq * ck + sq * sk) / sin_diff
        out = np.vecdot(g, ys * scale) / np.sum(g, axis=1) / scale
    out[exact_q] = ys[exact_k]
    bad = np.nonzero(~np.isfinite(out))[0]
    out[bad] = ys[np.argmin(np.abs(sin_diff[bad]), axis=1)]
    return float(out[0]) if np.ndim(x) == 0 else out


@pytest.mark.parametrize("parity", [0, 1])
@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=1, max_value=150),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["on", "next", "inside", "images", "mix"]),
       st.booleans(),
       st.booleans())
# The same buffer rule holds for trig rows: n = 2 half + parity is 126 to 129
# here, on both sides of cheb._UNBUFFERED_WIDTH.
@example(cheb._UNBUFFERED_WIDTH // 2 - 1, 0, "mix", False, False)
@example(cheb._UNBUFFERED_WIDTH // 2, 1, "mix", True, False)
def test_trig_is_bit_identical_to_textbook_form(parity, half, seed, where, huge, scalar):
    n = 2 * half + parity
    rng = np.random.default_rng(seed)
    t = rng.uniform(-5.0, 5.0) + rng.uniform(0.01, 1.0) * np.arange(n)
    # Samples up to 1e307 leave room for the interpolant (Lebesgue constant
    # below 5 here) but overflow the unscaled sums.
    y = rng.uniform(-1e307, 1e307, n) if huge else rng.standard_normal(n)
    period = n * Signal(t, y).step
    pick = rng.integers(0, n, 16)
    queries = {
        "on": t[pick],
        "next": np.nextafter(t[pick], np.where(pick % 2, np.inf, -np.inf)),
        "inside": rng.uniform(t[0], t[-1], 16),
        "images": t[pick] + period * rng.integers(-3, 4, 16),
    }
    queries["mix"] = np.concatenate(list(queries.values()))
    x = queries[where]
    if scalar:
        x = float(x[0])
    got, want = trig_interpolate(t, y, x), _textbook_trig(t, y, x)
    assert type(got) is type(want)
    assert np.array_equal(_bits(got), _bits(want))


def test_trig_memory_is_bounded_by_the_block():
    # One queries x samples matrix of this size would take 305 MiB.  The
    # second batch sits on samples, so every row snaps.
    rng = np.random.default_rng(20000)
    t = np.arange(2000.0)
    y = rng.standard_normal(2000)
    x = rng.uniform(-2000.0, 4000.0, 20000)
    pick = rng.integers(0, 2000, 20000)
    for queries in (x, t[pick]):
        tracemalloc.start()
        try:
            got = trig_interpolate(t, y, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
    assert np.array_equal(_bits(got), _bits(y[pick]))


def _textbook_mean_distance(points):
    """The diagonal masked out of the log-distance matrix: the bit-identity
    reference for mean_distance."""
    pts = np.asarray(points, dtype=float)
    diff = np.abs(pts[:, None] - pts[None, :])
    off_diag = ~np.eye(pts.size, dtype=bool)
    logs = np.zeros_like(diff)
    np.log(diff, where=off_diag, out=logs)
    return np.exp(logs.sum(axis=1) / (pts.size - 1))


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=2, max_value=400),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["cheb", "first", "random", "shuffled"]))
@example(1000, 1000, "cheb")
@example(1000, 1000, "shuffled")
@example(3001, 3001, "cheb")
@example(3001, 3001, "shuffled")
def test_mean_distance_is_bit_identical_to_masked_form(count, seed, kind):
    rng = np.random.default_rng(seed)
    pts = {
        "cheb": lambda: cheb_points_second_kind(count - 1).points,
        "first": lambda: cheb_points_first_kind(count).points,
        "random": lambda: np.unique(rng.uniform(-1e3, 1e3, count)),
        "shuffled": lambda: rng.permutation(np.unique(rng.uniform(-1.0, 1.0, count))),
    }[kind]()
    assert np.array_equal(_bits(mean_distance(pts)), _bits(_textbook_mean_distance(pts)))


@pytest.fixture(scope="module")
def reference():
    """``perfbench/reference.py``, whose oracles do not call chebsig."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import reference
        yield reference


@contextlib.contextmanager
def _evaluate_calls():
    """Count the ``cheb.evaluate`` calls made inside."""
    calls = []
    real = cheb.evaluate

    def counted(p, x):
        calls.append(1)
        return real(p, x)

    with mock.patch.object(cheb, "evaluate", counted):
        yield calls


def _two_tone(degree, rng, domain):
    """sin(k s + a) + sin(k2 s + b) / 2 at the second-kind points, k from
    0.7 to 0.9 degree: at degree 999, the benchmark's min_and_max input."""
    k = rng.uniform(0.7, 0.9) * degree
    k2 = rng.uniform(k / 3.0, k / 2.0)
    a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
    s = cheb_points_second_kind(degree).points
    return interpolant_from_values(np.sin(k * s + a) + 0.5 * np.sin(k2 * s + b), domain)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["uniform", "two-tone", "monotone", "zero"]),
       st.one_of(st.floats(min_value=-323.0, max_value=300.0), st.just("far")))
@example(999, 0, "two-tone", 0.0)
@example(1000, 1, "uniform", math.log10(2.0))
@example(60, 2, "two-tone", "far")
@example(300, 3, "uniform", -300.0)
@example(300, 4, "uniform", 300.0)
@example(40, 5, "monotone", 0.0)
@example(0, 6, "uniform", 0.0)
@example(7, 7, "zero", 0.0)
@example(999, 8, "two-tone", -305.0)
@example(999, 9, "uniform", -320.0)
@example(300, 10, "uniform", math.log10(5e-324))
@example(48, 11, "T_n", 0.0)
@example(3, 12, "cube", 0.0)
@example(999, 24, "uniform", "far")
@example(914, 591944314, "uniform", "far")
@example(638, 852374357, "uniform", "far")
def test_min_and_max_matches_the_dense_scan_oracle(reference, degree, seed, kind, log10_width):
    # Widths 1e-323 (two subnormal steps) to 1e300, placed anywhere from
    # [-2w, -w] to [w, 2w]; "far" is [6000, 6010], where adjacent floats lie
    # 9.1e-13 apart.  The search runs on the unit series, so p on any domain
    # must give the bits of its [-1, 1] copy.  "monotone" (s + s^3) has no
    # root of p'.  T_48's p' = 48 U_47 vanishes at cos(j pi / 48), among them
    # the breakpoints -cos(i pi / 3) of the 47 // 12 = 3 pieces; "cube" (s^3)
    # has a double root of p' at 0; the seed-24 data in "far" (no draw for
    # the domain) have their maximum 1e-4 from 1.
    rng = np.random.default_rng(seed)
    if log10_width == "far":
        dom = Domain(6000.0, 6010.0)
    else:
        w = 10.0 ** log10_width
        a = rng.uniform(-2.0, 1.0) * w
        dom = Domain(a, a + w)
    n = max(degree, 1)
    s = cheb_points_second_kind(n).points
    if kind == "two-tone":
        p = _two_tone(n, rng, dom)
    elif kind == "T_n":
        p = ChebInterpolant(np.eye(n + 1)[n], dom)
    else:
        y = {"uniform": lambda: rng.uniform(-1.0, 1.0, n + 1), "monotone": lambda: s + s ** 3,
             "zero": lambda: 0.0 * s, "cube": lambda: s ** 3}[kind]()
        p = interpolant_from_values(y, dom)
    if degree == 0:
        p = ChebInterpolant(p.coeffs[:1], dom)
    got = cheb.min_and_max(p)
    unit = ChebInterpolant(p.coeffs, Domain(-1.0, 1.0))
    assert _bits(got).tobytes() == _bits(cheb.min_and_max(unit)).tobytes()
    # The extrema are Clenshaw values, whose rounding the oracle's are free
    # of: near +-1 it puts the minimum of the 914 example 1.07e-13 max|p|
    # and the maximum of the 638 one 1.19e-13 max|p| from the oracle's.  So
    # twice Clenshaw's largest error against the oracle's cosine sums on
    # 2n + 1 second-kind points is allowed on top of 1e-13 max|p|.
    x = cheb_points_second_kind(2 * n).points
    rounding = np.max(np.abs(evaluate(unit, x) - reference.cheb_sum(p.coeffs, x)))
    want = reference.extrema(p.coeffs)
    gap = np.max(np.abs(np.subtract(got, want)))
    assert gap <= 1e-13 * np.max(np.abs(want)) + 2.0 * rounding


def test_min_and_max_makes_at_most_four_evaluate_passes():
    # The benchmark's two-tone degree-999 input: one pass samples p' on
    # every piece, two take the Newton step and one compares p.
    p = _two_tone(999, np.random.default_rng(999), Domain(-1.0, 1.0))
    with _evaluate_calls() as calls:
        cheb.min_and_max(p)
    assert len(calls) <= 4
