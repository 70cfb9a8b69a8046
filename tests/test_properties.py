"""Randomized property tests for the library invariants."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chebsig import cheb
from chebsig.cheb import (
    ChebInterpolant,
    Domain,
    _chop_point,
    cheb_points_first_kind,
    cheb_points_second_kind,
    evaluate,
    evaluate_barycentric,
    interpolant_from_values,
    truncate,
    values_at_nodes,
)
from chebsig.fourier import (
    amplitude_spectrum,
    resample_spectral,
    trig_cardinal,
    trig_interpolate,
)
from chebsig.nodes import mean_distance
from chebsig.signals import Signal, moving_average

finite_values = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2, max_size=60,
)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=3000))
def test_node_mirror_symmetry(n):
    pts = cheb_points_second_kind(n).points
    assert np.array_equal(pts, -pts[::-1])
    pts = cheb_points_first_kind(n).points
    assert np.array_equal(pts, -pts[::-1])


@settings(deadline=None, max_examples=60)
@given(finite_values)
def test_transform_round_trip(values):
    v = np.asarray(values)
    back = values_at_nodes(interpolant_from_values(v))
    scale = max(1.0, np.max(np.abs(v)))
    assert np.max(np.abs(back - v)) < 1e-12 * scale


@settings(deadline=None, max_examples=60)
@given(finite_values, st.integers(min_value=0, max_value=10 ** 6))
def test_barycentric_exact_at_every_node(values, pick):
    v = np.asarray(values)
    nodes = cheb_points_second_kind(v.size - 1)
    j = pick % v.size
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


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=512))
def test_dft_round_trip_any_length(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    back = resample_spectral(Signal(np.arange(n, dtype=float), v), n).y
    assert np.max(np.abs(back - v)) < 1e-12 * max(1.0, np.max(np.abs(v)))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=512))
def test_parseval(n):
    rng = np.random.default_rng(n + 7)
    v = rng.standard_normal(n)
    _, amps, _ = amplitude_spectrum(Signal(np.arange(n, dtype=float), v))
    lhs = np.sum(v ** 2)
    rhs = np.sum(amps ** 2) / n
    assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1.0)


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


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=64))
def test_cardinal_delta(n):
    offsets = 2.0 * np.arange(1, n) / n
    tau = trig_cardinal(offsets, n)
    assert np.max(np.abs(tau)) < 1e-13
    assert trig_cardinal(0.0, n) == 1.0


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=10 ** 6))
def test_trig_interpolation_exact_at_samples(n, seed):
    rng = np.random.default_rng(seed)
    t = 1.5 + 0.25 * np.arange(n)
    y = rng.uniform(-1, 1, n)
    out = trig_interpolate(t, y, t)
    assert np.max(np.abs(out - y)) < 1e-12


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
def test_moving_average_dc_gain(level, window):
    s = Signal(np.arange(40.0), np.full(40, level))
    out = moving_average(s, window)
    assert np.allclose(out.y[window - 1:], level, atol=1e-12 * max(1, abs(level)))


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
       st.sampled_from(["scalar", "0-d", "empty", "array"]))
def test_evaluate_is_bit_identical_to_textbook_clenshaw(degree, seed, domain, shape):
    rng = np.random.default_rng(seed)
    p = ChebInterpolant(rng.standard_normal(degree + 1) / np.arange(1, degree + 2), domain)
    # The points reach 4/(degree+1) half-widths past each end: far enough to
    # extrapolate, near enough that T_degree stays finite there.
    reach = 1.0 + 4.0 / (degree + 1)
    x = domain.from_unit(rng.uniform(-reach, reach, 41))
    x = {"scalar": float(x[0]), "0-d": np.array(x[0]), "empty": x[:0], "array": x}[shape]
    got, want = evaluate(p, x), _textbook_clenshaw(p, x)
    assert type(got) is type(want)
    assert np.array_equal(got, want)


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
       st.sampled_from(["decay", "zero_tail", "plateau", "interpolant"]),
       st.floats(min_value=-16.0, max_value=-6.0))
def test_chop_point_matches_scalar_walk(n, seed, tail, log10_tol):
    rng = np.random.default_rng(seed)
    tol = 10.0 ** log10_tol
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
    assert _chop_point(coeffs, tol) == _scalar_chop_point(coeffs, tol)


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
        assert _chop_point(coeffs, tol) == want


def test_chop_point_matches_scalar_walk_on_an_adaptive_round(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads

    seen = []

    def record(coeffs, tol):
        seen.append((coeffs.copy(), tol))
        return _chop_point(coeffs, tol)

    monkeypatch.setattr(cheb, "_chop_point", record)
    for op in workloads.Adaptive(0).ops(0):
        op()
    assert len(seen) > 900
    mismatched = [i for i, (c, tol) in enumerate(seen)
                  if _chop_point(c, tol) != _scalar_chop_point(c, tol)]
    assert mismatched == []


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
        out = (ratio @ v) / np.sum(ratio, axis=1)
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
    # A row of the BLAS product can round differently when the row count
    # changes: on OpenBLAS 0.3.31 (Haswell kernel), multiplying only the 7
    # inside rows here changes 3 of them.
    rng = np.random.default_rng(50)
    v = rng.standard_normal(51)
    nodes = cheb_points_second_kind(50)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 7), [1.25, -1.5]])
    got = evaluate_barycentric(v, nodes, x)
    assert np.array_equal(_bits(got[:7]), _bits(_textbook_barycentric(v, nodes, x)[:7]))
    assert np.array_equal(_bits(got[7:]), _bits(evaluate(interpolant_from_values(v), x[7:])))


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
def test_mean_distance_is_bit_identical_to_masked_form(count, seed, kind):
    rng = np.random.default_rng(seed)
    pts = {
        "cheb": lambda: cheb_points_second_kind(count - 1).points,
        "first": lambda: cheb_points_first_kind(count).points,
        "random": lambda: np.unique(rng.uniform(-1e3, 1e3, count)),
        "shuffled": lambda: rng.permutation(np.unique(rng.uniform(-1.0, 1.0, count))),
    }[kind]()
    assert np.array_equal(_bits(mean_distance(pts)), _bits(_textbook_mean_distance(pts)))
