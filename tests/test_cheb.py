import math
import tracemalloc

import numpy as np
import pytest

from chebsig import cheb
from chebsig.cheb import (
    ChebInterpolant,
    Domain,
    NodeSet,
    UnresolvedFunctionError,
    _chop_point,
    cheb_points_first_kind,
    cheb_points_second_kind,
    derivative,
    evaluate,
    evaluate_barycentric,
    interpolant_from_function,
    interpolant_from_values,
    min_and_max,
    truncate,
)
from chebsig.fourier import trig_interpolate
from chebsig.nodes import legendre_points, uniform_points

UNIT = Domain(-1.0, 1.0)


def direct_coefficients(values):
    """O(n^2) cosine-sum coefficients; independent of the FFT path."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    g = v[::-1]  # g_m = f(cos(m pi / n))
    m = np.arange(n + 1)
    out = np.empty(n + 1)
    for k in range(n + 1):
        terms = g * np.cos(k * m * np.pi / n)
        s = terms[0] / 2 + terms[1:n].sum() + terms[n] / 2
        out[k] = 2.0 * s / n
    out[0] /= 2
    out[n] /= 2
    return out


def _rebuilt_grid_construction(f, domain):
    """The adaptive ladder with every grid built and sampled in full: the
    bit-identity reference for interpolant_from_function's nested grids."""
    for k in range(3, 17):
        nodes = cheb_points_second_kind(2 ** k, domain)
        coeffs = interpolant_from_values(f(nodes.points), domain).coeffs
        cut = _chop_point(coeffs)
        if cut < coeffs.size:
            return coeffs[:cut]
    raise AssertionError("unresolved on the 65537-point grid")


_LADDER_FAMILIES = {
    "sin": lambda k: lambda u: np.sin(k * u + 0.3),
    "runge": lambda k: lambda u: 1.0 / (1.0 + (k * (u - 0.1)) ** 2),
    "tanh": lambda k: lambda u: np.tanh(k * (u + 0.2)),
}


class TestDomain:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Domain(1.0, 1.0)
        with pytest.raises(ValueError):
            Domain(2.0, -2.0)

    @pytest.mark.parametrize("a, b", [(-1e308, 1e308), (1e308, 1.7e308)])
    def test_rejects_overflowing_arithmetic(self, a, b):
        # b - a overflows in the first, a + b (used by from_unit) in the second.
        with pytest.raises(ValueError, match="overflows"):
            Domain(a, b)

    def test_too_narrow_to_separate_nodes(self):
        with pytest.raises(ValueError, match="too narrow to separate 5 nodes"):
            cheb_points_second_kind(4, Domain(1.0, 1.0 + 2e-16))

    def test_maps_are_inverse(self):
        d = Domain(0.0, 6.0)
        x = np.linspace(0, 6, 13)
        assert np.allclose(d.from_unit(d.to_unit(x)), x, atol=1e-14)


class TestNodeGeneration:
    def test_degree9_matches_reference_listing(self):
        expected = [-1.0, -0.9397, -0.7660, -0.5, -0.1736,
                    0.1736, 0.5, 0.7660, 0.9397, 1.0]
        pts = cheb_points_second_kind(9).points
        assert np.max(np.abs(pts - expected)) < 5e-5

    def test_second_kind_endpoints_only(self):
        assert np.array_equal(cheb_points_second_kind(1).points, [-1.0, 1.0])

    def test_second_kind_affine_map(self):
        pts = cheb_points_second_kind(2, Domain(0.0, 2.0)).points
        assert np.allclose(pts, [0.0, 1.0, 2.0], atol=1e-15)

    def test_end_points_rounding_outside_domain(self):
        # from_unit(-1) on [0.24, 3.14] rounds to 0.23999999999999977.
        dom = Domain(0.24, 3.14)
        pts = cheb_points_second_kind(16, dom).points
        assert pts[0] == 0.24 and pts[-1] == 3.14
        p = interpolant_from_function(np.sin, dom)
        assert abs(p(1.0) - math.sin(1.0)) < 1e-14

    def test_end_points_of_a_two_ulp_domain(self):
        # a + b rounds to 2a here, so from_unit maps both -1 and 1 onto a.
        dom = Domain(1.0, 1.0 + 2 ** -52)
        assert np.array_equal(cheb_points_second_kind(1, dom).points, [dom.a, dom.b])

    def test_second_kind_unit_points_come_from_one_bounded_cache(self):
        # One cache of the last 8 sizes up to 2^16 gives read-only arrays; a
        # NodeSet holds its own copy, and no larger size is held once dropped.
        for n in [*range(1, 101), 2 ** 16 + 1]:
            assert not cheb._second_kind_unit_points(n).flags.writeable
        assert cheb._cached_unit_points.cache_info().currsize <= 8
        pts = cheb_points_second_kind(8, Domain(-1.0, 1.0)).points
        assert not np.shares_memory(pts, cheb._second_kind_unit_points(8))
        cheb._cached_unit_points.cache_clear()
        tracemalloc.start()
        try:
            cheb_points_second_kind(2 ** 20)
            evaluate_barycentric(np.ones(2 ** 20 + 2), cheb_points_second_kind(2 ** 20 + 1), 0.3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2 ** 20, held  # either call's points alone are 8 MiB

    def test_first_kind_small_counts(self):
        assert cheb_points_first_kind(1).points[0] == 0.0
        pts = cheb_points_first_kind(2).points
        assert np.allclose(pts, [-math.sqrt(2) / 2, math.sqrt(2) / 2], rtol=1e-15)

    def test_first_kind_interior(self):
        pts = cheb_points_first_kind(100).points
        assert pts[0] > -1.0 and pts[-1] < 1.0
        assert len(pts) == 100

    def test_mirror_symmetry_bit_exact_all_n(self):
        # Every point set on [-1, 1] must satisfy x_j == -x_{rev(j)} exactly.
        for n in range(1, 3001):
            pts = cheb_points_second_kind(n).points
            assert np.array_equal(pts, -pts[::-1]), f"second kind n={n}"
            pts = cheb_points_first_kind(n).points
            assert np.array_equal(pts, -pts[::-1]), f"first kind n={n}"


class TestExtremaAndRoots:
    """Second-kind points are the extrema of T_n, first-kind points its roots."""

    def test_extrema_small(self):
        assert np.array_equal(cheb_points_second_kind(2).points, [-1.0, 0.0, 1.0])

    def test_extrema_have_unit_magnitude(self):
        pts = cheb_points_second_kind(4).points
        for x in pts:
            assert abs(abs(math.cos(4 * math.acos(x))) - 1.0) < 1e-14
        assert np.allclose(
            pts,
            [-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 1.0],
            atol=1e-16,
        )

    def test_polynomial_vanishes_at_roots(self):
        for x in cheb_points_first_kind(5).points:
            assert abs(math.cos(5 * math.acos(x))) < 1e-14

    def test_roots_equal_first_kind_points(self):
        # The textbook roots cos((2k+1) pi / (2n)) of T_n.
        for n in (1, 2, 7, 64, 501):
            roots = np.sort(np.cos((2 * np.arange(n) + 1) * (np.pi / (2 * n))))
            assert np.allclose(cheb_points_first_kind(n).points, roots, rtol=0, atol=1e-15)


class TestInterpolantFromValues:
    def test_constant_data(self):
        p = interpolant_from_values([3.5, 3.5, 3.5, 3.5])
        assert p.coeffs[0] == pytest.approx(3.5, abs=1e-15)
        assert np.max(np.abs(p.coeffs[1:])) < 1e-15

    def test_identity_data(self):
        nodes = cheb_points_second_kind(6).points
        p = interpolant_from_values(nodes)
        expected = np.zeros(7)
        expected[1] = 1.0
        assert np.max(np.abs(p.coeffs - expected)) < 1e-15

    def test_t2_samples_against_direct_solve(self):
        nodes = cheb_points_second_kind(4).points
        vals = np.cos(2 * np.arccos(nodes))
        p = interpolant_from_values(vals)
        # Independent oracle: solve the 5x5 collocation system directly.
        system = np.column_stack([np.cos(k * np.arccos(nodes)) for k in range(5)])
        direct = np.linalg.solve(system, vals)
        assert np.max(np.abs(p.coeffs - direct)) < 1e-13
        assert np.max(np.abs(p.coeffs - [0, 0, 1, 0, 0])) < 1e-14

    def test_matches_direct_cosine_sum(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 16, 33, 100):
            v = rng.standard_normal(n + 1)
            fast = interpolant_from_values(v).coeffs
            slow = direct_coefficients(v)
            assert np.max(np.abs(fast - slow)) < 1e-12 * np.max(np.abs(v))

    def test_transform_round_trip(self, inverse_cosine_transform):
        # Synthesis back through the inverse transform stays at a few eps
        # even for rough random data and large n.
        rng = np.random.default_rng(1)
        for n in (1, 2, 31, 256, 1024, 4096):
            v = rng.uniform(-1, 1, n + 1)
            back = inverse_cosine_transform(interpolant_from_values(v).coeffs)
            assert np.max(np.abs(back - v)) < 50 * 2.0 ** -52 * np.max(np.abs(v))

    def test_clenshaw_round_trip_small_n(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 11, 31):
            v = rng.uniform(-1, 1, n + 1)
            p = interpolant_from_values(v)
            back = evaluate(p, cheb_points_second_kind(n).points)
            assert np.max(np.abs(back - v)) < 50 * 2.0 ** -52 * np.max(np.abs(v))

    def test_values_near_the_float_limit(self):
        # The transform's partial sums reach 8e308 on these samples of 1e308 T_4.
        p = interpolant_from_values([1e308, -1e308, 1e308, -1e308, 1e308])
        assert np.max(np.abs(p.coeffs - [0.0, 0.0, 0.0, 0.0, 1e308])) <= 1e-15 * 1e308

    def test_rejects_bad_input(self):
        for values, shape in (([1.0], r"\(1,\)"), (np.ones((5, 1)), r"\(5, 1\)")):
            with pytest.raises(ValueError, match=f"1-D with at least 2 .*got shape {shape}$"):
                interpolant_from_values(values)
        with pytest.raises(ValueError):
            interpolant_from_values([1.0, np.nan, 0.0])


class TestInterpolantFromFunction:
    def test_arctan_parity_structure(self):
        # The closed form of the odd coefficients (Mason & Handscomb 2003).
        p = interpolant_from_function(np.arctan)
        even = p.coeffs[0::2]
        assert np.max(np.abs(even)) < 1e-15
        root = math.sqrt(2.0) - 1.0
        for k in range(12):
            closed = 2.0 * (-1.0) ** k * root ** (2 * k + 1) / (2 * k + 1)
            assert p.coeffs[2 * k + 1] == pytest.approx(closed, abs=1e-14)

    def test_constant_has_length_one(self):
        p = interpolant_from_function(lambda x: np.ones_like(x))
        assert len(p) == 1

    def test_overflowing_series_raises(self):
        # Finite samples of a 1.7e308 step whose Chebyshev series is not finite.
        with pytest.raises(ValueError, match="coefficients overflow"):
            interpolant_from_function(lambda x: np.where(np.abs(x) < 0.5, 1.7e308, -1.7e308))

    def test_zero_function(self):
        assert np.array_equal(interpolant_from_function(np.zeros_like).coeffs, [0.0])
        assert np.array_equal(interpolant_from_function(np.zeros_like, UNIT, n=4).coeffs,
                              np.zeros(5))

    def test_scalar_result_is_broadcast(self):
        assert np.array_equal(interpolant_from_function(lambda x: 2.0).coeffs, [2.0])
        p = interpolant_from_function(lambda x: 2.0, UNIT, n=4)
        assert np.array_equal(p.coeffs, [2.0, 0.0, 0.0, 0.0, 0.0])

    def test_rejects_result_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(3,\) for 9 points"):
            interpolant_from_function(lambda x: np.ones(3))
        with pytest.raises(ValueError, match=r"shape \(5, 1\) for 5 points"):
            interpolant_from_function(lambda x: x[:, None], UNIT, n=4)

    def test_fixed_degree(self):
        p = interpolant_from_function(np.exp, UNIT, n=12)
        assert len(p) == 13

    @pytest.mark.parametrize("domain", [UNIT, Domain(0.24, 3.14), Domain(-5.0, 1e3)],
                             ids=["unit", "0.24-3.14", "-5-1e3"])
    @pytest.mark.parametrize("family", sorted(_LADDER_FAMILIES))
    def test_nested_ladder_matches_rebuilt_grids(self, family, domain):
        for k in (1.0, 6.5, 45.0, 300.0):
            g = _LADDER_FAMILIES[family](k)
            f = lambda x: g(domain.to_unit(x))
            got = interpolant_from_function(f, domain).coeffs
            assert got.tobytes() == _rebuilt_grid_construction(f, domain).tobytes()

    def test_nested_ladder_keeps_the_too_narrow_error(self):
        # Grid 2^8 + 1 is the first this domain cannot separate.
        dom = Domain(1.0, 1.0 + 2.0 ** -40)
        f = lambda x: np.sin(40.0 * dom.to_unit(x))
        with pytest.raises(ValueError) as want:
            _rebuilt_grid_construction(f, dom)
        with pytest.raises(ValueError) as got:
            interpolant_from_function(f, dom)
        assert str(got.value) == str(want.value)
        assert "separate 257 nodes" in str(got.value)

    @pytest.mark.parametrize("domain", [UNIT, Domain(0.24, 3.14)], ids=["unit", "0.24-3.14"])
    def test_f_sees_only_each_grids_new_points(self, domain):
        seen, rebuilt = [], []

        def f(x):
            seen.append((x.size, x.flags.c_contiguous))
            return np.tanh(30.0 * domain.to_unit(x))

        def g(x):
            rebuilt.append(x.size)
            return np.tanh(30.0 * domain.to_unit(x))

        interpolant_from_function(f, domain)
        _rebuilt_grid_construction(g, domain)
        # The rebuilt ladder samples grids 2^3 + 1 .. 2^K + 1 in full.
        assert rebuilt == [2 ** k + 1 for k in range(3, 3 + len(rebuilt))]
        assert seen == [(9, True)] + [(2 ** (k - 1), True) for k in range(4, 3 + len(rebuilt))]
        assert sum(size for size, _ in seen) == rebuilt[-1]

    def test_nine_points_are_sampled_never_transformed(self, monkeypatch):
        # _chop_point leaves a series of fewer than 17 coefficients unresolved;
        # the tail certificate may reject further grids before their transform.
        seen, transformed = [], []
        to_coeffs = cheb._values_to_coeffs

        def record(values):
            transformed.append(values.size)
            return to_coeffs(values)

        def f(x):
            seen.append(x.size)
            return np.tanh(30.0 * x)

        monkeypatch.setattr(cheb, "_values_to_coeffs", record)
        p = interpolant_from_function(f)
        assert 9 not in transformed
        assert seen == [9] + [2 ** (k - 1) for k in range(4, 3 + len(seen))]
        # The last transform is the returned grid's, 2^K + 1 = sum(seen) points.
        assert transformed[-1] == sum(seen) > len(p)

    @pytest.mark.parametrize("domain", [UNIT, Domain(0.24, 3.14)], ids=["unit", "0.24-3.14"])
    def test_f_writing_into_its_argument_changes_no_later_construction(self, domain):
        def scribble(x):
            y = np.sin(9.0 * domain.to_unit(x))
            x[:] = 0.5
            return y

        def f(x):
            return np.sin(9.0 * domain.to_unit(x))

        want = _rebuilt_grid_construction(f, domain).tobytes()
        assert interpolant_from_function(scribble, domain).coeffs.tobytes() == want
        assert interpolant_from_function(f, domain).coeffs.tobytes() == want

    def test_unresolved_carries_best_effort(self):
        # Far too oscillatory for the 2^16+1 ladder.
        with pytest.raises(UnresolvedFunctionError) as info:
            interpolant_from_function(lambda x: np.sin(1e6 * x))
        assert len(info.value.best) == 2 ** 16 + 1


class TestEvaluate:
    def test_constant(self):
        p = ChebInterpolant([4.25], UNIT)
        assert evaluate(p, 0.77) == 4.25
        assert p(0.77) == 4.25

    def test_adaptive_arctan_value(self):
        p = interpolant_from_function(np.arctan)
        assert evaluate(p, 0.7) == pytest.approx(math.atan(0.7), abs=1e-14)

    def test_vectorized_matches_scalar(self):
        p = interpolant_from_function(np.exp, Domain(0.0, 2.0))
        xs = np.linspace(0, 2, 17)
        vec = evaluate(p, xs)
        assert np.array_equal(vec, np.array([evaluate(p, x) for x in xs]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_points(self, bad):
        p = ChebInterpolant([1.0, 0.0, -3.0], UNIT)
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate(p, bad)
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate(p, [0.0, bad])

    def test_overflow_raises(self):
        # Degree 299 of seeded noise stops being finite from x = 5.46 on.
        p = interpolant_from_values(np.random.default_rng(0).standard_normal(300))
        with pytest.raises(ValueError, match="overflows"):
            evaluate(p, 20.0)
        with pytest.raises(ValueError, match="overflows"):
            evaluate(ChebInterpolant([1e308, 1e308], UNIT), 1.0)

    @pytest.mark.parametrize("b", [1e308, 1.7e308])
    def test_points_whose_double_overflows(self, b):
        # to_unit doubles x, which overflows past 8.99e307; at b the series
        # has its value at s = 1, the sum of its coefficients.
        p = interpolant_from_values(np.sin(np.linspace(0.0, 40.0, 101)), Domain(0.0, b))
        assert evaluate(p, b) == evaluate(ChebInterpolant(p.coeffs, UNIT), 1.0)


class TestBarycentric:
    def test_linear_reproduction(self):
        nodes = cheb_points_second_kind(9)
        out = evaluate_barycentric(nodes.points, nodes, 0.33)
        assert out == pytest.approx(0.33, abs=1e-14)

    @pytest.mark.parametrize("n, seed", [(49, 11), (1000, 13)])
    def test_agrees_with_clenshaw(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1, 1, n + 1)
        x = rng.uniform(-1, 1, 100)
        bary = evaluate_barycentric(v, cheb_points_second_kind(n), x)
        clen = evaluate(interpolant_from_values(v), x)
        assert np.max(np.abs(bary - clen)) < 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("kernel", ["evaluate_barycentric", "trig_interpolate"])
    def test_keeps_the_query_shape(self, kernel):
        # Rows as long as the node vector must not be broadcast against it,
        # and a call whose kernel gets no rows (empty, or for
        # evaluate_barycentric all outside [-1, 1]) keeps the shape too.
        nodes = cheb_points_second_kind(2)
        v = np.array([1.0, 2.0, 5.0])
        if kernel == "evaluate_barycentric":
            run = lambda x: evaluate_barycentric(v, nodes, x)
        else:
            run = lambda x: trig_interpolate([-1.0, 0.0, 1.0], v, x)
        x = np.array([[0.1, 0.2, 0.3], [-0.5, 0.5, 1.5]])
        outside = np.array([[1.5, -2.0], [3.25, -1.25]])
        for q in (x, outside, [], np.zeros((0, 3))):
            got = run(q)
            assert got.shape == np.shape(q)
            assert np.array_equal(got, run(np.ravel(q)).reshape(np.shape(q)))
        if kernel == "evaluate_barycentric":
            clenshaw = interpolant_from_values(v)
            assert np.allclose(run(x), evaluate(clenshaw, x), rtol=1e-14)
            assert np.array_equal(run(outside), evaluate(clenshaw, outside))
        else:
            # Period 3: the images of x give x's values.
            assert np.allclose(run(x + 3.0), run(x), rtol=1e-13)

    def test_rejects_mismatched_lengths(self):
        nodes = cheb_points_second_kind(4)
        for values, shape in (([1.0, 2.0], r"\(2,\)"), (np.ones((1, 5)), r"\(1, 5\)")):
            with pytest.raises(ValueError, match=rf"1-D, one per node \(5\), got shape {shape}$"):
                evaluate_barycentric(values, nodes, 0.3)

    def test_rejects_wrong_kind(self):
        # The weights hold only on cheb_points_second_kind(n, domain), bit
        # for bit; every other node set is refused.
        moved = cheb_points_second_kind(4).points.copy()
        moved[1] = np.nextafter(moved[1], 0.0)
        for nodes in (
            cheb_points_first_kind(5),
            uniform_points(5),
            legendre_points(5),
            NodeSet(cheb_points_second_kind(4).points, Domain(-2.0, 2.0)),
            NodeSet(moved, UNIT),
        ):
            with pytest.raises(ValueError, match="nodes must be cheb_points_second_kind"):
                evaluate_barycentric(np.zeros(5), nodes, 0.0)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            evaluate_barycentric([1.0], NodeSet([0.0], UNIT), 0.0)

    def test_checks_its_nodes_without_building_a_node_set(self, monkeypatch):
        # The nodes are compared with the cached unit points mapped onto the
        # domain; no NodeSet is built per call.
        cases = [(cheb_points_second_kind(n, dom), dom)
                 for n, dom in ((1, UNIT), (100, UNIT), (1000, Domain(0.0, 3.0)))]

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate_barycentric built a node set")

        monkeypatch.setattr(cheb, "cheb_points_second_kind", refuse)
        monkeypatch.setattr(cheb, "NodeSet", refuse)
        for nodes, dom in cases:
            x = np.array([dom.a, dom.from_unit(0.3), nodes.points[1], dom.b])
            got = evaluate_barycentric(3.0 * nodes.points - 1.0, nodes, x)
            assert np.allclose(got, 3.0 * x - 1.0, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_points(self, bad):
        nodes = cheb_points_second_kind(4)
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate_barycentric(np.arange(5.0), nodes, bad)
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate_barycentric(np.arange(5.0), nodes, [0.0, bad])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, bad):
        # Off-node queries would otherwise snap to some node's value.
        nodes = cheb_points_second_kind(2)
        with pytest.raises(ValueError, match="values must be finite"):
            evaluate_barycentric([1.0, bad, 3.0], nodes, [0.9, -0.5])
        with pytest.raises(ValueError, match="values must be finite"):
            evaluate_barycentric([1.0, bad, 3.0], nodes, nodes.points[0])

    def test_query_ulps_from_node_stays_finite(self):
        # Subnormal distance to a node overflows the weights; the result
        # must snap to the node value instead of going NaN.
        nodes = cheb_points_second_kind(2)
        v = np.array([5.0, 7.0, 9.0])
        out = evaluate_barycentric(v, nodes, 2.2250738585e-313)
        assert out == 7.0
        out = evaluate_barycentric(v, nodes, np.nextafter(1.0, 0.0))
        assert np.isfinite(out)
        assert out == pytest.approx(9.0, abs=1e-11)

    def test_overflowing_sum_is_rescaled_not_snapped(self):
        # Each w_j v_j is +1e308 (or half that), so ratio @ v overflows
        # although the interpolant stays below 1e308 inside [-1, 1] and,
        # at 1e308 T_4(1.0001) = 1.0016e308, just outside.
        v = np.array([1e308, -1e308, 1e308, -1e308, 1e308])
        nodes = cheb_points_second_kind(4)
        x = np.array([0.3, 0.1, 1.0001])
        want = evaluate(interpolant_from_values(v * 1e-10), x) * 1e10
        got = evaluate_barycentric(v, nodes, x)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
        assert evaluate_barycentric(v, nodes, 0.3) == got[0]
        # Node hits with the same values still return the node value.
        for j in range(5):
            assert evaluate_barycentric(v, nodes, nodes.points[j]) == v[j]
        assert evaluate_barycentric(v, nodes, 5e-324) == v[2]

    def test_overshooting_values_raise(self):
        # The interpolant of these values exceeds the float range inside
        # [-1, 1]; those queries must not come back as -inf.
        v = 1.7e308 * np.array([1.0, -1.0, -1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="overflows"):
            evaluate_barycentric(v, cheb_points_second_kind(4), np.linspace(-1, 1, 2001))

    def test_leaves_the_numpy_state_as_it_found_it(self):
        # Wide rows of both evaluators are filled and summed under a
        # 16-element ufunc buffer; the caller's buffer size and error state
        # must come back on return and on each ValueError.
        n = cheb._UNBUFFERED_WIDTH
        nodes = cheb_points_second_kind(n)
        big = 1.7e308 * np.where(np.isin(np.arange(n + 1), (0, n)), 1.0, -1.0)
        x = np.linspace(-1.0, 1.0, 2001)
        t = np.arange(float(n))
        step = 1.7e308 * np.where(np.arange(n) < n // 2, 1.0, -1.0)  # Gibbs overshoot overflows
        xt = np.linspace(0.0, n - 1.0, 2001)
        for calls in [
            [lambda: evaluate_barycentric(np.ones(n + 1), nodes, x),
             lambda: evaluate_barycentric(big, nodes, x),
             lambda: evaluate_barycentric(np.ones(n + 1), nodes, [0.0, np.nan])],
            [lambda: trig_interpolate(t, np.ones(n), xt),
             lambda: trig_interpolate(t, step, xt),
             lambda: trig_interpolate(t, np.ones(n), [0.5, np.nan])],
        ]:
            with np.errstate(all="raise"):
                np.setbufsize(4096)
                state = np.getbufsize(), np.geterr()
                calls[0]()
                assert (np.getbufsize(), np.geterr()) == state
                for call, message in zip(calls[1:], ["overflows", "points must be finite"]):
                    with pytest.raises(ValueError, match=message):
                        call()
                    assert (np.getbufsize(), np.geterr()) == state

    def test_outside_domain_is_clenshaw_extrapolation(self):
        # Just outside [-1, 1] the barycentric denominator cancels, to
        # exactly 0 at some of these points; Clenshaw on the same
        # interpolant is used there instead.
        v = np.random.default_rng(0).standard_normal(45)
        x = np.linspace(1.0001, 1.5, 20001)
        got = evaluate_barycentric(v, cheb_points_second_kind(44), x)
        want = evaluate(interpolant_from_values(v), x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDerivative:
    def test_t1_becomes_constant(self):
        p = ChebInterpolant([0.0, 1.0], UNIT)
        d = derivative(p)
        assert np.array_equal(d.coeffs, [1.0])

    def test_t2_becomes_4x(self):
        d = derivative(ChebInterpolant([0.0, 0.0, 1.0], UNIT))
        assert np.array_equal(d.coeffs, [0.0, 4.0])

    def test_constant_becomes_zero(self):
        d = derivative(ChebInterpolant([9.0], UNIT))
        assert np.array_equal(d.coeffs, [0.0])

    def test_exp_derivative_exact_and_fd(self):
        p = interpolant_from_function(np.exp)
        d = derivative(p)
        assert evaluate(d, 0.5) == pytest.approx(math.exp(0.5), abs=1e-10)
        h = 1e-6
        fd = (evaluate(p, 0.5 + h) - evaluate(p, 0.5 - h)) / (2 * h)
        assert evaluate(d, 0.5) == pytest.approx(fd, abs=1e-7)

    def test_fd_agreement_at_random_points(self):
        p = interpolant_from_function(np.exp)
        d = derivative(p)
        rng = np.random.default_rng(17)
        x = rng.uniform(-0.99, 0.99, 100)
        h = 1e-6
        fd = (evaluate(p, x + h) - evaluate(p, x - h)) / (2 * h)
        assert np.max(np.abs(evaluate(d, x) - fd)) < 1e-7

    def test_domain_chain_rule(self):
        p = interpolant_from_function(np.exp, Domain(0.0, 4.0), n=30)
        d = derivative(p)
        assert evaluate(d, 3.0) == pytest.approx(math.exp(3.0), rel=1e-10)

    def test_overflowing_derivative_raises(self):
        # 1e300 T_1 on a width of 1e-10 has slope 2e310.
        with pytest.raises(ValueError, match="derivative coefficients overflow"):
            derivative(ChebInterpolant([0.0, 1e300], Domain(0.0, 1e-10)))
        # On a subnormal width 2 / width is already inf: no operation
        # overflows, yet the slope does not fit.  min_and_max searches the
        # unit series, so it needs no slope on the domain.
        p = ChebInterpolant([1.0, 1.0], Domain(0.0, 5e-324))
        with pytest.raises(ValueError, match="derivative coefficients overflow"):
            derivative(p)
        assert min_and_max(p) == (0.0, 2.0)

    def test_recurrence_term_past_the_float_limit(self):
        # 2 a_1 = 2e308 does not fit, but b_0 = b_2 + 2 a_1 = 5e307 does.
        d = derivative(ChebInterpolant([0.0, 1e308, 0.0, -2.5e307], UNIT))
        assert np.array_equal(d.coeffs, [2.5e307, 0.0, -1.5e308])


class TestMinAndMax:
    def test_t2(self):
        assert min_and_max(ChebInterpolant([0, 0, 1], UNIT)) == (-1.0, 1.0)

    def test_constant(self):
        assert min_and_max(ChebInterpolant([5.0], UNIT)) == (5.0, 5.0)

    def test_against_dense_grid(self):
        rng = np.random.default_rng(42)
        p = interpolant_from_values(rng.uniform(-1, 1, 10))
        lo, hi = min_and_max(p)
        dense = evaluate(p, np.linspace(-1, 1, 10 ** 6 + 1))
        assert lo == pytest.approx(dense.min(), abs=1e-8)
        assert hi == pytest.approx(dense.max(), abs=1e-8)

    def test_extrema_near_the_float_limit(self):
        # p' = 1e308 T_10' overflows; the search takes the roots of p' from
        # the derivative of p scaled by a power of two, which fits.
        lo, hi = min_and_max(ChebInterpolant([0.0] * 10 + [1e308], UNIT))
        assert lo == pytest.approx(-1e308, rel=1e-15)
        assert hi == pytest.approx(1e308, rel=1e-15)

    @pytest.mark.parametrize("coeffs, want", [
        ([1.0, 2.0], (-1.0, 3.0)),  # degree 1: p' has degree 0
        ([0.0, 0.0, 1.0, 0.0], (-1.0, 1.0)),  # p' = [0, 4, 0]: its own proxy
        ([0.0, 0.0, 1.0] + [0.0] * 97, (-1.0, 1.0)),  # proxies of p' = 4 s
    ])
    def test_zero_leading_coefficients(self, coeffs, want):
        # A proxy whose leading coefficients are 0 is cut to its degree:
        # no division by 0, and so no RuntimeWarning.
        assert min_and_max(ChebInterpolant(coeffs, UNIT)) == want

    def test_degree_31_derivative_is_its_own_proxy(self):
        # p' of degree 31 keeps the exact-series branch: a 33-point proxy of
        # it leaves a rounding-level top coefficient above _colleague_roots'
        # cut, and the minimum found then missed by 5% of max|p|.
        p = ChebInterpolant(np.random.default_rng(1632).standard_normal(33), UNIT)
        lo, hi = min_and_max(p)
        scan = evaluate(p, np.cos(np.pi * np.arange(200001) / 200000))
        tol = 1e-13 * np.abs(scan).max()
        assert lo <= scan.min() + tol and hi >= scan.max() - tol

    def test_endpoint_extrema(self):
        p = interpolant_from_function(np.exp, Domain(-1.0, 1.0), n=20)
        lo, hi = min_and_max(p)
        assert lo == pytest.approx(math.exp(-1), rel=1e-12)
        assert hi == pytest.approx(math.e, rel=1e-12)

    def test_far_domain_whose_floats_lie_far_apart(self):
        # Near 6000 adjacent floats are 9.1e-13 apart, 1.8e-13 of the
        # half-width 5; the search runs on the unit series, where they are not.
        lo, hi = min_and_max(interpolant_from_function(np.sin, Domain(6000.0, 6010.0)))
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_same_extrema_on_any_width(self):
        # The same samples on [0, w] have the extrema of [-1, 1], bit for
        # bit: the search runs on the unit series whatever the width.
        y = np.sin(np.linspace(0.0, 40.0, 101))
        want = min_and_max(interpolant_from_values(y, UNIT))
        for w in 10.0 ** np.arange(-300, 301, 20):
            assert min_and_max(interpolant_from_values(y, Domain(0.0, w))) == want, w

    @pytest.mark.parametrize("b", [1e308, 1.7e308])
    def test_domain_ends_near_the_float_limit(self, b):
        # Near b, 2 x in to_unit passes the float limit; the search runs on
        # the unit series, which never maps a point back to x.
        y = np.sin(np.linspace(0.0, 40.0, 101))
        got = min_and_max(interpolant_from_values(y, Domain(0.0, b)))
        assert got == min_and_max(interpolant_from_values(y, UNIT))


class TestTruncate:
    def test_drops_negligible_tail(self):
        p = truncate(ChebInterpolant([1.0, 1e-20, 1e-20], UNIT), 1e-15)
        assert np.array_equal(p.coeffs, [1.0])

    def test_keeps_significant_tail(self):
        p = truncate(ChebInterpolant([0.0, 1.0], UNIT), 1e-15)
        assert np.array_equal(p.coeffs, [0.0, 1.0])

    def test_never_empty(self):
        p = truncate(ChebInterpolant([0.0, 0.0, 0.0], UNIT), 1e-15)
        assert len(p) >= 1
        p = truncate(ChebInterpolant([1e-3, 1e-9], UNIT), 1e-2)
        assert np.array_equal(p.coeffs, [1e-3])

    def test_rejects_nonpositive_tolerance(self):
        for tol in (0.0, np.nan):
            with pytest.raises(ValueError, match="tol_rel must be positive"):
                truncate(ChebInterpolant([1.0], UNIT), tol)


class TestAddition:
    def test_padded_sum(self):
        a = ChebInterpolant([1.0, 2.0], UNIT)
        b = ChebInterpolant([0.5, 0.0, 3.0], UNIT)
        s = a + b
        assert np.array_equal(s.coeffs, [1.5, 2.0, 3.0])

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            ChebInterpolant([1.0], UNIT) + ChebInterpolant([1.0], Domain(0, 1))

    def test_overflowing_sum_raises(self):
        with pytest.raises(ValueError, match="series sum overflows"):
            ChebInterpolant([1e308], UNIT) + ChebInterpolant([1e308, 1.0], UNIT)
        s = ChebInterpolant([1e308], UNIT) + ChebInterpolant([-1e308, 1.0], UNIT)
        assert np.array_equal(s.coeffs, [0.0, 1.0])


class TestConvergenceDichotomy:
    def test_exp_geometric_until_floor(self):
        xs = np.linspace(-1, 1, 10 ** 4 + 1)
        ref = np.exp(xs)
        errs = {}
        for n in range(2, 25, 2):
            p = interpolant_from_function(np.exp, UNIT, n=n)
            errs[n] = np.max(np.abs(ref - evaluate(p, xs)))
        floor = 1e-14
        for n in range(4, 25, 2):
            if errs[n] > floor:
                assert errs[n] / errs[n - 2] < 0.5

    def test_runge_rate_matches_bernstein_ellipse(self):
        runge = lambda x: 1.0 / (1.0 + 25.0 * x ** 2)
        xs = np.linspace(-1, 1, 10 ** 4 + 1)
        ref = runge(xs)
        errs = {}
        for n in (60, 62, 100, 102, 120, 122):
            p = interpolant_from_function(runge, UNIT, n=n)
            errs[n] = np.max(np.abs(ref - evaluate(p, xs)))
        rho = (1.0 + math.sqrt(26.0)) / 5.0
        for n in (62, 102, 122):
            ratio = errs[n] / errs[n - 2]
            assert abs(ratio - rho ** -2) < 0.05 * rho ** -2
