import math

import numpy as np
import pytest

from chebsig.cheb import (
    ChebInterpolant,
    Domain,
    NodeKind,
    UnresolvedFunctionError,
    cheb_points_first_kind,
    cheb_points_second_kind,
    derivative,
    eval_cheb_poly,
    evaluate,
    evaluate_barycentric,
    interpolant_from_function,
    interpolant_from_values,
    min_and_max,
    truncate,
    values_at_nodes,
)

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
        for n in range(1, 2049):
            pts = cheb_points_second_kind(n).points
            assert np.array_equal(pts, -pts[::-1]), f"second kind n={n}"
            pts = cheb_points_first_kind(n).points
            assert np.array_equal(pts, -pts[::-1]), f"first kind n={n}"

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            cheb_points_second_kind(0)
        with pytest.raises(ValueError):
            cheb_points_first_kind(0)

    def test_kinds_tagged(self):
        assert cheb_points_second_kind(3).kind is NodeKind.CHEB_SECOND
        assert cheb_points_first_kind(3).kind is NodeKind.CHEB_FIRST


class TestExtremaAndRoots:
    """Second-kind points are the extrema of T_n, first-kind points its roots."""

    def test_extrema_small(self):
        assert np.array_equal(cheb_points_second_kind(2).points, [-1.0, 0.0, 1.0])

    def test_extrema_have_unit_magnitude(self):
        pts = cheb_points_second_kind(4).points
        for x in pts:
            assert abs(abs(eval_cheb_poly(4, x)) - 1.0) < 1e-14
        assert np.allclose(
            pts,
            [-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 1.0],
            atol=1e-16,
        )

    def test_polynomial_vanishes_at_roots(self):
        for x in cheb_points_first_kind(5).points:
            assert abs(eval_cheb_poly(5, x)) < 1e-14

    def test_roots_equal_first_kind_points(self):
        # The textbook roots cos((2k+1) pi / (2n)) of T_n.
        for n in (1, 2, 7, 64, 501):
            roots = np.sort(np.cos((2 * np.arange(n) + 1) * (np.pi / (2 * n))))
            assert np.allclose(cheb_points_first_kind(n).points, roots, rtol=0, atol=1e-15)


class TestEvalChebPoly:
    def test_degree_zero(self):
        assert eval_cheb_poly(0, 0.3) == 1.0

    def test_degree_two(self):
        assert eval_cheb_poly(2, 0.5) == pytest.approx(-0.5, abs=1e-15)

    def test_trig_identity(self):
        assert eval_cheb_poly(7, 0.123) == pytest.approx(
            math.cos(7 * math.acos(0.123)), abs=1e-14
        )

    def test_trig_identity_sweep(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 1000)
        for k in (1, 3, 10, 37, 100):
            ref = np.cos(k * np.arccos(x))
            assert np.max(np.abs(eval_cheb_poly(k, x) - ref)) < 1e-12


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
        system = np.column_stack([eval_cheb_poly(k, nodes) for k in range(5)])
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

    def test_transform_round_trip(self):
        # Synthesis back through the inverse transform stays at a few eps
        # even for rough random data and large n.
        rng = np.random.default_rng(1)
        for n in (1, 2, 31, 256, 1024, 4096):
            v = rng.uniform(-1, 1, n + 1)
            back = values_at_nodes(interpolant_from_values(v))
            assert np.max(np.abs(back - v)) < 50 * 2.0 ** -52 * np.max(np.abs(v))

    def test_clenshaw_round_trip_small_n(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 11, 31):
            v = rng.uniform(-1, 1, n + 1)
            p = interpolant_from_values(v)
            back = evaluate(p, cheb_points_second_kind(n).points)
            assert np.max(np.abs(back - v)) < 50 * 2.0 ** -52 * np.max(np.abs(v))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            interpolant_from_values([1.0])
        with pytest.raises(ValueError):
            interpolant_from_values([1.0, np.nan, 0.0])


class TestInterpolantFromFunction:
    def test_arctan_reference_coefficients(self):
        p = interpolant_from_function(np.arctan)
        assert p.coeffs[1] == pytest.approx(0.828427124746190, abs=1e-12)
        assert p.coeffs[3] == pytest.approx(-0.047378541243650, abs=1e-12)
        assert p.coeffs[5] == pytest.approx(0.004877323527903, abs=1e-12)

    def test_arctan_against_projection_quadrature(self):
        # Oracle: a_k = (2/pi) * int_0^pi arctan(cos t) cos(k t) dt.
        quad = pytest.importorskip("scipy.integrate")
        p = interpolant_from_function(np.arctan)
        import warnings

        for k in (1, 3, 5, 7):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # quad's estimate is conservative here
                ref, err = quad.quad(
                    lambda t, k=k: math.atan(math.cos(t)) * math.cos(k * t),
                    0.0, math.pi, epsabs=1e-14, epsrel=1e-14, limit=500,
                )
            ref *= 2.0 / math.pi
            assert p.coeffs[k] == pytest.approx(ref, abs=1e-12)

    def test_arctan_parity_structure(self):
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

    def test_reproduces_construction_values(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(-1, 1, 12)
        p = interpolant_from_values(v)
        back = evaluate(p, cheb_points_second_kind(11).points)
        assert np.max(np.abs(back - v)) < 50 * 2.0 ** -52

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


class TestBarycentric:
    def test_node_coincidence_bit_exact(self):
        nodes = cheb_points_second_kind(10)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(11)
        for j in (0, 3, 10):
            assert evaluate_barycentric(v, nodes, nodes.points[j]) == v[j]

    def test_linear_reproduction(self):
        nodes = cheb_points_second_kind(9)
        out = evaluate_barycentric(nodes.points, nodes, 0.33)
        assert out == pytest.approx(0.33, abs=1e-14)

    def test_agrees_with_clenshaw(self):
        rng = np.random.default_rng(11)
        nodes = cheb_points_second_kind(49)
        v = rng.uniform(-1, 1, 50)
        p = interpolant_from_values(v)
        x = rng.uniform(-1, 1, 100)
        bary = evaluate_barycentric(v, nodes, x)
        clen = evaluate(p, x)
        assert np.max(np.abs(bary - clen)) < 1e-12

    def test_agrees_with_clenshaw_large_degree(self):
        rng = np.random.default_rng(13)
        nodes = cheb_points_second_kind(1000)
        v = rng.uniform(-1, 1, 1001)
        p = interpolant_from_values(v)
        x = rng.uniform(-1, 1, 100)
        diff = np.abs(evaluate_barycentric(v, nodes, x) - evaluate(p, x))
        assert np.max(diff) < 1e-12 * np.max(np.abs(v))

    def test_rejects_mismatched_lengths(self):
        nodes = cheb_points_second_kind(4)
        with pytest.raises(ValueError):
            evaluate_barycentric([1.0, 2.0], nodes, 0.0)

    def test_rejects_wrong_kind(self):
        nodes = cheb_points_first_kind(5)
        with pytest.raises(ValueError):
            evaluate_barycentric(np.zeros(5), nodes, 0.0)

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
        # although the interpolant stays below 1e308.
        v = np.array([1e308, -1e308, 1e308, -1e308, 1e308])
        nodes = cheb_points_second_kind(4)
        x = np.array([0.3, 0.1])
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

    def test_endpoint_extrema(self):
        p = interpolant_from_function(np.exp, Domain(-1.0, 1.0), n=20)
        lo, hi = min_and_max(p)
        assert lo == pytest.approx(math.exp(-1), rel=1e-12)
        assert hi == pytest.approx(math.e, rel=1e-12)


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
        with pytest.raises(ValueError):
            truncate(ChebInterpolant([1.0], UNIT), 0.0)


class TestAddition:
    def test_padded_sum(self):
        a = ChebInterpolant([1.0, 2.0], UNIT)
        b = ChebInterpolant([0.5, 0.0, 3.0], UNIT)
        s = a + b
        assert np.array_equal(s.coeffs, [1.5, 2.0, 3.0])

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            ChebInterpolant([1.0], UNIT) + ChebInterpolant([1.0], Domain(0, 1))


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
