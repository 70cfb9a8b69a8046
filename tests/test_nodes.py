import math

import numpy as np
import pytest

from chebsig import nodes
from chebsig.cheb import cheb_points_first_kind, cheb_points_second_kind
from chebsig.nodes import (
    compare_nodes,
    legendre_points,
    mean_distance,
    smallest_nonzero_midpoint,
    uniform_points,
)


def legendre_value_and_derivative(n, x):
    x = np.asarray(x, dtype=float)
    p_prev, p = np.ones_like(x), x.copy()
    for m in range(2, n + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


class TestLegendrePoints:
    def test_classical_small_cases(self):
        assert legendre_points(1).points[0] == 0.0
        assert np.allclose(
            legendre_points(2).points, [-1 / math.sqrt(3), 1 / math.sqrt(3)],
            rtol=1e-15,
        )
        assert np.allclose(
            legendre_points(3).points,
            [-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5)],
            atol=1e-15,
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_recurrence_residuals(self, n):
        roots = legendre_points(n).points
        p, _ = legendre_value_and_derivative(n, roots)
        assert np.max(np.abs(p)) < 1e-13

    @pytest.mark.parametrize("n", [2, 10, 100, 200, 500])
    def test_roots_at_machine_precision(self, n):
        # The raw residual at the extreme roots is bounded below by
        # |P'| * ulp ~ n^2 * eps, so past n ~ 150 the meaningful check is
        # that the Newton correction has converged below an ulp.
        roots = legendre_points(n).points
        p, dp = legendre_value_and_derivative(n, roots)
        assert np.max(np.abs(p / dp)) < 1e-15

    @pytest.mark.parametrize("n", [2, 5, 50, 200])
    def test_symmetry(self, n):
        roots = legendre_points(n).points
        assert np.max(np.abs(roots + roots[::-1])) < 1e-15

    def test_newton_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(nodes, "_NEWTON_SWEEPS", 1)
        with pytest.raises(RuntimeError):
            legendre_points(50)

    def test_interlacing_with_first_kind_points(self):
        # The two interior families align closely at n=100: every gap
        # between consecutive Legendre roots holds exactly one first-kind
        # point except the central one, whose would-be occupants are the
        # two extreme points straddling the whole Legendre range.
        n = 100
        fk = cheb_points_first_kind(n).points
        lg = legendre_points(n).points
        counts = [
            int(np.sum((fk > lg[i]) & (fk < lg[i + 1]))) for i in range(n - 1)
        ]
        center = (n - 1) // 2
        assert counts[center] == 0
        assert all(c == 1 for i, c in enumerate(counts) if i != center)
        assert np.sum(fk < lg[0]) == 1 and np.sum(fk > lg[-1]) == 1


class TestCompareNodes:
    def test_identical_sets(self):
        a = cheb_points_second_kind(9)
        assert compare_nodes(a, a) == 0.0

    def test_hand_computed_gap(self):
        a = uniform_points(2)  # {-1, 1}
        b = legendre_points(2)
        lo = 1.0 - 1 / math.sqrt(3)
        assert compare_nodes(a, b) == pytest.approx(lo, rel=1e-12)

    def test_custom_sets(self):
        from chebsig.cheb import Domain, NodeSet

        unit = Domain(-1.0, 1.0)
        a = NodeSet([-1.0, 1.0], unit)
        b = NodeSet([-1.0, 0.5], unit)
        assert compare_nodes(a, b) == 0.5

    def test_first_kind_value_is_smaller(self):
        # Genuine first-kind points hug the Legendre roots about 3x closer.
        diff = compare_nodes(cheb_points_first_kind(100), legendre_points(100))
        assert diff == pytest.approx(0.00281, abs=5e-5)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            compare_nodes(cheb_points_second_kind(5), legendre_points(5))


class TestMeanDistance:
    def test_rejects_duplicates_in_different_blocks(self):
        pts = np.linspace(-1.0, 1.0, 1000)
        pts[900] = pts[5]
        with pytest.raises(ValueError, match="points must be distinct"):
            mean_distance(pts)

    def test_two_points(self):
        assert np.array_equal(mean_distance([-1.0, 1.0]), [2.0, 2.0])

    def test_three_points(self):
        assert np.allclose(
            mean_distance([-1.0, 0.0, 1.0]), [math.sqrt(2), 1.0, math.sqrt(2)], rtol=1e-15
        )

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            mean_distance([0.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            mean_distance([0.0, 1.0, bad])
        with pytest.raises(ValueError, match="points must be finite"):
            mean_distance([0.0, bad, 2.0])

    def test_rejects_overflowing_span(self):
        with pytest.raises(ValueError, match="span of the points overflows"):
            mean_distance([-1e308, 0.0, 1e308])

    def test_cheb_and_legendre_profiles_agree(self):
        cheb = mean_distance(cheb_points_second_kind(19).points)
        leg = mean_distance(legendre_points(20).points)
        rel = np.abs(np.sort(cheb) - np.sort(leg)) / np.sort(leg)
        assert np.max(rel) < 0.15

    def test_clustered_families_are_flatter_than_uniform(self):
        for pts in (cheb_points_second_kind(19).points, legendre_points(20).points):
            prof = mean_distance(pts)
            uni = mean_distance(np.linspace(-1, 1, 20))
            assert prof.max() / prof.min() < uni.max() / uni.min()

    def test_converges_to_logarithmic_capacity(self):
        prof = mean_distance(cheb_points_second_kind(199).points)
        assert abs(prof.mean() / 0.5 - 1.0) < 0.10


class TestSmallestNonzeroMidpoint:
    def test_golden_value(self):
        # Frozen from the defining loop itself: the binary64 cosine of the
        # rounded pi/2 is about 6.12e-17, nonzero already at n=2.
        assert smallest_nonzero_midpoint() == 2

    def test_ieee_half_pi_property(self):
        x = math.cos(math.pi / 2)
        assert x != 0.0
        assert abs(x - 6.123233995736766e-17) < 1e-30
