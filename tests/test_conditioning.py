import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chebsig import conditioning
from chebsig.cheb import Domain, cheb_points_second_kind
from chebsig.conditioning import (
    Basis,
    NumericallySingularError,
    build_basis_matrix,
    clenshaw_curtis_weights,
    condition_number,
    conditioning_sweep,
    singular_values,
)

UNIT = Domain(-1.0, 1.0)


class TestWeights:
    def test_three_point_rule(self):
        assert np.allclose(clenshaw_curtis_weights(2), [1 / 3, 4 / 3, 1 / 3])

    def test_integrates_polynomials_exactly(self):
        w = clenshaw_curtis_weights(16)
        x = cheb_points_second_kind(16).points
        assert np.sum(w) == pytest.approx(2.0, rel=1e-14)
        assert np.sum(w * x ** 2) == pytest.approx(2 / 3, rel=1e-13)
        assert np.sum(w * x ** 8) == pytest.approx(2 / 9, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 1023, 2047])
    def test_cached_weights_keep_the_computed_bits(self, n):
        uncached = conditioning._clenshaw_curtis_weights.__wrapped__
        assert np.array_equal(clenshaw_curtis_weights(n).view(np.uint64),
                              uncached(n).view(np.uint64))

    @pytest.mark.parametrize("n", [*range(1, 65), 1023, 2047])
    def test_weights_are_bit_identical_to_textbook_form(self, n):
        # The cosine is taken in place on outer(theta, 2k); theta * 2k is
        # exactly 2 * (theta * k), so the bits are the textbook matrix's.
        theta = np.arange(n + 1) * (np.pi / n)
        ks = np.arange(1, n // 2 + 1)
        b = np.where(ks == n / 2, 1.0, 2.0)
        w = (1.0 - np.cos(2.0 * np.outer(theta, ks)) @ (b / (4.0 * ks ** 2 - 1.0))) * (2.0 / n)
        w[0] *= 0.5
        w[-1] *= 0.5
        got = conditioning._clenshaw_curtis_weights.__wrapped__(n)
        assert np.array_equal(got.view(np.uint64), w.view(np.uint64))

    def test_weights_hold_one_cosine_matrix(self):
        # The (n+1) x n/2 matrix takes 16 MiB at n = 2047; a product and
        # its cosine held together took 32 MiB.
        tracemalloc.start()
        try:
            conditioning._clenshaw_curtis_weights.__wrapped__(2047)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_run_all_weights_do_not_depend_on_the_blas_threads(self):
        # dgemv splits its rows by thread, and the bits of some sizes move
        # with the split (n = 963, 1025, 3001); run-all's two sizes do not.
        code = ("import hashlib, sys; from chebsig.conditioning import clenshaw_curtis_weights as w; "
                "sys.stdout.write(hashlib.sha256(w(1023).tobytes() + w(2047).tobytes()).hexdigest())")
        src = str(Path(conditioning.__file__).parents[1])
        digests = [
            subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "4")
        ]
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_callers_get_their_own_copy_from_a_bounded_cache(self):
        first = clenshaw_curtis_weights(8)
        want = first.copy()
        first[:] = -1.0
        assert np.array_equal(clenshaw_curtis_weights(8), want)
        cache = conditioning._clenshaw_curtis_weights
        for n in range(100, 120):
            clenshaw_curtis_weights(n)
        info = cache.cache_info()
        assert info.currsize <= info.maxsize


class TestBuildBasisMatrix:
    def test_trig_identity_sweep(self):
        # The Chebyshev columns of the basis matrix, unweighted, are T_k
        # on its 1024-point second-kind grid.
        x = cheb_points_second_kind(1023).points
        sqrt_w = np.sqrt(clenshaw_curtis_weights(1023))
        cols = build_basis_matrix(Basis.CHEBYSHEV, UNIT, 100) / sqrt_w[:, None]
        for k in (1, 3, 10, 37, 100):
            ref = np.cos(k * np.arccos(x))
            assert np.max(np.abs(cols[:, k] - ref)) < 1e-12

    def test_constant_column_norm(self):
        m = build_basis_matrix(Basis.CHEBYSHEV, UNIT, 0)
        assert np.sum(m[:, 0] ** 2) == pytest.approx(2.0, abs=1e-10)

    def test_linear_monomial_column_norm(self):
        m = build_basis_matrix(Basis.MONOMIAL, UNIT, 1)
        assert np.sum(m[:, 1] ** 2) == pytest.approx(2 / 3, abs=1e-10)

    def test_chebyshev_columns_match_textbook_recurrence(self):
        # Each column bit for bit as T_k from its own run of the recurrence
        # T_{k+1} = 2 s T_k - T_{k-1}, then weighted.
        def textbook(k, s):
            t_prev, t_cur = np.ones_like(s), s.copy()
            if k == 0:
                return t_prev
            for _ in range(k - 1):
                t_prev, t_cur = t_cur, 2.0 * s * t_cur - t_prev
            return t_cur

        for domain in (UNIT, Domain(0.0, 1.0), Domain(-3.7, 12.5)):
            s = domain.to_unit(cheb_points_second_kind(1023, domain).points)
            sqrt_w = np.sqrt(clenshaw_curtis_weights(1023) * (domain.width / 2.0))
            for max_degree in (0, 1, 2, 10, 40):
                want = np.column_stack([textbook(k, s) for k in range(max_degree + 1)])
                got = build_basis_matrix(Basis.CHEBYSHEV, domain, max_degree)
                assert np.array_equal(got.view(np.uint64),
                                      (want * sqrt_w[:, None]).view(np.uint64))


class TestSingularValues:
    def test_embedded_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])

    def test_reference_extremes(self):
        sv = singular_values(build_basis_matrix(Basis.CHEBYSHEV, UNIT, 10))
        assert sv[0] == pytest.approx(1.5238, rel=1e-2)
        assert sv[-1] == pytest.approx(0.4104, rel=1e-2)

    def test_reference_full_listing(self):
        listing = [
            1.523832995601609, 1.226785409090009, 1.225285973614859,
            1.145821182000790, 1.141511078719328, 1.004939431619162,
            0.998319547384275, 0.787441811713346, 0.782619113084012,
            0.414600480581676, 0.410444421159920,
        ]
        sv = singular_values(build_basis_matrix(Basis.CHEBYSHEV, UNIT, 10))
        assert np.max(np.abs(sv - listing)) < 1e-10

    def test_frobenius_identity(self):
        rng = np.random.default_rng(6)
        entries = rng.standard_normal((64, 5))
        sv = singular_values(entries)
        assert np.sum(sv ** 2) == pytest.approx(
            np.sum(entries ** 2), rel=1e-10
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        entries = np.eye(3)
        entries[1, 2] = bad
        for call in (singular_values, condition_number):
            with pytest.raises(ValueError, match="the matrix must be finite"):
                call(entries)


class TestConditionNumber:
    def test_numerically_singular_rejected(self):
        entries = np.zeros((8, 2))
        entries[:, 0] = 1.0
        entries[:, 1] = 1.0 + 1e-15
        with pytest.raises(NumericallySingularError):
            condition_number(entries)

    def test_scaling_invariance(self):
        m = build_basis_matrix(Basis.CHEBYSHEV, UNIT, 10)
        a, b = condition_number(m), condition_number(m * 17.5)
        assert abs(a - b) < 1e-12 * a


class TestConditioningSweep:
    def test_degree_zero_is_one(self):
        for basis in Basis:
            assert conditioning_sweep(basis, UNIT, 0)[0] == pytest.approx(1.0)

    def test_chebyshev_stays_small(self):
        sweep = conditioning_sweep(Basis.CHEBYSHEV, UNIT, 10)
        assert np.all(sweep >= 1.0)
        assert np.all(sweep <= 4.0)

    def test_monomial_growth(self):
        sweep = conditioning_sweep(Basis.MONOMIAL, UNIT, 10)
        assert np.all(np.diff(sweep) >= 0)

    def test_unit_interval_monomials_worse(self):
        sym = conditioning_sweep(Basis.MONOMIAL, UNIT, 10)
        unit = conditioning_sweep(Basis.MONOMIAL, Domain(0.0, 1.0), 10)
        assert unit[0] == pytest.approx(sym[0])
        assert np.all(unit[1:] > sym[1:])

    @pytest.mark.parametrize("domain", [UNIT, Domain(0.0, 1.0), Domain(-3.0, 7.0)])
    def test_cached_weights_keep_the_sweep_bits(self, domain, monkeypatch):
        cached = {basis: conditioning_sweep(basis, domain, 10) for basis in Basis}
        monkeypatch.setattr(conditioning, "_clenshaw_curtis_weights",
                            conditioning._clenshaw_curtis_weights.__wrapped__)
        for basis in Basis:
            uncached = conditioning_sweep(basis, domain, 10)
            assert np.array_equal(cached[basis].view(np.uint64), uncached.view(np.uint64))

    def test_grid_refinement_stability(self, monkeypatch):
        fine = {basis: conditioning_sweep(basis, UNIT, 10) for basis in Basis}
        monkeypatch.setattr(conditioning, "DEFAULT_GRID", 512)
        for basis in Basis:
            coarse = conditioning_sweep(basis, UNIT, 10)
            assert np.max(np.abs(fine[basis] - coarse) / fine[basis]) < 1e-3
