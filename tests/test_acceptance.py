"""Time budgets of the acceptance criteria: each test times the work of one
criterion against its wall-clock budget.

The values that work produces are checked once, by the golden assertions of
``experiments.EXPERIMENTS``; tier-1 runs each of them as
``tests/test_cli.py::test_golden_check[<label>]``.
"""

import time

import numpy as np

from chebsig import experiments as exp
from chebsig.cheb import Domain, interpolant_from_function
from chebsig.conditioning import Basis, build_basis_matrix, condition_number, singular_values


def _seconds(work):
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def test_c1_arctan_chebyshev_coefficients():
    assert _seconds(lambda: interpolant_from_function(np.arctan)) < 1.0


def test_c3_node_comparison_value():
    assert _seconds(lambda: exp.run_nodes(100)) < 1.0


def test_c4_basis_conditioning():
    unit = Domain(-1.0, 1.0)

    def work():
        condition_number(build_basis_matrix(Basis.CHEBYSHEV, unit, 10))
        condition_number(build_basis_matrix(Basis.MONOMIAL, unit, 10))
        condition_number(build_basis_matrix(Basis.MONOMIAL, Domain(0.0, 1.0), 10))
        singular_values(build_basis_matrix(Basis.CHEBYSHEV, unit, 10))

    assert _seconds(work) < 5.0


def test_c5_convergence_thresholds(run_all_pass):
    # converge runs inside the suite's one run-all pass, so this bounds it too.
    assert run_all_pass.seconds < 30.0


def test_c6_gamma_even_reconstruction():
    def work():
        exp.run_gamma("even", False, seed=42)
        exp.run_gamma("even", True, seed=42)

    assert _seconds(work) < 2.0


def test_c7_gamma_uneven_reconstruction():
    assert _seconds(lambda: exp.run_gamma("uneven", True, seed=42)) < 2.0
