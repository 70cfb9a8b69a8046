"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own status output.
"""

import math
import time

import numpy as np

from chebsig import conditioning
from chebsig import experiments as exp
from chebsig.cheb import (
    Domain,
    cheb_points_first_kind,
    cheb_points_second_kind,
    derivative,
    evaluate,
    interpolant_from_function,
    interpolant_from_values,
    values_at_nodes,
)
from chebsig.conditioning import (
    Basis,
    build_basis_matrix,
    condition_number,
    conditioning_sweep,
    singular_values,
)
from chebsig.fourier import amplitude_spectrum, resample_spectral, trig_cardinal
from chebsig.nodes import legendre_points
from chebsig.signals import GammaParams, Signal, add_noise, gamma_variate, moving_average


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(criterion, detail, watch=None):
    timing = f" [{watch.elapsed:.2f}s]" if watch else ""
    print(f"PASS criterion {criterion}: {detail}{timing}")


def test_c1_arctan_chebyshev_coefficients():
    with Stopwatch(1.0) as w:
        p = interpolant_from_function(np.arctan)
    golden = {1: 0.828427124746190, 3: -0.047378541243650, 5: 0.004877323527903}
    for k, v in golden.items():
        assert abs(p.coeffs[k] - v) < 1e-12, f"a_{k} = {p.coeffs[k]!r}"
    assert w.elapsed < 1.0
    report(1, "arctan a1/a3/a5 match reference digits to 1e-12", w)


def test_c2_degree9_second_kind_nodes():
    listing = [-1.0000, -0.9397, -0.7660, -0.5000, -0.1736,
               0.1736, 0.5000, 0.7660, 0.9397, 1.0000]
    pts = cheb_points_second_kind(9).points
    assert np.max(np.abs(pts - listing)) < 5e-5
    report(2, "degree-9 node listing reproduced at 4 decimals")


def test_c3_node_comparison_value():
    with Stopwatch(1.0) as w:
        scalars = exp.run_nodes(100).scalars
    # 0.0084 belongs to the chebpts-style (second kind) grid; the genuine
    # first-kind comparison is about 0.0028 and is reported alongside.
    assert abs(scalars["compare_max_diff"] - 0.0084) <= 0.0005
    assert scalars["compare_first_kind_max_diff"] < scalars["compare_max_diff"]
    assert w.elapsed < 1.0
    report(3, f"100-node comparison = {scalars['compare_max_diff']:.6f}", w)


def test_c4_basis_conditioning():
    unit = Domain(-1.0, 1.0)
    with Stopwatch(5.0) as w:
        cheb = condition_number(build_basis_matrix(Basis.CHEBYSHEV, unit, 10))
        mono = condition_number(build_basis_matrix(Basis.MONOMIAL, unit, 10))
        mono01 = condition_number(
            build_basis_matrix(Basis.MONOMIAL, Domain(0.0, 1.0), 10)
        )
        sv = singular_values(build_basis_matrix(Basis.CHEBYSHEV, unit, 10))
    assert abs(cheb - 3.7126) < 0.01 * 3.7126
    assert abs(mono - 3.073e3) < 0.02 * 3.073e3
    assert abs(mono01 - 2.2871e7) < 0.05 * 2.2871e7
    assert abs(sv[0] - 1.5238) < 0.01 * 1.5238
    assert abs(sv[-1] - 0.4104) < 0.01 * 0.4104
    assert w.elapsed < 5.0
    report(4, f"cond: cheb {cheb:.4f}, mono {mono:.1f}, mono[0,1] {mono01:.4g}", w)


def test_c5_convergence_thresholds():
    with Stopwatch(30.0) as w:
        r = exp.run_converge()
    n_star = r.scalars["threshold_l2"]
    assert 180 <= n_star <= 260
    assert r.scalars["exp_err_l2_at_20"] < 1e-14
    e = r.get_series("errors").columns["err_l2_runge"]
    target = ((1 + math.sqrt(26)) / 5) ** -2
    ratios = e[59:120] / e[57:118]
    assert np.all(np.abs(ratios - target) < 0.05 * target)
    assert w.elapsed < 30.0
    report(5, f"machine-precision degree {n_star:.0f} in [180, 260]; "
              f"Runge ratio ~ {np.mean(ratios):.4f}", w)


def test_c6_gamma_even_reconstruction():
    with Stopwatch(2.0) as w:
        clean = exp.run_gamma("even", False, seed=42)
        noisy = exp.run_gamma("even", True, seed=42)
    assert clean.scalars["cheb_max_node_error"] < 1e-10
    assert clean.scalars["cheb_peak_gap"] == 0.0
    assert clean.scalars["fourier_max_node_error"] < 1e-10
    assert noisy.scalars["cheb_peak_gap"] == 0.0
    assert noisy.scalars["fourier_peak_gap"] > 0.0
    assert w.elapsed < 2.0
    report(6, "even-grid gamma: Chebyshev exact, Fourier overshoots with noise", w)


def test_c7_gamma_uneven_reconstruction():
    with Stopwatch(2.0) as w:
        r = exp.run_gamma("uneven", True, seed=42)
    assert r.metadata["fourier"].startswith("unsupported")
    assert "uneven nodes unsupported" in r.metadata["fourier"]
    assert r.scalars["cheb_max_node_error"] < 1e-10
    assert r.scalars["cheb_peak_gap"] == 0.0
    assert w.elapsed < 2.0
    report(7, "uneven grid: Fourier refused, Chebyshev passes through samples", w)


def test_c8_property_suites(monkeypatch):
    with Stopwatch(120.0) as w:
        # Node symmetry, bit exact.
        for n in range(1, 2049):
            pts = cheb_points_second_kind(n).points
            assert np.array_equal(pts, -pts[::-1])
            pts = cheb_points_first_kind(n).points
            assert np.array_equal(pts, -pts[::-1])

        # Transform round trips.
        rng = np.random.default_rng(8)
        for n in (2, 31, 256, 4096):
            v = rng.uniform(-1, 1, n + 1)
            assert np.max(np.abs(values_at_nodes(interpolant_from_values(v)) - v)) < 1e-12
        for n in (2, 3, 12, 31, 1024):
            z = rng.standard_normal(n)
            back = resample_spectral(Signal(np.arange(n, dtype=float), z), n).y
            assert np.max(np.abs(back - z)) < 1e-12

        # Cardinal Kronecker delta.
        for n in (5, 8, 31):
            tau = trig_cardinal(2.0 * np.arange(1, n) / n, n)
            assert np.max(np.abs(tau)) < 1e-13

        # Parseval.
        z = rng.standard_normal(257)
        _, amplitudes, _ = amplitude_spectrum(Signal(np.arange(257.0), z))
        assert abs(np.sum(z ** 2) - np.sum(amplitudes ** 2) / 257) < 1e-9 * np.sum(z ** 2)

        # Derivative vs central finite differences.
        p = interpolant_from_function(np.exp)
        d = derivative(p)
        x = rng.uniform(-0.99, 0.99, 100)
        h = 1e-6
        fd = (evaluate(p, x + h) - evaluate(p, x - h)) / (2 * h)
        assert np.max(np.abs(evaluate(d, x) - fd)) < 1e-7

        # Legendre root residuals (raw bound up to n=100; beyond that the
        # extreme-root derivative times one ulp exceeds it).
        for n in (2, 10, 100):
            roots = legendre_points(n).points
            p_prev, pv = np.ones_like(roots), roots.copy()
            for m in range(2, n + 1):
                p_prev, pv = pv, ((2 * m - 1) * roots * pv - (m - 1) * p_prev) / m
            assert np.max(np.abs(pv)) < 1e-13

        # Filter DC gain.
        s = Signal(np.arange(50.0), np.full(50, 3.5))
        assert np.allclose(moving_average(s, 5).y[4:], 3.5, rtol=1e-15)

        # Moving-average RMS improvement across seeds.
        t = np.linspace(0.0, 3 * np.pi, 301)
        clean = gamma_variate(GammaParams(shape=2.0, scale=1.0), t)
        wins = 0
        for seed in range(20):
            noisy = add_noise(clean, 0.02, seed)
            filt = moving_average(noisy, 5)
            wins += np.sqrt(np.mean((filt.y - clean.y) ** 2)) < np.sqrt(
                np.mean((noisy.y - clean.y) ** 2)
            )
        assert wins >= 18

        # Grid-refinement stability of condition numbers.
        unit = Domain(-1.0, 1.0)
        fine = {basis: conditioning_sweep(basis, unit, 10) for basis in Basis}
        monkeypatch.setattr(conditioning, "DEFAULT_GRID", 512)
        for basis in Basis:
            coarse = conditioning_sweep(basis, unit, 10)
            assert np.max(np.abs(fine[basis] - coarse) / fine[basis]) < 1e-3
    assert w.elapsed < 120.0
    report(8, f"all property suites hold (filter wins {wins}/20)", w)


def test_c9_run_all_determinism(run_all_twice):
    with Stopwatch(120.0) as w:
        out1, out2, codes, _ = run_all_twice
        assert codes == [0, 0]
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*.csv"))
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*.csv"))
        assert files1 == files2 and files1
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    report(9, f"run-all --seed 42 twice: {len(files1)} CSV files byte-identical", w)
