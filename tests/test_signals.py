import math
import warnings

import numpy as np
import pytest

from chebsig.signals import (
    GammaParams,
    Signal,
    add_noise,
    gamma_variate,
    moving_average,
    uneven_grid,
)


class TestSignal:
    def test_even_detection(self):
        s = Signal(np.linspace(0, 1, 11), np.zeros(11))
        assert s.step is not None
        s = Signal([0.0, 0.1, 0.5], np.zeros(3))
        assert s.step is None

    def test_derived_step(self):
        s = Signal(1.0 + 0.5 * np.arange(4), np.zeros(4))
        assert s.step == 0.5
        assert np.array_equal(s.t, [1.0, 1.5, 2.0, 2.5])
        assert Signal(np.arange(50.0), np.zeros(50)).step == 1.0
        # Far from 0 the rounding of t wobbles the spacings by 8.1e-9 of it.
        assert Signal(np.linspace(63.17, 63.171, 1971), np.zeros(1971)).step is not None

    def test_step_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Signal([0.0, 0.5], [1.0, 2.0], 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Signal([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            Signal([0.0, 1.0], [1.0, np.nan])

    def test_even_grid_validation(self):
        # Zero step, a single sample and an infinite value are all rejected.
        with pytest.raises(ValueError):
            Signal(np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            Signal([0.0], [1.0])
        with pytest.raises(ValueError):
            Signal([0.0, 1.0], [1.0, np.inf])

    @pytest.mark.parametrize("t", [[-1e308, 0.0, 1e308], [-1e308, 1e308]])
    def test_rejects_overflowing_span(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                Signal(t, np.zeros(len(t)))

    def test_immutable(self):
        s = Signal([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            s.y[0] = 9.0


class TestGammaVariate:
    def test_pdf_closed_form(self):
        params = GammaParams(shape=2.0, scale=1.0)
        s = gamma_variate(params, [0.5, 1.0, 2.0])
        assert s.y[1] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert np.allclose(s.y, s.t * np.exp(-s.t), rtol=1e-15)

    def test_zero_before_onset(self):
        params = GammaParams(shape=2.0, scale=1.0)
        s = gamma_variate(params, [-2.0, -1.0, -1e-300, 0.0, 1.0])
        assert np.array_equal(s.y[:4], [0.0, 0.0, 0.0, 0.0])
        assert s.y[4] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_grid_maximum(self):
        params = GammaParams(shape=2.0, scale=1.0)
        t = np.linspace(0.0, 3 * np.pi, 31)
        s = gamma_variate(params, t)
        assert np.max(s.y) == pytest.approx(0.36724696997, abs=1e-9)
        assert t[np.argmax(s.y)] == pytest.approx(3 * np.pi / 10, rel=1e-12)

    def test_unique_interior_maximum(self):
        params = GammaParams(shape=2.0, scale=1.0)
        s = gamma_variate(params, np.linspace(0, 10, 200))
        assert np.all(s.y >= 0)
        rises = np.diff(s.y) > 0
        # One contiguous rising stretch, then one falling stretch.
        assert np.sum(np.diff(rises.astype(int)) != 0) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GammaParams(shape=0.0, scale=1.0)
        with pytest.raises(ValueError):
            GammaParams(shape=1.0, scale=-2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                GammaParams(shape=bad, scale=1.0)
            with pytest.raises(ValueError, match="positive and finite"):
                GammaParams(shape=2.0, scale=bad)


class TestUnevenGrid:
    def test_deterministic(self):
        a = uneven_grid(50, math.pi, seed=7)
        b = uneven_grid(50, math.pi, seed=7)
        assert np.array_equal(a, b)

    def test_range_and_order(self):
        t = uneven_grid(1000, 2.0, seed=3)
        assert np.all(np.diff(t) > 0)
        assert t[0] >= 0.0 and t[-1] <= 2.0

    def test_kolmogorov_smirnov_over_seeds(self):
        n = 1000
        for seed in range(20):
            u = uneven_grid(n, 1.0, seed)
            i = np.arange(1, n + 1)
            d = max(np.max(i / n - u), np.max(u - (i - 1) / n))
            assert d < 0.05, f"seed {seed}: KS statistic {d:.4f}"

    def test_modulated_mode(self):
        t = uneven_grid(31, 3 * math.pi, seed=5, mode="modulated")
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        assert t[-1] <= 3 * math.pi

    @pytest.mark.parametrize("mode", ["sorted", "modulated"])
    def test_signal_on_it_is_uneven(self, mode):
        for seed in range(10):
            t = uneven_grid(31, 3 * math.pi, seed, mode)
            assert Signal(t, np.sin(t)).step is None

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            uneven_grid(10, 1.0, 0, mode="shuffled")

    def test_rejects_bad_span(self):
        for span in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="span must be positive and finite"):
                uneven_grid(5, span, 0)


class TestAddNoise:
    def test_zero_sigma_identity(self):
        s = Signal([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert add_noise(s, 0.0, 99) is s

    def test_rejects_bad_sigma(self):
        s = Signal([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        for sigma in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
                add_noise(s, sigma, 0)

    def test_deterministic(self):
        s = Signal(np.arange(10.0), np.zeros(10))
        a = add_noise(s, 0.02, seed=11)
        b = add_noise(s, 0.02, seed=11)
        assert np.array_equal(a.y, b.y)

    def test_noise_statistics(self):
        n = 10 ** 5
        s = Signal(np.arange(float(n)), np.zeros(n))
        noisy = add_noise(s, 0.02, seed=0)
        assert abs(np.mean(noisy.y)) < 3 * 0.02 / math.sqrt(n)
        assert abs(np.std(noisy.y) / 0.02 - 1.0) < 0.02

    def test_noise_is_absolute_not_relative(self):
        # Flat zero signal still gets full-size noise.
        s = Signal(np.arange(1000.0), np.zeros(1000))
        noisy = add_noise(s, 0.02, seed=1)
        assert np.std(noisy.y) > 0.015


class TestMovingAverage:
    def test_constant_ramp_up(self):
        s = Signal(np.arange(10.0), np.full(10, 2.0))
        out = moving_average(s, 4)
        expected = [0.5, 1.0, 1.5] + [2.0] * 7
        assert np.allclose(out.y, expected, rtol=1e-15)

    def test_impulse_response(self):
        y = np.zeros(12)
        y[0] = 1.0
        out = moving_average(Signal(np.arange(12.0), y), 5)
        assert np.allclose(out.y[:5], 0.2, rtol=1e-15)
        assert np.max(np.abs(out.y[5:])) == 0.0

    def test_window_one_identity(self):
        rng = np.random.default_rng(2)
        s = Signal(np.arange(20.0), rng.standard_normal(20))
        assert np.allclose(moving_average(s, 1).y, s.y, atol=1e-16)

    def test_rms_improvement_across_seeds(self):
        t = np.linspace(0.0, 3 * np.pi, 301)
        clean = gamma_variate(GammaParams(shape=2.0, scale=1.0), t)
        wins = 0
        for seed in range(20):
            noisy = add_noise(clean, 0.02, seed)
            filtered = moving_average(noisy, 5)
            rms_raw = np.sqrt(np.mean((noisy.y - clean.y) ** 2))
            rms_filt = np.sqrt(np.mean((filtered.y - clean.y) ** 2))
            wins += rms_filt < rms_raw
        assert wins >= 18
