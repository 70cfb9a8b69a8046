import math

import numpy as np
import pytest

from chebsig.fourier import (
    UnevenSpacingError,
    amplitude_spectrum,
    resample_spectral,
    trig_interpolate,
)
from chebsig.signals import Signal


def direct_dft(values):
    """O(N^2) summation, the independent reference for the fast path."""
    v = np.asarray(values, dtype=complex)
    n = v.size
    k = np.arange(n)
    phase = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return phase @ v


def dft_interpolant(xs, ys, xq):
    """The trigonometric interpolant as an explicit sum of its N Fourier
    modes, period N * step: the independent reference for trig_interpolate.
    For even N the Nyquist mode is the cosine, the real half of the pair
    the split Nyquist bin gives."""
    n = len(xs)
    coef = direct_dft(ys) / n
    modes = np.arange(n)
    modes[modes > n // 2] -= n
    phase = (2 * np.pi / (n * (xs[-1] - xs[0]) / (n - 1))) * (np.asarray(xq)[:, None] - xs[0])
    terms = coef * np.exp(1j * modes * phase)
    if n % 2 == 0:
        terms[:, n // 2] = coef[n // 2].real * np.cos(n // 2 * phase[:, 0])
    return terms.sum(axis=1).real


def unit_grid(values):
    """Samples at t = 0, 1, ..., N-1."""
    return Signal(np.arange(len(values), dtype=float), values)


def gamma_signal():
    t = np.linspace(0.0, 3 * np.pi, 31)
    return Signal(t, t * np.exp(-t))


class TestDft:
    def test_constant_is_dc_only(self):
        _, out, _ = amplitude_spectrum(unit_grid([1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(out, [4, 0, 0, 0], atol=1e-14)

    def test_impulse_is_flat(self):
        _, out, _ = amplitude_spectrum(unit_grid([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out, [1, 1, 1, 1], atol=1e-14)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(12)
        _, amps, phases = amplitude_spectrum(unit_grid(v))
        fast = amps * np.exp(1j * phases)
        assert np.max(np.abs(fast - direct_dft(v))) < 1e-12


class TestResampleSpectral:
    def test_constant_stays_constant(self):
        out = resample_spectral(unit_grid(np.full(7, 2.5)), 50)
        assert np.allclose(out.y, 2.5, atol=1e-12)
        assert len(out) == 50

    def test_bandlimited_cosine_reconstruction(self):
        t8 = np.arange(8) / 8.0
        s = Signal(t8, np.cos(2 * np.pi * t8))
        out = resample_spectral(s, 32)
        t32 = np.arange(32) / 32.0
        assert np.max(np.abs(out.y - np.cos(2 * np.pi * t32))) < 1e-10
        assert np.array_equal(out.t, t32)
        assert out.step == pytest.approx(1 / 32)

    def test_reproduces_samples_at_original_times(self):
        s = gamma_signal()
        out = resample_spectral(s, 31 * 8)  # original times land on the new grid
        assert np.max(np.abs(out.y[::8] - s.y)) < 1e-10

    def test_identity_even_length_with_nyquist_energy(self):
        # Alternating signal is pure Nyquist; the split halves must
        # recombine when the count does not change.
        v = np.array([1.0, -1.0] * 8)
        out = resample_spectral(unit_grid(v), 16)
        assert np.max(np.abs(out.y - v)) < 1e-12

    def test_even_length_sample_reproduction(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(30)
        out = resample_spectral(Signal(0.1 * np.arange(30), v), 30 * 4)
        assert np.max(np.abs(out.y[::4] - v)) < 1e-10

    def test_agrees_with_cardinal_interpolation(self):
        # Same underlying interpolant, two very different algorithms.
        for count in (31, 30):  # odd and even N
            t = np.linspace(0.0, 3 * np.pi, count)
            y = t * np.exp(-t)
            dense = resample_spectral(Signal(t, y), 1000)
            ref = trig_interpolate(t, y, dense.t)
            assert np.max(np.abs(dense.y - ref)) < 1e-8

    def test_samples_near_the_float_limit(self):
        # The transforms run on the samples scaled by a power of two, so a
        # result that fits comes back although the unscaled FFT overflows.
        for ys in ([1e308, -1e308, 1e308], [1e308, -1e308, 1e308, -0.5e308]):
            t = np.arange(len(ys), dtype=float)
            out = resample_spectral(Signal(t, ys), 4 * len(ys))
            want = trig_interpolate(t, ys, out.t)
            assert np.max(np.abs(out.y - want)) <= 1e-12 * np.max(np.abs(want))

    def test_result_that_does_not_fit_raises(self):
        # The interpolant of these samples is about 2.8e308 at 0.5.
        with pytest.raises(ValueError, match="the resampled values overflow"):
            resample_spectral(Signal(np.arange(3.0), [1.7e308, 1.7e308, -1.7e308]), 6)

    def test_rejects_downsampling(self):
        with pytest.raises(ValueError):
            resample_spectral(gamma_signal(), 30)

    def test_rejects_uneven_signal(self):
        t = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(UnevenSpacingError):
            resample_spectral(Signal(t, np.zeros(4)), 8)


@pytest.mark.parametrize("call", [
    lambda: trig_interpolate([0.0, 1e-320], [1.0, 2.0], [0.5e-320]),
    # 1 / (2 step) fits here, pi / (2 step) does not.
    lambda: trig_interpolate([0.0, 3e-309], [1.0, 2.0], [1e-309]),
    lambda: amplitude_spectrum(Signal(np.arange(3.0) * 1e-310, [1.0, 2.0, 3.0])),
    lambda: resample_spectral(Signal(np.arange(3.0) * 1e-310, [1.0, 2.0, 3.0]), 6),
], ids=["trig", "trig-phase", "spectrum", "resample"])
def test_a_step_too_small_for_its_frequencies_raises(call):
    with pytest.raises(ValueError, match="sample step .* too small"):
        call()


class TestTrigCardinal:
    """The cardinal function tau_k is trig_interpolate of the unit vector e_k;
    on nodes of spacing 2/N it has period 2 and the closed form
    sin(N pi u / 2) / (N sin(pi u / 2)), tangent in place of the denominator
    sine for even N, with u = x - x_k."""

    @staticmethod
    def closed_form_check(parity):
        worst = 0.0
        for n in range(2 + (parity == "odd"), 65, 2):
            xs = 2.0 * np.arange(n) / n
            x = np.linspace(0.0, 2.0, 397, endpoint=False)
            for k in range(n):
                u = x - xs[k]
                u[u > 1.0] -= 2.0  # into (-1, 1], where the closed form is well conditioned
                den = np.sin(np.pi * u / 2) if n % 2 else np.tan(np.pi * u / 2)
                with np.errstate(divide="ignore", invalid="ignore"):
                    tau = np.where(u == 0.0, 1.0, np.sin(n * np.pi * u / 2) / (n * den))
                got = trig_interpolate(xs, np.eye(n)[k], x)
                worst = max(worst, np.max(np.abs(got - tau)))
        assert worst < 1e-13

    def test_direct_formula_value(self):
        self.closed_form_check("odd")

    def test_even_n_uses_tangent_form(self):
        self.closed_form_check("even")

    def test_delta_at_period_images(self):
        # At x_k + 2m the interpolant of e_j is 1 for j = k and 0 otherwise.
        for n in range(2, 65):
            xs = 2.0 * np.arange(n) / n
            images = np.concatenate([xs + 2.0 * m for m in (-3, -2, -1, 1, 2, 3)])
            for k in range(n):
                e = np.eye(n)[k]
                got = trig_interpolate(xs, e, images)
                assert np.max(np.abs(got - np.tile(e, 6))) < 1e-13, (n, k)


class TestTrigInterpolate:
    def test_constant_everywhere(self):
        t = np.arange(10, dtype=float)
        out = trig_interpolate(t, np.full(10, 3.0), np.linspace(0, 9, 77))
        assert np.allclose(out, 3.0, atol=1e-12)

    def test_rejects_uneven_nodes(self):
        t = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(UnevenSpacingError):
            trig_interpolate(t, np.zeros(4), t)

    def test_accepts_accumulated_grid(self):
        # Building the grid by repeated addition wobbles at O(N eps),
        # far inside the 1e-9 relative uniformity tolerance.
        t = np.empty(1000)
        t[0] = 0.0
        step = math.pi / 999
        for i in range(1, 1000):
            t[i] = t[i - 1] + step
        out = trig_interpolate(t, np.sin(t), t[:5])
        assert np.max(np.abs(out - np.sin(t[:5]))) < 1e-9

    def test_scalar_query(self):
        t = np.linspace(0.0, 1.0, 8, endpoint=False)
        y = np.sin(2 * np.pi * t)
        val = trig_interpolate(t, y, 0.31)
        assert val == pytest.approx(math.sin(2 * math.pi * 0.31), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30, 31, 64, 101])
    def test_matches_dft_sum_inside_and_periods_outside(self, n):
        # The data are periodized with period N * step, so queries up to 3
        # periods outside the span, and the periodic images of the nodes,
        # follow the same sum as queries inside it.
        rng = np.random.default_rng(n)
        xs = rng.uniform(-5.0, 5.0) + rng.uniform(0.05, 1.0) * np.arange(n)
        ys = rng.standard_normal(n)
        period = n * (xs[-1] - xs[0]) / (n - 1)
        images = np.concatenate([xs + m * period for m in (-3, -2, -1, 1, 2, 3)])
        xq = np.concatenate([
            rng.uniform(xs[0], xs[-1], 500),
            rng.uniform(xs[0] - 3 * period, xs[-1] + 3 * period, 1500),
            images,
        ])
        got = trig_interpolate(xs, ys, xq)
        assert np.max(np.abs(got - dft_interpolant(xs, ys, xq))) <= 1e-12 * np.max(np.abs(ys))

    def test_samples_near_the_float_limit(self):
        # The samples are scaled by a power of two before the sums, so a
        # value that fits comes back although the unscaled sums overflow.
        ys = np.array([1e308, -1e308, 1e308])
        got = trig_interpolate([0.0, 1.0, 2.0], ys, 0.5)
        want = 1e308 * dft_interpolant(np.arange(3.0), ys * 1e-308, [0.5])[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_value_that_does_not_fit_raises(self):
        # The interpolant of these samples is about 2.8e308 at 0.5.
        with pytest.raises(ValueError, match="the interpolant value overflows"):
            trig_interpolate([0.0, 1.0, 2.0], [1.7e308, 1.7e308, -1.7e308], 0.5)

    def test_rejects_a_point_whose_phase_overflows(self):
        # pi (x - x_0) / (N step) is about 1e309 at x = 1e307.
        t = 1e-3 * np.arange(31)
        with pytest.raises(ValueError, match="their phase overflows"):
            trig_interpolate(t, np.sin(t), [0.0, 1e307])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_points(self, bad):
        t = np.linspace(0.0, 1.0, 8, endpoint=False)
        with pytest.raises(ValueError, match="points must be finite"):
            trig_interpolate(t, np.sin(t), [0.3, bad])
        with pytest.raises(ValueError, match="points must be finite"):
            trig_interpolate(t, np.sin(t), bad)


class TestAmplitudeSpectrum:
    def test_constant_signal(self):
        _, amps, _ = amplitude_spectrum(unit_grid(np.full(8, 3.0)))
        assert amps[0] == pytest.approx(24.0, rel=1e-14)
        assert np.max(amps[1:]) < 1e-12

    def test_cosine_two_bins(self):
        t = np.arange(16) / 16.0
        _, amps, _ = amplitude_spectrum(Signal(t, np.cos(2 * np.pi * t)))
        assert amps[1] == pytest.approx(8.0, rel=1e-12)
        assert amps[15] == pytest.approx(8.0, rel=1e-12)
        others = np.delete(amps, [1, 15])
        assert np.max(others) < 1e-12

    def test_frequency_axis_convention(self):
        freqs, _, _ = amplitude_spectrum(Signal(0.25 * np.arange(10), np.ones(10)))
        assert np.allclose(freqs, np.arange(10) / (10 * 0.25))

    def test_phases_in_half_open_interval(self):
        rng = np.random.default_rng(4)
        _, _, phases = amplitude_spectrum(unit_grid(rng.standard_normal(64)))
        assert np.all(phases > -np.pi)
        assert np.all(phases <= np.pi)

    def test_samples_near_the_float_limit(self):
        # The FFT runs on the samples scaled by a power of two: an amplitude
        # that fits comes back exactly, and one that does not (4e308 at
        # Nyquist) raises instead of giving inf, and nan at DC.
        y = np.array([1.0, -1.0, 1.0, -1.0])
        _, amps, _ = amplitude_spectrum(unit_grid(2.5e307 * y))
        assert np.array_equal(amps, [0.0, 0.0, 4 * 2.5e307, 0.0])
        with pytest.raises(ValueError, match="the spectrum amplitudes overflow"):
            amplitude_spectrum(unit_grid(1e308 * y))

    def test_rejects_uneven_signal(self):
        t = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(UnevenSpacingError):
            amplitude_spectrum(Signal(t, np.zeros(4)))
