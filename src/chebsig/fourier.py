"""Trigonometric interpolation of evenly sampled signals.

Covers zero-padded spectral resampling (upsampling a signal through its
spectrum), evaluation of the periodic trigonometric interpolant at any
points by the barycentric trigonometric formula, and amplitude spectra.
Samples come as a :class:`~chebsig.signals.Signal`, whose derived ``step``
says whether its grid is even; every function here raises
:class:`UnevenSpacingError` on an uneven grid, since the constructions are
meaningless for one, and ValueError on a step so small that its
frequencies overflow.
"""

from __future__ import annotations

import numpy as np

from .cheb import _barycentric_rows, _count, _finite, _overflow_scale, _unscaled
from .signals import Signal

__all__ = [
    "UnevenSpacingError",
    "resample_spectral",
    "trig_interpolate",
    "amplitude_spectrum",
]


class UnevenSpacingError(ValueError):
    """Raised when trigonometric interpolation is asked for uneven nodes."""


def _even_step(signal: Signal) -> float:
    """The grid step, checked so that the frequencies k / (N step) for k up
    to N - 1 and the phase rate pi / (N step) are finite."""
    if signal.step is None:
        raise UnevenSpacingError(
            "uneven nodes unsupported: trigonometric interpolation "
            "requires an equally spaced sample grid"
        )
    n, step = len(signal), signal.step
    if not np.isfinite(max(np.pi, n - 1) / (n * step)):
        raise ValueError(f"sample step {step} too small: max(pi, N - 1) / (N * step) overflows")
    return step


def resample_spectral(signal: Signal, new_count: int) -> Signal:
    """Upsample onto new_count points by zero-padding the spectrum.

    The spectrum of the N input samples is embedded symmetrically into a
    length new_count spectrum (for even N the Nyquist bin is split half and
    half, keeping the result real) and transformed back, scaled by
    new_count/N.  The output grid starts at the same point with step
    ``step * N / new_count``; the underlying trigonometric interpolant
    passes through every input sample.  The transforms run on the samples
    scaled by ``cheb._overflow_scale``, so they overflow only where the
    result does.

    Raises
    ------
    UnevenSpacingError
        If the signal's grid is not even.
    ValueError
        If new_count is not an integer >= len(signal), the step is too small
        for its frequencies, or a resampled value overflows.
    """
    step = _even_step(signal)
    n = len(signal)
    new_count = _count(new_count, "new_count", n)
    scale = _overflow_scale(signal.y)
    spec = np.fft.fft(signal.y * scale)
    padded = np.zeros(new_count, dtype=complex)
    h, m = (n + 1) // 2, (n - 1) // 2  # positive and negative bins, Nyquist aside
    padded[:h] = spec[:h]
    padded[new_count - m:] = spec[n - m:]
    if n % 2 == 0:
        padded[h] = 0.5 * spec[h]
        padded[new_count - h] += 0.5 * spec[h]  # += rejoins the halves if new_count == n
    out = np.fft.ifft(padded) * (new_count / n)
    residue = np.max(np.abs(out.imag))
    # 1e-10 max(1, max|out|) in the units of the unscaled samples.
    tol = 1e-10 * max(scale, np.max(np.abs(out.real)))
    if residue >= tol:
        raise ValueError(f"imaginary residue {residue / scale:.3e} after resampling")
    y = _unscaled(out.real, scale, "the resampled values overflow")
    return Signal(signal.t[0] + (step * n / new_count) * np.arange(new_count), y)


def trig_interpolate(sample_x, sample_y, query_x) -> np.ndarray:
    """Trigonometric interpolant through uniform samples, at query points.

    The data are periodized with period N * step.  With theta = pi (x - x_0)
    / (N step), and theta_k the same on the sample abscissae, this is the
    second (true) barycentric trigonometric form (Henrici 1979; Berrut
    1984)::

        t(x) = sum (-1)^k y_k g(theta - theta_k) / sum (-1)^k g(theta - theta_k)

    with g = csc for odd N and cot for even N.  sin(theta - theta_k) and
    cos(theta - theta_k) come by angle addition from one sine and cosine
    per query and per node.  The sums are taken by
    ``cheb._barycentric_rows`` (block, scale, buffer and snap rules), with
    |sin(theta - theta_k)| as the distance to a sample.

    Raises
    ------
    UnevenSpacingError
        If sample_x is not uniformly spaced to within ``signals.EVEN_RTOL``.
    ValueError
        If the step is too small for its frequencies, a query point is not
        finite or its phase theta overflows, or the interpolant value
        overflows.
    """
    samples = Signal(sample_x, sample_y)
    step = _even_step(samples)
    xs, ys, n = samples.t, samples.y, len(samples)
    xq = _finite(query_x, "points must be finite")
    shape = xq.shape
    xq = xq.ravel()

    rate = np.pi / (n * step)
    theta_k = (xs - xs[0]) * rate
    with np.errstate(over="ignore"):
        theta = (xq - xs[0]) * rate
    theta = _finite(theta, "points too far from the samples: their phase overflows")
    sq, cq = np.sin(theta), np.cos(theta)
    # The node sines and cosines carry (-1)^k, so a block row of
    # sq * ck_signed - cq * sk_signed holds (-1)^k sin(theta - theta_k).
    sign = np.ones(n)
    sign[1::2] = -1.0
    sk, ck = np.sin(theta_k), np.cos(theta_k)
    sk_signed, ck_signed = sign * sk, sign * ck

    def fill(rows, g):
        s, c = sq[rows, None], cq[rows, None]
        np.multiply(s, ck_signed, out=g)
        g -= c * sk_signed
        np.divide(1.0 if n % 2 else c * ck + s * sk, g, out=g)

    out = _barycentric_rows(
        ys, xq.size, fill, lambda i: np.abs(sq[i, None] * ck - cq[i, None] * sk)
    )
    return float(out[0]) if not shape else out.reshape(shape)


def amplitude_spectrum(signal: Signal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DFT ``(frequencies, amplitudes, phases)``: frequencies k/(N*step) for
    k = 0..N-1, amplitudes |X_k| and phases arg X_k in (-pi, pi].  The FFT
    runs on the samples scaled by ``cheb._overflow_scale``; an amplitude
    that overflows raises ValueError."""
    step = _even_step(signal)
    n = len(signal)
    scale = _overflow_scale(signal.y)
    spec = np.fft.fft(signal.y * scale)
    freqs = np.arange(n) / (n * step)
    phases = np.angle(spec)
    phases[phases <= -np.pi] += 2 * np.pi  # keep within (-pi, pi]
    amps = _unscaled(np.abs(spec), scale, "the spectrum amplitudes overflow")
    return freqs, amps, phases
