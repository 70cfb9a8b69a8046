"""Trigonometric interpolation of evenly sampled signals.

Covers zero-padded spectral resampling (upsampling a signal through its
spectrum), the explicit periodic cardinal function, and amplitude spectra.
Samples come as a :class:`~chebsig.signals.Signal`, whose derived ``step``
says whether its grid is even; every function here raises
:class:`UnevenSpacingError` on an uneven grid, since the constructions are
meaningless for one.
"""

from __future__ import annotations

import numpy as np

from .signals import Signal

__all__ = [
    "UnevenSpacingError",
    "resample_spectral",
    "trig_cardinal",
    "trig_interpolate",
    "amplitude_spectrum",
]


class UnevenSpacingError(ValueError):
    """Raised when trigonometric interpolation is asked for uneven nodes."""


def _even_step(signal: Signal) -> float:
    if signal.step is None:
        raise UnevenSpacingError(
            "uneven nodes unsupported: trigonometric interpolation "
            "requires an equally spaced sample grid"
        )
    return signal.step


def resample_spectral(signal: Signal, new_count: int) -> Signal:
    """Upsample onto new_count points by zero-padding the spectrum.

    The spectrum of the N input samples is embedded symmetrically into a
    length new_count spectrum (for even N the Nyquist bin is split half and
    half, keeping the result real) and transformed back, scaled by
    new_count/N.  The output grid starts at the same point with step
    ``step * N / new_count``; the underlying trigonometric interpolant
    passes through every input sample.

    Raises
    ------
    UnevenSpacingError
        If the signal's grid is not even.
    ValueError
        If new_count < len(signal).
    """
    step = _even_step(signal)
    n = len(signal)
    if new_count < n:
        raise ValueError(f"new_count {new_count} < signal length {n}")
    spec = np.fft.fft(signal.y)
    padded = np.zeros(new_count, dtype=complex)
    if n % 2:
        h = (n + 1) // 2
        padded[:h] = spec[:h]
        padded[new_count - (n - h):] = spec[h:]
    else:
        h = n // 2
        padded[:h] = spec[:h]
        padded[h] = 0.5 * spec[h]
        # += so the two halves recombine when new_count == n.
        padded[new_count - h] += 0.5 * spec[h]
        padded[new_count - h + 1:] = spec[h + 1:]
    out = np.fft.ifft(padded) * (new_count / n)
    residue = np.max(np.abs(out.imag))
    tol = 1e-10 * max(1.0, np.max(np.abs(out.real)))
    if residue >= tol:
        raise ValueError(f"imaginary residue {residue:.3e} after resampling")
    return Signal(signal.t[0] + (step * n / new_count) * np.arange(new_count), out.real)


def trig_cardinal(x, n: int):
    """Periodic cardinal function tau for N uniform nodes of spacing 2/N.

    tau(0) = 1 and tau vanishes at the other node offsets 2j/N.  Odd N uses
    sin(N pi x/2) / (N sin(pi x/2)); even N replaces the denominator sine
    with a tangent.  The function has period 2, and the removable
    singularities at even integer x take the limit value 1.
    """
    if n < 2:
        raise ValueError("need N >= 2 nodes")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if n % 2:
            tau = np.sin(n * np.pi * x / 2) / (n * np.sin(np.pi * x / 2))
        else:
            tau = np.sin(n * np.pi * x / 2) / (n * np.tan(np.pi * x / 2))
    tau = np.where(np.mod(x, 2.0) == 0.0, 1.0, tau)
    return tau if tau.ndim else float(tau)


def trig_interpolate(sample_x, sample_y, query_x) -> np.ndarray:
    """Trigonometric interpolant through uniform samples, at query points.

    The sample grid spacing is rescaled to the cardinal function's native
    2/N, which implicitly periodizes the data with period N*spacing.

    Raises
    ------
    UnevenSpacingError
        If sample_x is not uniformly spaced to within ``signals.EVEN_RTOL``.
    ValueError
        If a query point is not finite.
    """
    samples = Signal(sample_x, sample_y)
    step = _even_step(samples)
    xs, ys, n = samples.t, samples.y, len(samples)
    xq = np.asarray(query_x, dtype=float)
    if not np.all(np.isfinite(xq)):
        raise ValueError("points must be finite")
    scale = step / (2.0 / n)
    xs_u = xs / scale
    xq_u = np.atleast_1d(xq) / scale
    out = np.zeros(xq_u.shape)
    for k in range(n):
        out += ys[k] * trig_cardinal(xq_u - xs_u[k], n)
    return out if xq.ndim else float(out[0])


def amplitude_spectrum(signal: Signal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DFT ``(frequencies, amplitudes, phases)``: frequencies k/(N*step) for
    k = 0..N-1, amplitudes |X_k| and phases arg X_k in (-pi, pi]."""
    step = _even_step(signal)
    n = len(signal)
    spec = np.fft.fft(signal.y)
    freqs = np.arange(n) / (n * step)
    phases = np.angle(spec)
    phases[phases <= -np.pi] += 2 * np.pi  # keep within (-pi, pi]
    return freqs, np.abs(spec), phases
