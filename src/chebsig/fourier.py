"""Trigonometric interpolation on uniform grids.

Covers the discrete Fourier transform, zero-padded spectral resampling
(upsampling a uniformly sampled signal through its spectrum), the explicit
periodic cardinal function, and amplitude spectra.  Everything here assumes
evenly spaced samples; the cardinal-function interpolator rejects uneven
grids outright, since the construction is meaningless for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import signal_from_samples

__all__ = [
    "UniformSignal",
    "SpectrumReport",
    "UnevenSpacingError",
    "dft_forward",
    "dft_inverse",
    "resample_spectral",
    "trig_cardinal",
    "trig_interpolate",
    "amplitude_spectrum",
]

class UnevenSpacingError(ValueError):
    """Raised when trigonometric interpolation is asked for uneven nodes."""


@dataclass(frozen=True)
class UniformSignal:
    """Evenly sampled real signal: value k lives at ``start + k*step``."""

    start: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("values must be a 1-D vector of length >= 2")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be positive")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpectrumReport:
    """DFT magnitudes of a uniform signal on the 0 .. (N-1)/(N*step) axis."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        a = np.asarray(self.amplitudes, dtype=float)
        p = np.asarray(self.phases, dtype=float)
        if not (f.size == a.size == p.size):
            raise ValueError("frequency/amplitude/phase lengths differ")
        if np.any(a < 0):
            raise ValueError("amplitudes must be non-negative")
        for arr, name in ((f, "frequencies"), (a, "amplitudes"), (p, "phases")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.frequencies.size


def dft_forward(values) -> np.ndarray:
    """Unnormalized forward DFT, any length (numpy's pocketfft underneath)."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a 1-D vector of length >= 1")
    return np.fft.fft(v)


def dft_inverse(values) -> np.ndarray:
    """Inverse DFT with the 1/N normalization; round-trips dft_forward."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a 1-D vector of length >= 1")
    return np.fft.ifft(v)


def resample_spectral(signal: UniformSignal, new_count: int) -> UniformSignal:
    """Upsample onto new_count points by zero-padding the spectrum.

    The spectrum of the N input samples is embedded symmetrically into a
    length new_count spectrum (for even N the Nyquist bin is split half and
    half, keeping the result real) and transformed back, scaled by
    new_count/N.  The output grid starts at the same point with step
    ``step * N / new_count``; the underlying trigonometric interpolant
    passes through every input sample.

    Raises
    ------
    ValueError
        If new_count < len(signal).
    """
    n = len(signal)
    if new_count < n:
        raise ValueError(f"new_count {new_count} < signal length {n}")
    spec = np.fft.fft(signal.values)
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
    return UniformSignal(signal.start, signal.step * n / new_count, out.real)


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
    """
    xs = np.asarray(sample_x, dtype=float)
    ys = np.asarray(sample_y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("sample_x and sample_y must be 1-D, equal length >= 2")
    n = xs.size
    step = signal_from_samples(xs, ys).step
    if step is None:
        raise UnevenSpacingError(
            "uneven nodes unsupported: trigonometric interpolation "
            "requires an equally spaced sample grid"
        )
    xq = np.asarray(query_x, dtype=float)
    scale = step / (2.0 / n)
    xs_u = xs / scale
    xq_u = np.atleast_1d(xq) / scale
    out = np.zeros(xq_u.shape)
    for k in range(n):
        out += ys[k] * trig_cardinal(xq_u - xs_u[k], n)
    return out if np.asarray(query_x).ndim else float(out[0])


def amplitude_spectrum(signal: UniformSignal) -> SpectrumReport:
    """DFT magnitudes/phases with frequencies k/(N*step), k = 0..N-1."""
    n = len(signal)
    spec = np.fft.fft(signal.values)
    freqs = np.arange(n) / (n * signal.step)
    phases = np.angle(spec)
    phases[phases <= -np.pi] += 2 * np.pi  # keep within (-pi, pi]
    return SpectrumReport(freqs, np.abs(spec), phases)
