"""Reference computations that check the library's outputs.

None of these call chebsig: each reaches the expected answer by a route of
its own (explicit trigonometric sums, FFT dense scans, closed-form Gram
matrices), so a fault in the library cannot hide by also corrupting its
reference.  Clenshaw results are checked against numpy's own
``numpy.polynomial.chebyshev.chebval``.
"""

from __future__ import annotations

import numpy as np

EPS = 2.0 ** -52
#: The extrema scan covers 2**GRID_LOG2 + 1 Chebyshev-spaced points.
GRID_LOG2 = 20
#: Best grid peaks per sign that Newton's method polishes.
CANDIDATES = 16
#: Newton steps per candidate.
NEWTON_STEPS = 4


def cheb_sum(coeffs, x):
    """sum_k c_k T_k(x) through T_k(cos t) = cos(k t), with no recurrence.

    One point at a time, so the check adds no more memory than the series
    itself to the peak it would otherwise share with the library.
    """
    theta = np.arccos(np.clip(np.asarray(x, dtype=float), -1.0, 1.0))
    k = np.arange(len(coeffs))
    return np.array([np.cos(k * t) @ coeffs for t in theta])


def _dense_values(coeffs):
    """Series values at cos(j pi / M), j = 0..M, M = 2**GRID_LOG2, by one FFT."""
    m = 2 ** GRID_LOG2
    spec = np.zeros(m + 1)
    spec[: len(coeffs)] = np.asarray(coeffs) * m
    spec[0] *= 2.0
    spec[m] *= 2.0
    return np.fft.irfft(spec, 2 * m)[: m + 1], np.arange(m + 1) * (np.pi / m)


def _polish(coeffs, theta, sign):
    """Newton steps on d/dt sum c_k cos(k t), keeping t in [0, pi]."""
    k = np.arange(len(coeffs))
    for _ in range(NEWTON_STEPS):
        kt = np.outer(theta, k)
        d1 = -(np.sin(kt) * k) @ coeffs
        d2 = -(np.cos(kt) * k ** 2) @ coeffs
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(sign * d2 < 0.0, d1 / d2, 0.0)
        theta = np.clip(theta - step, 0.0, np.pi)
    return np.cos(np.outer(theta, k)) @ coeffs


def extrema(coeffs):
    """Global (min, max) of a Chebyshev series on [-1, 1].

    A dense scan over 2**20 + 1 (about 10**6) Chebyshev-spaced points,
    whose best grid points are then polished by Newton's method on the
    trigonometric form.  Clenshaw on 10**6 points would cost seconds at
    degree 999; the FFT scan costs milliseconds.
    """
    values, theta = _dense_values(coeffs)
    out = []
    for sign in (-1.0, 1.0):
        v = sign * values
        peaks = np.nonzero((v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:]))[0] + 1
        best = peaks[np.argsort(v[peaks])[-CANDIDATES:]]
        polished = sign * _polish(coeffs, theta[best], sign)
        out.append(sign * max(np.max(v), np.max(polished, initial=-np.inf)))
    return out[0], out[1]


def trig_interpolant(xs, ys, xq):
    """The periodic trigonometric interpolant of uniform samples, by the DFT.

    The period is N times the sample spacing; N must be odd so that no
    Nyquist mode has to be split.
    """
    n = len(xs)
    if n % 2 == 0:
        raise ValueError("odd sample count required")
    period = n * (xs[-1] - xs[0]) / (n - 1)
    modes = np.fft.fftfreq(n, 1.0 / n)
    spectrum = np.fft.fft(ys) / n
    phase = (2.0 * np.pi / period) * (np.asarray(xq) - xs[0])
    return (np.exp(1j * np.outer(phase, modes)) @ spectrum).real


def _integral_t(k):
    """Integral of T_k over [-1, 1]."""
    k = np.asarray(k)
    with np.errstate(divide="ignore"):
        val = 2.0 / (1.0 - k.astype(float) ** 2)
    return np.where(k % 2 == 0, val, 0.0)


def basis_condition_sweep(chebyshev: bool, n_max: int):
    """L2 condition numbers of the degree 0..n bases on [-1, 1], n = 0..n_max.

    From the exact Gram matrix: the matrix whose singular values the library
    computes is a square root of it, so its condition number is the square
    root of the Gram matrix's.
    """
    i, j = np.meshgrid(np.arange(n_max + 1), np.arange(n_max + 1), indexing="ij")
    if chebyshev:
        gram = 0.5 * (_integral_t(i + j) + _integral_t(np.abs(i - j)))
    else:
        gram = np.where((i + j) % 2 == 0, 2.0 / (i + j + 1.0), 0.0)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        ev = np.linalg.eigvalsh(gram[: n + 1, : n + 1])
        out[n] = np.sqrt(ev[-1] / ev[0])
    return out
