"""Gamma-variate test signals, seeded noise, uneven grids, and filtering.

All randomness is drawn from numpy's PCG64 generator seeded explicitly, so
every curve produced here is reproducible from (parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheb import _count, _finite

__all__ = [
    "Signal",
    "GammaParams",
    "gamma_variate",
    "uneven_grid",
    "add_noise",
    "moving_average",
]

#: Relative wobble below which consecutive spacings count as one even step.
#: Rounding the sample times also wobbles each spacing by up to a few ulps of
#: max|t|, which on a short grid far from 0 exceeds EVEN_RTOL * step (e.g.
#: np.linspace(63.17, 63.171, 1971) wobbles by 8.1e-9 of its step), so that
#: rounding floor, 4 eps max(|t[0]|, |t[-1]|), is allowed on top.
EVEN_RTOL = 1e-9


@dataclass(frozen=True)
class Signal:
    """Paired (t, y) samples.  ``step`` is derived from t: the even grid step
    (t[-1] - t[0]) / (N - 1) when every spacing is within ``EVEN_RTOL`` of
    it, plus the rounding floor of the sample times, otherwise None."""

    t: np.ndarray
    y: np.ndarray
    step: float | None = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != y.shape:
            raise ValueError("t and y must be 1-D, equal length >= 2")
        _finite([t, y], "samples must be finite")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("t must be strictly increasing")
        span = float(t[-1]) - float(t[0])
        if not math.isfinite(span):
            raise ValueError(
                f"sample times [{t[0]}, {t[-1]}] overflow: t[-1] - t[0] is not finite"
            )
        # With t increasing and its span finite, no spacing overflows.
        dt = np.diff(t)
        step = span / (t.size - 1)
        floor = 4.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
        even = np.max(np.abs(dt - step)) <= EVEN_RTOL * step + floor
        object.__setattr__(self, "step", float(step) if even else None)
        for arr, name in ((t, "t"), (y, "y")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class GammaParams:
    """alpha = shape, beta = scale in beta^alpha t^(alpha-1) e^(-beta t) / Gamma(alpha)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.shape, self.scale)):
            raise ValueError("shape and scale must be positive and finite")


def gamma_variate(params: GammaParams, t) -> Signal:
    """Evaluate the gamma-variate curve on the given ascending grid.

    Times before 0 map to zero.  shape=2 and scale=1 reduce to
    y = t * exp(-t).
    """
    t = np.asarray(t, dtype=float)
    y = np.zeros_like(t)
    pos = t >= 0
    a, b = params.shape, params.scale
    with np.errstate(divide="ignore"):
        y[pos] = b ** a * t[pos] ** (a - 1.0) * np.exp(-b * t[pos]) / math.gamma(a)
    return Signal(t, y)


def uneven_grid(count: int, span: float, seed: int, mode: str = "sorted") -> np.ndarray:
    """Random, strictly increasing grid of count points inside [0, span].

    mode="sorted" draws count uniforms on [0, span] and sorts them.
    mode="modulated" multiplies an even grid elementwise by sorted uniform
    draws, which also yields an increasing grid but keeps the first point
    pinned at 0.  Tied neighbours are nudged apart by 1e-12 * span.
    """
    count, seed = _count(count, "count", 2), _count(seed, "seed", 0)
    if not 0 < span < math.inf:
        raise ValueError("span must be positive and finite")
    rng = np.random.default_rng(seed)
    if mode == "sorted":
        t = np.sort(rng.uniform(0.0, span, count))
    elif mode == "modulated":
        t = np.linspace(0.0, span, count) * np.sort(rng.uniform(0.0, 1.0, count))
    else:
        raise ValueError(f"unknown uneven grid mode {mode!r}")
    nudge = 1e-12 * span
    for i in range(1, count):
        if t[i] <= t[i - 1]:
            t[i] = t[i - 1] + nudge
    return t


def add_noise(signal: Signal, sigma: float, seed: int) -> Signal:
    """Add absolute Gaussian noise sigma * N(0, 1) to the sample values; the
    seed is checked even when sigma is 0 and the signal comes back as is."""
    seed = _count(seed, "seed", 0)
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and >= 0")
    if sigma == 0:
        return signal
    rng = np.random.default_rng(seed)
    return Signal(signal.t, signal.y + sigma * rng.standard_normal(len(signal)))


def moving_average(signal: Signal, window: int) -> Signal:
    """Causal length-window moving average with uniform weights.

    y'[k] = mean(y[k-w+1 .. k]) with zeros before the start, which carries
    an inherent lag of (w-1)/2 samples.  Output length equals input length.
    """
    window = _count(window, "window", 1)
    kernel = np.full(window, 1.0 / window)
    smoothed = np.convolve(signal.y, kernel, mode="full")[: len(signal)]
    return Signal(signal.t, smoothed)
