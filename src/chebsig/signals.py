"""Gamma-variate test signals, seeded noise, uneven grids, and filtering.

All randomness is drawn from numpy's PCG64 generator seeded explicitly, so
every curve produced here is reproducible from (parameters, seed).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "Signal",
    "GammaForm",
    "GammaParams",
    "PeakMetrics",
    "gamma_variate",
    "uneven_grid",
    "add_noise",
    "moving_average",
    "peak_metrics",
    "write_signal_csv",
    "read_signal_csv",
]

#: Relative wobble below which consecutive spacings count as one even step.
#: Rounding the sample times wobbles the spacings by O(N eps max|t| / span)
#: relative to the step, far below this for grids that start near 0; a
#: short grid far from 0 can exceed it, e.g. np.linspace(63.17, 63.171, 1971)
#: wobbles by 8.1e-9 and counts as uneven.
EVEN_RTOL = 1e-9


@dataclass(frozen=True)
class Signal:
    """Paired (t, y) samples.  ``step`` is derived from t: the even grid step
    (t[-1] - t[0]) / (N - 1) when every spacing is within ``EVEN_RTOL`` of
    it, otherwise None."""

    t: np.ndarray
    y: np.ndarray
    step: float | None = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != y.shape:
            raise ValueError("t and y must be 1-D, equal length >= 2")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("samples must be finite")
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
        even = np.max(np.abs(dt - step)) <= EVEN_RTOL * step
        object.__setattr__(self, "step", float(step) if even else None)
        for arr, name in ((t, "t"), (y, "y")):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def is_even(self) -> bool:
        return self.step is not None

    def __len__(self) -> int:
        return self.t.size

    def with_values(self, y) -> "Signal":
        return Signal(self.t, y)


class GammaForm(enum.Enum):
    #: A * (t - t0)^alpha * exp(-(t - t0)/beta), zero before the onset.
    AMPLITUDE = "amplitude"
    #: A * beta^alpha (t - t0)^(alpha-1) exp(-beta (t - t0)) / Gamma(alpha).
    NORMALIZED_PDF = "normalized-pdf"


@dataclass(frozen=True)
class GammaParams:
    shape: float
    scale: float
    amplitude: float = 1.0
    onset: float = 0.0
    form: GammaForm = GammaForm.NORMALIZED_PDF

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0 or self.amplitude <= 0:
            raise ValueError("shape, scale, and amplitude must be positive")


def gamma_variate(params: GammaParams, t) -> Signal:
    """Evaluate a gamma-variate curve on the given ascending grid.

    Times before the onset map to zero.  With the normalized-pdf form,
    shape=2 and scale=1 reduce to y = t * exp(-t).
    """
    t = np.asarray(t, dtype=float)
    tau = t - params.onset
    y = np.zeros_like(tau)
    pos = tau >= 0
    a, b = params.shape, params.scale
    with np.errstate(divide="ignore"):
        if params.form is GammaForm.AMPLITUDE:
            y[pos] = params.amplitude * tau[pos] ** a * np.exp(-tau[pos] / b)
        else:
            y[pos] = (
                params.amplitude
                * b ** a
                * tau[pos] ** (a - 1.0)
                * np.exp(-b * tau[pos])
                / math.gamma(a)
            )
    return Signal(t, y)


def uneven_grid(count: int, span: float, seed: int, mode: str = "sorted") -> np.ndarray:
    """Random, strictly increasing grid of count points inside [0, span].

    mode="sorted" draws count uniforms on [0, span] and sorts them.
    mode="modulated" multiplies an even grid elementwise by sorted uniform
    draws, which also yields an increasing grid but keeps the first point
    pinned at 0.  Tied neighbours are nudged apart by 1e-12 * span.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if span <= 0:
        raise ValueError("span must be positive")
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
    """Add absolute Gaussian noise sigma * N(0, 1) to the sample values."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return signal
    rng = np.random.default_rng(seed)
    return signal.with_values(signal.y + sigma * rng.standard_normal(len(signal)))


def moving_average(signal: Signal, window: int, centered: bool = False) -> Signal:
    """Length-window moving average with uniform weights.

    The default is the causal form y'[k] = mean(y[k-w+1 .. k]) with zeros
    before the start, which carries an inherent lag of (w-1)/2 samples; the
    centered variant trades the lag for symmetric zero padding.  Output
    length equals input length either way.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    kernel = np.full(window, 1.0 / window)
    if centered:
        smoothed = np.convolve(signal.y, kernel, mode="same")
    else:
        smoothed = np.convolve(signal.y, kernel, mode="full")[: len(signal)]
    return signal.with_values(smoothed)


class PeakMetrics(NamedTuple):
    ref_max: float
    cand_max: float
    abs_gap: float


def peak_metrics(reference: Signal, candidate: Signal) -> PeakMetrics:
    """Maxima of both value vectors and their absolute difference."""
    ref = float(np.max(reference.y))
    cand = float(np.max(candidate.y))
    return PeakMetrics(ref, cand, abs(ref - cand))


def write_signal_csv(signal: Signal, path, metadata: dict | None = None) -> None:
    """Two-column (t, y) CSV with a comment line recording provenance.

    The leading ``#`` line carries the spacing plus any caller-supplied
    key=value pairs (generator parameters, seed); floats are printed with
    17 significant digits so parsing them back is lossless.
    """
    spacing = f"even step={signal.step:.17g}" if signal.is_even else "uneven"
    extra = "".join(f" {k}={v}" for k, v in (metadata or {}).items())
    lines = [f"# spacing={spacing}{extra}", "t,y"]
    for t, y in zip(signal.t, signal.y):
        lines.append(f"{t:.17g},{y:.17g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_signal_csv(path) -> Signal:
    """Read a Signal written by :func:`write_signal_csv`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0] != "t,y":
        raise ValueError(f"{path}: not a signal CSV")
    data = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
    return Signal(data[:, 0], data[:, 1])
