"""Host-speed probe: fixed work that calls no chebsig code.

Neighbours on a shared host slow this machine by 15-70% for seconds to
minutes at a time, longer than a run can wait out.  The benchmark times the
probe just before each round and each set-up, and rescales that round's
times to the reference speed: a time t becomes t * reference / probe.  No
change to the library moves the probe; only the host does.

The probe has two parts, because the host's neighbours slow different work
by different amounts:

- ``arrays``: long-array arithmetic (a Chebyshev-style recurrence on 10001
  points) and a plain Python loop, like Clenshaw in ``harness`` and the big
  batches of ``query``;
- ``calls``: many numpy calls, FFTs included, on 65-point arrays, like the
  small constructions that make up most of ``adaptive``.
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(-1.0, 1.0, 10001)
_C = np.random.default_rng(0).standard_normal(400)
_SMALL = np.random.default_rng(1).standard_normal(65)


def _arrays() -> None:
    y = 2.0 * _X
    b1, b2 = np.zeros_like(y), np.zeros_like(y)
    for c in _C:
        b1, b2 = c + y * b1 - b2, b1
    total = 0
    for i in range(20000):
        total += i * i


def _calls() -> None:
    v = _SMALL
    for _ in range(300):
        m = np.abs(np.fft.rfft(np.concatenate([v, v[-2:0:-1]])))
        v = _SMALL + 1e-3 * m[:65]


PARTS = {"arrays": _arrays, "calls": _calls}

#: Seconds each part takes on the reference host (2-vCPU Xeon) in its fast
#: phases, so that rescaled times read close to what that host measures.
REFERENCE_S = {"arrays": 0.0060, "calls": 0.0030}


def probe() -> dict:
    """Seconds each part of the probe takes now."""
    out = {}
    for name, work in PARTS.items():
        t0 = time.perf_counter()
        work()
        out[name] = time.perf_counter() - t0
    return out


def scale(probed: dict, parts=tuple(PARTS)) -> float:
    """Factor that turns a time measured at ``probed`` speed into one at the
    reference speed, judged by the named parts."""
    return sum(REFERENCE_S[p] for p in parts) / sum(probed[p] for p in parts)
