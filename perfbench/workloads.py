"""The three benchmark workloads: their seeded inputs, ops and output checks.

Each workload is a closed loop with one caller.  ``ops(round_index)``
returns the ops of one round, the same ops every round.  Calling an op runs
it once and returns ``(seconds, ok)``, where ``seconds`` times only the
library call and ``ok`` says whether its output passed the check.  The
library sees only the generated inputs, never the seed.

- ``harness``: one op is one ``chebsig run-all`` pass into a fresh
  directory, checked against golden CSV digests; its run-all seed is one of
  the golden seeds, drawn from the workload seed.  It is what users run to
  reproduce the paper, and the only workload that reaches ``report``,
  ``nodes``, ``conditioning``, ``signals`` and the ``run_*`` experiments.
- ``adaptive``: one op is one adaptive ``interpolant_from_function`` call
  on a smooth function; a round is a deck of 128 functions, 32 per family,
  with k stratified log-uniformly over [1, 2**10] so that every seed sees the
  same spread of grid sizes (2**3 + 1 to 2**16 + 1 points).  Construction
  does nearly all the work; Clenshaw does none.
- ``query``: one op is one large kernel call from a fixed mix of 15 per
  round (see ``QUERY_MIX``): a few big batches instead of ``harness``'s
  many mid-sized ones, and the dense barycentric matrix that dominates
  memory.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from chebsig import cheb, conditioning, fourier

import checkout
import golden
import reference as ref

UNIT = cheb.Domain(-1.0, 1.0)

#: Relative error bound on a construction, against f at random points.
CONSTRUCT_RTOL = 1e-11
#: Barycentric values against Clenshaw, relative to max |values|.
BARYCENTRIC_RTOL = 1e-10
#: min_and_max against the dense-scan reference, relative to max |values|.
EXTREMA_RTOL = 1e-10
#: trig_interpolate against its samples and the DFT interpolant.
TRIG_RTOL = 1e-12
#: conditioning_sweep against the exact Gram matrix.
CONDITION_RTOL = 1e-8

FAMILIES = {
    "sin": lambda k: lambda x: np.sin(k * x),
    "runge": lambda k: lambda x: 1.0 / (1.0 + (k * x) ** 2),
    "tanh": lambda k: lambda x: np.tanh(k * x),
    "gauss_cos": lambda k: lambda x: np.exp(-((k * x) ** 2)) * np.cos(3.0 * x),
}

#: query kernels with their copies per round.  The copies place the median
#: inside the Clenshaw n=1000 / trig block and p90 inside the block of
#: min_and_max and barycentric calls, not on a boundary between kernels.
QUERY_MIX = {
    "construct_n16": 1,
    "construct_n1024": 1,
    "construct_n65536": 1,
    "clenshaw_n10": 1,
    "clenshaw_n100": 1,
    "conditioning_sweep_deg10": 1,
    "clenshaw_n1000": 3,
    "trig_31x10000": 3,
    "min_and_max_n999": 1,
    "barycentric_1001x10001": 2,
}

QUERY_POINTS = 10001


def _rel_err(got, want, scale) -> float:
    return float(np.max(np.abs(np.asarray(got) - want)) / scale)


class _Construction:
    """Chebyshev construction of f, checked at random points against f."""

    def __init__(self, kernel, f, rng, degree=None):
        self.kernel, self.f, self.degree = kernel, f, degree
        self.x = rng.uniform(-1.0, 1.0, 16)
        self.want = f(self.x)
        self.scale = max(np.max(np.abs(f(np.linspace(-1.0, 1.0, 1001)))),
                         np.max(np.abs(self.want)))

    def __call__(self):
        t0 = time.perf_counter()
        p = cheb.interpolant_from_function(self.f, UNIT, n=self.degree)
        dt = time.perf_counter() - t0
        got = ref.cheb_sum(p.coeffs, self.x)
        return dt, _rel_err(got, self.want, self.scale) <= CONSTRUCT_RTOL


class _Clenshaw:
    def __init__(self, kernel, rng, degree):
        self.kernel = kernel
        c = rng.standard_normal(degree + 1)
        self.p = cheb.ChebInterpolant(c, UNIT)
        self.x = rng.uniform(-1.0, 1.0, QUERY_POINTS)
        self.want = npcheb.chebval(self.x, c)
        self.tol = 4.0 * (degree + 1) * ref.EPS * np.sum(np.abs(c))

    def __call__(self):
        t0 = time.perf_counter()
        got = cheb.evaluate(self.p, self.x)
        dt = time.perf_counter() - t0
        return dt, float(np.max(np.abs(got - self.want))) <= self.tol


class _Barycentric:
    def __init__(self, kernel, rng):
        self.kernel = kernel
        c = rng.standard_normal(1001)
        self.nodes = cheb.cheb_points_second_kind(1000, UNIT)
        self.values = npcheb.chebval(self.nodes.points, c)
        self.x = rng.uniform(-1.0, 1.0, QUERY_POINTS)
        self.want = npcheb.chebval(self.x, c)
        self.scale = np.max(np.abs(self.values))

    def __call__(self):
        t0 = time.perf_counter()
        got = cheb.evaluate_barycentric(self.values, self.nodes, self.x)
        dt = time.perf_counter() - t0
        return dt, _rel_err(got, self.want, self.scale) <= BARYCENTRIC_RTOL


class _Extrema:
    """min_and_max of a degree-999 interpolant of a two-tone signal.

    f = sin(k x + a) + sin(k2 x + b) / 2 with k in [700, 900] and
    k2 <= k / 2, sampled at the 1000 second-kind points: 450 to 570 extrema,
    every one a simple zero of p' at least 2.6 / k from the next.  The
    library's uniform bracketing grid resolves such extrema.  It misses
    extrema within about 1e-4 of +-1, which interpolants of random data
    have (see README.md), so those are not the input here.
    """

    def __init__(self, kernel, rng):
        self.kernel = kernel
        k = rng.uniform(700.0, 900.0)
        k2 = rng.uniform(k / 3.0, k / 2.0)
        a, b = rng.uniform(0.0, 2.0 * np.pi, 2)
        x = cheb.cheb_points_second_kind(999, UNIT).points
        self.p = cheb.interpolant_from_values(np.sin(k * x + a) + 0.5 * np.sin(k2 * x + b), UNIT)
        self.want = np.array(ref.extrema(self.p.coeffs))
        self.scale = np.max(np.abs(self.want))

    def __call__(self):
        t0 = time.perf_counter()
        got = cheb.min_and_max(self.p)
        dt = time.perf_counter() - t0
        return dt, _rel_err(got, self.want, self.scale) <= EXTREMA_RTOL


class _Trig:
    """31 uniform samples; queries are the 31 nodes plus random points."""

    def __init__(self, kernel, rng):
        self.kernel = kernel
        a = rng.uniform(-5.0, 5.0)
        self.xs = np.linspace(a, a + rng.uniform(1.0, 10.0), 31)
        self.ys = rng.standard_normal(31)
        self.xq = np.concatenate([self.xs, rng.uniform(self.xs[0], self.xs[-1], 10000 - 31)])
        self.want = ref.trig_interpolant(self.xs, self.ys, self.xq)
        self.scale = np.max(np.abs(self.ys))

    def __call__(self):
        t0 = time.perf_counter()
        got = fourier.trig_interpolate(self.xs, self.ys, self.xq)
        dt = time.perf_counter() - t0
        at_nodes = _rel_err(got[:31], self.ys, self.scale)
        return dt, max(at_nodes, _rel_err(got, self.want, self.scale)) <= TRIG_RTOL


class _ConditioningSweep:
    def __init__(self, kernel, rng):
        self.kernel = kernel
        self.basis = (conditioning.Basis.CHEBYSHEV, conditioning.Basis.MONOMIAL)[rng.integers(2)]
        self.want = ref.basis_condition_sweep(self.basis is conditioning.Basis.CHEBYSHEV, 10)

    def __call__(self):
        t0 = time.perf_counter()
        got = conditioning.conditioning_sweep(self.basis, UNIT, 10)
        dt = time.perf_counter() - t0
        return dt, float(np.max(np.abs(got / self.want - 1.0))) <= CONDITION_RTOL


class _RunAll:
    """One run-all pass; its CSV tree must match the golden digests."""

    kernel = "run_all"

    def __init__(self, seed, digests):
        self.seed, self.digests = seed, digests

    def __call__(self):
        checkout.SCRATCH.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(dir=checkout.SCRATCH))
        try:
            t0 = time.perf_counter()
            rc = golden.run_all(self.seed, out)
            dt = time.perf_counter() - t0
            return dt, rc == 0 and golden.csv_digests(out) == self.digests
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Harness:
    name = "harness"
    #: hostspeed parts that track this workload's speed.
    probe_parts = ("arrays", "calls")

    def __init__(self, seed: int):
        run_all_seed = int(np.random.default_rng(seed).choice(golden.SEEDS))
        self._ops = [_RunAll(run_all_seed, golden.load()[run_all_seed])]

    def ops(self, round_index: int):
        return self._ops


class Adaptive:
    name = "adaptive"
    # Its ops are short chains of numpy calls (median about 1 ms), whose
    # speed long-array arithmetic does not track.
    probe_parts = ("calls",)
    per_family = 32

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        deck = []
        for family, make in FAMILIES.items():
            strata = (np.arange(self.per_family) + rng.uniform(size=self.per_family)) / self.per_family
            for k in 2.0 ** (10.0 * strata):
                deck.append(_Construction(f"adaptive_{family}", make(k), rng))
        self._ops = [deck[i] for i in rng.permutation(len(deck))]

    def ops(self, round_index: int):
        return self._ops


class Query:
    name = "query"
    probe_parts = ("arrays", "calls")

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        deck = []
        for degree in (16, 1024, 65536):
            family = list(FAMILIES)[rng.integers(len(FAMILIES))]
            # k <= degree/64 keeps every family resolved to rounding at that degree.
            k = rng.uniform(0.25, 1.0) * degree / 64
            deck.append(_Construction(f"construct_n{degree}", FAMILIES[family](k), rng, degree))
        for degree in (10, 100, 1000):
            for _ in range(QUERY_MIX[f"clenshaw_n{degree}"]):
                deck.append(_Clenshaw(f"clenshaw_n{degree}", rng, degree))
        for _ in range(QUERY_MIX["barycentric_1001x10001"]):
            deck.append(_Barycentric("barycentric_1001x10001", rng))
        deck.append(_Extrema("min_and_max_n999", rng))
        for _ in range(QUERY_MIX["trig_31x10000"]):
            deck.append(_Trig("trig_31x10000", rng))
        deck.append(_ConditioningSweep("conditioning_sweep_deg10", rng))
        self._ops = [deck[i] for i in rng.permutation(len(deck))]

    def ops(self, round_index: int):
        return self._ops


WORKLOADS = {w.name: w for w in (Harness, Adaptive, Query)}
