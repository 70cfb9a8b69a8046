"""End-to-end experiment drivers behind the command-line harness.

Each ``run_*`` function computes an :class:`~chebsig.report.ExperimentReport`
and returns it; none of them writes a file (:func:`chebsig.report.write_report`
does).  Everything is deterministic given its arguments; wall-clock timings
are reported as scalars in the JSON only, so CSV output is byte-identical
across reruns.  ``EXPERIMENTS`` declares each subcommand once: its options,
its run-all deck and its golden checks.  ``run_all`` runs every deck; where a
second CPU is free, converge shares its degrees with a forked child.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .cheb import (
    _EPS,
    UNIT_DOMAIN,
    Domain,
    UnresolvedFunctionError,
    _count,
    cheb_points_first_kind,
    cheb_points_second_kind,
    evaluate,
    evaluate_barycentric,
    interpolant_from_function,
    interpolant_from_values,
    min_and_max,
    truncate,
)
from .conditioning import (
    Basis,
    build_basis_matrix,
    clenshaw_curtis_weights,
    condition_number,
    conditioning_sweep,
    singular_values,
)
from .fourier import (
    UnevenSpacingError,
    amplitude_spectrum,
    resample_spectral,
    trig_interpolate,
)
from .nodes import (
    compare_nodes,
    legendre_points,
    mean_distance,
    smallest_nonzero_midpoint,
    uniform_points,
)
from .report import ExperimentReport
from .signals import (
    GammaParams,
    add_noise,
    gamma_variate,
    moving_average,
    uneven_grid,
)

__all__ = [
    "GAMMA_SPAN",
    "GAMMA_SAMPLES",
    "NOISE_SIGMA",
    "run_random",
    "run_converge",
    "run_scale",
    "run_wavelen",
    "run_coeffs",
    "run_gamma",
    "run_spectrum",
    "run_deviation",
    "run_filter",
    "run_nodes",
    "run_condition",
    "run_all",
    "Check",
    "Experiment",
    "EXPERIMENTS",
]

GAMMA_SPAN = 3 * np.pi
GAMMA_SAMPLES = 31
GAMMA_DOMAIN = Domain(0.0, GAMMA_SPAN)
GAMMA_PARAMS = GammaParams(shape=2.0, scale=1.0)
NOISE_SIGMA = 0.02
FOURIER_DENSE = 1000
FILTER_SAMPLES = 301
CONVERGE_N_MAX = 300

#: Coefficient magnitudes below this (relative) count as "significant" when
#: classifying even/odd structure of a series.
PARITY_TOL = 1e-14


def run_random(n=10, seed=0):
    """Interpolate seeded uniform(-1, 1) data at n second-kind points."""
    n, seed = _count(n, "n", 2), _count(seed, "seed", 0)
    data = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    start = time.perf_counter()
    p = interpolant_from_values(data)
    lo, hi = min_and_max(p)
    elapsed = time.perf_counter() - start

    report = ExperimentReport(f"random_{n}")
    report.add_scalar("min", lo)
    report.add_scalar("max", hi)
    report.add_scalar("elapsed_seconds", elapsed)
    report.metadata.update(points=str(n), seed=str(seed))
    xd = np.linspace(-1.0, 1.0, 2001)
    report.add_series("dense", {"x": xd, "p": evaluate(p, xd)})
    xz = np.linspace(0.9999, 1.0, 201)
    report.add_series("zoom", {"x": xz, "p": evaluate(p, xz)})
    return report


def _cc_norm(weights, values):
    return math.sqrt(float(np.sum(weights * values ** 2)))


_CONVERGE_FUNCS = {"exp": np.exp, "runge": lambda x: 1.0 / (1.0 + 25.0 * x ** 2)}


def _converge_errors(degrees, weights, errs):
    """Norms of each function, indexed (L2 on the grid of ``weights``, sup on
    10^4+1 uniform points) x function; the same errors of its degree-n
    interpolants go into ``errs[..., n - 1]`` for each n that ``degrees``
    yields."""
    xg = cheb_points_second_kind(weights.size - 1).points
    xu = np.linspace(-1.0, 1.0, 10001)
    xgu = np.concatenate([xg, xu])  # one Clenshaw pass per interpolant
    refs = [(f(xg), f(xu)) for f in _CONVERGE_FUNCS.values()]
    for n in degrees:
        for j, (f, (ref_g, ref_u)) in enumerate(zip(_CONVERGE_FUNCS.values(), refs)):
            v = evaluate(interpolant_from_function(f, n=int(n)), xgu)
            errs[:, j, n - 1] = (_cc_norm(weights, ref_g - v[: xg.size]),
                                 np.max(np.abs(ref_u - v[xg.size :])))
    return np.array([[_cc_norm(weights, g), np.max(np.abs(u))] for g, u in refs]).T


def _second_cpu():
    """Whether converge forks a child: two or more CPUs to run on, and not daemonic."""
    import multiprocessing

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    return len(cpus) >= 2 and not multiprocessing.current_process().daemon


def _countdown(left):
    """Degrees taken from the shared counter ``left``, largest first, until
    none is left."""
    while True:
        with left.get_lock():
            n = left.value
            left.value = n - 1
        if n < 1:
            return
        yield n


@contextlib.contextmanager
def _converge_started():
    """Start converge's degrees.  Where ``_second_cpu`` holds, a forked child
    takes degrees from a counter shared with this process and writes their
    errors into a shared array.  Yields the function that takes this
    process's share, joins the child, computes every degree still NaN (all of
    them without a child) and returns (norms, errors by degree).  On leaving,
    the counter is emptied and the child joined."""
    wg = clenshaw_curtis_weights(2047)
    errs, child = np.full((2, 2, CONVERGE_N_MAX), np.nan), None
    if _second_cpu():
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        left = ctx.Value("l", CONVERGE_N_MAX)
        errs = np.frombuffer(ctx.RawArray("d", 4 * CONVERGE_N_MAX)).reshape(2, 2, -1)
        errs[...] = np.nan
        child = ctx.Process(target=_converge_errors, args=(_countdown(left), wg, errs))
        child.start()

    def finish():
        if child is not None:
            _converge_errors(_countdown(left), wg, errs)
            child.join()
        missing = np.flatnonzero(np.isnan(errs).any(axis=(0, 1))) + 1
        return _converge_errors(missing, wg, errs), errs.copy()

    try:
        yield finish
    finally:
        if child is not None:
            left.value = 0
            child.join()


def run_converge(*, _started=None):
    """Interpolation error of e^x and the Runge function versus degree.

    Records quadrature-weighted L2 errors (2048-point grid) and sup errors
    (10^4+1 uniform points) for degrees 1..300, and the first degree at
    which both L2 errors drop below 2^-52 times the function norm.  Where
    ``_second_cpu`` allows, a forked child takes degrees too; same bits.
    ``_started`` is run-all's: the degrees it started before its other
    experiments.
    """
    with (contextlib.nullcontext(_started) if _started else _converge_started()) as finish:
        norms, errs = finish()
    ns = np.arange(1, CONVERGE_N_MAX + 1)
    both_below = np.all(errs < _EPS * norms[..., None], axis=1)  # kind x n

    report = ExperimentReport("converge")
    columns = {f"err_{kind}_{k}": e
               for kind, by_f in zip(("l2", "sup"), errs) for k, e in zip(_CONVERGE_FUNCS, by_f)}
    report.add_series("errors", {"n": ns.astype(float), **columns})
    for kind, below in zip(("l2", "sup"), both_below):
        if below.any():
            report.add_scalar(f"threshold_{kind}", ns[below.argmax()])
        else:
            report.metadata[f"threshold_{kind}"] = f"not reached within n_max={CONVERGE_N_MAX}"
    report.add_scalar("exp_err_l2_at_20", columns["err_l2_exp"][19])
    e = columns["err_l2_runge"]
    ratios = e[59:120] / e[57:118]  # e(n)/e(n-2) for n = 60..120
    report.add_scalar("runge_ratio_mean", np.mean(ratios))
    report.add_scalar("runge_ratio_worst", np.max(np.abs(ratios - np.mean(ratios))))
    report.metadata["norm"] = "Clenshaw-Curtis weighted L2 plus sup on uniform grid"
    return report


def run_scale():
    """Degree-9 interpolants of sin scaled to [-6, 6] versus [0, 6]."""
    full = Domain(-6.0, 6.0)
    part = Domain(0.0, 6.0)
    p_full = interpolant_from_function(np.sin, full, n=9)
    p_part = interpolant_from_function(np.sin, part, n=9)
    x = np.linspace(-6.0, 6.0, 1000)
    v_full, v_part = evaluate(p_full, x), evaluate(p_part, x)  # v_part extrapolates below 0
    err_full, err_part = np.abs(np.sin(x) - v_full), np.abs(np.sin(x) - v_part)

    report = ExperimentReport("scale")
    report.add_series("overlay", {"x": x, "sin": np.sin(x), "p_full": v_full, "p_scaled": v_part})
    report.add_series("errors", {"x": x, "err_full": err_full, "err_scaled": err_part})
    nodes = cheb_points_second_kind(9, full).points
    report.add_scalar("max_node_err_full", np.max(np.abs(np.sin(nodes) - evaluate(p_full, nodes))))
    report.add_scalar("max_err_full", np.max(err_full))
    report.add_scalar("max_err_scaled_indomain", np.max(err_part[x >= 0.0]))
    report.add_scalar("err_scaled_at_minus6", err_part[0])
    return report


def run_wavelen():
    """Adaptive series length against wave number for two test families."""
    ks = 2 ** np.arange(11)
    lengths = {"sin": [], "runge": []}
    unresolved = []
    for k in ks:
        for key, f in (
            ("sin", lambda x, k=k: np.sin(k * x)),
            ("runge", lambda x, k=k: 1.0 / (1.0 + (k * x) ** 2)),
        ):
            try:
                lengths[key].append(float(len(interpolant_from_function(f))))
            except UnresolvedFunctionError:
                lengths[key].append(-1.0)
                unresolved.append(f"{key}@k={k}")
    report = ExperimentReport("wavelen")
    report.add_series(
        "lengths",
        {"k": ks.astype(float),
         "length_sin": lengths["sin"],
         "length_runge": lengths["runge"]},
    )
    if unresolved:
        report.metadata["unresolved"] = ", ".join(unresolved)
    return report


def _coeff_series(p):
    c = np.abs(p.coeffs)
    return {"k": np.arange(c.size, dtype=float), "abs_coeff": c}


def run_coeffs(function_id="atan"):
    """Chebyshev coefficient magnitudes of selected test functions."""
    report = ExperimentReport(f"coeffs_{function_id}")
    if function_id == "atan":
        p = interpolant_from_function(np.arctan)
        report.add_series("coefficients", _coeff_series(p))
        report.add_scalar("a1", p.coeffs[1])
        report.add_scalar("a3", p.coeffs[3])
        report.add_scalar("a5", p.coeffs[5])
        report.add_scalar("length", len(p))
    elif function_id == "tanh_sum":
        parts = {
            "f": lambda x: np.tanh(x),
            "g": lambda x: 1e-5 * np.tanh(10 * x),
            "h": lambda x: 1e-10 * np.tanh(100 * x),
        }
        ps = {k: interpolant_from_function(f) for k, f in parts.items()}
        # The sum is formed in coefficient space, so the huge small-scale
        # tail of h survives verbatim until truncation removes everything
        # negligible against the summed scale.
        ps["s"] = ps["f"] + ps["g"] + ps["h"]
        for k, p in ps.items():
            report.add_series(f"coefficients_{k}", _coeff_series(p))
        simplified = truncate(ps["s"], 2.0 ** -52)
        report.add_series("coefficients_s_truncated", _coeff_series(simplified))
        report.add_scalar("length_sum", len(ps["s"]))
        report.add_scalar("length_sum_truncated", len(simplified))
    elif function_id == "stripe":
        p = interpolant_from_function(lambda x: np.exp(x) / (1.0 + 10000.0 * x ** 2))
        report.add_series("coefficients", _coeff_series(p))
        c = np.abs(p.coeffs[:51])
        report.add_scalar("even_significant", np.sum(c[0::2] > PARITY_TOL))
        report.add_scalar("odd_significant", np.sum(c[1::2] > PARITY_TOL))
        report.add_scalar("length", len(p))
    else:
        raise ValueError(f"unknown coeffs function id {function_id!r}")
    return report


def _gamma_samples(spacing, sigma, seed, uneven_mode):
    if spacing == "even":
        t = np.linspace(0.0, GAMMA_SPAN, GAMMA_SAMPLES)
    elif spacing == "uneven":
        t = uneven_grid(GAMMA_SAMPLES, GAMMA_SPAN, seed, mode=uneven_mode)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    clean = gamma_variate(GAMMA_PARAMS, t)
    observed = add_noise(clean, sigma, seed)
    return clean, observed


def run_gamma(
    spacing="even",
    noise=False,
    seed=0,
    cheb_fit="node-values",
    uneven_mode="sorted",
):
    """Reconstruct the gamma-variate curve by Chebyshev and Fourier routes.

    The default Chebyshev fit ("node-values") treats the raw samples as
    values at the second-kind points of [0, 3*pi] and reads them back at
    those points, which is exactly what a value-vector constructor does
    when handed raw samples; the alternative "resample" fit evaluates the
    known generator at true Chebyshev points, which is the mathematically
    meaningful reconstruction.  The Fourier route needs an even grid and is recorded
    as unsupported, not raised, when the grid is uneven.
    """
    sigma = NOISE_SIGMA if noise else 0.0
    clean, observed = _gamma_samples(spacing, sigma, seed, uneven_mode)
    t = observed.t
    report = ExperimentReport(
        f"gamma_{spacing}_{'noise' if noise else 'clean'}"
    )
    report.metadata.update(
        spacing=spacing,
        noise="on" if noise else "off",
        seed=str(seed),
        cheb_fit=cheb_fit,
        sigma=str(sigma),
    )
    if spacing == "uneven":
        report.metadata["uneven_mode"] = uneven_mode
    report.add_series("samples", {"t": t, "clean": clean.y, "observed": observed.y})
    observed_max = float(np.max(observed.y))
    report.add_scalar("observed_max", observed_max)

    cheb_nodes = cheb_points_second_kind(GAMMA_SAMPLES - 1, GAMMA_DOMAIN)
    if cheb_fit == "node-values":
        p = interpolant_from_values(observed.y, GAMMA_DOMAIN)
        # Exact at construction nodes (each snaps to its stored value); the
        # values come back associated with the sample grid, as in the figures.
        cheb_at_samples = evaluate_barycentric(observed.y, cheb_nodes, cheb_nodes.points)
        node_err = np.max(np.abs(evaluate(p, cheb_nodes.points) - observed.y))
    elif cheb_fit == "resample":
        gen = add_noise(gamma_variate(GAMMA_PARAMS, cheb_nodes.points), sigma, seed)
        p = interpolant_from_values(gen.y, GAMMA_DOMAIN)
        cheb_at_samples = evaluate(p, t)
        node_err = np.max(np.abs(cheb_at_samples - observed.y))
    else:
        raise ValueError(f"unknown cheb fit mode {cheb_fit!r}")

    xd = np.linspace(0.0, GAMMA_SPAN, FOURIER_DENSE)
    report.add_series("cheb_dense", {"t": xd, "p": evaluate(p, xd)})
    report.add_series("cheb_at_nodes", {"t": t, "p": cheb_at_samples})
    report.add_scalar("cheb_max_node_error", node_err)
    cheb_peak = float(np.max(cheb_at_samples))
    report.add_scalar("cheb_peak", cheb_peak)
    report.add_scalar("cheb_peak_gap", abs(observed_max - cheb_peak))

    try:
        fourier_at_nodes = trig_interpolate(t, observed.y, t)
        dense = resample_spectral(observed, FOURIER_DENSE)
        keep = dense.t <= GAMMA_SPAN
        report.add_series("fourier_dense", {"t": dense.t[keep], "p": dense.y[keep]})
        report.add_scalar("fourier_max_node_error", np.max(np.abs(fourier_at_nodes - observed.y)))
        fourier_peak = float(np.max(dense.y[keep]))
        report.add_scalar("fourier_peak", fourier_peak)
        report.add_scalar("fourier_peak_gap", abs(observed_max - fourier_peak))
        report.metadata["fourier"] = "ok"
    except UnevenSpacingError as exc:
        report.metadata["fourier"] = f"unsupported: {exc}"
    return report


def run_spectrum():
    """Amplitude spectrum of the clean, evenly sampled gamma curve."""
    clean, _ = _gamma_samples("even", 0.0, 0, "sorted")
    freqs, amps, phases = amplitude_spectrum(clean)
    report = ExperimentReport("spectrum")
    report.add_series("spectrum", {"frequency": freqs, "amplitude": amps, "phase": phases,
                                   "polar_theta": 2 * np.pi * freqs, "polar_rho": amps})
    report.add_scalar("dc_amplitude", amps[0])
    report.add_scalar("sum_sq_values", np.sum(clean.y ** 2))
    report.add_scalar("sum_sq_spectrum_over_n", np.sum(amps ** 2) / len(clean))
    report.add_scalar("length", freqs.size)
    return report


def run_deviation():
    """Pointwise deviation of the clean gamma fit at its sample nodes."""
    clean, _ = _gamma_samples("even", 0.0, 0, "sorted")
    p = interpolant_from_values(clean.y, GAMMA_DOMAIN)
    nodes = cheb_points_second_kind(GAMMA_SAMPLES - 1, GAMMA_DOMAIN).points
    dev = np.abs(evaluate(p, nodes) - clean.y)
    report = ExperimentReport("deviation")
    report.add_series("deviation", {"t": clean.t, "abs_deviation": dev})
    report.add_scalar("mean_abs_deviation", np.mean(dev))
    report.add_scalar("max_deviation", np.max(dev))
    return report


def run_filter(seed=0, window=5):
    """Moving-average smoothing of the noisy gamma curve on a fine grid."""
    t = np.linspace(0.0, GAMMA_SPAN, FILTER_SAMPLES)
    clean = gamma_variate(GAMMA_PARAMS, t)
    noisy = add_noise(clean, NOISE_SIGMA, seed)
    filtered = moving_average(noisy, window)
    report = ExperimentReport("filter")
    report.add_series(
        "overlay",
        {"t": t, "raw": noisy.y, "clean": clean.y, "filtered": filtered.y},
    )
    report.add_scalar("rms_raw", np.sqrt(np.mean((noisy.y - clean.y) ** 2)))
    report.add_scalar("rms_filtered", np.sqrt(np.mean((filtered.y - clean.y) ** 2)))
    report.metadata.update(window=str(window), seed=str(seed))
    return report


def run_nodes(n=100):
    """Node tables, node-set comparisons, and mean-distance profiles."""
    n = _count(n, "n", 2)
    report = ExperimentReport("nodes")
    report.metadata["n"] = str(n)
    first = cheb_points_first_kind(n)
    second = cheb_points_second_kind(n - 1)
    leg = legendre_points(n)
    uni = uniform_points(n)
    report.add_series("node_tables", {
        "index": np.arange(n, dtype=float), "first_kind": first.points,
        "second_kind": second.points, "legendre": leg.points, "uniform": uni.points})
    # The 0.0084 reference value belongs to the chebpts-style grid, which
    # is the second-kind set; the true first-kind comparison is reported too.
    report.add_scalar("compare_max_diff", compare_nodes(second, leg))
    report.add_scalar("compare_first_kind_max_diff", compare_nodes(first, leg))
    for count in (5, 10, 20):
        for label, pts in (
            ("cheb", cheb_points_second_kind(count - 1).points),
            ("legendre", legendre_points(count).points),
            ("uniform", uniform_points(count).points),
        ):
            report.add_series(
                f"mean_distance_{count}_{label}",
                {"x": pts, "gm_distance": mean_distance(pts)},
            )
    report.add_scalar("smallest_nonzero_midpoint", smallest_nonzero_midpoint())
    return report


def run_condition():
    """Condition numbers of the Chebyshev and monomial bases by degree."""
    report = ExperimentReport("condition")
    cheb_sweep = conditioning_sweep(Basis.CHEBYSHEV, UNIT_DOMAIN, 10)
    mono_sweep = conditioning_sweep(Basis.MONOMIAL, UNIT_DOMAIN, 10)
    report.add_series("sweep", {"degree": np.arange(11, dtype=float),
                                "cond_chebyshev": cheb_sweep, "cond_monomial": mono_sweep})
    report.add_scalar("cond_chebyshev_deg10", cheb_sweep[-1])
    report.add_scalar("cond_monomial_deg10", mono_sweep[-1])
    mono01 = build_basis_matrix(Basis.MONOMIAL, Domain(0.0, 1.0), 10)
    report.add_scalar("cond_monomial_01_deg10", condition_number(mono01))
    sv = singular_values(build_basis_matrix(Basis.CHEBYSHEV, UNIT_DOMAIN, 10))
    report.add_scalar("sigma_max_chebyshev", sv[0])
    report.add_scalar("sigma_min_chebyshev", sv[-1])
    return report


def _scalar(quantity, reports):
    name, key = quantity.split(".")
    return reports[name].scalars[key]


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq,
        "in": lambda v, b: np.all((b[0] <= v) & (v <= b[1]))}


@dataclass(frozen=True)
class Check:
    """Golden assertion ``quantity <op> bound`` (``quantity`` true if ``op`` is
    None); ``quantity`` is ``"report.scalar"`` or a function of the run-all
    deck's reports, by name, and the seed."""

    label: str
    quantity: str | Callable[[dict, int], object]
    op: str | None = None
    bound: object = None

    def evaluate(self, reports, seed) -> tuple[str, bool, str]:
        value = (_scalar(self.quantity, reports) if isinstance(self.quantity, str)
                 else self.quantity(reports, seed))
        if self.op is None:
            return self.label, bool(value), ""
        return (self.label, bool(_OPS[self.op](value, self.bound)),
                f"{value} {self.op} {self.bound}")


@dataclass(frozen=True)
class Experiment:
    """One subcommand.  ``run`` maps parsed options (``seed`` and one per
    ``options`` flag) to reports, looking its ``run_*`` function up at call
    time; each ``deck`` entry holds one run-all call's overrides."""

    help: str
    run: Callable[[SimpleNamespace], list]
    options: dict = field(default_factory=dict)
    seed: bool = False
    deck: tuple = ({},)
    checks: tuple = ()

    def run_deck(self, seed=0, done=None) -> list:
        """Every deck entry's reports; ``done``, one call's (parsed options,
        reports), stands in for the entry whose options equal its own."""
        defaults = {flag.lstrip("-").replace("-", "_"): kw.get("default")
                    for flag, kw in self.options.items()}
        reports = []
        for options in ({**defaults, **over} for over in self.deck):
            reuse = done and all(done[0].get(k) == v for k, v in options.items())
            reports += done[1] if reuse else self.run(SimpleNamespace(**options, seed=seed))
        return reports


def _gap(quantity, ref):
    return lambda reports, seed: abs(_scalar(quantity, reports) - ref)


def _dense_scan_gap(reports, seed):
    s = reports["random_10"].scalars
    p = interpolant_from_values(np.random.default_rng(seed).uniform(-1.0, 1.0, 10))
    dense = evaluate(p, np.linspace(-1.0, 1.0, 10 ** 6 + 1))
    return max(abs(s["min"] - dense.min()), abs(s["max"] - dense.max()))


def _zero_data_extrema(reports, seed):
    return min_and_max(interpolant_from_values([0.0, 0.0])) == (0.0, 0.0)


def _runge_ratio_spread(reports, seed):
    e = reports["converge"].get_series("errors").columns["err_l2_runge"]
    return np.max(np.abs(e[59:120] / e[57:118] - RHO_INV_SQ))  # e(n)/e(n-2), n = 60..120


def _sin_lengths(reports):
    return np.asarray(reports["wavelen"].get_series("lengths").columns["length_sin"])


def _dc_error(reports, seed):
    t = np.linspace(0.0, GAMMA_SPAN, GAMMA_SAMPLES)
    expected = abs(np.sum(t * np.exp(-t)))
    return abs(reports["spectrum"].scalars["dc_amplitude"] - expected) / expected


def _window_one_is_identity(reports, seed):
    s = run_filter(seed, 1).scalars
    return s["rms_filtered"] == s["rms_raw"]


def _window_one_recorded(reports, seed):
    m = run_filter(seed, 1).metadata
    return m.get("window") == "1" and "seed" in m


RHO_INV_SQ = ((1.0 + np.sqrt(26.0)) / 5.0) ** -2
ARCTAN_COEFFS = {"a1": 0.828427124746190, "a3": -0.047378541243650, "a5": 0.004877323527903}

EXPERIMENTS = {
    "random": Experiment(
        "interpolate random data", lambda o: [run_random(o.n, o.seed)],
        {"--n": dict(type=int, default=10, help="point count (default 10)")},
        seed=True, deck=({"n": 10}, {"n": 1000}), checks=(
            Check("random: report schema", lambda r, seed: (
                {"min", "max", "elapsed_seconds"} <= set(r["random_10"].scalars)
                and len(r["random_10"].series) == 2)),
            Check("random: min/max vs dense-grid scan", _dense_scan_gap, "<", 1e-8),
            Check("random: zero data gives zero extrema", _zero_data_extrema))),
    "converge": Experiment(
        "error vs degree for e^x and Runge", lambda o: [run_converge()],
        checks=(
            Check("converge: machine-precision degree in [180, 260]",
                  lambda r, seed: r["converge"].scalars.get("threshold_l2", -1),
                  "in", (180, 260)),
            Check("converge: exp error at degree 20 below 1e-14",
                  "converge.exp_err_l2_at_20", "<", 1e-14),
            Check("converge: Runge decay ratio within 5% of rho^-2",
                  _runge_ratio_spread, "<", 0.05 * RHO_INV_SQ))),
    "scale": Experiment(
        "degree-9 sin fits on [-6,6] and [0,6]", lambda o: [run_scale()],
        checks=(
            Check("scale: interpolant exact at its nodes",
                  "scale.max_node_err_full", "<", 1e-13),
            Check("scale: degree 9 on [-6,6] visibly imperfect",
                  "scale.max_err_full", ">", 1e-3),
            Check("scale: [0,6] fit blows up extrapolated to -6",
                  "scale.err_scaled_at_minus6", ">", 1.0))),
    "wavelen": Experiment(
        "adaptive length vs wave number", lambda o: [run_wavelen()],
        checks=(
            Check("wavelen: sin lengths nondecreasing",
                  lambda r, seed: bool(np.all(np.diff(_sin_lengths(r)) >= 0))),
            Check("wavelen: sin(x) length at most 20",
                  lambda r, seed: _sin_lengths(r)[0], "<=", 20),
            # The affine offset in L(k) keeps early ratios below 2; the doubling
            # band is only meaningful once the linear term dominates (k >= 64).
            Check("wavelen: sin length doubles with k (k >= 64)",  # L(2k)/L(k), k = 64..512
                  lambda r, seed: _sin_lengths(r)[7:] / _sin_lengths(r)[6:-1],
                  "in", (1.6, 2.4)))),
    "coeffs": Experiment(
        "coefficient magnitude studies",
        lambda o: [run_coeffs(i) for i in (
            ("atan", "tanh_sum", "stripe") if o.function == "all" else (o.function,))],
        {"--function": dict(choices=["atan", "tanh_sum", "stripe", "all"], default="all")},
        checks=(
            *(Check(f"coeffs: arctan {k} matches to 1e-12", _gap(f"coeffs_atan.{k}", v),
                    "<", 1e-12) for k, v in ARCTAN_COEFFS.items()),
            Check("coeffs: simplification shortens the tanh sum",
                  lambda r, seed: (r["coeffs_tanh_sum"].scalars["length_sum"]
                                   - r["coeffs_tanh_sum"].scalars["length_sum_truncated"]),
                  ">", 0),
            Check("coeffs: stripe function is neither even nor odd",
                  lambda r, seed: min(r["coeffs_stripe"].scalars["even_significant"],
                                      r["coeffs_stripe"].scalars["odd_significant"]),
                  ">", 0))),
    "gamma": Experiment(
        "gamma-variate reconstruction",
        lambda o: [run_gamma(o.spacing, o.noise == "on", o.seed,
                             cheb_fit=o.cheb_fit, uneven_mode=o.uneven_mode)],
        {"--spacing": dict(choices=["even", "uneven"], default="even"),
         "--noise": dict(choices=["on", "off"], default="off"),
         "--cheb-fit": dict(choices=["node-values", "resample"], default="node-values"),
         "--uneven-mode": dict(choices=["sorted", "modulated"], default="sorted")},
        seed=True, deck=({}, {"noise": "on"}, {"spacing": "uneven", "noise": "on"}), checks=(
            Check("gamma even/clean: Chebyshev reproduces samples to 1e-10",
                  "gamma_even_clean.cheb_max_node_error", "<", 1e-10),
            Check("gamma even/clean: Chebyshev peak gap is zero",
                  "gamma_even_clean.cheb_peak_gap", "==", 0.0),
            Check("gamma even/clean: Fourier reproduces samples to 1e-10",
                  "gamma_even_clean.fourier_max_node_error", "<", 1e-10),
            Check("gamma even/noise: Chebyshev peak gap zero, Fourier gap positive",
                  lambda r, seed: (r["gamma_even_noise"].scalars["cheb_peak_gap"] == 0.0
                                   and r["gamma_even_noise"].scalars["fourier_peak_gap"]
                                   > 0.0)),
            Check("gamma uneven: Fourier recorded as unsupported", lambda r, seed: (
                r["gamma_uneven_noise"].metadata["fourier"].startswith("unsupported"))),
            Check("gamma uneven: Chebyshev still passes through samples", lambda r, seed: (
                r["gamma_uneven_noise"].scalars["cheb_peak_gap"] == 0.0
                and r["gamma_uneven_noise"].scalars["cheb_max_node_error"] < 1e-10)))),
    "spectrum": Experiment(
        "amplitude spectrum of the gamma curve", lambda o: [run_spectrum()],
        checks=(
            Check("spectrum: DC bin equals |sum of samples|", _dc_error, "<", 1e-12),
            Check("spectrum: Parseval identity to 1e-9 relative", lambda r, seed: abs(
                r["spectrum"].scalars["sum_sq_values"]
                - r["spectrum"].scalars["sum_sq_spectrum_over_n"])
                / r["spectrum"].scalars["sum_sq_values"], "<", 1e-9),
            Check("spectrum: 31 bins", "spectrum.length", "==", 31.0))),
    "deviation": Experiment(
        "node deviations of the gamma fit", lambda o: [run_deviation()],
        checks=(
            Check("deviation: mean absolute deviation below 1e-10",
                  "deviation.mean_abs_deviation", "<", 1e-10),
            Check("deviation: max deviation below 1e-9", "deviation.max_deviation", "<", 1e-9),
            Check("deviation: one row per sample",
                  lambda r, seed: len(r["deviation"].get_series("deviation")), "==", 31))),
    "filter": Experiment(
        "moving-average smoothing", lambda o: [run_filter(o.seed, o.window)],
        {"--window": dict(type=int, default=5)}, seed=True, checks=(
            Check("filter: smoothing reduces RMS error", lambda r, seed: (
                r["filter"].scalars["rms_raw"] - r["filter"].scalars["rms_filtered"]),
                ">", 0.0),
            Check("filter: window 1 is the identity", _window_one_is_identity),
            Check("filter: window and seed recorded", _window_one_recorded))),
    "nodes": Experiment(
        "node tables and comparisons", lambda o: [run_nodes(o.n)],
        {"--n": dict(type=int, default=100, help="point count (default 100)")}, checks=(
            Check("nodes: 100-node comparison value 0.0084 +- 0.0005",
                  _gap("nodes.compare_max_diff", 0.0084), "<=", 0.0005),
            Check("nodes: tables sorted ascending", lambda r, seed: all(
                np.all(np.diff(r["nodes"].get_series("node_tables").columns[c]) > 0)
                for c in ("first_kind", "second_kind", "legendre", "uniform"))),
            Check("nodes: midpoint probe matches library", lambda r, seed: (
                r["nodes"].scalars["smallest_nonzero_midpoint"]
                == float(smallest_nonzero_midpoint()))))),
    "condition": Experiment(
        "basis conditioning sweep", lambda o: [run_condition()], checks=(
            Check("condition: Chebyshev basis 3.7126 within 1%",
                  _gap("condition.cond_chebyshev_deg10", 3.7126), "<", 0.01 * 3.7126),
            Check("condition: monomials on [-1,1] 3.073e3 within 2%",
                  _gap("condition.cond_monomial_deg10", 3.073e3), "<", 0.02 * 3.073e3),
            Check("condition: monomials on [0,1] 2.2871e7 within 5%",
                  _gap("condition.cond_monomial_01_deg10", 2.2871e7), "<", 0.05 * 2.2871e7))),
}


def run_all(seed, done):
    """Run every experiment's run-all deck, handing each experiment's reports
    to ``done`` as they finish and keeping what it returns; returns the
    reports in deck order.  converge's child is forked before anything else
    runs and converge is finished after the rest, so the child works through
    the pass.  condition runs once the child is joined: its threaded BLAS
    calls would wait for the child's CPU."""
    reports = {}
    with _converge_started() as finish:
        for name, e in EXPERIMENTS.items():
            if name not in ("converge", "condition"):
                reports[name] = done(e.run_deck(seed))
        reports["converge"] = done([run_converge(_started=finish)])
    reports["condition"] = done(EXPERIMENTS["condition"].run_deck(seed))
    return [r for name in EXPERIMENTS for r in reports[name]]
