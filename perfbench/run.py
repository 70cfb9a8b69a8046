"""chebsig benchmark: one closed-loop workload per run, with output checks.

    python3 perfbench/run.py --workload {harness,adaptive,query} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the named workload untraced for S seconds and
reports the end-to-end metrics (``END_TO_END``).  ``--trace 1`` runs every
op of every workload once untraced and once traced, in rounds repeated
until S seconds have passed, and reports the per-layer metrics
(``LAYER_STATS``) of all three side by side, so its figures do not depend
on --workload.

Stdout carries a fingerprint line, a readable summary, and last a JSON line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md beside
this file for what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread.  On a shared two-CPU host a neighbour on either CPU stalls
# a two-thread BLAS call: over four alternating query runs, ops_per_s ranged
# 8% with one thread and 19% with two.  Set before numpy loads BLAS; the
# set-up interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checkout  # noqa: E402
import hostspeed  # noqa: E402

SETUP_RUNS = 12
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "import chebsig.cli; chebsig.cli.build_parser()")

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

#: The 16 reports of ``run_all``, by report name.
EXPERIMENTS = (
    "random_10", "random_1000", "converge", "scale", "wavelen",
    "coeffs_atan", "coeffs_tanh_sum", "coeffs_stripe",
    "gamma_even_clean", "gamma_even_noise", "gamma_uneven_noise",
    "spectrum", "deviation", "filter", "nodes", "condition",
)

QUERY_KERNELS = (
    "clenshaw_n10", "clenshaw_n100", "clenshaw_n1000",
    "barycentric_1001x10001", "min_and_max_n999", "trig_31x10000",
    "construct_n16", "construct_n1024", "construct_n65536",
    "conditioning_sweep_deg10",
)

#: Per-layer metrics, reported as ``<workload>.<span>.<stat>``.
LAYER_STATS = {
    "harness": [
        ("cheb.evaluate", ("calls", "busy_s", "self_s", "coeff_points")),
        ("cheb.interpolant_from_function", ("calls", "busy_s", "f_points")),
        ("cheb.interpolant_from_values", ("calls", "busy_s")),
        ("cheb._chop_point", ("calls", "busy_s")),
        ("cheb.min_and_max", ("calls", "busy_s", "self_s")),
        ("cheb.evaluate_barycentric", ("calls", "busy_s", "pairs")),
        ("fourier.trig_interpolate", ("calls", "busy_s", "pairs")),
        ("fourier.resample_spectral", ("calls", "busy_s")),
        ("fourier.amplitude_spectrum", ("calls", "busy_s")),
        ("nodes.legendre_points", ("busy_s",)),
        ("nodes.mean_distance", ("busy_s",)),
        ("conditioning.conditioning_sweep", ("calls", "busy_s")),
        ("conditioning.singular_values", ("calls", "busy_s")),
        ("signals", ("busy_s",)),
        ("report.write_report", ("calls", "busy_s", "bytes", "files")),
        *[(f"experiments.{e}", ("wall_s", "self_s", "peak_kb")) for e in EXPERIMENTS],
        ("cli.main", ("self_s",)),
        ("trace", ("overhead_s",)),
    ],
    "adaptive": [
        ("cheb.interpolant_from_function", ("calls", "busy_s", "self_s", "f_points")),
        ("cheb._chop_point", ("calls", "busy_s")),
        ("trace", ("overhead_s",)),
    ],
    "query": [
        ("cheb.evaluate", ("calls", "busy_s", "self_s", "coeff_points")),
        ("cheb.min_and_max", ("calls", "busy_s", "self_s")),
        ("cheb.evaluate_barycentric", ("calls", "busy_s", "pairs")),
        ("fourier.trig_interpolate", ("calls", "busy_s", "pairs")),
        ("cheb.interpolant_from_function", ("calls", "busy_s", "f_points")),
        ("conditioning.conditioning_sweep", ("calls", "busy_s")),
        ("conditioning.singular_values", ("calls", "busy_s")),
        *[(f"kernel.{k}", ("ms",)) for k in QUERY_KERNELS],
        ("trace", ("overhead_s",)),
    ],
}

STAT_UNITS = {
    "calls": "count", "coeff_points": "count", "f_points": "count",
    "pairs": "count", "files": "count", "bytes": "bytes", "busy_s": "s",
    "self_s": "s", "wall_s": "s", "overhead_s": "s", "peak_kb": "KiB", "ms": "ms",
}
COUNT_STATS = {"calls", "coeff_points", "f_points", "pairs", "files", "bytes"}


def per_layer_metrics():
    """[(metric name, workload, stat key, stat)] in report order."""
    return [(f"{w}.{span}.{stat}", w, f"{span}.{stat}", stat)
            for w, rows in LAYER_STATS.items() for span, stats in rows for stat in stats]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_round(ops, tally, latencies=None) -> None:
    """Run ops once each, checking every output.

    ``latencies`` maps each op that returned, right or wrong, to its list of
    times; a wrong output still did the op's work.  Only an op that raised
    has no time.
    """
    for op in ops:
        tally.attempted += 1
        try:
            dt, ok = op()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            continue
        if not ok:
            tally.failed += 1
            print(f"perfbench: wrong output from {op.kernel}", file=sys.stderr)
        if latencies is not None:
            latencies.setdefault(op, []).append(dt)


def best_times(latencies) -> dict:
    """Each op's fastest repetition: the traced run's view of an op."""
    return {op: min(times) for op, times in latencies.items()}


def setup_once() -> float:
    """Seconds for a fresh interpreter to import chebsig and build the CLI parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(checkout.SRC))],
                   check=True, cwd=checkout.ROOT)
    return time.perf_counter() - t0


def measure(workload_class, seed: int, seconds: float):
    """End-to-end metrics of one workload, untraced.

    Each round and each set-up is timed and rescaled to the reference host
    speed by the probe taken just before it (see hostspeed.py); a round is
    judged by its workload's ``probe_parts``, a set-up by the whole probe.
    An op's latency is the median of its rescaled repetitions.
    ``setup_s`` is the median of SETUP_RUNS rescaled set-ups spread evenly
    over the measured rounds.  ``ops_per_s`` and ``op_p50_ms`` are left out
    when every op raised.

    Returns the metrics, the tally, each op's raw times and each op's
    latency.
    """
    workload = workload_class(seed)
    tally = Tally()
    run_round(workload.ops(0), tally)  # warm-up: checked, not timed
    latencies, scaled, setups = {}, {}, []
    rounds, spent = 1, 0.0  # spent: seconds in rounds, set-ups excluded
    while rounds == 1 or spent < seconds:
        probed = hostspeed.probe()
        while len(setups) < SETUP_RUNS and spent >= len(setups) * seconds / SETUP_RUNS:
            setups.append(hostspeed.scale(probed) * setup_once())
        round_latencies = {}
        t0 = time.perf_counter()
        run_round(workload.ops(rounds), tally, round_latencies)
        spent += time.perf_counter() - t0
        factor = hostspeed.scale(probed, workload.probe_parts)
        for op, times in round_latencies.items():
            latencies.setdefault(op, []).extend(times)
            scaled.setdefault(op, []).extend(factor * t for t in times)
        rounds += 1
    while len(setups) < SETUP_RUNS:
        setups.append(hostspeed.scale(hostspeed.probe()) * setup_once())
    op_latency = {op: statistics.median(times) for op, times in scaled.items()}
    metrics = {"setup_s": statistics.median(setups)}
    if op_latency:
        metrics["ops_per_s"] = len(op_latency) / sum(op_latency.values())
        metrics["op_p50_ms"] = 1e3 * statistics.median(op_latency.values())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, tally, latencies, op_latency


def trace_all(seed: int, seconds: float):
    """Per-layer metrics of every workload from untraced and traced repetitions.

    A query kernel whose every op raised has no ``kernel.*.ms`` metric.
    """
    from spans import Tracer
    from workloads import WORKLOADS

    workloads = [cls(seed) for cls in WORKLOADS.values()]
    tally = Tally()
    for w in workloads:
        run_round(w.ops(0), tally)  # warm-up
    untraced = {w.name: {} for w in workloads}
    traced = {w.name: {} for w in workloads}
    stats = {w.name: [] for w in workloads}
    cycle, start = 1, time.perf_counter()
    while cycle == 1 or time.perf_counter() - start < seconds:
        for w in workloads:
            # Each op runs twice, untraced and traced, in alternating order,
            # so neither side always finds the caches warmed by the other.
            tracer = Tracer()
            for i, op in enumerate(w.ops(cycle)):
                for traced_run in ((False, True) if (i + cycle) % 2 else (True, False)):
                    if traced_run:
                        with tracer:
                            run_round([op], tally, traced[w.name])
                    else:
                        run_round([op], tally, untraced[w.name])
            stats[w.name].append(tracer.stats)
        if cycle == 1:
            # tracemalloc slows every allocation several-fold, so experiment
            # peaks come from a pass of their own, not from the timed spans.
            harness = next(w for w in workloads if w.name == "harness")
            with Tracer(peak_memory=True) as memory:
                run_round(harness.ops(cycle), tally)
            peaks = {k: v for k, v in memory.stats.items() if k.endswith(".peak_kb")}
        cycle += 1
    stats["harness"][0].update(peaks)

    query_best = best_times(untraced["query"])
    metrics = {}
    for name, workload, key, stat in per_layer_metrics():
        if stat == "overhead_s":
            value = (sum(best_times(traced[workload]).values())
                     - sum(best_times(untraced[workload]).values()))
        elif stat == "ms":
            kernel = key.split(".")[1]
            times = [t for op, t in query_best.items() if op.kernel == kernel]
            if not times:
                continue
            value = 1e3 * statistics.median(times)
        elif stat in COUNT_STATS or stat == "peak_kb":
            value = stats[workload][0].get(key, 0.0)
        else:
            value = min(s.get(key, 0.0) for s in stats[workload])
        metrics[name] = value
    return metrics, tally, cycle - 1


def _git_sha():
    """HEAD of the checkout when it is a git repository of its own, else None."""
    if not (checkout.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((checkout.SRC / "chebsig").rglob("*.py")):
        h.update(path.relative_to(checkout.SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """OpenBLAS's own thread count when numpy bundles it, else the env setting."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            return os.environ[var]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint(seed: int, trace: bool) -> dict:
    return {
        "chebsig_git_sha": _git_sha(),
        "chebsig_src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "trace": trace,
    }


def _p90_line(label, times, what) -> str:
    """p90 where at least ten samples lie beyond it, else the sample count."""
    times = sorted(times)
    if len(times) < 100:
        return f"{label:14s} omitted: {len(times)} {what}, fewer than 10 beyond p90"
    p90 = statistics.quantiles(times, n=10)[-1]
    beyond = sum(t > p90 for t in times)
    return f"{label:14s} {1e3 * p90:.4f} ms  ({len(times)} {what}, {beyond} beyond)"


def _summary_lines(latencies, op_latency):
    raw = [t for times in latencies.values() for t in times]
    if not raw:
        return ["no op returned, so there are no latencies"]
    lines = [
        _p90_line("op_p90_ms", op_latency.values(), "distinct ops"),
        f"raw samples    {len(raw)}, p50 {1e3 * statistics.median(raw):.4f} ms"
        " (as measured, not rescaled)",
        _p90_line("raw_p90_ms", raw, "samples"),
        "per kernel: median over its ops of their latency (ops, repetitions)",
    ]
    for kernel in sorted({op.kernel for op in op_latency}):
        mine = [t for op, t in op_latency.items() if op.kernel == kernel]
        reps = sum(len(ts) for op, ts in latencies.items() if op.kernel == kernel)
        lines.append(f"  {kernel:28s} {1e3 * statistics.median(mine):10.3f} ms"
                     f"  ({len(mine)}, {reps})")
    return lines


def main(argv=None) -> int:
    from workloads import WORKLOADS  # noqa: F401  (imported after sources are set)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print("fingerprint: " + json.dumps(fingerprint(args.seed, bool(args.trace))))
    if args.trace:
        metrics, tally, cycles = trace_all(args.seed, args.seconds)
        print(f"traced {cycles} cycle(s) of every workload; attempted={tally.attempted} "
              f"failed={tally.failed}")
        units = {name: STAT_UNITS[stat] for name, _, _, stat in per_layer_metrics()}
        for name, value in metrics.items():
            print(f"  {name:52s} {value:.6g} {units[name]}")
    else:
        metrics, tally, latencies, op_latency = measure(WORKLOADS[args.workload], args.seed,
                                                        args.seconds)
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
        print(f"workload={args.workload} distinct_ops={len(latencies)} attempted={tally.attempted} "
              f"failed={tally.failed}")
        for name, value in metrics.items():
            print(f"{name:14s} {value:.6g} {units[name]}")
        print(f"error_rate     {tally.failed / tally.attempted:.6g} "
              f"({tally.failed}/{tally.attempted})")
        print("\n".join(_summary_lines(latencies, op_latency)))

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        checkout.use_sources()
    except checkout.MissingSourcesError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        sys.exit(main())
    finally:
        checkout.remove_scratch()
