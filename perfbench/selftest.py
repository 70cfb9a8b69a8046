"""Self-test of the benchmark: its checks catch wrong output, and tracing
leaves the library as it found it.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tracemalloc
import unittest
from collections import Counter
from unittest import mock

import checkout


def setUpModule():
    checkout.use_sources()
    global golden, hostspeed, run, spans, workloads
    import golden
    import hostspeed
    import run
    import spans
    import workloads


def tearDownModule():
    checkout.remove_scratch()


def _run_main(*argv):
    """run.main's JSON line, with one set-up interpreter instead of several."""
    out = io.StringIO()
    with mock.patch.object(run, "SETUP_RUNS", 1), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = run.main(["--seed", "0", "--seconds", "0.01", *argv])
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def _chebsig_attributes():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "chebsig" or name.startswith("chebsig.")
            for attr, value in vars(module).items()}


class WrongOutputRaisesErrorRate(unittest.TestCase):
    def test_flipped_csv_byte_fails_the_pass(self):
        from chebsig import report

        harness = workloads.Harness(0)
        clean = run.Tally()
        run.run_round(harness.ops(0), clean)

        original = report._write_series_csv
        flipped = []

        def write_then_flip(path, series):
            original(path, series)
            if not flipped:
                data = bytearray(path.read_bytes())
                data[-2] ^= 1  # last digit of the last field
                path.write_bytes(bytes(data))
                flipped.append(path)

        report._write_series_csv = write_then_flip
        try:
            bad = run.Tally()
            run.run_round(harness.ops(0), bad)
        finally:
            report._write_series_csv = original
        self.assertEqual((clean.attempted, clean.failed), (1, 0))
        self.assertEqual((bad.attempted, bad.failed), (1, 1))

    def test_run_with_every_csv_flipped_still_reports(self):
        from chebsig import report

        original = report._write_series_csv

        def write_then_flip(path, series):
            original(path, series)
            data = bytearray(path.read_bytes())
            data[-2] ^= 1
            path.write_bytes(bytes(data))

        with mock.patch.object(report, "_write_series_csv", write_then_flip):
            rc, result = _run_main("--workload", "harness", "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        # A wrong pass still ran, so its time is measured.
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))

    def test_run_where_every_op_raises_still_reports(self):
        with mock.patch.object(golden, "run_all", side_effect=RuntimeError("broken")):
            rc, result = _run_main("--workload", "harness", "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(set(result["metrics"]), {"setup_s", "peak_rss_mb"})

    def test_traced_run_with_a_raising_kernel_still_reports(self):
        from chebsig import cheb

        with mock.patch.object(cheb, "min_and_max", side_effect=RuntimeError("broken")):
            rc, result = _run_main("--workload", "query", "--trace", "1")
        self.assertEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(set(result["metrics"]),
                         {name for name, _, _, _ in run.per_layer_metrics()}
                         - {"query.kernel.min_and_max_n999.ms"})

    def test_perturbed_evaluate_fails_clenshaw_and_extrema_ops(self):
        from chebsig import cheb, experiments

        query = workloads.Query(0)
        clean = run.Tally()
        run.run_round(query.ops(0), clean)

        original = cheb.evaluate

        def perturbed(p, x):
            return original(p, x) * (1.0 + 1e-9)

        cheb.evaluate = experiments.evaluate = perturbed
        try:
            bad = run.Tally()
            run.run_round(query.ops(0), bad)
        finally:
            cheb.evaluate = experiments.evaluate = original
        self.assertEqual(clean.failed, 0)
        # The five Clenshaw ops and min_and_max, which evaluates through it.
        self.assertEqual(bad.failed, 6)
        self.assertEqual(bad.attempted, len(query.ops(0)))


class TracerTest(unittest.TestCase):
    def test_restores_every_wrapped_function(self):
        from chebsig import cheb, experiments

        before = _chebsig_attributes()
        with spans.Tracer(peak_memory=True) as tracer:
            self.assertIsNot(cheb.evaluate, before[("chebsig.cheb", "evaluate")])
            self.assertIs(experiments.evaluate, cheb.evaluate)
            run.run_round(workloads.Query(0).ops(0), run.Tally())
        after = _chebsig_attributes()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertFalse(tracemalloc.is_tracing())
        self.assertGreater(tracer.stats["cheb.evaluate.calls"], 0)

    def test_counts_repeat_exactly(self):
        for workload in (workloads.Adaptive(3), workloads.Query(3)):
            counts = []
            for _ in range(2):
                with spans.Tracer() as tracer:
                    run.run_round(workload.ops(1), run.Tally())
                counts.append({k: v for k, v in tracer.stats.items()
                               if k.rsplit(".", 1)[1] in run.COUNT_STATS})
            self.assertTrue(counts[0])
            self.assertEqual(counts[0], counts[1], workload.name)

    def test_harness_pass_reports_every_experiment(self):
        with spans.Tracer() as tracer:
            run.run_round(workloads.Harness(0).ops(0), run.Tally())
        seen = {k.split(".")[1] for k in tracer.stats
                if k.startswith("experiments.") and k.endswith(".wall_s")}
        self.assertEqual(seen, set(run.EXPERIMENTS))


class HostSpeedTest(unittest.TestCase):
    def test_probe_calls_no_chebsig(self):
        with spans.Tracer() as tracer:
            probed = hostspeed.probe()
        self.assertFalse(tracer.stats)
        self.assertEqual(set(probed), set(hostspeed.PARTS))


class DefinitionsAgree(unittest.TestCase):
    def test_benchmark_json_lists_what_the_run_reports(self):
        spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(name, run.STAT_UNITS[stat])
                          for name, _, _, stat in run.per_layer_metrics()])

    def test_query_deck_follows_the_mix(self):
        deck = workloads.Query(0).ops(0)
        self.assertEqual(Counter(op.kernel for op in deck), workloads.QUERY_MIX)
        self.assertEqual(set(run.QUERY_KERNELS), set(workloads.QUERY_MIX))


if __name__ == "__main__":
    unittest.main()
