import json
import multiprocessing
import os
import re
import threading
import time

import numpy as np
import pytest

from chebsig import experiments as exp
from chebsig.cheb import evaluate, interpolant_from_values
from chebsig.cli import main
from chebsig.report import ExperimentReport, write_report


class TestRandom:
    @pytest.mark.parametrize("seed", [1, 24, 39, 290])
    def test_large_point_count_runs(self, seed):
        # Seeds 24, 39 and 290 put an extremum within ~1e-4 of an end, which a
        # search on a uniform grid misses; min_and_max's pieces of p' crowd there.
        r = exp.run_random(1000, seed=seed)
        p = interpolant_from_values(np.random.default_rng(seed).uniform(-1, 1, 1000))
        scan = evaluate(p, np.cos(np.pi * np.arange(20001) / 20000))
        assert r.scalars["min"] < r.scalars["max"]
        assert r.scalars["min"] <= scan.min() and r.scalars["max"] >= scan.max()


@pytest.mark.parametrize("call, name", [
    # run_random's count was called points; these ids keep the cases' names.
    pytest.param(lambda: exp.run_random(2.5), "n", id="<lambda>-points0"),
    pytest.param(lambda: exp.run_random(1), "n", id="<lambda>-points1"),
    (lambda: exp.run_random(10, -1), "seed"),
    (lambda: exp.run_random(10, 1.0), "seed"),
    (lambda: exp.run_nodes(2.5), "n"),
    (lambda: exp.run_nodes(1), "n"),
    (lambda: exp.run_filter(-1), "seed"),
    (lambda: exp.run_filter(2.5), "seed"),
    (lambda: exp.run_gamma(seed=-1), "seed"),  # noise off: the seed is still checked
    (lambda: exp.run_gamma(spacing="uneven", noise=True, seed=2.5), "seed"),
])
def test_drivers_name_their_bad_arguments(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        call()


class TestWavelen:
    def test_runge_lengths_grow_linearly(self, run_all_pass):
        # No golden check holds this property; the lengths are the pass's.
        lengths = run_all_pass.out / "wavelen" / "lengths.csv"
        lr = np.genfromtxt(lengths, delimiter=",", names=True)["length_runge"]
        ratios = lr[5:] / lr[4:-1]
        assert np.all((ratios >= 1.8) & (ratios <= 2.2))


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="no fork start method on this platform")


DECK = ["random_10", "random_1000", "converge", "scale", "wavelen", "coeffs_atan",
        "coeffs_tanh_sum", "coeffs_stripe", "gamma_even_clean", "gamma_even_noise",
        "gamma_uneven_noise", "spectrum", "deviation", "filter", "nodes", "condition"]


def _force_split(monkeypatch, child_takes, child_stops=None):
    """The forked child takes the degrees n with child_takes(n), this process
    the rest, whatever the shared counter says; the child exits at once, with
    its work unfinished, after child_stops degrees."""
    parent = os.getpid()

    def countdown(left):
        in_child = os.getpid() != parent
        for i, n in enumerate(n for n in range(exp.CONVERGE_N_MAX, 0, -1)
                              if child_takes(n) == in_child):
            if in_child and i == child_stops:
                os._exit(0)
            yield n

    monkeypatch.setattr(exp, "_countdown", countdown)


def _converge_bits():
    r = exp.run_converge()
    return ({k: v.hex() for k, v in r.scalars.items()}, r.metadata,
            {k: c.tobytes() for k, c in r.get_series("errors").columns.items()})


class TestConvergeSplit:
    """converge's degrees, shared through one counter by this process and, where
    _second_cpu allows, a forked child that writes their errors into a shared
    array: the split never changes a bit, and this process computes whatever
    degree the child leaves undone."""

    @needs_fork
    def test_forked_child_gives_the_same_bits(self, monkeypatch):
        # 120 is the least n_max that holds the Runge ratios of n = 60..120.
        monkeypatch.setattr(exp, "CONVERGE_N_MAX", 120)
        threads = threading.active_count()
        runs = []
        # No child; the counter's own split; the child takes none, all, the odd.
        for child, child_takes in ((False, None), (True, None), (True, lambda n: False),
                                   (True, lambda n: True), (True, lambda n: n % 2 == 1)):
            monkeypatch.setattr(exp, "_second_cpu", lambda child=child: child)
            if child_takes:
                _force_split(monkeypatch, child_takes)
            runs.append(_converge_bits())
        assert all(run == runs[0] for run in runs[1:])
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    @needs_fork
    def test_a_child_that_dies_leaves_its_degrees_to_the_process(self, monkeypatch):
        monkeypatch.setattr(exp, "CONVERGE_N_MAX", 120)
        monkeypatch.setattr(exp, "_second_cpu", lambda: False)
        want = _converge_bits()
        # The child takes the odd degrees, computes 119, 117 and 115, and exits.
        monkeypatch.setattr(exp, "_second_cpu", lambda: True)
        _force_split(monkeypatch, lambda n: n % 2 == 1, child_stops=3)
        assert _converge_bits() == want
        assert multiprocessing.active_children() == []

    @staticmethod
    def _refuse(monkeypatch, capfd, degree):
        """run_converge with the child taking the odd degrees and this process
        the even, and evaluate refusing ``degree`` in either; returns what the
        child printed on stderr."""
        monkeypatch.setattr(exp, "CONVERGE_N_MAX", 10)
        monkeypatch.setattr(exp, "_second_cpu", lambda: True)
        _force_split(monkeypatch, lambda n: n % 2 == 1)
        evaluate = exp.evaluate

        def refuse(p, x):
            if p.coeffs.size == degree + 1:
                raise ValueError(f"degree {degree} refused")
            return evaluate(p, x)

        monkeypatch.setattr(exp, "evaluate", refuse)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"^degree {degree} refused$"):
            exp.run_converge()
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        return capfd.readouterr().err

    @needs_fork
    def test_an_error_in_the_child_reaches_the_caller(self, monkeypatch, capfd):
        # The child prints its traceback; this process meets the same error
        # when it computes the degree the child left undone.
        assert "ValueError: degree 7 refused" in self._refuse(monkeypatch, capfd, 7)

    @needs_fork
    def test_an_error_in_the_parent_reaches_the_caller(self, monkeypatch, capfd):
        assert "Traceback" not in self._refuse(monkeypatch, capfd, 8)

    @needs_fork
    def test_an_error_in_run_all_stops_the_child(self, monkeypatch):
        # The child waits, after its first degree, until the error has emptied
        # the counter; had it not, the child would take all the others.
        monkeypatch.setattr(exp, "_second_cpu", lambda: True)
        ctx = multiprocessing.get_context("fork")
        child_taken, countdown = ctx.Value("i", 0), exp._countdown

        def counted(left):
            for n in countdown(left):
                child_taken.value += 1
                yield n
                deadline = time.monotonic() + 10.0
                while child_taken.value == 1 and left.value > 0 and time.monotonic() < deadline:
                    time.sleep(0.01)

        def done(reports):
            while child_taken.value == 0:
                time.sleep(0.01)
            raise ValueError("refused in the parent")

        monkeypatch.setattr(exp, "_countdown", counted)
        with pytest.raises(ValueError, match="^refused in the parent$"):
            exp.run_all(0, done)
        assert child_taken.value == 1
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_the_counter_hands_out_each_degree_once(self):
        # More takers than CPUs: a lost update would hand a degree out twice.
        ctx = multiprocessing.get_context("fork")
        left, takers = ctx.Value("l", 20000), []
        for _ in range(3):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=lambda send=send: send.send(list(exp._countdown(left))))
            child.start()
            send.close()
            takers.append((child, recv))
        taken = list(exp._countdown(left))
        for child, recv in takers:
            assert recv.poll(60)
            taken += recv.recv()
            child.join(60)
            assert not child.is_alive()
        assert sorted(taken) == list(range(1, 20001))

    @needs_fork
    def test_run_all_check_prints_the_same_with_and_without_the_child(self, monkeypatch,
                                                                      capsys):
        outs = []
        for child in (True, False):
            monkeypatch.setattr(exp, "_second_cpu", lambda child=child: child)
            assert main(["run-all", "--seed", "42", "--check"]) == 0
            outs.append(re.sub(r"elapsed_seconds=[^,\n]*", "", capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert [line[1:line.index("]")] for line in outs[0].splitlines()
                if line.startswith("[")] == DECK
        assert sum(line.startswith("PASS  ") for line in outs[0].splitlines()) == 38


class TestCoeffs:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            exp.run_coeffs("sinc")


class TestGamma:
    def test_uneven_modulated_mode(self):
        r = exp.run_gamma("uneven", True, seed=7, uneven_mode="modulated")
        assert r.metadata["uneven_mode"] == "modulated"
        assert r.metadata["fourier"].startswith("unsupported")

    def test_resample_fit_reconstructs_clean_curve(self):
        r = exp.run_gamma("even", False, seed=0, cheb_fit="resample")
        # True function-space interpolation reproduces the generator
        # everywhere, so the uniform samples match too.
        assert r.scalars["cheb_max_node_error"] < 1e-10


class TestReportWriter:
    def test_float_format_round_trips(self, tmp_path):
        xs = [1 / 3, np.pi, 1e-300, 123456.789, 0.0]
        r = ExperimentReport("demo")
        r.add_series("values", {"x": xs})
        lines = (write_report(r, tmp_path) / "values.csv").read_text().splitlines()
        assert [float(v) for v in lines[1:]] == xs

    def test_write_and_layout(self, tmp_path):
        r = ExperimentReport("demo")
        r.add_scalar("answer", 42.0)
        r.add_series("table", {"x": [1.0, 2.0], "y": [3.0, 4.0]})
        r.metadata["note"] = "hi"
        out = write_report(r, tmp_path)
        assert (out / "table.csv").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["name"] == "demo"
        assert payload["scalars"]["answer"] == 42.0
        assert payload["series_files"] == ["table.csv"]
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,3"

    def test_duplicate_labels_rejected(self):
        r = ExperimentReport("demo")
        r.add_scalar("a", 1.0)
        with pytest.raises(ValueError):
            r.add_scalar("a", 2.0)
        r.add_series("s", {"x": [1.0]})
        with pytest.raises(ValueError):
            r.add_series("s", {"x": [1.0]})

    def test_non_finite_rejected(self):
        r = ExperimentReport("demo")
        with pytest.raises(ValueError):
            r.add_scalar("bad", np.nan)
        with pytest.raises(ValueError):
            r.add_series("bad", {"x": [np.inf]})
