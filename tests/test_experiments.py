import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from chebsig import experiments as exp
from chebsig.cheb import evaluate, interpolant_from_values
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


class TestConvergeSplit:
    """run_converge's odd degrees in a forked child, whatever the CPU count."""

    @needs_fork
    def test_forked_child_gives_the_same_bits(self, monkeypatch):
        # 120 is the least n_max that holds the Runge ratios of n = 60..120.
        monkeypatch.setattr(exp, "CONVERGE_N_MAX", 120)
        threads = threading.active_count()
        runs = []
        for child in (True, False):
            monkeypatch.setattr(exp, "_second_cpu", lambda child=child: child)
            r = exp.run_converge()
            runs.append(({k: v.hex() for k, v in r.scalars.items()}, r.metadata,
                         {k: c.tobytes() for k, c in r.get_series("errors").columns.items()}))
        assert runs[0] == runs[1]
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    @needs_fork
    def test_an_error_in_the_child_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(exp, "CONVERGE_N_MAX", 10)
        monkeypatch.setattr(exp, "_second_cpu", lambda: True)
        evaluate = exp.evaluate

        def refuse_degree_7(p, x):
            if p.coeffs.size == 8:
                raise ValueError(f"degree 7 refused in process {os.getpid()}")
            return evaluate(p, x)

        monkeypatch.setattr(exp, "evaluate", refuse_degree_7)
        with pytest.raises(ValueError, match="^degree 7 refused in process ") as info:
            exp.run_converge()
        assert not str(info.value).endswith(f" {os.getpid()}")  # the child raised it
        assert multiprocessing.active_children() == []


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
