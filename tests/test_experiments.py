import json

import numpy as np
import pytest

from chebsig import experiments as exp
from chebsig.cheb import evaluate, interpolant_from_values
from chebsig.report import ExperimentReport, write_report


class TestRandom:
    def test_schema(self):
        r = exp.run_random(10, seed=42)
        assert {"min", "max", "elapsed_seconds"} <= set(r.scalars)
        assert {s.label for s in r.series} == {"dense", "zoom"}
        assert len(r.get_series("dense")) == 2001

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


class TestConverge:

    def test_both_norms_recorded(self, run_all_twice):
        errors = run_all_twice[0] / "converge" / "errors.csv"
        cols = set(errors.read_text(encoding="utf-8").splitlines()[0].split(","))
        assert {"err_l2_exp", "err_l2_runge", "err_sup_exp", "err_sup_runge"} <= cols


@pytest.fixture(scope="module")
def wavelen_lengths():
    return exp.run_wavelen().get_series("lengths")


class TestWavelen:

    def test_frozen_lengths(self, wavelen_lengths):
        # Regression pin: deterministic output of the adaptive constructor.
        assert list(wavelen_lengths.columns["length_sin"]) == [
            14, 18, 24, 32, 44, 68, 108, 180, 322, 594, 1126,
        ]

    def test_runge_lengths_grow_linearly(self, wavelen_lengths):
        lr = np.asarray(wavelen_lengths.columns["length_runge"])
        ratios = lr[5:] / lr[4:-1]
        assert np.all((ratios >= 1.8) & (ratios <= 2.2))


class TestCoeffs:
    def test_tanh_sum_truncation_shortens(self):
        r = exp.run_coeffs("tanh_sum")
        assert r.scalars["length_sum_truncated"] < r.scalars["length_sum"]
        labels = {s.label for s in r.series}
        assert {"coefficients_f", "coefficients_g", "coefficients_h",
                "coefficients_s", "coefficients_s_truncated"} <= labels

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            exp.run_coeffs("sinc")


class TestGamma:
    def test_uneven_fourier_unsupported(self):
        r = exp.run_gamma("uneven", True, seed=42)
        assert r.metadata["fourier"].startswith("unsupported: uneven nodes unsupported")
        assert "fourier_peak_gap" not in r.scalars
        assert r.scalars["cheb_max_node_error"] < 1e-10
        assert r.scalars["cheb_peak_gap"] == 0.0

    def test_uneven_modulated_mode(self):
        r = exp.run_gamma("uneven", True, seed=7, uneven_mode="modulated")
        assert r.metadata["uneven_mode"] == "modulated"
        assert r.metadata["fourier"].startswith("unsupported")

    def test_resample_fit_reconstructs_clean_curve(self):
        r = exp.run_gamma("even", False, seed=0, cheb_fit="resample")
        # True function-space interpolation reproduces the generator
        # everywhere, so the uniform samples match too.
        assert r.scalars["cheb_max_node_error"] < 1e-10

    def test_dense_fourier_grid_clipped_to_span(self):
        r = exp.run_gamma("even", False, seed=0)
        t = r.get_series("fourier_dense").columns["t"]
        assert t[-1] <= exp.GAMMA_SPAN * (1 + 1e-9)

    def test_determinism(self):
        a = exp.run_gamma("uneven", True, seed=5)
        b = exp.run_gamma("uneven", True, seed=5)
        assert np.array_equal(
            a.get_series("samples").columns["observed"],
            b.get_series("samples").columns["observed"],
        )


class TestSpectrum:
    def test_schema_and_identities(self):
        r = exp.run_spectrum()
        assert r.scalars["length"] == 31.0
        lhs = r.scalars["sum_sq_values"]
        rhs = r.scalars["sum_sq_spectrum_over_n"]
        assert abs(lhs - rhs) < 1e-9 * lhs
        cols = set(r.get_series("spectrum").columns)
        assert {"frequency", "amplitude", "phase", "polar_theta", "polar_rho"} <= cols


class TestFilter:
    def test_rms_improves(self):
        r = exp.run_filter(seed=0, window=5)
        assert r.scalars["rms_filtered"] < r.scalars["rms_raw"]

    def test_metadata(self):
        r = exp.run_filter(seed=3, window=7)
        assert r.metadata["window"] == "7"
        assert r.metadata["seed"] == "3"


@pytest.fixture(scope="module")
def nodes_report():
    return exp.run_nodes(100)


class TestNodesExperiment:

    def test_mean_distance_series_present(self, nodes_report):
        for count in (5, 10, 20):
            for kind in ("cheb", "legendre", "uniform"):
                s = nodes_report.get_series(f"mean_distance_{count}_{kind}")
                assert len(s) == count
                assert set(s.columns) == {"x", "gm_distance"}


@pytest.fixture(scope="module")
def condition_report():
    return exp.run_condition()


class TestCondition:

    def test_sweep_shape(self, condition_report):
        s = condition_report.get_series("sweep")
        assert len(s) == 11
        assert s.columns["cond_chebyshev"][0] == pytest.approx(1.0)


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

    def test_svg_emitted(self, tmp_path):
        write_report(exp.run_scale(), tmp_path, svg=True)
        svgs = list((tmp_path / "scale").glob("*.svg"))
        assert svgs
        assert svgs[0].read_text().startswith("<svg")
