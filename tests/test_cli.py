import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chebsig import experiments as exp
from chebsig.cli import main


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_nodes_takes_no_seed():
    with pytest.raises(SystemExit) as info:
        main(["nodes", "--seed", "5"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [[name, "--seed", "-1"] for name, e in exp.EXPERIMENTS.items() if e.seed]
    + [["run-all", "--seed", "-1"], ["random", "--n", "1"], ["nodes", "--n", "1"],
       ["filter", "--window", "0"]],
    ids="_".join,
)
def test_out_of_range_option_is_usage_error_naming_it(argv, capsys):
    # The library's count rule rejects it, under the option's name; gamma
    # checks its seed with --noise off too.
    assert main(argv) == 2
    assert f"chebsig: {argv[1].lstrip('-')} must be an integer >= " in capsys.readouterr().err


def test_nodes_writes_layout(tmp_path, capsys):
    code = main(["nodes", "--n", "20", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "nodes" / "report.json").read_text())
    assert set(report["series_files"]) >= {"node_tables.csv"}
    for fname in report["series_files"]:
        assert (tmp_path / "nodes" / fname).exists()
    assert "compare_max_diff" in capsys.readouterr().out


def test_gamma_check_passes(capsys):
    assert main(["gamma", "--noise", "on", "--seed", "3", "--check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_scale_check_passes(monkeypatch):
    calls = []
    run_scale = exp.run_scale
    monkeypatch.setattr(exp, "run_scale", lambda: calls.append(1) or run_scale())
    assert main(["scale", "--check"]) == 0
    assert len(calls) == 1  # the checks read the command's own report


@pytest.mark.parametrize("argv, ns", [
    (["random", "--check"], [10, 1000]),
    (["random", "--seed", "3", "--check"], [10, 1000]),
    (["random", "--n", "7", "--check"], [7, 10, 1000]),
])
def test_check_runs_only_the_deck_entries_the_command_did_not(monkeypatch, argv, ns):
    calls = []
    run_random = exp.run_random
    monkeypatch.setattr(exp, "run_random", lambda n, seed: calls.append(n) or run_random(n, seed))
    assert main(argv) == 0
    assert calls == ns


def test_importing_the_cli_loads_no_process_pool():
    # multiprocessing and concurrent.futures.process cost start-up time;
    # converge imports multiprocessing only when it forks its child.
    code = ("import sys, chebsig.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = str(Path(exp.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_io_error_exit_code(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    assert main(["nodes", "--out", str(target / "sub")]) == 3


def test_svg_written(tmp_path):
    assert main(["deviation", "--out", str(tmp_path), "--svg"]) == 0
    svg = tmp_path / "deviation" / "deviation.svg"
    assert svg.exists()
    assert svg.read_text().startswith("<svg")


def test_coeffs_all_runs_three(tmp_path):
    assert main(["coeffs", "--out", str(tmp_path)]) == 0
    for name in ("coeffs_atan", "coeffs_tanh_sum", "coeffs_stripe"):
        assert (tmp_path / name / "report.json").exists()


@pytest.mark.parametrize("label", [check.label for e in exp.EXPERIMENTS.values()
                                   for check in e.checks])
def test_golden_check(run_all_pass, label):
    # --check prints "PASS  <label>" or "FAIL  <label>", then "  (<detail>)" if any.
    mine = [line for line in run_all_pass.stdout.splitlines() if line.split("  ")[1:2] == [label]]
    assert [line.split("  ")[0] for line in mine] == ["PASS"], mine


def test_failing_check_exits_one(monkeypatch, capsys):
    failing = exp.Check("scale: deliberately out of bounds", "scale.max_err_full", "<", 0.0)
    monkeypatch.setitem(exp.EXPERIMENTS, "scale",
                        dataclasses.replace(exp.EXPERIMENTS["scale"], checks=(failing,)))
    assert main(["scale", "--check"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  scale: deliberately out of bounds  (" in out
    assert "chebsig: 1 check(s) failed" in err


def _report_json_digest(path):
    """sha256 of a report.json in canonical form: keys sorted, the wall-clock
    ``elapsed_seconds`` scalar dropped, floats printed by ``json.dumps``."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["scalars"].pop("elapsed_seconds", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def test_run_all_matches_golden_digests(run_all_pass, monkeypatch):
    # The digests were recorded in another process, so a match also proves
    # that same-seed reruns write the same bytes.
    out = run_all_pass.out
    assert run_all_pass.code == 0
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import golden

    assert golden.csv_digests(out) == golden.load()[42]
    # The scalars the --check assertions read live in report.json, not in CSV.
    # Digests for the other golden seeds are checked in CI.
    reports = Path(__file__).parent / "golden_report_sha256.json"
    expected = json.loads(reports.read_text(encoding="utf-8"))["42"]
    digests = {p.relative_to(out).as_posix(): _report_json_digest(p)
               for p in out.rglob("report.json")}
    assert digests == expected
