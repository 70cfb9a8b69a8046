import contextlib
import io

import pytest

from chebsig.cli import main


@pytest.fixture(scope="session")
def run_all_twice(tmp_path_factory):
    """Two ``run-all --seed 42`` passes into fresh directories, the second
    with ``--check``: (first dir, second dir, exit codes, --check stdout)."""
    root = tmp_path_factory.mktemp("run_all")
    out1, out2 = root / "a", root / "b"
    codes = [main(["run-all", "--seed", "42", "--out", str(out1)])]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes.append(main(["run-all", "--seed", "42", "--out", str(out2), "--check"]))
    return out1, out2, codes, stdout.getvalue()
