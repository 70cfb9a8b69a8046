import contextlib
import io

import numpy as np
import pytest

from chebsig.cli import main


def _inverse_cosine_transform(coeffs):
    """Values at the n+1 ascending second-kind points of a degree-n series
    by an inverse real FFT: the synthesis half of the construction
    transform, a reference oracle for its round trip."""
    c = np.asarray(coeffs, dtype=float)
    n = c.size - 1
    spec = np.zeros(n + 1)
    spec[0] = 2.0 * n * c[0]
    spec[n] = 2.0 * n * c[n]
    spec[1:n] = n * c[1:n]
    return np.fft.irfft(spec, 2 * n)[: n + 1][::-1]


@pytest.fixture(scope="session")
def inverse_cosine_transform():
    return _inverse_cosine_transform


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
