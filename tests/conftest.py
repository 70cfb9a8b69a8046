import contextlib
import io
import time
from pathlib import Path
from typing import NamedTuple

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


class RunAllPass(NamedTuple):
    out: Path
    code: int
    stdout: str
    seconds: float


@pytest.fixture(scope="session")
def run_all_pass(tmp_path_factory):
    """The suite's one ``run-all --seed 42 --check`` pass: output directory,
    exit code, --check stdout and wall time; the golden digests pin its bits."""
    out = tmp_path_factory.mktemp("run_all")
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main(["run-all", "--seed", "42", "--out", str(out), "--check"])
    return RunAllPass(out, code, stdout.getvalue(), time.perf_counter() - start)
