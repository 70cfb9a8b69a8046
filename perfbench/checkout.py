"""Where the benchmark finds the sources it measures and keeps its scratch files."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Output trees of run-all passes; emptied after every pass.
SCRATCH = ROOT / ".perfbench_tmp"


class MissingSourcesError(RuntimeError):
    """The checkout holds no chebsig sources to measure."""


def use_sources():
    """Import chebsig from this checkout's src/, never from anywhere else."""
    if not (SRC / "chebsig" / "__init__.py").is_file():
        raise MissingSourcesError(f"no chebsig package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chebsig

    if Path(chebsig.__file__).resolve().parent != SRC / "chebsig":
        raise MissingSourcesError(f"chebsig was imported from {chebsig.__file__}, not {SRC}")


def remove_scratch():
    """Remove the scratch directory once no pass is using it."""
    try:
        SCRATCH.rmdir()
    except OSError:
        pass
