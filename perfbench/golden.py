"""Golden sha256 digests of the CSV tree that ``chebsig run-all`` writes.

The tree must stay byte-identical for every seed in ``SEEDS``; the harness
workload counts a pass whose tree differs in any byte, or misses or adds a
file, as a failed op.  Regenerate the digests only in a change that is meant
to alter the CSV output:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import checkout

SEEDS = (0, 1, 2, 3, 4, 5, 6, 42)
PATH = Path(__file__).with_name("golden_csv_sha256.json")


def csv_digests(out_dir) -> dict[str, str]:
    """sha256 of every CSV under out_dir, keyed by its relative POSIX path."""
    out_dir = Path(out_dir)
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*.csv"))
    }


def load() -> dict[int, dict[str, str]]:
    with PATH.open(encoding="utf-8") as fh:
        return {int(seed): digests for seed, digests in json.load(fh).items()}


def run_all(seed: int, out_dir) -> int:
    """One ``chebsig run-all`` pass, its printed summary discarded."""
    from chebsig import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["run-all", "--seed", str(seed), "--out", str(out_dir)])


def record() -> None:
    checkout.use_sources()
    checkout.SCRATCH.mkdir(exist_ok=True)
    golden = {}
    for seed in SEEDS:
        out = Path(tempfile.mkdtemp(dir=checkout.SCRATCH))
        try:
            if run_all(seed, out) != 0:
                raise SystemExit(f"run-all --seed {seed} failed")
            golden[str(seed)] = csv_digests(out)
        finally:
            shutil.rmtree(out)
    checkout.remove_scratch()
    PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PATH} ({len(SEEDS)} seeds)")


if __name__ == "__main__":
    record()
