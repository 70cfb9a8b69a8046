"""The output tree of ``chebsig run-all`` against its golden digests.

The CSV digests are ``perfbench/golden_csv_sha256.json``; the report.json
digests are ``golden_report_sha256.json`` beside this file.  Run as a
script, it runs every golden seed, prints each path that differs, and exits
1 if any seed's tree differs or its run fails:

    PYTHONPATH=src python3 -W error::RuntimeWarning tests/golden_tree.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # an importer puts perfbench/ on sys.path itself
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

import golden  # noqa: E402

REPORTS = Path(__file__).with_name("golden_report_sha256.json")


def report_json_digest(path) -> str:
    """sha256 of a report.json in canonical form: keys sorted, the wall-clock
    ``elapsed_seconds`` scalar dropped, floats printed by ``json.dumps``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    payload["scalars"].pop("elapsed_seconds", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def differing_paths(out_dir, seed: int) -> list[str]:
    """Each path of seed's tree, written under out_dir, whose CSV or
    report.json digest differs from the golden one, is missing or is new."""
    out_dir = Path(out_dir)
    got = {**golden.csv_digests(out_dir),
           **{p.relative_to(out_dir).as_posix(): report_json_digest(p)
              for p in out_dir.rglob("report.json")}}
    want = {**golden.load()[seed],
            **json.loads(REPORTS.read_text(encoding="utf-8"))[str(seed)]}
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def main() -> int:
    bad = []
    for seed in golden.SEEDS:
        with tempfile.TemporaryDirectory() as out:
            code = golden.run_all(seed, out)
            paths = differing_paths(out, seed)
        if code != 0 or paths:
            bad.append(seed)
            print(f"seed {seed}: exit code {code}, differing:", ", ".join(paths) or "none")
    print("seeds whose CSV tree or report.json differs:", bad or "none")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
