"""Experiment reports and their CSV/JSON/SVG serialization.

CSV files are UTF-8, comma separated, one header row, with every float
printed to 17 significant digits so values survive a parse round trip and
reruns with the same seed produce byte-identical files.  Wall-clock scalars
belong in the JSON report, never in CSV, to keep that guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cheb import _finite
from .svg import write_line_plot

__all__ = ["Series", "ExperimentReport", "write_report"]


@dataclass
class Series:
    """A labeled table of equally long float columns."""

    label: str
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("series needs at least one column")
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"series {self.label!r} has ragged columns")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


@dataclass
class ExperimentReport:
    """Named scalar results plus labeled column tables for one experiment."""

    name: str
    scalars: dict[str, float] = field(default_factory=dict)
    series: list[Series] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def add_scalar(self, label: str, value: float) -> None:
        if label in self.scalars:
            raise ValueError(f"duplicate scalar label {label!r}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"scalar {label!r} is not finite")
        self.scalars[label] = value

    def add_series(self, label: str, columns: dict) -> None:
        if any(s.label == label for s in self.series):
            raise ValueError(f"duplicate series label {label!r}")
        cols = {k: _finite(v, f"series {label!r} column {k!r} has non-finite values")
                for k, v in columns.items()}
        self.series.append(Series(label, cols))

    def get_series(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)


def _write_series_csv(path: Path, series: Series) -> None:
    # One "%.17g,...\n" template per row, filled from the row-major cells:
    # the same text as format(v, ".17g") cell by cell, in half the time.
    row = ",".join(["%.17g"] * len(series.columns)) + "\n"
    cells = np.column_stack(list(series.columns.values())).ravel().tolist()
    path.write_text(",".join(series.columns) + "\n" + (row * len(series)) % tuple(cells),
                    encoding="utf-8", newline="\n")


def write_report(report: ExperimentReport, out_dir, svg: bool = False) -> Path:
    """Write <out_dir>/<name>/<series>.csv files plus report.json, and with
    ``svg`` a <series>.svg line plot of every series with two or more
    columns (first column on the x axis).

    Returns the experiment directory.  I/O failures propagate as OSError
    with the offending path in the message.
    """
    exp_dir = Path(out_dir) / report.name
    try:
        exp_dir.mkdir(parents=True, exist_ok=True)
        series_files = []
        for s in report.series:
            fname = f"{s.label}.csv"
            _write_series_csv(exp_dir / fname, s)
            series_files.append(fname)
        payload = {
            "name": report.name,
            "scalars": report.scalars,
            "metadata": report.metadata,
            "series_files": series_files,
        }
        (exp_dir / "report.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        for s in report.series:
            x_name, *y_names = s.columns
            if svg and y_names:
                write_line_plot(exp_dir / f"{s.label}.svg", f"{report.name}: {s.label}",
                                s.columns[x_name], {n: s.columns[n] for n in y_names})
    except OSError as exc:
        raise OSError(f"failed writing report under {exp_dir}: {exc}") from exc
    return exp_dir
