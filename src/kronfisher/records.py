"""Metric records and their CSV round trip.

The CSV layer is the reproducibility boundary: floats are written with
``repr`` so parsing the file back reproduces every record bit for bit,
and missing values are the explicit marker ``nan``.  Wall-clock times
never travel with the deterministic metric columns; they get their own
file so identical (config, seed) runs emit identical metric bytes.
``tools/plot.py`` draws a run's loss charts from these two files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

__all__ = [
    "BASE_FIELDS",
    "MetricRecord",
    "record_fields",
    "emit_csv",
    "parse_csv",
    "emit_timings",
]

BASE_FIELDS = ("iteration", "epoch", "train_loss", "val_loss", "nu")
_INT_FIELDS = {"iteration", "epoch"}


@dataclass
class MetricRecord:
    """One training iteration's numbers; extras hold per-layer and probe columns."""

    iteration: int
    epoch: int
    train_loss: float
    val_loss: float = float("nan")
    nu: float = float("nan")
    wall_clock_seconds: float = float("nan")
    extra: dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> float:
        if name in BASE_FIELDS:
            return getattr(self, name)
        return self.extra.get(name, float("nan"))


def record_fields(records: list[MetricRecord]) -> list[str]:
    """Base fields plus every extra key in first-appearance order."""
    fields = list(BASE_FIELDS)
    seen = set(fields)
    for r in records:
        for k in r.extra:
            if k not in seen:
                seen.add(k)
                fields.append(k)
    return fields


def _format(name: str, value) -> str:
    if name in _INT_FIELDS:
        return str(int(value))
    return repr(float(value))


def emit_csv(records: list[MetricRecord], path) -> None:
    """Write records to CSV under the header `record_fields` gives."""
    fields = record_fields(records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for r in records:
            writer.writerow(_format(name, r.get(name)) for name in fields)


def parse_csv(path) -> list[MetricRecord]:
    """Read back a metrics CSV written by `emit_csv`; any other table is a
    `ValueError`."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[: len(BASE_FIELDS)] != list(BASE_FIELDS):
            raise ValueError(f"{path}: header does not start with {','.join(BASE_FIELDS)}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} fields, not {len(header)}"
                )
            values = dict(zip(header, row))
            base = {
                name: (int if name in _INT_FIELDS else float)(values[name])
                for name in BASE_FIELDS
            }
            extra = {
                name: float(val) for name, val in values.items() if name not in BASE_FIELDS
            }
            records.append(MetricRecord(**base, extra=extra))
    return records


def emit_timings(records: list[MetricRecord], path) -> None:
    """Wall-clock companion file; deliberately separate from the metric CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "wall_clock_seconds"])
        for r in records:
            writer.writerow([str(r.iteration), repr(float(r.wall_clock_seconds))])
