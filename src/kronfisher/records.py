"""Metric records, their CSV round trip, and a small SVG line plotter.

The CSV layer is the reproducibility boundary: floats are written with
``repr`` so parsing the file back reproduces every record bit for bit,
and missing values are the explicit marker ``nan``.  Wall-clock times
never travel with the deterministic metric columns; they get their own
file so identical (config, seed) runs emit identical metric bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "BASE_FIELDS",
    "MetricRecord",
    "record_fields",
    "emit_csv",
    "parse_csv",
    "emit_timings",
    "emit_plot",
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
        if name in BASE_FIELDS or name == "wall_clock_seconds":
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
    """Read back a metrics CSV written by `emit_csv`."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            values = dict(zip(header, row))
            base = {
                name: (int if name in _INT_FIELDS else float)(values[name])
                for name in BASE_FIELDS
                if name in values
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


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f",
)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_plot(
    records: list[MetricRecord],
    path,
    x: str = "iteration",
    series: list[str] = ("train_loss",),
    title: str = "",
) -> None:
    """Self-contained 900 x 520 SVG line chart: one polyline per series, skipping gaps."""
    width, height, margin = 900, 520, 60
    pts_by_series: dict[str, list[tuple[float, float]]] = {}
    for name in series:
        pts = []
        for r in records:
            xv, yv = r.get(x), r.get(name)
            if math.isfinite(xv) and math.isfinite(yv):
                pts.append((xv, yv))
        pts_by_series[name] = pts
    all_pts = [p for pts in pts_by_series.values() for p in pts]
    if all_pts:
        xs = [p[0] for p in all_pts]
        ys = [p[1] for p in all_pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
    else:
        x_lo = y_lo = 0.0
        x_hi = y_hi = 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def to_px(px, py):
        sx = margin + (px - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        sy = height - margin - (py - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return sx, sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16" '
            f'font-family="sans-serif">{_escape(title)}</text>'
        )
    for tick in range(5):
        frac = tick / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        sx, _ = to_px(xv, y_lo)
        _, sy = to_px(x_lo, yv)
        parts.append(
            f'<text x="{sx:.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{_escape(x)}</text>'
    )
    for idx, (name, pts) in enumerate(pts_by_series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx:.2f},{sy:.2f}" for sx, sy in (to_px(*p) for p in pts))
        else:
            coords = ""
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        ly = margin + 16 * idx
        parts.append(
            f'<rect x="{width - margin - 130}" y="{ly - 9}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 112}" y="{ly + 2}" font-size="12" '
            f'font-family="sans-serif">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
