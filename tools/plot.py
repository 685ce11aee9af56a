"""Loss charts of one training run, drawn from the files the run wrote.

    python3 tools/plot.py RUN_DIR

RUN_DIR is the out_dir of a ``kronfisher train`` or ``probe-fim`` run.
The tool reads its metrics.csv through `kronfisher.records.parse_csv`,
each row's wall clock from timings.csv and the method from
config_echo.json, and writes two self-contained SVG line charts beside
them: loss_vs_iteration.svg (training and validation loss by iteration)
and loss_vs_time.svg (training loss by wall clock).  A RUN_DIR that
lacks one of those three files, or holds one the run did not write (a
timings.csv that does not give metrics.csv's iterations row for row,
say), is a usage error (one ``error:`` line, exit 2) and nothing is
written.  Only the standard library and the
package are used; the package must be importable, e.g. installed or on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from kronfisher.records import MetricRecord, parse_csv

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
    """Self-contained 900 x 520 SVG line chart of each metric in `series`
    against the record attribute `x`: one polyline per series, skipping gaps."""
    width, height, margin = 900, 520, 60
    pts_by_series: dict[str, list[tuple[float, float]]] = {}
    for name in series:
        pts = []
        for r in records:
            xv, yv = getattr(r, x), r.get(name)
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


def load_run(run_dir: Path) -> tuple[str, list[MetricRecord]]:
    """The run's method and its metric records, each with its wall clock."""
    records = parse_csv(run_dir / "metrics.csv")
    path = run_dir / "timings.csv"
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    if header != ["iteration", "wall_clock_seconds"]:
        raise ValueError(f"{path}: header is not iteration,wall_clock_seconds")
    if [row[:1] for row in rows] != [[str(r.iteration)] for r in records]:
        raise ValueError(f"{path}: iterations do not match metrics.csv row for row")
    for record, (_, seconds) in zip(records, rows):
        record.wall_clock_seconds = float(seconds)
    path = run_dir / "config_echo.json"
    try:
        method = json.loads(path.read_text())["optimizer"]["method"]
    except (KeyError, TypeError):
        raise ValueError(f"{path}: no optimizer method") from None
    return method, records


def plot_run(records: list[MetricRecord], method: str, out_dir: Path) -> None:
    """Write loss_vs_iteration.svg and loss_vs_time.svg into `out_dir`."""
    emit_plot(
        records,
        out_dir / "loss_vs_iteration.svg",
        x="iteration",
        series=["train_loss", "val_loss"],
        title=f"{method}: training loss",
    )
    emit_plot(
        records,
        out_dir / "loss_vs_time.svg",
        x="wall_clock_seconds",
        series=["train_loss"],
        title=f"{method}: loss vs wall clock",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("run_dir", type=Path,
                        help="a run's out_dir with metrics.csv, timings.csv, config_echo.json")
    args = parser.parse_args(argv)
    try:
        method, records = load_run(args.run_dir)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    plot_run(records, method, args.run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
