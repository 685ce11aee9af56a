"""Alternating benchmark pairs of two trees: a parent and a change.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD [WORKLOAD ...] PAIRS \
        [--record PAIRS_<n>.json]

Each WORKLOAD must be named in the ``workloads`` list of the parent
tree's BENCHMARK.json; any other name, ``all`` included, is a usage
error before anything runs.  Each pair runs ``python3 benchmarks/run.py
--workload WORKLOAD --seed 1 --trace 0`` for every named workload once
in each tree, the parent first in even pairs and the change first in
odd ones, and reads the JSON object on the last line of each run's
output.  For each workload and every end-to-end metric of that
BENCHMARK.json it then prints the parent and change medians, the
parent's interquartile range, the number of pairs the change won (ties
count for neither side) and ``unresolved`` where that range, relative
to the parent's median, exceeds the metric's bound.  ``--record FILE``
also writes those rows as JSON, keyed by workload and metric, with the
trees as given, the pairs asked for and whether every run was correct.
The exit code is 1 when any run was incorrect, failed an operation or
printed no result.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str) -> dict | None:
    """One untraced benchmark run in `tree`; its last output line, or None."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def run_ok(line: dict | None) -> bool:
    """A run that died after its first line, ``{"provenance": ...}``, counts as failed."""
    return line is not None and line.get("correct", False) and line["failed"] == 0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per end-to-end metric over (parent, change) result lines.

    A pair counts only where both runs report the metric with a value.
    """
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
               if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        got = [(p, c) for p, c in got if p is not None and c is not None]
        if not got:
            rows.append({"name": name, "unit": spec["unit"], "pairs": 0})
            continue
        parent = [p for p, _ in got]
        change = [c for _, c in got]
        sign = -1.0 if spec["better"] == "lower" else 1.0
        q1, q3 = quartiles(parent)
        median = statistics.median(parent)
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "pairs": len(got),
            "parent_median": median,
            "change_median": statistics.median(change),
            "parent_iqr": (q1, q3),
            "change_wins": sum(sign * (c - p) > 0 for p, c in got),
            "unresolved": q3 - q1 > spec["bound"] * abs(median),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':<20} {'parent':>12} {'change':>12} {'parent IQR':>27} {'won':>7}"]
    for r in rows:
        if r["pairs"] == 0:
            lines.append(f"{r['name']:<20} {'no values':>12}")
            continue
        q1, q3 = r["parent_iqr"]
        lines.append(
            f"{r['name']:<20} {r['parent_median']:>12.6g} {r['change_median']:>12.6g} "
            f"{f'[{q1:.6g}, {q3:.6g}]':>27} {r['change_wins']:>3}/{r['pairs']:<3}"
            f"{' unresolved' if r['unresolved'] else ''}  {r['unit']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("workloads", nargs="+", metavar="workload",
                        help="workload names of the parent tree's BENCHMARK.json")
    parser.add_argument("pairs", type=int, help="number of pairs to run")
    parser.add_argument("--record", type=Path, help="write the summary rows to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"pairs must be >= 1, got {args.pairs}")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")

    pairs = {workload: [] for workload in args.workloads}
    all_ok = True
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in pairs:
            lines = {side: run_once(getattr(args, side), workload) for side in order}
            ok = {side: run_ok(line) for side, line in lines.items()}
            for side in order:
                values = " ".join(f"{n}={m['value']:.10g}" for n, m in
                                  (lines[side] or {}).get("metrics", {}).items()
                                  if m["value"] is not None)
                print(f"pair {k + 1} {workload} {side}: "
                      f"{'ok' if ok[side] else 'INCORRECT OR FAILED'} {values}",
                      file=sys.stderr, flush=True)
            if all(ok.values()):
                pairs[workload].append((lines["parent"], lines["change"]))
            else:
                all_ok = False
    rows = {workload: summarize(spec["end_to_end"], got) for workload, got in pairs.items()}
    for workload, summary in rows.items():
        print(f"== {workload}")
        print(format_rows(summary))
    if args.record:
        args.record.write_text(json.dumps({
            "parent": str(args.parent),
            "change": str(args.change),
            "pairs": args.pairs,
            "all_runs_ok": all_ok,
            "workloads": {w: {r.pop("name"): r for r in summary} for w, summary in rows.items()},
        }, indent=2) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
