"""The summary of tools/bench_pairs.py on canned result lines; no benchmark runs."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "tools"))
import bench_pairs  # noqa: E402

SPEC = [
    {"name": "step_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "step_s_tail", "unit": "s", "better": "lower", "bound": 0.25},
]


def line(step, iters, tail=1.0, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "step_s_p50": {"value": step, "unit": "s"},
            "iters_per_s": {"value": iters, "unit": "1/s"},
            "step_s_tail": {"value": tail, "unit": "s"},
        },
    }


def test_medians_quartiles_and_wins():
    pairs = [
        (line(1.0, 10.0), line(0.9, 10.0)),
        (line(2.0, 20.0), line(2.5, 21.0)),
        (line(3.0, 30.0), line(2.0, 29.0)),
        (line(4.0, 40.0), line(3.0, 41.0)),
        (line(5.0, 50.0), line(4.0, 50.0)),
    ]
    rows = {r["name"]: r for r in bench_pairs.summarize(SPEC, pairs)}
    step = rows["step_s_p50"]
    assert step["pairs"] == 5
    assert step["parent_median"] == 3.0
    assert step["change_median"] == 2.5
    assert step["parent_iqr"] == (2.0, 4.0)
    # lower is better: the change won every pair but the second
    assert step["change_wins"] == 4
    # an IQR of 2.0 is 67% of the median, past the 25% bound
    assert step["unresolved"]
    iters = rows["iters_per_s"]
    # higher is better, and the two ties count for neither side
    assert iters["change_wins"] == 2
    assert iters["unresolved"]
    tail = rows["step_s_tail"]
    assert tail["parent_iqr"] == (1.0, 1.0)
    assert tail["change_wins"] == 0
    assert not tail["unresolved"]


def test_missing_and_null_values_drop_the_pair():
    undefined = line(1.0, 10.0)
    undefined["metrics"]["step_s_tail"]["value"] = None
    absent = line(1.0, 10.0)
    del absent["metrics"]["iters_per_s"]
    rows = {r["name"]: r for r in bench_pairs.summarize(
        SPEC, [(line(1.0, 10.0), undefined), (absent, line(2.0, 20.0))])}
    assert rows["step_s_p50"]["pairs"] == 2
    assert rows["iters_per_s"]["pairs"] == 1
    assert rows["step_s_tail"]["pairs"] == 1
    assert rows["step_s_tail"]["parent_iqr"] == (1.0, 1.0)
    table = bench_pairs.format_rows(bench_pairs.summarize(SPEC, []))
    assert table.count("no values") == 3


@pytest.mark.parametrize(
    "result, ok",
    [
        (line(1.0, 1.0), True),
        (line(1.0, 1.0, correct=False), False),
        (line(1.0, 1.0, failed=1), False),
        (None, False),
    ],
)
def test_a_run_counts_only_when_correct_and_nothing_failed(result, ok):
    assert bench_pairs.run_ok(result) is ok


def test_the_table_flags_unresolved_metrics():
    pairs = [(line(v, 10.0), line(v, 10.0)) for v in (1.0, 1.0, 3.0, 3.0)]
    table = bench_pairs.format_rows(bench_pairs.summarize(SPEC, pairs))
    rows = {row.split()[0]: row for row in table.splitlines()[1:]}
    assert "unresolved" in rows["step_s_p50"]
    assert "unresolved" not in rows["iters_per_s"]
