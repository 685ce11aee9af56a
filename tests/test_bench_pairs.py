"""The summary and the run loop of tools/bench_pairs.py on canned result
lines; no benchmark runs."""

import json

import bench_pairs
import pytest

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
        ({"provenance": {}}, False),
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


def write_spec(tree):
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "curves_steps"}, {"name": "desk_twoterm"}],
        "end_to_end": SPEC,
    }))


@pytest.mark.parametrize("names", [["all"], ["desk_twoterm", "curves_refresh"]])
def test_a_workload_outside_the_parents_list_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                              names):
    """`run.py --workload all` prefixes every metric with its workload, so
    a summary by bare name would read "no values" after every run; such a
    name, or one the parent does not gate, is refused before any run."""
    write_spec(tmp_path / "parent")
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload: runs.append(workload))
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), *names, "3"])
    assert exit_.value.code == 2
    assert runs == []
    assert "unknown workload" in capsys.readouterr().err


def test_each_pair_runs_every_workload_in_both_trees(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_spec(parent)
    runs = []

    def run_once(tree, workload):
        runs.append((tree.name, workload))
        step = {"curves_steps": 2.0, "desk_twoterm": 1.0}[workload]
        return line(step if tree == parent else step / 2, 10.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(parent), str(change), "desk_twoterm", "curves_steps", "2"]
    assert bench_pairs.main(argv) == 0
    # the order of the trees alternates between pairs, for every workload
    assert runs == [
        ("parent", "desk_twoterm"), ("change", "desk_twoterm"),
        ("parent", "curves_steps"), ("change", "curves_steps"),
        ("change", "desk_twoterm"), ("parent", "desk_twoterm"),
        ("change", "curves_steps"), ("parent", "curves_steps"),
    ]
    out = capsys.readouterr().out
    assert "no values" not in out
    tables = dict(table.split("\n", 1) for table in out.split("== ")[1:])
    assert list(tables) == ["desk_twoterm", "curves_steps"]
    for workload, medians in [("desk_twoterm", ["1", "0.5"]), ("curves_steps", ["2", "1"])]:
        rows = {row.split()[0]: row.split() for row in tables[workload].splitlines()[1:]}
        assert rows["step_s_p50"][1:3] == medians
        assert rows["step_s_p50"][5] == "2/2"


def test_the_record_holds_every_row_of_every_workload(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_spec(parent)
    steps = iter([1.0, 0.5, 3.0, 2.0, 1.5, 2.0])

    def run_once(tree, workload):
        return line(next(steps), 10.0, correct=workload == "desk_twoterm" or tree == parent)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    record = tmp_path / "PAIRS_1.json"
    argv = [str(parent), str(change), "desk_twoterm", "3", "--record", str(record)]
    assert bench_pairs.main(argv) == 0
    got = json.loads(record.read_text())
    assert (got["parent"], got["change"], got["pairs"]) == (str(parent), str(change), 3)
    assert got["all_runs_ok"] is True
    assert list(got["workloads"]) == ["desk_twoterm"]
    rows = got["workloads"]["desk_twoterm"]
    assert list(rows) == [spec["name"] for spec in SPEC]
    # parent 1.0, 2.0, 1.5 (even pairs run the parent first) against 0.5, 3.0, 2.0
    assert rows["step_s_p50"] == {
        "unit": "s",
        "pairs": 3,
        "parent_median": 1.5,
        "change_median": 2.0,
        "parent_iqr": [1.25, 1.75],
        "change_wins": 1,
        "unresolved": True,
    }
    assert rows["iters_per_s"]["change_wins"] == 0
    assert not rows["iters_per_s"]["unresolved"]
    capsys.readouterr()

    # an incorrect run drops its pair from the rows and clears the flag
    steps = iter([1.0, 0.5, 3.0, 2.0])
    argv = [str(parent), str(change), "curves_steps", "2", "--record", str(record)]
    assert bench_pairs.main(argv) == 1
    got = json.loads(record.read_text())
    assert got["all_runs_ok"] is False
    assert got["workloads"]["curves_steps"]["step_s_p50"]["pairs"] == 0
