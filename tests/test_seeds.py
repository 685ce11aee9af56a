"""tools/seeds.py: seed ranges, protocol edits, the summary on canned
results, and one tiny protocol run on this tree."""

import argparse
import json
import math
from pathlib import Path

import pytest
import seeds

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "text, expected",
    [("11-20", list(range(11, 21))), ("3", [3]), ("1,4,7-9", [1, 4, 7, 8, 9])],
)
def test_seed_ranges(text, expected):
    assert seeds.parse_seeds(text) == expected


@pytest.mark.parametrize("text", ["", "5-3", "a", "1-", "-2", "1,1", "3-5,4"])
def test_bad_seed_ranges_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="bad seed range"):
        seeds.parse_seeds(text)


def test_a_protocol_file_replaces_single_keys(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"natural": {"epochs": 2}, "data": {"n_train": 32}}))
    got = seeds.load_protocol(path)
    assert got["natural"]["epochs"] == 2
    assert got["natural"]["t1"] == seeds.PROTOCOL["natural"]["t1"]
    assert got["data"] == {**seeds.PROTOCOL["data"], "n_train": 32}
    assert seeds.load_protocol(None) == seeds.PROTOCOL
    path.write_text(json.dumps({"natural": {"epoch": 2}, "grid": {}}))
    with pytest.raises(ValueError, match=r"\['grid', 'natural.epoch'\]"):
        seeds.load_protocol(path)


def result(seed, sgd, kfac, deflation, kfac_epochs=None, deflation_epochs=None):
    return {"seed": seed, "sgd": sgd, "methods": {
        "kfac": {"loss": kfac, "epochs": kfac_epochs},
        "deflation": {"loss": deflation, "epochs": deflation_epochs},
    }}


def test_medians_wins_and_seeds_that_reached_the_target():
    parent = [
        result(1, 10.0, 8.0, 7.0, kfac_epochs=5, deflation_epochs=4),
        result(2, 10.0, 9.0, 9.0),
        result(3, 12.0, 11.0, math.inf),
    ]
    change = [
        result(1, 10.0, 8.0, 6.0, kfac_epochs=5, deflation_epochs=3),
        result(2, 11.0, 9.5, 8.0, deflation_epochs=9),
        result(3, 12.0, 11.0, 12.0),
    ]
    rows = {(r["method"], r["tree"]): r for r in seeds.summarize([parent, change])}
    assert [(m, t) for m, t in rows] == [
        ("sgd", 0), ("sgd", 1), ("kfac", 0), ("kfac", 1), ("deflation", 0), ("deflation", 1)]
    assert rows["sgd", 0]["median"] == 10.0 and rows["sgd", 1]["median"] == 11.0
    # a seed whose every grid point diverged counts as inf
    assert rows["deflation", 0]["median"] == 9.0
    # the tie on seed 2 counts for neither side
    assert rows["deflation", 0]["wins_kfac"] == 1
    assert rows["deflation", 1]["wins_kfac"] == 2
    assert rows["kfac", 0]["wins_kfac"] is None
    assert rows["kfac", 0]["wins_other"] == 1 and rows["kfac", 1]["wins_other"] == 0
    assert rows["deflation", 0]["wins_other"] == 0 and rows["deflation", 1]["wins_other"] == 3
    assert rows["deflation", 1]["reached"] == [(1, 3), (2, 9)]
    table = seeds.format_rows(seeds.summarize([parent, change]))
    assert "deflation          B    8.0000      2/3      3/3  2/3 1:3 2:9" in table.splitlines()
    assert all(r["wins_other"] is None for r in seeds.summarize([parent]))


def test_a_tiny_protocol_gives_the_same_table_for_the_same_tree(tmp_path, capsys):
    protocol = tmp_path / "tiny.json"
    protocol.write_text(json.dumps({
        "data": {"n_train": 32, "n_val": 0},
        "optimizer": {"batch_size": 16},
        "sgd": {"epochs": 2, "etas": [0.1]},
        "natural": {"methods": ["kfac", "deflation"], "epochs": 2, "t1": 1, "t2": 1,
                    "etas": [0.1], "lambdas": [0.01], "clips": [0.1]},
    }))
    argv = [str(ROOT), str(ROOT), "--seeds", "5", "--protocol", str(protocol)]
    assert seeds.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["seeds 5", f"tree A: {ROOT}", f"tree B: {ROOT}"]
    rows = [line.split() for line in lines[4:]]
    assert [row[:2] for row in rows] == [
        ["sgd", "A"], ["sgd", "B"], ["kfac", "A"], ["kfac", "B"], ["deflation", "A"],
        ["deflation", "B"]]
    for a, b in zip(rows[0::2], rows[1::2]):
        assert a[2:] == b[2:]
        assert a[4] == "0/1"
        assert math.isfinite(float(a[2]))


def test_a_tree_without_the_package_fails(tmp_path, capsys):
    assert seeds.main([str(tmp_path), "--seeds", "1"]) == 1
    assert "failed" in capsys.readouterr().err
