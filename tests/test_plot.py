"""tools/plot.py: the SVG line plotter, charts drawn from a run directory,
and a run directory it refuses."""

import shutil
import xml.etree.ElementTree as ET

import plot
import pytest

from kronfisher.experiment import ExperimentConfig, run_experiment
from kronfisher.optim import OptimizerConfig
from kronfisher.records import MetricRecord

CHARTS = ("loss_vs_iteration.svg", "loss_vs_time.svg")


def train(out_dir, n_val=16):
    config = ExperimentConfig(
        preset="curves_desk", epochs=2, n_train=64, n_val=n_val, side=8,
        optimizer=OptimizerConfig(method="kfac", lr=1e-2, batch_size=32, t1=1, t2=1),
        out_dir=str(out_dir),
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return train(tmp_path_factory.mktemp("trained") / "run").out_dir


@pytest.fixture
def run_dir(trained, tmp_path):
    return shutil.copytree(trained, tmp_path / "run")


def test_plot_is_valid_svg_with_one_polyline_per_series(tmp_path):
    path = tmp_path / "plot.svg"
    records = [
        MetricRecord(1, 1, 1.0, val_loss=1.1),
        MetricRecord(2, 1, float("nan"), val_loss=0.9),
        MetricRecord(3, 1, 0.5, val_loss=0.7),
    ]
    plot.emit_plot(records, path, series=["train_loss", "val_loss"], title="a<b&c")
    root = ET.fromstring(path.read_text())
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polys) == 2
    # the nan row is dropped from the first series only
    assert len(polys[0].attrib["points"].split()) == 2
    assert len(polys[1].attrib["points"].split()) == 3


def test_plot_with_no_finite_points(tmp_path):
    path = tmp_path / "empty.svg"
    plot.emit_plot([MetricRecord(1, 1, float("nan"))], path)
    root = ET.fromstring(path.read_text())
    assert root is not None


@pytest.mark.parametrize("n_val", [16, 0])
def test_charts_from_the_run_directory_match_the_in_memory_records(tmp_path, n_val):
    """metrics.csv, timings.csv and config_echo.json carry everything the
    charts need: drawn from them, each chart has the bytes that the run's
    own records give."""
    result = train(tmp_path / "run", n_val)
    assert plot.main([str(result.out_dir)]) == 0
    memory = tmp_path / "memory"
    memory.mkdir()
    plot.plot_run(result.records, "kfac", memory)
    for name in CHARTS:
        assert (result.out_dir / name).read_bytes() == (memory / name).read_bytes(), name
    # with no validation set the val_loss line has no points
    by_iteration = (memory / CHARTS[0]).read_text()
    assert ('points=""' in by_iteration) == (n_val == 0)


@pytest.mark.parametrize("name", ["metrics.csv", "timings.csv", "config_echo.json"])
def test_a_missing_file_is_a_usage_error(run_dir, capsys, name):
    (run_dir / name).unlink()
    with pytest.raises(SystemExit) as exc:
        plot.main([str(run_dir)])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and name in errors[0]
    assert not any((run_dir / chart).exists() for chart in CHARTS)


@pytest.mark.parametrize("echo", ["{}", "[]", '{"optimizer": {}}'])
def test_a_config_echo_without_a_method_is_a_usage_error(run_dir, capsys, echo):
    path = run_dir / "config_echo.json"
    path.write_text(echo)
    with pytest.raises(SystemExit) as exc:
        plot.main([str(run_dir)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {path}: no optimizer method")
    assert not any((run_dir / chart).exists() for chart in CHARTS)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda rows: rows[:-1], "iterations do not match metrics.csv row for row"),
        (lambda rows: [rows[0], rows[2], rows[1], *rows[3:]],
         "iterations do not match metrics.csv row for row"),
        (lambda rows: [*rows, "5,0.5"], "iterations do not match metrics.csv row for row"),
        (lambda rows: ["iteration,seconds", *rows[1:]],
         "header is not iteration,wall_clock_seconds"),
    ],
    ids=["row-missing", "rows-swapped", "row-added", "header"],
)
def test_timings_that_do_not_match_metrics_are_refused(run_dir, capsys, edit, message):
    path = run_dir / "timings.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(SystemExit) as exc:
        plot.main([str(run_dir)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {path}: {message}")
    assert not any((run_dir / chart).exists() for chart in CHARTS)
