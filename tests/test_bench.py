"""Benchmark-harness tests: data generation, IDX files, metric records,
experiment configs, the runner, and the command-line entry points."""

import json
import math
import re
import struct
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kronfisher.cli import _load_config, build_parser, main
from kronfisher.datasets import gen_gaussian_blobs, gen_synthetic_curves, load_idx, save_idx
from kronfisher.experiment import (
    ARCHITECTURES,
    CLIP_GRID,
    LAMBDA_GRID,
    ExperimentConfig,
    ProbeSpec,
    config_from_dict,
    build_dataset,
    grid_search,
    load_config,
    run_experiment,
)
from kronfisher.optim import SECOND_ORDER_METHODS, OptimizerConfig
from kronfisher.records import MetricRecord, emit_csv, emit_plot, emit_timings, parse_csv, record_fields


def desk_config(tmp_path, **kw):
    opt = kw.pop(
        "optimizer",
        OptimizerConfig(method="sgd", lr=0.05, batch_size=32),
    )
    defaults = dict(
        preset="curves_desk",
        epochs=2,
        n_train=64,
        n_val=16,
        side=8,
        optimizer=opt,
        out_dir=str(tmp_path / "run"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestCurveGenerator:
    def test_shape_range_and_determinism(self):
        a = gen_synthetic_curves(6, seed=3, side=8)
        b = gen_synthetic_curves(6, seed=3, side=8)
        c = gen_synthetic_curves(6, seed=4, side=8)
        assert a.shape == (6, 64)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("side", [8, 28])
    def test_mean_activation_band(self, side):
        """Strokes should neither vanish nor flood the canvas."""
        data = gen_synthetic_curves(64, seed=0, side=side)
        assert 0.02 < data.mean() < 0.5

    def test_blobs_shape_and_range(self):
        a = gen_gaussian_blobs(4, seed=1, side=25)
        b = gen_gaussian_blobs(4, seed=1, side=25)
        assert a.shape == (4, 625)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert np.array_equal(a, b)


class TestIdxFiles:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.random((3, 4, 5))
        path = tmp_path / "imgs.idx"
        save_idx(path, imgs)
        back = load_idx(path)
        assert back.shape == (3, 20)
        quantized = np.clip(np.round(imgs * 255.0), 0, 255) / 255.0
        assert_allclose(back, quantized.reshape(3, 20), atol=1e-12)

    def test_hand_packed_fixture(self, tmp_path):
        payload = bytes(range(8))
        path = tmp_path / "packed.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + payload)
        back = load_idx(path)
        assert back.shape == (2, 4)
        assert_allclose(back, np.arange(8).reshape(2, 4) / 255.0)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">II", 0xDEADBEEF, 0))
        with pytest.raises(ValueError, match="magic"):
            load_idx(path)

    def test_truncated_payload_raises(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(ValueError, match="payload"):
            load_idx(path)

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            load_idx(path)

    def test_oversized_header_raises(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2 ** 31 - 1, 1000, 1000))
        with pytest.raises(ValueError, match="size guard"):
            load_idx(path)

    def test_bad_rank_rejected(self, tmp_path):
        for arr in (np.zeros((2, 2)), np.zeros(3, dtype=np.uint8)):
            with pytest.raises(ValueError, match="ndim"):
                save_idx(tmp_path / "x.idx", arr)


class TestRecords:
    def make_records(self):
        return [
            MetricRecord(1, 1, 0.5, nu=1.0, wall_clock_seconds=0.1, extra={"sigma1_L1": 2.5}),
            MetricRecord(2, 1, 0.25, val_loss=0.3, nu=0.5, wall_clock_seconds=0.2,
                         extra={"sigma1_L1": 2.25, "err_frob_kfac": 0.125}),
        ]

    def test_field_order_is_first_appearance(self):
        fields = record_fields(self.make_records())
        assert fields[:5] == ["iteration", "epoch", "train_loss", "val_loss", "nu"]
        assert fields[5:] == ["sigma1_L1", "err_frob_kfac"]
        assert "wall_clock_seconds" not in fields

    def test_csv_round_trip_preserves_values_and_gaps(self, tmp_path):
        path = tmp_path / "metrics.csv"
        records = self.make_records()
        emit_csv(records, path)
        back = parse_csv(path)
        assert len(back) == 2
        assert back[0].iteration == 1 and back[1].epoch == 1
        assert back[1].train_loss == 0.25
        assert math.isnan(back[0].val_loss)
        assert back[1].val_loss == 0.3
        assert back[1].extra["err_frob_kfac"] == 0.125
        # missing extra on row 1 reads back as nan, not zero
        assert math.isnan(back[0].get("err_frob_kfac"))

    def test_csv_floats_survive_exactly(self, tmp_path):
        ugly = 0.1 + 0.2
        path = tmp_path / "m.csv"
        emit_csv([MetricRecord(1, 1, ugly, nu=1.0 / 3.0)], path)
        back = parse_csv(path)
        assert back[0].train_loss == ugly
        assert back[0].nu == 1.0 / 3.0

    def test_csv_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(self.make_records(), a)
        emit_csv(self.make_records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_timings_live_in_companion_file(self, tmp_path):
        path = tmp_path / "timings.csv"
        emit_timings(self.make_records(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,wall_clock_seconds"
        assert len(lines) == 3

    def test_plot_is_valid_svg_with_one_polyline_per_series(self, tmp_path):
        path = tmp_path / "plot.svg"
        records = [
            MetricRecord(1, 1, 1.0, val_loss=1.1),
            MetricRecord(2, 1, float("nan"), val_loss=0.9),
            MetricRecord(3, 1, 0.5, val_loss=0.7),
        ]
        emit_plot(records, path, series=["train_loss", "val_loss"], title="a<b&c")
        root = ET.fromstring(path.read_text())
        polys = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polys) == 2
        # the nan row is dropped from the first series only
        assert len(polys[0].attrib["points"].split()) == 2
        assert len(polys[1].attrib["points"].split()) == 3

    def test_plot_with_no_finite_points(self, tmp_path):
        path = tmp_path / "empty.svg"
        emit_plot([MetricRecord(1, 1, float("nan"))], path)
        root = ET.fromstring(path.read_text())
        assert root is not None


class TestExperimentConfig:
    def test_preset_tables(self):
        mnist = ARCHITECTURES["mnist"]
        assert mnist["layer_dims"] == [784, 1000, 500, 250, 30, 250, 500, 1000, 784]
        assert mnist["loss"] == "bce"
        faces = ARCHITECTURES["faces"]
        assert faces["layer_dims"] == [625, 2000, 1000, 500, 30, 500, 1000, 2000, 625]
        assert faces["loss"] == "mse"
        curves = ARCHITECTURES["curves"]
        assert curves["layer_dims"] == [
            784, 400, 200, 100, 50, 25, 6, 25, 50, 100, 200, 400, 784,
        ]
        assert curves["loss"] == "bce"
        desk = ARCHITECTURES["curves_desk"]
        assert desk["layer_dims"] == [64, 32, 16, 6, 16, 32, 64]
        # a preset fixes only the architecture; m is optimizer.batch_size
        for arch in ARCHITECTURES.values():
            assert set(arch) == {"layer_dims", "activations", "loss"}

    def test_preset_fills_architecture(self, tmp_path):
        config = desk_config(tmp_path)
        assert config.layer_dims == [64, 32, 16, 6, 16, 32, 64]
        assert config.activations == ["relu"] * 5 + ["sigmoid"]
        assert config.loss == "bce"
        # an empty probe object loads with the layer just past the midpoint
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"preset": "curves_desk", "probe": {}}))
        assert load_config(path).probe.layer == 4

    @pytest.mark.parametrize(
        "preset,probe,dim",
        [("faces", ProbeSpec(), 15500), ("mnist", ProbeSpec(), 7750),
         ("curves", ProbeSpec(layer=1), 314000)],
        ids=["faces-default", "mnist-default", "curves-layer1"],
    )
    def test_probe_block_too_large_to_materialize_refused_at_load(self, preset, probe, dim):
        """The probe builds the layer's dense Fisher block, so a block past
        `mlp.MAX_DENSE_BLOCK` is refused before any data or model exists."""
        with pytest.raises(ValueError, match=f"block dimension {dim} exceeds dense limit 2500"):
            ExperimentConfig(preset=preset, probe=probe)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"preset": "curves_desk", "leraning_rate": 0.1})
        with pytest.raises(ValueError, match="unknown optimizer keys"):
            config_from_dict({"preset": "curves_desk", "optimizer": {"lr": 0.1, "momentm": 0.9}})
        # the EMA cap, SGD's momentum and Adam's moments are constants in `optim`
        for key in ("ema_decay", "momentum", "beta1", "beta2", "adam_eps"):
            with pytest.raises(ValueError, match="unknown optimizer keys"):
                config_from_dict({"preset": "curves_desk", "optimizer": {key: 0.5}})

    @pytest.mark.parametrize(
        "section,value",
        [("optimizer", "kfac"), ("optimizer", None), ("optimizer", [1]),
         ("probe", 3), ("probe", [1])],
        ids=["optimizer-str", "optimizer-null", "optimizer-list", "probe-int", "probe-list"],
    )
    def test_non_object_sections_rejected_at_load(self, tmp_path, section, value):
        raw = {"preset": "curves_desk", section: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"config key '{section}' must be an object"):
            config_from_dict(raw)
        with pytest.raises(ValueError, match=f"'{section}'"):
            load_config(path)

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"layer_dims": [64, 32.0, 64]}, "config key 'layer_dims'[1] must be int, got float"),
            ({"activations": "relu"}, "config key 'activations' must be a list, got str"),
            ({"probe": {"every": False}}, "probe key 'every' must be int, got bool"),
        ],
        ids=["layer_dims-item", "activations-str", "every-bool"],
    )
    def test_wrongly_typed_values_rejected_at_load(self, raw, message):
        """Scalars at every level are covered through the command line in
        `test_malformed_configs_are_usage_errors`."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict({"preset": "curves_desk", **raw})

    def test_int_is_a_valid_float(self):
        config = config_from_dict({"preset": "curves_desk", "optimizer": {"lr": 1}})
        assert config.optimizer.lr == 1

    def test_non_object_config_rejected(self):
        for raw in ([1], "curves_desk", None):
            with pytest.raises(ValueError, match="^config must be an object, got "):
                config_from_dict(raw)

    def test_type_error_in_a_section_check_names_the_section(self, monkeypatch):
        def post_init(self):
            raise TypeError("boom")

        monkeypatch.setattr(ProbeSpec, "__post_init__", post_init)
        with pytest.raises(ValueError, match="^probe: boom$"):
            config_from_dict({"preset": "curves_desk", "probe": {}})

    def test_null_probe_means_no_probing(self):
        assert config_from_dict({"preset": "curves_desk", "probe": None}).probe is None

    def test_unknown_probe_method_rejected_at_load(self):
        """The probe reports every row of the factor table, so a method list,
        known names or not, is an unknown key."""
        for methods in (["kpsdv"], ["kfac", "sgd"], list(SECOND_ORDER_METHODS)):
            with pytest.raises(ValueError, match=r"unknown probe keys: \['methods'\]"):
                config_from_dict({"preset": "curves_desk", "probe": {"methods": methods}})

    @pytest.mark.parametrize(
        "probe",
        [{"every": 0}, {"every": -2}, {"layer": 0}, {"layer": -1}],
        ids=["every-0", "every-neg", "layer-0", "layer-neg"],
    )
    def test_bad_probe_settings_rejected_at_load(self, probe):
        with pytest.raises(ValueError, match="probe (every|layer) must be >= 1"):
            ProbeSpec(**probe)
        with pytest.raises(ValueError, match="probe (every|layer) must be >= 1"):
            config_from_dict({"preset": "curves_desk", "probe": probe})

    def test_probe_layer_must_exist_in_the_network(self, tmp_path):
        config = desk_config(tmp_path, probe=ProbeSpec(layer=6))
        with pytest.raises(ValueError, match=r"probe layer 7 out of range 1\.\.6"):
            replace(config, probe=ProbeSpec(layer=7))
        with pytest.raises(ValueError, match="probe every must be >= 1"):
            replace(config.probe, every=0)

    @pytest.mark.parametrize("n_train,n_val", [(0, 16), (-5, 32), (128, -10)])
    def test_dataset_sizes_rejected_at_load(self, tmp_path, n_train, n_val):
        with pytest.raises(ValueError, match="n_train >= 1 and n_val >= 0"):
            desk_config(tmp_path, n_train=n_train, n_val=n_val)

    def test_schema_version_checked(self):
        with pytest.raises(ValueError, match="schema"):
            config_from_dict({"preset": "curves_desk", "schema_version": 99})

    def test_unknown_preset_and_dataset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            ExperimentConfig(preset="imagenet")
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig(preset="curves_desk", dataset="cifar")

    def test_bare_architecture_must_be_complete(self):
        with pytest.raises(ValueError, match="underspecified"):
            ExperimentConfig(preset="", layer_dims=[4, 2])

    def test_load_config_routes_optimizer_overrides(self, tmp_path):
        # the loaded file, then each flag applied to its own section
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"preset": "curves_desk", "optimizer": {"method": "sgd"}}))
        args = build_parser().parse_args(
            ["train", "--config", str(path), "--lr", "0.123", "--epochs", "3", "--out", "elsewhere"]
        )
        config = _load_config(args)
        assert config.optimizer.lr == 0.123
        assert config.optimizer.method == "sgd"
        assert config.epochs == 3
        assert config.out_dir == "elsewhere"
        assert config == replace(
            load_config(path),
            optimizer=replace(load_config(path).optimizer, lr=0.123),
            epochs=3,
            out_dir="elsewhere",
        )


class TestBuildDataset:
    def test_synthetic_curves_split(self, tmp_path):
        config = desk_config(tmp_path)
        train, val = build_dataset(config, np.random.default_rng(0))
        assert train.shape == (64, 64)
        assert val.shape == (16, 64)

    def test_synthetic_faces_split(self, tmp_path):
        config = ExperimentConfig(
            preset="faces", dataset="synthetic_faces", n_train=8, n_val=4,
            optimizer=OptimizerConfig(batch_size=8), out_dir=str(tmp_path),
        )
        train, val = build_dataset(config, np.random.default_rng(0))
        assert train.shape == (8, 625)
        assert val.shape == (4, 625)
        # the old dataset name and its one-valued flag are refused at load
        with pytest.raises(ValueError, match="unknown dataset 'faces_config_only'"):
            config_from_dict({"preset": "faces", "dataset": "faces_config_only"})
        with pytest.raises(ValueError, match=r"unknown config keys: \['synthetic'\]"):
            config_from_dict({"preset": "faces", "dataset": "synthetic_faces", "synthetic": True})

    def test_idx_dataset_with_separate_validation_file(self, tmp_path):
        rng = np.random.default_rng(1)
        save_idx(tmp_path / "train.idx", rng.random((10, 4, 4)))
        save_idx(tmp_path / "val.idx", rng.random((5, 4, 4)))
        config = ExperimentConfig(
            preset="",
            dataset="mnist",
            layer_dims=[16, 8, 16],
            activations=["relu", "sigmoid"],
            loss="bce",
            n_train=10,
            n_val=5,
            data_path=str(tmp_path / "train.idx"),
            val_path=str(tmp_path / "val.idx"),
            optimizer=OptimizerConfig(batch_size=8),
            out_dir=str(tmp_path),
        )
        train, val = build_dataset(config, np.random.default_rng(0))
        assert train.shape == (10, 16)
        assert val.shape == (5, 16)

    @pytest.mark.parametrize("wide", ["train.idx", "val.idx"])
    def test_each_idx_file_width_checked(self, tmp_path, wide):
        """With a separate validation file, each file is checked against
        the input width, and the error names the file."""
        rng = np.random.default_rng(1)
        for name, n in (("train.idx", 10), ("val.idx", 5)):
            side = 5 if name == wide else 4
            save_idx(tmp_path / name, rng.random((n, side, side)))
        config = ExperimentConfig(
            preset="",
            dataset="mnist",
            layer_dims=[16, 8, 16],
            activations=["relu", "sigmoid"],
            loss="bce",
            n_train=10,
            n_val=5,
            data_path=str(tmp_path / "train.idx"),
            val_path=str(tmp_path / "val.idx"),
            optimizer=OptimizerConfig(batch_size=8),
            out_dir=str(tmp_path),
        )
        with pytest.raises(
            ValueError, match=rf"{wide}: dataset width 25 != network input width 16"
        ):
            build_dataset(config, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n_train,n_val,val_rows,message",
        [
            (120, 16, None, r"data\.idx: IDX file holds 100 rows, n_train \+ n_val asks for 136"),
            (100, 1, None, r"data\.idx: IDX file holds 100 rows, n_train \+ n_val asks for 101"),
            (120, 16, 32, r"data\.idx: IDX file holds 100 rows, n_train asks for 120"),
            (64, 64, 10, r"val\.idx: IDX file holds 10 rows, n_val asks for 64"),
        ],
        ids=["one-file-train", "one-file-val", "two-files-train", "two-files-val"],
    )
    def test_short_idx_file_refused(self, tmp_path, n_train, n_val, val_rows, message):
        """A file with fewer rows than the config asks for is refused,
        not silently truncated to a smaller or empty split."""
        rng = np.random.default_rng(1)
        save_idx(tmp_path / "data.idx", rng.random((100, 4, 4)))
        val_path = ""
        if val_rows is not None:
            val_path = str(tmp_path / "val.idx")
            save_idx(val_path, rng.random((val_rows, 4, 4)))
        config = ExperimentConfig(
            preset="",
            dataset="mnist",
            layer_dims=[16, 8, 16],
            activations=["relu", "sigmoid"],
            loss="bce",
            n_train=n_train,
            n_val=n_val,
            data_path=str(tmp_path / "data.idx"),
            val_path=val_path,
            optimizer=OptimizerConfig(batch_size=8),
            out_dir=str(tmp_path),
        )
        with pytest.raises(ValueError, match=message):
            build_dataset(config, np.random.default_rng(0))

    def test_label_file_rejected(self, tmp_path):
        """A label-layout file (magic 0x801) is refused by name, not
        mistaken for images."""
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([0, 3, 9, 255]))
        config = ExperimentConfig(
            preset="",
            dataset="mnist",
            layer_dims=[16, 8, 16],
            activations=["relu", "sigmoid"],
            loss="bce",
            data_path=str(path),
            out_dir=str(tmp_path),
        )
        with pytest.raises(ValueError, match="magic 0x00000801"):
            build_dataset(config, np.random.default_rng(0))

    def test_idx_dataset_requires_path(self, tmp_path):
        """Refused when the config is built, not when the dataset is."""
        with pytest.raises(ValueError, match="mnist dataset requires data_path"):
            ExperimentConfig(
                preset="",
                dataset="mnist",
                layer_dims=[16, 8, 16],
                activations=["relu", "sigmoid"],
                loss="bce",
                out_dir=str(tmp_path),
            )

    def test_width_mismatch_rejected(self, tmp_path):
        """A generator whose images cannot fill the input layer is refused
        when the config is built, before any data exists."""
        with pytest.raises(ValueError, match="side 9 gives image width 81, network input width is 64"):
            desk_config(tmp_path, side=9)
        with pytest.raises(ValueError, match="input width 60 is not a square image width"):
            ExperimentConfig(preset="", dataset="synthetic_faces", layer_dims=[60, 16, 60],
                             activations=["relu", "linear"], loss="mse")


class TestRunExperiment:
    def test_artifacts_and_record_structure(self, tmp_path):
        config = desk_config(tmp_path)
        result = run_experiment(config)
        assert [r.iteration for r in result.records] == [1, 2, 3, 4]
        assert [r.epoch for r in result.records] == [1, 1, 2, 2]
        # validation loss lands on the last record of each epoch only
        assert math.isnan(result.records[0].val_loss)
        assert math.isfinite(result.records[1].val_loss)
        assert math.isfinite(result.records[3].val_loss)
        for name in (
            "config_echo.json",
            "metrics.csv",
            "timings.csv",
            "loss_vs_iteration.svg",
            "loss_vs_time.svg",
            "summary.json",
        ):
            assert (result.out_dir / name).exists(), name
        summary = json.loads((result.out_dir / "summary.json").read_text())
        assert summary["iterations"] == 4
        assert math.isfinite(summary["final_train_loss"])
        assert len(summary["epoch_train_loss"]) == 2

    def test_probe_columns_follow_period(self, tmp_path):
        config = desk_config(tmp_path, epochs=1, probe=ProbeSpec(every=2))
        result = run_experiment(config, write_artifacts=False)
        probed = {f"err_{kind}_{m}" for kind in ("frob", "spec") for m in SECOND_ORDER_METHODS}
        assert probed <= set(result.records[0].extra)
        assert probed.isdisjoint(result.records[1].extra)

    def test_no_artifacts_when_disabled(self, tmp_path):
        config = desk_config(tmp_path)
        run_experiment(config, write_artifacts=False)
        assert not (tmp_path / "run").exists()

    def test_oversized_batch_rejected(self, tmp_path):
        """Refused when the config is built, not after the dataset is."""
        with pytest.raises(ValueError, match="batch size 256 exceeds training set size 64"):
            desk_config(tmp_path, optimizer=OptimizerConfig(method="sgd", batch_size=256))

    def test_metrics_file_is_byte_identical_across_runs(self, tmp_path):
        a = run_experiment(desk_config(tmp_path, out_dir=str(tmp_path / "a")))
        b = run_experiment(desk_config(tmp_path, out_dir=str(tmp_path / "b")))
        bytes_a = (a.out_dir / "metrics.csv").read_bytes()
        bytes_b = (b.out_dir / "metrics.csv").read_bytes()
        assert bytes_a == bytes_b
        # wall clock may differ, but only in its own file
        assert (a.out_dir / "timings.csv").exists()

    def test_second_order_run_records_solver_columns(self, tmp_path):
        config = desk_config(
            tmp_path,
            epochs=2,
            optimizer=OptimizerConfig(
                method="kpsvd", lr=1e-2, batch_size=32, t1=3, t2=3
            ),
        )
        result = run_experiment(config, write_artifacts=False)
        assert "sigma1_L1" in result.records[0].extra
        assert result.records[0].extra["degenerate_L6"] in (0.0, 1.0)
        assert "sigma1_L1" not in result.records[1].extra
        assert "sigma1_L1" in result.records[2].extra
        assert all(math.isfinite(r.nu) for r in result.records)

    def test_deflation_and_lanczos_trajectories_agree(self, tmp_path):
        """Both methods compute the best two-term Kronecker sum, so at the
        ACCEPTANCE 10 grid point (lr 0.3, damping 1e-3, clip 0.1) their
        40-iteration metrics must agree, not drift apart with solver noise."""
        tables = []
        for method in ("deflation", "lanczos"):
            config = desk_config(
                tmp_path,
                epochs=10,
                n_train=256,
                n_val=64,
                optimizer=OptimizerConfig(
                    method=method, lr=0.3, damping=1e-3, clip=0.1, batch_size=64,
                    seed=11, t1=5, t2=5,
                ),
                out_dir=str(tmp_path / method),
            )
            result = run_experiment(config)
            tables.append(parse_csv(result.out_dir / "metrics.csv"))
        a, b = tables
        assert len(a) == len(b) == 40
        fields = record_fields(a)
        assert fields == record_fields(b)
        for ra, rb in zip(a, b):
            for name in fields:
                assert_allclose(rb.get(name), ra.get(name), rtol=1e-9, atol=0, err_msg=name)


class TestGridSearch:
    def small_idx_config(self, tmp_path, method="sgd"):
        rng = np.random.default_rng(2)
        save_idx(tmp_path / "data.idx", rng.random((40, 4, 4)))
        return ExperimentConfig(
            preset="",
            dataset="mnist",
            layer_dims=[16, 8, 16],
            activations=["linear", "linear"],
            loss="mse",
            epochs=1,
            n_train=32,
            n_val=8,
            data_path=str(tmp_path / "data.idx"),
            optimizer=OptimizerConfig(method=method, lr=1e-3, batch_size=8),
            out_dir=str(tmp_path / "grid"),
        )

    def test_first_order_collapses_damping_axes(self, tmp_path):
        config = self.small_idx_config(tmp_path)
        out = grid_search(config, etas=(1e-3, 1e-2), write_artifacts=False)
        assert len(out["runs"]) == 2
        assert out["best"] is not None
        assert out["best"]["final_train_loss"] <= min(
            r["final_train_loss"] for r in out["runs"] if r["status"] == "ok"
        )
        assert (tmp_path / "grid" / "gridsearch_summary.json").exists()

    def test_divergent_point_is_recorded_not_fatal(self, tmp_path):
        config = self.small_idx_config(tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            out = grid_search(config, etas=(1e-3, 1e200), write_artifacts=False)
        statuses = {r["eta"]: r["status"] for r in out["runs"]}
        assert statuses[1e-3] == "ok"
        assert statuses[1e200].startswith("diverged")
        assert out["best"]["eta"] == 1e-3

    def test_indefinite_factor_point_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        from kronfisher import precond

        damp_pair = precond.damp_pair

        def indefinite_left(a, g, damping):
            # a negated damped factor is indefinite whatever the damping
            a_d, g_d = damp_pair(a, g, damping)
            return -a_d, g_d

        config = desk_config(
            tmp_path,
            epochs=1,
            optimizer=OptimizerConfig(method="kfac_corrected", lr=1e-2, batch_size=32),
        )
        monkeypatch.setattr(precond, "damp_pair", indefinite_left)
        out = grid_search(config, etas=(1e-2,), lambdas=(1e-2,), clips=(0.1,))
        (run,) = out["runs"]
        assert run["status"].startswith(
            "diverged: left dominant factor: matrix is not positive definite (smallest eigenvalue -"
        )
        assert math.isnan(run["final_train_loss"])
        assert out["best"] is None

    def test_singular_two_term_point_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        from kronfisher import precond

        def singular(*args):
            raise np.linalg.LinAlgError("two-term Kronecker sum is singular")

        config = desk_config(
            tmp_path,
            epochs=1,
            optimizer=OptimizerConfig(method="kfac_corrected", lr=1e-2, batch_size=32),
        )
        monkeypatch.setattr(precond, "kron_sum_prepare", singular)
        out = grid_search(config, etas=(1e-2,), lambdas=(1e-2,), clips=(0.1,))
        (run,) = out["runs"]
        assert run["status"] == "diverged: two-term Kronecker sum is singular"
        assert math.isnan(run["final_train_loss"])
        assert out["best"] is None

    def test_oversized_batch_still_raises(self, tmp_path):
        """An oversized batch never reaches the grid: the config is refused.
        A config error found inside a run (here a short IDX file) is raised,
        not recorded as a diverged point."""
        with pytest.raises(ValueError, match="exceeds training set size"):
            desk_config(tmp_path, optimizer=OptimizerConfig(method="kfac_corrected", batch_size=256))
        save_idx(tmp_path / "data.idx", np.random.default_rng(1).random((10, 4, 4)))
        config = ExperimentConfig(
            preset="", dataset="mnist", layer_dims=[16, 8, 16],
            activations=["relu", "sigmoid"], loss="bce", n_train=32, n_val=0,
            data_path=str(tmp_path / "data.idx"), out_dir=str(tmp_path / "grid"),
            optimizer=OptimizerConfig(method="kfac_corrected", batch_size=32),
        )
        with pytest.raises(ValueError, match="IDX file holds 10 rows"):
            grid_search(config, etas=(1e-2,), lambdas=(1e-2,), clips=(0.1,))

    def test_second_order_grid_is_three_dimensional(self, tmp_path):
        config = desk_config(
            tmp_path,
            epochs=1,
            optimizer=OptimizerConfig(method="kfac", lr=1e-2, batch_size=32),
        )
        out = grid_search(
            config, etas=(1e-2,), lambdas=(1e-2, 1e-3), clips=(1e-2, 1e-3),
            write_artifacts=False,
        )
        assert len(out["runs"]) == 4


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "preset": "curves_desk",
                    "epochs": 1,
                    "n_train": 64,
                    "n_val": 16,
                    "side": 8,
                    "optimizer": {"method": "sgd", "lr": 0.05, "batch_size": 32},
                    "out_dir": str(tmp_path / "run"),
                }
            )
        )
        return path

    def test_train_subcommand(self, tmp_path, capsys):
        rc = main(["train", "--config", str(self.write_config(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final train loss" in out
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_train_overrides(self, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--config", str(self.write_config(tmp_path)),
                "--method", "kfac",
                "--lr", "0.01",
                "--epochs", "2",
                "--out", str(tmp_path / "kfac_run"),
            ]
        )
        assert rc == 0
        assert "kfac" in capsys.readouterr().out
        echo = json.loads((tmp_path / "kfac_run" / "config_echo.json").read_text())
        assert echo["optimizer"]["method"] == "kfac"
        assert echo["optimizer"]["lr"] == 0.01
        assert echo["epochs"] == 2
        assert echo["out_dir"] == str(tmp_path / "kfac_run")
        # the file's own values stand where no flag is given
        assert echo["optimizer"]["batch_size"] == 32
        assert echo["n_train"] == 64
        assert not (tmp_path / "run").exists()

    def test_verbose_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-v", "train", "--config", str(self.write_config(tmp_path))])
        assert exc.value.code == 2
        assert "unrecognized arguments: -v" in capsys.readouterr().err

    def test_file_must_be_valid_before_flags_edit_it(self, tmp_path, capsys):
        """A flag cannot hide an invalid value in the config file."""
        path = self.write_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["optimizer"]["lr"] = -1
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(path), "--lr", "0.1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "kronfisher train: error: lr must be > 0"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "preset,probe,flags",
        [("faces", None, []), ("curves", {"layer": 1}, []), ("curves", None, ["--layer", "1"])],
        ids=["faces-default", "curves-file-layer1", "curves-flag-layer1"],
    )
    def test_probe_block_too_large_is_a_usage_error(self, tmp_path, capsys, preset, probe, flags):
        """Refused before the dataset is built, so no output directory appears."""
        out = tmp_path / "probe_run"
        raw = {"preset": preset, "probe": probe, "n_train": 8, "n_val": 0, "out_dir": str(out),
               "optimizer": {"batch_size": 8}}
        raw.update({"dataset": "synthetic_faces"} if preset == "faces" else {"side": 28})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["probe-fim", "--config", str(path), *flags])
        assert exc.value.code == 2
        assert "exceeds dense limit 2500" in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"preset": "curves"}, "synthetic_curves: side 8 gives image width 64, "
             "network input width is 784"),
            ({"preset": "", "dataset": "synthetic_faces", "layer_dims": [60, 16, 60],
              "activations": ["relu", "linear"], "loss": "mse"},
             "synthetic_faces: network input width 60 is not a square image width"),
            ({"preset": "curves_desk", "n_train": 64, "optimizer": {"batch_size": 65}},
             "batch size 65 exceeds training set size 64"),
        ],
        ids=["curves-side", "faces-width", "batch-size"],
    )
    def test_data_shape_errors_are_usage_errors(self, tmp_path, capsys, raw, message):
        """Refused at load with one error line and exit 2, before any data
        is built or any output directory is made."""
        out = tmp_path / "run"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**raw, "out_dir": str(out)}))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"kronfisher train: error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"epochs": "10"}, "config key 'epochs' must be int, got str"),
            ({"n_train": 100.5}, "config key 'n_train' must be int, got float"),
            ({"probe": {"layer": "4"}}, "probe key 'layer' must be int, got str"),
            ({"optimizer": {"t1": 1.5}}, "optimizer key 't1' must be int, got float"),
            ({"optimizer": {"lr": True}}, "optimizer key 'lr' must be float, got bool"),
            ({"dataset": "mnist"},
             "mnist dataset requires data_path pointing at an IDX image file"),
            ({"probe": {"layr": 4}}, "unknown probe keys: ['layr']"),
            ([1], "config must be an object, got list"),
        ],
        ids=["epochs-str", "n_train-float", "layer-str", "t1-float", "lr-bool", "mnist-no-path",
             "probe-typo", "top-level-list"],
    )
    def test_malformed_configs_are_usage_errors(self, tmp_path, monkeypatch, capsys, raw, message):
        """One error line and exit 2, with nothing written: no traceback,
        and no run on a value that was silently coerced."""
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", "config.json"])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"kronfisher train: error: {message}"]
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_probe_subcommand_prints_errors(self, tmp_path, capsys):
        rc = main(
            [
                "probe-fim",
                "--config", str(self.write_config(tmp_path)),
                "--layer", "4",
                "--every", "1",
                "--out", str(tmp_path / "probe_run"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("}") + 1])
        assert any(k.startswith("err_frob_") for k in payload)
        assert "iteration" in payload

    @pytest.mark.parametrize("flag,value", [("--every", "0"), ("--layer", "7")])
    def test_probe_subcommand_refuses_bad_probe_before_training(
        self, tmp_path, capsys, flag, value
    ):
        out = tmp_path / "probe_run"
        config = str(self.write_config(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["probe-fim", "--config", config, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "kronfisher probe-fim: error: probe"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("train", ["--lr", "-1"], "lr must be > 0"),
            ("train", ["--method", "nope"], "unknown method 'nope'"),
            ("gridsearch", ["--method", "nope"], "unknown method 'nope'"),
            ("train", [], "Expecting"),
            ("probe-fim", ["--config", "missing.json"], "No such file"),
        ],
        ids=["train-lr", "train-method", "gridsearch-method", "malformed-json", "missing-file"],
    )
    def test_config_errors_are_usage_errors(self, tmp_path, capsys, command, flags, message):
        """A config that cannot be read or is refused prints one error line
        and exits 2, before any run starts."""
        config = self.write_config(tmp_path)
        if not flags:
            config.write_text(config.read_text()[:-1])
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"kronfisher {command}: error: ")
        assert message in err[-1]
        assert not (tmp_path / "run").exists()

    def test_gridsearch_subcommand_defaults_the_axes_not_given(self, tmp_path):
        rc = main(
            [
                "gridsearch",
                "--config", str(self.write_config(tmp_path)),
                "--method", "kfac",
                "--eta", "0.01",
                "--out", str(tmp_path / "grid"),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "grid" / "gridsearch_summary.json").read_text())
        points = [(r["damping"], r["clip"]) for r in summary["runs"]]
        assert points == [(lam, clip) for lam in LAMBDA_GRID for clip in CLIP_GRID]

    def test_gridsearch_subcommand(self, tmp_path, capsys):
        rc = main(
            [
                "gridsearch",
                "--config", str(self.write_config(tmp_path)),
                "--eta", "0.05", "0.01",
                "--out", str(tmp_path / "grid"),
            ]
        )
        assert rc == 0
        assert "best sgd" in capsys.readouterr().out
        assert (tmp_path / "grid" / "gridsearch_summary.json").exists()

    def test_gen_data_subcommand(self, tmp_path, capsys):
        out = tmp_path / "curves.idx"
        rc = main(
            ["gen-data", "--kind", "curves", "--n", "4", "--side", "8", "--out", str(out)]
        )
        assert rc == 0
        data = load_idx(out)
        assert data.shape == (4, 64)
        assert "wrote 4" in capsys.readouterr().out
