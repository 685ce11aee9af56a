"""Experiment configuration, the training harness, and grid search.

Configs are JSON documents with a ``schema_version`` field; an unknown
key or a value of the wrong JSON type is refused at load, so typos fail
loudly.  A run is a pure function of the config: every random draw
(weights, data, shuffling, target sampling, probes) comes from generators
spawned off the single config seed, and the deterministic metric CSV plus
the config echo are enough to reproduce it.

Autoencoder convention throughout: the target of a batch is the batch.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .datasets import gen_gaussian_blobs, gen_synthetic_curves, load_idx
from .mlp import MAX_DENSE_BLOCK, init_mlp, batch_loss, forward
from .optim import (
    OptimizerConfig,
    SECOND_ORDER_METHODS,
    fim_error_probe,
    init_train_state,
    train_step,
)
from .records import MetricRecord, emit_csv, emit_plot, emit_timings

__all__ = [
    "SCHEMA_VERSION",
    "ETA_GRID",
    "LAMBDA_GRID",
    "CLIP_GRID",
    "ARCHITECTURES",
    "ProbeSpec",
    "ExperimentConfig",
    "RunResult",
    "load_config",
    "config_from_dict",
    "build_dataset",
    "run_experiment",
    "grid_search",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

ETA_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 3e-1, 3e-2, 3e-3, 3e-4)
LAMBDA_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 3e-1, 3e-2, 3e-3, 3e-4)
CLIP_GRID = (1e-2, 1e-3)

# deep autoencoder presets; the desk preset is a shrunken curves network
# sized so exact Fisher blocks stay cheap to materialize in tests.  A preset
# fixes only the architecture: m comes from `OptimizerConfig.batch_size`.
ARCHITECTURES: dict[str, dict] = {
    "mnist": {
        "layer_dims": [784, 1000, 500, 250, 30, 250, 500, 1000, 784],
        "activations": ["relu"] * 7 + ["sigmoid"],
        "loss": "bce",
    },
    "faces": {
        "layer_dims": [625, 2000, 1000, 500, 30, 500, 1000, 2000, 625],
        "activations": ["relu"] * 7 + ["linear"],
        "loss": "mse",
    },
    "curves": {
        "layer_dims": [784, 400, 200, 100, 50, 25, 6, 25, 50, 100, 200, 400, 784],
        "activations": ["relu"] * 11 + ["sigmoid"],
        "loss": "bce",
    },
    "curves_desk": {
        "layer_dims": [64, 32, 16, 6, 16, 32, 64],
        "activations": ["relu"] * 5 + ["sigmoid"],
        "loss": "bce",
    },
}

_DATASETS = ("synthetic_curves", "mnist", "synthetic_faces")


@dataclass
class ProbeSpec:
    """Approximation-error probing of every second-order method along the run.

    `ExperimentConfig` settles ``layer`` at load: None becomes the layer
    just past the midpoint of the network (bottleneck-adjacent in the
    autoencoder presets), and a layer past the network's last, or one
    whose dense Fisher block is larger than `mlp.MAX_DENSE_BLOCK`, is
    refused.
    """

    every: int = 1
    layer: int | None = None

    def __post_init__(self):
        if self.every < 1:
            raise ValueError(f"probe every must be >= 1, got {self.every}")
        if self.layer is not None and self.layer < 1:
            raise ValueError(f"probe layer must be >= 1, got {self.layer}")


@dataclass
class ExperimentConfig:
    preset: str = "curves_desk"
    dataset: str = "synthetic_curves"
    layer_dims: list[int] = field(default_factory=list)
    activations: list[str] = field(default_factory=list)
    loss: str = ""
    epochs: int = 10
    n_train: int = 1024
    n_val: int = 256
    side: int = 8
    data_path: str = ""
    val_path: str = ""
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    probe: ProbeSpec | None = None
    out_dir: str = "runs/out"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema version {self.schema_version} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        if self.dataset not in _DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; choose from {_DATASETS}")
        if self.dataset == "mnist" and not self.data_path:
            raise ValueError("mnist dataset requires data_path pointing at an IDX image file")
        if self.preset:
            if self.preset not in ARCHITECTURES:
                raise ValueError(f"unknown preset {self.preset!r}")
            arch = ARCHITECTURES[self.preset]
            if not self.layer_dims:
                self.layer_dims = list(arch["layer_dims"])
            if not self.activations:
                self.activations = list(arch["activations"])
            if not self.loss:
                self.loss = arch["loss"]
        if not self.layer_dims or not self.activations or not self.loss:
            raise ValueError("architecture underspecified: need layer_dims, activations, loss")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_train < 1 or self.n_val < 0:
            raise ValueError(
                f"need n_train >= 1 and n_val >= 0, got {self.n_train} and {self.n_val}"
            )
        n_layers = len(self.layer_dims) - 1
        if self.probe is not None:
            if self.probe.layer is None:
                self.probe = replace(self.probe, layer=len(self.layer_dims) // 2 + 1)
            layer = self.probe.layer
            if layer > n_layers:
                raise ValueError(f"probe layer {layer} out of range 1..{n_layers}")
            dim = (self.layer_dims[layer - 1] + 1) * self.layer_dims[layer]
            if dim > MAX_DENSE_BLOCK:
                raise ValueError(
                    f"probe layer {layer}: block dimension {dim} exceeds dense limit "
                    f"{MAX_DENSE_BLOCK}"
                )
        width = self.layer_dims[0]
        if self.dataset == "synthetic_curves" and self.side * self.side != width:
            raise ValueError(
                f"synthetic_curves: side {self.side} gives image width {self.side * self.side}, "
                f"network input width is {width}"
            )
        if self.dataset == "synthetic_faces" and math.isqrt(width) ** 2 != width:
            raise ValueError(
                f"synthetic_faces: network input width {width} is not a square image width"
            )
        if self.optimizer.batch_size > self.n_train:
            raise ValueError(
                f"batch size {self.optimizer.batch_size} exceeds training set size {self.n_train}"
            )


@dataclass
class RunResult:
    records: list[MetricRecord]
    summary: dict
    out_dir: Path


def _load(kind, value, label: str, section: str):
    """`value`, read from JSON, as the annotated type `kind`: an object may
    hold only the dataclass's fields, an int is a valid float and a bool is
    never a number.  `label` names the value in errors, `section` its keys."""
    options = [t for t in get_args(kind) if t is not type(None)]
    nullable = len(options) < len(get_args(kind))
    if nullable:
        if value is None:
            return None
        (kind,) = options
    if is_dataclass(kind):
        if not isinstance(value, dict):
            want = "an object or null" if nullable else "an object"
            raise ValueError(f"{label} must be {want}, got {type(value).__name__}")
        hints = get_type_hints(kind)
        unknown = set(value) - set(hints)
        if unknown:
            raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
        loaded = {k: _load(hints[k], v, f"{section} key {k!r}", k) for k, v in value.items()}
        try:
            return kind(**loaded)
        except TypeError as exc:
            raise ValueError(f"{section}: {exc}") from exc
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise ValueError(f"{label} must be a list, got {type(value).__name__}")
        (item,) = get_args(kind)
        return [_load(item, v, f"{label}[{i}]", section) for i, v in enumerate(value)]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{label} must be {kind.__name__}, got {type(value).__name__}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """An `ExperimentConfig` from a parsed JSON document; see `_load`."""
    return _load(ExperimentConfig, raw, "config", "config")


def load_config(path) -> ExperimentConfig:
    """Parse a JSON config file; edit the result with `dataclasses.replace`,
    which re-runs every load-time check."""
    return config_from_dict(json.loads(Path(path).read_text()))


def build_dataset(config: ExperimentConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Return (train, val) input matrices for the configured dataset.

    A generated dataset fits the input layer by the config's load-time
    checks; each IDX file must be as wide as the network input."""
    width = config.layer_dims[0]
    n_train, n_val = config.n_train, config.n_val
    if config.dataset != "mnist":
        seed = int(rng.integers(2 ** 31))
        if config.dataset == "synthetic_curves":
            data = gen_synthetic_curves(n_train + n_val, seed, side=config.side)
        else:
            data = gen_gaussian_blobs(n_train + n_val, seed, side=math.isqrt(width))
        return data[:n_train], data[n_train:]
    if config.val_path:
        parts = [
            (config.data_path, _idx_rows(config.data_path, n_train, "n_train")),
            (config.val_path, _idx_rows(config.val_path, n_val, "n_val")),
        ]
    else:
        data = _idx_rows(config.data_path, n_train + n_val, "n_train + n_val")
        parts = [(config.data_path, data[:n_train]), (config.data_path, data[n_train:])]
    for source, part in parts:
        if part.shape[1] != width:
            raise ValueError(
                f"{source}: dataset width {part.shape[1]} != network input width {width}"
            )
    (_, train), (_, val) = parts
    return train, val


def _idx_rows(path: str, n: int, request: str) -> np.ndarray:
    """The first n rows of an IDX image file; a shorter file is refused."""
    data = load_idx(path)
    if len(data) < n:
        raise ValueError(f"{path}: IDX file holds {len(data)} rows, {request} asks for {n}")
    return data[:n]


def run_experiment(config: ExperimentConfig, write_artifacts: bool = True) -> RunResult:
    """Train per the config, recording one metric row per iteration.

    Artifacts written to out_dir: config_echo.json, metrics.csv (fully
    deterministic), timings.csv (wall clock), loss_vs_iteration.svg,
    loss_vs_time.svg, summary.json.
    """
    out_dir = Path(config.out_dir)
    opt = config.optimizer
    ss = np.random.SeedSequence(opt.seed)
    rng_init, rng_data, rng_shuffle, rng_sample, rng_probe = (
        np.random.default_rng(s) for s in ss.spawn(5)
    )
    train, val = build_dataset(config, rng_data)
    model = init_mlp(config.layer_dims, config.activations, config.loss, rng_init)
    state = init_train_state(model, opt, sample_rng=rng_sample)

    bs = opt.batch_size
    batches_per_epoch = len(train) // bs
    probe = config.probe

    records: list[MetricRecord] = []
    epoch_train_loss: list[float] = []
    started = time.perf_counter()
    for epoch in range(1, config.epochs + 1):
        order = rng_shuffle.permutation(len(train))
        losses = []
        for b in range(batches_per_epoch):
            idx = order[b * bs : (b + 1) * bs]
            x = train[idx]
            metrics = train_step(model, (x, x), state, opt)
            losses.append(metrics.loss)
            extra: dict[str, float] = {}
            if metrics.sigma1 is not None:
                for i, (s1, s2, degen) in enumerate(
                    zip(metrics.sigma1, metrics.sigma2, metrics.degenerate), start=1
                ):
                    extra[f"sigma1_L{i}"] = s1
                    extra[f"sigma2_L{i}"] = s2
                    extra[f"degenerate_L{i}"] = float(degen)
            if probe is not None and (state.iteration - 1) % probe.every == 0:
                errors = fim_error_probe(model, x, probe.layer, rng=rng_probe, eps=opt.svd_eps)
                for name, err in errors.items():
                    extra[f"err_frob_{name}"] = err.frobenius
                    extra[f"err_spec_{name}"] = err.spectral
            rec = MetricRecord(
                iteration=state.iteration,
                epoch=epoch,
                train_loss=metrics.loss,
                nu=metrics.nu,
                wall_clock_seconds=time.perf_counter() - started,
                extra=extra,
            )
            records.append(rec)
        if len(val):
            records[-1].val_loss = batch_loss(forward(model, val)[-1], val, config.loss)
        epoch_train_loss.append(float(np.mean(losses)))

    elapsed = time.perf_counter() - started
    summary = {
        "method": opt.method,
        "iterations": state.iteration,
        "epochs": config.epochs,
        "epoch_train_loss": epoch_train_loss,
        "final_train_loss": epoch_train_loss[-1],
        "final_val_loss": records[-1].val_loss if len(val) else float("nan"),
        "elapsed_seconds": elapsed,
    }
    if write_artifacts:
        out_dir.mkdir(parents=True, exist_ok=True)
        echo = asdict(config)
        (out_dir / "config_echo.json").write_text(json.dumps(echo, indent=2, sort_keys=True))
        emit_csv(records, out_dir / "metrics.csv")
        emit_timings(records, out_dir / "timings.csv")
        emit_plot(
            records,
            out_dir / "loss_vs_iteration.svg",
            x="iteration",
            series=["train_loss", "val_loss"],
            title=f"{opt.method}: training loss",
        )
        emit_plot(
            records,
            out_dir / "loss_vs_time.svg",
            x="wall_clock_seconds",
            series=["train_loss"],
            title=f"{opt.method}: loss vs wall clock",
        )
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return RunResult(records, summary, out_dir)


def grid_search(
    config: ExperimentConfig,
    etas: tuple[float, ...] = ETA_GRID,
    lambdas: tuple[float, ...] = LAMBDA_GRID,
    clips: tuple[float, ...] = CLIP_GRID,
    write_artifacts: bool = False,
) -> dict:
    """Sweep learning rate (and damping/clip for second-order methods).

    Returns a summary dict with one entry per setting and the best one by
    final training loss.  A run whose loss goes non-finite, or whose damped
    factors lose definiteness or turn singular (`np.linalg.LinAlgError`),
    is recorded as diverged, not fatal.
    """
    second_order = config.optimizer.method in SECOND_ORDER_METHODS
    if not second_order:
        lambdas, clips = (config.optimizer.damping,), (config.optimizer.clip,)
    runs = []
    for eta in etas:
        for lam in lambdas:
            for clip in clips:
                tag = f"eta{eta:g}_lam{lam:g}_clip{clip:g}"
                sub = replace(
                    config,
                    optimizer=replace(config.optimizer, lr=eta, damping=lam, clip=clip),
                    out_dir=str(Path(config.out_dir) / tag),
                )
                entry = {"eta": eta, "damping": lam, "clip": clip}
                try:
                    result = run_experiment(sub, write_artifacts=write_artifacts)
                    entry["final_train_loss"] = result.summary["final_train_loss"]
                    entry["epoch_train_loss"] = result.summary["epoch_train_loss"]
                    entry["status"] = "ok"
                except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
                    logger.warning("grid point %s diverged: %s", tag, exc)
                    entry["final_train_loss"] = float("nan")
                    entry["status"] = f"diverged: {exc}"
                runs.append(entry)
    ok = [r for r in runs if r["status"] == "ok"]
    best = min(ok, key=lambda r: r["final_train_loss"]) if ok else None
    out = {"method": config.optimizer.method, "runs": runs, "best": best}
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "gridsearch_summary.json").write_text(json.dumps(out, indent=2, sort_keys=True))
    return out
