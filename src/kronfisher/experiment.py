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

from .datasets import MIN_SIDE, gen_gaussian_blobs, gen_synthetic_curves, load_idx
from .mlp import MAX_DENSE_BLOCK, batch_loss, check_architecture, forward, init_mlp
from .optim import (
    OptimizerConfig,
    SECOND_ORDER_METHODS,
    fim_error_probe,
    init_train_state,
    train_step,
)
from .records import MetricRecord, emit_csv, emit_timings

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
    autoencoder presets, the only layer of a one-layer network), and a
    layer past the network's last, or one whose dense Fisher block is
    larger than `mlp.MAX_DENSE_BLOCK`, is refused.
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
    """One run, settled and checked at load.  A generated dataset needs an
    input width that is the square of an integer >= `datasets.MIN_SIDE`;
    ``side`` restates that root: a missing side becomes it, and any given
    side must equal it."""

    preset: str = "curves_desk"
    dataset: str = "synthetic_curves"
    layer_dims: list[int] = field(default_factory=list)
    activations: list[str] = field(default_factory=list)
    loss: str = ""
    epochs: int = 10
    n_train: int = 1024
    n_val: int = 256
    side: int | None = None
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
        check_architecture(self.layer_dims, self.activations, self.loss)
        if self.layer_dims[-1] != self.layer_dims[0]:
            raise ValueError(
                f"output width {self.layer_dims[-1]} must equal input width "
                f"{self.layer_dims[0]}: the target of a batch is the batch"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_train < 1 or self.n_val < 0:
            raise ValueError(
                f"need n_train >= 1 and n_val >= 0, got {self.n_train} and {self.n_val}"
            )
        n_layers = len(self.layer_dims) - 1
        if self.probe is not None:
            layer = self.probe.layer or min(len(self.layer_dims) // 2 + 1, n_layers)
            self.probe = replace(self.probe, layer=layer)
            if layer > n_layers:
                raise ValueError(f"probe layer {layer} out of range 1..{n_layers}")
            dim = (self.layer_dims[layer - 1] + 1) * self.layer_dims[layer]
            if dim > MAX_DENSE_BLOCK:
                raise ValueError(
                    f"probe layer {layer}: block dimension {dim} exceeds dense limit "
                    f"{MAX_DENSE_BLOCK}"
                )
        width = self.layer_dims[0]
        root = math.isqrt(width)
        if self.side is not None and (self.side != root or root * root != width):
            if self.side * self.side == width:
                raise ValueError(
                    f"{self.dataset}: side {self.side} must be the square root of network "
                    f"input width {width}, which is {root}"
                )
            raise ValueError(
                f"{self.dataset}: side {self.side} gives image width {self.side * self.side}, "
                f"network input width is {width}"
            )
        if self.dataset != "mnist":
            if root < MIN_SIDE or root * root != width:
                raise ValueError(
                    f"{self.dataset}: network input width {width} is not a square image width"
                )
            self.side = root
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

    A generated dataset draws side x side images, the side the config
    settled from the input width at load; each IDX file must be as wide
    as the network input."""
    width = config.layer_dims[0]
    n_train, n_val = config.n_train, config.n_val
    if config.dataset != "mnist":
        gen = gen_synthetic_curves if config.dataset == "synthetic_curves" else gen_gaussian_blobs
        data = gen(n_train + n_val, int(rng.integers(2 ** 31)), side=config.side)
        return data[:n_train], data[n_train:]
    if config.val_path:
        train = _idx_rows(config.data_path, n_train, "n_train", width)
        return train, _idx_rows(config.val_path, n_val, "n_val", width)
    data = _idx_rows(config.data_path, n_train + n_val, "n_train + n_val", width)
    return data[:n_train], data[n_train:]


def _idx_rows(path: str, n: int, request: str, width: int) -> np.ndarray:
    """The first n rows of an IDX image file; a shorter or other-width file is refused."""
    data = load_idx(path)
    if len(data) < n:
        raise ValueError(f"{path}: IDX file holds {len(data)} rows, {request} asks for {n}")
    if data.shape[1] != width:
        raise ValueError(f"{path}: dataset width {data.shape[1]} != network input width {width}")
    return data[:n]


def run_experiment(config: ExperimentConfig, write_artifacts: bool = True) -> RunResult:
    """Train per the config, recording one metric row per iteration.

    Artifacts written to out_dir: config_echo.json, metrics.csv (fully
    deterministic), timings.csv (wall clock), summary.json.
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
            records.append(MetricRecord(
                iteration=state.iteration,
                epoch=epoch,
                train_loss=metrics.loss,
                nu=metrics.nu,
                wall_clock_seconds=time.perf_counter() - started,
                extra=extra,
            ))
            # free the step's directions, as large as the weights, before the next step
            del metrics
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
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return RunResult(records, summary, out_dir)


def grid_search(
    config: ExperimentConfig,
    etas: tuple[float, ...] = ETA_GRID,
    lambdas: tuple[float, ...] = LAMBDA_GRID,
    clips: tuple[float, ...] = CLIP_GRID,
) -> dict:
    """Sweep learning rate (and damping/clip for second-order methods).

    Returns a summary dict with one entry per setting and the best one by
    final training loss, also written to gridsearch_summary.json in the
    config's out_dir; a grid point writes no artifacts.  Every point is
    checked before the first run, so a refused one raises `ValueError` with
    nothing trained or written.  A run whose loss goes non-finite, or whose
    damped factors lose definiteness or turn singular
    (`np.linalg.LinAlgError`), is recorded as diverged.
    """
    second_order = config.optimizer.method in SECOND_ORDER_METHODS
    if not second_order:
        lambdas, clips = (config.optimizer.damping,), (config.optimizer.clip,)
    optimizers = [
        replace(config.optimizer, lr=eta, damping=lam, clip=clip)
        for eta in etas for lam in lambdas for clip in clips
    ]
    runs = []
    for opt in optimizers:
        tag = f"eta{opt.lr:g}_lam{opt.damping:g}_clip{opt.clip:g}"
        entry = {"eta": opt.lr, "damping": opt.damping, "clip": opt.clip}
        try:
            result = run_experiment(replace(config, optimizer=opt), write_artifacts=False)
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
