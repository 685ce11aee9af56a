"""Fully connected networks with the per-sample statistics the Fisher needs.

A network with layer widths ``[d0, d1, ..., dL]`` holds one weight matrix
per layer of shape (d_i, d_{i-1} + 1); column 0 multiplies the constant 1
appended in front of the previous activation, so biases live in the first
column.  Batches are row-major: ``x`` has one sample per row.

Backpropagation records, per layer i, the per-sample augmented inputs
``abar`` (m x (d_{i-1}+1)) and per-sample preactivation derivatives ``g``
(m x d_i) of the per-sample loss.  The exact Fisher block of layer i is
the second moment of ``vec(g abar^T)`` over the batch; `factorizations`
works from the per-sample rows and never forms it, and the matrix-free
products `zf_matvec` / `zf_rmatvec` apply its rearranged form without
forming it either.

Layer indices in the public functions are 1-based (layer 1 consumes the
network input).  The bce loss reads the output as Bernoulli means, so a
bce network must end in a sigmoid layer; `check_architecture`, which
`MLPModel` and the experiment config both run, refuses any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import vec

__all__ = [
    "ACTIVATIONS",
    "LOSSES",
    "check_architecture",
    "MLPModel",
    "LayerBatchStats",
    "init_mlp",
    "forward",
    "batch_loss",
    "sample_targets",
    "backward",
    "exact_fim_block",
    "zf_matvec",
    "zf_rmatvec",
]

ACTIVATIONS = ("relu", "sigmoid", "linear")
LOSSES = ("bce", "mse")

# largest Fisher block anyone is allowed to materialize densely
MAX_DENSE_BLOCK = 2500

_LOG_EPS = 1e-12


def check_architecture(layer_dims: list[int], activations: list[str], loss: str) -> None:
    """Refuse a network that cannot be built: fewer than two widths, an
    activation count other than the layer count, an unknown activation or
    loss, or bce without a sigmoid output layer."""
    if len(layer_dims) < 2:
        raise ValueError("need at least an input and an output layer")
    if len(activations) != len(layer_dims) - 1:
        raise ValueError(
            f"{len(layer_dims) - 1} layers need as many activations, got {len(activations)}"
        )
    for kind in activations:
        if kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation {kind!r}; choose from {ACTIVATIONS}")
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; choose from {LOSSES}")
    if loss == "bce" and activations[-1] != "sigmoid":
        raise ValueError(f"bce needs a sigmoid output layer, got {activations[-1]!r}")


@dataclass
class MLPModel:
    """Weights plus the activation and loss choices that define the network."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    activations: list[str]
    loss: str

    def __post_init__(self):
        check_architecture(self.layer_dims, self.activations, self.loss)
        dims = self.layer_dims
        if len(self.weights) != len(dims) - 1:
            raise ValueError("one weight matrix per layer required")
        for i, w in enumerate(self.weights):
            want = (dims[i + 1], dims[i] + 1)
            if w.shape != want:
                raise ValueError(f"layer {i + 1}: weight shape {w.shape}, expected {want}")

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass
class LayerBatchStats:
    """Per-sample backprop statistics, unaveraged, one entry per layer."""

    abar: list[np.ndarray] = field(default_factory=list)
    g: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.abar) != len(self.g):
            raise ValueError("abar and g must have one entry per layer")
        for a, b in zip(self.abar, self.g):
            if a.shape[0] != b.shape[0]:
                raise ValueError("per-layer row counts disagree")

    @property
    def n_layers(self) -> int:
        return len(self.abar)


def init_mlp(
    layer_dims: list[int],
    activations: list[str],
    loss: str,
    rng: np.random.Generator,
) -> MLPModel:
    """Uniform Glorot weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    weights = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = np.zeros((fan_out, fan_in + 1))
        w[:, 1:] = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        weights.append(w)
    return MLPModel(list(layer_dims), weights, list(activations), loss)


def _activate(kind: str, s: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(s, 0.0)
    if kind == "sigmoid":
        # e = exp(-|s|) <= 1 never overflows: 1/(1+e) for s >= 0, e/(1+e) below
        e = np.exp(-np.abs(s))
        ep1 = 1.0 + e
        return np.where(s >= 0, 1.0 / ep1, e / ep1)
    return s


def _derivative_from_activation(kind: str, a: np.ndarray) -> np.ndarray:
    # relu: a > 0 iff s > 0, and the subgradient at 0 is taken as 0
    if kind == "relu":
        return (a > 0.0).astype(np.float64)
    if kind == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(a)


def _augment(a: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((a.shape[0], 1)), a])


def forward(model: MLPModel, x: np.ndarray) -> list[np.ndarray]:
    """Run the network on a batch; returns activations [a0, a1, ..., aL]."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"batch shape {x.shape} does not match input width {model.layer_dims[0]}")
    acts = [x]
    for w, kind in zip(model.weights, model.activations):
        s = _augment(acts[-1]) @ w.T
        acts.append(_activate(kind, s))
    return acts


def batch_loss(output: np.ndarray, targets: np.ndarray, loss: str) -> float:
    """Mean per-sample loss over the batch; per-sample losses sum over output units."""
    z = np.asarray(output, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.shape != y.shape:
        raise ValueError(f"output shape {z.shape} != target shape {y.shape}")
    if loss == "mse":
        return float(0.5 * np.sum((z - y) ** 2) / z.shape[0])
    zc = np.clip(z, _LOG_EPS, 1.0 - _LOG_EPS)
    ll = y * np.log(zc) + (1.0 - y) * np.log(1.0 - zc)
    return float(-np.sum(ll) / z.shape[0])


def sample_targets(output: np.ndarray, loss: str, rng: np.random.Generator) -> np.ndarray:
    """Draw targets from the predictive distribution the loss encodes.

    bce: independent Bernoulli draws with success probability equal to the
    output.  mse: output plus unit-variance Gaussian noise.
    """
    z = np.asarray(output, dtype=np.float64)
    if loss == "bce":
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise ValueError("bce outputs must lie in [0, 1] to be sampled")
        return (rng.random(z.shape) < z).astype(np.float64)
    return z + rng.standard_normal(z.shape)


def _output_delta(model: MLPModel, out: np.ndarray, y: np.ndarray) -> np.ndarray:
    # bce always ends in a sigmoid, whose derivative cancels the loss's
    if model.loss == "bce":
        return out - y
    return (out - y) * _derivative_from_activation(model.activations[-1], out)


def backward(
    model: MLPModel,
    activations: list[np.ndarray],
    targets: np.ndarray,
    *,
    grads: bool = True,
) -> tuple[list[np.ndarray] | None, LayerBatchStats]:
    """Batch-averaged weight gradients plus the per-sample stats behind them.

    ``activations`` is the list produced by `forward` for the same weights.
    The returned gradients are of the mean loss; the stats keep per-sample
    rows so Fisher blocks can be assembled from them afterwards.  With
    ``grads=False`` no gradient is formed and None takes its place.
    """
    y = np.asarray(targets, dtype=np.float64)
    out = activations[-1]
    if y.shape != out.shape:
        raise ValueError(f"target shape {y.shape} != output shape {out.shape}")
    m = out.shape[0]
    g = _output_delta(model, out, y)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite loss derivative at the output layer")

    weight_grads: list[np.ndarray] | None = [None] * model.n_layers if grads else None
    abars: list[np.ndarray] = [None] * model.n_layers
    gs: list[np.ndarray] = [None] * model.n_layers
    for i in range(model.n_layers - 1, -1, -1):
        ab = _augment(activations[i])
        if grads:
            weight_grads[i] = g.T @ ab / m
        abars[i] = ab
        gs[i] = g
        if i > 0:
            da = g @ model.weights[i][:, 1:]
            g = da * _derivative_from_activation(model.activations[i - 1], activations[i])
    return weight_grads, LayerBatchStats(abars, gs)


def _layer_stats(stats: LayerBatchStats, layer: int) -> tuple[np.ndarray, np.ndarray]:
    if not 1 <= layer <= stats.n_layers:
        raise ValueError(f"layer {layer} out of range 1..{stats.n_layers}")
    return stats.abar[layer - 1], stats.g[layer - 1]


def exact_fim_block(stats: LayerBatchStats, layer: int) -> np.ndarray:
    """Dense diagonal Fisher block of one layer: mean outer product of
    per-sample vec(g abar^T).

    Only for layers small enough to materialize; the factorizations work
    from the per-sample statistics instead.
    """
    ab, g = _layer_stats(stats, layer)
    m, d = ab.shape
    dp = g.shape[1]
    if d * dp > MAX_DENSE_BLOCK:
        raise ValueError(f"block dimension {d * dp} exceeds dense limit {MAX_DENSE_BLOCK}")
    w = (ab[:, :, None] * g[:, None, :]).reshape(m, d * dp)
    return w.T @ w / m


def zf_matvec(stats: LayerBatchStats, layer: int, v: np.ndarray) -> np.ndarray:
    """Product of the rearranged Fisher block with v, without forming it.

    With V the dp x dp matrix folded from v, the result is the vec of
    mean_t (g_t^T V g_t) * abar_t abar_t^T.
    """
    ab, g = _layer_stats(stats, layer)
    dp = g.shape[1]
    v = np.asarray(v, dtype=np.float64)
    vm = v.reshape((dp, dp), order="F")
    q = np.einsum("ti,ij,tj->t", g, vm, g)
    return vec(ab.T @ (q[:, None] * ab) / ab.shape[0])


def zf_rmatvec(stats: LayerBatchStats, layer: int, u: np.ndarray) -> np.ndarray:
    """Transposed companion of `zf_matvec`: folds u over the abar side."""
    ab, g = _layer_stats(stats, layer)
    d = ab.shape[1]
    u = np.asarray(u, dtype=np.float64)
    um = u.reshape((d, d), order="F")
    r = np.einsum("tc,cd,td->t", ab, um, ab)
    return vec(g.T @ (r[:, None] * g) / ab.shape[0])
