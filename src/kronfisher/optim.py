"""Training steps: first-order baselines and the natural-gradient protocol.

The natural step at iteration k (1-based):

1. forward on the batch and the mean loss;
2. on factor-refresh iterations (k == 1 or k % t1 == 0), backward with
   targets sampled from the model's own predictive distribution,
   reusing the same forward pass and forming no gradients, and refresh
   each layer's factor pairs with the method's row of
   `factorizations.FACTORIZERS` (exact solves, blended into a moving
   average);
3. on inverse-refresh iterations (k == 1 or k % t2 == 0), rebuild the
   damped inverse caches; a layer holding two pairs gets the two-term
   congruence solve, one holding a single pair the plain Kronecker
   inverse;
4. backward with the true targets, precondition the layer gradients
   with the cached inverses, handing each layer its per-sample rows so
   a wide layer can take the cheaper order
   (`precond.precondition_layer`), scale by the trust-region factor,
   and descend.

The true-target backward comes last so that its per-sample rows are
never held at the same time as the sampled ones or a rebuild's
temporaries.  The first-order baselines share step 1, then backward
with the true targets and take a heavy-ball (sgd) or bias-corrected
Adam update whose 1-based step is k.  The moving-average
cap `EMA_DECAY` (KFAC's 0.95), SGD's heavy-ball `SGD_MOMENTUM` (0.9) and
Adam's moments `ADAM_BETA1`, `ADAM_BETA2`, `ADAM_EPS` (Kingma & Ba's) are
constants, not settings.

All randomness flows through explicit generators in `TrainState`, so a
run is a pure function of (config, seeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import factorizations as fz
from .linalg import kron, spectrum
from .mlp import MLPModel, backward, batch_loss, exact_fim_block, forward, sample_targets
from .precond import KronApprox, kl_clip, precondition_layer, rebuild_cache, update_factors

__all__ = [
    "FIRST_ORDER_METHODS",
    "SECOND_ORDER_METHODS",
    "METHODS",
    "OptimizerConfig",
    "TrainState",
    "StepMetrics",
    "ProbeErrors",
    "init_train_state",
    "sgd_step",
    "adam_step",
    "natural_step",
    "first_order_step",
    "train_step",
    "fim_error_probe",
]

FIRST_ORDER_METHODS = ("sgd", "adam")
SECOND_ORDER_METHODS = tuple(fz.FACTORIZERS)
METHODS = FIRST_ORDER_METHODS + SECOND_ORDER_METHODS

EMA_DECAY = 0.95
SGD_MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerConfig:
    method: str = "kfac"
    lr: float = 1e-2
    damping: float = 1e-2
    clip: float = 1e-2
    t1: int = 100
    t2: int = 100
    batch_size: int = 256
    seed: int = 0
    # relative cutoff: a second pair with sigma_2 <= svd_eps * sigma_ref is zeroed
    svd_eps: float = fz.DEFAULT_EPS

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.lr <= 0.0:
            raise ValueError("lr must be > 0")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.method in SECOND_ORDER_METHODS:
            if self.damping <= 0.0:
                raise ValueError("damping must be > 0 for second-order methods")
            if self.clip <= 0.0:
                raise ValueError("clip must be > 0 for second-order methods")
            if self.t1 < 1 or self.t2 < 1:
                raise ValueError("refresh periods must be >= 1")


@dataclass
class TrainState:
    """Mutable between-step state; create with `init_train_state`."""

    iteration: int = 0
    layer_states: list[KronApprox] | None = None
    velocity: list[np.ndarray] | None = None
    m1: list[np.ndarray] | None = None
    m2: list[np.ndarray] | None = None
    sample_rng: np.random.Generator = field(default_factory=np.random.default_rng)


@dataclass
class StepMetrics:
    """What one step reports back to the harness."""

    loss: float
    nu: float = float("nan")
    refreshed: bool = False
    rebuilt: bool = False
    sigma1: list[float] | None = None
    sigma2: list[float] | None = None
    degenerate: list[bool] | None = None
    # always None: the exact solve takes no iterations (benchmarks/harness.py reads it)
    solver_iterations: list[int] | None = None
    precond: list[np.ndarray] | None = None


@dataclass
class ProbeErrors:
    """Relative approximation errors of one method's dense reconstruction."""

    frobenius: float
    spectral: float


def init_train_state(model: MLPModel, config: OptimizerConfig, sample_rng=None) -> TrainState:
    state = TrainState()
    state.sample_rng = sample_rng if sample_rng is not None else np.random.default_rng(config.seed)
    if config.method == "sgd":
        state.velocity = [np.zeros_like(w) for w in model.weights]
    elif config.method == "adam":
        state.m1 = [np.zeros_like(w) for w in model.weights]
        state.m2 = [np.zeros_like(w) for w in model.weights]
    else:
        state.layer_states = [KronApprox() for _ in range(model.n_layers)]
    return state


def sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    velocity: list[np.ndarray],
    lr: float,
    momentum: float,
) -> None:
    """Heavy-ball update in place: v <- momentum*v + g, p <- p - lr*v."""
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * v


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m1: list[np.ndarray],
    m2: list[np.ndarray],
    t: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
) -> None:
    """Bias-corrected adaptive-moment update in place; t is the 1-based step."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, a, b in zip(params, grads, m1, m2):
        a *= beta1
        a += (1.0 - beta1) * g
        b *= beta2
        b += (1.0 - beta2) * g * g
        p -= lr * (a / c1) / (np.sqrt(b / c2) + eps)


def _forward_loss(model: MLPModel, batch, state: TrainState):
    """Forward and mean loss; a non-finite loss raises."""
    x, y = batch
    acts = forward(model, x)
    loss = batch_loss(acts[-1], y, model.loss)
    if not np.isfinite(loss):
        raise RuntimeError(
            f"non-finite loss {loss} at iteration {state.iteration + 1}; "
            f"weight norms {[float(np.linalg.norm(w)) for w in model.weights]}"
        )
    return acts, loss


def natural_step(
    model: MLPModel,
    batch: tuple[np.ndarray, np.ndarray],
    state: TrainState,
    config: OptimizerConfig,
) -> StepMetrics:
    """One preconditioned descent step; see the module docstring for the protocol."""
    acts, loss = _forward_loss(model, batch, state)
    k = state.iteration + 1

    refreshed = k == 1 or k % config.t1 == 0
    sigma1 = sigma2 = degenerate = None
    if refreshed:
        sampled = sample_targets(acts[-1], model.loss, state.sample_rng)
        _, stats = backward(model, acts, sampled, grads=False)
        factorize = fz.FACTORIZERS[config.method]
        sigma1, sigma2, degenerate = [], [], []
        for i, ls in enumerate(state.layer_states, start=1):
            result = factorize(stats, i, config.svd_eps)
            update_factors(ls, result, k, EMA_DECAY)
            sigma1.append(result.sigma(0))
            sigma2.append(result.sigma(1) if len(result.triplets) > 1 else float("nan"))
            degenerate.append(result.degenerate)
        del stats

    rebuilt = k == 1 or k % config.t2 == 0
    if rebuilt:
        for ls in state.layer_states:
            rebuild_cache(ls, config.damping)

    grads, rows = backward(model, acts, batch[1])
    precond = [
        precondition_layer(ls, g, layer_rows)
        for ls, g, layer_rows in zip(state.layer_states, grads, zip(rows.abar, rows.g))
    ]
    nu = kl_clip(precond, grads, config.clip)
    for w, p in zip(model.weights, precond):
        w -= (config.lr * nu) * p
    state.iteration = k
    return StepMetrics(
        loss=loss,
        nu=nu,
        refreshed=refreshed,
        rebuilt=rebuilt,
        sigma1=sigma1,
        sigma2=sigma2,
        degenerate=degenerate,
        precond=precond,
    )


def first_order_step(
    model: MLPModel,
    batch: tuple[np.ndarray, np.ndarray],
    state: TrainState,
    config: OptimizerConfig,
) -> StepMetrics:
    acts, loss = _forward_loss(model, batch, state)
    grads, _ = backward(model, acts, batch[1])
    if config.method == "sgd":
        sgd_step(model.weights, grads, state.velocity, config.lr, SGD_MOMENTUM)
    else:
        adam_step(
            model.weights,
            grads,
            state.m1,
            state.m2,
            state.iteration + 1,
            config.lr,
            ADAM_BETA1,
            ADAM_BETA2,
            ADAM_EPS,
        )
    state.iteration += 1
    return StepMetrics(loss=loss)


def train_step(model, batch, state, config) -> StepMetrics:
    if config.method in FIRST_ORDER_METHODS:
        return first_order_step(model, batch, state, config)
    return natural_step(model, batch, state, config)


def fim_error_probe(
    model: MLPModel,
    x: np.ndarray,
    layer: int,
    *,
    rng: np.random.Generator,
    eps: float = fz.DEFAULT_EPS,
) -> dict[str, ProbeErrors]:
    """Relative Fisher-approximation errors of every `FACTORIZERS` row on one batch.

    Targets are sampled once from the model's predictive distribution and
    every method factors the same statistics, without moving-average
    blending, so the numbers compare approximation quality alone.  The
    probed layer must be small enough to materialize densely.
    """
    acts = forward(model, x)
    sampled = sample_targets(acts[-1], model.loss, rng)
    _, stats = backward(model, acts, sampled, grads=False)
    f = exact_fim_block(stats, layer)
    f_norm = float(np.linalg.norm(f))
    spec_f = spectrum(f)
    spec_norm = float(np.linalg.norm(spec_f))
    out = {}
    for method, factorize in fz.FACTORIZERS.items():
        pairs = factorize(stats, layer, eps).pairs
        fhat = sum(kron(p.left, p.right) for p in pairs)
        frob = float(np.linalg.norm(f - fhat)) / f_norm
        spec_err = float(np.linalg.norm(spec_f - spectrum(fhat))) / spec_norm
        out[method] = ProbeErrors(frob, spec_err)
    return out
