"""What the benchmark in benchmarks/ relies on from the package.

The benchmark's tracer times calls by swapping module attributes for
wrappers (`tracing.WRAPPED`) and reads a few attributes of the results and
states it sees.  A refactor that keeps the numbers but moves a call out of
a wrapped namespace, or drops an attribute the tracer reads, loses spans
silently; these tests make it fail loudly instead.  The harness's own
per-step and final checks read the train state directly; the last test
runs them on every second-order method.  Every layer holds one
`precond.InverseCache`, with a denom exactly when it holds two pairs;
the harness only imports the name `Rank1Cache`, which nothing
instantiates, so its dense check always adds the layer's second pair.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from kronfisher import experiment, factorizations, linalg, optim, precond
from kronfisher.mlp import forward, init_mlp, sample_targets
from kronfisher.precond import Rank1Cache

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))
import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MODULES = {
    "experiment": experiment,
    "optim": optim,
    "factorizations": factorizations,
    "precond": precond,
    "linalg": linalg,
}
STEPS = 3


def test_wrapped_attributes_resolve():
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(MODULES[module], attr)), f"{module}.{attr}"
    # benchmarks/harness.py imports it to pick its dense sum by isinstance
    assert isinstance(Rank1Cache, type)


def traced_steps(method):
    """Spans of STEPS natural steps, refreshing and rebuilding every step.

    The [4, 3, 2] net keeps both layer-parallel sections of `natural_step`
    below `optim._PARALLEL_FLOOR`, so its layers run on the calling thread.
    The tracer keeps one span stack, so spans from two lanes would mis-nest:
    a traced (``--trace 1``) `curves` run with BLAS pinned to one thread
    splits its layers over lanes and its per-layer spans cannot be trusted.
    Untraced end-to-end runs are not affected.
    """
    rng = np.random.default_rng(0)
    model = init_mlp([4, 3, 2], ["relu", "sigmoid"], "bce", rng)
    x = rng.random((8, 4))
    batch = (x, sample_targets(forward(model, x)[-1], "bce", rng))
    config = optim.OptimizerConfig(method=method, lr=1e-3, t1=1, t2=1)
    state = optim.init_train_state(model, config)
    tracer = tracing.Tracer(run_id=method)
    tracer.install(MODULES)
    try:
        tracer.set_layers(state.layer_states)
        for _ in range(STEPS):
            optim.natural_step(model, batch, state, config)
    finally:
        tracer.uninstall()
    assert not hasattr(optim.natural_step, "__wrapped__")
    return tracer.spans, model.n_layers


def named(spans, name):
    return [s for s in spans if s[tracing.NAME] == name]


@pytest.mark.parametrize("method", optim.SECOND_ORDER_METHODS)
def test_factorize_spans_carry_their_layer(method):
    spans, n_layers = traced_steps(method)
    factorize = named(spans, "factorizations.factorize")
    assert sorted(s[tracing.LAYER] for s in factorize) == sorted(
        list(range(1, n_layers + 1)) * STEPS
    )
    # the span wraps the method's own factor function: the moment product
    # returns a bare pair, every other method a result with triplets
    for s in factorize:
        assert (s[tracing.INFO] is None) == (method == "kfac")


def test_two_term_rebuild_spans_carry_safeguarded_info():
    spans, n_layers = traced_steps("kfac_corrected")
    rebuild = named(spans, "precond.rebuild_cache")
    assert len(rebuild) == STEPS * n_layers
    for s in rebuild:
        assert s[tracing.LAYER] in range(1, n_layers + 1)
        # the two-term solve is exact or raises, so nothing is ever safeguarded
        assert s[tracing.INFO] == {"safeguarded": 0.0}
    spans, n_layers = traced_steps("kfac")
    assert [s[tracing.INFO] for s in named(spans, "precond.rebuild_cache")] == [None] * (
        STEPS * n_layers
    )


@pytest.mark.parametrize("method", optim.SECOND_ORDER_METHODS)
def test_harness_checks_read_the_train_state(method):
    """step_problem reads the averaged pairs, the episode loop sums
    solver_iterations, and dense_check calls rebuild_cache(state, damping)
    positionally, damp_pair, and adds every pair past the first to its
    dense sum, since no cache is a Rank1Cache."""
    workload = Workload(
        name="contract",
        why="",
        preset="curves_desk",
        side=8,
        n_train=64,
        n_val=16,
        optimizer=dict(
            method=method, lr=0.3, damping=1e-2, clip=0.1, t1=1, t2=1, batch_size=16
        ),
        steps=STEPS,
    )
    inst = harness.set_up(workload, seed=0, instance=0, tracer=harness.NULL_TRACER)
    for k in range(STEPS):
        x = inst.train[inst.order[k]]
        metrics = optim.train_step(inst.model, (x, x), inst.state, inst.config.optimizer)
        assert harness.step_problem(metrics, inst.state) == ""
        assert sum(metrics.solver_iterations or ()) >= 0
    for ls in inst.state.layer_states:
        assert not isinstance(ls.cache, Rank1Cache)
        assert (ls.cache.denom is None) == (len(ls.pairs) == 1)
    assert harness.dense_check(inst, x) == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_config_loads(name):
    """harness.experiment_config passes each workload's preset and side
    straight to ExperimentConfig, which must accept them."""
    workload = WORKLOADS[name]
    config = harness.experiment_config(workload, seed=0)
    assert config.side == workload.side == {"curves": 28, "curves_desk": 8}[workload.preset]
    assert config.layer_dims[0] == config.side ** 2
