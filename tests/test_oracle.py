"""Whole runs of `optim.natural_step` against the dense lockstep oracle.

`dense_oracle.DenseOracle` predicts every step of a short run from dense
SVD factors, its own moving averages and its own dense inverses.  The
library must take the same refresh and rebuild decisions and agree to
1e-8 relative on the step lr nu p of every layer and on the averaged
pairs: each factor of the dominant pair against its own norm, and every
pair's Kronecker product against the dominant product.  A second pair is
not held to its own norm: the Gram solve resolves it to about
1e-16 (sigma_1 / sigma_2)^2 of its size (`factorizations`), which near
the 1e-6 cutoff is 1e-4, while its product stays within about
1e-16 sigma_1 / sigma_2 of the dominant one.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import DenseOracle, NoUniquePair
from kronfisher.experiment import CLIP_GRID, ETA_GRID
from kronfisher.mlp import ACTIVATIONS, LOSSES, init_mlp
from kronfisher.optim import SECOND_ORDER_METHODS, OptimizerConfig, init_train_state, natural_step

TOL = 1e-8


@st.composite
def runs(draw):
    """(model, config, steps, rng): 2-4 layers of widths 1-6, every
    activation and both losses, m 1-50, damping 1e-4 to 1e-1, t1 and t2
    1-4, 5-12 steps, any second-order method, a grid lr and clip."""
    n_layers = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1, 6), min_size=n_layers + 1, max_size=n_layers + 1))
    loss = draw(st.sampled_from(LOSSES))
    activations = draw(st.lists(st.sampled_from(ACTIVATIONS), min_size=n_layers, max_size=n_layers))
    if loss == "bce":
        activations[-1] = "sigmoid"
    config = OptimizerConfig(
        method=draw(st.sampled_from(SECOND_ORDER_METHODS)),
        lr=draw(st.sampled_from(ETA_GRID)),
        damping=10.0 ** draw(st.floats(-4.0, -1.0)),
        clip=draw(st.sampled_from(CLIP_GRID)),
        t1=draw(st.integers(1, 4)),
        t2=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(1, 50)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_mlp(dims, activations, loss, rng)
    return model, config, draw(st.integers(5, 12)), rng


def norm(x) -> float:
    """Frobenius norm, scaled so that a layer's tiny factors do not underflow."""
    top = float(np.abs(x).max())
    return top * float(np.linalg.norm(x / top)) if top > 0.0 else 0.0


def assert_close(got, want, scale, what):
    err = norm(got - want)
    assert err <= TOL * scale, f"{what}: error {err:.3e}, scale {scale:.3e}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs())
def test_natural_steps_follow_the_dense_oracle(run):
    model, config, steps, rng = run
    state = init_train_state(model, config)
    oracle = DenseOracle(model.n_layers, config)
    for k in range(1, steps + 1):
        x = rng.random((config.batch_size, model.layer_dims[0]))
        y = rng.random((config.batch_size, model.layer_dims[-1]))
        try:
            want = oracle.predict(model, (x, y), state.sample_rng, k)
        except NoUniquePair:
            assume(False)
        before = [w.copy() for w in model.weights]
        got = natural_step(model, (x, y), state, config)
        assert (got.refreshed, got.rebuilt) == (want["refreshed"], want["rebuilt"]), k
        moves = zip(before, model.weights, got.precond, want["steps"])
        for i, (w0, w1, p, step) in enumerate(moves):
            assert np.array_equal(w1, w0 - (config.lr * got.nu) * p)
            assert_close(config.lr * got.nu * p, step, norm(step), f"step {k}, L{i + 1}")
        for i, (mine, theirs) in enumerate(zip(state.layer_states, oracle.pairs)):
            assert len(mine.pairs) == len(theirs)
            where = f"step {k}, L{i + 1}"
            (a, g), dominant = theirs[0], np.kron(*theirs[0])
            assert_close(mine.pairs[0].left, a, norm(a), f"{where}, dominant left")
            assert_close(mine.pairs[0].right, g, norm(g), f"{where}, dominant right")
            for j, (pair, (left, right)) in enumerate(zip(mine.pairs, theirs)):
                assert_close(np.kron(pair.left, pair.right), np.kron(left, right), norm(dominant),
                             f"{where}, pair {j + 1}")
