"""Network and statistics tests.

The backward pass is checked against central finite differences of the
batch loss, and the Fisher-block products against dense assembly from
per-sample outer products.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_model_stats, zigzag_oracle
from kronfisher.linalg import vec
from kronfisher.mlp import (
    LayerBatchStats,
    _activate,
    backward,
    batch_loss,
    exact_fim_block,
    forward,
    init_mlp,
    sample_targets,
    zf_matvec,
    zf_rmatvec,
)


def forward_oracle(model, x):
    """Scalar-loop forward pass, one sample and one unit at a time."""
    outs = []
    for t in range(x.shape[0]):
        a = list(x[t])
        for w, kind in zip(model.weights, model.activations):
            nxt = []
            for i in range(w.shape[0]):
                s = w[i, 0]
                for j in range(len(a)):
                    s += w[i, j + 1] * a[j]
                if kind == "relu":
                    nxt.append(max(s, 0.0))
                elif kind == "sigmoid":
                    nxt.append(1.0 / (1.0 + np.exp(-s)))
                else:
                    nxt.append(s)
            a = nxt
        outs.append(a)
    return np.array(outs)


def loss_at(model, x, y):
    return batch_loss(forward(model, x)[-1], y, model.loss)


def fd_gradients(model, x, y, h=1e-4):
    """Central finite differences of the batch loss in every weight entry."""
    grads = []
    for w in model.weights:
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + h
                up = loss_at(model, x, y)
                w[i, j] = orig - h
                down = loss_at(model, x, y)
                w[i, j] = orig
                g[i, j] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


class TestInit:
    def test_shapes_bounds_and_zero_bias(self):
        rng = np.random.default_rng(0)
        model = init_mlp([5, 7, 3], ["relu", "sigmoid"], "bce", rng)
        assert [w.shape for w in model.weights] == [(7, 6), (3, 8)]
        for w, fan_in, fan_out in zip(model.weights, [5, 7], [7, 3]):
            assert_allclose(w[:, 0], 0.0)
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w[:, 1:]) <= bound)

    def test_seeded_init_is_reproducible(self):
        a = init_mlp([4, 3], ["linear"], "mse", np.random.default_rng(11))
        b = init_mlp([4, 3], ["linear"], "mse", np.random.default_rng(11))
        assert_allclose(a.weights[0], b.weights[0])

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_mlp([4, 3], ["tanh"], "bce", rng)
        with pytest.raises(ValueError):
            init_mlp([4, 3], ["relu"], "hinge", rng)
        for out_act in ("linear", "relu"):
            with pytest.raises(ValueError, match="bce needs a sigmoid output"):
                init_mlp([4, 3, 4], ["relu", out_act], "bce", rng)


class TestForward:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        model = init_mlp([4, 6, 5, 3], ["relu", "sigmoid", "linear"], "mse", rng)
        x = rng.standard_normal((9, 4))
        assert_allclose(forward(model, x)[-1], forward_oracle(model, x), atol=1e-12)

    def test_frozen_single_unit(self):
        """Zero bias, unit weight, zero input through a sigmoid gives 1/2."""
        model = init_mlp([1, 1], ["sigmoid"], "bce", np.random.default_rng(0))
        model.weights[0][:] = [[0.0, 1.0]]
        assert forward(model, np.zeros((1, 1)))[-1][0, 0] == pytest.approx(0.5)

    def test_bad_width_raises(self):
        model = init_mlp([4, 3], ["linear"], "mse", np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 5)))


class TestSigmoid:
    def test_matches_the_two_branch_form_bit_for_bit(self):
        """1/(1+exp(-s)) where s >= 0 and exp(s)/(1+exp(s)) below, gathered
        by sign; extreme inputs raise no floating-point overflow."""
        rng = np.random.default_rng(3)
        s = rng.standard_normal((256, 784)) * 30.0
        s[0, :10] = [0.0, -0.0, 800.0, -800.0, 710.0, -710.0, 1e-300, -1e-300, np.inf, -np.inf]
        want = np.empty_like(s)
        pos = s >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
        es = np.exp(s[~pos])
        want[~pos] = es / (1.0 + es)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _activate("sigmoid", s)
        assert np.array_equal(got, want)
        assert got[0, 2] == 1.0 and got[0, 3] == 0.0


class TestBackward:
    @pytest.mark.parametrize("hidden", ["relu", "sigmoid", "linear"])
    @pytest.mark.parametrize("loss,out_act", [("bce", "sigmoid"), ("mse", "linear")])
    def test_gradients_match_finite_differences(self, hidden, loss, out_act):
        rng = np.random.default_rng(17)
        model = init_mlp([3, 4, 2], [hidden, out_act], loss, rng)
        x = rng.standard_normal((6, 3))
        y = rng.uniform(0.1, 0.9, size=(6, 2))
        grads, _ = backward(model, forward(model, x), y)
        for g, fd in zip(grads, fd_gradients(model, x, y)):
            assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_unfused_output_combo(self):
        """Squared error through a sigmoid or relu output multiplies in the
        activation's derivative; only bce's sigmoid derivative cancels."""
        for out_act in ("sigmoid", "relu"):
            rng = np.random.default_rng(18)
            model = init_mlp([3, 4, 2], ["relu", out_act], "mse", rng)
            model.weights[-1][0, 0] = -0.5  # output unit 0 is dead on some samples
            x = rng.standard_normal((5, 3))
            y = rng.uniform(0.1, 0.9, size=(5, 2))
            grads, _ = backward(model, forward(model, x), y)
            for g, fd in zip(grads, fd_gradients(model, x, y)):
                assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_stats_shapes_and_bias_row(self):
        rng = np.random.default_rng(2)
        model = init_mlp([4, 3, 2], ["relu", "sigmoid"], "bce", rng)
        x = rng.random((7, 4))
        acts = forward(model, x)
        y = sample_targets(acts[-1], "bce", rng)
        _, stats = backward(model, acts, y)
        assert [a.shape for a in stats.abar] == [(7, 5), (7, 4)]
        assert [g.shape for g in stats.g] == [(7, 3), (7, 2)]
        for a in stats.abar:
            assert_allclose(a[:, 0], 1.0)

    def test_duplicated_samples_give_identical_rows(self):
        rng = np.random.default_rng(3)
        model = init_mlp([3, 4, 2], ["relu", "sigmoid"], "bce", rng)
        x = np.tile(rng.random((1, 3)), (4, 1))
        acts = forward(model, x)
        y = np.tile(np.array([[1.0, 0.0]]), (4, 1))
        _, stats = backward(model, acts, y)
        for arr in stats.abar + stats.g:
            assert_allclose(arr, np.tile(arr[:1], (4, 1)))

    def test_without_gradients_the_stats_are_unchanged(self):
        rng = np.random.default_rng(5)
        model = init_mlp([4, 3, 2], ["relu", "sigmoid"], "bce", rng)
        acts = forward(model, rng.random((7, 4)))
        y = sample_targets(acts[-1], "bce", rng)
        _, stats = backward(model, acts, y)
        none, same = backward(model, acts, y, grads=False)
        assert none is None
        for want, got in zip(stats.abar + stats.g, same.abar + same.g):
            assert np.array_equal(want, got)

    def test_mismatched_targets_raise(self):
        rng = np.random.default_rng(4)
        model = init_mlp([3, 2], ["sigmoid"], "bce", rng)
        acts = forward(model, rng.random((5, 3)))
        with pytest.raises(ValueError):
            backward(model, acts, np.zeros((5, 3)))


class TestSampling:
    def test_bernoulli_mean_matches_probability(self):
        rng = np.random.default_rng(5)
        z = np.full((100_000, 1), 0.3)
        y = sample_targets(z, "bce", rng)
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert abs(y.mean() - 0.3) < 0.01

    def test_gaussian_noise_is_unit_variance(self):
        rng = np.random.default_rng(6)
        z = np.zeros((100_000, 1))
        y = sample_targets(z, "mse", rng)
        assert abs(y.std() - 1.0) < 0.01
        assert abs(y.mean()) < 0.01

    def test_degenerate_probabilities(self):
        rng = np.random.default_rng(7)
        z = np.array([[1.0, 0.0]])
        y = sample_targets(z, "bce", rng)
        assert_allclose(y, [[1.0, 0.0]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            sample_targets(np.array([[1.5]]), "bce", np.random.default_rng(0))


class TestLoss:
    def test_mse_is_half_squared_norm_per_sample(self):
        z = np.array([[1.0, 2.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [0.0, 2.0]])
        assert batch_loss(z, y, "mse") == pytest.approx(0.5 * (5.0 + 4.0) / 2.0)

    def test_bce_frozen_value(self):
        z = np.array([[0.5]])
        y = np.array([[1.0]])
        assert batch_loss(z, y, "bce") == pytest.approx(np.log(2.0))


class TestFisherBlock:
    def test_matches_per_sample_outer_products(self):
        rng = np.random.default_rng(8)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=6)
        for layer in (1, 2):
            ab, g = stats.abar[layer - 1], stats.g[layer - 1]
            m = ab.shape[0]
            want = np.zeros((ab.shape[1] * g.shape[1],) * 2)
            for t in range(m):
                dw = np.outer(g[t], ab[t])
                want += np.outer(vec(dw), vec(dw))
            want /= m
            got = exact_fim_block(stats, layer)
            assert_allclose(got, want, atol=1e-12)
            assert_allclose(got, got.T, atol=1e-14)
            assert np.linalg.eigvalsh(got).min() >= -1e-12

    def test_size_guard(self):
        stats = LayerBatchStats(
            [np.ones((2, 60))], [np.ones((2, 60))]
        )
        with pytest.raises(ValueError):
            exact_fim_block(stats, 1)

    def test_layer_out_of_range(self):
        rng = np.random.default_rng(9)
        _, _, stats = make_model_stats(rng)
        with pytest.raises(ValueError):
            zf_matvec(stats, 5, np.zeros(4))


class TestRearrangedProducts:
    def test_matvec_and_rmatvec_match_dense_rearrangement(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            _, _, stats = make_model_stats(rng, dims=(5, 4, 3), m=6)
            for layer in (1, 2):
                d = stats.abar[layer - 1].shape[1]
                dp = stats.g[layer - 1].shape[1]
                z = zigzag_oracle(exact_fim_block(stats, layer), d, dp)
                v = rng.standard_normal(dp * dp)
                u = rng.standard_normal(d * d)
                assert_allclose(zf_matvec(stats, layer, v), z @ v, atol=1e-10)
                assert_allclose(zf_rmatvec(stats, layer, u), z.T @ u, atol=1e-10)

    def test_adjoint_pair(self):
        """<Z v, u> == <v, Z^T u> on random probes."""
        rng = np.random.default_rng(11)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 3), m=5)
        for layer in (1, 2):
            d = stats.abar[layer - 1].shape[1]
            dp = stats.g[layer - 1].shape[1]
            for _ in range(10):
                v = rng.standard_normal(dp * dp)
                u = rng.standard_normal(d * d)
                lhs = zf_matvec(stats, layer, v) @ u
                rhs = v @ zf_rmatvec(stats, layer, u)
                assert_allclose(lhs, rhs, rtol=1e-8)
