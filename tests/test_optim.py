"""Optimizer protocol tests.

The natural step is replayed against a dense damped-inverse oracle, and
the schedule flags are traced over a short run with small periods.
"""

import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_model_stats
from kronfisher import optim
from kronfisher.factorizations import FACTORIZERS
from kronfisher.linalg import kron, vec
from kronfisher.mlp import backward, forward, init_mlp, sample_targets
from kronfisher.optim import (
    SECOND_ORDER_METHODS,
    OptimizerConfig,
    adam_step,
    fim_error_probe,
    first_order_step,
    init_train_state,
    natural_step,
    sgd_step,
    train_step,
)
from kronfisher.precond import Rank1Cache, Rank2Cache, damp_pair, precondition_layer


def tiny_model(rng, loss="bce", dims=(4, 3, 2)):
    acts = ["relu"] * (len(dims) - 2) + (["sigmoid"] if loss == "bce" else ["linear"])
    return init_mlp(list(dims), acts, loss, rng)


def tiny_batch(rng, model, m=8):
    x = rng.random((m, model.layer_dims[0]))
    y = sample_targets(forward(model, x)[-1], model.loss, rng)
    return x, y


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="newton")

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="sgd", lr=0.0)

    def test_second_order_needs_positive_damping_and_clip(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="kfac", damping=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(method="kfac", clip=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(method="kfac", t1=0)

    def test_state_slots_match_method(self):
        rng = np.random.default_rng(0)
        model = tiny_model(rng)
        s = init_train_state(model, OptimizerConfig(method="sgd"))
        assert s.velocity is not None and s.layer_states is None
        s = init_train_state(model, OptimizerConfig(method="adam"))
        assert s.m1 is not None and s.m2 is not None
        batch = tiny_batch(rng, model)
        two_term = {"deflation", "lanczos", "kfac_corrected"}
        for method in SECOND_ORDER_METHODS:
            config = OptimizerConfig(method=method, lr=1e-3)
            s = init_train_state(model, config)
            assert [ls.pairs for ls in s.layer_states] == [None, None]
            # the pair count, and with it the inverse cache, follows the method's factors
            natural_step(copy.deepcopy(model), batch, s, config)
            n, cache = (2, Rank2Cache) if method in two_term else (1, Rank1Cache)
            assert [len(ls.pairs) for ls in s.layer_states] == [n, n], method
            assert all(isinstance(ls.cache, cache) for ls in s.layer_states), method


class TestFirstOrderSteps:
    def test_sgd_two_steps_frozen(self):
        p = [np.array([1.0])]
        v = [np.array([0.0])]
        g = [np.array([1.0])]
        sgd_step(p, g, v, lr=0.1, momentum=0.9)
        assert p[0][0] == pytest.approx(0.9)
        sgd_step(p, g, v, lr=0.1, momentum=0.9)
        assert p[0][0] == pytest.approx(1.0 - 0.1 - 0.1 * 1.9)

    def test_adam_first_step_is_signed_unit(self):
        p = [np.array([1.0, 1.0])]
        g = [np.array([3.0, -0.25])]
        m1 = [np.zeros(2)]
        m2 = [np.zeros(2)]
        adam_step(p, g, m1, m2, t=1, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        assert_allclose(p[0], [1.0 - 0.01, 1.0 + 0.01], rtol=1e-6)

    def test_adam_first_step_scale_invariance(self):
        out = []
        for scale in (1.0, 100.0):
            p = [np.array([0.0])]
            m1, m2 = [np.zeros(1)], [np.zeros(1)]
            adam_step(
                p, [np.array([scale])], m1, m2, t=1, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8
            )
            out.append(p[0][0])
        assert out[0] == pytest.approx(out[1], rel=1e-6)

    def test_adam_steps_count_from_the_iteration(self):
        rng = np.random.default_rng(4)
        model = tiny_model(rng)
        batches = [tiny_batch(rng, model) for _ in range(3)]
        config = OptimizerConfig(method="adam", lr=1e-2)
        state = init_train_state(model, config)
        manual = [w.copy() for w in model.weights]
        m1 = [np.zeros_like(w) for w in manual]
        m2 = [np.zeros_like(w) for w in manual]
        for t, batch in enumerate(batches, start=1):
            # model.weights equal `manual` here, so these are the gradients at `manual`
            grads, _ = backward(model, forward(model, batch[0]), batch[1])
            adam_step(manual, grads, m1, m2, t=t, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
            first_order_step(model, batch, state, config)
            for w, want in zip(model.weights, manual):
                np.testing.assert_array_equal(w, want)
        assert state.iteration == 3

    def test_first_order_step_descends_on_average(self):
        rng = np.random.default_rng(1)
        model = tiny_model(rng)
        x, y = tiny_batch(rng, model, m=32)
        config = OptimizerConfig(method="sgd", lr=0.05)
        state = init_train_state(model, config)
        losses = [first_order_step(model, (x, y), state, config).loss for _ in range(30)]
        assert losses[-1] < losses[0]
        assert state.iteration == 30


class TestNaturalStepSchedule:
    def test_refresh_and_rebuild_flags(self):
        rng = np.random.default_rng(2)
        model = tiny_model(rng)
        batch = tiny_batch(rng, model)
        config = OptimizerConfig(method="kfac", lr=1e-3, t1=3, t2=2)
        state = init_train_state(model, config)
        flags = []
        for _ in range(6):
            m = natural_step(model, batch, state, config)
            flags.append((m.refreshed, m.rebuilt))
        assert flags == [
            (True, True),
            (False, True),
            (True, False),
            (False, True),
            (False, False),
            (True, True),
        ]

    def test_sigma_fields_only_on_refresh(self):
        rng = np.random.default_rng(3)
        model = tiny_model(rng)
        batch = tiny_batch(rng, model)
        config = OptimizerConfig(method="kpsvd", lr=1e-3, t1=5, t2=5)
        state = init_train_state(model, config)
        first = natural_step(model, batch, state, config)
        second = natural_step(model, batch, state, config)
        assert len(first.sigma1) == model.n_layers
        assert all(s > 0 for s in first.sigma1)
        assert second.sigma1 is None
        assert second.refreshed is False

    def test_kfac_sigma_is_nan(self):
        rng = np.random.default_rng(4)
        model = tiny_model(rng)
        batch = tiny_batch(rng, model)
        config = OptimizerConfig(method="kfac", lr=1e-3)
        state = init_train_state(model, config)
        m = natural_step(model, batch, state, config)
        assert all(np.isnan(s) for s in m.sigma1)


class TestNaturalStepDirection:
    @pytest.mark.parametrize("method", SECOND_ORDER_METHODS)
    def test_matches_dense_damped_solve(self, method):
        rng = np.random.default_rng(5)
        model = tiny_model(rng)
        batch = tiny_batch(rng, model)
        frozen = copy.deepcopy(model)
        config = OptimizerConfig(method=method, lr=1e-2, t1=1, t2=1, svd_eps=1e-10)
        state = init_train_state(model, config)
        metrics = natural_step(model, batch, state, config)

        # replay: same forward, true-target gradients, dense damped solve
        acts = forward(frozen, batch[0])
        grads, _ = backward(frozen, acts, batch[1])
        for i, ls in enumerate(state.layer_states):
            a_d, g_d = damp_pair(ls.pairs[0].left, ls.pairs[0].right, config.damping)
            dense = kron(a_d, g_d)
            for extra in ls.pairs[1:]:
                dense = dense + kron(extra.left, extra.right)
            want = np.linalg.solve(dense, vec(grads[i]))
            assert_allclose(vec(metrics.precond[i]), want, rtol=1e-6, atol=1e-10)

    @pytest.mark.parametrize("method", ["kfac", "kfac_corrected"])
    def test_wide_layers_take_the_rows_order(self, method, monkeypatch):
        """A net wider than its batch: both layers clear the apply-order
        rule, the step hands each layer its true-target rows, and the
        direction is still the dense damped solve."""
        handed = []

        def recording(state, grad_w, rows=None):
            handed.append(rows)
            return precondition_layer(state, grad_w, rows)

        monkeypatch.setattr(optim, "precondition_layer", recording)
        rng = np.random.default_rng(7)
        model = tiny_model(rng, dims=(40, 30, 40))
        m = 8
        for dp, d1 in zip(model.layer_dims[1:], model.layer_dims[:-1]):
            d = d1 + 1
            assert m * (d * d + dp * dp + d * dp) < d * dp * (d + dp)
        batch = tiny_batch(rng, model, m=m)
        frozen = copy.deepcopy(model)
        config = OptimizerConfig(method=method, lr=1e-2, t1=1, t2=1)
        state = init_train_state(model, config)
        metrics = natural_step(model, batch, state, config)

        grads, stats = backward(frozen, forward(frozen, batch[0]), batch[1])
        assert len(handed) == 2
        for rows, abar, g in zip(handed, stats.abar, stats.g):
            assert np.array_equal(rows[0], abar) and np.array_equal(rows[1], g)
        for i, ls in enumerate(state.layer_states):
            a_d, g_d = damp_pair(ls.pairs[0].left, ls.pairs[0].right, config.damping)
            dense = kron(a_d, g_d)
            for extra in ls.pairs[1:]:
                dense = dense + kron(extra.left, extra.right)
            want = np.linalg.solve(dense, vec(grads[i]))
            err = np.linalg.norm(vec(metrics.precond[i]) - want) / np.linalg.norm(want)
            assert err <= 1e-10, (i, err)

    def test_weight_update_applies_clipped_direction(self):
        rng = np.random.default_rng(6)
        model = tiny_model(rng)
        before = [w.copy() for w in model.weights]
        batch = tiny_batch(rng, model)
        config = OptimizerConfig(method="kfac", lr=1e-2)
        state = init_train_state(model, config)
        m = natural_step(model, batch, state, config)
        for w0, w1, p in zip(before, model.weights, m.precond):
            assert_allclose(w1, w0 - config.lr * m.nu * p, atol=1e-14)


class TestFailureModes:
    def test_non_finite_loss_raises_with_diagnostics(self):
        rng = np.random.default_rng(7)
        model = tiny_model(rng, loss="mse", dims=(3, 2))
        model.weights[0][:] = 1e200
        batch = (rng.random((4, 3)), rng.random((4, 2)))
        config = OptimizerConfig(method="kfac", lr=1e-2)
        state = init_train_state(model, config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                natural_step(model, batch, state, config)

    def test_first_order_non_finite_raises(self):
        rng = np.random.default_rng(8)
        model = tiny_model(rng, loss="mse", dims=(3, 2))
        model.weights[0][:] = 1e200
        batch = (rng.random((4, 3)), rng.random((4, 2)))
        config = OptimizerConfig(method="sgd")
        state = init_train_state(model, config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite loss .* weight norms"):
                first_order_step(model, batch, state, config)


class TestReproducibility:
    @pytest.mark.parametrize("method", ["kpsvd", "deflation"])
    def test_bitwise_identical_runs(self, method):
        def run():
            rng = np.random.default_rng(9)
            model = tiny_model(rng)
            batch = tiny_batch(rng, model)
            config = OptimizerConfig(method=method, lr=1e-3, t1=2, t2=2)
            state = init_train_state(model, config)
            losses = [train_step(model, batch, state, config).loss for _ in range(5)]
            return model.weights, losses

        w_a, l_a = run()
        w_b, l_b = run()
        assert l_a == l_b
        for a, b in zip(w_a, w_b):
            assert np.array_equal(a, b)


class TestErrorProbe:
    def test_single_sample_block_is_recovered_by_every_method(self):
        rng = np.random.default_rng(10)
        model = tiny_model(rng)
        x = rng.random((1, 4))
        errs = fim_error_probe(model, x, layer=1, rng=np.random.default_rng(0), eps=1e-10)
        for method, e in errs.items():
            assert e.frobenius <= 1e-6, method
            assert e.spectral <= 1e-6, method

    def test_optimality_orderings_on_real_batch(self):
        rng = np.random.default_rng(11)
        model = tiny_model(rng)
        x = rng.random((12, 4))
        errs = fim_error_probe(model, x, layer=1, rng=np.random.default_rng(1), eps=1e-9)
        slack = 1e-9
        assert errs["kpsvd"].frobenius <= errs["kfac"].frobenius + slack
        assert errs["deflation"].frobenius <= errs["kpsvd"].frobenius + slack
        assert errs["kfac_corrected"].frobenius <= errs["kfac"].frobenius + slack
        assert errs["lanczos"].frobenius == pytest.approx(
            errs["deflation"].frobenius, rel=1e-4, abs=1e-8
        )

    def test_probe_is_cold_and_deterministic(self):
        rng = np.random.default_rng(12)
        model = tiny_model(rng)
        x = rng.random((6, 4))
        a = fim_error_probe(model, x, layer=2, rng=np.random.default_rng(3))
        b = fim_error_probe(model, x, layer=2, rng=np.random.default_rng(3))
        for m in a:
            assert a[m].frobenius == b[m].frobenius
            assert a[m].spectral == b[m].spectral

    def test_reports_every_row_of_the_factor_table(self):
        """One entry per row of `FACTORIZERS`, in its order, and no layer
        outside the network."""
        rng = np.random.default_rng(13)
        model = tiny_model(rng)
        x = rng.random((6, 4))
        errs = fim_error_probe(model, x, layer=1, rng=np.random.default_rng(0))
        assert tuple(errs) == SECOND_ORDER_METHODS == tuple(FACTORIZERS)
        for layer in (0, 3):
            with pytest.raises(ValueError, match=rf"layer {layer} out of range 1\.\.2"):
                fim_error_probe(model, x, layer=layer, rng=np.random.default_rng(0))
