"""Optimizer protocol tests.

The natural step is replayed against a dense damped-inverse oracle, and
the schedule flags are traced over a short run with small periods.
"""

import copy
import dataclasses
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import make_model_stats
from kronfisher import lanes as runner
from kronfisher import mlp, optim
from kronfisher.experiment import ARCHITECTURES
from kronfisher.factorizations import DEFAULT_EPS, FACTORIZERS, KronPair
from kronfisher.linalg import NotPositiveDefiniteError, kron, vec
from kronfisher.mlp import backward, exact_fim_block, forward, init_mlp, sample_targets
from kronfisher.optim import (
    SECOND_ORDER_METHODS,
    OptimizerConfig,
    StepMetrics,
    adam_step,
    fim_error_probe,
    first_order_step,
    init_train_state,
    natural_step,
    sgd_step,
    train_step,
)
from kronfisher.precond import (
    KronApprox,
    damp_pair,
    precondition_layer,
    rebuild_cache,
    update_factors,
)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lr_damping_and_clip_rejected(self, value):
        for method in ("sgd", "kfac"):
            with pytest.raises(ValueError, match="lr must be > 0 and finite"):
                OptimizerConfig(method=method, lr=value)
        for name in ("damping", "clip"):
            with pytest.raises(ValueError, match=f"{name} must be > 0 and finite"):
                OptimizerConfig(method="kfac", **{name: value})
            # a first-order method reads neither
            OptimizerConfig(method="sgd", **{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_svd_eps_must_be_finite_and_non_negative(self, value):
        """NaN or a negative cutoff would keep every second pair, and an
        infinite one would zero them all."""
        for method in SECOND_ORDER_METHODS:
            with pytest.raises(ValueError, match="svd_eps must be >= 0 and finite"):
                OptimizerConfig(method=method, svd_eps=value)
            OptimizerConfig(method=method, svd_eps=0.0)
        OptimizerConfig(method="sgd", svd_eps=value)

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
            n = 2 if method in two_term else 1
            assert [len(ls.pairs) for ls in s.layer_states] == [n, n], method
            # one pair applies right grad left as it is; two map it back through denom
            assert all((ls.cache.denom is None) == (n == 1) for ls in s.layer_states), method


class TestFirstOrderSteps:
    def test_sgd_two_steps_frozen(self):
        p = [np.array([1.0])]
        v = [np.array([0.0])]
        g = [np.array([1.0])]
        sgd_step(p, g, v, lr=0.1)
        assert p[0][0] == pytest.approx(0.9)
        sgd_step(p, g, v, lr=0.1)
        assert p[0][0] == pytest.approx(1.0 - 0.1 - 0.1 * 1.9)

    def test_adam_first_step_is_signed_unit(self):
        p = [np.array([1.0, 1.0])]
        g = [np.array([3.0, -0.25])]
        m1 = [np.zeros(2)]
        m2 = [np.zeros(2)]
        adam_step(p, g, m1, m2, t=1, lr=0.01)
        assert_allclose(p[0], [1.0 - 0.01, 1.0 + 0.01], rtol=1e-6)

    def test_adam_first_step_scale_invariance(self):
        out = []
        for scale in (1.0, 100.0):
            p = [np.array([0.0])]
            m1, m2 = [np.zeros(1)], [np.zeros(1)]
            adam_step(p, [np.array([scale])], m1, m2, t=1, lr=0.01)
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
            adam_step(manual, grads, m1, m2, t=t, lr=1e-2)
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
        # k = 3 is the first refresh at or after k = 2, k = 6 the first at or after 4 and 6
        assert flags == [
            (True, True),
            (False, False),
            (True, True),
            (False, False),
            (False, False),
            (True, True),
        ]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 40))
    def test_rebuilds_follow_fresh_pairs(self, t1, t2, steps):
        """A step rebuilds at k = 1 and at the first refresh at or after each
        multiple of t2, and no rebuild sees the pairs its previous one saw."""
        rng = np.random.default_rng(t1 * 100 + t2)
        model = tiny_model(rng)
        batch = tiny_batch(rng, model)
        config = OptimizerConfig(method="kfac", lr=1e-2, t1=t1, t2=t2)
        state = init_train_state(model, config)
        seen = {}

        def rebuild(ls, damping, _fn=optim.rebuild_cache):
            pairs = [(p.left.copy(), p.right.copy()) for p in ls.pairs]
            before = seen.get(id(ls))
            assert before is None or not all(
                np.array_equal(a, b) for old, new in zip(before, pairs) for a, b in zip(old, new)
            )
            seen[id(ls)] = pairs
            return _fn(ls, damping)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "rebuild_cache", rebuild)
            rebuilt = [k for k in range(1, steps + 1)
                       if natural_step(model, batch, state, config).rebuilt]
        refreshes = [k for k in range(1, steps + 1) if k == 1 or k % t1 == 0]
        want = {1}
        for multiple in range(t2, steps + 1, t2):
            for k in refreshes:
                if k >= multiple:
                    want.add(k)
                    break
        assert rebuilt == sorted(want)

    def test_rebuilds_only_after_refreshes(self, monkeypatch):
        """At t1 = 20 and t2 = 5, 60 steps rebuild each layer at the four
        refreshes, k = 1, 20, 40 and 60, and at no step between them."""
        calls = []

        def rebuild(ls, damping, _fn=optim.rebuild_cache):
            calls.append(id(ls))
            return _fn(ls, damping)

        monkeypatch.setattr(optim, "rebuild_cache", rebuild)
        rng = np.random.default_rng(24)
        model = tiny_model(rng)
        batch = tiny_batch(rng, model)
        config = OptimizerConfig(method="kfac", lr=1e-3, t1=20, t2=5)
        state = init_train_state(model, config)
        for _ in range(60):
            natural_step(model, batch, state, config)
        assert [calls.count(id(ls)) for ls in state.layer_states] == [4, 4]

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


class TestDegenerateSteps:
    @pytest.mark.parametrize(
        "method,one_term",
        [("deflation", "kpsvd"), ("lanczos", "kpsvd"), ("kfac_corrected", "kfac")],
    )
    def test_batch_of_one_zeroes_every_second_pair(self, method, one_term):
        """At batch size 1 every layer's rearranged block has rank one, so
        the two-term method's second pair is degenerate on every layer and
        its steps track the one-term method's."""
        rng = np.random.default_rng(9)
        two = tiny_model(rng, dims=(16, 8, 4, 8, 16))
        one = copy.deepcopy(two)
        batches = [tiny_batch(rng, two, m=1) for _ in range(4)]
        configs = [OptimizerConfig(method=name, lr=0.1, t1=1, t2=1, batch_size=1)
                   for name in (method, one_term)]
        states = [init_train_state(model, c) for model, c in zip((two, one), configs)]
        for batch in batches:
            metrics = natural_step(two, batch, states[0], configs[0])
            natural_step(one, batch, states[1], configs[1])
            assert metrics.degenerate == [True] * 4
            for ls in states[0].layer_states:
                assert not ls.pairs[1].left.any() and not ls.pairs[1].right.any()
                assert np.all(ls.cache.denom == 1.0)
            for w2, w1 in zip(two.weights, one.weights):
                assert np.linalg.norm(w2 - w1) <= 1e-12 * np.linalg.norm(w1)


class TestSampledBackward:
    def test_only_the_true_target_backward_forms_gradients(self, monkeypatch):
        """The refresh and the probe read only the sampled pass's rows."""
        calls = []

        def recording(model, acts, targets, **kwargs):
            calls.append(kwargs.get("grads", True))
            return backward(model, acts, targets, **kwargs)

        monkeypatch.setattr(optim, "backward", recording)
        rng = np.random.default_rng(14)
        model = tiny_model(rng)
        config = OptimizerConfig(method="kfac", t1=2, t2=2)
        state = init_train_state(model, config)
        for _ in range(2):
            natural_step(model, tiny_batch(rng, model), state, config)
        assert calls == [False, True, False, True]
        calls.clear()
        fim_error_probe(model, rng.random((6, 4)), layer=1, rng=rng)
        assert calls == [False]

    def test_each_step_augments_every_layer_input_once(self, monkeypatch):
        """Plain and refresh steps alike build each layer's abar rows once,
        in one `forward`, and both statistics of a refresh hold those arrays."""
        rng = np.random.default_rng(15)
        model = tiny_model(rng, dims=(4, 3, 3, 2))
        batches = [tiny_batch(rng, model) for _ in range(3)]
        forwarded, seen = [], []

        def forwarding(model, x):
            forwarded.append(forward(model, x))
            return forwarded[-1]

        def recording(model, acts, targets, **kwargs):
            out = backward(model, acts, targets, **kwargs)
            seen.append(out[1])
            return out

        monkeypatch.setattr(optim, "forward", forwarding)
        monkeypatch.setattr(optim, "backward", recording)
        config = OptimizerConfig(method="kfac", t1=3, t2=3)
        state = init_train_state(model, config)
        for refreshed, batch in zip((True, False, True), batches):
            forwarded.clear()
            seen.clear()
            assert natural_step(model, batch, state, config).refreshed is refreshed
            assert len(forwarded) == 1
            assert len(seen) == (2 if refreshed else 1)
            for stats in seen:
                assert all(a is b for a, b in zip(stats.abar, forwarded[-1][:-1], strict=True))


class TestSharedRows:
    def test_readers_leave_the_rows_bit_identical(self, monkeypatch):
        """The statistics alias `forward`'s rows for a whole step, so every
        factorization, both apply orders, the dense block and the probe
        must read them without writing."""
        snapshots = []

        def snapshot(stats):
            rows = stats.abar + stats.g
            snapshots.append((rows, [r.copy() for r in rows]))

        def recording(*args, **kwargs):
            out = backward(*args, **kwargs)
            snapshot(out[1])
            return out

        rng = np.random.default_rng(16)
        model = tiny_model(rng, dims=(40, 30, 40))
        x = rng.random((8, 40))
        acts = forward(model, x)
        grads, stats = backward(model, acts, sample_targets(acts[-1], model.loss, rng))
        snapshot(stats)
        for i in range(model.n_layers):
            exact_fim_block(stats, i + 1)
            for factorize in FACTORIZERS.values():
                ls = KronApprox()
                update_factors(ls, factorize(stats, i + 1, DEFAULT_EPS), 1)
                rebuild_cache(ls, 1e-2)
                precondition_layer(ls, grads[i])
                precondition_layer(ls, grads[i], (stats.abar[i], stats.g[i]))
        monkeypatch.setattr(optim, "backward", recording)
        fim_error_probe(model, x, layer=2, rng=rng)
        assert len(snapshots) == 2
        for rows, before in snapshots:
            assert all(np.array_equal(a, b) for a, b in zip(rows, before))


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

    def test_a_dead_layer_reads_zero_error(self):
        """No unit of layer 4 is ever active, so its sampled g rows, its
        Fisher block and every method's approximation are exactly zero:
        the probe reports the absolute error, 0.0, not 0 / 0."""
        arch = ARCHITECTURES["curves_desk"]
        rng = np.random.default_rng(12)
        model = init_mlp(arch["layer_dims"], arch["activations"], arch["loss"], rng)
        model.weights[3][:, 0] = -100.0
        errs = fim_error_probe(model, rng.random((16, 64)), layer=4, rng=rng)
        assert set(errs) == set(FACTORIZERS)
        for method, e in errs.items():
            assert (e.frobenius, e.spectral) == (0.0, 0.0), method

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


# two layers whose units and applies both clear lanes._PARALLEL_FLOOR at m = 256,
# while the batch stays below the row cut
WIDE_DIMS = (400, 300, 400)
WIDE_BATCH = 256
# the curves_desk net, whose every section stays below lanes._PARALLEL_FLOOR
DESK_DIMS = (64, 32, 16, 6, 16, 32, 64)
# the curves net, whose batch of 256 rows `forward` and `backward` cut in halves
CURVES_DIMS = tuple(ARCHITECTURES["curves"]["layer_dims"])


def record_threads(monkeypatch):
    """Names of the threads that run each layer's rebuild and apply."""
    seen = []
    for name in ("rebuild_cache", "precondition_layer"):
        def spy(*args, _fn=getattr(optim, name), **kwargs):
            seen.append(threading.current_thread().name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(optim, name, spy)
    return seen


class TestLayerParallel:
    """The layer-parallel sections of `natural_step` and the rules that pick their lanes."""

    def run_steps(self, monkeypatch, lanes, method, t1, t2, steps=6, dims=WIDE_DIMS):
        monkeypatch.setattr(runner, "_lanes", lambda: lanes)
        rng = np.random.default_rng(21)
        model = tiny_model(rng, dims=dims)
        batch = tiny_batch(rng, model, m=WIDE_BATCH)
        config = OptimizerConfig(method=method, lr=0.1, damping=1e-2, clip=0.1, t1=t1, t2=t2)
        state = init_train_state(model, config)
        metrics = [train_step(model, batch, state, config) for _ in range(steps)]
        return model, state, metrics

    def assert_lockstep(self, serial, parallel):
        """Weights, every `StepMetrics` field and the optimizer state agree bit for bit."""
        (model_a, state_a, metrics_a), (model_b, state_b, metrics_b) = serial, parallel
        for a, b in zip(model_a.weights, model_b.weights, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(metrics_a, metrics_b, strict=True):
            for field in dataclasses.fields(StepMetrics):
                va, vb = getattr(a, field.name), getattr(b, field.name)
                if isinstance(va, list):
                    assert len(va) == len(vb)
                    assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(va, vb))
                else:
                    assert va == vb or np.isnan(va) and np.isnan(vb), field.name
        for name in ("velocity", "m1", "m2"):
            for a, b in zip(getattr(state_a, name) or [], getattr(state_b, name) or [],
                            strict=True):
                assert np.array_equal(a, b)
        for ls_a, ls_b in zip(state_a.layer_states or [], state_b.layer_states or [],
                              strict=True):
            for pa, pb in zip(ls_a.pairs, ls_b.pairs, strict=True):
                assert np.array_equal(pa.left, pb.left) and np.array_equal(pa.right, pb.right)
            assert (ls_a.cache.denom is None) == (ls_b.cache.denom is None)
            for name, value in vars(ls_a.cache).items():
                assert np.array_equal(value, getattr(ls_b.cache, name))

    @pytest.mark.parametrize("t1, t2", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("method", ["kfac", "deflation", "kfac_corrected"])
    def test_two_lanes_step_in_lockstep_with_one(self, monkeypatch, method, t1, t2):
        serial = self.run_steps(monkeypatch, 1, method, t1, t2)
        seen = record_threads(monkeypatch)
        parallel = self.run_steps(monkeypatch, 2, method, t1, t2)
        assert len(set(seen)) == 2
        self.assert_lockstep(serial, parallel)

    @pytest.mark.parametrize("method, t1, t2", [("kfac", 2, 2), ("sgd", 1, 1), ("adam", 1, 1)])
    def test_a_cut_batch_steps_in_lockstep_on_one_and_two_lanes(self, monkeypatch, method, t1, t2):
        """The curves net at m = 256: forward's and backward's row halves run
        on both lanes, and the step matches the one-lane step bit for bit."""
        serial = self.run_steps(monkeypatch, 1, method, t1, t2, steps=4, dims=CURVES_DIMS)
        seen = []

        def spy(kind, s, _fn=mlp._activate):
            seen.append(threading.current_thread().name)
            return _fn(kind, s)

        monkeypatch.setattr(mlp, "_activate", spy)
        parallel = self.run_steps(monkeypatch, 2, method, t1, t2, steps=4, dims=CURVES_DIMS)
        assert len(set(seen)) == 2
        self.assert_lockstep(serial, parallel)

    @pytest.mark.parametrize("dims, m, block", [(CURVES_DIMS, 256, 128), (DESK_DIMS, 64, 64)])
    def test_the_row_cut_is_the_same_on_any_lane_count(self, monkeypatch, dims, m, block):
        """One, two or three lanes cut a curves batch of 256 rows into the
        same two halves, and leave a desk batch of 64 whole; `forward`
        returns the same bits on each."""
        rng = np.random.default_rng(25)
        model = tiny_model(rng, dims=dims)
        x = rng.random((m, dims[0]))
        rows, outs = [], []

        def spy(kind, s, _fn=mlp._activate):
            rows[-1].append(s.shape[0])
            return _fn(kind, s)

        monkeypatch.setattr(mlp, "_activate", spy)
        for lanes in (1, 2, 3):
            monkeypatch.setattr(runner, "_lanes", lambda: lanes)
            rows.append([])
            outs.append(forward(model, x))
        assert rows == [[block] * (m // block * model.n_layers)] * 3
        for out in outs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(out, outs[0], strict=True))

    def test_every_lane_keeps_the_callers_errstate(self, monkeypatch):
        """A pool lane sees the `np.errstate` of the thread that started the section."""
        monkeypatch.setattr(runner, "_lanes", lambda: 2)
        both = threading.Barrier(2, timeout=30)  # one unit per lane

        def unit(i):
            both.wait()
            return np.geterr()["over"], threading.current_thread().name

        with np.errstate(over="raise"):
            got = runner.run([runner._PARALLEL_FLOOR] * 2, unit)
        assert [over for over, _ in got] == ["raise", "raise"]
        assert len({name for _, name in got}) == 2

    def test_a_section_inside_a_unit_runs_on_its_thread(self, monkeypatch):
        """A unit on the one pool thread calls `forward` on a cut batch: the
        halves run on that thread instead of waiting on the pool it holds."""
        monkeypatch.setattr(runner, "_lanes", lambda: 2)
        monkeypatch.setattr(runner, "_pool", None)
        rng = np.random.default_rng(26)
        model = tiny_model(rng, dims=CURVES_DIMS)
        x = rng.random((256, CURVES_DIMS[0]))
        want = forward(model, x)[-1]
        both = threading.Barrier(2, timeout=60)  # one unit per lane, so one on the pool
        names, got = {}, []

        def unit(i):
            both.wait()
            names[i] = threading.current_thread().name
            return forward(model, x)[-1]

        outer = threading.Thread(
            target=lambda: got.extend(runner.run([runner._PARALLEL_FLOOR] * 2, unit)),
            daemon=True,
        )
        outer.start()
        outer.join(timeout=30)
        deadlocked = outer.is_alive()
        if deadlocked:
            # a worker more runs the section the pool thread waits on, so the suite can exit
            runner._pool._max_workers += 1
            runner._pool.submit(int)
            outer.join(timeout=30)
        runner._pool.shutdown(wait=True)
        assert not deadlocked
        assert len(set(names.values())) == 2
        assert len(got) == 2 and all(np.array_equal(out, want) for out in got)

    def poisoned_step(self, monkeypatch, lanes):
        """Two steps, then NaN left factors on both layers and a third step
        that blends fresh pairs into them and rebuilds; returns the state,
        the caches held before the third step, the raised exception and
        the failures of each layer's rebuild."""
        model, state, _ = self.run_steps(monkeypatch, lanes, "kfac", 3, 3, steps=2)
        held = [ls.cache for ls in state.layer_states]
        for ls in state.layer_states:
            ls.pairs = tuple(KronPair(np.full_like(p.left, np.nan), p.right) for p in ls.pairs)
        raised = {}

        def rebuild(ls, damping, _fn=optim.rebuild_cache):
            try:
                _fn(ls, damping)
            except NotPositiveDefiniteError as exc:
                raised[id(ls)] = exc
                raise

        monkeypatch.setattr(optim, "rebuild_cache", rebuild)
        x = np.random.default_rng(0).random((WIDE_BATCH, WIDE_DIMS[0]))
        with pytest.raises(NotPositiveDefiniteError) as exc:
            natural_step(model, (x, x), state, OptimizerConfig(method="kfac", t1=3, t2=3))
        return state, held, exc.value, raised

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_lowest_failing_layer_raises_and_keeps_its_cache(self, monkeypatch, lanes):
        state, held, exc, raised = self.poisoned_step(monkeypatch, lanes)
        # every layer runs: both layers raise at either lane count
        assert len(raised) == 2
        assert exc is raised[id(state.layer_states[0])]
        assert [ls.cache for ls in state.layer_states] == held
        assert state.iteration == 2

    def test_a_failed_step_leaves_the_same_state_on_any_lane_count(self, monkeypatch):
        serial, _, exc_serial, raised_serial = self.poisoned_step(monkeypatch, 1)
        parallel, _, exc_parallel, raised_parallel = self.poisoned_step(monkeypatch, 2)
        assert exc_serial is raised_serial[id(serial.layer_states[0])]
        assert exc_parallel is raised_parallel[id(parallel.layer_states[0])]
        assert (type(exc_serial), str(exc_serial)) == (type(exc_parallel), str(exc_parallel))
        assert serial.iteration == parallel.iteration == 2
        for ls_a, ls_b in zip(serial.layer_states, parallel.layer_states, strict=True):
            for pa, pb in zip(ls_a.pairs, ls_b.pairs, strict=True):
                assert np.array_equal(pa.left, pb.left, equal_nan=True)
                assert np.array_equal(pa.right, pb.right, equal_nan=True)
            assert (ls_a.cache.denom is None) == (ls_b.cache.denom is None)
            for name, value in vars(ls_a.cache).items():
                assert np.array_equal(value, getattr(ls_b.cache, name))

    @pytest.mark.parametrize("lanes", [1, 2, 8])
    def test_more_lanes_than_cores_fill_every_slot(self, monkeypatch, lanes):
        """Up to eight lanes over sixteen layers, switching threads every
        microsecond: every layer runs exactly once, also after a failure,
        each result lands in its own layer's slot, and the lowest-numbered
        failure is the one raised."""
        monkeypatch.setattr(runner, "_lanes", lambda: lanes)
        monkeypatch.setattr(runner, "_pool", None)
        costs = [runner._PARALLEL_FLOOR] * 16
        failing = (9, 5)
        ran = []

        def unit(i):
            ran.append(i)
            total = sum(range(20_000))  # interpreter work for the lanes to interleave
            if i in failing:
                raise ValueError(i)
            return i + total

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ran.clear()
                with pytest.raises(ValueError, match="^5$"):
                    runner.run(costs, unit)
                assert sorted(ran) == list(range(16))
                ran.clear()
                got = runner.run(costs, lambda i: unit(i % 5))
                assert got == [unit(i % 5) for i in range(16)]
        finally:
            sys.setswitchinterval(interval)
            if runner._pool is not None:
                runner._pool.shutdown(wait=True, cancel_futures=True)

    def test_one_lane_runs_whole_units(self, monkeypatch):
        """One lane factors and rebuilds each layer before the next, taking
        the costliest layer left first, as the lanes do."""
        monkeypatch.setattr(runner, "_lanes", lambda: 1)
        rng = np.random.default_rng(23)
        model = tiny_model(rng, dims=DESK_DIMS)
        batch = tiny_batch(rng, model, m=64)
        config = OptimizerConfig(method="kfac", t1=1, t2=1)
        state = init_train_state(model, config)
        calls = []

        def factorize(stats, layer, eps, _fn=FACTORIZERS["kfac"]):
            calls.append(("factorize", layer))
            return _fn(stats, layer, eps)

        def rebuild(ls, damping, _fn=optim.rebuild_cache):
            calls.append(("rebuild", [id(s) for s in state.layer_states].index(id(ls)) + 1))
            return _fn(ls, damping)

        monkeypatch.setitem(FACTORIZERS, "kfac", factorize)
        monkeypatch.setattr(optim, "rebuild_cache", rebuild)
        for _ in range(2):
            natural_step(model, batch, state, config)
        costs = [64 * (d * d + dp * dp) + d ** 3 + dp ** 3 for dp, d in
                 (w.shape for w in model.weights)]
        order = [i + 1 for i in sorted(range(len(costs)), key=costs.__getitem__)[::-1]]
        assert order == [1, 6, 2, 5, 3, 4]
        unit = [(phase, layer) for layer in order for phase in ("factorize", "rebuild")]
        assert calls == unit * 2

    @pytest.mark.parametrize(
        "env, cores, lanes",
        [
            ({}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4),
            ({"OPENBLAS_NUM_THREADS": "3"}, 2, 1),
            ({"OMP_NUM_THREADS": "1"}, 4, 4),
            ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
            ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}, 4, 2),
            ({"OPENBLAS_NUM_THREADS": "0"}, 4, 1),
            ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
            ({"GOTO_NUM_THREADS": "1"}, 2, 2),
        ],
    )
    def test_lanes_are_cores_over_blas_threads(self, monkeypatch, env, cores, lanes):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert runner._lanes() == lanes

    def test_import_starts_no_thread(self):
        src = str(Path(optim.__file__).resolve().parent.parent)
        code = "import threading, kronfisher.optim; print(threading.active_count())"
        out = subprocess.run(
            [sys.executable, "-c", code], env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "1"

    def test_a_light_net_steps_on_the_calling_thread(self, monkeypatch):
        """Below the floor two lanes run serially: no thread is started or used."""
        seen = record_threads(monkeypatch)
        before = threading.active_count()
        monkeypatch.setattr(runner, "_lanes", lambda: 2)
        rng = np.random.default_rng(22)
        model = tiny_model(rng, dims=DESK_DIMS)
        batch = tiny_batch(rng, model, m=64)
        config = OptimizerConfig(method="kfac_corrected", lr=0.3, t1=1, t2=1)
        state = init_train_state(model, config)
        for _ in range(2):
            natural_step(model, batch, state, config)
        assert threading.active_count() == before
        assert set(seen) == {threading.current_thread().name}

    def test_a_curves_step_runs_both_sections_on_two_lanes(self, monkeypatch):
        """The `curves` net at m = 256 clears the floor in both sections."""
        seen = record_threads(monkeypatch)
        monkeypatch.setattr(runner, "_lanes", lambda: 2)
        rng = np.random.default_rng(24)
        dims = ARCHITECTURES["curves"]["layer_dims"]
        model = tiny_model(rng, dims=dims)
        batch = tiny_batch(rng, model, m=256)
        config = OptimizerConfig(method="kfac", t1=1, t2=1)
        natural_step(model, batch, init_train_state(model, config), config)
        layers = len(dims) - 1
        # the refresh section's rebuilds all finish before the first apply
        assert len(seen) == 2 * layers
        assert len(set(seen[:layers])) == 2
        assert len(set(seen[layers:])) == 2
