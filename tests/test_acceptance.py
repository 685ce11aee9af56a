"""Acceptance suite: twelve end-to-end criteria, one test each.

Each criterion prints one ACCEPTANCE line into the terminal summary with
its wall time, via the hook in conftest.  Tolerances are fixed here and
must not be loosened; every expected value comes from an independent
oracle (dense SVD, finite differences, explicit worked examples).
"""

import contextlib
import copy
import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    ACCEPTANCE_LINES,
    make_model_stats,
    rand_spd,
    rand_sym,
    zigzag_oracle,
)
from kronfisher.experiment import (
    ETA_GRID,
    ExperimentConfig,
    ProbeSpec,
    grid_search,
    run_experiment,
)
from kronfisher.factorizations import (
    deflation_factors,
    kfac_corrected_factors,
    kfac_factors,
    kpsvd_factors,
    lanczos_factors,
    psd_select,
)
from kronfisher.linalg import kron, mat, vec, zigzag
from kronfisher.mlp import (
    LayerBatchStats,
    backward,
    batch_loss,
    exact_fim_block,
    forward,
    init_mlp,
    sample_targets,
    zf_matvec,
    zf_rmatvec,
)
from kronfisher.optim import (
    SECOND_ORDER_METHODS,
    OptimizerConfig,
    init_train_state,
    natural_step,
)
from kronfisher.precond import (
    apply_rank1_inverse,
    damp_pair,
    damping_pi,
    ema_update,
    kl_clip,
    kron_sum_apply,
    kron_sum_prepare,
)


@contextlib.contextmanager
def criterion(n: int, budget_s: float, notes: dict):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {n} FAIL ({elapsed:.1f}s, budget {budget_s:g}s)")
        raise
    elapsed = time.perf_counter() - start
    extra = "".join(f"; {k}={v}" for k, v in notes.items())
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {n} PASS ({elapsed:.1f}s, budget {budget_s:g}s{extra})"
    )


def pair_residual(z, pairs):
    r = z.copy()
    for p in pairs:
        r -= np.outer(vec(p.left), vec(p.right))
    return float(np.linalg.norm(r))


def best_rank_k_residual(z, k):
    s = np.linalg.svd(z, compute_uv=False)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def random_stats(rng, max_units=6):
    n_layers = int(rng.integers(2, 4))
    dims = [int(rng.integers(2, max_units + 1)) for _ in range(n_layers + 1)]
    _, _, stats = make_model_stats(rng, dims=tuple(dims), m=int(rng.integers(2, 9)))
    return stats


class TestAcceptance:
    def test_01_rearrangement_identity(self):
        with criterion(1, 1.0, {}):
            rng = np.random.default_rng(101)
            for _ in range(100):
                d = int(rng.integers(1, 6))
                dp = int(rng.integers(1, 6))
                r = rng.standard_normal((d, d))
                s = rng.standard_normal((dp, dp))
                m = kron(r, s)
                z = zigzag(m, d, dp)
                want = np.outer(vec(r), vec(s))
                scale = max(np.linalg.norm(want), 1e-30)
                assert np.linalg.norm(z - want) <= 1e-10 * scale
                # the rearrangement only permutes entries
                assert np.array_equal(np.sort(z.ravel()), np.sort(m.ravel()))
                assert_allclose(z, zigzag_oracle(m, d, dp), atol=1e-14)

    def test_02_matrix_free_products(self):
        with criterion(2, 5.0, {}):
            rng = np.random.default_rng(102)
            probes = 0
            while probes < 100:
                stats = random_stats(rng)
                for layer in range(1, stats.n_layers + 1):
                    d = stats.abar[layer - 1].shape[1]
                    dp = stats.g[layer - 1].shape[1]
                    z = zigzag_oracle(exact_fim_block(stats, layer), d, dp)
                    v = rng.standard_normal(dp * dp)
                    u = rng.standard_normal(d * d)
                    assert_allclose(zf_matvec(stats, layer, v), z @ v, rtol=1e-10, atol=1e-10)
                    assert_allclose(zf_rmatvec(stats, layer, u), z.T @ u, rtol=1e-10, atol=1e-10)
                    probes += 1

    def test_03_kpsvd_matches_dense_best_rank_one(self):
        with criterion(3, 10.0, {}):
            rng = np.random.default_rng(103)
            for i in range(25):
                # signed inputs and deltas, not drawn through a network
                d = int(rng.integers(2, 5))
                dp = int(rng.integers(2, 5))
                m = int(rng.integers(2, 9))
                ab = np.hstack([np.ones((m, 1)), rng.standard_normal((m, d - 1))])
                stats = LayerBatchStats([ab], [rng.standard_normal((m, dp))])
                z = zigzag_oracle(exact_fim_block(stats, 1), d, dp)
                res = kpsvd_factors(stats, 1)
                got = pair_residual(z, res.pairs)
                want = best_rank_k_residual(z, 1)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)
            for i in range(25):
                stats = random_stats(rng, max_units=4)
                layer = int(rng.integers(1, stats.n_layers + 1))
                d = stats.abar[layer - 1].shape[1]
                dp = stats.g[layer - 1].shape[1]
                z = zigzag_oracle(exact_fim_block(stats, layer), d, dp)
                res = kpsvd_factors(stats, layer)
                got = pair_residual(z, res.pairs)
                want = best_rank_k_residual(z, 1)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_04_factor_symmetry_and_projection(self):
        with criterion(4, 5.0, {}):
            rng = np.random.default_rng(104)
            for _ in range(10):
                stats = random_stats(rng, max_units=5)
                layer = int(rng.integers(1, stats.n_layers + 1))
                d = stats.abar[layer - 1].shape[1]
                dp = stats.g[layer - 1].shape[1]
                f = exact_fim_block(stats, layer)
                res = kpsvd_factors(stats, layer)
                t = res.triplets[0]
                mu, mv = mat(t.u, d, d), mat(t.v, dp, dp)
                assert np.linalg.norm(mu - mu.T) <= 1e-8 * np.linalg.norm(mu)
                assert np.linalg.norm(mv - mv.T) <= 1e-8 * np.linalg.norm(mv)
                for factor in (res.pairs[0].left, res.pairs[0].right):
                    floor = -1e-8 * np.trace(factor) / factor.shape[0]
                    assert np.linalg.eigvalsh(factor).min() >= floor
                # projecting the symmetrized factors cannot move the
                # product further from the (positive semidefinite) block
                root = np.sqrt(t.sigma)
                raw_l = root * 0.5 * (mu + mu.T)
                raw_r = root * 0.5 * (mv + mv.T)
                before = np.linalg.norm(f - kron(raw_l, raw_r))
                after = np.linalg.norm(f - kron(psd_select(raw_l), psd_select(raw_r)))
                assert after <= before + 1e-10

    def test_05_rank_two_methods_match_dense_top_two(self):
        with criterion(5, 20.0, {}):
            for seed in range(5):
                rng = np.random.default_rng(500 + seed)
                _, _, stats = make_model_stats(rng, dims=(3, 3, 2), m=8)
                z = zigzag_oracle(exact_fim_block(stats, 1), 4, 3)
                want = best_rank_k_residual(z, 2)
                defl = deflation_factors(stats, 1)
                assert not defl.degenerate
                assert pair_residual(z, defl.pairs) == pytest.approx(want, rel=1e-6, abs=1e-9)
                lanc = lanczos_factors(stats, 1)
                assert not lanc.degenerate
                assert pair_residual(z, lanc.pairs) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_06_structured_solve_matches_dense_inverse(self):
        with criterion(6, 10.0, {}):
            rng = np.random.default_rng(106)
            for i in range(100):
                d = int(rng.integers(2, 7))
                dp = int(rng.integers(2, 7))
                a = rand_spd(rng, d)
                b = rand_spd(rng, dp)
                if i % 10 == 0:
                    c = np.zeros((d, d))
                    dd = np.zeros((dp, dp))
                else:
                    c = rand_sym(rng, d, scale=0.3)
                    dd = rand_sym(rng, dp, scale=0.3)
                cache = kron_sum_prepare(a, b, c, dd)
                w = rng.standard_normal((dp, d))
                got = vec(kron_sum_apply(cache, w))
                want = np.linalg.solve(kron(a, b) + kron(c, dd), vec(w))
                assert_allclose(got, want, rtol=1e-8, atol=1e-10)
                if i % 10 == 0:
                    assert_allclose(
                        kron_sum_apply(cache, w),
                        apply_rank1_inverse(a, b, w),
                        rtol=1e-9,
                        atol=1e-11,
                    )

    def test_07_worked_examples(self):
        with criterion(7, 1.0, {}):
            assert damping_pi(np.eye(3), 4.0 * np.eye(2)) == pytest.approx(0.5)

            from kronfisher.factorizations import KronPair

            old = KronPair(np.full((2, 2), 7.0), np.full((2, 2), 7.0))
            new = KronPair(np.eye(2), np.eye(2))
            out = ema_update(old, new, k=1, alpha=0.95)
            assert_allclose(out.left, new.left)

            c = 1e-2
            nu, _ = kl_clip([np.array([2.0 * c])], [np.array([2.0])], c)
            assert nu == pytest.approx(0.5)

    def test_08_gradient_check(self):
        with criterion(8, 10.0, {}):
            rng = np.random.default_rng(108)
            combos = [(h, "bce", "sigmoid") for h in ("relu", "sigmoid", "linear")]
            combos += [(h, "mse", "linear") for h in ("relu", "sigmoid", "linear")]
            combos += [("relu", "mse", "sigmoid")]
            for hidden, loss, out_act in combos:
                model = init_mlp([3, 4, 2], [hidden, out_act], loss, rng)
                x = rng.standard_normal((6, 3))
                y = rng.uniform(0.1, 0.9, size=(6, 2))
                grads, _ = backward(model, forward(model, x), y)
                h = 1e-5
                for w, g in zip(model.weights, grads):
                    for i in range(w.shape[0]):
                        for j in range(w.shape[1]):
                            orig = w[i, j]
                            w[i, j] = orig + h
                            up = batch_loss(forward(model, x)[-1], y, loss)
                            w[i, j] = orig - h
                            down = batch_loss(forward(model, x)[-1], y, loss)
                            w[i, j] = orig
                            fd = (up - down) / (2.0 * h)
                            assert g[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_09_desk_run_error_orderings(self, tmp_path):
        notes = {}
        with criterion(9, 300.0, notes):
            config = ExperimentConfig(
                preset="curves_desk",
                epochs=50,
                n_train=256,
                n_val=0,
                side=8,
                optimizer=OptimizerConfig(
                    method="adam", lr=1e-3, batch_size=64, seed=7, svd_eps=1e-8
                ),
                probe=ProbeSpec(every=10, layer=4),
                out_dir=str(tmp_path / "probe_run"),
            )
            result = run_experiment(config, write_artifacts=False)
            probes = [r for r in result.records if "err_frob_kfac" in r.extra]
            assert result.records[-1].iteration == 200
            assert len(probes) == 20
            slack = 1e-9
            frob = {
                m: np.array([p.extra[f"err_frob_{m}"] for p in probes])
                for m in SECOND_ORDER_METHODS
            }
            spec = {
                m: np.array([p.extra[f"err_spec_{m}"] for p in probes])
                for m in SECOND_ORDER_METHODS
            }
            # single-product optimality, then the gain from the second term
            assert np.all(frob["kpsvd"] <= frob["kfac"] + slack)
            assert np.all(frob["deflation"] <= frob["kpsvd"] + slack)
            assert np.all(frob["kfac_corrected"] <= frob["kfac"] + slack)
            for m in SECOND_ORDER_METHODS:
                notes[f"frob_{m}"] = f"{frob[m].mean():.4f}"
            notes["spec_kfac"] = f"{spec['kfac'].mean():.4f}"
            notes["spec_deflation"] = f"{spec['deflation'].mean():.4f}"
            notes["lanczos_vs_deflation"] = (
                f"{np.abs(frob['lanczos'] - frob['deflation']).max():.2e}"
            )

    def test_10_speed_gate(self, tmp_path):
        notes = {}
        with criterion(10, 900.0, notes):
            base = dict(
                preset="curves_desk",
                n_train=256,
                n_val=64,
                side=8,
            )
            sgd_config = ExperimentConfig(
                epochs=20,
                optimizer=OptimizerConfig(
                    method="sgd", lr=1e-2, batch_size=64, seed=11
                ),
                out_dir=str(tmp_path / "sgd_grid"),
                **base,
            )
            with np.errstate(over="ignore", invalid="ignore"):
                sgd_out = grid_search(sgd_config, etas=ETA_GRID, write_artifacts=False)
            assert sgd_out["best"] is not None
            sgd_target = sgd_out["best"]["final_train_loss"]
            notes["sgd_target"] = f"{sgd_target:.4f}"

            report = {"sgd": sgd_out["best"], "methods": {}}
            best_overall = None
            for method in SECOND_ORDER_METHODS:
                cfg = ExperimentConfig(
                    epochs=10,
                    optimizer=OptimizerConfig(
                        method=method,
                        lr=1e-2,
                        batch_size=64,
                        seed=11,
                        t1=5,
                        t2=5,
                    ),
                    out_dir=str(tmp_path / f"{method}_grid"),
                    **base,
                )
                with np.errstate(over="ignore", invalid="ignore"):
                    out = grid_search(
                        cfg,
                        etas=(3e-1, 1e-1, 3e-2),
                        lambdas=(1e-2, 1e-3),
                        clips=(1e-1, 1e-2),
                        write_artifacts=False,
                    )
                best = out["best"]
                assert best is not None, f"every {method} grid point diverged"
                curve = best["epoch_train_loss"]
                reached = next(
                    (i + 1 for i, v in enumerate(curve) if v <= sgd_target), None
                )
                report["methods"][method] = {
                    "best": best,
                    "epochs_to_sgd_target": reached,
                }
                if best_overall is None or best["final_train_loss"] < best_overall[1]:
                    best_overall = (method, best["final_train_loss"], curve)
            (tmp_path / "speed_report.json").write_text(
                json.dumps(report, indent=2, sort_keys=True)
            )
            method, final, curve = best_overall
            # the gate: the best preconditioned run must reach, in half the
            # epochs, a loss below what the tuned SGD baseline ends at
            assert curve[4] < curve[0]
            assert final < sgd_target
            notes["best_method"] = method
            notes["best_loss"] = f"{final:.4f}"
            reached_any = [
                f"{m}:{report['methods'][m]['epochs_to_sgd_target']}"
                for m in SECOND_ORDER_METHODS
            ]
            notes["epochs_to_sgd_target"] = ",".join(reached_any)

    def test_11_natural_step_matches_dense_oracle(self):
        with criterion(11, 60.0, {}):
            for method in SECOND_ORDER_METHODS:
                rng = np.random.default_rng(111)
                model = init_mlp([4, 3, 2], ["relu", "sigmoid"], "bce", rng)
                x = rng.random((8, 4))
                y = sample_targets(forward(model, x)[-1], "bce", rng)
                frozen = copy.deepcopy(model)
                config = OptimizerConfig(
                    method=method, lr=1e-2, t1=1, t2=1, seed=5, svd_eps=1e-10
                )
                state = init_train_state(model, config)
                metrics = natural_step(model, (x, y), state, config)

                # replay the sampled-target draw with a fresh generator
                rng_replay = np.random.default_rng(config.seed)
                acts = forward(frozen, x)
                sampled = sample_targets(acts[-1], frozen.loss, rng_replay)
                _, stats = backward(frozen, acts, sampled)
                grads, _ = backward(frozen, acts, y)
                eps = config.svd_eps
                for i in range(1, frozen.n_layers + 1):
                    if method == "kfac":
                        pairs = (kfac_factors(stats, i),)
                    elif method == "kpsvd":
                        pairs = kpsvd_factors(stats, i).pairs
                    elif method == "deflation":
                        pairs = deflation_factors(stats, i, eps).pairs
                    elif method == "lanczos":
                        pairs = lanczos_factors(stats, i, eps).pairs
                    else:
                        pairs = kfac_corrected_factors(stats, i, eps).pairs
                    state_pairs = state.layer_states[i - 1].pairs
                    assert len(pairs) == len(state_pairs)
                    for got, want in zip(state_pairs, pairs):
                        assert np.array_equal(got.left, want.left)
                        assert np.array_equal(got.right, want.right)
                    a_d, g_d = damp_pair(pairs[0].left, pairs[0].right, config.damping)
                    dense = kron(a_d, g_d)
                    for extra in pairs[1:]:
                        dense = dense + kron(extra.left, extra.right)
                    want_dir = np.linalg.solve(dense, vec(grads[i - 1]))
                    assert_allclose(
                        vec(metrics.precond[i - 1]), want_dir, rtol=1e-6, atol=1e-10
                    )

    def test_12_reproducible_metrics(self, tmp_path):
        with criterion(12, 120.0, {}):
            def run(tag):
                config = ExperimentConfig(
                    preset="curves_desk",
                    epochs=2,
                    n_train=128,
                    n_val=32,
                    side=8,
                    optimizer=OptimizerConfig(
                        method="deflation", lr=1e-2, batch_size=64, seed=3, t1=2, t2=2
                    ),
                    out_dir=str(tmp_path / tag),
                )
                return run_experiment(config)

            a = run("a")
            b = run("b")
            bytes_a = (a.out_dir / "metrics.csv").read_bytes()
            bytes_b = (b.out_dir / "metrics.csv").read_bytes()
            assert bytes_a == bytes_b
            assert len(a.records) == 4
