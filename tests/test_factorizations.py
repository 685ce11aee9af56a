"""Factorization tests.

The Gram-form solve is checked against dense SVDs of rearranged blocks
assembled sample by sample (`exact_fim_block` then `zigzag_oracle`), on
hand-picked batches, on Hypothesis-drawn batches and on degenerate ones.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import kronfisher.factorizations as fz
import kronfisher.linalg as la
from conftest import make_model_stats, rand_spd, rand_sym, zigzag_oracle
from kronfisher.factorizations import (
    DEFAULT_EPS,
    FACTORIZERS,
    deflation_factors,
    kfac_corrected_factors,
    kfac_factors,
    kpsvd_factors,
    lanczos_factors,
    psd_select,
)
from kronfisher.linalg import kron, mat, vec
from kronfisher.mlp import LayerBatchStats, backward, exact_fim_block, forward, sample_targets

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def dense_fisher_z(stats, layer):
    d = stats.abar[layer - 1].shape[1]
    dp = stats.g[layer - 1].shape[1]
    return zigzag_oracle(exact_fim_block(stats, layer), d, dp)


def pair_residual(z, pairs):
    r = z.copy()
    for p in pairs:
        r -= np.outer(vec(p.left), vec(p.right))
    return np.linalg.norm(r)


def best_rank_k_residual(z, k):
    s = np.linalg.svd(z, compute_uv=False)
    return float(np.sqrt(np.sum(s[k:] ** 2)))


def one_layer_stats(a, g):
    """Single-layer statistics with the bias unit prepended to the inputs."""
    abar = np.hstack([np.ones((a.shape[0], 1)), a])
    return LayerBatchStats([abar], [np.asarray(g, dtype=np.float64)])


@st.composite
def batches(draw):
    """Small single-layer batches.

    signed: Gaussian inputs and deltas; nonnegative: ReLU-like inputs with
    exact zeros; quantized: entries in {-1, 0, 1}, which produces repeated
    samples, zero deltas and rank-deficient blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 9))
    d = draw(st.integers(1, 4))
    dp = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["signed", "nonnegative", "quantized"]))
    if kind == "quantized":
        a = rng.integers(-1, 2, (m, d)).astype(np.float64)
        g = rng.integers(-1, 2, (m, dp)).astype(np.float64)
    else:
        a = rng.standard_normal((m, d))
        g = rng.standard_normal((m, dp))
        if kind == "nonnegative":
            a = np.maximum(a, 0.0)
    return one_layer_stats(a, g)


class TestKfacFactors:
    def test_moment_formulas(self):
        rng = np.random.default_rng(4)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=6)
        pair = kfac_factors(stats, 1)
        ab, g = stats.abar[0], stats.g[0]
        assert_allclose(pair.left, ab.T @ ab / 6, atol=1e-14)
        assert_allclose(pair.right, g.T @ g / 6, atol=1e-14)

    def test_exact_under_independence_monte_carlo(self):
        """With activations drawn independently of backprop deltas the
        block expectation separates, so at large batch the moment product
        should land within sampling error of the exact block."""
        rng = np.random.default_rng(5)
        m = 100_000
        ca = rand_spd(rng, 3)
        cg = rand_spd(rng, 2)
        ab = rng.multivariate_normal(np.zeros(3), ca, size=m)
        ab[:, 0] = 1.0
        g = rng.multivariate_normal(np.zeros(2), cg, size=m)
        stats = LayerBatchStats([ab], [g])
        pair = kfac_factors(stats, 1)
        f = exact_fim_block(stats, 1)
        rel = np.linalg.norm(f - kron(pair.left, pair.right)) / np.linalg.norm(f)
        assert rel < 0.05

    def test_empty_batch_raises(self):
        stats = LayerBatchStats([np.zeros((0, 3))], [np.zeros((0, 2))])
        with pytest.raises(ValueError):
            kfac_factors(stats, 1)


class TestPsdSelect:
    def test_flips_negative_eigenvalues(self):
        rng = np.random.default_rng(6)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        m = q @ np.diag([2.0, 1.0, -0.5, -3.0]) @ q.T
        out = psd_select(m)
        assert_allclose(out, out.T, atol=1e-12)
        assert_allclose(
            np.sort(np.linalg.eigvalsh(out)), [0.5, 1.0, 2.0, 3.0], atol=1e-10
        )

    def test_identity_on_psd(self):
        rng = np.random.default_rng(7)
        m = rand_spd(rng, 5)
        assert_allclose(psd_select(m), m, atol=1e-12)

    def test_never_increases_residual_against_psd_target(self):
        """Flipping both factors cannot move a Kronecker product further
        from any positive semidefinite target."""
        rng = np.random.default_rng(8)
        for _ in range(20):
            f = rand_spd(rng, 6, lo=0.0, hi=2.0)
            r = rand_sym(rng, 2)
            s = rand_sym(rng, 3)
            before = np.linalg.norm(f - kron(r, s))
            after = np.linalg.norm(f - kron(psd_select(r), psd_select(s)))
            assert after <= before + 1e-10


class TestKpsvd:
    def test_single_sample_block_is_one_product(self):
        rng = np.random.default_rng(9)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=1)
        res = kpsvd_factors(stats, 1)
        z = dense_fisher_z(stats, 1)
        assert pair_residual(z, res.pairs) <= 1e-6 * np.linalg.norm(z)

    def test_matches_dense_best_rank_one(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=6)
            res = kpsvd_factors(stats, 1)
            z = dense_fisher_z(stats, 1)
            want = best_rank_k_residual(z, 1)
            got = pair_residual(z, res.pairs)
            assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_pythagoras_on_triplet(self):
        rng = np.random.default_rng(11)
        _, _, stats = make_model_stats(rng, dims=(5, 4, 3), m=8)
        res = kpsvd_factors(stats, 2)
        z = dense_fisher_z(stats, 2)
        t = res.triplets[0]
        lhs = np.linalg.norm(z - t.sigma * np.outer(t.u, t.v)) ** 2 + t.sigma**2
        assert lhs == pytest.approx(np.linalg.norm(z) ** 2, rel=1e-9)

    def test_singular_vectors_fold_to_symmetric_matrices(self):
        rng = np.random.default_rng(12)
        _, _, stats = make_model_stats(rng, dims=(4, 4, 3), m=7)
        res = kpsvd_factors(stats, 1)
        t = res.triplets[0]
        mu = mat(t.u, 5, 5)
        mv = mat(t.v, 4, 4)
        assert np.linalg.norm(mu - mu.T) <= 1e-8 * np.linalg.norm(mu)
        assert np.linalg.norm(mv - mv.T) <= 1e-8 * np.linalg.norm(mv)

    def test_recovers_top_triplet(self):
        """sigma is the top singular value of the dense rearranged block and
        (u, v) satisfy the singular-vector equations Z v = sigma u,
        Z^T u = sigma v."""
        rng = np.random.default_rng(14)
        for _ in range(5):
            _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=6)
            t = kpsvd_factors(stats, 1).triplets[0]
            z = dense_fisher_z(stats, 1)
            scale = np.linalg.norm(z)
            assert t.converged
            assert t.sigma == pytest.approx(np.linalg.svd(z, compute_uv=False)[0], rel=1e-9)
            assert np.linalg.norm(z @ t.v - t.sigma * t.u) <= 1e-7 * scale
            assert np.linalg.norm(z.T @ t.u - t.sigma * t.v) <= 1e-7 * scale

    def test_factors_are_psd(self):
        rng = np.random.default_rng(13)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=6)
        res = kpsvd_factors(stats, 1)
        for f in (res.pairs[0].left, res.pairs[0].right):
            assert_allclose(f, f.T, atol=1e-12)
            assert np.linalg.eigvalsh(f).min() >= -1e-10 * np.trace(f) / f.shape[0]


class TestDeflation:
    def test_exact_on_rank_two_instances(self):
        # two samples: Z = P M Q^T has rank at most two
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            _, _, stats = make_model_stats(rng, dims=(3, 3, 2), m=2)
            z = dense_fisher_z(stats, 1)
            res = deflation_factors(stats, 1)
            assert not res.degenerate
            assert pair_residual(z, res.pairs) <= 1e-6 * np.linalg.norm(z)

    def test_matches_dense_top_two_on_gapped_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            _, _, stats = make_model_stats(rng, dims=(3, 3, 2), m=8)
            z = dense_fisher_z(stats, 1)
            s = np.linalg.svd(z, compute_uv=False)
            assert s[1] - s[2] > 0.01 * s[0]
            res = deflation_factors(stats, 1)
            want = best_rank_k_residual(z, 2)
            got = pair_residual(z, res.pairs)
            assert got == pytest.approx(want, rel=1e-6)

    def test_lanczos_matches_dense_top_two_on_gapped_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=8)
            z = dense_fisher_z(stats, 1)
            s = np.linalg.svd(z, compute_uv=False)
            assert s[1] - s[2] > 0.01 * s[0]
            res = lanczos_factors(stats, 1)
            assert not res.degenerate
            assert all(t.converged for t in res.triplets)
            assert res.sigma(0) == pytest.approx(s[0], rel=1e-8)
            assert res.sigma(1) == pytest.approx(s[1], rel=1e-6)
            want = best_rank_k_residual(z, 2)
            assert pair_residual(z, res.pairs) == pytest.approx(want, rel=1e-6)

    def test_fisher_block_improves_on_single_product(self):
        rng = np.random.default_rng(17)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=8)
        z = dense_fisher_z(stats, 1)
        one = kpsvd_factors(stats, 1)
        two = deflation_factors(stats, 1)
        assert pair_residual(z, two.pairs) <= pair_residual(z, one.pairs) + 1e-12

    def test_degenerate_rank_one_gives_zero_second_pair(self):
        # every sample has the same input, so Z is exactly rank one
        rng = np.random.default_rng(18)
        stats = one_layer_stats(np.tile([0.3, -0.5], (6, 1)), rng.standard_normal((6, 2)))
        z = dense_fisher_z(stats, 1)
        res = deflation_factors(stats, 1)
        assert res.degenerate
        assert res.sigma(1) == 0.0
        assert_allclose(res.pairs[1].left, 0.0, atol=1e-13)
        assert_allclose(res.pairs[1].right, 0.0, atol=1e-13)
        assert pair_residual(z, res.pairs) <= 1e-8 * np.linalg.norm(z)

    def test_second_factor_not_projected(self):
        """The corrector keeps indefinite factors; over a sign-mixed
        residual a projection would throw information away."""
        rng = np.random.default_rng(19)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=8)
        res = deflation_factors(stats, 1)
        t = res.triplets[1]
        expect = np.sqrt(t.sigma) * 0.5 * (mat(t.u, 5, 5) + mat(t.u, 5, 5).T)
        assert_allclose(res.pairs[1].left, expect, atol=1e-12)
        # Frobenius-orthogonal to a positive definite first factor, so indefinite
        vals = np.linalg.eigvalsh(res.pairs[1].left)
        assert vals.min() < 0.0 < vals.max()

    def test_lanczos_is_the_same_solve(self):
        rng = np.random.default_rng(20)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=8)
        defl = deflation_factors(stats, 2)
        lanc = lanczos_factors(stats, 2)
        for a, b in zip(defl.pairs, lanc.pairs):
            assert np.array_equal(a.left, b.left)
            assert np.array_equal(a.right, b.right)


class TestKfacCorrected:
    def test_corrector_reduces_residual(self):
        rng = np.random.default_rng(25)
        for layer in (1, 2):
            _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=8)
            z = dense_fisher_z(stats, layer)
            base = kfac_factors(stats, layer)
            res = kfac_corrected_factors(stats, layer)
            assert res.triplets[0] is None
            assert np.isnan(res.sigma(0))
            plain = pair_residual(z, [base])
            fixed = pair_residual(z, res.pairs)
            assert fixed <= plain + 1e-12

    def test_corrector_is_best_rank_one_of_moment_residual(self):
        rng = np.random.default_rng(26)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=8)
        z = dense_fisher_z(stats, 1)
        base = kfac_factors(stats, 1)
        rz = z - np.outer(vec(base.left), vec(base.right))
        res = kfac_corrected_factors(stats, 1)
        want = best_rank_k_residual(rz, 1)
        got = pair_residual(z, res.pairs)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-10)


class TestGramSolveProperties:
    """The one exact solve against a dense SVD of zigzag(exact_fim_block)."""

    @PROPERTY_SETTINGS
    @given(batches())
    def test_sigmas_and_residuals_match_dense_svd(self, stats):
        z = dense_fisher_z(stats, 1)
        s = np.linalg.svd(z, compute_uv=False)
        s = np.concatenate([s, [0.0, 0.0]])
        scale = np.linalg.norm(z)
        slack = 1e-7 * scale + 1e-300
        one = kpsvd_factors(stats, 1)
        two = deflation_factors(stats, 1)
        assert abs(one.sigma(0) - s[0]) <= slack
        assert two.sigma(0) == one.sigma(0)
        assert abs(pair_residual(z, one.pairs) - best_rank_k_residual(z, 1)) <= slack
        got = pair_residual(z, two.pairs)
        want = best_rank_k_residual(z, 2)
        if two.degenerate:
            # the dropped pair lies below the relative cutoff
            assert s[1] <= DEFAULT_EPS * s[0] + slack
            assert want - slack <= got <= np.hypot(want, s[1]) + slack
        else:
            assert abs(two.sigma(1) - s[1]) <= slack
            assert abs(got - want) <= slack

    @PROPERTY_SETTINGS
    @given(batches())
    def test_corrector_matches_dense_svd_of_moment_residual(self, stats):
        z = dense_fisher_z(stats, 1)
        base = kfac_factors(stats, 1)
        rz = z - np.outer(vec(base.left), vec(base.right))
        s = np.concatenate([np.linalg.svd(rz, compute_uv=False), [0.0]])
        slack = 1e-7 * np.linalg.norm(z) + 1e-300
        res = kfac_corrected_factors(stats, 1)
        got = pair_residual(z, res.pairs)
        want = best_rank_k_residual(rz, 1)
        if res.degenerate:
            assert s[0] <= DEFAULT_EPS * base.norm() + slack
            assert want - slack <= got <= np.hypot(want, s[0]) + slack
        else:
            assert abs(res.sigma(1) - s[0]) <= slack
            assert abs(got - want) <= slack

    @PROPERTY_SETTINGS
    @given(batches())
    def test_dominant_factors_are_psd_without_projection(self, stats):
        res = deflation_factors(stats, 1)
        for f in (res.pairs[0].left, res.pairs[0].right):
            assert np.array_equal(f, f.T)
            floor = -1e-12 * max(np.trace(f), np.finfo(float).tiny)
            assert np.linalg.eigvalsh(f).min() >= floor

    @PROPERTY_SETTINGS
    @given(batches())
    def test_left_trace_sign_fix(self, stats):
        res = deflation_factors(stats, 1)
        d = stats.abar[0].shape[1]
        for t in res.triplets:
            assert np.trace(mat(t.u, d, d)) >= 0.0


# name: (fan_in, fan_out, which sample repeats sample 0, which g row is zero).
# fan_in + 1 > fan_out factors K_a, otherwise K_g; a repeated sample makes
# both Gram matrices singular and a zero g row makes K_g singular.
ORIENTED = {
    "a-wider": (5, 2, None, None),
    "g-wider": (2, 4, None, None),
    "equal-width": (3, 4, None, None),
    "a-wider-repeated-sample": (5, 2, 1, None),
    "g-wider-repeated-sample": (2, 4, 5, None),
    "g-wider-zero-g-row": (2, 4, None, 3),
}


def oriented_stats(case, rng, draw=None):
    """A batch of 8 samples for one `ORIENTED` case."""
    fan_in, fan_out, repeat, zero_g = ORIENTED[case]
    draw = draw or rng.standard_normal
    a, g = draw((8, fan_in)), draw((8, fan_out))
    if repeat is not None:
        a[repeat], g[repeat] = a[0], g[0]
    if zero_g is not None:
        g[zero_g] = 0.0
    return one_layer_stats(a, g)


def wider_gram(stats):
    ab, g = stats.abar[0], stats.g[0]
    x = ab if ab.shape[1] > g.shape[1] else g
    return (x @ x.T) ** 2


def cholesky_accepts(m):
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


class TestWiderSideFactor:
    """The solve factors whichever side is wider; the triplets must not care."""

    @pytest.mark.parametrize("case", ORIENTED)
    def test_matches_dense_svd(self, case):
        for seed in range(10):
            stats = oriented_stats(case, np.random.default_rng(400 + seed))
            z = dense_fisher_z(stats, 1)
            s = np.linalg.svd(z, compute_uv=False)
            scale = np.linalg.norm(z)
            res = deflation_factors(stats, 1)
            assert not res.degenerate
            for t, want in zip(res.triplets, s):
                assert t.sigma == pytest.approx(want, rel=1e-9)
                assert np.linalg.norm(z @ t.v - t.sigma * t.u) <= 1e-8 * scale
                assert np.linalg.norm(z.T @ t.u - t.sigma * t.v) <= 1e-8 * scale
            got = pair_residual(z, res.pairs)
            assert got == pytest.approx(best_rank_k_residual(z, 2), rel=1e-7, abs=1e-12 * scale)

    @pytest.mark.parametrize("case", ORIENTED)
    def test_centred_matches_dense_svd_of_moment_residual(self, case):
        for seed in range(10):
            stats = oriented_stats(case, np.random.default_rng(500 + seed))
            z = dense_fisher_z(stats, 1)
            base = kfac_factors(stats, 1)
            rz = z - np.outer(vec(base.left), vec(base.right))
            res = kfac_corrected_factors(stats, 1)
            assert not res.degenerate
            assert res.sigma(1) == pytest.approx(np.linalg.svd(rz, compute_uv=False)[0], rel=1e-9)
            got = pair_residual(z, res.pairs)
            assert got == pytest.approx(best_rank_k_residual(rz, 1), rel=1e-7)

    @pytest.mark.parametrize("case", ORIENTED)
    @pytest.mark.parametrize("factorize", [deflation_factors, kfac_corrected_factors])
    def test_one_eigendecomposition_unless_cholesky_refuses(self, case, factorize, monkeypatch):
        """Small integers keep the Gram arithmetic exact, so a singular
        wider side is refused outright instead of passing on a rounding
        pivot; `psd_factor` then spends the second `sym_eig`."""
        rng = np.random.default_rng(600)
        if ORIENTED[case][2:] == (None, None):
            stats = oriented_stats(case, rng)
            assert cholesky_accepts(wider_gram(stats))
            want = 1
        else:
            stats = oriented_stats(case, rng, draw=lambda shape: rng.integers(-2, 3, shape) * 1.0)
            assert not cholesky_accepts(wider_gram(stats))
            want = 2
        calls = []
        for module in (la, fz):
            original = module.sym_eig

            def counted(m, _original=original):
                calls.append(m.shape)
                return _original(m)

            monkeypatch.setattr(module, "sym_eig", counted)
        factorize(stats, 1)
        assert calls == [(8, 8)] * want


class TestDegenerateBatches:
    def test_single_sample(self):
        rng = np.random.default_rng(30)
        _, _, stats = make_model_stats(rng, dims=(4, 3, 2), m=1)
        for layer in (1, 2):
            z = dense_fisher_z(stats, layer)
            for fn in (kpsvd_factors, deflation_factors, kfac_corrected_factors):
                res = fn(stats, layer)
                assert pair_residual(z, res.pairs) <= 1e-6 * np.linalg.norm(z)
            for fn in (deflation_factors, kfac_corrected_factors):
                res = fn(stats, layer)
                assert res.degenerate
                assert res.sigma(1) == 0.0

    def test_constant_inputs_are_rank_one(self):
        """A sigma_2 of about 1e-8 sigma_1 is Gram-form rounding, not signal;
        the relative cutoff must zero it."""
        rng = np.random.default_rng(31)
        for m in (3, 8, 32):
            a = np.full((m, 3), 0.7)
            stats = one_layer_stats(a, rng.standard_normal((m, 4)))
            z = dense_fisher_z(stats, 1)
            res = deflation_factors(stats, 1)
            assert res.degenerate
            assert np.all(res.pairs[1].left == 0.0)
            assert np.all(res.pairs[1].right == 0.0)
            assert pair_residual(z, res.pairs) <= 1e-7 * np.linalg.norm(z)

    def test_all_dead_layer(self):
        stats = one_layer_stats(np.random.default_rng(32).random((6, 3)), np.zeros((6, 2)))
        for fn in (kpsvd_factors, deflation_factors, kfac_corrected_factors):
            res = fn(stats, 1)
            for pair in res.pairs:
                assert np.all(np.isfinite(pair.left))
                assert np.all(pair.right == 0.0)
            assert res.sigma(len(res.pairs) - 1) == 0.0
        assert deflation_factors(stats, 1).degenerate
        assert kfac_corrected_factors(stats, 1).degenerate

    def test_saturated_bce_outputs(self):
        """Outputs of exactly 0 or 1 make every sampled target equal the
        output, so every delta is zero and the block vanishes."""
        rng = np.random.default_rng(33)
        model, x, _ = make_model_stats(rng, dims=(4, 3, 2), m=6)
        model.weights[-1][:] = np.array([[1e4, 1e4, 1e4, 1e4], [-1e4, -1e4, -1e4, -1e4]])
        acts = forward(model, x + 1.0)
        assert set(np.unique(acts[-1])) <= {0.0, 1.0}
        _, stats = backward(model, acts, sample_targets(acts[-1], "bce", rng))
        for layer in (1, 2):
            for fn in (kpsvd_factors, deflation_factors, kfac_corrected_factors):
                res = fn(stats, layer)
                for pair in res.pairs:
                    assert np.all(np.isfinite(pair.left))
                    assert np.all(np.isfinite(pair.right))
                assert np.all(res.pairs[-1].right == 0.0)
            assert deflation_factors(stats, layer).degenerate

    @pytest.mark.parametrize("method", FACTORIZERS)
    def test_layer_outside_the_network_raises(self, method):
        """Layer 0 must not wrap round to the last layer, nor n + 1 end in
        a bare IndexError."""
        _, _, stats = make_model_stats(np.random.default_rng(34), dims=(4, 3, 2))
        for layer in (0, 3):
            with pytest.raises(ValueError, match=rf"^layer {layer} out of range 1\.\.2$"):
                FACTORIZERS[method](stats, layer, DEFAULT_EPS)


class TestMatrixFreeDiscipline:
    def test_no_dense_materialization_in_solvers(self):
        """The solve works on m x m Gram matrices; neither the Fisher block
        nor its rearrangement (both about 7 MB here) is ever allocated."""
        rng = np.random.default_rng(27)
        stats = one_layer_stats(rng.random((16, 30)), rng.standard_normal((16, 30)))
        block_bytes = (31 * 30) ** 2 * 8
        for fn in (kpsvd_factors, deflation_factors, kfac_corrected_factors):
            tracemalloc.start()
            fn(stats, 1)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < block_bytes / 20
