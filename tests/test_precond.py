"""Preconditioner tests: averaging, damping, structured solves, clipping.

Dense oracles build the full Kronecker-sum matrix and use
np.linalg.solve; the structured path must agree without ever forming it.
"""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import rand_spd, rand_sym
from kronfisher.factorizations import FactorResult, KronPair
from kronfisher.linalg import NotPositiveDefiniteError, kron, vec
from kronfisher.optim import EMA_DECAY
from kronfisher.precond import (
    KronApprox,
    Rank1Cache,
    Rank2Cache,
    apply_rank1_inverse,
    damp_pair,
    damping_pi,
    ema_update,
    kl_clip,
    kron_sum_apply,
    kron_sum_prepare,
    precondition_layer,
    rebuild_cache,
    update_factors,
)


def make_result(pairs):
    return FactorResult(pairs=tuple(pairs), triplets=(None,) * len(pairs))


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def kron_sums(draw):
    """(a, b, c, d, v): SPD a and b, symmetric c and d, a right-hand side v.

    The dominant factors' smallest eigenvalues run down to 1e-3 and the
    correction scale up to 10, so many sums a kron b + c kron d are
    indefinite: their denominators 1 + outer(s2, s1) go negative.
    """
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 4))
    lo = draw(st.floats(1e-3, 1.0))
    scale = draw(st.floats(1e-2, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (
        rand_spd(rng, p, lo=lo),
        rand_spd(rng, q, lo=lo),
        rand_sym(rng, p, scale),
        rand_sym(rng, q, scale),
        rng.standard_normal((q, p)),
    )


class TestEma:
    def test_first_iteration_takes_new_factors(self):
        old = KronPair(np.full((2, 2), 9.0), np.full((2, 2), 9.0))
        new = KronPair(np.eye(2), 2.0 * np.eye(2))
        out = ema_update(old, new, k=1, alpha=0.95)
        assert_allclose(out.left, new.left)
        assert_allclose(out.right, new.right)

    def test_second_iteration_is_even_blend(self):
        old = KronPair(np.zeros((2, 2)), np.zeros((2, 2)))
        new = KronPair(np.eye(2), np.eye(2))
        out = ema_update(old, new, k=2, alpha=0.95)
        assert_allclose(out.left, 0.5 * np.eye(2))

    def test_cap_applies_late(self):
        old = KronPair(np.eye(2), np.eye(2))
        new = KronPair(np.zeros((2, 2)), np.zeros((2, 2)))
        out = ema_update(old, new, k=10_000, alpha=0.95)
        assert_allclose(out.left, 0.95 * np.eye(2))

    def test_bad_counter_raises(self):
        p = KronPair(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            ema_update(p, p, k=0, alpha=0.9)


class TestDamping:
    def test_trace_split_worked_example(self):
        assert damping_pi(np.eye(3), 4.0 * np.eye(2)) == pytest.approx(0.5)

    def test_degenerate_trace_logs_and_returns_one(self, caplog):
        for a in (np.zeros((2, 2)), np.diag([np.nan, 1.0])):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="kronfisher.precond"):
                pi = damping_pi(a, np.eye(2))
            assert pi == 1.0
            assert any("degenerate" in r.message for r in caplog.records)

    def test_damped_pair_frozen_values(self):
        a, g = damp_pair(np.eye(3), 4.0 * np.eye(2), damping=0.04)
        assert_allclose(a, 1.1 * np.eye(3))
        assert_allclose(g, 4.4 * np.eye(2))

    def test_damped_product_is_positive_definite(self):
        rng = np.random.default_rng(0)
        # positive semidefinite with an exact null direction
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a0 = q @ np.diag([1.0, 0.3, 0.0]) @ q.T
        g0 = rand_spd(rng, 2)
        a, g = damp_pair(a0, g0, damping=1e-2)
        assert np.linalg.eigvalsh(a).min() > 0
        assert np.linalg.eigvalsh(g).min() > 0

    def test_negative_damping_raises(self):
        with pytest.raises(ValueError):
            damp_pair(np.eye(2), np.eye(2), damping=-1.0)


class TestRank1Inverse:
    def test_matches_dense_kron_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rand_spd(rng, 4)
            g = rand_spd(rng, 3)
            w = rng.standard_normal((3, 4))
            got = apply_rank1_inverse(a, g, w)
            want = np.linalg.solve(kron(a, g), vec(w))
            assert_allclose(vec(got), want, rtol=1e-10, atol=1e-12)


class TestKronSumSolve:
    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rand_spd(rng, 4)
            b = rand_spd(rng, 3)
            c = rand_sym(rng, 4, scale=0.3)
            d = rand_sym(rng, 3, scale=0.3)
            cache = kron_sum_prepare(a, b, c, d)
            w = rng.standard_normal((3, 4))
            got = vec(kron_sum_apply(cache, w))
            want = np.linalg.solve(kron(a, b) + kron(c, d), vec(w))
            assert_allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_zero_correction_reduces_to_rank_one(self):
        rng = np.random.default_rng(3)
        a = rand_spd(rng, 3)
        b = rand_spd(rng, 2)
        cache = kron_sum_prepare(a, b, np.zeros((3, 3)), np.zeros((2, 2)))
        assert cache.safeguarded_fraction == 0.0
        w = rng.standard_normal((2, 3))
        assert_allclose(
            kron_sum_apply(cache, w), apply_rank1_inverse(a, b, w), rtol=1e-9, atol=1e-11
        )

    def test_exact_cancellation_raises(self):
        rng = np.random.default_rng(4)
        a = rand_spd(rng, 3)
        b = rand_spd(rng, 2)
        # c kron d exactly cancels a kron b, so every denominator is rounding
        # noise of size 1e-16, and no ratio between them reveals it
        with pytest.raises(np.linalg.LinAlgError, match="6 of 6 denominators vanish"):
            kron_sum_prepare(a, b, -a, b)

    def test_one_cancelling_entry_raises(self):
        """One zero denominator among 110 makes the sum singular, as the
        dense solve reports; no share of resolved entries excuses it."""
        c = np.diag([-1.0] + [0.0] * 9)
        d = np.diag([1.0] + [0.0] * 10)
        dense = kron(np.eye(10), np.eye(11)) + kron(c, d)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(dense, np.ones(110))
        smallest = r"1 of 110 denominators vanish, smallest \|1 \+ s2\*s1\| 0\.000e\+00"
        with pytest.raises(np.linalg.LinAlgError, match=smallest):
            kron_sum_prepare(np.eye(10), np.eye(11), c, d)

    def test_non_positive_dominant_factor_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(NotPositiveDefiniteError, match="^left dominant factor: "):
            kron_sum_prepare(
                -np.eye(3), rand_spd(rng, 2), np.zeros((3, 3)), np.zeros((2, 2))
            )

    def test_no_large_intermediate_allocation(self):
        """The structured solve must stay in factor space; the assembled
        sum at this size would be a 30000^2 matrix."""
        rng = np.random.default_rng(6)
        a = rand_spd(rng, 200)
        b = rand_spd(rng, 150)
        c = rand_sym(rng, 200, scale=0.1)
        d = rand_sym(rng, 150, scale=0.1)
        w = rng.standard_normal((150, 200))
        tracemalloc.start()
        cache = kron_sum_prepare(a, b, c, d)
        kron_sum_apply(cache, w)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 50 * 1024 * 1024


class TestKronSumProperties:
    """The two-term solve on random, possibly indefinite, Kronecker sums."""

    @PROPERTY_SETTINGS
    @given(kron_sums())
    def test_residual_where_denominators_are_resolved(self, case):
        a, b, c, d, v = case
        cache = kron_sum_prepare(a, b, c, d)
        assume(np.min(np.abs(cache.denom)) >= 1e-6)
        # a residual bound stays meaningful on ill-conditioned draws,
        # where a forward error against a dense solve would not
        x = kron_sum_apply(cache, v)
        residual = (kron(a, b) + kron(c, d)) @ vec(x) - vec(v)
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(v)

    @PROPERTY_SETTINGS
    @given(kron_sums())
    def test_joint_sign_flip_of_the_correction_is_invisible(self, case):
        a, b, c, d, v = case
        cache = kron_sum_prepare(a, b, c, d)
        assume(np.min(np.abs(cache.denom)) >= 1e-6)
        x = kron_sum_apply(cache, v)
        y = kron_sum_apply(kron_sum_prepare(a, b, -c, -d), v)
        assert np.linalg.norm(y - x) <= 1e-10 * np.linalg.norm(x)

    def test_draws_include_indefinite_sums(self):
        find(
            kron_sums(),
            lambda case: bool(np.any(kron_sum_prepare(*case[:4]).denom < 0.0)),
            settings=PROPERTY_SETTINGS,
        )


class TestKlClip:
    def test_worked_example_half(self):
        c = 1e-2
        p = [np.array([[2.0 * c]])]
        g = [np.array([[2.0]])]
        nu, scaled = kl_clip(p, g, c)
        assert nu == pytest.approx(0.5)
        assert_allclose(scaled[0], 0.5 * p[0])

    def test_within_trust_region_passes_through(self):
        p = [np.array([1e-3])]
        g = [np.array([1e-3])]
        nu, scaled = kl_clip(p, g, 1e-2)
        assert nu == 1.0
        assert_allclose(scaled[0], p[0])

    def test_sums_absolute_layer_terms(self):
        c = 1e-2
        p = [np.array([1.0]), np.array([-1.0])]
        g = [np.array([2.0 * c]), np.array([2.0 * c])]
        nu, _ = kl_clip(p, g, c)
        assert nu == pytest.approx(0.5)

    def test_bad_clip_raises(self):
        with pytest.raises(ValueError):
            kl_clip([], [], 0.0)


@st.composite
def refresh_sequences(draw):
    """(ks, results): factor refreshes at increasing 1-based iterations
    from k = 1, each bringing the same number of pairs, one or two.

    Dominant pairs are positive semidefinite, often singular; second pairs
    are symmetric and may be indefinite.  Gaps between refreshes reach past
    the warm-up, so the EMA cap takes effect."""
    n_pairs = draw(st.integers(1, 2))
    d, dp = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    gaps = draw(st.lists(st.integers(1, 40), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def psd(n):
        x = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        return 0.5 * (x @ x.T + (x @ x.T).T)

    ks = [1 + sum(gaps[:i]) for i in range(len(gaps) + 1)]
    results = []
    for _ in ks:
        pairs = [KronPair(psd(d), psd(dp))]
        if n_pairs == 2:
            pairs.append(KronPair(rand_sym(rng, d), rand_sym(rng, dp)))
        results.append(make_result(pairs))
    return ks, results


class TestAveragedStateProperties:
    """After refreshes at k_1 = 1 < k_2 < ... the state holds, per factor,
    sum_j w_j F_j with w_j = (1 - rho_j) prod_{i > j} rho_i and
    rho_j = min(1 - 1/k_j, EMA_DECAY)."""

    @PROPERTY_SETTINGS
    @given(refresh_sequences())
    def test_state_is_the_closed_form_blend(self, seq):
        ks, results = seq
        state = KronApprox()
        for k, result in zip(ks, results):
            update_factors(state, result, k, EMA_DECAY)
        rho = [min(1.0 - 1.0 / k, EMA_DECAY) for k in ks]
        weights = [(1.0 - rho[j]) * np.prod(rho[j + 1:]) for j in range(len(ks))]
        assert len(state.pairs) == len(results[0].pairs)
        for i, pair in enumerate(state.pairs):
            for side in ("left", "right"):
                drawn = [getattr(r.pairs[i], side) for r in results]
                want = sum(w * f for w, f in zip(weights, drawn))
                got = getattr(pair, side)
                scale = max(np.abs(f).max() for f in drawn)
                assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)
                assert np.array_equal(got, got.T)
                if i == 0:
                    assert np.linalg.eigvalsh(got).min() >= -1e-13 * scale

    @PROPERTY_SETTINGS
    @given(refresh_sequences())
    def test_a_change_in_pair_count_is_refused(self, seq):
        ks, results = seq
        state = KronApprox()
        for k, result in zip(ks, results):
            update_factors(state, result, k, EMA_DECAY)
        held = state.pairs
        n = len(held)
        other = make_result([results[-1].pairs[0]] * (3 - n))
        with pytest.raises(ValueError, match=f"state holds {n} pairs, refresh brought {3 - n}"):
            update_factors(state, other, ks[-1] + 1, EMA_DECAY)
        assert state.pairs is held


class TestStateMachine:
    def test_first_update_copies_pairs(self):
        state = KronApprox()
        pair = KronPair(np.eye(2), np.eye(2))
        update_factors(state, make_result([pair]), k=1, alpha=0.95)
        pair.left[0, 0] = 99.0
        assert state.pairs[0].left[0, 0] == 1.0

    def test_second_update_blends(self):
        state = KronApprox()
        update_factors(
            state, make_result([KronPair(np.zeros((2, 2)), np.zeros((2, 2)))]), 1, 0.95
        )
        update_factors(
            state, make_result([KronPair(np.eye(2), np.eye(2))]), 2, 0.95
        )
        assert_allclose(state.pairs[0].left, 0.5 * np.eye(2))

    def test_pair_count_mismatch_raises(self):
        """The first refresh fixes the pair count; a later one must match it."""
        two = [KronPair(np.eye(2), np.eye(2)), KronPair(np.eye(2), np.eye(2))]
        state = KronApprox()
        update_factors(state, make_result(two), 1, 0.9)
        with pytest.raises(ValueError, match="holds 2 pairs"):
            update_factors(state, make_result(two[:1]), 2, 0.9)
        state = KronApprox()
        update_factors(state, make_result(two[:1]), 1, 0.9)
        with pytest.raises(ValueError, match="holds 1 pairs"):
            update_factors(state, make_result(two), 2, 0.9)
        with pytest.raises(ValueError, match="one or two pairs"):
            update_factors(KronApprox(), make_result(two + two[:1]), 1, 0.9)

    def test_kind_follows_pair_count(self):
        """kind is a read-only label of the pairs held, not a setting."""
        with pytest.raises(TypeError):
            KronApprox(kind="rank2")
        state = KronApprox()
        update_factors(state, make_result([KronPair(np.eye(2), np.eye(2))] * 2), 1, 0.9)
        assert state.kind == "rank2"
        with pytest.raises(AttributeError):
            state.kind = "rank1"

    def test_rebuild_before_update_raises(self):
        with pytest.raises(ValueError):
            rebuild_cache(KronApprox(), damping=1e-2)

    def test_precondition_before_rebuild_raises(self):
        state = KronApprox()
        update_factors(state, make_result([KronPair(np.eye(2), np.eye(2))]), 1, 0.95)
        with pytest.raises(ValueError):
            precondition_layer(state, np.zeros((2, 2)))

    @pytest.mark.parametrize("d,dp", [(3, 2), (785, 400)], ids=["3x2", "curves-L1"])
    def test_rank1_roundtrip_matches_damped_solve(self, d, dp):
        """The curves-size pair goes through spd_inv's recursive blocking."""
        rng = np.random.default_rng(7)
        a = rand_spd(rng, d)
        g = rand_spd(rng, dp)
        state = KronApprox()
        update_factors(state, make_result([KronPair(a, g)]), 1, 0.95)
        rebuild_cache(state, damping=1e-2)
        assert isinstance(state.cache, Rank1Cache)
        w = rng.standard_normal((dp, d))
        a_d, g_d = damp_pair(a, g, 1e-2)
        assert_allclose(
            precondition_layer(state, w),
            apply_rank1_inverse(a_d, g_d, w),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_rank2_roundtrip_matches_dense_solve(self):
        rng = np.random.default_rng(8)
        a = rand_spd(rng, 3)
        g = rand_spd(rng, 2)
        c = rand_sym(rng, 3, scale=0.2)
        d = rand_sym(rng, 2, scale=0.2)
        state = KronApprox()
        update_factors(state, make_result([KronPair(a, g), KronPair(c, d)]), 1, 0.95)
        rebuild_cache(state, damping=1e-2)
        assert isinstance(state.cache, Rank2Cache)
        w = rng.standard_normal((2, 3))
        a_d, g_d = damp_pair(a, g, 1e-2)
        want = np.linalg.solve(kron(a_d, g_d) + kron(c, d), vec(w))
        assert_allclose(vec(precondition_layer(state, w)), want, rtol=1e-8)

    def test_singular_rank2_raises_and_keeps_the_previous_cache(self):
        rng = np.random.default_rng(9)
        a = rand_spd(rng, 3)
        g = rand_spd(rng, 2)
        a_d, g_d = damp_pair(a, g, 1e-3)
        state = KronApprox()
        update_factors(
            state, make_result([KronPair(a, g), KronPair(rand_sym(rng, 3, 0.2), g)]), 1, 0.95
        )
        rebuild_cache(state, damping=1e-3)
        old_cache = state.cache
        assert isinstance(old_cache, Rank2Cache)
        # corrector engineered to cancel the damped dominant product
        state.pairs = (state.pairs[0], KronPair(-a_d, g_d))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            rebuild_cache(state, damping=1e-3)
        assert state.cache is old_cache

    @staticmethod
    def refuse_bad_factors(n_pairs):
        """Rebuild a state of n_pairs pairs, then swap in dominant factors
        no rebuild may accept; each must raise, name the factor and leave
        the cache alone."""
        rng = np.random.default_rng(9)
        pairs = [
            KronPair(rand_spd(rng, 3), rand_spd(rng, 2)),
            KronPair(rand_sym(rng, 3, 0.2), rand_sym(rng, 2, 0.2)),
        ][:n_pairs]
        state = KronApprox()
        update_factors(state, make_result(pairs), 1, 0.95)
        rebuild_cache(state, damping=1e-3)
        old_cache = state.cache
        # the damping cannot lift an indefinite factor to positive definite,
        # and Cholesky by itself passes a NaN one through
        nan = np.diag([1.0, np.nan, 1.0])
        for left, right, side in [
            (-np.eye(3), np.eye(2), "left"),
            (nan, np.eye(2), "left"),
            (np.eye(3), nan[:2, :2], "right"),
        ]:
            state.pairs = (KronPair(left, right),) + state.pairs[1:]
            with pytest.raises(NotPositiveDefiniteError, match=f"^{side} dominant factor: "):
                rebuild_cache(state, damping=1e-3)
            assert state.cache is old_cache
        return old_cache

    def test_non_pd_rank1_raises_and_keeps_the_previous_cache(self):
        assert isinstance(self.refuse_bad_factors(1), Rank1Cache)

    def test_non_pd_rank2_raises_and_keeps_the_previous_cache(self):
        assert isinstance(self.refuse_bad_factors(2), Rank2Cache)

    def test_ill_conditioned_pair_gives_one_direction_in_both_caches(self):
        """A damped left factor of condition number about 5e13 is positive
        definite, and both caches accept it: two pairs with a zero
        corrector precondition as the dominant pair alone does."""
        rng = np.random.default_rng(11)
        q = np.linalg.qr(rng.standard_normal((33, 33)))[0]
        a = (q * np.geomspace(9.8e21, 1.0, 33)) @ q.T
        a = 0.5 * (a + a.T)
        x = rng.standard_normal((128, 64))
        g = x.T @ x / 128
        vals = np.linalg.eigvalsh(damp_pair(a, g, 1e-4)[0])
        assert 1e13 < vals[-1] / vals[0] < 1e14
        one, two = KronApprox(), KronApprox()
        update_factors(one, make_result([KronPair(a, g)]), 1, 0.95)
        zero = KronPair(np.zeros((33, 33)), np.zeros((64, 64)))
        update_factors(two, make_result([KronPair(a, g), zero]), 1, 0.95)
        rebuild_cache(one, damping=1e-4)
        rebuild_cache(two, damping=1e-4)
        w = rng.standard_normal((64, 33))
        want = precondition_layer(one, w)
        got = precondition_layer(two, w)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_stale_cache_survives_factor_updates(self):
        rng = np.random.default_rng(10)
        state = KronApprox()
        update_factors(state, make_result([KronPair(rand_spd(rng, 2), rand_spd(rng, 2))]), 1, 0.95)
        rebuild_cache(state, damping=1e-2)
        old_cache = state.cache
        update_factors(state, make_result([KronPair(rand_spd(rng, 2), rand_spd(rng, 2))]), 2, 0.95)
        assert state.cache is old_cache
