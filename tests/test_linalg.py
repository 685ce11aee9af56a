"""Dense primitive tests; every nontrivial routine is checked against a
hand-rolled oracle from conftest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import kron_oracle, rand_spd, rand_sym, zigzag_oracle
from kronfisher.linalg import (
    NotPositiveDefiniteError,
    inv_sqrt,
    kron,
    mat,
    spd_inv,
    spectrum,
    sym_eig,
    vec,
    zigzag,
)


class TestVecMat:
    def test_vec_stacks_columns(self):
        """vec is column-major: the first column comes out first."""
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert_allclose(vec(m), [1.0, 2.0, 3.0, 4.0])

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            r, c = rng.integers(1, 6, size=2)
            m = rng.standard_normal((r, c))
            assert_allclose(mat(vec(m), r, c), m)
            v = rng.standard_normal(r * c)
            assert_allclose(vec(mat(v, r, c)), v)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mat(np.zeros(5), 2, 3)
        with pytest.raises(ValueError):
            vec(np.zeros(4))


class TestKron:
    def test_matches_block_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(tuple(rng.integers(1, 5, 2)))
            b = rng.standard_normal(tuple(rng.integers(1, 5, 2)))
            assert_allclose(kron(a, b), kron_oracle(a, b))



class TestZigzag:
    def test_frozen_two_by_two(self):
        """Hand-expanded 2x2-block case: rows are vecs of blocks in
        column-major block order."""
        r = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.array(
            [
                [5.0, 7.0, 6.0, 8.0],
                [15.0, 21.0, 18.0, 24.0],
                [10.0, 14.0, 12.0, 16.0],
                [20.0, 28.0, 24.0, 32.0],
            ]
        )
        assert_allclose(zigzag(kron(r, s), 2, 2), expected)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d, dp = rng.integers(1, 6, size=2)
            m = rng.standard_normal((d * dp, d * dp))
            assert_allclose(zigzag(m, d, dp), zigzag_oracle(m, d, dp))

    def test_kron_becomes_outer_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d, dp = rng.integers(1, 6, size=2)
            r = rng.standard_normal((d, d))
            s = rng.standard_normal((dp, dp))
            assert_allclose(zigzag(kron(r, s), d, dp), np.outer(vec(r), vec(s)), atol=1e-12)

    def test_is_entry_permutation(self):
        """The rearrangement only moves entries, so every norm is preserved."""
        rng = np.random.default_rng(5)
        m = rng.standard_normal((12, 12))
        z = zigzag(m, 4, 3)
        assert_allclose(np.sort(z.ravel()), np.sort(m.ravel()))

    def test_nearest_kron_distance_identity(self):
        """||M - kron(R, S)||_F equals ||zigzag(M) - vec(R) vec(S)^T||_F."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            d, dp = 3, 3
            m = rng.standard_normal((d * dp, d * dp))
            r = rng.standard_normal((d, d))
            s = rng.standard_normal((dp, dp))
            lhs = np.linalg.norm(m - kron(r, s))
            rhs = np.linalg.norm(zigzag(m, d, dp) - np.outer(vec(r), vec(s)))
            assert_allclose(lhs, rhs, rtol=1e-12)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            zigzag(np.zeros((6, 6)), 2, 2)


class TestSymEig:
    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(7)
        m = rand_sym(rng, 6)
        vals, vecs = sym_eig(m)
        assert np.all(np.diff(vals) <= 0)
        assert_allclose((vecs * vals) @ vecs.T, m, atol=1e-10)
        assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-10)

    def test_spectrum_is_descending_eigenvalues(self):
        rng = np.random.default_rng(8)
        m = rand_sym(rng, 5)
        assert_allclose(spectrum(m), sym_eig(m).eigenvalues, atol=1e-12)


class TestInvSqrt:
    def test_inverse_square_root(self):
        rng = np.random.default_rng(9)
        m = rand_spd(rng, 5)
        r = inv_sqrt(m)
        assert_allclose(r @ m @ r, np.eye(5), atol=1e-10)

    def test_tiny_negative_noise_is_clamped_to_failure(self):
        """Eigenvalues below the relative clamp become exact zeros, which
        still fail the positivity requirement rather than producing huge
        inverses of noise."""
        m = np.diag([1.0, 1e-15])
        with pytest.raises(NotPositiveDefiniteError) as err:
            inv_sqrt(m)
        assert err.value.smallest_eigenvalue == 0.0


@st.composite
def spd_matrices(draw):
    """Symmetric positive-definite matrices of size 1-300, across the
    recursion base of `spd_inv`, with condition numbers up to 1e8."""
    n = draw(st.integers(1, 300))
    cond = 10.0 ** draw(st.floats(0.0, 8.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = (q * (scale * np.geomspace(1.0, 1.0 / cond, n))) @ q.T
    return 0.5 * (m + m.T)


class TestSpdInv:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spd_matrices())
    def test_matches_solve_relative_to_condition(self, m):
        """Exactly symmetric, and within a small multiple of cond * eps of
        the LU solve (the worst of 300 random draws measured 3)."""
        x = spd_inv(m)
        assert np.array_equal(x, x.T)
        want = np.linalg.solve(m, np.eye(len(m)))
        err = np.linalg.norm(x - want) / np.linalg.norm(want)
        assert err <= 100 * np.linalg.cond(m) * np.finfo(np.float64).eps


@pytest.mark.parametrize("invert", [inv_sqrt, spd_inv], ids=["inv_sqrt", "spd_inv"])
def test_non_pd_reports_smallest_eigenvalue(invert):
    with pytest.raises(NotPositiveDefiniteError, match="^left factor: matrix is not") as err:
        invert(np.diag([2.0, -0.5]), context="left factor")
    assert err.value.smallest_eigenvalue == pytest.approx(-0.5)
