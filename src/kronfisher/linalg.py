"""Dense linear-algebra primitives shared by every other module.

All matrices are float64 numpy arrays.  The vec/mat convention is
column-major throughout: ``vec`` stacks columns, ``mat`` unstacks them,
and all Kronecker identities in this package are stated for that
convention (``kron(A, B) @ vec(X) == vec(B @ X @ A.T)``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "SymEig",
    "kron",
    "vec",
    "mat",
    "zigzag",
    "sym_eig",
    "psd_factor",
    "inv_sqrt",
    "inv_chol",
    "spd_inv",
    "spectrum",
]

EIG_CLAMP_REL = 1e-12

# triangular blocks up to this size are inverted directly; 32-96 time alike
_TRIL_INV_BASE = 64


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A routine required a positive-definite matrix and did not get one."""

    def __init__(self, smallest_eigenvalue: float, context: str = ""):
        self.smallest_eigenvalue = float(smallest_eigenvalue)
        msg = (
            "matrix is not positive definite "
            f"(smallest eigenvalue {self.smallest_eigenvalue:.6e})"
        )
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class SymEig(NamedTuple):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"vec expects a matrix, got ndim={m.ndim}")
    return m.reshape(-1, order="F")


def mat(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec: fold a vector back into a rows-by-cols matrix."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != rows * cols:
        raise ValueError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def zigzag(m: np.ndarray, d: int, dp: int) -> np.ndarray:
    """Rearrange a uniform-block matrix so Kronecker structure becomes rank structure.

    ``m`` is a (d*dp) x (d*dp) matrix viewed as a d x d grid of dp x dp
    blocks.  Row nu*d + mu of the output (0-based, block-row index mu
    fastest) is vec of block (mu, nu).  Under this map a Kronecker
    product becomes an outer product:

        zigzag(kron(R, S), d, dp) == np.outer(vec(R), vec(S))

    for R of size d x d and S of size dp x dp, so the Frobenius-nearest
    Kronecker factors of m are read off the dominant singular triplet of
    the rearranged matrix.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (d * dp, d * dp):
        raise ValueError(f"expected shape {(d * dp, d * dp)}, got {m.shape}")
    return m.reshape(d, dp, d, dp).transpose(2, 0, 3, 1).reshape(d * d, dp * dp)


def sym_eig(m: np.ndarray) -> SymEig:
    """Eigendecomposition of a symmetric matrix with eigenvalues descending."""
    m = np.asarray(m, dtype=np.float64)
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    return SymEig(vals[order], vecs[:, order])


def psd_factor(m: np.ndarray) -> np.ndarray:
    """Square r with r r^T = m, for a symmetric positive-semidefinite m.

    r is the lower Cholesky factor when Cholesky accepts m, and otherwise
    the symmetric square root from `sym_eig` with negative eigenvalues
    clamped to 0 (a singular m, or rounding just below zero).
    """
    m = np.asarray(m, dtype=np.float64)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        vals, vecs = sym_eig(m)
        return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def _clamped_eigenvalues(vals: np.ndarray) -> np.ndarray:
    # kill sign noise around zero before any reciprocal is taken
    scale = np.max(np.abs(vals)) if vals.size else 0.0
    out = vals.copy()
    out[np.abs(out) < EIG_CLAMP_REL * scale] = 0.0
    return out


# no package code calls it; benchmarks/tracing.py wraps it in `precond`
def inv_sqrt(m: np.ndarray, context: str = "") -> np.ndarray:
    """Inverse matrix square root of a symmetric positive-definite matrix."""
    vals, vecs = sym_eig(m)
    vals = _clamped_eigenvalues(vals)
    smallest = float(vals[-1]) if vals.size else 0.0
    if vals.size == 0 or smallest <= 0.0:
        raise NotPositiveDefiniteError(smallest, context=context)
    return (vecs * vals ** -0.5) @ vecs.T


def inv_chol(m: np.ndarray, context: str = "") -> np.ndarray:
    """Inverse x = l^-1 of the Cholesky factor of a positive-definite m = l l^T.

    x is lower triangular and x m x^T = I.  A matrix that is not finite
    or that Cholesky rejects raises `NotPositiveDefiniteError` with its
    smallest eigenvalue (nan if not finite).
    """
    m = np.asarray(m, dtype=np.float64)
    # Cholesky passes NaN through instead of rejecting it
    if not np.all(np.isfinite(m)):
        raise NotPositiveDefiniteError(np.nan, context=context)
    try:
        x = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(np.linalg.eigvalsh(m)[0], context=context) from None
    _invert_lower(x)
    return x


def spd_inv(m: np.ndarray, context: str = "") -> np.ndarray:
    """Inverse x^T x, exactly symmetric, of m through x = `inv_chol`(m)."""
    x = inv_chol(m, context=context)
    return x.T @ x


def _invert_lower(low: np.ndarray) -> None:
    # in place, by recursive 2x2 blocking: [[l11, 0], [l21, l22]]^-1 is
    # [[x11, 0], [-x22 l21 x11, x22]], so the work beyond the base is matmuls
    n = low.shape[0]
    if n <= _TRIL_INV_BASE:
        low[...] = np.tril(np.linalg.inv(low))
        return
    h = n // 2
    _invert_lower(low[:h, :h])
    _invert_lower(low[h:, h:])
    # one temporary, negated in place and multiplied into the block: the
    # form with three temporaries left a larger heap after 785 x 785 factors
    tmp = low[h:, h:] @ low[h:, :h]
    np.negative(tmp, out=tmp)
    np.matmul(tmp, low[:h, :h], out=low[h:, :h])


def spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending."""
    return np.linalg.eigvalsh(np.asarray(m, dtype=np.float64))[::-1]
