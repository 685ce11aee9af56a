"""Dense linear-algebra primitives shared by every other module.

All matrices are float64 numpy arrays.  The vec/mat convention is
column-major throughout: ``vec`` stacks columns, ``mat`` unstacks them,
and all Kronecker identities in this package are stated for that
convention (``kron(A, B) @ vec(X) == vec(B @ X @ A.T)``).

Positive-definite inverses (`inv_chol`, `spd_inv`) are computed by
recursive 2x2 blocking, so that almost all of their work is matrix
products.  On one BLAS thread a 785^3 product runs at about 43 GFlop/s
and ``np.linalg.cholesky`` of a 785 x 785 matrix at about 9 (2-vCPU
Xeon VM, OpenBLAS 0.3).  For m = [[a11, a21^T], [a21, a22]] the
inverse x = l^-1 of the Cholesky factor m = l l^T is

    x11 = inv_chol(a11),  l21 = a21 x11^T,  s = a22 - l21 l21^T,
    x22 = inv_chol(s),    x21 = -(x22 l21) x11,

and the inverse of m is x^T x = [[G(x11) + x21^T x21, x21^T x22],
[x22^T x21, G(x22)]] with G the same product one level down, so the
zero upper block of x is never multiplied.  Blocks of at most
`_BLOCK` rows are factored by ``np.linalg.cholesky`` and inverted by
``np.linalg.inv`` directly.  An n x n inverse factor costs about
7n^3/6 flops and the product x^T x about n^3/2, against 2n^3/3 and
n^3 unblocked, but at matrix-product speed.  Both work in place on one
copy of m plus one scratch buffer of ceil(n/2)^2 entries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
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

# diagonal blocks up to this size are factored and inverted directly.
# np.linalg.inv spends general-inverse flops on a triangular block (at 96
# rows 475 us, against 315 us split once), so this is the smallest size that
# keeps every curves_desk factor (at most 65 rows) one direct call
_BLOCK = 65


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


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a symmetric matrix, eigenvalues descending."""
    m = np.asarray(m, dtype=np.float64)
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1], vecs[:, ::-1]


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

    x is lower triangular, its upper triangle exactly zero, and
    x m x^T = I; only the lower triangle of m is read.  It is built by
    the recursion in the module docstring, at about 7n^3/6 flops nearly
    all in matrix products, with blocks of at most `_BLOCK` rows
    factored directly.  A matrix that is not finite, or any block
    (a Schur complement included) that Cholesky rejects, raises
    `NotPositiveDefiniteError` with the smallest eigenvalue of the whole
    matrix (nan if not finite).
    """
    m = np.asarray(m, dtype=np.float64)
    # Cholesky passes NaN through instead of rejecting it
    if not np.all(np.isfinite(m)):
        raise NotPositiveDefiniteError(np.nan, context=context)
    x = m.copy()
    try:
        _inv_chol_into(x, _scratch(x))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(np.linalg.eigvalsh(m)[0], context=context) from None
    return x


def spd_inv(m: np.ndarray, context: str = "") -> np.ndarray:
    """Inverse x^T x of a positive-definite m, through x = `inv_chol`(m).

    The product is formed block by block as in the module docstring,
    skipping the zero upper block of x, at about n^3/2 flops; each
    off-diagonal block is computed once and mirrored, so the result is
    exactly symmetric.  Raises as `inv_chol` does.
    """
    x = inv_chol(m, context=context)
    _gram_into(x, _scratch(x))
    return x


def _scratch(x: np.ndarray) -> np.ndarray:
    # one buffer for every level's temporaries: no level needs more than
    # ceil(n/2)^2 entries, and no temporary lives across a recursive call
    return np.empty(((x.shape[0] + 1) // 2) ** 2)


def _inv_chol_into(a: np.ndarray, scratch: np.ndarray) -> None:
    # overwrite a (whose lower triangle is read) with l^-1 for a = l l^T
    n = a.shape[0]
    if n <= _BLOCK:
        a[...] = np.tril(np.linalg.inv(np.linalg.cholesky(a)))
        return
    h = n // 2
    k = n - h
    x11, a21, x22 = a[:h, :h], a[h:, :h], a[h:, h:]
    _inv_chol_into(x11, scratch)
    t = scratch[: k * h].reshape(k, h)
    np.matmul(a21, x11.T, out=t)
    # keep -l21: the Schur update squares the sign away, and
    # x21 = x22 (-l21) x11 then needs no pass of its own to negate
    np.negative(t, out=t)
    a21[...] = t
    s = scratch[: k * k].reshape(k, k)
    np.matmul(a21, a21.T, out=s)
    x22 -= s
    _inv_chol_into(x22, scratch)
    np.matmul(x22, a21, out=t)
    np.matmul(t, x11, out=a21)
    a[:h, h:] = 0.0


def _gram_into(x: np.ndarray, scratch: np.ndarray) -> None:
    # overwrite lower-triangular x with x^T x
    n = x.shape[0]
    if n <= _BLOCK:
        x[...] = x.T @ x
        return
    h = n // 2
    x11, x21, x22 = x[:h, :h], x[h:, :h], x[h:, h:]
    np.matmul(x21.T, x22, out=x[:h, h:])
    _gram_into(x22, scratch)
    _gram_into(x11, scratch)
    t = scratch[: h * h].reshape(h, h)
    np.matmul(x21.T, x21, out=t)
    x11 += t
    x21[...] = x[:h, h:].T


def spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending."""
    return np.linalg.eigvalsh(np.asarray(m, dtype=np.float64))[::-1]
