"""From factor pairs to damped, invertible preconditioners.

The per-layer lifecycle: factor pairs arrive every factor-refresh iteration
and are folded into a moving average capped at `EMA_DECAY` (KFAC's 0.95);
on the refreshes that rebuild (`optim`) the dominant pair is Tikhonov-damped
with the trace-balanced split and an inverse cache is rebuilt; every
optimization step applies the cached inverse to the layer gradient.

A state holds as many pairs as its first refresh brought, one or two,
and later refreshes must bring the same number.  Either way the damped
dominant pair goes through its Cholesky factors (`linalg.inv_chol`),
which raise `NotPositiveDefiniteError` on a damped factor that is not
positive definite or not finite.  One pair is inverted factor by factor
(`linalg.spd_inv`).  Two pairs solve (A kron B + C kron D) x = vec(V)
through the congruence diagonalization of C against A and D against B,
which costs only matrix-size work, never Kronecker-size work, and raises
`np.linalg.LinAlgError` on a singular sum.  A rebuild replaces the
layer's `InverseCache` whole.

The cache holds a dp x dp right and a d x d left transform, g^-1 and
a^-1 for one pair, k2^T and k1 (and denom) for two.  `precondition_layer`
forms w = right grad_w left, then right^T (w / denom) left^T if there is
a denom.  It forms w at d * dp * (d + dp) multiply-adds or, handed the
batch's m per-sample rows (grad_w = g^T abar / m has rank at most m)
with m * (d^2 + dp^2 + d * dp) < d * dp * (d + dp), the same product in
a cheaper order, (right g^T)(abar left) / m (Ren & Goldfarb 2019 build
on the same low-rank structure).  The rule needs a batch well below
both widths (m < 2d/3 when d = dp): it picks the rows for the 784-wide
layers of `curves` at m = 256 and for no layer of `curves_desk` at m = 64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .factorizations import FactorResult, KronPair
# inv_sqrt is unused here but stays importable:
# benchmarks/tracing.py wraps it in this namespace
from .linalg import EIG_CLAMP_REL, inv_chol, inv_sqrt, spd_inv, sym_eig  # noqa: F401

__all__ = [
    "InverseCache",
    "Rank1Cache",
    "KronApprox",
    "ema_update",
    "damping_pi",
    "damp_pair",
    "apply_rank1_inverse",
    "kron_sum_prepare",
    "kron_sum_apply",
    "kl_clip",
    "update_factors",
    "rebuild_cache",
    "precondition_layer",
]

logger = logging.getLogger(__name__)

EMA_DECAY = 0.95


# nothing instantiates it; benchmarks/harness.py imports the name
class Rank1Cache:
    pass


@dataclass
class InverseCache:
    """A layer's inverse: right, left and, for two pairs, the denominators."""

    right: np.ndarray
    left: np.ndarray
    denom: np.ndarray | None = None
    # always 0.0: the solve is exact or raises; benchmarks/tracing.py reads it
    safeguarded_fraction = 0.0


@dataclass
class KronApprox:
    """Per-layer preconditioner state: averaged pairs and inverse cache."""

    pairs: tuple[KronPair, ...] | None = None
    cache: InverseCache | None = None

    # read-only label of the pair count; benchmarks/tracing.py reads it
    # after every rebuild
    @property
    def kind(self) -> str:
        return "rank2" if self.pairs is not None and len(self.pairs) == 2 else "rank1"


def ema_update(old: KronPair, new: KronPair, k: int, alpha: float) -> KronPair:
    """Decay old factors into new ones: rho*old + (1-rho)*new per factor.

    rho = min(1 - 1/k, alpha) warms up from 0 at k=1 toward the cap.
    `optim` passes the iteration as k, not the refresh count, so the
    warm-up counts iterations: at t1 = 100 the second refresh (k = 100)
    already blends at 0.95, and after the j-th refresh the first one's
    factors keep 0.95^(j-1) of the weight.  The blend is written into
    old's arrays, which are returned; it rounds as the out-of-place
    expression does.
    """
    if k < 1:
        raise ValueError("iteration counter must be >= 1")
    rho = min(1.0 - 1.0 / k, alpha)
    for mine, fresh in ((old.left, new.left), (old.right, new.right)):
        mine *= rho
        mine += (1.0 - rho) * fresh
    return old


def damping_pi(a: np.ndarray, g: np.ndarray) -> float:
    """Trace-balancing split of the damping between the two factors."""
    tr_a = float(np.trace(a))
    tr_g = float(np.trace(g))
    # a NaN trace splits as 1 too, so it stays in its own damped factor
    if not (tr_a > 0.0 and tr_g > 0.0):
        logger.warning("degenerate factor traces (%.3e, %.3e); damping split as 1", tr_a, tr_g)
        return 1.0
    return float(np.sqrt((tr_a / a.shape[0]) / (tr_g / g.shape[0])))


def damp_pair(a: np.ndarray, g: np.ndarray, damping: float) -> tuple[np.ndarray, np.ndarray]:
    """Add sqrt(damping) to both factors, split so the product is balanced."""
    if damping < 0.0:
        raise ValueError("damping must be >= 0")
    pi = damping_pi(a, g)
    root = np.sqrt(damping)
    a_d, g_d = a.copy(), g.copy()
    a_d.flat[:: a.shape[0] + 1] += pi * root
    g_d.flat[:: g.shape[0] + 1] += root / pi
    return a_d, g_d


def apply_rank1_inverse(a: np.ndarray, g: np.ndarray, grad_w: np.ndarray) -> np.ndarray:
    """Solve (a kron g) x = vec(grad_w) in matrix form: g^-1 grad_w a^-1."""
    x = np.linalg.solve(g, grad_w)
    return np.linalg.solve(a, x.T).T


def kron_sum_prepare(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
) -> InverseCache:
    """Factor (a kron b + c kron d) exactly for repeated solves.

    a and b must be positive definite (the damped dominant pair); c and d
    only symmetric, so the sum may be indefinite.  With xa = `inv_chol`(a),
    which raises on a or b, and e1 the eigenvectors of xa c xa^T,
    k1 = xa^T e1 gives k1^T a k1 = I and k1^T c k1 = diag(s1); likewise k2.
    Returns InverseCache(k2^T as a view, k1, denom = 1 + outer(s2, s1)).
    The sum is singular to working precision, and `np.linalg.LinAlgError`
    is raised, when a denominator 1 + x, x = s2_i*s1_j, has
    |1 + x| <= EIG_CLAMP_REL * (1 + |x|).
    """
    xa = inv_chol(a, context="left dominant factor")
    xb = inv_chol(b, context="right dominant factor")
    s1, e1 = sym_eig(xa @ c @ xa.T)
    s2, e2 = sym_eig(xb @ d @ xb.T)
    k1 = xa.T @ e1
    k2 = xb.T @ e2
    prod = np.outer(s2, s1)
    denom = 1.0 + prod
    unresolved = np.abs(denom) <= EIG_CLAMP_REL * (1.0 + np.abs(prod))
    if np.any(unresolved):
        raise np.linalg.LinAlgError(
            f"two-term Kronecker sum is singular: {np.count_nonzero(unresolved)} of "
            f"{denom.size} denominators vanish, smallest |1 + s2*s1| {np.min(np.abs(denom)):.3e}"
        )
    return InverseCache(k2.T, k1, denom)


def kron_sum_apply(cache: InverseCache, v: np.ndarray) -> np.ndarray:
    """Solve the prepared two-term system for one right-hand side in matrix form."""
    return precondition_layer(KronApprox(cache=cache), v)


def kl_clip(
    precond_grads: list[np.ndarray],
    raw_grads: list[np.ndarray],
    clip: float,
) -> float:
    """The factor nu that keeps the preconditioned update's quadratic model within clip.

    The trust measure is the sum over layers of |<precond, raw>| under the
    elementwise inner product; nu is min(1, sqrt(clip / measure)), and the
    caller scales the update by it.
    """
    if clip <= 0.0:
        raise ValueError("clip must be > 0")
    total = 0.0
    for p, r in zip(precond_grads, raw_grads):
        total += abs(float(np.vdot(p, r)))
    return 1.0 if total <= clip else float(np.sqrt(clip / total))


def update_factors(state: KronApprox, result: FactorResult, k: int) -> tuple[float, float, bool]:
    """Fold fresh pairs into the averaged state: `ema_update` at cap `EMA_DECAY`.

    The first refresh fixes the number of pairs, one or two; a later
    refresh with a different number is refused.  Returns the result's
    (sigma_1, sigma_2, degenerate), so the caller need not keep it.
    """
    n = len(result.pairs)
    if state.pairs is None:
        if n not in (1, 2):
            raise ValueError(f"a preconditioner holds one or two pairs, got {n}")
        state.pairs = tuple(KronPair(p.left.copy(), p.right.copy()) for p in result.pairs)
    else:
        if n != len(state.pairs):
            raise ValueError(f"state holds {len(state.pairs)} pairs, refresh brought {n}")
        state.pairs = tuple(
            ema_update(old, new, k, EMA_DECAY) for old, new in zip(state.pairs, result.pairs)
        )
    return result.sigma(0), result.sigma(1), result.degenerate


def rebuild_cache(state: KronApprox, damping: float) -> None:
    """Damp the dominant averaged pair and rebuild the inverse cache.

    One pair gets right = g_d^-1, left = a_d^-1 and no denom; two pairs
    the congruence cache of `kron_sum_prepare`.  A damped factor that is
    not finite and positive definite (the left one is checked first), or
    a singular two-term sum, raises and leaves the previous cache in place.
    """
    if state.pairs is None:
        raise ValueError("no factors accumulated yet")
    a_d, g_d = damp_pair(state.pairs[0].left, state.pairs[0].right, damping)
    if len(state.pairs) == 2:
        state.cache = kron_sum_prepare(a_d, g_d, state.pairs[1].left, state.pairs[1].right)
    else:
        left = spd_inv(a_d, context="left dominant factor")
        state.cache = InverseCache(spd_inv(g_d, context="right dominant factor"), left)


def precondition_layer(
    state: KronApprox,
    grad_w: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Apply the cache to one layer gradient: w = right grad_w left, or
    right^T (w / denom) left^T when the cache holds a denom.

    ``rows`` is the layer's per-sample (abar, g), m x d and m x dp, with
    grad_w = g^T abar / m; when the module docstring's rule favours them,
    the product is evaluated from the rows instead of from grad_w.
    """
    cache = state.cache
    if cache is None:
        raise ValueError("inverse cache has not been built")
    right, left = cache.right, cache.left
    dp, d = grad_w.shape
    if rows is None or rows[0].shape[0] * (d * d + dp * dp + d * dp) >= d * dp * (d + dp):
        w = right @ grad_w @ left
    else:
        abar, g = rows
        w = (right @ g.T) @ (abar @ left)
        w /= abar.shape[0]
    return w if cache.denom is None else right.T @ (w / cache.denom) @ left.T
