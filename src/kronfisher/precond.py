"""From factor pairs to damped, invertible preconditioners.

The per-layer lifecycle: factor pairs arrive every factor-refresh
iteration and are folded into an exponential moving average; every
inverse-refresh iteration the dominant pair is Tikhonov-damped with the
trace-balanced split and an inverse cache is rebuilt; every optimization
step applies the cached inverse to the layer gradient.

A state holds as many pairs as its first refresh brought, one or two,
and later refreshes must bring the same number.  Either way the damped
dominant pair goes through its Cholesky factors (`linalg.inv_chol`),
which raise `NotPositiveDefiniteError` on a damped factor that is not
positive definite or not finite.  One pair is inverted factor by factor
(`Rank1Cache`, `linalg.spd_inv`).  Two pairs solve
(A kron B + C kron D) x = vec(V) through the congruence diagonalization
of C against A and D against B (`Rank2Cache`), which costs only
matrix-size work, never Kronecker-size work, and raises
`np.linalg.LinAlgError` on a singular sum.  A cache holds only what
`precondition_layer` applies; a rebuild replaces it whole.
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
    "Rank1Cache",
    "Rank2Cache",
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


@dataclass
class Rank1Cache:
    """Explicit inverses of the damped dominant pair."""

    a_inv: np.ndarray
    g_inv: np.ndarray


@dataclass
class Rank2Cache:
    """Congruence factors for the two-term Kronecker sum solve.

    k1/k2 are the left/right congruence transforms, denom the
    elementwise denominator 1 + outer(s2, s1) of the two congruence
    spectra, none of them numerically zero.
    """

    k1: np.ndarray
    k2: np.ndarray
    denom: np.ndarray
    # always 0.0: the solve is exact or raises; benchmarks/tracing.py reads it
    safeguarded_fraction = 0.0


@dataclass
class KronApprox:
    """Per-layer preconditioner state: averaged pairs and inverse cache."""

    pairs: tuple[KronPair, ...] | None = None
    cache: Rank1Cache | Rank2Cache | None = None

    # read-only label of the pair count; benchmarks/tracing.py reads it
    # after every rebuild
    @property
    def kind(self) -> str:
        return "rank2" if self.pairs is not None and len(self.pairs) == 2 else "rank1"


def ema_update(old: KronPair, new: KronPair, k: int, alpha: float) -> KronPair:
    """Decay old factors into new ones: rho*old + (1-rho)*new per factor.

    rho = min(1 - 1/k, alpha) warms up from 0 at k=1 toward the cap.
    """
    if k < 1:
        raise ValueError("iteration counter must be >= 1")
    rho = min(1.0 - 1.0 / k, alpha)
    return KronPair(
        rho * old.left + (1.0 - rho) * new.left,
        rho * old.right + (1.0 - rho) * new.right,
    )


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
) -> Rank2Cache:
    """Factor (a kron b + c kron d) exactly for repeated solves.

    a and b must be positive definite (the damped dominant pair); c and d
    only symmetric, so the sum may be indefinite.  With xa = `inv_chol`(a),
    which raises on a or b, and e1 the eigenvectors of xa c xa^T,
    k1 = xa^T e1 gives k1^T a k1 = I and k1^T c k1 = diag(s1); likewise k2.
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
    return Rank2Cache(k1, k2, denom)


def kron_sum_apply(cache: Rank2Cache, v: np.ndarray) -> np.ndarray:
    """Solve the prepared two-term system for one right-hand side in matrix form."""
    w = (cache.k2.T @ v @ cache.k1) / cache.denom
    return cache.k2 @ w @ cache.k1.T


def kl_clip(
    precond_grads: list[np.ndarray],
    raw_grads: list[np.ndarray],
    clip: float,
) -> tuple[float, list[np.ndarray]]:
    """Scale the preconditioned update so its quadratic model stays within clip.

    The trust measure is the sum over layers of |<precond, raw>| under the
    elementwise inner product; the returned factor is min(1, sqrt(clip / measure)).
    """
    if clip <= 0.0:
        raise ValueError("clip must be > 0")
    total = 0.0
    for p, r in zip(precond_grads, raw_grads):
        total += abs(float(np.sum(p * r)))
    nu = 1.0 if total <= clip else float(np.sqrt(clip / total))
    return nu, [nu * p for p in precond_grads]


def update_factors(state: KronApprox, result: FactorResult, k: int, alpha: float) -> None:
    """Fold freshly computed pairs into the averaged state.

    The first refresh fixes the number of pairs, one or two; a later
    refresh with a different number is refused.
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
            ema_update(old, new, k, alpha) for old, new in zip(state.pairs, result.pairs)
        )


def rebuild_cache(state: KronApprox, damping: float) -> None:
    """Damp the dominant averaged pair and rebuild the inverse cache.

    One pair gets the rank-one cache, two pairs the congruence cache.  A
    damped factor that is not finite and positive definite, or a singular
    two-term sum, raises and leaves the previous cache in place.
    """
    if state.pairs is None:
        raise ValueError("no factors accumulated yet")
    a_d, g_d = damp_pair(state.pairs[0].left, state.pairs[0].right, damping)
    if len(state.pairs) == 2:
        state.cache = kron_sum_prepare(a_d, g_d, state.pairs[1].left, state.pairs[1].right)
    else:
        state.cache = Rank1Cache(
            spd_inv(a_d, context="left dominant factor"),
            spd_inv(g_d, context="right dominant factor"),
        )


def precondition_layer(state: KronApprox, grad_w: np.ndarray) -> np.ndarray:
    """Apply the cached inverse approximation to one layer gradient."""
    if state.cache is None:
        raise ValueError("inverse cache has not been built")
    if isinstance(state.cache, Rank1Cache):
        return state.cache.g_inv @ grad_w @ state.cache.a_inv
    return kron_sum_apply(state.cache, grad_w)
