"""From factor pairs to damped, invertible preconditioners.

The per-layer lifecycle: factor pairs arrive every factor-refresh
iteration and are folded into an exponential moving average; every
inverse-refresh iteration the dominant pair is Tikhonov-damped with the
trace-balanced split and an inverse cache is rebuilt; every optimization
step applies the cached inverse to the layer gradient.

A state holds as many pairs as its first refresh brought, one or two,
and later refreshes must bring the same number.  One pair is inverted
factor by factor (`Rank1Cache`).  Two pairs solve (A kron B + C kron D) x = vec(V) through
the congruence diagonalization of C against A and D against B
(`Rank2Cache`), which costs only matrix-size work, never Kronecker-size
work.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .factorizations import FactorResult, KronPair
from .linalg import NotPositiveDefiniteError, inv_sqrt, sym_eig

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

DENOM_DELTA = 1e-8
FALLBACK_FRACTION = 0.01


@dataclass
class Rank1Cache:
    """Explicit inverses of the damped dominant pair."""

    a_inv: np.ndarray
    g_inv: np.ndarray
    version: int
    damping: float


@dataclass
class Rank2Cache:
    """Congruence factors for the two-term Kronecker sum solve.

    k1/k2 are the left/right congruence transforms, denom the
    safeguarded elementwise denominator 1 + outer(s2, s1).
    """

    k1: np.ndarray
    k2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    denom: np.ndarray
    safeguarded_fraction: float
    version: int
    damping: float


@dataclass
class KronApprox:
    """Per-layer preconditioner state: averaged pairs and inverse cache."""

    pairs: tuple[KronPair, ...] | None = None
    version: int = 0
    cache: Rank1Cache | Rank2Cache | None = None
    fallback_events: int = 0

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
    if tr_g <= 0.0 or tr_a <= 0.0:
        logger.warning("degenerate factor traces (%.3e, %.3e); damping split as 1", tr_a, tr_g)
        return 1.0
    return float(np.sqrt((tr_a / a.shape[0]) / (tr_g / g.shape[0])))


def damp_pair(a: np.ndarray, g: np.ndarray, damping: float) -> tuple[np.ndarray, np.ndarray]:
    """Add sqrt(damping) to both factors, split so the product is balanced."""
    if damping < 0.0:
        raise ValueError("damping must be >= 0")
    pi = damping_pi(a, g)
    root = np.sqrt(damping)
    return (
        a + pi * root * np.eye(a.shape[0]),
        g + root / pi * np.eye(g.shape[0]),
    )


def apply_rank1_inverse(a: np.ndarray, g: np.ndarray, grad_w: np.ndarray) -> np.ndarray:
    """Solve (a kron g) x = vec(grad_w) in matrix form: g^-1 grad_w a^-1."""
    x = np.linalg.solve(g, grad_w)
    return np.linalg.solve(a, x.T).T


def kron_sum_prepare(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    delta: float = DENOM_DELTA,
    version: int = 0,
    damping: float = 0.0,
) -> Rank2Cache:
    """Factor (a kron b + c kron d) for repeated solves.

    a and b must be positive definite (the damped dominant pair); c and d
    only symmetric.  Denominator entries closer to zero than delta are
    pushed to sign(x)*delta and the safeguarded fraction is recorded so
    callers can fall back when the sum is effectively singular.
    """
    a_isqrt = inv_sqrt(a, context="left dominant factor")
    b_isqrt = inv_sqrt(b, context="right dominant factor")
    s1, e1 = sym_eig(a_isqrt @ c @ a_isqrt)
    s2, e2 = sym_eig(b_isqrt @ d @ b_isqrt)
    k1 = a_isqrt @ e1
    k2 = b_isqrt @ e2
    denom = 1.0 + np.outer(s2, s1)
    small = np.abs(denom) < delta
    if np.any(small):
        signs = np.where(denom[small] >= 0.0, 1.0, -1.0)
        denom[small] = signs * delta
    frac = float(np.mean(small))
    return Rank2Cache(k1, k2, s1, s2, denom, frac, version, damping)


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
    state.version += 1


def rebuild_cache(state: KronApprox, damping: float, delta: float = DENOM_DELTA) -> None:
    """Damp the dominant averaged pair and rebuild the inverse cache.

    A state holding two pairs gets the congruence cache; if its
    safeguarded denominator fraction exceeds the fallback threshold it
    drops to the rank-one inverse for this refresh and logs the event.
    """
    if state.pairs is None:
        raise ValueError("no factors accumulated yet")
    a_d, g_d = damp_pair(state.pairs[0].left, state.pairs[0].right, damping)
    if len(state.pairs) == 2:
        c, d = state.pairs[1].left, state.pairs[1].right
        cache = kron_sum_prepare(
            a_d, g_d, c, d, delta=delta, version=state.version, damping=damping
        )
        if cache.safeguarded_fraction <= FALLBACK_FRACTION:
            state.cache = cache
            return
        state.fallback_events += 1
        logger.warning(
            "two-term solve ill-posed (%.1f%% safeguarded); falling back to rank-1 inverse",
            100.0 * cache.safeguarded_fraction,
        )
    state.cache = Rank1Cache(
        np.linalg.inv(a_d), np.linalg.inv(g_d), version=state.version, damping=damping
    )


def precondition_layer(state: KronApprox, grad_w: np.ndarray) -> np.ndarray:
    """Apply the cached inverse approximation to one layer gradient."""
    if state.cache is None:
        raise ValueError("inverse cache has not been built")
    if isinstance(state.cache, Rank1Cache):
        return state.cache.g_inv @ grad_w @ state.cache.a_inv
    return kron_sum_apply(state.cache, grad_w)
