"""Kronecker-product factorizations of rearranged Fisher blocks.

For one layer put P = [vec(abar_t abar_t^T)] (d^2 x m) and
Q = [vec(g_t g_t^T)] (dp^2 x m), with d = fan_in + 1, dp = fan_out and m
the batch size.  The rearranged Fisher block is Z = P M Q^T for an m x m
weight matrix M, and its top singular triplets give the Frobenius-nearest
Kronecker sums (Van Loan and Pitsianis, "Approximation with Kronecker
products", 1993).  All four singular-triplet methods share one exact
solve in Gram form and differ only in M and in the number of terms:

================  =====================  =====
method            M                      terms
================  =====================  =====
kpsvd             I/m                    1
deflation         I/m                    2
lanczos           I/m                    2
kfac_corrected    (I - 11^T/m)/m         1, after the moment product
================  =====================  =====

The centred M of `kfac_corrected` is the residual of the moment product:
vec(A_kfac) vec(G_kfac)^T = P 11^T Q^T / m^2.  Deflation and lanczos are
two names for the same two-term solve; the best two-term sum is the
top-two truncated SVD whichever way it is computed.

The solve needs only the m x m Gram matrices K_a = (Abar Abar^T)**2 and
K_g = (G G^T)**2 (entrywise squares) of Abar and G scaled by powers of
two to a largest |entry| in [1/2, 1): exact, so no fourth power
overflows or underflows, and sigma is scaled back.  For any square R with
R R^T = K_g, the top eigenpairs (sigma^2, w) of R^T M K_a M R give
y = M R w / sigma and c = M K_a y / sigma, and the singular vectors fold
to mat(u) = Abar^T diag(y) Abar and mat(v) = G^T diag(c) G.  The two
sides may trade places, so R factors the wider side's Gram matrix: a
width-w Gram matrix has rank up to w(w+1)/2, so that side is the one
more often positive definite, and then R is its Cholesky factor
(`linalg.psd_factor`); a singular one falls back to its eigenvalue
square root, as in 8.3% of the solves of the benchmark's workloads
(319 of 3,840 on `desk_twoterm`, 3 of 36 on `curves_refresh`).
Neither the Fisher block nor Z is ever formed; the cost is
O(m^2 (d + dp) + m^3 + m (d^2 + dp^2)), one m x m Cholesky and one
m x m eigendecomposition (two when Cholesky refuses), with no
iterations and no tolerance.  Sigma is resolved only down to
about 1e-8 * sigma_1 (it is the square root of an eigenvalue), so a
second pair below ``eps`` times sigma_1, or the moment product's norm
for kfac_corrected, is reported as degenerate and zeroed.

`FACTORIZERS` is the one table from method name to factor function;
`kfac`, the moment product, is its fifth row.

Factor conventions shared by all methods:

* a triplet (sigma, u, v) turns into the factor pair
  (sqrt(sigma) * mat(u), sqrt(sigma) * mat(v));
* triplet signs are flipped jointly so trace(mat(u)) >= 0;
* with M = I/m the Gram matrices and M are entrywise nonnegative, so by
  Perron-Frobenius y, c >= 0 for the dominant pair and both of its
  factors are positive semidefinite without any projection; second and
  corrector pairs may legitimately be indefinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import mat, psd_factor, sym_eig, vec
# zf_matvec and zf_rmatvec are unused here but stay importable:
# benchmarks/tracing.py wraps them in this namespace
from .mlp import LayerBatchStats, _layer_stats, zf_matvec, zf_rmatvec  # noqa: F401

__all__ = [
    "KronPair",
    "SingularTriplet",
    "FactorResult",
    "kfac_factors",
    "psd_select",
    "kpsvd_factors",
    "deflation_factors",
    "lanczos_factors",
    "kfac_corrected_factors",
    "FACTORIZERS",
]

# relative cutoff below which a second singular value counts as zero
DEFAULT_EPS = 1e-6


@dataclass
class KronPair:
    """One Kronecker summand: left is d x d, right is dp x dp."""

    left: np.ndarray
    right: np.ndarray


def _unit(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x / 2^e, e) with max |x| / 2^e in [1/2, 1), exactly; e = 0 for an all-zero x."""
    e = math.frexp(np.abs(x).max(initial=0.0))[1]
    return np.ldexp(x, -e), e


@dataclass
class SingularTriplet:
    sigma: float
    u: np.ndarray
    v: np.ndarray
    # the solve is exact; benchmarks/tracing.py still counts unconverged triplets
    converged = True


@dataclass
class FactorResult:
    """Factor pairs of one layer plus the triplets they came from.

    ``pairs`` holds one entry for single-product methods and two for
    rank-two methods (dominant first).  ``triplets`` aligns with pairs;
    the entry is None when the pair did not come from a singular triplet
    (the moment-based factors).  ``degenerate`` marks a second pair that
    fell below the relative cutoff and was zeroed.
    """

    pairs: tuple[KronPair, ...]
    triplets: tuple[SingularTriplet | None, ...]
    degenerate: bool = False

    def sigma(self, idx: int) -> float:
        """Triplet idx's sigma; nan without a triplet or past the last pair."""
        t = self.triplets[idx] if idx < len(self.triplets) else None
        return float("nan") if t is None else t.sigma


def kfac_factors(stats: LayerBatchStats, layer: int) -> KronPair:
    """Moment-product factors: second moments of abar and of g, separately."""
    ab, g = _layer_stats(stats, layer)
    m = ab.shape[0]
    if m == 0:
        raise ValueError("empty batch")
    a, b = ab.T @ ab, g.T @ g
    a /= m
    b /= m
    return KronPair(a, b)


def psd_select(m: np.ndarray) -> np.ndarray:
    """Flip negative eigenvalues in place of clipping them.

    Keeping |eigenvalue| preserves the diagonal magnitude pattern of a
    factor, and against any positive-semidefinite target it never
    increases the Frobenius residual of the Kronecker product.
    """
    vals, vecs = sym_eig(m)
    return (vecs * np.abs(vals)) @ vecs.T


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _fold(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """X^T diag(weights) X, symmetrized against rounding."""
    return _sym(x.T @ (weights[:, None] * x))


def _apply_m(x: np.ndarray, centred: bool) -> np.ndarray:
    """M x without forming M: I/m, or (I - 11^T/m)/m when centred."""
    m = x.shape[0]
    return (x - x.mean(axis=0)) / m if centred else x / m


def _gram_triplets(
    stats: LayerBatchStats, layer: int, terms: int, centred: bool = False
) -> tuple[list[SingularTriplet], float]:
    """Top singular triplets of Z = P M Q^T, exactly, from m x m Gram matrices.

    M is I/m, or (I - 11^T/m)/m when centred.  The wider side's Gram
    matrix K is factored as r r^T (K_a when d > dp, else K_g); with
    b = M r and the top eigenpairs (sigma^2, w) of b^T K_other b,
    ``first = b w / sigma`` weighs the other side's rows and
    ``second = M K_other first / sigma`` the factored side's.  Missing or
    zero singular values come back as zero triplets.  The moment product's
    norm comes back too: sqrt(sum(K_a) sum(K_g)) / m^2, as ||Abar^T Abar||^2 = sum(K_a).
    """
    ab, g = _layer_stats(stats, layer)
    m, d = ab.shape
    dp = g.shape[1]
    # new arrays: the rows belong to forward and are never written
    (ab, e_a), (g, e_g) = _unit(ab), _unit(g)
    ka = (ab @ ab.T) ** 2
    kg = (g @ g.T) ** 2
    moment_norm = float(np.ldexp(np.sqrt(ka.sum() * kg.sum()) / m ** 2, 2 * (e_a + e_g)))
    factor_a = d > dp
    k_root, k_other = (ka, kg) if factor_a else (kg, ka)
    b = _apply_m(psd_factor(k_root), centred)
    s2, w = sym_eig(_sym(b.T @ k_other @ b))
    out = []
    for i in range(terms):
        sigma = float(np.sqrt(max(s2[i], 0.0))) if i < m else 0.0
        if sigma == 0.0:
            out.append(SingularTriplet(0.0, np.zeros(d * d), np.zeros(dp * dp)))
            continue
        first = b @ w[:, i] / sigma
        second = _apply_m(k_other @ first, centred) / sigma
        y, c = (second, first) if factor_a else (first, second)
        left = _fold(ab, y)
        if np.trace(left) < 0.0:
            left, c = -left, -c
        sigma = float(np.ldexp(sigma, 2 * (e_a + e_g)))
        out.append(SingularTriplet(sigma, vec(left), vec(_fold(g, c))))
    return out, moment_norm


def _pair(trip: SingularTriplet) -> KronPair:
    d, dp = math.isqrt(trip.u.size), math.isqrt(trip.v.size)
    root = np.sqrt(trip.sigma)
    return KronPair(root * mat(trip.u, d, d), root * mat(trip.v, dp, dp))


def _with_second(
    first: KronPair, t1: SingularTriplet | None, t2: SingularTriplet, sigma_ref: float, eps: float
) -> FactorResult:
    degenerate = t2.sigma <= eps * sigma_ref
    if degenerate:
        t2 = SingularTriplet(0.0, np.zeros_like(t2.u), np.zeros_like(t2.v))
    return FactorResult(pairs=(first, _pair(t2)), triplets=(t1, t2), degenerate=degenerate)


def kpsvd_factors(stats: LayerBatchStats, layer: int) -> FactorResult:
    """Frobenius-nearest single Kronecker product of one layer's Fisher block."""
    (t1,), _ = _gram_triplets(stats, layer, 1)
    return FactorResult(pairs=(_pair(t1),), triplets=(t1,))


def deflation_factors(
    stats: LayerBatchStats, layer: int, eps: float = DEFAULT_EPS
) -> FactorResult:
    """Frobenius-nearest two-term Kronecker sum: the top two singular triplets.

    The second pair is degenerate, and zeroed, when sigma_2 <= eps * sigma_1.
    """
    (t1, t2), _ = _gram_triplets(stats, layer, 2)
    return _with_second(_pair(t1), t1, t2, t1.sigma, eps)


# the paper's bidiagonalization method targets the same two-term optimum
lanczos_factors = deflation_factors


def kfac_corrected_factors(
    stats: LayerBatchStats, layer: int, eps: float = DEFAULT_EPS
) -> FactorResult:
    """Moment-product factors plus the nearest Kronecker product of what they miss.

    The corrector is degenerate, and zeroed, when its sigma is at most eps
    times the moment product's Frobenius norm, read off the solve's Gram matrices.
    """
    pair1 = kfac_factors(stats, layer)
    (t2,), moment_norm = _gram_triplets(stats, layer, 1, centred=True)
    return _with_second(pair1, None, t2, moment_norm, eps)


# method name -> (stats, layer, eps) -> FactorResult.  Each row resolves its
# factor function when called, not at import: benchmarks/tracing.py times
# the methods by swapping the module-level functions for wrappers.
FACTORIZERS: dict[str, Callable[[LayerBatchStats, int, float], FactorResult]] = {
    "kfac": lambda stats, layer, eps: FactorResult((kfac_factors(stats, layer),), (None,)),
    "kpsvd": lambda stats, layer, eps: kpsvd_factors(stats, layer),
    "deflation": lambda stats, layer, eps: deflation_factors(stats, layer, eps),
    "lanczos": lambda stats, layer, eps: lanczos_factors(stats, layer, eps),
    "kfac_corrected": lambda stats, layer, eps: kfac_corrected_factors(stats, layer, eps),
}
