"""A dense reference for the whole natural-step protocol, run in lockstep.

Each layer's Fisher block is formed densely (`mlp.exact_fim_block`) and
every factor pair comes from the SVD of its rearranged form
(`linalg.zigzag`), not from the Gram solve.  The reference keeps its own
moving averages and its own dense inverses of the damped Kronecker sums,
from which it predicts each step of `optim.natural_step`:

* refresh at k == 1 or k % t1 == 0, and rebuild at a refresh when a
  multiple of t2 lies after the previous refresh (k == 1 included);
* kfac from the batch moments, kpsvd and deflation from the top one or
  two singular triplets, kfac_corrected from the moments plus the top
  triplet of the dense residual F - A kron G;
* a triplet's factors are sqrt(sigma) mat(u), sqrt(sigma) mat(v), signed
  so that trace(mat(u)) >= 0; a second pair with sigma_2 <= eps sigma_1
  (deflation) or sigma <= eps |A| |G| (kfac_corrected) is zero;
* the blend rho old + (1 - rho) new with rho = min(1 - 1/k, EMA_DECAY);
* the dominant pair damped with the trace-balanced split, the whole sum
  inverted densely at each rebuild and reused until the next;
* nu = min(1, sqrt(clip / sum |<p, g>|)) and the step lr nu p.

Lockstep: the reference reads the library's weights and a copy of its
target generator before each step, so the two compute on one trajectory.
A free-running reference can part from the library for good where a ReLU
preactivation is 0 in one and about 1e-12 in the other.  Forward,
backward and target sampling are the library's own; they are what both
sides start from, not what is checked.
"""

from __future__ import annotations

import copy

import numpy as np

from kronfisher.linalg import zigzag
from kronfisher.mlp import backward, exact_fim_block, forward, sample_targets
from kronfisher.precond import EMA_DECAY

# a kept singular value within this relative distance of the next one
# leaves its singular vectors, and so its factor pair, without a unique value
TIE_REL = 1e-6


class NoUniquePair(Exception):
    """A kept singular value is tied with the next one."""


def _svd(z: np.ndarray):
    """u, sigma, v^T of z, sigma zero-padded past z's rank."""
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    return u, np.concatenate([s, np.zeros(2)]), vt


def _pair(svd, i: int, d: int, dp: int):
    """Triplet i's factors sqrt(sigma) mat(u), sqrt(sigma) mat(v), signed so
    that trace(mat(u)) >= 0; zero for a zero sigma.  A nonzero sigma tied
    with the next one raises `NoUniquePair`."""
    u, s, vt = svd
    if s[i] == 0.0:
        return np.zeros((d, d)), np.zeros((dp, dp))
    if s[i] - s[i + 1] <= TIE_REL * s[i]:
        raise NoUniquePair(f"sigma_{i + 1} = {s[i]:.17g}, sigma_{i + 2} = {s[i + 1]:.17g}")
    left = u[:, i].reshape(d, d, order="F")
    right = vt[i].reshape(dp, dp, order="F")
    if np.trace(left) < 0.0:
        left, right = -left, -right
    root = np.sqrt(s[i])
    return root * left, root * right


def dense_factors(method: str, stats, layer: int, eps: float):
    """(pairs, degenerate) of one layer for `method`, from dense SVDs."""
    ab, g = stats.abar[layer - 1], stats.g[layer - 1]
    m, d = ab.shape
    dp = g.shape[1]
    zero = (np.zeros((d, d)), np.zeros((dp, dp)))
    z = zigzag(exact_fim_block(stats, layer), d, dp)
    moments = (ab.T @ ab / m, g.T @ g / m)
    if method == "kfac":
        return [moments], False
    if method == "kpsvd":
        return [_pair(_svd(z), 0, d, dp)], False
    if method in ("deflation", "lanczos"):
        svd = _svd(z)
        if svd[1][1] <= eps * svd[1][0]:
            return [_pair(svd, 0, d, dp), zero], True
        return [_pair(svd, 0, d, dp), _pair(svd, 1, d, dp)], False
    if method == "kfac_corrected":
        a, b = moments
        svd = _svd(z - np.outer(a.reshape(-1, order="F"), b.reshape(-1, order="F")))
        if svd[1][0] <= eps * np.linalg.norm(a) * np.linalg.norm(b):
            return [moments, zero], True
        return [moments, _pair(svd, 0, d, dp)], False
    raise ValueError(f"no dense reference for {method!r}")


def damped_sum(pairs, damping: float) -> np.ndarray:
    """The dense matrix kron(A_d, G_d) + sum of the other pairs' kron(C, D)."""
    a, g = pairs[0]
    tr_a, tr_g = np.trace(a), np.trace(g)
    pi = np.sqrt((tr_a / len(a)) / (tr_g / len(g))) if tr_a > 0.0 and tr_g > 0.0 else 1.0
    root = np.sqrt(damping)
    total = np.kron(a + pi * root * np.eye(len(a)), g + root / pi * np.eye(len(g)))
    for c, d in pairs[1:]:
        total += np.kron(c, d)
    return total


class DenseOracle:
    """Own averaged pairs and dense inverses per layer; `predict` one step."""

    def __init__(self, n_layers: int, config):
        self.config = config
        self.pairs: list[list | None] = [None] * n_layers
        self.inverses: list[np.ndarray | None] = [None] * n_layers
        self.last_refresh = 0

    def predict(self, model, batch, sample_rng, k: int) -> dict:
        """The step at iteration k from the library's weights and a copy of
        its generator; updates this oracle's pairs and inverses."""
        cfg = self.config
        rng = copy.deepcopy(sample_rng)
        x, y = batch
        acts = forward(model, x)
        refreshed = k == 1 or k % cfg.t1 == 0
        rebuilt = refreshed and (k == 1 or k // cfg.t2 > self.last_refresh // cfg.t2)
        degenerate = None
        if refreshed:
            self.last_refresh = k
            _, stats = backward(model, acts, sample_targets(acts[-1], model.loss, rng), grads=False)
            fresh = [dense_factors(cfg.method, stats, i + 1, cfg.svd_eps)
                     for i in range(model.n_layers)]
            degenerate = [flag for _, flag in fresh]
            rho = min(1.0 - 1.0 / k, EMA_DECAY)
            for i, (pairs, _) in enumerate(fresh):
                if self.pairs[i] is None:
                    self.pairs[i] = [(a.copy(), g.copy()) for a, g in pairs]
                else:
                    self.pairs[i] = [(rho * a0 + (1.0 - rho) * a1, rho * g0 + (1.0 - rho) * g1)
                                     for (a0, g0), (a1, g1) in zip(self.pairs[i], pairs)]
                if rebuilt:
                    self.inverses[i] = np.linalg.inv(damped_sum(self.pairs[i], cfg.damping))
        grads, _ = backward(model, acts, y)
        precond = [(inv @ gr.reshape(-1, order="F")).reshape(gr.shape, order="F")
                   for inv, gr in zip(self.inverses, grads)]
        total = sum(abs(float(np.vdot(p, gr))) for p, gr in zip(precond, grads))
        nu = 1.0 if total <= cfg.clip else float(np.sqrt(cfg.clip / total))
        return {
            "refreshed": refreshed,
            "rebuilt": rebuilt,
            "degenerate": degenerate,
            "nu": nu,
            "steps": [cfg.lr * nu * p for p in precond],
        }
