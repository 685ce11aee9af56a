"""Shared hand-rolled oracles and instance builders for the test suite.

Everything here is deliberately written the slow, obvious way (index
loops, explicit block slicing) so the fast implementations are checked
against independent arithmetic, not against themselves.
"""

import numpy as np

from kronfisher.mlp import backward, forward, init_mlp, sample_targets

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def kron_oracle(a, b):
    """Kronecker product by explicit block assembly."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            out[i * rb : (i + 1) * rb, j * cb : (j + 1) * cb] = a[i, j] * b
    return out


def zigzag_oracle(m, d, dp):
    """Block rearrangement by brute-force block slicing and column stacking."""
    out = np.zeros((d * d, dp * dp))
    for mu in range(d):
        for nu in range(d):
            block = m[mu * dp : (mu + 1) * dp, nu * dp : (nu + 1) * dp]
            out[nu * d + mu, :] = block.reshape(-1, order="F")
    return out


def rand_spd(rng, n, lo=0.5, hi=2.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T


def rand_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) * scale
    return 0.5 * (m + m.T)


def make_model_stats(rng, dims=(4, 3, 2), m=8, loss="bce"):
    """A small network plus backprop stats from model-sampled targets."""
    acts = ["relu"] * (len(dims) - 2) + (["sigmoid"] if loss == "bce" else ["linear"])
    model = init_mlp(list(dims), acts, loss, rng)
    x = rng.random((m, dims[0]))
    layer_acts = forward(model, x)
    y = sample_targets(layer_acts[-1], loss, rng)
    _, stats = backward(model, layer_acts, y)
    return model, x, stats
