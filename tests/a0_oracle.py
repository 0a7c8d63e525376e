"""Direct reference implementations of a0 and the chain constants.

The library computes both from one row-blocked min-plus kernel that never
holds more than an n x n result and one row block.  The functions here do
the same work the way it is stated: a0 as the largest ratio
d(x,z) / (d(x,y) + d(y,z)) scanned one intermediate point at a time, and
the chain constants from min-plus powers formed as full n x n x n
broadcasts.  Tests require the library results to equal these exactly.
"""

import numpy as np


def compute_a0(dist):
    """Largest d(x,z) / (d(x,y) + d(y,z)) over x != z and y outside {x, z},
    clamped at 1."""
    n = dist.shape[0]
    best = 1.0
    idx = np.arange(n)
    for j in range(n):
        denom = dist[:, j][:, None] + dist[j, :][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0, dist / denom, 0.0)
        ratio[j, :] = 0.0
        ratio[:, j] = 0.0
        ratio[idx, idx] = 0.0
        m = ratio.max()
        if m > best:
            best = float(m)
    return best


def minplus(D, dist):
    return (D[:, :, None] + dist[None, :, :]).min(axis=1)


def chain_kappa(dist, n_max):
    """kappa[m - 1] = max over x != z of d(x,z) / (m-hop min-plus power)."""
    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool)
    kappa = np.empty(n_max)
    D = dist.copy()
    kappa[0] = float((dist[off] / D[off]).max())
    for m in range(1, n_max):
        D = minplus(D, dist)
        kappa[m] = float((dist[off] / D[off]).max())
    return kappa
