"""Hölder fits from one concatenated sample per (row, pair), as a reference.

The library reduces each close pair to its largest sample before fitting,
which gives the same minimum and maximum because both fits are monotone
in the sample at a fixed pair.  The functions here keep every sample: the
spline estimate, the wavelet fit of ``verify_wavelet_theorem`` and the
regularity quotients of ``kernel_estimates``, each with its own pair
enumeration, and ``close_pairs`` lists one scale's pairs one by one.  Tests
require the library reports to equal these exactly.
"""

import math

import numpy as np

from dyadwave.decaymat import TINY
from dyadwave.seeding import STREAM_TRIALS, stream_rng
from dyadwave.space import exponent_a
from dyadwave.spline import HOLDER_BUDGET, HOLDER_ETA_CAP, holder_fit


def close_pairs(dist, scale, strict=False):
    """(i, j, rel = d / scale) over the pairs i < j with d <= scale (< if
    ``strict``), in row-major order, as ``spline.close_pair_ladder`` lists
    them at each of its scales."""
    n = dist.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (dist[i, j] < scale if strict else dist[i, j] <= scale)]
    i = np.array([a for a, _ in pairs], dtype=np.int32)
    j = np.array([b for _, b in pairs], dtype=np.int32)
    rel = np.array([dist[a, b] / scale for a, b in pairs], dtype=float)
    return i, j, rel


def holder_estimate(system, space, nets, eta=None):
    """The spline report of ``spline.holder_estimate``."""
    if eta is None:
        eta = exponent_a(space)
    iu = np.triu_indices(space.n, k=1)
    d = space.dist[iu]
    const_at_eta = 0.0
    xs_all = []
    ys_all = []
    n_pairs = 0
    for k in nets.level_range:
        rel = d / nets.scale(k)
        near = rel <= 1.0
        if not near.any():
            continue
        V = system.values[k]
        diff = np.abs(V[:, iu[0][near]] - V[:, iu[1][near]]).max(axis=0)
        reln = rel[near]
        n_pairs += int(near.sum())
        const_at_eta = max(const_at_eta, float((diff / reln ** eta).max()))
        strict = (reln < 1.0) & (diff >= TINY)
        if strict.any():
            xs_all.append(-np.log(reln[strict]))
            ys_all.append(np.log(diff[strict]))
    if xs_all:
        eta_hat = holder_fit(np.concatenate(xs_all), np.concatenate(ys_all))
    else:
        eta_hat = HOLDER_ETA_CAP
    return {"eta": float(eta), "const_at_eta": const_at_eta,
            "eta_hat": eta_hat, "budget": HOLDER_BUDGET, "n_pairs": n_pairs}


def holder_samples(space, nets, basis):
    """One sample per (wavelet, pair) with a scaled difference >= TINY."""
    xs, ys = [], []
    iu, ju = np.triu_indices(space.n, k=1)
    for k, sl in basis.blocks.items():
        scale = nets.scale(k)
        rel = space.dist[iu, ju] / scale
        close = (rel > 0.0) & (rel < 1.0)
        if not close.any():
            continue
        logrel = np.log(rel[close])
        psi = basis.rows[sl] * np.sqrt(basis.mass_center[k])[:, None]
        diff = np.abs(psi[:, iu[close]] - psi[:, ju[close]])
        keep = diff >= TINY
        xs.append(np.broadcast_to(-logrel, diff.shape)[keep])
        ys.append(np.log(diff[keep]))
    if not xs:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(xs), np.concatenate(ys)


def wavelet_holder(space, nets, basis):
    """The ``holder`` entry of ``verify_wavelet_theorem``."""
    hx, hy = holder_samples(space, nets, basis)
    shift = float(hy.max()) if hx.size else 0.0
    eta_hat = holder_fit(hx, hy - shift)
    holder = {"eta_hat": eta_hat, "budget": HOLDER_BUDGET,
              "n_pairs": int(hx.size)}
    if hx.size:
        holder["const"] = float(np.exp((hy + eta_hat * hx).max()))
    else:
        holder["const"] = 0.0
    return holder


def reg_quotients(space, kernel, mass, scale, gamma, s, pair_budget, seed):
    """One quotient sample per (row, sampled close pair)."""
    n = space.n
    iu, ju = np.triu_indices(n, k=1)
    rel = space.dist[iu, ju] / scale
    close = (rel > 0.0) & (rel < 1.0)
    iu, ju, rel = iu[close], ju[close], rel[close]
    if iu.size * n > pair_budget and iu.size > 0:
        take = max(1, pair_budget // n)
        idx = stream_rng(seed, STREAM_TRIALS, 1).choice(iu.size, size=take,
                                                        replace=False)
        iu, ju, rel = iu[idx], ju[idx], rel[idx]
    if iu.size == 0:
        return np.zeros(0), np.zeros(0)
    diff = np.abs(kernel[:, iu] - kernel[:, ju])
    rm = 1.0 / np.sqrt(mass)
    att = np.exp(-gamma * (space.dist / scale) ** s)
    denom = (att[:, iu] * rm[:, None] * rm[None, iu]
             + att[:, ju] * rm[:, None] * rm[None, ju])
    keep = (diff >= TINY) & (denom >= TINY)
    xs = np.broadcast_to(-np.log(rel), diff.shape)[keep]
    ys = np.log(diff[keep]) - np.log(denom[keep])
    return xs, ys


def p_reg(space, kernel, mass, scale, gamma, s, pair_budget, seed):
    """The ``p_reg`` entry of one ``kernel_estimates`` level with gamma > 0;
    ``kernel`` is P_k divided by the weights of its columns."""
    hx, hy = reg_quotients(space, kernel, mass, scale, gamma, s,
                           pair_budget, seed)
    shift = float(hy.max()) if hx.size else 0.0
    return {
        "eta_hat": holder_fit(hx, hy - shift),
        "budget": HOLDER_BUDGET,
        "const": math.exp(min(shift, 700.0)) if hx.size else math.nan,
        "n_pairs": int(hx.size),
    }
