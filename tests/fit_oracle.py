"""Exponential decay fits on log samples masked by each caller, as a reference.

The library's ``envelope_fit`` takes the distances and the magnitudes as
whole arrays and keeps the samples at or above the floor itself.  Here
every sample builder applies the floor ``>= TINY`` on its own and takes
the log before a 1-D fit: the kernel sizes of ``kernel_estimates``, the
wavelet decay of ``verify_wavelet_theorem`` and the Gram certificates of
``gram_decay_certificates``.  Tests require the library reports to equal
these exactly.
"""

import math

import numpy as np

from dyadwave.decaymat import DEFAULT_C_MAX, TINY
from dyadwave.space import exponent_a
from dyadwave.wavelet import gram_matrix


def envelope_fit(xs, ys, x_cut=1.0):
    """The 1-D fit of log samples ``ys`` at ``xs``; tied worst samples are
    listed in the order given."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be matching vectors")
    if xs.size == 0:
        return {"C": math.nan, "c": math.nan, "refuted": False,
                "n_pairs": 0, "n_far": 0, "worst": []}
    log_c0 = float(ys.max())
    far = xs >= x_cut
    out = {"n_pairs": int(xs.size), "n_far": int(far.sum())}
    if not far.any():
        c = DEFAULT_C_MAX
    else:
        slopes = (log_c0 - ys[far]) / xs[far]
        c = float(min(slopes.min(), DEFAULT_C_MAX))
    refuted = c <= 0.0
    cover = float((ys + c * xs).max())
    out.update(c=c, C=float(math.exp(min(cover, 700.0))), refuted=bool(refuted))
    worst = []
    if refuted:
        slopes_all = np.full_like(xs, np.inf)
        mask = xs >= x_cut
        slopes_all[mask] = (log_c0 - ys[mask]) / xs[mask]
        order = np.argsort(slopes_all, kind="stable")[:5]
        worst = [{"x": float(xs[i]), "log_value": float(ys[i]),
                  "slope": float(slopes_all[i])} for i in order]
    out["worst"] = worst
    return out


def masked_fit(xs, vals, x_cut=1.0):
    """Keep the entries >= TINY in row-major order, then fit their logs."""
    keep = vals >= TINY
    return envelope_fit(xs[keep], np.log(vals[keep]), x_cut=x_cut)


def decay_certificate(matrix, index_dist, s=1.0, x_cut=1.0):
    """The fit of ``decaymat.decay_certificate`` on valid input."""
    off = ~np.eye(matrix.shape[0], dtype=bool)
    absm = np.abs(matrix)
    keep = off & (absm >= TINY)
    xs = index_dist[keep] ** s
    ys = np.log(absm[keep])
    diag_anchor = float(np.log(np.maximum(np.abs(np.diag(matrix)), TINY)).max())
    fit = envelope_fit(np.r_[xs, 0.0], np.r_[ys, diag_anchor], x_cut=x_cut)
    fit.update(s=float(s), n_pairs=int(keep.sum()))
    return fit


def gram_certificates(space, nets, system, basis):
    """The report of ``wavelet.gram_decay_certificates``."""
    out = {"spline": {}, "prewavelet": {}}
    for k in range(nets.k_min, nets.k_max + 1):
        pts = nets.levels[k]
        dist = space.dist[np.ix_(pts, pts)] / nets.scale(k)
        out["spline"][k] = decay_certificate(gram_matrix(space, system, k),
                                             dist)
    for k, sl in basis.blocks.items():
        pts = basis.centers[sl]
        dist = space.dist[np.ix_(pts, pts)] / nets.scale(k + 1)
        out["prewavelet"][k] = decay_certificate(basis.mgram[k].dense(), dist)
    return out


def wavelet_decay(space, nets, basis):
    """The ``decay`` entry of ``verify_wavelet_theorem``, one level at a
    time."""
    a = exponent_a(space)
    xs, ys = [np.zeros(0)], [np.zeros(0)]
    for k, sl in basis.blocks.items():
        d = space.dist[basis.centers[sl]]
        vals = np.abs(basis.rows[sl]) * np.sqrt(basis.mass_center[k])[:, None]
        keep = vals >= TINY
        xs.append(((d / nets.scale(k)) ** a)[keep])
        ys.append(np.log(vals[keep]))
    return envelope_fit(np.concatenate(xs), np.concatenate(ys))


def kernel_sizes(space, nets, lp, projectors):
    """k -> the ``p_size`` and ``q_size`` entries of ``kernel_estimates``."""
    s = 1.0 / (1.0 + math.log2(space.a0))
    a = exponent_a(space)
    w = space.weights
    out = {}
    for k, P, Q in projectors:
        scale = nets.scale(k)
        rm = np.sqrt(space.ball_masses(np.arange(space.n), scale))
        vals = np.abs(P / w[None, :]) * np.outer(rm, rm)
        out[k] = {"p_size": masked_fit((space.dist / scale) ** s, vals)}
        if Q is None or np.abs(Q / w[None, :]).max() < 1e-14:
            continue
        hvec = (lp.holes_dist[k] / scale) ** a
        xs = (space.dist / scale) ** a + hvec[:, None] + hvec[None, :]
        vals = np.abs(Q / w[None, :]) * np.outer(rm, rm)
        out[k]["q_size"] = masked_fit(xs, vals, x_cut=1.0 + 2.0 * hvec.max())
    return out


def gathered_envelope_fit(xs, values, x_cut=1.0):
    """``decaymat.envelope_fit`` as it was written before it read partly
    kept arrays in place: the samples are gathered unless every entry is
    one."""
    xs = np.asarray(xs, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    keep = values >= TINY
    if keep.all():
        ys = np.log(values)
    else:
        xs, ys = xs[keep], values[keep]
        np.log(ys, out=ys)
    if xs.size == 0:
        return {"C": math.nan, "c": math.nan, "refuted": False,
                "n_pairs": 0, "n_far": 0, "worst": []}
    log_c0 = float(ys.max())
    buf = np.subtract(log_c0, ys)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        buf /= xs
    near = xs < x_cut
    buf[near] = np.inf
    c = float(buf.min(initial=DEFAULT_C_MAX))
    refuted = c <= 0.0
    worst = []
    if refuted:
        order = np.argsort(buf, kind="stable")[:5]
        worst = [{"x": float(xs[i]), "log_value": float(ys[i]),
                  "slope": float(buf[i])} for i in order]
    np.multiply(xs, c, out=buf)
    buf += ys
    cover = float(buf.max())
    return {"n_pairs": int(xs.size),
            "n_far": int(xs.size - np.count_nonzero(near)), "c": c,
            "C": float(math.exp(min(cover, 700.0))),
            "refuted": bool(refuted), "worst": worst}
