"""Whole-array forms of three stages, as references for their blocked forms.

The library forms the Gram certificates from the blocks of the spline and
the pre-wavelet Grams, keeps the wavelet Hölder samples one array per
level, and writes ``basis_values.csv`` a block of rows at a time.  The functions here are those stages as they
were first written: every Gram and its index distances made dense, the
Hölder samples of every level concatenated into one fit, and the whole
matrix formatted at once.  Tests require the library's reports and bytes
to equal these exactly.
"""

import numpy as np

from dyadwave import cli
from dyadwave.decaymat import TINY, envelope_fit
from dyadwave.errors import BadParams
from dyadwave.spline import (HOLDER_BUDGET, close_pair_ladder, holder_fit,
                             pair_maxima)


def decay_certificate(matrix, index_dist, s=1.0):
    """``decaymat.decay_certificate`` over every off-diagonal entry."""
    off = ~np.eye(matrix.shape[0], dtype=bool)
    if off.any():
        dmin = float(index_dist[off].min())
        if not (dmin >= 1.0 - 1e-9 and dmin ** s <= dmin * (1 + 1e-12)):
            raise BadParams(
                f"index set not 1-separated (min distance {dmin:.3e})")
    anchor = max(float(np.abs(np.diag(matrix)).max()), TINY)
    fit = envelope_fit(np.r_[index_dist[off] ** s, 0.0],
                       np.r_[np.abs(matrix[off]), anchor])
    fit.update(s=float(s), n_pairs=fit["n_pairs"] - 1)
    return fit


def dense_gram(gram):
    """A ``wavelet.GramBlocks`` as its dense matrix, +0.0 outside the
    components."""
    dense = np.zeros((gram.size, gram.size))
    dense[gram.rows, gram.rows] = gram.diag
    for idx, blocks in gram.larger:
        dense[idx[:, :, None], idx[:, None, :]] = blocks
    return dense


def gram_decay_certificates(space, nets, mra, basis):
    """The report of ``wavelet.gram_decay_certificates``, each Gram and
    its index distances dense."""
    def cert(gram, pts, scale):
        return decay_certificate(gram, space.dist[np.ix_(pts, pts)] / scale)
    return {"spline": {k: cert(dense_gram(gram), nets.levels[k],
                               nets.scale(k))
                       for k, gram in mra.grams.items()},
            "prewavelet": {k: cert(dense_gram(basis.mgram[k]),
                                   basis.centers[sl], nets.scale(k + 1))
                           for k, sl in basis.blocks.items()}}


def wavelet_holder(space, nets, basis):
    """The ``holder`` entry of ``wavelet.verify_wavelet_theorem``, from
    one concatenation of every level's samples."""
    xs, ys, count = [np.zeros(0)], [np.zeros(0)], 0
    ladder = close_pair_ladder(
        space.dist, [nets.scale(k) for k in basis.blocks], strict=True)
    for k, sl in basis.blocks.items():
        psi = basis.rows[sl] * np.sqrt(basis.mass_center[k])[:, None]
        rel, sup, kept = pair_maxima(psi, next(ladder))
        xs.append(-np.log(rel[kept > 0]))
        ys.append(np.log(sup[kept > 0]))
        count += int(kept.sum())
    hx, hy = np.concatenate(xs), np.concatenate(ys)
    shift = float(hy.max()) if hx.size else 0.0
    eta_hat = holder_fit(hx, hy - shift)
    return {"eta_hat": eta_hat, "budget": HOLDER_BUDGET, "n_pairs": count,
            "const": float(np.exp((hy + eta_hat * hx).max()))
            if hx.size else 0.0}


def write_csv(path, rows):
    """``cli.write_csv`` formatting the whole matrix at once."""
    cli._write_text(path, "\n".join(cli._fmt_rows(rows)) + "\n")
