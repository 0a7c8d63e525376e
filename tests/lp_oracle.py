"""Dense per-level projectors kept for every level at once, as a reference.

The library forms each projector from the rows it is made of, one level
at a time, when a result needs it.  The functions here store all of them
up front: the projector onto V_k of every level, the wavelet-block
projectors Q_k and their running sums P_k, and the square function as a
sum of dense Q_k f.  Tests require the library's basis and kernel report
to equal what these produce exactly, and its square function to agree
to rounding.

The library's pre-wavelets never form the projector onto V_k: they apply
the Gram inverse to the splines' pairings with the new fine splines.
``wavelets`` does the same arithmetic level by level, and the library's
basis must equal it exactly; ``dense_prewavelets`` multiplies by the
stored projectors instead, and tests require the library's pre-wavelets
to agree with it to rounding.

``gather_square_function`` and ``lp_equivalence`` are the list-gather
form: each level's rows and coefficients are copied out by a list of row
indices, once per call, and each norm is taken for one exponent at a
time (``lp_norm``).  The library reads each level as a slice of the
basis rows and takes the norms of all exponents at once; tests require
its bounds and square function to equal these exactly.

``cz_kernel_bound`` is the per-point form of the singular-kernel scan; the
library sorts blocks of rows at once and must report the same constant
and pair.  ``blocked_cz_kernel_bound`` sorts the same blocks, always with
the stable sort; the library must report its bits.
"""

import math

import numpy as np

from dyadwave.seeding import STREAM_TRIALS, stream_rng
from dyadwave.wavelet import (component_solve, dual_splines, gram_components,
                              orthonormalize)


def lp_norm(space, f, p) -> float:
    """The L^p(mu) norm of f for one exponent."""
    f = np.asarray(f, dtype=float)
    return float(np.sum(space.weights * np.abs(f) ** p) ** (1.0 / p))


def spline_projectors(space, mra) -> dict:
    """k -> (n, n) orthogonal projector onto V_k."""
    w = space.weights
    return {k: mra.system.values[k].T @ (dual_splines(space, mra, k) * w)
            for k in mra.grams}


def _new_fine_splines(space, nets, mra):
    """(k, fine splines at the points new at level k+1, their positions)
    for each level that adds a point."""
    for k in range(nets.k_min, nets.k_max):
        if len(nets.ydiff[k]):
            rows = nets.positions(k + 1, space.n)[nets.ydiff[k]]
            yield k, mra.system.values[k + 1][rows], rows


def dense_prewavelets(space, nets, mra) -> dict:
    """k -> pre-wavelets taken against the stored dense projectors: the new
    fine splines minus their products with the projector onto V_k."""
    proj = spline_projectors(space, mra)
    return {k: base - (proj[k] @ base.T).T
            for k, base, _ in _new_fine_splines(space, nets, mra)}


def wavelets(space, nets, mra) -> dict:
    """k -> orthonormal wavelet rows, from pre-wavelets that apply each
    level's Gram inverse to the new fine splines' pairings with the
    splines."""
    w = space.weights
    out = {}
    for k, base, rows in _new_fine_splines(space, nets, mra):
        S = mra.system.values[k]
        rs = 1.0 / np.sqrt(np.asarray(mra.system.ball_mass[k], dtype=float))
        coef = rs[:, None] * component_solve(
            mra.grams[k], rs[:, None] * ((S * w) @ base.T))
        resid = base - coef.T @ S
        masses = np.asarray(mra.system.ball_mass[k + 1], dtype=float)[rows]
        gram = (resid * w) @ resid.T
        out[k] = orthonormalize(resid, gram, gram_components(gram), masses,
                                centers=nets.ydiff[k])[0]
    return out


def lp_blocks(space, nets, basis) -> tuple:
    """(qproj, pproj): Q_k for k below the finest level (zero where the
    level adds no point) and P_k for every level."""
    n = space.n
    w = space.weights
    qproj, pproj = {}, {}
    running = np.outer(basis.rows[0], basis.rows[0] * w)
    for k in range(nets.k_min, nets.k_max + 1):
        pproj[k] = running.copy()
        if k == nets.k_max:
            break
        if k in basis.blocks:
            psi = basis.rows[basis.blocks[k]]
            qproj[k] = psi.T @ (psi * w)
        else:
            qproj[k] = np.zeros((n, n))
        running = running + qproj[k]
    return qproj, pproj


def projectors(qproj, pproj):
    """The stored blocks in the library's (k, P_k, Q_k) order."""
    for k in sorted(pproj):
        yield k, pproj[k], qproj.get(k)


def square_function(qproj, f) -> np.ndarray:
    total = np.zeros(len(f))
    for Q in qproj.values():
        total += (Q @ f) ** 2
    return np.sqrt(total)


def row_levels(blocks, count) -> list:
    """The level of each of ``count`` basis rows, None for the mean row."""
    levels = [None] * count
    for k, sl in blocks.items():
        levels[sl] = [k] * (sl.stop - sl.start)
    return levels


def gather_square_function(rows, levels, coeffs) -> np.ndarray:
    """Square function from the rows whose ``levels`` entry is each k."""
    coeffs = np.asarray(coeffs, dtype=float)
    total = np.zeros(rows.shape[1])
    for k in sorted({lvl for lvl in levels if lvl is not None}):
        idx = [i for i, lvl in enumerate(levels) if lvl == k]
        total += (rows[idx].T @ coeffs[idx]) ** 2
    return np.sqrt(total)


def lp_equivalence(space, basis, p_list, num_trials=100, seed=0) -> dict:
    """{p: (lo, hi)} of ||Sf||_p / ||f||_p, through the list gather."""
    rng = stream_rng(seed, STREAM_TRIALS)
    total = space.total_mass
    rows = basis.rows
    levels = row_levels(basis.blocks, len(rows))
    bounds = {p: (math.inf, 0.0) for p in p_list}
    for _ in range(num_trials):
        f = rng.standard_normal(space.n)
        f -= float(np.sum(space.weights * f)) / total
        sf = gather_square_function(rows, levels, rows @ (space.weights * f))
        for p, (lo, hi) in bounds.items():
            ratio = lp_norm(space, sf, p) / lp_norm(space, f, p)
            bounds[p] = (min(lo, ratio), max(hi, ratio))
    return bounds


def cz_kernel_bound(space, basis) -> dict:
    """The report of ``lpanalysis.cz_kernel_bound``, one point at a time:
    each row is sorted on its own and every ball mass found by a search."""
    B = basis.rows[1:]
    absk = np.abs(B).T @ np.abs(B)
    n = space.n
    best, pair = 0.0, (0, 0)
    for x in range(n):
        row = space.dist[x]
        order = np.argsort(row, kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(space.weights[order])])
        mass = cum[np.searchsorted(row[order], row, side="left")]
        scores = mass * absk[x]
        scores[x] = -1.0
        y = int(scores.argmax())
        if scores[y] > best:
            best, pair = float(scores[y]), (x, y)
    return {"c_hat": best, "pair": pair, "n_pairs": n * (n - 1)}


def blocked_cz_kernel_bound(space, basis, block_rows=64) -> dict:
    """The report of ``lpanalysis.cz_kernel_bound`` as it was written
    before it tried the default sort first: every block of rows sorted
    with the stable sort."""
    B = basis.rows[1:]
    absk = np.abs(B).T @ np.abs(B)
    n = space.n
    best, pair = 0.0, (0, 0)
    for start in range(0, n, block_rows):
        rows = space.dist[start:start + block_rows]
        order = np.argsort(rows, axis=1, kind="stable")
        srt = np.take_along_axis(rows, order, axis=1)
        cum = np.zeros((len(rows), n + 1))
        np.cumsum(space.weights[order], axis=1, out=cum[:, 1:])
        tie_start = np.ones(srt.shape, dtype=bool)
        tie_start[:, 1:] = srt[:, 1:] != srt[:, :-1]
        first = np.maximum.accumulate(np.where(tie_start, np.arange(n), 0),
                                      axis=1)
        mass = np.empty(srt.shape)
        np.put_along_axis(mass, order,
                          np.take_along_axis(cum, first, axis=1), axis=1)
        scores = mass * absk[start:start + len(rows)]
        x = np.arange(len(rows))
        scores[x, start + x] = -1.0
        y = scores.argmax(axis=1)
        top = scores[x, y]
        r = int(top.argmax())
        if top[r] > best:
            best, pair = float(top[r]), (start + r, int(y[r]))
    return {"c_hat": best, "pair": pair, "n_pairs": n * (n - 1)}
