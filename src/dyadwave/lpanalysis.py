"""Littlewood-Paley projections, square function, and kernel geometry.

The wavelet basis splits every function into blocks Q_k f per level plus
a mean.  This module forms the block projectors and their cumulative
sums from the basis rows one level at a time, measures the L^p behaviour
of the square function and of random sign flips of the basis, and
quantifies the kernel bounds whose key ingredient is the distance to the
level's new net points (the holes).
"""

import math
from dataclasses import dataclass

import numpy as np

from .decaymat import above_floor, fit_samples
from .errors import BadExponent, BadParams, IncompleteSigns
from .measure import square_function
from .nets import NestedNets
from .seeding import STREAM_SIGNS, STREAM_TRIALS, stream_rng
from .space import QuasiMetricSpace, exponent_a, kept_cols, kept_rows
from .spline import HOLDER_BUDGET, close_pair_ladder, holder_fit
from .wavelet import WaveletBasis

PAIR_BUDGET = 200_000
CZ_ROWS = 64
SYM_TILE = 128   # side of the square tiles of the kernel asymmetry
Q_BLOCK = 1 << 13   # samples of the Q_k size fit gathered at once


@dataclass(frozen=True)
class LPSystem:
    """Per level, the ball masses and hole distances of every point."""

    mass: dict        # k -> (n,) mu(B(x, delta^k)) for every point x
    holes_dist: dict  # k -> (n,) distance to the level's new points


def build_lp(space: QuasiMetricSpace, nets: NestedNets,
             basis: WaveletBasis) -> LPSystem:
    points = np.arange(space.n)
    return LPSystem(
        {k: space.ball_masses(points, nets.scale(k))
         for k in nets.level_range},
        {k: space.dist[:, nets.ydiff[k]].min(axis=1) if k in basis.blocks
         else np.full(space.n, np.inf) for k in nets.level_range})


def lp_projectors(space: QuasiMetricSpace, nets: NestedNets,
                  basis: WaveletBasis):
    """Yield (k, P_k, Q_k) coarse to fine, formed one level at a time.

    Q_k projects onto the level's wavelet span and P_k, the sum of the mean
    projector and the coarser Q's, onto V_k; at the finest level Q is None.
    """
    w = space.weights
    P = np.outer(basis.rows[0], basis.rows[0] * w)
    for k in range(nets.k_min, nets.k_max):
        psi = basis.rows[basis.blocks.get(k, slice(0))]
        Q = psi.T @ (psi * w)
        yield k, P, Q
        P = P + Q
    yield nets.k_max, P, None


def lp_norm(space: QuasiMetricSpace, f, p):
    """The L^p(mu) norm of f, or for a list of exponents the list of norms.

    The powers |f|^p fill the rows of one (len(p), n) array, which is
    weighted and summed in one pass.  Each row is computed as the ``**``
    operator computes it, ``np.square`` at p = 2 and ``np.power``
    otherwise (pow at p = 2 rounds differently), and each root is a
    scalar power (a power over an array rounds some roots differently):
    both keep the bits of ``np.sum(w * np.abs(f) ** p) ** (1 / p)`` for
    each p alone.
    """
    mag = np.abs(np.asarray(f, dtype=float))
    ps = np.atleast_1d(p).tolist()
    powers = np.empty((len(ps), mag.size))
    for row, q in zip(powers, ps):
        if q == 2:
            np.square(mag, out=row)
        else:
            np.power(mag, q, out=row)
    powers *= space.weights
    norms = [float(total ** (1.0 / q))
             for total, q in zip(powers.sum(axis=1), ps)]
    return norms if np.ndim(p) else norms[0]


def lp_equivalence(space: QuasiMetricSpace, basis: WaveletBasis, p_list,
                   num_trials: int = 100, seed: int = 0) -> dict:
    """Range of ||Sf||_p / ||f||_p over random mean-zero test vectors.

    Returns {p: (lo, hi)} for every p in ``p_list``; each trial vector and
    its square function serve all exponents, in one ``lp_norm`` each.  The
    constants are reported, not thresholded; at p = 2 both ends collapse
    to 1 by orthogonality.
    """
    for p in p_list:
        if not 1.0 < p < math.inf:
            raise BadExponent(f"p={p} outside (1, inf)")
    if num_trials < 1:
        raise BadParams("need at least one trial")
    rng = stream_rng(seed, STREAM_TRIALS)
    total = space.total_mass
    rows, blocks = basis.rows, basis.blocks
    bounds = {p: (math.inf, 0.0) for p in p_list}
    ps = list(bounds)
    for _ in range(num_trials):
        f = rng.standard_normal(space.n)
        f -= float(np.sum(space.weights * f)) / total
        sf = square_function(rows, blocks, rows @ (space.weights * f))
        for p, top, bottom in zip(ps, lp_norm(space, sf, ps),
                                  lp_norm(space, f, ps)):
            lo, hi = bounds[p]
            ratio = top / bottom
            bounds[p] = (min(lo, ratio), max(hi, ratio))
    return bounds


def random_signs(basis: WaveletBasis, seed: int = 0) -> np.ndarray:
    """One +-1 per wavelet, in the order of ``basis.rows[1:]``; each
    level's block of signs is one draw."""
    rng = stream_rng(seed, STREAM_SIGNS)
    return np.concatenate([np.zeros(0, dtype=int)] + [
        2 * rng.integers(0, 2, size=sl.stop - sl.start) - 1
        for sl in basis.blocks.values()])


def random_sign_operator(space: QuasiMetricSpace, basis: WaveletBasis,
                         signs) -> np.ndarray:
    """Operator flipping each wavelet by its sign; the mean passes through.

    ``signs`` holds one +-1 per row of ``basis.rows[1:]``.  An L2(mu)
    isometry for any choice of signs.
    """
    B = basis.rows
    signs = np.asarray(signs)
    if signs.shape != (len(B) - 1,):
        raise IncompleteSigns(f"sign vector of shape {signs.shape} for "
                              f"{len(B) - 1} wavelets")
    bad = np.flatnonzero((signs != 1) & (signs != -1))
    if bad.size:
        raise BadParams(f"sign {bad[0]} is {signs[bad[0]]}, not +-1")
    return B.T @ (np.r_[1.0, signs][:, None] * B * space.weights[None, :])


def cz_kernel_bound(space: QuasiMetricSpace, basis: WaveletBasis) -> dict:
    """Empirical constant in the singular-kernel sum bound.

    Scans all pairs x != y for the largest mu(B(x, d(x, y))) times the
    total absolute wavelet kernel sum_k |psi(x) psi(y)|.  Blocks of
    CZ_ROWS rows are sorted at once, stably only when a block has tied
    distances; the ball mass of a point is the running weight sum up to
    the first point of its tie in the sorted row.
    """
    B = basis.rows[1:]
    absk = np.abs(B).T @ np.abs(B)
    n = space.n
    best, pair = 0.0, (0, 0)
    for start in range(0, n, CZ_ROWS):
        rows = space.dist[start:start + CZ_ROWS]
        order = np.argsort(rows, axis=1)
        srt = np.take_along_axis(rows, order, axis=1)
        tie_start = np.ones(srt.shape, dtype=bool)
        np.not_equal(srt[:, 1:], srt[:, :-1], out=tie_start[:, 1:])
        if not tie_start.all():
            # tied distances may come in another order, and the running
            # weight sums below read the order of the stable sort
            order = np.argsort(rows, axis=1, kind="stable")
        cum = np.zeros((len(rows), n + 1))
        np.cumsum(space.weights[order], axis=1, out=cum[:, 1:])
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


def _sample_pairs(pairs, n, pair_budget, seed):
    """The close pairs, a ``close_pair_ladder`` triple, whose regularity
    quotients are taken: all of them while they have at most
    ``pair_budget`` entries over n points, else a draw of pair_budget // n
    of them."""
    iu, ju, rel = pairs
    if iu.size * n > pair_budget and iu.size > 0:
        take = max(1, pair_budget // n)
        idx = stream_rng(seed, STREAM_TRIALS, 1).choice(iu.size, size=take,
                                                        replace=False)
        iu, ju, rel = iu[idx], ju[idx], rel[idx]
    return iu, ju, rel


def _reg_quotients(kernel_t, att, mass, pairs, pair_budget):
    """(x, y, count): x = -log(d / scale) and y the largest log quotient
    over the rows, per sampled close pair with one kept (count).

    ``kernel_t`` is the kernel transposed and C-ordered, so a pair's two
    kernel columns are two contiguous rows of it.  ``att`` holds the
    attenuations exp(-gamma (d / scale)^s), symmetric as the distances
    are, and ``pairs`` the level's ``_sample_pairs``.  Only the entries
    whose difference is ``above_floor`` get a denominator and a log, over
    blocks of max(1, pair_budget // (16 n)) pairs, so a block holds a
    sixteenth of the budget's entries.  A pair's kept quotients are one
    run of the block's, whose length is its count and whose maximum, exact
    in any order, its largest quotient.
    """
    n = len(mass)
    iu, ju, rel = pairs
    if iu.size == 0:
        return np.zeros(0), np.zeros(0), 0
    rm = 1.0 / np.sqrt(mass)
    top = np.full(iu.size, -np.inf)
    kept = np.zeros(iu.size, dtype=np.int64)
    step = max(1, pair_budget // (16 * n))
    for lo in range(0, iu.size, step):
        bi, bj = iu[lo:lo + step], ju[lo:lo + step]
        # row p of a block is the pair (bi[p], bj[p]), column x the point x
        diff = kernel_t[bi]
        diff -= kernel_t[bj]
        np.abs(diff, out=diff)
        keep = above_floor(diff)
        quot = diff[keep]
        del diff
        # the denominators att_i rx rm_i + att_j rx rm_j, formed in place
        p = kept_rows(np.arange(len(bi)), keep)
        rx = kept_cols(rm, keep)
        denom = att[bi][keep]
        denom *= rx
        denom *= rm[bi][p]
        other = att[bj][keep]
        other *= rx
        other *= rm[bj][p]
        denom += other
        del rx, other
        ok = above_floor(denom)
        p = p[ok]
        quot = np.log(quot[ok]) - np.log(denom[ok])
        # p ascends, so each pair's quotients are one run of them
        runs = np.searchsorted(p, np.arange(len(bi) + 1))
        counts = np.diff(runs)
        has = counts > 0
        top[lo:lo + step][has] = np.maximum.reduceat(quot, runs[:-1][has])
        kept[lo:lo + step] = counts
        # no block's arrays are held while the next one is formed
        del keep, p, denom, ok, quot
    return -np.log(rel[kept > 0]), top[kept > 0], int(kept.sum())


def _q_size_samples(dist, scale, a, hvec, rm, keep, mags):
    """The distances of the Q_k size fit at the true entries of ``keep``,
    in row-major order: (d / scale)^a shifted by the holes ``hvec`` of
    both points.  ``mags``, the magnitudes |Q_k / w| gathered through
    ``keep``, is scaled in place by rm rm^T.  Each factor is gathered
    through the mask over blocks of rows that hold about Q_BLOCK samples,
    so no temporary has the size of the samples."""
    xs = np.empty_like(mags)
    # the samples of rows r0 to r1 are entries starts[r0] to starts[r1]
    starts = np.r_[0, np.cumsum(np.count_nonzero(keep, axis=1))]
    # row r begins a block where starts[r] first reaches a multiple of
    # Q_BLOCK, so a block holds at most Q_BLOCK samples and one row more
    cuts = np.r_[0, np.searchsorted(
        starts, np.arange(Q_BLOCK, starts[-1], Q_BLOCK), side="right") - 1,
        len(keep)]
    for r0, r1 in zip(cuts, cuts[1:]):
        blk = keep[r0:r1]
        at = slice(starts[r0], starts[r1])
        rr = kept_rows(rm[r0:r1], blk)
        rr *= kept_cols(rm, blk)
        mags[at] *= rr
        x = dist[r0:r1][blk]
        x /= scale
        np.power(x, a, out=x)
        x += kept_rows(hvec[r0:r1], blk)
        x += kept_cols(hvec, blk)
        xs[at] = x
    return xs


def kernel_estimates(space: QuasiMetricSpace, nets: NestedNets,
                     lp: LPSystem, projectors, pair_budget: int = PAIR_BUDGET,
                     seed: int = 0) -> dict:
    """Envelope fits for the size and regularity bounds of P_k and Q_k.

    ``projectors`` is the (k, P_k, Q_k) stream of ``lp_projectors``, and
    ``lp`` holds the ball masses that normalize both kernels.  P_k is
    fitted in the chain exponent s = 1/(1+log2 a0), Q_k in the wavelet
    exponent a with the additional holes attenuation
    exp(-gamma (d(., new points)/scale)^a) on both arguments.  Row sums
    and kernel symmetry are checked exactly.  The close pairs of the P_k
    regularity quotients come from one ``close_pair_ladder`` over the
    levels.

    Each level raises the n x n scaled distances to the power s once: the
    same array feeds the P_k size fit and then, turned in place into
    exp(-gamma (d/scale)^s), the regularity quotients.  The Q_k size fit is
    formed only on the nonzero entries of Q_k, gathered through a mask over
    broadcast views of the row and column vectors.
    """
    s = 1.0 / (1.0 + math.log2(space.a0))
    a = exponent_a(space)
    w = space.weights
    report = {"s": float(s), "a": float(a), "levels": {}, "nonpositive": []}
    ladder = close_pair_ladder(
        space.dist, [nets.scale(k) for k in nets.level_range], strict=True)
    for k, P, Q in projectors:
        scale = nets.scale(k)
        mass = lp.mass[k]
        rm = np.sqrt(mass)
        entry = {}

        # P_k / w becomes the magnitudes |P_k / w| rm rm^T in place
        mags = P / w[None, :]
        entry["p_rowsum_dev"] = float(np.abs(w @ mags - 1.0).max())
        np.abs(mags, out=mags)
        mags *= np.outer(rm, rm)
        xs = space.dist / scale
        np.power(xs, s, out=xs)
        # the fit takes its logs in the magnitudes' own buffer
        entry["p_size"] = fit_samples(xs.ravel(), mags.ravel(), 1.0)
        del mags
        gamma = entry["p_size"]["c"]
        # the level's pairs are sampled as the ladder yields them, so the
        # list of every close pair is not held beside the kernel below
        if gamma > 0.0:
            pairs = _sample_pairs(next(ladder), space.n, pair_budget, seed)
        else:
            next(ladder)
        # the kernel P_k / w transposed, so a pair's two kernel columns are
        # two contiguous rows.  P_k / w minus it, the asymmetry, is
        # kernel_t.T - kernel_t bit for bit, and exactly antisymmetric, so
        # its largest magnitude is that of the tiles on and above the
        # diagonal, formed one at a time
        kernel_t = np.ascontiguousarray(P.T)
        kernel_t /= w[:, None]
        sym_devs = []
        for r0 in range(0, space.n, SYM_TILE):
            rows = slice(r0, r0 + SYM_TILE)
            for c0 in range(r0, space.n, SYM_TILE):
                cols = slice(c0, c0 + SYM_TILE)
                asym = kernel_t[cols, rows].T - kernel_t[rows, cols]
                sym_devs.append(np.abs(asym, out=asym).max())
        entry["p_sym_dev"] = float(np.max(sym_devs))
        del asym    # the last tile would stay through the fits below
        if gamma > 0.0:
            # the scaled distances become the attenuations in place
            np.multiply(xs, -gamma, out=xs)
            np.exp(xs, out=xs)
            hx, hy, n_kept = _reg_quotients(kernel_t, xs, mass, pairs,
                                            pair_budget)
            # Budget convention: the admissible constant sits at the budget
            # factor above the observed sup of the quotient, keeping the
            # fitted exponent scale-free.
            shift = float(hy.max()) if hx.size else 0.0
            entry["p_reg"] = {
                "eta_hat": holder_fit(hx, hy - shift),
                "budget": HOLDER_BUDGET,
                "const": math.exp(min(shift, 700.0)) if hx.size else math.nan,
                "n_pairs": n_kept,
            }
            del pairs
        else:
            entry["p_reg"] = {"eta_hat": math.nan, "budget": HOLDER_BUDGET,
                              "const": math.nan, "n_pairs": 0}
            report["nonpositive"].append((k, "p_size"))
        del kernel_t, xs

        if Q is not None:
            Q = Q / w[None, :]
            entry["q_rowsum_dev"] = float(np.abs(w @ Q).max())
            np.abs(Q, out=Q)
            if Q.max() < 1e-14:
                entry["q_size"] = {"empty": True, "max_abs": float(Q.max())}
                del Q
            else:
                hvec = (lp.holes_dist[k] / scale) ** a
                # The hole shifts push even zero-distance pairs out to
                # 2*max(hvec); the envelope cut (1 without holes) must
                # clear that band or the anchor pair lands in its own far
                # set.
                cut = 1.0 + 2.0 * float(hvec.max())
                keep = Q > 0.0
                mags = Q[keep]
                del Q
                xs = _q_size_samples(space.dist, scale, a, hvec, rm, keep,
                                     mags)
                del keep
                entry["q_size"] = fit_samples(xs, mags, cut)
                del xs, mags
                if entry["q_size"]["c"] <= 0.0:
                    report["nonpositive"].append((k, "q_size"))
        report["levels"][k] = entry
        # neither P_k nor Q_k / w is held while the next level is formed
        del P
    return report


def substitute_inequality_check(space: QuasiMetricSpace, nets: NestedNets,
                                lp: LPSystem,
                                r_grid=(0.25, 0.5, 1.0)) -> dict:
    """Restricted level sum against the single-ball bound, per radius.

    The left side keeps only levels at scale >= r and attenuates each by
    the holes factor exp(-gamma (d(., new points)/scale)^a); the contrast
    sum drops the attenuation and is the one that grows across gap scales.
    The ball masses enter at power -nu, with nu = gamma = 1 and a the
    wavelet exponent.
    """
    nu = gamma = 1.0
    a = exponent_a(space)
    r_grid = [float(r) for r in r_grid]
    if any(r <= 0.0 for r in r_grid):
        raise BadParams("radii must be positive")
    points = np.arange(space.n)
    # a radius that is a level scale reads that level's table, the same call
    level = {nets.scale(k): k for k in nets.level_range}
    rows = []
    for r in r_grid:
        ks = [k for k in nets.level_range if nets.scale(k) >= r]
        base = (lp.mass[level[r]] if r in level
                else space.ball_masses(points, r)) ** (-nu)
        restricted = np.zeros(space.n)
        unrestricted = np.zeros(space.n)
        for k in ks:
            term = lp.mass[k] ** (-nu)
            hole = np.exp(-gamma * (lp.holes_dist[k] / nets.scale(k)) ** a)
            restricted += term * hole
            unrestricted += term
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = restricted / base
            contrast = unrestricted / base
            factor = np.where(restricted > 0.0, unrestricted / restricted,
                              np.inf)
        rows.append({
            "r": r,
            "n_levels": len(ks),
            "max_ratio": float(ratio.max()) if ks else 0.0,
            "argmax_x": int(ratio.argmax()) if ks else -1,
            "unrestricted_max_ratio": float(contrast.max()) if ks else 0.0,
            "max_contrast_factor": float(factor.max()) if ks else 0.0,
            "contrast_argmax_x": int(factor.argmax()) if ks else -1,
        })
    return {"nu": float(nu), "gamma": float(gamma), "a": float(a),
            "rows": rows,
            "max_ratio": max((row["max_ratio"] for row in rows), default=0.0)}


def growth_sequence(space: QuasiMetricSpace, nets: NestedNets, lp: LPSystem,
                    x: int, r: float) -> dict:
    """Scales where the ball mass at x has grown by the space's step ratio.

    The step 1 + eps is the smallest strictly nontrivial one-level mass
    growth observed anywhere, so levels where the mass stalls (holes) are
    skipped.  Certifies the per-generation mass lower bound and, between
    consecutive picks, the hole-distance lower bound.
    """
    if r <= 0.0:
        raise BadParams("radius must be positive")
    levels = list(nets.level_range)
    mass = lp.mass
    ratios = []
    for k in levels[1:]:
        q = mass[k - 1] / mass[k]
        ratios.extend(q.tolist())
    nontrivial = [q for q in ratios if q > 1.0 + 1e-12]
    eps = (min(nontrivial) - 1.0) if nontrivial else 1.0

    ks = [k for k in levels if nets.scale(k) >= r]
    if not ks:
        return {"eps": eps, "ks": [], "growth_consts": [],
                "hole_consts": []}
    seq = [max(ks)]
    while True:
        cur = seq[-1]
        older = [k for k in ks if k < cur
                 and mass[k][x] >= (1.0 + eps) * mass[cur][x]]
        if not older:
            break
        seq.append(max(older))

    base = space.ball_mass(x, r)
    growth, holec = [], []
    for j, kj in enumerate(seq):
        nxt = seq[j + 1] if j + 1 < len(seq) else None
        gen = [k for k in ks if k <= kj and (nxt is None or k > nxt)]
        growth.append(min(mass[k][x] / ((1.0 + eps) ** j * base)
                          for k in gen))
        if nxt is not None:
            holec.append(min((lp.holes_dist[k][x] + nets.scale(k))
                             / nets.scale(nxt) for k in gen))
    return {"eps": float(eps), "ks": seq, "growth_consts": growth,
            "hole_consts": holec}
