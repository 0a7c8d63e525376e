"""Interpolating splines: expected cube memberships across the grid ensemble.

The spline of a net point at level k evaluated at x is the probability,
over the uniform coordinate draw, that x lands in that point's cube.  The
coordinate space per level is finite, so the level transition operators
can be enumerated exactly and the values follow by a downward product.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .decaymat import above_floor
from .nets import NestedNets
from .randgrid import (
    GridLabels,
    column_frequencies,
    cube_assignments,
    sample_omega,
    transition_levels,
)
from .space import QuasiMetricSpace, exponent_a, near_pairs

OUTER_SUPPORT = 8.0    # support radius factor a0^5 delta^k, times this
INNER_SUPPORT = 0.125  # plateau radius factor a0^-3 delta^k, times this


def sparse_triples(M) -> np.ndarray:
    """The float64 ``(row, col, value)`` triples of a matrix, in row-major
    order, of every entry whose bits are not +0.0 (a -0.0 is kept, so
    ``dense_from_triples`` forms the matrix back bit for bit)."""
    M = np.asarray(M, dtype=float)
    flat = M.reshape(-1)
    at = np.flatnonzero(flat.view(np.uint64))
    triples = np.empty((len(at), 3))
    triples[:, 0], triples[:, 1] = np.divmod(at, M.shape[1])
    triples[:, 2] = flat[at]
    return triples


def dense_from_triples(triples: np.ndarray, shape) -> np.ndarray:
    """The matrix of ``shape`` holding ``triples``, +0.0 elsewhere."""
    M = np.zeros(shape)
    M[triples[:, 0].astype(np.intp), triples[:, 1].astype(np.intp)] = \
        triples[:, 2]
    return M


@dataclass(frozen=True)
class SplineSystem:
    """Spline values, each level as the ``sparse_triples`` of its (n_k, n)
    matrix, whose rows are net positions and columns points, and net ball
    masses."""

    triples: dict     # k -> (nnz, 3) triples of level k's values
    n: int            # points, the columns of every level
    ball_mass: dict   # k -> (n_k,) masses of B(x^k_alpha, delta^k)

    @property
    def values(self) -> Mapping:
        """k -> level k's dense (n_k, n) values, formed anew at each read."""
        return _DenseLevels(self)

    def dense_rows(self, k: int, rows) -> np.ndarray:
        """The distinct rows ``rows`` of level k's dense values, in that
        order, formed from those rows' triples alone."""
        triples = self.triples[k]
        where = np.full(len(self.ball_mass[k]), -1.0)
        where[rows] = np.arange(len(rows))
        at = where[triples[:, 0].astype(np.intp)]
        mine = triples[at >= 0]
        mine[:, 0] = at[at >= 0]
        return dense_from_triples(mine, (len(rows), self.n))


class _DenseLevels(Mapping):
    """The read-only map ``SplineSystem.values``."""

    def __init__(self, system: SplineSystem):
        self._system = system

    def __getitem__(self, k) -> np.ndarray:
        system = self._system
        return dense_from_triples(system.triples[k],
                                  (len(system.ball_mass[k]), system.n))

    def __iter__(self):
        return iter(self._system.triples)

    def __len__(self) -> int:
        return len(self._system.triples)


def compute_splines(space: QuasiMetricSpace, nets: NestedNets,
                    tables: dict) -> SplineSystem:
    """Exact spline values on all of X at every level.

    At the finest level the cubes are singletons, so the values start from
    the permutation sending positions to points; each coarser level is the
    transition matrix applied to the previous one.  The transition matrix
    of level k, P(perturbed parent of child beta is alpha), is the column
    histogram of that level's table in ``tables`` (``build_grid``) over
    all its coordinates.  Only the level in hand and the one before it
    are dense; each is kept as its triples.
    """
    n = space.n
    finest = nets.levels[nets.k_max]
    values = np.zeros((len(finest), n))
    values[np.arange(len(finest)), finest] = 1.0
    triples = {nets.k_max: sparse_triples(values)}
    for k in reversed(list(transition_levels(nets))):
        parents = tables[k].parents
        T = column_frequencies(parents.reshape(-1, parents.shape[2]),
                               len(nets.levels[k]))
        values = T @ values
        triples[k] = sparse_triples(values)
    ball_mass = {k: space.ball_masses(nets.levels[k], nets.scale(k))
                 for k in nets.level_range}
    return SplineSystem(triples, n, ball_mass)


def mc_membership_frequencies(nets: NestedNets, labels: GridLabels,
                              tables: dict, seed: int,
                              num_samples: int) -> dict:
    """Empirical cube membership frequencies over sampled grids.

    Independent check of the exact values: the drawn rows of the parent
    tables (``build_grid``) are composed into cube assignments and
    counted per point.
    """
    draws = sample_omega(labels, transition_levels(nets), seed,
                         count=num_samples)
    parents = {k: table.parents for k, table in tables.items()}
    return {k: column_frequencies(asg, len(nets.levels[k]))
            for k, asg in cube_assignments(nets, parents, draws, num_samples)}


HOLDER_BUDGET = 4.0
HOLDER_ETA_CAP = 4.0


def holder_fit(xs, ys) -> float:
    """Largest exponent keeping the smoothness constant within budget.

    Samples are pairs (x, y) = (-log relative distance, log difference) with
    x > 0.  The constant at exponent eta is max exp(y + eta x); the returned
    eta_hat is the largest eta (capped) with that constant <= budget, in
    closed form eta_hat = min (log budget - y) / x.  Empty data means every
    exponent is admissible, so the cap is returned.  The budget and the cap
    are HOLDER_BUDGET and HOLDER_ETA_CAP.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0:
        return HOLDER_ETA_CAP
    return float(min(((math.log(HOLDER_BUDGET) - ys) / xs).min(),
                     HOLDER_ETA_CAP))


def _upper_pairs(dist: np.ndarray, scale: float, strict: bool) -> tuple:
    """``near_pairs`` of ``dist`` at ``scale`` over i < j, in row-major
    order with int32 indices, scanned in blocks of rows that keep each
    scan within n^2 / 8 entries."""
    step = max(1, len(dist) // 8)
    blocks = []
    for r0 in range(0, len(dist), step):
        i, j, d = near_pairs(dist[r0:r0 + step, r0:], scale, strict)
        up = i < j
        blocks.append((i[up].astype(np.int32) + r0,
                       j[up].astype(np.int32) + r0, d[up]))
    return tuple(np.concatenate(part) for part in zip(*blocks))


def close_pair_ladder(dist: np.ndarray, scales, strict: bool = False):
    """Yield (i, j, rel = d(i, j) / scale) for each of the non-increasing
    ``scales``, in row-major order over the pairs i < j with d <= scale, so
    rel <= 1 (< if ``strict``; rounding keeps positive quotients on their
    side of 1).  Every Hölder fit reads these, one ladder per loop over the
    levels.  Only the first scale scans ``dist`` (``_upper_pairs``); each
    later list masks the one before, which keeps its row-major order.  The
    indices are int32, so the list kept between levels is 16 bytes a pair.
    """
    i = last = None
    for scale in scales:
        if i is None:
            i, j, d = _upper_pairs(dist, scale, strict)
        elif scale > last:
            raise ValueError(f"scale {scale} above the previous {last}")
        else:
            keep = d < scale if strict else d <= scale
            i, j, d = i[keep], j[keep], d[keep]
        last = scale
        yield i, j, d / scale


def pair_maxima(rows, pairs) -> tuple:
    """(rel, sup, count) over one ``close_pair_ladder`` triple ``pairs``: per
    pair, max over rows of |r(i) - r(j)| and how many of those are
    ``above_floor``.  Blocks of pairs keep each difference array within
    n x n / 8 entries."""
    i, j, rel = pairs
    sup = np.empty(len(i))
    count = np.empty(len(i), dtype=np.int64)
    step = max(1, rows.shape[1] ** 2 // (8 * rows.shape[0]))
    for lo in range(0, len(i), step):
        blk = slice(lo, lo + step)
        diff = np.take(rows, i[blk], axis=1)
        diff -= np.take(rows, j[blk], axis=1)
        np.abs(diff, out=diff)
        sup[blk] = diff.max(axis=0)
        count[blk] = np.count_nonzero(above_floor(diff), axis=0)
    return rel, sup, count


def holder_estimate(system: SplineSystem, space: QuasiMetricSpace,
                    nets: NestedNets) -> dict:
    """Smoothness of the splines in the scaled distance.

    Over pairs with d(x, y) <= delta^k, reports the empirical constant
    sup |s(x) - s(y)| / (d(x, y)/delta^k)^eta at eta = a (``exponent_a``),
    and the largest exponent whose constant stays within the budget.
    """
    eta = exponent_a(space)
    const_at_eta = 0.0
    eta_hat = HOLDER_ETA_CAP
    n_pairs = 0
    levels = nets.level_range
    ladder = close_pair_ladder(space.dist, [nets.scale(k) for k in levels])
    for k in levels:
        rel, diff, _ = pair_maxima(system.values[k], next(ladder))
        n_pairs += rel.size
        const_at_eta = max(const_at_eta,
                           float((diff / rel ** eta).max(initial=0.0)))
        strict = (rel < 1.0) & above_floor(diff)
        eta_hat = min(eta_hat, holder_fit(-np.log(rel[strict]),
                                          np.log(diff[strict])))
    return {"eta": float(eta), "const_at_eta": const_at_eta,
            "eta_hat": eta_hat, "budget": HOLDER_BUDGET, "n_pairs": n_pairs}


def verify_splines(system: SplineSystem, space: QuasiMetricSpace,
                   nets: NestedNets, tol: float = 1e-12) -> dict:
    """Exact identities of the spline family, plus reported observations.

    Gating items (``ok``): partition of unity, interpolation at net points,
    refinement through the transitions, column-stochastic transitions,
    nonnegativity, and persisting-point columns.  The transition of level
    k is its spline at the net points of level k + 1, where the finer
    spline is exactly the identity.  Support radii and smoothness are
    measured and reported but do not gate.
    """
    # the smoothness fit runs first, before any per-level temporary exists
    holder = holder_estimate(system, space, nets)
    part_dev = interp_dev = refine_dev = stoch_dev = persist_dev = 0.0
    nonneg_min = np.inf
    outer_viol = inner_viol = 0
    outer_max_ratio = 0.0
    row_lo, row_hi = np.inf, -np.inf
    a0 = space.a0
    # blocks of rows keep each distance block within n^2 / 8 entries
    step = max(1, space.n // 8)
    # one pass coarse to fine holds levels k and k + 1 dense
    fine = system.values[nets.k_min]
    for k in nets.level_range:
        V = fine
        part_dev = max(part_dev, float(np.abs(V.sum(axis=0) - 1.0).max()))
        at_net = V[:, nets.levels[k]]
        diag = np.arange(len(at_net))
        at_net[diag, diag] -= 1.0
        interp_dev = max(interp_dev, float(np.abs(at_net).max()))
        nonneg_min = min(nonneg_min, float(V.min()))
        del at_net
        if k < nets.k_max:
            fine = system.values[k + 1]
            T = V[:, nets.levels[k + 1]]
            # |T S_{k+1} - S_k| has the bits of |S_k - T S_{k+1}|
            dev = T @ fine
            dev -= V
            refine_dev = max(refine_dev, float(np.abs(dev, out=dev).max()))
            del dev
            stoch_dev = max(stoch_dev,
                            float(np.abs(T.sum(axis=0) - 1.0).max()))
            kept = nets.positions(k + 1, space.n)[nets.levels[k]]
            persist_dev = max(persist_dev, float(
                np.abs(T[np.arange(len(kept)), kept] - 1.0).max()))
        scale = nets.scale(k)
        for r0 in range(0, len(nets.levels[k]), step):
            rows = V[r0:r0 + step]
            D = space.dist[nets.levels[k][r0:r0 + step]]
            plateau = D < INNER_SUPPORT * a0 ** -3 * scale
            inner_viol += int((rows[plateau] < 1.0 - 1e-12).sum())
            D /= OUTER_SUPPORT * a0 ** 5 * scale
            ratio = D[rows > 0]
            outer_max_ratio = max(outer_max_ratio,
                                  float(ratio.max(initial=0.0)))
            outer_viol += int((ratio > 1 + 1e-12).sum())
        sums = V.sum(axis=1)
        row_lo = min(row_lo, float(sums.min()))
        row_hi = max(row_hi, float(sums.max()))
    report = dict(
        partition_dev=part_dev, interpolation_dev=interp_dev,
        refinement_dev=refine_dev, stochastic_dev=stoch_dev,
        min_value=nonneg_min, persistence_dev=persist_dev,
        outer_support_violations=outer_viol,
        outer_support_max_ratio=outer_max_ratio,
        inner_plateau_violations=inner_viol,
        row_sum_range=(row_lo, row_hi),
        holder=holder)
    report["ok"] = bool(
        part_dev <= tol and interp_dev <= tol and refine_dev <= tol
        and stoch_dev <= tol and nonneg_min >= -tol and persist_dev <= tol)
    return report
