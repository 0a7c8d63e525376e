"""Randomized dyadic grids over nested nets.

The deterministic skeleton is a reference parent array between adjacent
levels and two label systems derived from it: a proper coloring of the
neighbour graph (label1) and sibling ranks, the columns of the
child-by-rank table.  A uniform coordinate per level then perturbs the
skeleton: each level-k node may hand its identity to one of its children,
and children reattach to the perturbed points when close enough.
Composing the perturbed parent relation yields a random partition of the
space into cubes at every scale.  Each step filters one neighbour list
per level transition (``level_pairs``): its pairs within 2 a0 delta^k.

A level has only (L+1)*M coordinates, so each level's perturbed parents
and centers are enumerated once into a table, and every sampler composes
rows of these tables into cube assignments for a whole batch of draws.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OrderViolation
from .nets import NestedNets
from .seeding import STREAM_BOUNDARY, STREAM_OMEGA, stream_rng
from .space import QuasiMetricSpace, kept_cols, kept_rows, near_pairs

# the boundary slope fit needs this many positive means, so its t quantile
# has at least one degree of freedom
FIT_MIN_POINTS = 3

# scipy.special.stdtrit(dof, 0.975), the two-sided 95% Student t quantile,
# for dof = 1, ..., 30: a slope fit over at most 32 eps values reads it here
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)


@dataclass(frozen=True, eq=False)
class GridLabels:
    L: int
    M: int
    label1: dict          # k -> color per level-k position
    child_by_rank: dict   # k -> (n_k, M) level-(k+1) positions, -1 where absent


@dataclass(frozen=True, eq=False)
class LevelTable:
    """Perturbed grid of one level transition for every coordinate (ell, m).

    Row ``[ell, m - 1]`` holds what the coordinate (ell, m) gives.
    """

    parents: np.ndarray   # (L+1, M, n_{k+1}) level-k parent positions
    centers: np.ndarray   # (L+1, M, n_k) perturbed center points
    pairs: tuple          # the level's neighbour list (``level_pairs``)


def transition_levels(nets: NestedNets):
    return range(nets.k_min, nets.k_max)


def level_pairs(space: QuasiMetricSpace, nets: NestedNets) -> dict:
    """{k: (level-(k+1) row, point, d)} of ``near_pairs`` at 2 a0 delta^k."""
    return {k: near_pairs(space.dist[nets.levels[k + 1]],
                          2.0 * space.a0 * nets.scale(k))
            for k in transition_levels(nets)}


def reference_order(space: QuasiMetricSpace, nets: NestedNets,
                    pairs: dict) -> dict:
    """Deterministic parent relation between consecutive levels.

    Returns {k: level-k parent position per level-(k+1) position}.  A
    child attaches to the unique level-k point closer than
    (1/(2 a0)) delta^k when one exists, which is then its strict nearest,
    otherwise to its nearest level-k point (first in level order on ties).
    Every parent must lie within 2 a0 delta^k of the child, in ``pairs``.
    """
    parent = {}
    for k in transition_levels(nets):
        row, point, d = pairs[k]
        col = nets.positions(k, space.n)[point]
        row, col, d = row[col >= 0], col[col >= 0], d[col >= 0]
        if np.any(np.bincount(row[d < nets.scale(k) / (2.0 * space.a0)]) > 1):
            raise OrderViolation(
                f"level {k}: multiple close parents; separation broken")
        first = np.flatnonzero(np.diff(row, prepend=-1))
        if len(first) < len(nets.levels[k + 1]):
            raise OrderViolation(
                f"level {k}: a child has no parent within 2*a0*delta^k")
        # the lexsort keeps rows sorted: a row's first pair is its nearest
        parent[k] = col[np.lexsort((col, d, row))[first]]
    return parent


def grid_labels(space: QuasiMetricSpace, nets: NestedNets,
                parent: dict, pairs: dict) -> GridLabels:
    """Neighbour coloring and sibling ranks shared by all random draws.

    Two level-k nodes are neighbours when they own children closer than
    (2 a0)^-1 delta^k in ``pairs``.  L is the largest neighbour count, M the
    largest family size; label1 is a greedy proper coloring with values
    in {0..L}, and row a of child_by_rank lists the children of a in level
    order, so column r - 1 holds the child of sibling rank r.
    """
    L = 0
    M = max([1] + [int(np.bincount(p).max()) for p in parent.values()])
    label1 = {}
    child_by_rank = {}
    for k in transition_levels(nets):
        nc = len(nets.levels[k])
        par = parent[k]
        row, point, d = pairs[k]
        col = nets.positions(k + 1, space.n)[point]
        near = (col >= 0) & (d < nets.scale(k) / (2.0 * space.a0))
        src, dst = par[row[near]], par[col[near]]
        off = src != dst
        # each neighbour edge once, grouped by its first node
        edge = np.sort(src[off] * nc + dst[off])
        first, second = np.divmod(edge[np.diff(edge, prepend=-1) > 0], nc)
        degree = np.bincount(first, minlength=nc)
        L = max(L, int(degree.max()))
        second = second.tolist()
        colors = [-1] * nc
        lo = 0
        for a, hi in enumerate(np.cumsum(degree).tolist()):
            used = {colors[b] for b in second[lo:hi]}
            c = 0
            while c in used:
                c += 1
            colors[a] = c
            lo = hi
        colors = np.array(colors)
        if colors.max(initial=0) > L:
            raise OrderViolation(
                f"level {k}: greedy coloring needs {colors.max() + 1} colors "
                f"but the largest neighbour count is {L}")
        label1[k] = colors
        order = np.argsort(par, kind="stable")
        grouped = par[order]
        rank = np.arange(len(par)) - np.searchsorted(grouped, grouped)
        table = np.full((nc, M), -1, dtype=int)
        table[grouped, rank] = order
        child_by_rank[k] = table
    return GridLabels(L, M, label1, child_by_rank)


def sample_omega(labels: GridLabels, levels, seed: int, count: int) -> dict:
    """Draw ``count`` uniform coordinates per level, one stream per level.

    Returns {k: (ell_array, m_array)} with ell in 0..L and m in 1..M.
    """
    out = {}
    for k in levels:
        rng = stream_rng(seed, STREAM_OMEGA, k)
        ell = rng.integers(0, labels.L + 1, size=count)
        m = rng.integers(1, labels.M + 1, size=count)
        out[k] = (ell, m)
    return out


def transition_parents(space: QuasiMetricSpace, nets: NestedNets,
                       parent: dict, labels: GridLabels, k: int,
                       pairs: tuple) -> LevelTable:
    """Perturbed centers and parents of level k for every coordinate.

    Under (ell, m) every level-k node colored ell hands its identity to its
    m-th child, when it has one.  A child then attaches to the perturbed
    center closer than delta^k / (4 a0^2), or keeps its reference parent;
    two such centers for one child break the construction.  The table
    keeps ``pairs``, the level's neighbour list, where it reads captures.
    """
    coarse = nets.levels[k]
    fine = nets.levels[k + 1]
    kids = labels.child_by_rank[k].T                      # (M, n_k)
    colored = labels.label1[k] == np.arange(labels.L + 1)[:, None]
    swap = colored[:, None, :] & (kids >= 0)[None]       # (L+1, M, n_k)
    centers = np.where(swap, fine[kids], coarse)
    close = pairs[2] < 0.25 * space.a0 ** -2 * nets.scale(k)
    child, point = pairs[0][close], pairs[1][close]
    # one pass over all coordinates, flattened in (ell, m) order: pos holds
    # each coordinate's center position of every point, or -1
    flat = centers.reshape(-1, len(coarse))
    coords = np.arange(len(flat))
    pos = np.full((len(flat), space.n), -1, dtype=np.intp)
    pos[coords[:, None], flat] = np.arange(len(coarse))
    hit = pos[:, point]
    cap = hit >= 0
    coord = np.broadcast_to(coords[:, None], cap.shape)[cap]
    kid = np.broadcast_to(child, cap.shape)[cap]
    twice = np.bincount(coord * len(fine) + kid,
                        minlength=len(flat) * len(fine)) > 1
    if twice.any():
        ell, m = divmod(int(twice.argmax()) // len(fine), centers.shape[1])
        raise OrderViolation(
            f"level {k}: several perturbed centers capture one child "
            f"under coordinate ({ell}, {m + 1})")
    parents = np.empty((len(flat), len(fine)), dtype=np.intp)
    parents[:] = parent[k]
    parents[coord, kid] = hit[cap]
    parents = parents.reshape(centers.shape[:2] + (len(fine),))
    return LevelTable(parents, centers, pairs)


def build_grid(space: QuasiMetricSpace, nets: NestedNets) -> tuple:
    """(grid labels, {k: LevelTable}) from one neighbour list per level."""
    pairs = level_pairs(space, nets)
    parent = reference_order(space, nets, pairs)
    labels = grid_labels(space, nets, parent, pairs)
    return labels, {k: transition_parents(space, nets, parent, labels, k,
                                          pairs[k])
                    for k in transition_levels(nets)}


def cube_assignments(nets: NestedNets, parents: dict, draws: dict,
                     count: int):
    """Yield (k, cube position of every point per draw) from finest up.

    ``parents`` maps each transition level to its table's ``parents``
    array and ``draws`` to (ell, m) arrays of length ``count``; each
    yielded array has shape (count, n).  At the finest level the cubes are
    singletons; each coarser level maps the cubes one level down through
    the drawn parent rows.
    """
    finest = nets.levels[nets.k_max]
    asg = np.empty(len(finest), dtype=np.intp)
    asg[finest] = np.arange(len(finest))
    asg = np.broadcast_to(asg, (count, len(finest)))
    yield nets.k_max, asg
    for k in reversed(transition_levels(nets)):
        ell, m = draws[k]
        asg = np.take_along_axis(parents[k][ell, m - 1], asg, axis=1)
        yield k, asg


def column_frequencies(rows: np.ndarray, nrows: int) -> np.ndarray:
    """Share of the draws (axis 0) in which each column takes each row value.

    ``rows`` has shape (draws, ncols); the result has shape (nrows, ncols).
    """
    draws, ncols = rows.shape
    flat = (rows * ncols + np.arange(ncols)).ravel()
    counts = np.bincount(flat, minlength=nrows * ncols)
    return counts.reshape(nrows, ncols) / draws


# ---------------------------------------------------------------------------
# structural checks on sampled grids

def _center_stats(space, fine, table, codes, inner_z, r_chain, r_iter):
    """Per-coordinate quantities that depend on the level's centers only.

    For each flat coordinate in ``codes``: the smallest distance between
    two centers, the largest distance from a point to its nearest center,
    the number of (center, point) pairs closer than ``inner_z``, and per
    point the number of centers closer than ``r_chain`` and ``r_iter``.

    One pass over the table's neighbour list scores every coordinate.  The
    list is grouped by row of ``fine`` and lists each row's own point, so
    every (coordinate, center) pair of a (coordinate, row) mask owns one
    non-empty run of it, and each value is a grouped minimum or count over
    the runs.  The list holds every pair closer than 2 a0 delta^k, above
    the count radii, so the counts are exact, and so is the separation of
    a coordinate with a listed pair of two centers.  A coordinate with none
    reads its center x center block, and a point with no listed center its
    distances to the centers.
    """
    n = space.n
    row, point, d = table.pairs
    z = table.centers.reshape(-1, table.centers.shape[2])[codes]
    coords = np.arange(len(z))
    is_center = np.zeros((len(z), n), dtype=bool)
    is_center[coords[:, None], z] = True
    member = is_center[:, fine]
    # the list positions of every (coordinate, center) run, end to end
    size = np.bincount(row, minlength=len(fine))
    center = kept_cols(np.arange(len(fine)), member)
    run = size[center]
    end = np.cumsum(run)
    at = np.arange(end[-1]) + np.repeat(
        (np.cumsum(size) - size)[center] - (end - run), run)
    code = np.repeat(kept_rows(coords, member), run)
    key = code * n + point[at]
    dz = d[at]
    nearest = np.full(len(z) * n, np.inf)
    np.minimum.at(nearest, key, dz)
    nearest = nearest.reshape(len(z), n)
    for c in np.flatnonzero(np.isinf(nearest).any(axis=1)):
        rest = np.isinf(nearest[c])
        nearest[c, rest] = space.dist[np.ix_(rest, z[c])].min(axis=1)
    # the runs follow the coordinates in order; a pair of two distinct
    # centers counts towards the separation
    sep = np.minimum.reduceat(
        np.where(is_center.ravel()[key] & (dz > 0), dz, np.inf),
        np.searchsorted(code, coords))
    lone = np.flatnonzero(np.isinf(sep))
    diag = np.arange(z.shape[1])
    # blocks of coordinates keep each center x center gather within n x n
    step = max(1, n * n // z.shape[1] ** 2)
    for b0 in range(0, len(lone), step):
        zl = z[lone[b0:b0 + step]]
        block = space.dist[zl[:, :, None], zl[:, None, :]]
        block[:, diag, diag] = np.inf
        sep[lone[b0:b0 + step]] = block.min(axis=(1, 2))
    return (sep, nearest.max(axis=1),
            np.bincount(code[dz < inner_z], minlength=len(z)),
            np.bincount(key[dz < r_chain],
                        minlength=len(z) * n).reshape(len(z), n),
            np.bincount(key[dz < r_iter],
                        minlength=len(z) * n).reshape(len(z), n))


def grid_checks(space: QuasiMetricSpace, nets: NestedNets, labels: GridLabels,
                tables: dict, seed: int = 0, num_samples: int = 32) -> dict:
    """Exact and radius-style checks over sampled coordinate draws.

    Exact items (center containment, separation) feed the pass/fail gate;
    radius observations (sandwich ratios, implication chain) are reported
    with violation counts but make no claim at coarse delta.
    ``covering_violations`` is 0 by construction: each level's cubes are
    composed from the parent maps (``cube_assignments``), so every cube is
    the union of its children.  The key stays in the report.

    Quantities that depend on one level's centers only are computed once
    per distinct drawn coordinate, all in one pass over the level's
    neighbour list (``_center_stats``).  Pair counts such as "points near a
    center but outside its cube" are all near pairs minus the near pairs
    that stay inside a cube, so every per-draw term is a gather of length n.
    ``tables`` are the level tables of ``build_grid``.
    """
    tls = list(transition_levels(nets))
    a0 = space.a0
    rep = {
        "num_samples": num_samples,
        "center_containment_violations": 0,
        "covering_violations": 0,
        "z_separation_min_ratio": math.inf,
        "z_density_max_ratio": 0.0,
        "inner_sandwich_z_violations": 0,
        "inner_sandwich_x_violations": 0,
        "outer_z_max_ratio": 0.0,
        "outer_x_max_ratio": 0.0,
        "chain_lower_violations": 0,
        "chain_upper_max_ratio": 0.0,
        "iterated_lower_violations": 0,
        "iterated_upper_max_ratio": 0.0,
    }
    draws = sample_omega(labels, tls, seed, count=num_samples)
    parents = {k: tables[k].parents for k in tls}
    n = space.n
    cols = np.arange(n)
    # blocks of draws keep each (draws, n) array within max(n^2, 2^16)
    step = max(n, (1 << 16) // n)
    for b0 in range(0, num_samples, step):
        part = {k: (ell[b0:b0 + step], m[b0:b0 + step])
                for k, (ell, m) in draws.items()}
        count = min(step, num_samples - b0)
        draw = np.arange(count)[:, None]
        asg = dict(cube_assignments(nets, parents, part, count))
        par = {k: parents[k][ell, m - 1] for k, (ell, m) in part.items()}
        zpos = {k: tables[k].centers[ell, m - 1]
                for k, (ell, m) in part.items()}
        zpos[nets.k_max] = np.broadcast_to(nets.levels[nets.k_max], (count, n))
        for k in tls:
            scale = nets.scale(k)
            pts = nets.levels[k]
            z = zpos[k]
            inner_z = 1.0 / 6.0 * a0 ** -5 * scale
            inner_x = 1.0 / 8.0 * a0 ** -3 * scale
            r_chain = (1.0 / 5.0) * a0 ** -3 * scale
            r_iter = (1.0 / 6.0) * a0 ** -4 * scale
            ell, m = part[k]
            uniq, u = np.unique(ell * labels.M + (m - 1), return_inverse=True)
            sep, dens, inner, n_chain, n_iter = _center_stats(
                space, nets.levels[k + 1], tables[k], uniq,
                inner_z, r_chain, r_iter)
            if len(pts) > 1:
                rep["z_separation_min_ratio"] = min(
                    rep["z_separation_min_ratio"],
                    float(sep.min() / (scale / (2.0 * a0))))
            rep["z_density_max_ratio"] = max(
                rep["z_density_max_ratio"],
                float(dens.max() / (4.0 * a0 ** 2 * scale)))
            a = asg[k]
            rep["center_containment_violations"] += int(
                (a[:, pts] != np.arange(len(pts))).sum())
            # sandwiches: distance from every point to its own cube's center
            dz = space.dist[z[draw, a], cols]
            dx = space.dist[pts[a], cols]
            rep["inner_sandwich_z_violations"] += int(
                inner[u].sum() - (dz < inner_z).sum())
            # level k lies inside level k + 1, and inner_x < 2 a0 delta^k,
            # so the level's list holds every level-k pair closer than it
            row, _, d = tables[k].pairs
            in_k = np.zeros(len(nets.levels[k + 1]), dtype=bool)
            in_k[nets.positions(k + 1, n)[pts]] = True
            rep["inner_sandwich_x_violations"] += int(
                count * np.count_nonzero(in_k[row] & (d < inner_x))
                - (dx < inner_x).sum())
            rep["outer_z_max_ratio"] = max(
                rep["outer_z_max_ratio"],
                float(dz.max() / (6.0 * a0 ** 4 * scale)))
            rep["outer_x_max_ratio"] = max(
                rep["outer_x_max_ratio"],
                float(dx.max() / (8.0 * a0 ** 5 * scale)))
            # chain bounds: one step, then through composed ancestors
            chain = ("chain", r_chain, 5.0 * a0 ** 3 * scale, n_chain)
            iterated = ("iterated", r_iter, 6.0 * a0 ** 4 * scale, n_iter)
            anc = par[k]
            for lvl in range(k + 1, nets.k_max + 1):
                if lvl > k + 1:
                    anc = anc[draw, par[lvl - 1]]
                key, low, bound, near = chain if lvl == k + 1 else iterated
                zf = zpos[lvl]
                dpar = space.dist[zf, z[draw, anc]]
                rep[f"{key}_lower_violations"] += int(
                    near[u[:, None], zf].sum() - (dpar < low).sum())
                rep[f"{key}_upper_max_ratio"] = max(
                    rep[f"{key}_upper_max_ratio"],
                    float(dpar.max(initial=0.0) / bound))
    if rep["z_separation_min_ratio"] is math.inf:
        rep["z_separation_min_ratio"] = None
    rep["ok"] = bool(
        rep["center_containment_violations"] == 0
        and (rep["z_separation_min_ratio"] is None
             or rep["z_separation_min_ratio"] >= 1.0)
        and rep["z_density_max_ratio"] < 1.0)
    return rep


# ---------------------------------------------------------------------------
# boundary layer Monte Carlo

_CHUNK = 256


def _near_pairs(space, thresholds):
    """Point pairs closer than the largest threshold, grouped by first point.

    Returns (first, second, first eps index the pair falls under, points
    with at least one pair, where their pairs start).
    """
    px, py, d = near_pairs(space.dist, thresholds[-1])
    off = px != py
    px, py = px[off], py[off]
    first = np.searchsorted(thresholds, d[off], side="right")
    rows, starts = np.unique(px, return_index=True)
    return (px, py, first.astype(np.min_scalar_type(len(thresholds))),
            rows, starts)


def _boundary_chunk(nets, labels, parents, layers, n_eps, levels, seed,
                    chunk_index, chunk_size):
    n = len(nets.levels[nets.k_max])
    counts = np.zeros((len(levels), n_eps, n), dtype=np.int64)
    draws = {}
    for k in transition_levels(nets):
        rng = stream_rng(seed, STREAM_BOUNDARY, k, chunk_index)
        draws[k] = (rng.integers(0, labels.L + 1, size=chunk_size),
                    rng.integers(1, labels.M + 1, size=chunk_size))
    for k, asg in cube_assignments(nets, parents, draws, chunk_size):
        if k not in layers or not len(layers[k][0]):
            continue
        li = levels.index(k)
        px, py, first, rows, starts = layers[k]
        # one-byte cube labels where they fit, in blocks of draws, keep each
        # (draws, pairs) array within the bytes of one n x n float64
        asg = asg.astype(np.min_scalar_type(len(nets.levels[k]) - 1))
        step = max(1, 8 * n * n // (len(px) * asg.itemsize))
        for b0 in range(0, chunk_size, step):
            a = asg[b0:b0 + step]
            layer = np.where(a[:, px] != a[:, py], first, n_eps)
            lowest = np.minimum.reduceat(layer, starts, axis=1)
            for ei in range(n_eps):
                counts[li, ei, rows] += (lowest <= ei).sum(axis=0)
    return counts


def boundary_layer_stats(space: QuasiMetricSpace, nets: NestedNets,
                         labels: GridLabels, tables: dict,
                         eps_grid, num_samples: int, seed: int,
                         jobs: int = 1) -> dict:
    """Monte Carlo frequency of the eps boundary layer event per point/level.

    A point is in the eps layer at level k when a point of another cube
    lies closer than eps delta^k.  Only pairs closer than the largest eps
    can decide that, so each level keeps just those pairs, tagged with the
    first eps they fall under; levels with a single cube have no layer.
    The same draws are reused across the whole eps grid, so frequencies are
    monotone in eps by construction.  Sampling is chunked with one RNG
    stream per (level, chunk), which makes the counts independent of the
    worker count.  ``tables`` are the level tables of ``build_grid``; the
    chunks receive only their parent arrays.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    if not eps_grid or eps_grid[0] <= 0:
        raise ValueError("eps grid must be positive")
    levels = list(nets.level_range)
    layers = {k: _near_pairs(space, np.array(eps_grid) * nets.scale(k))
              for k in levels if len(nets.levels[k]) > 1}
    parents = {k: table.parents for k, table in tables.items()}
    args = [(nets, labels, parents, layers, len(eps_grid), levels, seed, ci,
             min(_CHUNK, num_samples - start))
            for ci, start in enumerate(range(0, num_samples, _CHUNK))]
    if jobs > 1 and len(args) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            counts = sum(pool.map(_boundary_chunk, *zip(*args)))
    else:
        counts = sum(_boundary_chunk(*a) for a in args)
    freq = counts / float(num_samples)
    mean_freq = freq.mean(axis=(0, 2))
    per_cell_se = np.sqrt(freq * (1.0 - freq) / num_samples)
    return {
        "eps_grid": eps_grid,
        "levels": levels,
        "num_samples": int(num_samples),
        "counts": counts,
        "freq": freq,
        "per_cell_stderr": per_cell_se,
        "mean_freq": mean_freq,
    }


def fit_boundary_exponent(stats: dict) -> dict:
    """Log-log least squares fit of mean boundary frequency against eps.

    The arithmetic is that of ``scipy.stats.linregress`` and its slope
    standard error; the 95% interval uses the Student t quantile.  Fewer
    than FIT_MIN_POINTS positive means, or a single eps, give no fit: every
    fitted field is NaN.
    """
    eps = np.array(stats["eps_grid"])
    mean = np.array(stats["mean_freq"])
    keep = mean > 0
    out = {"n_points": int(keep.sum())}
    x = np.log(eps[keep])
    y = np.log(mean[keep])
    if keep.sum() < FIT_MIN_POINTS or x.min() == x.max():
        out.update(eta=math.nan, log_c=math.nan, ci95=(math.nan, math.nan),
                   stderr=math.nan, r2=math.nan)
        return out
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssym == 0.0:
        r = np.float64(math.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    dof = len(x) - 2
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / dof)
    if dof <= len(_T975):
        tq = _T975[dof - 1]
    else:
        from scipy.special import stdtrit
        tq = stdtrit(dof, 0.975)
    out.update(
        eta=float(slope),
        log_c=float(np.mean(y) - slope * np.mean(x)),
        stderr=float(stderr),
        ci95=(float(slope - tq * stderr), float(slope + tq * stderr)),
        r2=float(r ** 2),
    )
    return out
