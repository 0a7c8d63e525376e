"""One-draw-at-a-time reference implementations of the grid skeleton and
the cube samplers.

The library derives the whole skeleton from one parent array per level,
enumerates each level's perturbed grid into a table once and composes
whole batches of draws with array gathers.  The functions here do the
same work the way the construction is stated: explicit children lists, a
stored adjacency per level, one coordinate draw at a time, one cube at a
time, with full distance rows.  Tests require the library's results to
be bit-identical to these.
"""

import math
from types import SimpleNamespace

import numpy as np

from dyadwave.errors import OrderViolation
from dyadwave.randgrid import sample_omega, transition_levels
from dyadwave.seeding import STREAM_BOUNDARY, stream_rng
from dyadwave.space import near_pairs

CHUNK = 256


def reference_order(space, nets):
    """(parent, children) per level: the unique close point when one
    exists, else the nearest, with the children listed per parent."""
    parent = {}
    children = {}
    for k in transition_levels(nets):
        fine = nets.levels[k + 1]
        coarse = nets.levels[k]
        scale = nets.scale(k)
        D = space.dist[np.ix_(fine, coarse)]
        close = D < scale / (2.0 * space.a0)
        cnt = close.sum(axis=1)
        if np.any(cnt > 1):
            raise OrderViolation(
                f"level {k}: multiple close parents; separation broken")
        par = np.argmin(D, axis=1)
        hit = cnt == 1
        par[hit] = np.argmax(close[hit], axis=1)
        if np.any(D[np.arange(len(fine)), par] >= 2.0 * space.a0 * scale):
            raise OrderViolation(
                f"level {k}: a child has no parent within 2*a0*delta^k")
        parent[k] = par
        children[k] = [np.flatnonzero(par == a) for a in range(len(coarse))]
    return SimpleNamespace(parent=parent, children=children)


def grid_labels(space, nets, ref):
    """L, M, the greedy coloring (label1), the sibling ranks (label2), the
    child-by-rank table and the degrees, from a stored adjacency per level
    and the children lists of ``reference_order``."""
    adj = {}
    degrees = {}
    L = 0
    M = 1
    for k in transition_levels(nets):
        fine = nets.levels[k + 1]
        coarse = nets.levels[k]
        par = ref.parent[k]
        thr = nets.scale(k) / (2.0 * space.a0)
        rows, cols, _ = near_pairs(space.dist[np.ix_(fine, fine)], thr)
        A = np.zeros((len(coarse), len(coarse)), dtype=bool)
        A[par[rows], par[cols]] = True
        np.fill_diagonal(A, False)
        adj[k] = A
        deg = A.sum(axis=1)
        degrees[k] = deg
        if len(deg):
            L = max(L, int(deg.max()))
        M = max(M, max(len(c) for c in ref.children[k]))

    label1 = {}
    label2 = {}
    child_by_rank = {}
    for k in transition_levels(nets):
        nc = len(nets.levels[k])
        colors = np.full(nc, -1, dtype=int)
        for a in range(nc):
            used = set(colors[np.flatnonzero(adj[k][a])].tolist())
            c = 0
            while c in used:
                c += 1
            colors[a] = c
        if colors.max(initial=0) > L:
            raise OrderViolation(
                f"level {k}: greedy coloring needs {colors.max() + 1} colors "
                f"but the largest neighbour count is {L}")
        label1[k] = colors
        ranks = np.zeros(len(nets.levels[k + 1]), dtype=int)
        table = np.full((nc, M), -1, dtype=int)
        for a, kids in enumerate(ref.children[k]):
            for r, b in enumerate(np.sort(kids)):
                ranks[b] = r + 1
                table[a, r] = b
        label2[k] = ranks
        child_by_rank[k] = table
    return SimpleNamespace(L=L, M=M, label1=label1, label2=label2,
                           child_by_rank=child_by_rank, degrees=degrees)


def coordinates(labels):
    """All (ell, m) values a single level can take."""
    return [(ell, m) for ell in range(labels.L + 1)
            for m in range(1, labels.M + 1)]


def zpoints(nets, labels, k, ell, m):
    """Perturbed centers at level k under coordinate (ell, m), as points."""
    z = nets.levels[k].copy()
    table = labels.child_by_rank[k]
    sel = (labels.label1[k] == ell) & (table[:, m - 1] >= 0)
    z[sel] = nets.levels[k + 1][table[sel, m - 1]]
    return z


def parents(space, nets, parent, labels, k, ell, m):
    """Perturbed parents for one level transition and one coordinate."""
    z = zpoints(nets, labels, k, ell, m)
    fine = nets.levels[k + 1]
    thr = 0.25 * space.a0 ** -2 * nets.scale(k)
    hits = space.dist[np.ix_(fine, z)] < thr
    cnt = hits.sum(axis=1)
    if np.any(cnt > 1):
        raise OrderViolation(
            f"level {k}: several perturbed centers capture one child")
    par = parent[k].copy()
    cap = cnt == 1
    par[cap] = np.argmax(hits[cap], axis=1)
    return par


def center_stats(space, table, codes, inner_z, r_chain, r_iter):
    """Center quantities of each flat coordinate in ``codes``, from the full
    distance columns of its centers (see ``randgrid._center_stats``)."""
    stats = []
    for z in table.centers.reshape(-1, table.centers.shape[2])[codes]:
        Dz = space.dist[:, z]
        Dzz = Dz[z]
        np.fill_diagonal(Dzz, np.inf)
        stats.append((Dzz.min(), Dz.min(axis=1).max(),
                      np.count_nonzero(Dz < inner_z),
                      np.count_nonzero(Dz < r_chain, axis=1),
                      np.count_nonzero(Dz < r_iter, axis=1)))
    return [np.array(column) for column in zip(*stats)]


def draw(space, nets, parent, labels, omega):
    """Centers, parents and cube assignment of every level for one draw.

    ``omega`` maps each transition level to its (ell, m).
    """
    zp = {}
    par = {}
    for k in sorted(omega):
        zp[k] = zpoints(nets, labels, k, *omega[k])
        par[k] = parents(space, nets, parent, labels, k, *omega[k])
    assign = {}
    finest = np.empty(space.n, dtype=int)
    finest[nets.levels[nets.k_max]] = np.arange(space.n)
    assign[nets.k_max] = finest
    for k in sorted(par, reverse=True):
        assign[k] = par[k][assign[k + 1]]
    return zp, par, assign


def grid_checks(space, nets, parent, labels, seed=0, num_samples=32):
    tls = list(transition_levels(nets))
    batch = sample_omega(labels, tls, seed, count=num_samples)
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
    if not tls:
        rep["z_separation_min_ratio"] = None
        rep["ok"] = True
        return rep
    for i in range(num_samples):
        omega = {k: (int(batch[k][0][i]), int(batch[k][1][i])) for k in tls}
        zpoints_, perturbed, assign = draw(space, nets, parent, labels,
                                           omega)
        zpos = dict(zpoints_)
        zpos[nets.k_max] = nets.levels[nets.k_max]
        for k in tls:
            scale = nets.scale(k)
            pts = nets.levels[k]
            z = zpoints_[k]
            if len(z) > 1:
                Dz = space.dist[np.ix_(z, z)]
                off = Dz[~np.eye(len(z), dtype=bool)]
                rep["z_separation_min_ratio"] = min(
                    rep["z_separation_min_ratio"],
                    float(off.min() / (scale / (2.0 * a0))))
            dens = space.dist[:, z].min(axis=1).max()
            rep["z_density_max_ratio"] = max(
                rep["z_density_max_ratio"],
                float(dens / (4.0 * a0 ** 2 * scale)))
            asg = assign[k]
            rep["center_containment_violations"] += int(
                (asg[pts] != np.arange(len(pts))).sum())
            rep["covering_violations"] += int(
                (asg != perturbed[k][assign[k + 1]]).sum())
            inner_z = 1.0 / 6.0 * a0 ** -5 * scale
            inner_x = 1.0 / 8.0 * a0 ** -3 * scale
            for a in range(len(pts)):
                mem = asg == a
                near_z = space.dist[z[a]] < inner_z
                rep["inner_sandwich_z_violations"] += int(
                    (near_z & ~mem).sum())
                near_x = space.dist[pts[a]] < inner_x
                rep["inner_sandwich_x_violations"] += int(
                    (near_x & ~mem).sum())
                if mem.any():
                    rep["outer_z_max_ratio"] = max(
                        rep["outer_z_max_ratio"],
                        float(space.dist[z[a]][mem].max()
                              / (6.0 * a0 ** 4 * scale)))
                    rep["outer_x_max_ratio"] = max(
                        rep["outer_x_max_ratio"],
                        float(space.dist[pts[a]][mem].max()
                              / (8.0 * a0 ** 5 * scale)))
            zf = zpos[k + 1]
            Dzz = space.dist[np.ix_(zf, z)]
            low = Dzz < (1.0 / 5.0) * a0 ** -3 * scale
            rows, cols = np.nonzero(low)
            rep["chain_lower_violations"] += int(
                (perturbed[k][rows] != cols).sum())
            dpar = Dzz[np.arange(len(zf)), perturbed[k]]
            rep["chain_upper_max_ratio"] = max(
                rep["chain_upper_max_ratio"],
                float(dpar.max(initial=0.0) / (5.0 * a0 ** 3 * scale)))
        for k in tls:
            scale = nets.scale(k)
            zc = zpos[k]
            anc = perturbed[k]
            for lvl in range(k + 2, nets.k_max + 1):
                anc = anc[perturbed[lvl - 1]]
                zf = zpos[lvl]
                Dzz = space.dist[np.ix_(zf, zc)]
                low = Dzz < (1.0 / 6.0) * a0 ** -4 * scale
                rows, cols = np.nonzero(low)
                rep["iterated_lower_violations"] += int(
                    (anc[rows] != cols).sum())
                dpar = Dzz[np.arange(len(zf)), anc]
                rep["iterated_upper_max_ratio"] = max(
                    rep["iterated_upper_max_ratio"],
                    float(dpar.max(initial=0.0) / (6.0 * a0 ** 4 * scale)))
    if rep["z_separation_min_ratio"] is math.inf:
        rep["z_separation_min_ratio"] = None
    rep["ok"] = bool(
        rep["center_containment_violations"] == 0
        and rep["covering_violations"] == 0
        and (rep["z_separation_min_ratio"] is None
             or rep["z_separation_min_ratio"] >= 1.0)
        and rep["z_density_max_ratio"] < 1.0)
    return rep


def boundary_counts(space, nets, parent, labels, eps_grid, num_samples,
                    seed):
    """Per-cell counts of the boundary sampler, draw by draw.

    The distance to the complement of a point's cube is the minimum over
    every other cube of its full distance row.
    """
    eps_grid = sorted(float(e) for e in eps_grid)
    levels = list(nets.level_range)
    tls = list(transition_levels(nets))
    n = space.n
    counts = np.zeros((len(levels), len(eps_grid), n), dtype=np.int64)
    scales = np.array([nets.scale(k) for k in levels])
    for chunk, start in enumerate(range(0, num_samples, CHUNK)):
        size = min(CHUNK, num_samples - start)
        draws = {}
        for k in tls:
            rng = stream_rng(seed, STREAM_BOUNDARY, k, chunk)
            draws[k] = (rng.integers(0, labels.L + 1, size=size),
                        rng.integers(1, labels.M + 1, size=size))
        for i in range(size):
            omega = {k: (int(draws[k][0][i]), int(draws[k][1][i]))
                     for k in tls}
            assign = draw(space, nets, parent, labels, omega)[2]
            for li, k in enumerate(levels):
                asg = assign[k]
                order = np.argsort(asg, kind="stable")
                starts = np.flatnonzero(np.r_[1, np.diff(asg[order])])
                M2 = np.minimum.reduceat(space.dist[:, order], starts, axis=1)
                M2[np.arange(n), asg] = np.inf
                comp = M2.min(axis=1)
                for ei, eps in enumerate(eps_grid):
                    counts[li, ei] += comp < eps * scales[li]
    return counts
