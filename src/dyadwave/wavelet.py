"""Multiresolution analysis over the splines and the orthonormal wavelets.

Each level's splines span a space V_k; the spaces are nested, the coarsest
is the constants and the finest is everything.  Wavelets live in the
orthogonal complements W_k = V_{k+1} minus V_k, one per net point that is
new at level k+1, and are produced by projecting the fine spline at that
point away from V_k and mixing the residuals through the inverse square
root of their normalized Gram matrix.

Both Grams split into small connected components, rows whose functions
overlap, and every inverse, inverse square root and positive-definiteness
proof here runs per component.  Entries between components are then exact
zeros, so each dual and each wavelet vanishes outside the supports of its
own component.  Each Gram's components are found once, and every routine
that runs over them reads the Gram as its component blocks
(``GramBlocks``).  A 1x1 component is solved in closed form, with the bits
of the LAPACK path it replaces (``component_solve``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .decaymat import (above_floor, entry_certificate, envelope_fit,
                       require_symmetric)
from .errors import (
    NotPositiveDefinite,
    RankDeficiency,
    ZeroBallMass,
)
from .nets import NestedNets
from .seeding import stream_rng
from .space import (QuasiMetricSpace, exponent_a, kept_cols, kept_rows,
                    near_pairs)
from .spline import (HOLDER_BUDGET, HOLDER_ETA_CAP, SplineSystem,
                     close_pair_ladder, holder_fit, pair_maxima)

GRAM_TOL = 1e-10


@dataclass(frozen=True)
class GramBlocks:
    """A square Gram held as the diagonal blocks of its components
    (``gram_components``), outside of which every entry is zero: the rows
    and entries of the 1x1 components, and for each larger size, ascending,
    the (count, size) rows and the stacked (count, size, size) blocks."""

    size: int         # rows of the Gram
    rows: np.ndarray  # rows of the 1x1 components
    diag: np.ndarray  # their entries
    larger: list      # (rows, blocks) per component size above 1

    def dense(self) -> np.ndarray:
        """The Gram, with +0.0 outside its components."""
        gram = np.zeros((self.size, self.size))
        gram[self.rows, self.rows] = self.diag
        for idx, blocks in self.larger:
            gram[idx[:, :, None], idx[:, None, :]] = blocks
        return gram


@dataclass(frozen=True)
class MRA:
    """The splines and each level's normalized Gram, proven positive
    definite, as its component blocks; the projection onto V_k solves
    against it."""

    system: SplineSystem
    grams: dict       # k -> GramBlocks of the (n_k, n_k) normalized Gram


@dataclass(frozen=True)
class WaveletBasis:
    """The basis as the one matrix ``build`` writes: the normalized constant,
    then level k's wavelets in ``rows[blocks[k]]``, levels coarse to fine."""

    rows: np.ndarray     # (1 + count, n) basis rows, orthonormal in L2(mu)
    blocks: dict         # k -> slice of rows, for ks with a new point
    centers: np.ndarray  # center point per row, -1 for the constant
    mgram: dict          # k -> GramBlocks of the normalized pre-wavelet Gram
    mass_fine: dict      # k -> mu(B(center, delta^{k+1})), construction norm
    mass_center: dict    # k -> mu(B(center, delta^k)), decay norm


def normalized_gram(gram: np.ndarray, masses) -> np.ndarray:
    """An L2(mu) Gram over the geometric mean of its rows' ball masses.

    Entry (alpha, beta) is <r_alpha, r_beta> / sqrt(m_alpha m_beta); the
    spline and the pre-wavelet Grams are both this matrix.
    """
    masses = np.asarray(masses, dtype=float)
    if (masses <= 0.0).any():
        raise ZeroBallMass("a Gram row has a ball without mass")
    return gram / np.sqrt(np.outer(masses, masses))


def gram_components(gram: np.ndarray) -> list:
    """Connected components of the nonzero pattern of a square Gram.

    One (count, size) array of row indices per component size, sizes
    ascending; components come in order of their first row and each lists
    its rows ascending.  Rows take the smallest row of their component as
    label, by min-label propagation over the nonzero pairs with pointer
    jumping.
    """
    i, j, _ = near_pairs(-np.abs(gram), 0.0)
    label = np.arange(len(gram))
    while True:
        new = label.copy()
        np.minimum.at(new, i, label[j])
        np.minimum.at(new, j, label[i])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    sizes = np.bincount(label, minlength=len(gram))[label]
    order = np.lexsort((label, sizes))
    counts = np.bincount(sizes)
    return [order[end - count:end].reshape(-1, size)
            for size, (count, end) in enumerate(zip(counts, np.cumsum(counts)))
            if count]


def gram_blocks(gram: np.ndarray, components) -> GramBlocks:
    """The blocks of ``gram`` on its ``components``; ``gram_components``
    lists the sizes ascending, so the 1x1 components are the first array of
    the list when there are any."""
    if components and components[0].shape[1] == 1:
        rows = components[0][:, 0]
        diag, components = gram[rows, rows], components[1:]
    else:
        rows, diag = np.zeros(0, dtype=np.intp), np.zeros(0)
    return GramBlocks(len(gram), rows, diag,
                      [(idx, gram[idx[:, :, None], idx[:, None, :]])
                       for idx in components])


def require_positive_definite(gram: GramBlocks) -> None:
    """Raise NotPositiveDefinite unless each Gram component is finite and
    has a Cholesky factor; components of one size share one stacked
    factorization, and a 1x1 component g has one exactly when g > 0.
    OpenBLAS also factors a block that holds a NaN, or an infinite 1x1
    block, so non-finite entries are refused first."""
    diag = gram.diag
    if not ((diag > 0.0) & np.isfinite(diag)).all():
        raise NotPositiveDefinite(
            "a component of 1 rows is not positive definite")
    for idx, blocks in gram.larger:
        if not np.isfinite(blocks).all():
            raise NotPositiveDefinite(
                f"a component of {idx.shape[1]} rows has an entry that is "
                "not finite")
        try:
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                f"a component of {idx.shape[1]} rows is not positive "
                "definite") from exc


def component_solve(gram: GramBlocks, rhs: np.ndarray) -> np.ndarray:
    """Overwrite ``rhs`` with gram^{-1} rhs, one stacked solve per
    component size of a Gram proven positive definite, and return it.

    A 1x1 component g divides its row by g when ``rhs`` has one column,
    and otherwise multiplies it by 1 / g.  That is what OpenBLAS's
    triangular solves do, so the row has the bits of ``np.linalg.solve``;
    the other operation rounds differently.  Every other row is divided or
    multiplied by 1.0 in the same pass, which keeps its bits, so no row is
    gathered.
    """
    factor = np.ones(len(rhs))
    if rhs.shape[1] == 1:
        factor[gram.rows] = gram.diag
        rhs /= factor[:, None]
    else:
        factor[gram.rows] = 1.0 / gram.diag
        rhs *= factor[:, None]
    for idx, blocks in gram.larger:
        rhs[idx] = np.linalg.solve(blocks, rhs[idx])
    return rhs


def component_inverse_sqrt(gram: GramBlocks, rhs: np.ndarray) -> np.ndarray:
    """Overwrite ``rhs`` with gram^{-1/2} rhs, one Gram component at a
    time, and return it.

    Components of one size share one stacked ``eigh``; a smallest
    eigenvalue <= 0 raises NotPositiveDefinite.  A 1x1 component g is its
    own eigenvalue, with eigenvector 1, so its row scales by 1 / sqrt(g).
    The matrix product of the ``eigh`` path sums from +0.0, so the closed
    form adds 0.0 too, which turns -0.0 into +0.0: the bits of that path.
    """
    rows, diag = gram.rows, gram.diag
    _require_positive_eigenvalues(diag)
    rhs[rows] = rhs[rows] * (1.0 / np.sqrt(diag))[:, None] + 0.0
    for idx, blocks in gram.larger:
        vals, vecs = np.linalg.eigh(blocks)
        _require_positive_eigenvalues(vals[:, 0])
        root = (vecs * (1.0 / np.sqrt(vals))[:, None, :]) @ vecs.swapaxes(1, 2)
        rhs[idx] = root @ rhs[idx]
    return rhs


def _require_positive_eigenvalues(smallest: np.ndarray) -> None:
    """Raise NotPositiveDefinite unless every component's smallest
    eigenvalue is > 0."""
    if (smallest <= 0).any():
        raise NotPositiveDefinite(
            f"smallest eigenvalue {smallest.min():.3e} is not positive")


def gram_matrix(space: QuasiMetricSpace, system: SplineSystem,
                k: int) -> np.ndarray:
    """Spline Gram at level k, normalized by the net ball masses; the dense
    level is dropped before the normalization."""
    S = system.values[k]
    gram = (S * space.weights) @ S.T
    del S
    return normalized_gram(gram, system.ball_mass[k])


def build_mra(space: QuasiMetricSpace, system: SplineSystem) -> MRA:
    """Each level's spline Gram, formed once and dense only while its
    components are found, kept as its blocks, and proven positive
    definite.  A NaN anywhere fails the symmetry test, so no nonzero entry
    lies outside the blocks."""
    grams = {}
    for k in sorted(system.triples):
        gram = gram_matrix(space, system, k)
        try:
            require_symmetric(gram)
            grams[k] = gram_blocks(gram, gram_components(gram))
            require_positive_definite(grams[k])
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(f"level {k} Gram: {exc}") from exc
    return MRA(system, grams)


def _dual_solve(mra: MRA, k: int, rhs: np.ndarray) -> np.ndarray:
    """Overwrite ``rhs``, one row per level-k spline, with
    diag(rs) G_k^{-1} diag(rs) rhs, rs the inverse root ball masses."""
    rs = 1.0 / np.sqrt(np.asarray(mra.system.ball_mass[k], dtype=float))
    rhs *= rs[:, None]
    component_solve(mra.grams[k], rhs)
    rhs *= rs[:, None]
    return rhs


def dual_splines(space: QuasiMetricSpace, mra: MRA, k: int) -> np.ndarray:
    """The (n_k, n) level-k duals: spline/dual pairings give the identity.
    They overwrite the level's values, formed afresh at each read."""
    return _dual_solve(mra, k, mra.system.values[k])


def spline_projector(space: QuasiMetricSpace, mra: MRA, k: int, step: int):
    """Yield the (n, n) orthogonal projector onto V_k as (rows, block)
    pairs, consecutive row slices of at least ``step`` rows (all n rows in
    one block when n < 2 step), each formed on demand from the duals.

    A block has the bits of the same rows of the whole product, as long
    as it has more than one row: one row would be a matrix-vector product,
    which rounds otherwise.  So ``step`` must be at least 2.
    """
    S = mra.system.values[k]
    duals_w = dual_splines(space, mra, k)
    duals_w *= space.weights
    parts = max(1, space.n // step)
    bounds = [space.n * i // parts for i in range(parts + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield slice(lo, hi), S[:, lo:hi].T @ duals_w


def pre_wavelets(space: QuasiMetricSpace, nets: NestedNets, mra: MRA,
                 k: int) -> tuple:
    """Level-k pre-wavelets, fine splines at the new points minus V_k,
    their L2(mu) Gram and its components.

    Rows follow the order of appearance of the new points inside level
    k+1.  The residual family must span the full complement.  Rows in
    different components of its Gram are orthogonal, so the rank is the
    sum of the ranks of the components.
    """
    rows = nets.positions(k + 1, space.n)[nets.ydiff[k]]
    base = mra.system.dense_rows(k + 1, rows)
    S = mra.system.values[k]
    # base's projection onto V_k, applied without forming the projector
    resid = base - _dual_solve(mra, k, (S * space.weights) @ base.T).T @ S
    gram = (resid * space.weights) @ resid.T
    components = gram_components(gram)
    rank = sum(component_rank(resid[idx]) for idx in components)
    if rank < len(rows):
        raise RankDeficiency(
            f"level {k} pre-wavelets span only rank {rank} of {len(rows)}")
    return resid, gram, components


def component_rank(rows: np.ndarray) -> int:
    """Summed rank of a (count, size, n) stack of components' rows.

    One row has rank 1 exactly when it is finite and not all zero: the
    decision of ``np.linalg.matrix_rank``'s SVD wherever the row's norm is
    finite (the SVD raises on a NaN instead).  Larger components take
    that SVD.
    """
    if rows.shape[1] == 1:
        return int(np.count_nonzero(np.isfinite(rows).all(axis=(1, 2))
                                    & rows.any(axis=(1, 2))))
    return int(np.linalg.matrix_rank(rows).sum())


def orthonormalize(prewavelets: np.ndarray, gram: np.ndarray, components,
                   masses: np.ndarray, centers):
    """Mix the pre-wavelets, whose L2(mu) Gram is ``gram`` with
    ``components``, into an L2(mu)-orthonormal family.

    Applies the inverse square root of the normalized pre-wavelet Gram,
    one Gram component at a time, and flips each sign so the value at the
    wavelet's own center, in ``centers``, is non-negative.  Normalizing
    by the positive ball masses keeps the components.  Returns (wavelets,
    GramBlocks of the normalized Gram).
    """
    mg = gram_blocks(normalized_gram(gram, masses), components)
    psi = component_inverse_sqrt(
        mg, prewavelets / np.sqrt(np.asarray(masses, float))[:, None])
    centers = np.asarray(centers, dtype=int)
    vals = psi[np.arange(len(centers)), centers]
    psi = psi * np.where(vals < 0.0, -1.0, 1.0)[:, None]
    return psi, mg


def build_wavelet_basis(space: QuasiMetricSpace, nets: NestedNets,
                        mra: MRA) -> WaveletBasis:
    """Orthonormalize each level's pre-wavelets into its slice of rows."""
    ks = [k for k in range(nets.k_min, nets.k_max) if len(nets.ydiff[k])]
    ends = np.cumsum([1] + [len(nets.ydiff[k]) for k in ks]).tolist()
    blocks = {k: slice(a, b) for k, a, b in zip(ks, ends, ends[1:])}
    centers = np.concatenate([[-1], *(nets.ydiff[k] for k in ks)])
    rows = np.empty((len(centers), space.n))
    rows[0] = 1.0 / math.sqrt(space.total_mass)
    mgrams, mass_fine, mass_center = {}, {}, {}
    for k, sl in blocks.items():
        base, gram, components = pre_wavelets(space, nets, mra, k)
        pos = nets.positions(k + 1, space.n)[centers[sl]]
        masses = np.asarray(mra.system.ball_mass[k + 1], dtype=float)[pos]
        rows[sl], mgrams[k] = orthonormalize(base, gram, components, masses,
                                             centers[sl])
        mass_fine[k] = masses
        mass_center[k] = space.ball_masses(centers[sl], nets.scale(k))
    return WaveletBasis(rows, blocks, centers, mgrams, mass_fine, mass_center)


def gram_decay_certificates(space: QuasiMetricSpace, nets: NestedNets,
                            mra: MRA, basis: WaveletBasis) -> dict:
    """Off-diagonal decay of the Grams against the renormalized distance.

    Net points at level k are delta^k-separated, so dividing the distance
    by the scale meets the certificate's separation precondition; the
    pre-wavelet centers live at level k+1 and use that scale instead.
    Both kinds of Gram are read from their blocks, whose entries inside
    the components are the only ones that can be samples, so no square
    array of a level's size is formed; each certificate has the bits of
    ``decay_certificate`` of the dense Gram.
    """
    def certificate(gram, pts, scale):
        return entry_certificate(
            lambda r, c: space.dist[pts[r], pts[c]] / scale, len(pts),
            *_component_entries(gram), 1.0)

    return {"spline": {k: certificate(gram, nets.levels[k], nets.scale(k))
                       for k, gram in mra.grams.items()},
            "prewavelet": {k: certificate(basis.mgram[k], basis.centers[sl],
                                          nets.scale(k + 1))
                           for k, sl in basis.blocks.items()}}


def _component_entries(gram: GramBlocks) -> tuple:
    """(rows, cols, values, diagonal): the off-diagonal entries of a Gram
    inside its components, and its diagonal, read from its blocks."""
    parts = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
              np.zeros(0), gram.diag)]
    for idx, blocks in gram.larger:
        off = ~np.eye(idx.shape[1], dtype=bool)
        parts.append((np.broadcast_to(idx[:, :, None], blocks.shape)[:, off],
                      np.broadcast_to(idx[:, None, :], blocks.shape)[:, off],
                      blocks[:, off], blocks[:, ~off]))
    return tuple(np.concatenate([a.ravel() for a in part])
                 for part in zip(*parts))


def _holder_samples(space, nets, basis):
    """(xs, ys, count): per level with a sample, x = -log(d / scale) and y
    the log of the largest scaled wavelet difference, per close pair with
    one kept (count).  Each level keeps its own two arrays, and nothing
    holds the samples of every level at once."""
    xs, ys, count = [], [], 0
    ladder = close_pair_ladder(
        space.dist, [nets.scale(k) for k in basis.blocks], strict=True)
    for k, sl in basis.blocks.items():
        psi = basis.rows[sl] * np.sqrt(basis.mass_center[k])[:, None]
        rel, sup, kept = pair_maxima(psi, next(ladder))
        del psi
        count += int(kept.sum())
        kept = kept > 0
        x = rel[kept]
        del rel
        y = sup[kept]
        del sup, kept
        if x.size:
            np.negative(np.log(x, out=x), out=x)
            xs.append(x)
            ys.append(np.log(y, out=y))
    return xs, ys, count


def orthonormality_devs(B: np.ndarray, w: np.ndarray, seed: int = 0) -> tuple:
    """(gram_dev, mean_dev, recon_dev) of basis rows, mean row first.

    The reconstruction runs on an (n, n) normal sample drawn from ``seed``.
    """
    gram_dev = float(np.abs((B * w) @ B.T - np.eye(B.shape[0])).max())
    mean_dev = float(np.abs(B[1:] @ w).max()) if B.shape[0] > 1 else 0.0
    sample = stream_rng(seed).standard_normal((B.shape[1],) * 2)
    recon_dev = float(np.abs(B.T @ (B @ (sample * w).T) - sample.T).max())
    return gram_dev, mean_dev, recon_dev


def verify_wavelet_theorem(space: QuasiMetricSpace, nets: NestedNets,
                           basis: WaveletBasis, seed: int = 0,
                           tol: float = GRAM_TOL) -> dict:
    """Numerical report on the orthonormal-basis properties.

    Covers cross-level orthonormality, vanishing means, the basis count and
    reconstruction of random vectors, which gate ``ok`` at ``tol``, and
    fitted envelopes: exponential decay of the scaled wavelet values in
    (d/scale)^a, and the largest smoothness exponent keeping the difference
    constant within budget over pairs closer than the level scale.
    """
    gram_dev, mean_dev, recon_dev = orthonormality_devs(
        basis.rows, space.weights, seed)
    count = len(basis.rows) - 1
    count_ok = count == space.n - 1

    # the blocks tile rows[1:] in level order, so each wavelet row takes
    # its level's scale and its center's ball mass by position
    a = exponent_a(space)
    scale = np.repeat([nets.scale(k) for k in basis.blocks],
                      [sl.stop - sl.start for sl in basis.blocks.values()])
    mass = np.concatenate([np.zeros(0), *basis.mass_center.values()])
    # the scaled distances only at the kept entries, in row-major order
    values = np.abs(basis.rows[1:]) * np.sqrt(mass)[:, None]
    keep = above_floor(values)
    dist = space.dist[kept_rows(basis.centers[1:], keep),
                      kept_cols(np.arange(space.n), keep)]
    decay = envelope_fit((dist / kept_rows(scale, keep)) ** a, values[keep])
    del values, keep, dist    # not held through the Hölder fit's scans
    hx, hy, n_pairs = _holder_samples(space, nets, basis)
    # Scaled wavelet differences are not bounded by 1 the way spline
    # differences are; the admissible constant sits at the budget factor
    # above the observed sup, so the exponent stays scale-free.  Each step
    # is one NumPy reduction over the levels' results, which has the bits
    # of one fit of their concatenation, a NaN sample included.
    if hx:
        shift = float(np.max([y.max() for y in hy]))
        eta_hat = float(np.min([holder_fit(x, y - shift)
                                for x, y in zip(hx, hy)]))
        const = float(np.exp(np.max([(y + eta_hat * x).max()
                                     for x, y in zip(hx, hy)])))
    else:
        eta_hat, const = HOLDER_ETA_CAP, 0.0
    holder = {"eta_hat": eta_hat, "budget": HOLDER_BUDGET, "n_pairs": n_pairs,
              "const": const}

    return {
        "n": space.n,
        "count": count,
        "count_ok": bool(count_ok),
        "gram_dev": gram_dev,
        "mean_dev": mean_dev,
        "recon_dev": recon_dev,
        "a": a,
        "decay": decay,
        "holder": holder,
        "ok": bool(count_ok and gram_dev <= tol
                   and mean_dev <= tol and recon_dev <= tol),
    }
