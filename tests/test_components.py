"""Block-local Gram algebra: components, per-component solves and roots,
and the exact zeros they leave in the duals and the basis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import connected_components

from dyadwave.decaymat import spectral_inverse_sqrt
from dyadwave.errors import NotPositiveDefinite
from dyadwave.wavelet import (component_inverse_sqrt, component_rank,
                              component_solve, dual_splines, gram_blocks,
                              gram_components, pre_wavelets,
                              require_positive_definite)
from test_wavelet import assemble


@st.composite
def block_spd_matrices(draw):
    """(M, same): a block-diagonal SPD matrix with rows and columns
    permuted, and the mask of entries inside one block."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    n = sum(sizes)
    M = np.zeros((n, n))
    block = np.repeat(np.arange(len(sizes)), sizes)
    start = 0
    for b in sizes:
        A = draw(hnp.arrays(float, (b, b), elements=st.floats(-1.0, 1.0)))
        shift = draw(st.floats(0.5, 2.0))
        M[start:start + b, start:start + b] = A @ A.T + shift * np.eye(b)
        start += b
    perm = np.asarray(draw(st.permutations(range(n))))
    return M[np.ix_(perm, perm)], (block[perm][:, None] == block[perm])


@settings(max_examples=200, deadline=None)
@given(block_spd_matrices())
def test_component_inverse_sqrt_is_the_spectral_root_per_block(case):
    M, same = case
    blocks = gram_blocks(M, gram_components(M))
    root = component_inverse_sqrt(blocks, np.eye(len(M)))
    oracle = spectral_inverse_sqrt(M)
    assert np.abs(root - oracle)[same].max() <= 1e-13
    assert (root[~same] == 0.0).all()
    inv = component_solve(blocks, np.eye(len(M)))
    assert np.abs(inv - np.linalg.inv(M))[same].max() <= 1e-13
    assert (inv[~same] == 0.0).all()


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))))
def test_components_are_the_connected_components(edges):
    # symmetric pattern on max(shape) rows, diagonal always set
    n = max(edges.shape)
    pattern = np.eye(n, dtype=bool)
    pattern[:edges.shape[0], :edges.shape[1]] |= edges
    pattern |= pattern.T
    count, label = connected_components(pattern, directed=False)
    parts = gram_components(pattern.astype(float))
    rows = [row for idx in parts for row in idx.tolist()]
    assert sorted(len(r) for r in rows) == [len(r) for r in rows]
    assert sorted(i for r in rows for i in r) == list(range(n))
    assert len(rows) == count
    for r in rows:
        assert r == sorted(r)
        assert (label[r] == label[r[0]]).all()


def test_indefinite_component_is_refused():
    M = np.diag([1.0, 2.0, 3.0])
    M[1, 2] = M[2, 1] = 5.0
    blocks = gram_blocks(M, gram_components(M))
    with pytest.raises(NotPositiveDefinite, match="2 rows"):
        require_positive_definite(blocks)
    with pytest.raises(NotPositiveDefinite, match="smallest eigenvalue"):
        component_inverse_sqrt(blocks, np.eye(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("M", [[[0.0]], [[0.0, 0.0], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0, 1.0]],
                               [[2.0, 1.0], [1.0, 0.0]]])
def test_component_with_an_entry_that_is_not_finite_is_refused(M, bad):
    # OpenBLAS factors each of these with a NaN where a 0 stands here, and
    # the 1x1 one with an infinity, without error; every entry set to
    # ``bad`` sits in the one component that spans the whole matrix
    M = np.array(M)
    M[M == 0.0] = bad
    with pytest.raises(NotPositiveDefinite, match=f"{len(M)} rows"):
        require_positive_definite(
            gram_blocks(M, [np.arange(len(M)).reshape(1, -1)]))


ROW_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -5e-324, 1e-310, 1e300, -1e300]),
    st.floats(-1e300, 1e300))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(1),
                                   st.integers(1, 16)),
                  elements=ROW_ENTRIES))
def test_one_row_rank_is_the_svd_decision(rows):
    # matrix_rank raises on a NaN, where the row has no rank to count
    want = []
    for row in rows:
        try:
            want.append(int(np.linalg.matrix_rank(row)))
        except np.linalg.LinAlgError:
            assert np.isnan(row).any()
            want.append(0)
    assert [component_rank(row[None]) for row in rows] == want
    assert component_rank(rows) == sum(want)


@pytest.mark.parametrize("kind,params,delta", [
    ("snowflake", {"n": 96, "eps": 0.5}, 0.5),
    ("point_cloud", {"n": 96, "dim": 2}, 0.4),
])
def test_basis_vanishes_outside_its_component_support(kind, params, delta):
    space, nets, system, mra, basis = assemble(kind, params, delta=delta)
    zeros = 0
    for k, sl in basis.blocks.items():
        base = pre_wavelets(space, nets, mra, k)[0]
        count, label = connected_components(basis.mgram[k].dense() != 0.0,
                                             directed=False)
        # columns where some pre-wavelet of the component is nonzero
        support = np.zeros((count, space.n), dtype=bool)
        np.logical_or.at(support, label, base != 0.0)
        outside = ~support[label]
        assert (basis.rows[sl][outside] == 0.0).all(), k
        zeros += int(outside.sum())
    # the duals vanish off their components too
    for k in mra.grams:
        D = dual_splines(space, mra, k)
        count, label = connected_components(
            (system.values[k] * space.weights) @ system.values[k].T != 0.0,
            directed=False)
        support = np.zeros((count, space.n), dtype=bool)
        np.logical_or.at(support, label, system.values[k] != 0.0)
        assert (D[~support[label]] == 0.0).all(), k
    assert zeros > basis.rows[1:].size // 2


def lapack_solve(gram, parts, rhs):
    """The stacked LAPACK path for every component size, 1x1 included."""
    for idx in parts:
        rhs[idx] = np.linalg.solve(gram[idx[:, :, None], idx[:, None, :]],
                                   rhs[idx])
    return rhs


def lapack_inverse_sqrt(gram, parts, rhs):
    """The stacked eigh path for every component size, 1x1 included."""
    for idx in parts:
        vals, vecs = np.linalg.eigh(gram[idx[:, :, None], idx[:, None, :]])
        root = (vecs * (1.0 / np.sqrt(vals))[:, None, :]) @ vecs.swapaxes(1, 2)
        rhs[idx] = root @ rhs[idx]
    return rhs


@st.composite
def mixed_component_systems(draw):
    """(M, rhs): a permuted block-diagonal SPD matrix of positive 1x1
    blocks of any magnitude, subnormal to huge, mixed with 2x2 and 3x3 SPD
    blocks, and a random right-hand side."""
    sizes = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=1,
                          max_size=16))
    n = sum(sizes)
    M = np.zeros((n, n))
    start = 0
    for b in sizes:
        if b == 1:
            M[start, start] = draw(st.floats(5e-324, 1e300))
        else:
            A = draw(hnp.arrays(float, (b, b),
                                elements=st.floats(-1.0, 1.0)))
            M[start:start + b, start:start + b] = (
                A @ A.T + draw(st.floats(0.5, 2.0)) * np.eye(b))
        start += b
    perm = np.asarray(draw(st.permutations(range(n))))
    cols = draw(st.integers(1, 4))
    rhs = draw(hnp.arrays(float, (n, cols), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e100, 1e100))))
    return M[np.ix_(perm, perm)], rhs


@settings(max_examples=200, deadline=None)
@given(mixed_component_systems())
def test_closed_form_blocks_have_the_bits_of_lapack(case):
    # 1 / g times the row is what OpenBLAS's triangular solve computes for
    # a 1x1 block, and 1 / sqrt(g) what eigh's root applies; a BLAS that
    # rounds otherwise fails here
    M, rhs = case
    parts = gram_components(M)
    for closed, lapack in ((component_solve, lapack_solve),
                           (component_inverse_sqrt, lapack_inverse_sqrt)):
        # 1 / g overflows for the smallest subnormal g, on both paths
        with np.errstate(over="ignore", invalid="ignore"):
            got = closed(gram_blocks(M, parts), rhs.copy())
            want = lapack(M, parts, rhs.copy())
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
            closed.__name__


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.integers(1, 8), elements=st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1.0, np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True))))
def test_one_by_one_proof_is_the_cholesky_outcome(diag):
    # OpenBLAS factors a NaN or an infinite 1x1 block without complaint;
    # the proof refuses both, as it refuses every g that is not > 0
    M = np.diag(diag)
    parts = [np.arange(len(diag)).reshape(-1, 1)]
    try:
        np.linalg.cholesky(diag.reshape(-1, 1, 1))
        factored = np.isfinite(diag).all()
    except np.linalg.LinAlgError:
        factored = False
    try:
        require_positive_definite(gram_blocks(M, parts))
        proven = True
    except NotPositiveDefinite:
        proven = False
    assert proven == factored
