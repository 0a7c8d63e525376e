"""Block-local Gram algebra: components, per-component solves and roots,
and the exact zeros they leave in the duals and the basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.csgraph import connected_components

from dyadwave.decaymat import spectral_inverse_sqrt
from dyadwave.errors import NotPositiveDefinite
from dyadwave.wavelet import (component_inverse_sqrt, component_solve,
                              dual_splines, gram_components, pre_wavelets,
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
    root = component_inverse_sqrt(M, np.eye(len(M)))
    oracle = spectral_inverse_sqrt(M)
    assert np.abs(root - oracle)[same].max() <= 1e-13
    assert (root[~same] == 0.0).all()
    inv = component_solve(M, np.eye(len(M)))
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
    with pytest.raises(NotPositiveDefinite, match="2 rows"):
        require_positive_definite(M)
    with pytest.raises(NotPositiveDefinite, match="smallest eigenvalue"):
        component_inverse_sqrt(M, np.eye(3))


@pytest.mark.parametrize("kind,params,delta", [
    ("snowflake", {"n": 96, "eps": 0.5}, 0.5),
    ("point_cloud", {"n": 96, "dim": 2}, 0.4),
])
def test_basis_vanishes_outside_its_component_support(kind, params, delta):
    space, nets, system, mra, basis = assemble(kind, params, delta=delta)
    zeros = 0
    for k, sl in basis.blocks.items():
        base, _ = pre_wavelets(space, nets, mra, k)
        count, label = connected_components(basis.mgram[k] != 0.0,
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
