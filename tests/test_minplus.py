import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import a0_oracle as oracle
from dyadwave.decaymat import chain_constants
from dyadwave.space import (LIPSCHITZ_TOL, MINPLUS_ROWS, build_space,
                            compute_a0, gen_example, minplus)

GENERATORS = [
    ("cyclic", {"n": 12}),
    ("interval", {"n": 17}),
    ("binary_tree", {"depth": 4}),
    ("point_cloud", {"n": 30, "dim": 2}),
    ("koranyi_sphere", {"n": 30, "dim": 2}),
    ("snowflake", {"n": 30, "eps": 0.6}),
]


def assert_matches_oracle(dist, n_max=4):
    raw = compute_a0(dist)
    assert raw == oracle.compute_a0(dist)
    kappa = chain_constants(dist, n_max)["kappa"]
    assert np.array_equal(kappa, oracle.chain_kappa(dist, n_max))
    return raw


@pytest.mark.parametrize("kind,params", GENERATORS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a0_and_chain_constants_match_oracle_on_generators(kind, params, seed):
    sp = gen_example(kind, seed=seed, **params)
    raw = assert_matches_oracle(sp.dist)
    assert sp.a0 == (1.0 if raw <= 1.0 + LIPSCHITZ_TOL else raw)
    assert sp.lipschitz == (sp.a0 == 1.0)


def test_interval_rounding_above_one_is_kept_then_clamped():
    sp = gen_example("interval", n=8)
    assert compute_a0(sp.dist) == oracle.compute_a0(sp.dist)
    assert compute_a0(sp.dist) == 1.0000000000000002
    assert sp.a0 == 1.0
    assert sp.lipschitz


def test_minplus_matches_broadcast_on_rectangles():
    rng = np.random.default_rng(3)
    # one partial row block, then several blocks with a partial last one
    for rows in (23, 2 * MINPLUS_ROWS + 5):
        A = rng.uniform(0.1, 2.0, size=(rows, 11))
        B = rng.uniform(0.1, 2.0, size=(11, 7))
        assert np.array_equal(minplus(A, B), oracle.minplus(A, B))


@st.composite
def quasi_metrics(draw):
    """|x - y|^p on lattice points, p in [1, 3], times a symmetric noise
    factor exp(b), |b| <= 0.5."""
    n = draw(st.integers(2, 16))
    dim = draw(st.integers(1, 2))
    coord = st.integers(0, 16)
    pts = np.array(draw(st.lists(st.tuples(*[coord] * dim), min_size=n,
                                 max_size=n, unique=True))) / 16.0
    power = draw(st.floats(1.0, 3.0))
    noise = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2)) ** power
    return dist * np.exp(0.5 * (noise + noise.T))


@given(quasi_metrics())
def test_a0_and_chain_constants_match_oracle_on_random_quasi_metrics(dist):
    sp = build_space(dist, np.ones(dist.shape[0]))
    assert np.array_equal(sp.dist, dist)
    raw = assert_matches_oracle(sp.dist)
    assert sp.a0 == (1.0 if raw <= 1.0 + LIPSCHITZ_TOL else raw)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(quasi_metrics())
def test_minplus_square_of_symmetric_matrix_matches_oracle(dist):
    # one partial row block: n < MINPLUS_ROWS
    assert_bitwise(minplus(dist, dist), oracle.minplus(dist, dist))


@pytest.mark.parametrize("n", [1, MINPLUS_ROWS, 2 * MINPLUS_ROWS + 5])
def test_minplus_half_square_fills_lower_triangle(n):
    dist = gen_example("snowflake", seed=2, n=n, eps=0.5).dist
    square = minplus(dist, dist)
    assert_bitwise(square, oracle.minplus(dist, dist))
    assert_bitwise(square, square.T)


def test_minplus_general_path_for_asymmetric_or_distinct_operands():
    dist = gen_example("snowflake", seed=3, n=MINPLUS_ROWS + 7, eps=0.5).dist
    skew = dist.copy()
    skew[0, 1:] *= 1.5
    # the same asymmetric matrix twice: its square is not symmetric
    square = minplus(skew, skew)
    assert not np.array_equal(square, square.T)
    assert_bitwise(square, oracle.minplus(skew, skew))
    copy = dist.copy()
    assert_bitwise(minplus(dist, copy), oracle.minplus(dist, copy))
    assert_bitwise(minplus(skew, dist), oracle.minplus(skew, dist))


def test_kernel_memory_stays_quadratic():
    n = 512
    sp = gen_example("snowflake", seed=0, n=n, eps=0.5)
    # one n x n x n temporary would be n times dist.nbytes (1 GB here)
    bound = 8 * sp.dist.nbytes
    for run in (lambda: chain_constants(sp.dist, 2),
                lambda: compute_a0(sp.dist)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
