import math
import tracemalloc

import numpy as np
import pytest

import lp_oracle as oracle
from dyadwave.cli import _dumps

from dyadwave.errors import (
    BadExponent,
    BadParams,
    DimensionMismatch,
    IncompleteSigns,
)
from dyadwave.lpanalysis import (
    build_lp,
    cz_kernel_bound,
    growth_sequence,
    kernel_estimates,
    lp_equivalence,
    lp_norm,
    lp_projectors,
    random_sign_operator,
    random_signs,
    substitute_inequality_check,
)
from dyadwave.measure import square_function
from dyadwave.nets import build_nets
from dyadwave.randgrid import build_grid
from dyadwave.seeding import STREAM_SIGNS, stream_rng
from dyadwave.space import build_space, exponent_a, gen_example
from dyadwave.spline import compute_splines
from dyadwave.wavelet import build_mra, build_wavelet_basis, pre_wavelets
from test_wavelet import projector

FLEET = [
    ("cyclic", {"n": 16}),
    ("interval", {"n": 64}),
    ("binary_tree", {"depth": 4}),
    ("point_cloud", {"n": 40, "dim": 2}),
    ("koranyi_sphere", {"n": 30, "dim": 2}),
    ("snowflake", {"n": 32, "eps": 0.5}),
]


def assemble(kind, params, delta=0.5, seed=1):
    space = gen_example(kind, seed=seed, **params)
    return assemble_space(space, delta)


def assemble_space(space, delta=0.5):
    nets = build_nets(space, delta)
    system = compute_splines(space, nets, build_grid(space, nets)[1])
    mra = build_mra(space, system)
    basis = build_wavelet_basis(space, nets, mra)
    lp = build_lp(space, nets, basis)
    return space, nets, mra, basis, lp


def two_cluster(m=16, gap=100.0):
    block = gen_example("cyclic", n=m)
    d = np.full((2 * m, 2 * m), gap)
    d[:m, :m] = block.dist
    d[m:, m:] = block.dist
    np.fill_diagonal(d, 0.0)
    return build_space(d, np.ones(2 * m))


def two_point():
    return build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))


def mean_zero(space, f):
    return f - np.sum(space.weights * f) / space.total_mass


def blocks(space, nets, basis):
    """k -> (P_k, Q_k) of every level; small test spaces only."""
    return {k: (P, Q) for k, P, Q in lp_projectors(space, nets, basis)}


def sf_of(basis, space, f):
    """Square function of f through the basis rows and their level slices."""
    rows = basis.rows
    return square_function(rows, basis.blocks, rows @ (space.weights * f))


def test_build_lp_key_layout():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    lp_blocks = blocks(space, nets, basis)
    assert sorted(lp_blocks) == list(range(nets.k_min, nets.k_max + 1))
    assert [k for k, (_, Q) in lp_blocks.items() if Q is None] == [nets.k_max]
    assert sorted(lp.holes_dist) == list(range(nets.k_min, nets.k_max + 1))
    assert sorted(lp.mass) == sorted(lp.holes_dist)
    for k, mass in lp.mass.items():
        assert np.array_equal(
            mass, space.ball_masses(np.arange(space.n), nets.scale(k)))


def test_telescoping_fleet():
    for kind, params in FLEET:
        space, nets, mra, basis, lp = assemble(kind, params)
        lp_blocks = blocks(space, nets, basis)
        for k in range(nets.k_min, nets.k_max):
            gap = lp_blocks[k + 1][0] - lp_blocks[k][0] - lp_blocks[k][1]
            assert np.abs(gap).max() <= 1e-12, (kind, k)


def test_pproj_matches_spline_projectors():
    for kind, params in FLEET:
        space, nets, mra, basis, lp = assemble(kind, params)
        for k, P, _ in lp_projectors(space, nets, basis):
            dev = np.abs(P - projector(space, mra, k)).max()
            assert dev <= 1e-10, (kind, k, dev)


def test_finest_pproj_is_identity():
    space, nets, mra, basis, lp = assemble("interval", {"n": 32})
    P = blocks(space, nets, basis)[nets.k_max][0]
    assert np.abs(P - np.eye(space.n)).max() <= 1e-12


def test_blocks_orthogonal_and_idempotent():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    qs = {k: Q for k, (_, Q) in blocks(space, nets, basis).items()
          if Q is not None}
    for k, Q in qs.items():
        assert np.abs(Q @ Q - Q).max() <= 1e-12
        for j in qs:
            if j != k:
                assert np.abs(Q @ qs[j]).max() <= 1e-12


def test_resolution_of_identity():
    for kind, params in FLEET:
        space, nets, mra, basis, lp = assemble(kind, params)
        total = np.outer(basis.rows[0], basis.rows[0] * space.weights)
        for _, _, Q in lp_projectors(space, nets, basis):
            if Q is not None:
                total = total + Q
        assert np.abs(total - np.eye(space.n)).max() <= 1e-12, kind


def test_kernel_symmetry_and_row_sums():
    for kind, params in [("cyclic", {"n": 16}), ("interval", {"n": 64})]:
        space, nets, mra, basis, lp = assemble(kind, params)
        w = space.weights
        for k, Pproj, Qproj in lp_projectors(space, nets, basis):
            P = Pproj / w[None, :]
            assert np.abs(P - P.T).max() <= 1e-10
            assert np.abs(w @ P - 1.0).max() <= 1e-10
            assert np.abs(P * w[None, :] - Pproj).max() <= 1e-12
            if Qproj is None:
                continue
            Q = Qproj / w[None, :]
            assert np.abs(Q - Q.T).max() <= 1e-10
            assert np.abs(w @ Q).max() <= 1e-10


@pytest.mark.parametrize("kind,params", FLEET)
def test_basis_matches_dense_projector_oracle(kind, params):
    space, nets, mra, basis, lp = assemble(kind, params)
    dense = oracle.wavelets(space, nets, mra)
    assert sorted(dense) == list(basis.blocks)
    for k, sl in basis.blocks.items():
        assert np.array_equal(basis.rows[sl], dense[k]), k


@pytest.mark.parametrize("kind,params,delta", [
    *((kind, params, 0.5) for kind, params in FLEET),
    ("point_cloud", {"n": 64, "dim": 2}, None),  # the randomized regime
])
def test_prewavelets_match_dense_projector_path(kind, params, delta):
    space = gen_example(kind, seed=1, **params)
    if delta is None:
        delta = 0.5 * 0.25 * space.a0 ** -2
    space, nets, mra, basis, lp = assemble_space(space, delta)
    dense = oracle.dense_prewavelets(space, nets, mra)
    assert sorted(dense) == list(basis.blocks)
    for k, want in dense.items():
        got = pre_wavelets(space, nets, mra, k)[0]
        rows = nets.positions(k + 1, space.n)[nets.ydiff[k]]
        scale = np.abs(mra.system.values[k + 1][rows]).max()
        assert np.abs(got - want).max() <= 1e-13 * scale, k


@pytest.mark.parametrize("kind,params", FLEET)
def test_kernel_estimates_match_dense_oracle(kind, params):
    space, nets, mra, basis, lp = assemble(kind, params)
    got = kernel_estimates(space, nets, lp, lp_projectors(space, nets, basis))
    qproj, pproj = oracle.lp_blocks(space, nets, basis)
    fed = kernel_estimates(space, nets, lp, oracle.projectors(qproj, pproj))
    # the serialized form spells NaN the same on both sides
    assert _dumps(got) == _dumps(fed)
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.standard_normal(space.n)
        want = oracle.square_function(qproj, f)
        dev = np.abs(sf_of(basis, space, f) - want).max()
        assert dev <= 1e-12 * max(1.0, float(np.abs(want).max())), dev


@pytest.mark.parametrize("kind,params,delta", [
    ("snowflake", {"n": 300, "eps": 0.5}, 0.5),
    ("point_cloud", {"n": 150, "dim": 2}, 0.2),
    ("koranyi_sphere", {"n": 140, "dim": 2}, 0.3),
    ("cyclic", {"n": 40}, 0.5)])
def test_kernel_symmetry_tiles_have_the_bits_of_the_whole_asymmetry(
        kind, params, delta):
    # uneven weights leave rounding-level asymmetries in every space; the
    # tiles are whole and partial, and one tile covers the smallest n
    base = gen_example(kind, seed=0, **params)
    weights = np.random.default_rng(1).uniform(0.5, 2.0, base.n)
    space, nets, mra, basis, lp = assemble_space(
        build_space(base.dist, weights), delta)
    w = space.weights
    report = kernel_estimates(space, nets, lp,
                              lp_projectors(space, nets, basis))
    for k, P, _ in lp_projectors(space, nets, basis):
        asym = P / w[None, :] - np.ascontiguousarray(P.T) / w[:, None]
        assert report["levels"][k]["p_sym_dev"] == np.abs(asym).max(), k
    assert max(entry["p_sym_dev"] for entry in report["levels"].values()) \
        > 0.0


def test_build_and_lp_hold_no_dense_projectors():
    """What build_mra and build_lp keep, beyond the Grams, stays below two
    n x n arrays (one projector per level would be 2L of them)."""
    space = gen_example("point_cloud", seed=0, n=128, dim=2)
    nets = build_nets(space, 0.5)
    system = compute_splines(space, nets, build_grid(space, nets)[1])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mra = build_mra(space, system)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        basis = build_wavelet_basis(space, nets, mra)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        lp = build_lp(space, nets, basis)
        held += tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept = sum(g.rows.nbytes + g.diag.nbytes
               + sum(idx.nbytes + blocks.nbytes for idx, blocks in g.larger)
               for g in mra.grams.values())
    assert held - kept < 2 * space.n * space.n * 8


def test_kernel_estimates_peak_stays_below_eight_dense_arrays():
    """Each level raises the scaled distances to the power s once, turns
    them into the attenuations in place, and forms the Q_k size fit only on
    the nonzero entries, the size fits take their logs in the magnitudes'
    buffers, the close pairs are sampled before the transposed kernel is
    formed, and no level's kernels are held into the next, so the traced
    peak, with the projectors it is fed, stays at or below 5.5 n x n
    float64 arrays (7.32 with a fresh log array per fit, every close pair
    listed beside the kernel and the previous level's Q_k / w held, 7.41
    when the fit gathered the kept samples, 10.4 when each step kept its
    own array)."""
    space, nets, mra, basis, lp = assemble("snowflake",
                                           {"n": 384, "eps": 0.5},
                                           delta=0.5, seed=0)
    space.a0    # computed on first read, outside the traced call
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kernel_estimates(space, nets, lp, lp_projectors(space, nets, basis))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * space.n * space.n * 8, peak / (space.n ** 2 * 8)


def test_holes_distances():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    assert np.all(np.isinf(lp.holes_dist[nets.k_max]))
    for k in range(nets.k_min, nets.k_max):
        new = nets.ydiff[k]
        if len(new) == 0:
            assert np.all(np.isinf(lp.holes_dist[k]))
            continue
        expect = space.dist[:, new].min(axis=1)
        assert np.array_equal(lp.holes_dist[k], expect)
        assert lp.holes_dist[k][new].max() == 0.0


def test_square_function_constant_is_zero():
    space, nets, mra, basis, lp = assemble("point_cloud", {"n": 40, "dim": 2})
    sf = sf_of(basis, space, np.full(space.n, 3.7))
    assert sf.max() <= 1e-12


def test_square_function_single_wavelet():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    k = sorted(basis.blocks)[len(basis.blocks) // 2]
    f = basis.rows[basis.blocks[k]][0]
    assert np.abs(sf_of(basis, space, f) - np.abs(f)).max() <= 1e-10


def test_square_function_parseval():
    for kind, params in [("cyclic", {"n": 16}),
                         ("point_cloud", {"n": 40, "dim": 2})]:
        space, nets, mra, basis, lp = assemble(kind, params)
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = mean_zero(space, rng.standard_normal(space.n))
            ratio = lp_norm(space, sf_of(basis, space, f), 2.0) \
                / lp_norm(space, f, 2.0)
            assert abs(ratio - 1.0) <= 1e-10


def test_square_function_zero_iff_constant():
    space, nets, mra, basis, lp = assemble("interval", {"n": 32})
    f = np.zeros(space.n)
    f[0] = 1.0
    assert sf_of(basis, space, f).max() > 1e-3
    assert sf_of(basis, space, np.ones(space.n)).max() <= 1e-12


def test_square_function_dimension_mismatch():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    with pytest.raises(DimensionMismatch):
        square_function(basis.rows, basis.blocks, np.zeros(space.n + 1))


def test_lp_norm_hand_value():
    space = two_point()
    space2 = build_space(space.dist, np.array([1.0, 2.0]))
    got = lp_norm(space2, np.array([3.0, -1.0]), 3.0)
    assert math.isclose(got, (27.0 + 2.0) ** (1.0 / 3.0), rel_tol=1e-12)


def test_lp_norms_of_a_list_have_the_bits_of_each_norm_alone():
    # the rows of one power array, one weighted row sum and a scalar root
    # per exponent: the squares at p = 2 and every root keep their bits
    space = gen_example("point_cloud", seed=2, n=200, dim=2)
    rng = np.random.default_rng(6)
    ps = [1.5, 2.0, 4.0, 3.0, 1.1, 2.5]
    for _ in range(20):
        f = rng.standard_normal(space.n) * 10.0 ** rng.uniform(-3, 3)
        got = lp_norm(space, f, ps)
        want = [oracle.lp_norm(space, f, p) for p in ps]
        assert (np.array(got).view(np.uint64).tolist()
                == np.array(want).view(np.uint64).tolist())
        assert lp_norm(space, f, 2.0) == want[1]


def test_lp_equivalence_p2_is_parseval():
    for kind, params in [("cyclic", {"n": 16}), ("interval", {"n": 64})]:
        space, nets, mra, basis, lp = assemble(kind, params)
        lo, hi = lp_equivalence(space, basis, [2.0], num_trials=50,
                                seed=3)[2.0]
        assert abs(lo - 1.0) <= 1e-10
        assert abs(hi - 1.0) <= 1e-10


def test_lp_equivalence_p4_reported():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 64})
    lo, hi = lp_equivalence(space, basis, [4.0], num_trials=200, seed=0)[4.0]
    assert 0.0 < lo <= hi < math.inf
    again = lp_equivalence(space, basis, [4.0], num_trials=200, seed=0)[4.0]
    assert (lo, hi) == again
    # one pass over the trials serves every exponent unchanged
    several = lp_equivalence(space, basis, [1.5, 4.0, 2.0], num_trials=200,
                             seed=0)
    assert several[4.0] == (lo, hi)
    assert several[1.5] == lp_equivalence(space, basis, [1.5], num_trials=200,
                                          seed=0)[1.5]


@pytest.mark.parametrize("kind,params", FLEET)
def test_lp_equivalence_matches_gather_oracle(kind, params):
    """Reading each level as a slice of the rows changes no bit of the
    square function or of the bounds."""
    space, nets, mra, basis, lp = assemble(kind, params)
    p_list = [1.5, 2.0, 4.0]
    assert lp_equivalence(space, basis, p_list, num_trials=20, seed=4) \
        == oracle.lp_equivalence(space, basis, p_list, num_trials=20, seed=4)
    levels = oracle.row_levels(basis.blocks, len(basis.rows))
    rng = np.random.default_rng(8)
    for _ in range(5):
        coeffs = basis.rows @ (space.weights * rng.standard_normal(space.n))
        assert np.array_equal(
            square_function(basis.rows, basis.blocks, coeffs),
            oracle.gather_square_function(basis.rows, levels, coeffs))


def test_lp_equivalence_copies_no_basis():
    """The trials read the basis rows in place, so the traced peak stays
    far below one n x n matrix."""
    space, nets, mra, basis, lp = assemble("point_cloud",
                                           {"n": 256, "dim": 2},
                                           delta=0.4, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lp_equivalence(space, basis, [1.5, 2.0, 4.0])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * space.n * space.n * 8


def test_lp_ratio_scaling_invariance():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    f = mean_zero(space, np.sin(np.arange(space.n, dtype=float)))
    for p in (1.5, 4.0):
        r1 = lp_norm(space, sf_of(basis, space, f), p) / lp_norm(space, f, p)
        r2 = lp_norm(space, sf_of(basis, space, 2.0 * f), p) \
            / lp_norm(space, 2.0 * f, p)
        assert math.isclose(r1, r2, rel_tol=1e-12)


def test_lp_equivalence_bad_exponent():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    for p in (1.0, 0.5, math.inf):
        with pytest.raises(BadExponent):
            lp_equivalence(space, basis, [2.0, p])
    with pytest.raises(BadParams):
        lp_equivalence(space, basis, [2.0], num_trials=0)


def test_random_signs_cover_basis():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    signs = random_signs(basis, seed=5)
    # one sign per wavelet row, each level's block one draw of the stream
    assert signs.shape == (len(basis.rows) - 1,)
    rng = stream_rng(5, STREAM_SIGNS)
    for sl in basis.blocks.values():
        want = 2 * rng.integers(0, 2, size=sl.stop - sl.start) - 1
        assert np.array_equal(signs[sl.start - 1:sl.stop - 1], want)
    assert set(signs.tolist()) <= {-1, 1}
    assert np.array_equal(signs, random_signs(basis, seed=5))
    assert not np.array_equal(signs, random_signs(basis, seed=6))


def test_sign_operator_all_plus_and_minus():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    count = len(basis.rows) - 1
    rng = np.random.default_rng(11)
    f = mean_zero(space, rng.standard_normal(space.n))
    ones = np.ones(space.n)
    T = random_sign_operator(space, basis, np.ones(count, dtype=int))
    assert np.abs(T @ f - f).max() <= 1e-10
    assert np.abs(T @ ones - ones).max() <= 1e-10
    T = random_sign_operator(space, basis, -np.ones(count, dtype=int))
    assert np.abs(T @ f + f).max() <= 1e-10
    assert np.abs(T @ ones - ones).max() <= 1e-10


def test_sign_operator_isometry():
    space, nets, mra, basis, lp = assemble("point_cloud", {"n": 40, "dim": 2})
    T = random_sign_operator(space, basis, random_signs(basis, seed=2))
    W = np.diag(space.weights)
    assert np.abs(T.T @ W @ T - W).max() <= 1e-10
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = mean_zero(space, rng.standard_normal(space.n))
        assert math.isclose(lp_norm(space, T @ f, 2.0),
                            lp_norm(space, f, 2.0), rel_tol=1e-10)


def test_sign_operator_incomplete_and_bad_values():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    signs = random_signs(basis, seed=0)
    for broken in (signs[1:], np.r_[signs, 1], signs[None, :]):
        with pytest.raises(IncompleteSigns):
            random_sign_operator(space, basis, broken)
    broken = signs.copy()
    broken[3] = 0
    with pytest.raises(BadParams, match="sign 3 is 0"):
        random_sign_operator(space, basis, broken)


def test_unconditionality_proxy_reported():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 32})
    rng = np.random.default_rng(9)
    for p in (1.5, 2.0, 4.0):
        lo, hi = math.inf, 0.0
        for trial in range(5):
            T = random_sign_operator(space, basis,
                                     random_signs(basis, seed=trial))
            for _ in range(10):
                f = mean_zero(space, rng.standard_normal(space.n))
                r = lp_norm(space, T @ f, p) / lp_norm(space, f, p)
                lo, hi = min(lo, r), max(hi, r)
        assert 0.0 < lo <= hi < math.inf
        if p == 2.0:
            assert abs(lo - 1.0) <= 1e-10 and abs(hi - 1.0) <= 1e-10


@pytest.mark.parametrize("kind,params", [
    ("cyclic", {"n": 16}), ("cyclic", {"n": 64}), ("interval", {"n": 32}),
    ("binary_tree", {"depth": 4}), ("snowflake", {"n": 96, "eps": 0.5})])
def test_cz_bound_has_the_bits_of_the_stable_sort(kind, params):
    # the default sort may order tied distances otherwise, and the running
    # weight sums read that order; a block with ties is sorted again
    # stably, so the report keeps every bit under uneven weights too (at
    # cyclic 64 with the third weights, the default order alone moves
    # c_hat)
    space = gen_example(kind, seed=1, **params)
    srt = np.sort(space.dist, axis=1)
    tied = bool((srt[:, 1:] == srt[:, :-1]).any())
    assert tied == (kind != "snowflake")
    uneven = [np.random.default_rng(seed).uniform(0.5, 2.0, space.n)
              for seed in range(3)]
    for weights in [space.weights] + uneven:
        space_w, nets, mra, basis, lp = assemble_space(
            build_space(space.dist, weights))
        got = cz_kernel_bound(space_w, basis)
        want = oracle.blocked_cz_kernel_bound(space_w, basis)
        assert (got["pair"], got["n_pairs"]) == (want["pair"],
                                                 want["n_pairs"])
        assert (np.float64(got["c_hat"]).view(np.uint64)
                == np.float64(want["c_hat"]).view(np.uint64))


def test_cz_bound_two_point_closed_form():
    space, nets, mra, basis, lp = assemble_space(two_point())
    report = cz_kernel_bound(space, basis)
    assert math.isclose(report["c_hat"], 0.5, rel_tol=1e-12)
    assert sorted(report["pair"]) == [0, 1]
    assert report["n_pairs"] == 2


def test_cz_bound_measure_rescaling_invariant():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    c1 = cz_kernel_bound(space, basis)["c_hat"]
    doubled = build_space(space.dist, 2.0 * space.weights)
    space2, nets2, mra2, basis2, lp2 = assemble_space(doubled)
    c2 = cz_kernel_bound(space2, basis2)["c_hat"]
    assert math.isclose(c1, c2, rel_tol=1e-12)


def test_cz_bound_interval_full_scan():
    space, nets, mra, basis, lp = assemble("interval", {"n": 128})
    report = cz_kernel_bound(space, basis)
    x, y = report["pair"]
    assert x != y
    assert 0.0 < report["c_hat"] < math.inf
    assert report["n_pairs"] == 128 * 127


@pytest.mark.parametrize("kind,params", FLEET + [
    ("cyclic", {"n": 70}), ("binary_tree", {"depth": 7}),
    ("interval", {"n": 129})])
def test_cz_bound_matches_per_point_oracle(kind, params):
    # tied distances, one partial row block and several blocks
    space, nets, mra, basis, lp = assemble(kind, params)
    report = cz_kernel_bound(space, basis)
    want = oracle.cz_kernel_bound(space, basis)
    assert report == want
    assert type(report["c_hat"]) is float
    assert all(type(v) is int for v in report["pair"])


def test_kernel_estimates_interval():
    space, nets, mra, basis, lp = assemble("interval", {"n": 64})
    report = kernel_estimates(space, nets, lp,
                              lp_projectors(space, nets, basis))
    assert report["s"] == 1.0
    assert report["nonpositive"] == []
    for k, entry in report["levels"].items():
        assert entry["p_sym_dev"] <= 1e-10
        assert entry["p_rowsum_dev"] <= 1e-10
        assert entry["p_size"]["c"] > 0.0
        if "q_rowsum_dev" in entry:
            assert entry["q_rowsum_dev"] <= 1e-10
            if not entry["q_size"].get("empty"):
                assert entry["q_size"]["c"] > 0.0
    mids = [k for k in report["levels"]
            if nets.k_min < k < nets.k_max
            and report["levels"][k]["p_reg"]["n_pairs"] > 0]
    assert mids
    for k in mids:
        assert math.isfinite(report["levels"][k]["p_reg"]["eta_hat"])


def test_kernel_estimates_empty_level():
    space, nets, mra, basis, lp = assemble_space(two_cluster())
    empty = [k for k in range(nets.k_min, nets.k_max)
             if len(nets.ydiff[k]) == 0]
    assert empty
    report = kernel_estimates(space, nets, lp,
                              lp_projectors(space, nets, basis))
    for k in empty:
        entry = report["levels"][k]
        assert entry["q_size"]["empty"]
        assert entry["q_size"]["max_abs"] == 0.0
        assert entry["q_rowsum_dev"] == 0.0
        assert np.all(np.isinf(lp.holes_dist[k]))


def test_substitute_inequality_single_level():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    r = nets.scale(nets.k_min)
    report = substitute_inequality_check(space, nets, lp, r_grid=(r,))
    row = report["rows"][0]
    assert row["n_levels"] == 1
    assert row["max_ratio"] <= 1.0 + 1e-12


def test_substitute_inequality_holes_reach_zero():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    for k in range(nets.k_min, nets.k_max):
        if len(nets.ydiff[k]):
            assert lp.holes_dist[k].min() == 0.0
    report = substitute_inequality_check(space, nets, lp,
                                         r_grid=(0.5, 1.0, 2.0))
    for row in report["rows"]:
        assert math.isfinite(row["max_ratio"])
        assert row["max_ratio"] > 0.0


def test_substitute_inequality_two_cluster_contrast():
    space, nets, mra, basis, lp = assemble_space(two_cluster())
    report = substitute_inequality_check(space, nets, lp,
                                         r_grid=(16.0, 32.0, 64.0))
    by_r = {row["r"]: row for row in report["rows"]}
    gap_row = by_r[32.0]
    assert gap_row["max_ratio"] <= 1.0
    assert gap_row["unrestricted_max_ratio"] >= 2.0
    assert gap_row["max_contrast_factor"] >= 10.0
    assert math.isfinite(gap_row["max_contrast_factor"])


def test_substitute_inequality_bad_params():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    with pytest.raises(BadParams):
        substitute_inequality_check(space, nets, lp, r_grid=(1.0, -2.0))
    report = substitute_inequality_check(space, nets, lp)
    assert (report["nu"], report["gamma"], report["a"]) == (
        1.0, 1.0, exponent_a(space))


def test_growth_sequence_cyclic():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 64})
    report = growth_sequence(space, nets, lp, x=0, r=space.minsep)
    assert report["eps"] > 0.0
    ks = report["ks"]
    assert len(ks) >= 3
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert all(g >= 1.0 - 1e-12 for g in report["growth_consts"])
    assert len(report["hole_consts"]) == len(ks) - 1
    assert all(h > 0.0 for h in report["hole_consts"])
    assert any(math.isfinite(h) for h in report["hole_consts"])


def test_growth_sequence_large_radius():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    report = growth_sequence(space, nets, lp, x=0, r=1.01 * space.diam)
    assert len(report["ks"]) <= 1
    report = growth_sequence(space, nets, lp, x=0,
                             r=2.0 * nets.scale(nets.k_min))
    assert report["ks"] == []


def test_growth_sequence_two_cluster_skips_gap():
    space, nets, mra, basis, lp = assemble_space(two_cluster())
    report = growth_sequence(space, nets, lp, x=0, r=1.0)
    scales = [nets.scale(k) for k in report["ks"]]
    assert all(not (16.0 < s < 128.0) for s in scales)
    assert any(s >= 128.0 for s in scales)
    assert all(g >= 1.0 - 1e-12 for g in report["growth_consts"])


def test_growth_sequence_bad_radius():
    space, nets, mra, basis, lp = assemble("cyclic", {"n": 16})
    with pytest.raises(BadParams):
        growth_sequence(space, nets, lp, x=0, r=0.0)


def test_single_point_space_structure():
    space = build_space(np.zeros((1, 1)), np.full(1, 2.0))
    space, nets, mra, basis, lp = assemble_space(space)
    assert [(k, Q) for k, _, Q in lp_projectors(space, nets, basis)] \
        == [(nets.k_min, None)]
    assert np.allclose(blocks(space, nets, basis)[nets.k_min][0], np.eye(1))
    assert np.all(np.isinf(lp.holes_dist[nets.k_min]))
    assert sf_of(basis, space, np.array([5.0]))[0] == 0.0
