import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given

import holder_oracle as oracle
from dyadwave.errors import DyadwaveError
from dyadwave.lpanalysis import (
    PAIR_BUDGET,
    build_lp,
    kernel_estimates,
    lp_projectors,
)
from dyadwave.nets import build_nets
from dyadwave.randgrid import build_grid
from dyadwave.space import build_space, gen_example, near_pairs
from dyadwave.spline import (
    close_pair_ladder,
    compute_splines,
    holder_estimate,
    pair_maxima,
)
from dyadwave.wavelet import (
    _holder_samples,
    build_mra,
    build_wavelet_basis,
    verify_wavelet_theorem,
)
from test_randgrid import GENERATORS, quasi_metric_spaces


def assemble(space, delta):
    nets = build_nets(space, delta)
    system = compute_splines(space, nets, build_grid(space, nets)[1])
    basis = build_wavelet_basis(space, nets, build_mra(space, system))
    return nets, system, basis


def assert_same(got, want):
    """Equal keys, and equal values of equal type (NaN equals NaN)."""
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert type(got[key]) is type(val), key
        assert got[key] == val or (math.isnan(val) and math.isnan(got[key])), \
            (key, got[key], val)


def assert_matches_oracle(space, nets, system, basis, seed=0):
    """Spline, wavelet and p_reg fits equal the concatenating reference;
    returns how many p_reg levels had samples."""
    assert_same(holder_estimate(system, space, nets),
                oracle.holder_estimate(system, space, nets))
    assert_same(verify_wavelet_theorem(space, nets, basis)["holder"],
                oracle.wavelet_holder(space, nets, basis))
    lp = build_lp(space, nets, basis)
    w = space.weights
    sampled = 0
    # a small budget subsamples the close pairs of every level
    for budget in (PAIR_BUDGET, 3 * space.n):
        rep = kernel_estimates(space, nets, lp,
                               lp_projectors(space, nets, basis),
                               pair_budget=budget, seed=seed)
        for k, P, _ in lp_projectors(space, nets, basis):
            entry = rep["levels"][k]
            gamma = entry["p_size"]["c"]
            if gamma <= 0.0:
                continue
            scale = nets.scale(k)
            mass = space.ball_masses(np.arange(space.n), scale)
            assert_same(entry["p_reg"],
                        oracle.p_reg(space, P / w[None, :], mass, scale,
                                     gamma, rep["s"], budget, seed))
            sampled += entry["p_reg"]["n_pairs"] > 0
    return sampled


@pytest.mark.parametrize("kind,params,delta", GENERATORS)
def test_holder_fits_match_oracle_on_generators(kind, params, delta):
    space = gen_example(kind, seed=1, **params)
    nets, system, basis = assemble(space, delta)
    sampled = assert_matches_oracle(space, nets, system, basis, seed=3)
    # the tree has no pair closer than the scale of a level with gamma > 0
    assert sampled > 0 or kind == "binary_tree"


@given(quasi_metric_spaces())
def test_holder_fits_match_oracle_on_random_spaces(case):
    dist, weights, delta = case
    try:
        space = build_space(dist, weights)
        nets, system, basis = assemble(space, delta)
    except DyadwaveError:
        assume(False)
    assert_matches_oracle(space, nets, system, basis)


def test_close_pairs_row_major_within_scale():
    space = gen_example("point_cloud", seed=2, n=20, dim=2)
    scale = float(np.median(space.dist))
    i, j, rel = next(close_pair_ladder(space.dist, (scale,)))
    want = [(a, b) for a in range(space.n) for b in range(a + 1, space.n)
            if space.dist[a, b] / scale <= 1.0]
    assert list(zip(i.tolist(), j.tolist())) == want
    assert np.array_equal(rel, space.dist[i, j] / scale)
    si, sj, srel = next(close_pair_ladder(space.dist, (scale,), True))
    assert np.array_equal(srel, rel[rel < 1.0])
    assert np.array_equal(si, i[rel < 1.0])
    assert np.array_equal(sj, j[rel < 1.0])


def test_close_pair_ladder_equals_close_pairs_at_each_scale():
    space = gen_example("point_cloud", seed=2, n=20, dim=2)
    dist = space.dist
    iu = np.triu_indices(space.n, k=1)
    tie = float(np.sort(dist[iu])[40])
    # a scale above every distance, one equal to a pair distance, repeated,
    # and a finest one below the separation, so its lists are empty
    scales = [2.0 * space.diam, float(np.median(dist[iu])), tie, tie,
              space.minsep, 0.5 * space.minsep]
    for strict in (False, True):
        ladder = list(close_pair_ladder(dist, scales, strict))
        assert len(ladder) == len(scales)
        for scale, got in zip(scales, ladder):
            want = oracle.close_pairs(dist, scale, strict)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        assert (1.0 in ladder[2][2]) is not strict
        assert ladder[0][0].size == len(iu[0])
        assert ladder[-1][0].size == 0
    with pytest.raises(ValueError):
        list(close_pair_ladder(dist, [tie, 2.0 * tie]))


def test_each_fit_scans_the_distances_once(monkeypatch):
    # one close_pair_ladder per loop over the levels: the spline fit, the
    # wavelet fit and the regularity quotients each list pairs once, at one
    # radius, in row blocks that together cover each row of the upper
    # triangle once
    space = gen_example("point_cloud", seed=1, n=40, dim=2)
    nets, system, basis = assemble(space, 0.4)
    lp = build_lp(space, nets, basis)
    calls = []

    def listing(dist, radius, strict=True):
        calls.append((radius, dist.shape))
        return near_pairs(dist, radius, strict)

    for name, module in list(sys.modules.items()):
        if (name.startswith("dyadwave")
                and getattr(module, "near_pairs", None) is near_pairs):
            monkeypatch.setattr(module, "near_pairs", listing)
    fits = [lambda: holder_estimate(system, space, nets),
            lambda: _holder_samples(space, nets, basis),
            lambda: kernel_estimates(space, nets, lp,
                                     lp_projectors(space, nets, basis))]
    assert len(basis.blocks) > 2
    for fit in fits:
        calls.clear()
        fit()
        assert len({radius for radius, _ in calls}) == 1
        rows = np.cumsum([0] + [shape[0] for _, shape in calls])
        assert rows[-1] == space.n
        # the block starting at row r0 scans the columns from r0 on
        cols = [shape[1] for _, shape in calls]
        assert cols == (space.n - rows[:-1]).tolist()


@pytest.mark.parametrize("budget,cases", [
    (PAIR_BUDGET, {"constant", "blocks"}),
    (100 * 40, {"constant", "subsampled", "blocks"}),
    (3 * 40, {"constant", "subsampled", "blocks"})])
def test_reg_quotients_at_kept_entries_match_oracle(budget, cases):
    space = gen_example("point_cloud", seed=1, n=40, dim=2)
    nets, _, basis = assemble(space, 0.4)
    lp = build_lp(space, nets, basis)
    rep = kernel_estimates(space, nets, lp, lp_projectors(space, nets, basis),
                           pair_budget=budget)
    w = space.weights
    seen = set()
    for k, P, _ in lp_projectors(space, nets, basis):
        entry = rep["levels"][k]
        gamma = entry["p_size"]["c"]
        if gamma <= 0.0:
            continue
        scale = nets.scale(k)
        mass = space.ball_masses(np.arange(space.n), scale)
        kernel = P / w[None, :]
        assert_same(entry["p_reg"],
                    oracle.p_reg(space, kernel, mass, scale, gamma,
                                 rep["s"], budget, 0))
        pairs = oracle.close_pairs(space.dist, scale, strict=True)[0].size
        sampled = pairs
        if pairs * space.n > budget:
            seen.add("subsampled")
            sampled = max(1, budget // space.n)
        if pairs and np.ptp(kernel) == 0.0:
            assert entry["p_reg"]["n_pairs"] == 0
            seen.add("constant")
        # blocks of budget // (16 n) pairs, at least one
        if sampled > max(1, budget // (16 * space.n)):
            seen.add("blocks")
    assert seen == cases


def test_pair_maxima_blocks_agree_with_one_pass():
    # 40 rows over 12 points: blocks of 144 // 40 = 3 pairs
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 12))
    rows[:, 5] = rows[:, 7]
    rows[20:, 3] = rows[20:, 4]
    rows[:, 8] = 0.0
    rows[:30, 9] = 1e-301
    dist = 1.0 - np.eye(12)
    rel, sup, count = pair_maxima(rows, oracle.close_pairs(dist, 1.0))
    i, j = np.triu_indices(12, k=1)
    diff = np.abs(rows[:, i] - rows[:, j])
    assert np.array_equal(rel, np.ones(len(i)))
    assert np.array_equal(sup, diff.max(axis=0))
    assert np.array_equal(count, (diff >= 1e-300).sum(axis=0))
    assert count[(i == 5) & (j == 7)][0] == 0
    assert count[(i == 3) & (j == 4)][0] == 20
    assert count[(i == 8) & (j == 9)][0] == 10
    strict = oracle.close_pairs(dist, 1.0, strict=True)
    assert pair_maxima(rows, strict)[1].size == 0


def test_wavelet_theorem_holds_few_dense_arrays():
    """The Hölder fit reads its pairs in blocks, so verify_wavelet_theorem
    peaks below 16 n x n float64 arrays (34.5 with one sample per
    (wavelet, pair) concatenated)."""
    space = gen_example("point_cloud", seed=0, n=256, dim=2)
    nets, _, basis = assemble(space, 0.4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_wavelet_theorem(space, nets, basis)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * space.n * space.n * 8, peak / (space.n ** 2 * 8)
