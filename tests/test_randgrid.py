import itertools
import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given
from hypothesis import strategies as st

import randgrid_oracle as oracle
from dyadwave import randgrid
from dyadwave.errors import DyadwaveError, OrderViolation
from dyadwave.nets import NestedNets, build_nets
from dyadwave.randgrid import (
    _T975,
    FIT_MIN_POINTS,
    LevelTable,
    _center_stats,
    boundary_layer_stats,
    build_grid,
    column_frequencies,
    cube_assignments,
    fit_boundary_exponent,
    grid_checks,
    grid_labels,
    level_pairs,
    reference_order,
    sample_omega,
    transition_levels,
    transition_parents,
)
from dyadwave.space import build_space, gen_example, near_pairs
from dyadwave.spline import compute_splines


def two_point():
    return build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))


def setup(space, delta=0.5):
    nets = build_nets(space, delta)
    return (nets,) + build_grid(space, nets)


def reference(space, nets):
    """The reference parents that ``build_grid`` starts from."""
    return reference_order(space, nets, level_pairs(space, nets))


def all_omegas(nets, labels):
    tls = list(transition_levels(nets))
    coords = oracle.coordinates(labels)
    for combo in itertools.product(coords, repeat=len(tls)):
        yield {k: combo[i] for i, k in enumerate(tls)}


def hit_frequencies(sp, nets, tables):
    """P(z^k_alpha = child beta) per transition, as (n_k, n_{k+1}) arrays.

    The perturbed centers of level k depend on its coordinate only, and its
    table lists them once per coordinate, so its column frequencies are
    exact.
    """
    out = {}
    for k, table in tables.items():
        z = nets.positions(k + 1, sp.n)[
            table.centers.reshape(-1, len(nets.levels[k]))]
        out[k] = column_frequencies(z, len(nets.levels[k + 1])).T
    return out


def as_draws(omegas, nets):
    """Stack a list of {k: (ell, m)} into {k: (ell_array, m_array)}."""
    return {k: (np.array([om[k][0] for om in omegas]),
                np.array([om[k][1] for om in omegas]))
            for k in transition_levels(nets)}


def test_two_point_reference_and_labels():
    sp = two_point()
    nets, labels, _ = setup(sp)
    assert reference(sp, nets)[-1].tolist() == [0, 0]
    assert labels.L == 0
    assert labels.M == 2
    # the two children of the one parent take ranks 1 and 2 in level order
    assert labels.child_by_rank[-1].tolist() == [[0, 1]]


def test_two_point_random_points_and_probabilities():
    sp = two_point()
    nets, _, tables = setup(sp)
    probs = hit_frequencies(sp, nets, tables)
    assert probs[-1].shape == (1, 2)
    assert probs[-1][0].tolist() == [0.5, 0.5]


def test_cyclic8_family_shapes():
    sp = gen_example("cyclic", n=8)
    nets, labels, _ = setup(sp)
    ref = reference(sp, nets)
    # farthest-first lists level -1 as [0, 4, 2, 6]; each odd point ties
    # between its two even neighbours and takes the first listed: 1 and 7
    # go to 0, 3 and 5 to 4, so 0 and 4 keep three children, 2 and 6 one
    assert nets.levels[-1].tolist() == [0, 4, 2, 6]
    sizes = sorted(np.bincount(ref[-1], minlength=len(nets.levels[-1])))
    assert sizes == [1, 1, 3, 3]
    assert sorted((labels.child_by_rank[-1] >= 0).sum(axis=1)) == sizes
    assert labels.M == 3
    assert labels.L == 0
    assert_proper_coloring(sp, nets, ref, labels)


def assert_proper_coloring(sp, nets, ref, labels):
    """label1 properly colors the neighbour graph rebuilt from ``dist``,
    with colors in 0..L and L the largest neighbour count.

    Two level-k nodes are neighbours when they own children closer than
    delta^k / (2 a0).
    """
    degree = 0
    for k in transition_levels(nets):
        fine = nets.levels[k + 1]
        thr = nets.scale(k) / (2.0 * sp.a0)
        edges = {(int(ref[k][i]), int(ref[k][j]))
                 for i, j in itertools.product(range(len(fine)), repeat=2)
                 if sp.dist[fine[i], fine[j]] < thr and ref[k][i] != ref[k][j]}
        colors = labels.label1[k]
        assert colors.shape == (len(nets.levels[k]),)
        assert colors.min() >= 0 and colors.max() <= labels.L
        assert all(colors[a] != colors[b] for a, b in edges)
        for a in range(len(nets.levels[k])):
            degree = max(degree, sum(1 for e in edges if e[0] == a))
    assert labels.L == degree


def test_child_probability_lower_bound():
    for sp in (two_point(), gen_example("cyclic", n=8), gen_example("cyclic", n=16)):
        nets, labels, tables = setup(sp)
        floor = 1.0 / ((labels.L + 1) * labels.M)
        probs = hit_frequencies(sp, nets, tables)
        ref = reference(sp, nets)
        for k in transition_levels(nets):
            prob = probs[k]
            assert np.allclose(prob.sum(axis=1)[prob.any(axis=1)], 1.0)
            for b, a in enumerate(ref[k]):
                assert prob[a, b] >= floor - 1e-12


def test_z_separation_density_all_omegas_cyclic8():
    sp = gen_example("cyclic", n=8)
    nets, labels, tables = setup(sp)
    for omega in all_omegas(nets, labels):
        for k in transition_levels(nets):
            ell, m = omega[k]
            z = tables[k].centers[ell, m - 1]
            scale = nets.scale(k)
            if len(z) > 1:
                Dz = sp.dist[np.ix_(z, z)]
                off = Dz[~np.eye(len(z), dtype=bool)]
                assert off.min() >= scale / (2.0 * sp.a0) - 1e-12
            dens = sp.dist[:, z].min(axis=1).max()
            assert dens < 4.0 * sp.a0 ** 2 * scale


def test_center_containment_and_partition_all_omegas():
    sp = gen_example("cyclic", n=8)
    nets, labels, tables = setup(sp)
    omegas = list(all_omegas(nets, labels))
    parents = {k: t.parents for k, t in tables.items()}
    assign = dict(cube_assignments(nets, parents, as_draws(omegas, nets),
                                   len(omegas)))
    for i, omega in enumerate(omegas):
        for k in nets.level_range:
            asg = assign[k][i]
            assert asg.min() >= 0
            assert asg.max() < len(nets.levels[k])
            # net point owns its cube
            pts = nets.levels[k]
            assert np.array_equal(asg[pts], np.arange(len(pts)))
        for k in transition_levels(nets):
            parent = tables[k].parents[omega[k][0], omega[k][1] - 1]
            assert np.array_equal(assign[k][i], parent[assign[k + 1][i]])


def test_chain_implications_on_small_metric_spaces():
    for sp in (gen_example("cyclic", n=8), two_point()):
        nets, labels, tables = setup(sp)
        rep = grid_checks(sp, nets, labels, tables, seed=5, num_samples=16)
        assert rep["ok"]
        assert rep["chain_lower_violations"] == 0
        assert rep["chain_upper_max_ratio"] <= 1.0
        assert rep["iterated_lower_violations"] == 0
        assert rep["iterated_upper_max_ratio"] <= 1.0
        assert rep["inner_sandwich_z_violations"] == 0
        assert rep["inner_sandwich_x_violations"] == 0
        assert rep["outer_z_max_ratio"] <= 1.0
        assert rep["outer_x_max_ratio"] <= 1.0


@pytest.mark.parametrize("dist,levels", [(1e-9, 30), (1e-60, 200)])
def test_grid_checks_assigns_the_draws_of_few_points_at_once(
        monkeypatch, dist, levels):
    # a block holds up to max(n^2, 2^16) entries of a (draws, n) array, so
    # two points take their 32 draws in one block, and one walk over the
    # levels; the per-draw oracle checks the bits where it is quick
    sp = build_space(np.array([[0.0, dist], [dist, 0.0]]), np.ones(2))
    nets, labels, tables = setup(sp)
    assert nets.k_max - nets.k_min >= levels - 1
    counts = []

    def counted(nets, parents, draws, count):
        counts.append(count)
        return cube_assignments(nets, parents, draws, count)

    monkeypatch.setattr(randgrid, "cube_assignments", counted)
    rep = grid_checks(sp, nets, labels, tables, seed=4, num_samples=32)
    assert counts == [32]
    if levels <= 30:
        assert rep == oracle.grid_checks(sp, nets, reference(sp, nets),
                                         labels, seed=4, num_samples=32)


def test_grid_checks_exact_gates_on_fleet():
    for kind, params in [("interval", {"n": 48}),
                         ("point_cloud", {"n": 40, "dim": 2}),
                         ("koranyi_sphere", {"n": 30, "dim": 2})]:
        sp = gen_example(kind, seed=1, **params)
        nets, labels, tables = setup(sp)
        rep = grid_checks(sp, nets, labels, tables, seed=2, num_samples=12)
        assert rep["center_containment_violations"] == 0, kind
        assert rep["covering_violations"] == 0, kind
        assert rep["z_separation_min_ratio"] >= 1.0, kind
        assert rep["z_density_max_ratio"] < 1.0, kind


def test_measurability_fine_levels_ignore_coarse_coordinates():
    sp = gen_example("cyclic", n=16)
    nets, labels, tables = setup(sp)
    tls = list(transition_levels(nets))
    base = {k: (0, 1) for k in tls}
    changed = dict(base)
    changed[nets.k_min] = (labels.L, labels.M)
    draws = as_draws([base, changed], nets)
    parents = {k: t.parents for k, t in tables.items()}
    assign = dict(cube_assignments(nets, parents, draws, 2))
    for k in nets.level_range:
        if k > nets.k_min:
            assert np.array_equal(assign[k][0], assign[k][1])


def test_sample_omega_shapes_and_determinism():
    sp = gen_example("cyclic", n=8)
    nets, labels, _ = setup(sp)
    tls = list(transition_levels(nets))
    one = sample_omega(labels, tls, seed=9, count=1)
    assert all(ell.shape == m.shape == (1,) for ell, m in one.values())
    assert all(0 <= ell[0] <= labels.L and 1 <= m[0] <= labels.M
               for ell, m in one.values())
    again = sample_omega(labels, tls, seed=9, count=1)
    assert all(np.array_equal(one[k][0], again[k][0])
               and np.array_equal(one[k][1], again[k][1]) for k in tls)
    batch = sample_omega(labels, tls, seed=9, count=50)
    for k in tls:
        assert batch[k][0].shape == (50,)
        # the single draw is the first draw of the batch stream
        assert batch[k][0][0] == one[k][0][0]
        assert batch[k][1][0] == one[k][1][0]


def test_reference_order_rejects_ambiguous_parents():
    dist = np.array([
        [0.0, 0.10, 0.10],
        [0.10, 0.0, 0.15],
        [0.10, 0.15, 0.0],
    ])
    sp = build_space(dist, np.ones(3))
    fake = NestedNets(
        delta=0.5, k_min=0, k_max=1,
        levels={0: np.array([1, 2]), 1: np.array([0, 1, 2])},
        ydiff={0: np.array([0])},
        order_policy="input_order", scan_order=np.arange(3))
    with pytest.raises(OrderViolation, match="multiple close parents"):
        reference_order(sp, fake, level_pairs(sp, fake))


def test_reference_order_rejects_a_child_without_a_near_parent():
    # the fine point 1 lies 3 >= 2 a0 delta^0 = 2 from the one coarse point
    sp = build_space(np.array([[0.0, 3.0], [3.0, 0.0]]), np.ones(2))
    assert sp.a0 == 1.0
    fake = NestedNets(
        delta=0.5, k_min=0, k_max=1,
        levels={0: np.array([0]), 1: np.array([0, 1])},
        ydiff={0: np.array([1])},
        order_policy="input_order", scan_order=np.arange(2))
    with pytest.raises(OrderViolation,
                       match=re.escape("no parent within 2*a0*delta^k")):
        reference_order(sp, fake, level_pairs(sp, fake))


def test_reference_order_takes_the_close_parent_then_the_nearest():
    # on the line, a0 = 1: close means nearer than 1/2, a parent lies
    # nearer than 2.  Point 2 (x = 1.1) has its one close parent second in
    # level order; point 3 (x = 0.5) ties between both parents and takes
    # the first; point 4 (x = 2) has no close parent and takes the nearest.
    x = np.array([0.0, 1.0, 1.1, 0.5, 2.0])
    sp = build_space(np.abs(x[:, None] - x[None, :]), np.ones(5))
    assert sp.a0 == 1.0
    fake = NestedNets(
        delta=0.5, k_min=0, k_max=1,
        levels={0: np.array([0, 1]), 1: np.arange(5)},
        ydiff={0: np.array([2, 3, 4])},
        order_policy="input_order", scan_order=np.arange(5))
    pairs = level_pairs(sp, fake)
    parent = reference_order(sp, fake, pairs)
    assert list(parent) == [0]
    assert parent[0].tolist() == [0, 1, 1, 0, 1]
    assert oracle.reference_order(sp, fake).parent[0].tolist() == [
        0, 1, 1, 0, 1]
    labels = grid_labels(sp, fake, parent, pairs)
    assert labels.M == 3
    assert labels.child_by_rank[0].tolist() == [[0, 3, -1], [1, 2, 4]]


def test_transition_parents_rejects_two_capturing_centers():
    # c lies 0.01 from p1; a hand-made order makes c a child of p0, so the
    # coordinate under which p0 hands its identity to c puts two distinct
    # centers (c and p1) within delta^k / (4 a0^2) of p1
    p0, p1, c = 0, 1, 2
    dist = np.array([
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 0.01],
        [1.0, 0.01, 0.0],
    ])
    sp = build_space(dist, np.ones(3))
    fake = NestedNets(
        delta=0.5, k_min=0, k_max=1,
        levels={0: np.array([p0, p1]), 1: np.array([p0, p1, c])},
        ydiff={0: np.array([c])},
        order_policy="input_order", scan_order=np.arange(3))
    ref = {0: np.array([0, 1, 0])}
    pairs = level_pairs(sp, fake)
    labels = grid_labels(sp, fake, ref, pairs)
    ell = int(labels.label1[0][0])
    assert labels.child_by_rank[0][0, 1] == 2      # c is p0's second child
    with pytest.raises(OrderViolation, match="capture one child"):
        oracle.parents(sp, fake, ref, labels, 0, ell, 2)
    with pytest.raises(OrderViolation, match=re.escape(
            f"capture one child under coordinate ({ell}, 2)")):
        transition_parents(sp, fake, ref, labels, 0, pairs[0])


def test_transition_parents_names_the_first_violating_coordinate():
    # c lies 0.01 from p1 but is p0's child, and c2 lies 0.01 from p0 but
    # is p1's child; p0 and p1 take different colors, so the coordinates
    # (ell, 2) of both colors put two centers within delta^k / (4 a0^2) of
    # one child, and the error names the first of them in (ell, m) order
    p0, p1, c, c2 = 0, 1, 2, 3
    x = np.array([0.0, 1.0, 1.01, 0.01])
    sp = build_space(np.abs(x[:, None] - x[None, :]), np.ones(4))
    fake = NestedNets(
        delta=0.5, k_min=0, k_max=1,
        levels={0: np.array([p0, p1]), 1: np.array([p0, p1, c, c2])},
        ydiff={0: np.array([c, c2])},
        order_policy="input_order", scan_order=np.arange(4))
    ref = {0: np.array([0, 1, 0, 1])}
    pairs = level_pairs(sp, fake)
    labels = grid_labels(sp, fake, ref, pairs)
    violating = []
    for ell, m in itertools.product(range(labels.L + 1),
                                    range(1, labels.M + 1)):
        try:
            oracle.parents(sp, fake, ref, labels, 0, ell, m)
        except OrderViolation:
            violating.append((ell, m))
    assert violating == [(0, 2), (1, 2)]
    with pytest.raises(OrderViolation, match=re.escape(
            "capture one child under coordinate (0, 2)")):
        transition_parents(sp, fake, ref, labels, 0, pairs[0])


def test_center_stats_reads_rows_of_points_far_from_every_center():
    # points 3 and 4 lie farther than 2 a0 delta^k = 2 from every center of
    # the coordinates that leave out point 3, and point 4 is no row of fine
    x = np.array([0.0, 0.1, 0.2, 5.0, 5.05])
    sp = build_space(np.abs(x[:, None] - x[None, :]), np.ones(5))
    fine = np.array([0, 1, 2, 3])
    centers = np.array([[[0, 1], [0, 2]], [[1, 2], [0, 3]], [[2, 3], [3, 1]]])
    a0, scale = sp.a0, 1.0
    radius = 2.0 * a0 * scale
    table = LevelTable(np.zeros((3, 2, 4), dtype=np.intp), centers,
                       near_pairs(sp.dist[fine], radius))
    radii = (1.0 / 6.0 * a0 ** -5 * scale, (1.0 / 5.0) * a0 ** -3 * scale,
             (1.0 / 6.0) * a0 ** -4 * scale)
    codes = np.array([0, 1, 2, 3, 5])
    flat = centers.reshape(-1, 2)[codes]
    far = [(sp.dist[:, z].min(axis=1) >= radius).sum() for z in flat]
    assert far == [2, 2, 2, 0, 0]
    got = _center_stats(sp, fine, table, codes, *radii)
    want = oracle.center_stats(sp, table, codes, *radii)
    assert len(got) == len(want) == 5
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_center_stats_reads_the_block_of_centers_with_no_listed_pair():
    # under the first coordinate the two centers lie 5 apart, beyond the
    # list radius 2 a0 delta^k = 2, so its separation falls back to the
    # center x center block; under the second they are 0.1 apart
    x = np.array([0.0, 0.1, 5.0, 5.1])
    sp = build_space(np.abs(x[:, None] - x[None, :]), np.ones(4))
    fine = np.arange(4)
    centers = np.array([[[0, 2], [1, 0]]])
    a0, scale = sp.a0, 1.0
    table = LevelTable(np.zeros((1, 2, 4), dtype=np.intp), centers,
                       near_pairs(sp.dist[fine], 2.0 * a0 * scale))
    radii = (1.0 / 6.0 * a0 ** -5 * scale, (1.0 / 5.0) * a0 ** -3 * scale,
             (1.0 / 6.0) * a0 ** -4 * scale)
    codes = np.array([0, 1])
    got = _center_stats(sp, fine, table, codes, *radii)
    want = oracle.center_stats(sp, table, codes, *radii)
    assert got[0].tolist() == [5.0, 0.1]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("kind,params", [
    ("interval", {"n": 40}), ("snowflake", {"n": 36, "eps": 0.5})])
def test_center_stats_scores_every_coordinate_of_a_level(kind, params):
    # every (ell, m) of each level drawn at once, in the randomized regime
    sp = gen_example(kind, seed=1, **params)
    nets, labels, tables = setup(sp, delta=0.5 * 0.25 * sp.a0 ** -2)
    a0 = sp.a0
    codes = np.arange((labels.L + 1) * labels.M)
    for k, table in tables.items():
        scale = nets.scale(k)
        radii = (1.0 / 6.0 * a0 ** -5 * scale, (1.0 / 5.0) * a0 ** -3 * scale,
                 (1.0 / 6.0) * a0 ** -4 * scale)
        got = _center_stats(sp, nets.levels[k + 1], table, codes, *radii)
        want = oracle.center_stats(sp, table, codes, *radii)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), k


def test_boundary_stats_monotone_and_deterministic():
    sp = gen_example("interval", n=32)
    nets, labels, tables = setup(sp)
    eps = [0.05, 0.1, 0.2, 0.4]
    s1 = boundary_layer_stats(sp, nets, labels, tables, eps, 300, seed=3)
    s2 = boundary_layer_stats(sp, nets, labels, tables, eps, 300, seed=3)
    assert np.array_equal(s1["counts"], s2["counts"])
    # same draws reused across eps: per-cell counts monotone
    diffs = np.diff(s1["counts"], axis=1)
    assert diffs.min() >= 0
    assert s1["mean_freq"][-1] > 0
    fit = fit_boundary_exponent(s1)
    assert np.isfinite(fit["eta"])


def test_boundary_stats_worker_count_invariance():
    sp = gen_example("interval", n=24)
    nets, labels, tables = setup(sp)
    eps = [0.1, 0.3]
    a = boundary_layer_stats(sp, nets, labels, tables, eps, 520, seed=1,
                             jobs=1)
    b = boundary_layer_stats(sp, nets, labels, tables, eps, 520, seed=1,
                             jobs=2)
    assert np.array_equal(a["counts"], b["counts"])


# ---------------------------------------------------------------------------
# batched samplers against the one-draw-at-a-time oracle

GENERATORS = [
    ("cyclic", {"n": 16}, 0.5),
    ("interval", {"n": 40}, 0.3),
    ("binary_tree", {"depth": 4}, 0.5),
    ("point_cloud", {"n": 40, "dim": 2}, 0.4),
    ("koranyi_sphere", {"n": 30, "dim": 2}, 0.5),
    ("snowflake", {"n": 36, "eps": 0.5}, 0.5),
]
EPS = [0.05, 0.1, 0.2, 0.4]


def assert_matches_oracle(sp, nets, labels, tables, grid_samples,
                          bnd_samples, seed, jobs=(1,)):
    ref = reference(sp, nets)
    want_ref = oracle.reference_order(sp, nets)
    want = oracle.grid_labels(sp, nets, want_ref)
    assert ref.keys() == want_ref.parent.keys()
    for k, par in ref.items():
        assert np.array_equal(par, want_ref.parent[k])
    assert labels.L == want.L
    assert labels.M == want.M
    assert labels.label1.keys() == want.label1.keys()
    assert labels.child_by_rank.keys() == want.child_by_rank.keys()
    for k in transition_levels(nets):
        assert np.array_equal(labels.label1[k], want.label1[k])
        assert np.array_equal(labels.child_by_rank[k], want.child_by_rank[k])
    assert_proper_coloring(sp, nets, ref, labels)
    for k, table in tables.items():
        for ell, m in oracle.coordinates(labels):
            assert np.array_equal(table.centers[ell, m - 1],
                                  oracle.zpoints(nets, labels, k, ell, m))
            assert np.array_equal(table.parents[ell, m - 1],
                                  oracle.parents(sp, nets, ref, labels, k,
                                                 ell, m))
    assert (grid_checks(sp, nets, labels, tables, seed=seed,
                        num_samples=grid_samples)
            == oracle.grid_checks(sp, nets, ref, labels, seed=seed,
                                  num_samples=grid_samples))
    counts = oracle.boundary_counts(sp, nets, ref, labels, EPS,
                                    bnd_samples, seed)
    for j in jobs:
        stats = boundary_layer_stats(sp, nets, labels, tables, EPS,
                                     bnd_samples, seed=seed, jobs=j)
        assert np.array_equal(stats["counts"], counts)


@pytest.mark.parametrize("kind,params,delta", GENERATORS)
def test_batched_samplers_match_oracle_on_generators(kind, params, delta):
    sp = gen_example(kind, seed=1, **params)
    nets, labels, tables = setup(sp, delta=delta)
    # 300 boundary draws span two RNG chunks, so jobs=2 really splits them
    assert_matches_oracle(sp, nets, labels, tables, grid_samples=12,
                          bnd_samples=300, seed=4, jobs=(1, 2))


# below delta = 1/(4 a0^2) a perturbed center can capture children other
# than itself, so the parent tables depend on the coordinate
RANDOMIZED_FRACS = (0.5, 0.9)


@pytest.mark.parametrize("frac", RANDOMIZED_FRACS)
@pytest.mark.parametrize("kind,params", [(kind, params)
                                         for kind, params, _ in GENERATORS])
def test_batched_samplers_match_oracle_in_the_randomized_regime(kind, params,
                                                               frac):
    sp = gen_example(kind, seed=1, **params)
    nets, labels, tables = setup(sp, delta=frac * 0.25 * sp.a0 ** -2)
    assert_matches_oracle(sp, nets, labels, tables, grid_samples=12,
                          bnd_samples=40, seed=4)


def test_randomized_regime_moves_parents_on_generators():
    # the randomized-regime cases above do reach draws that move a child
    moved = set()
    for kind, params, _ in GENERATORS:
        for frac in RANDOMIZED_FRACS:
            sp = gen_example(kind, seed=1, **params)
            nets, _, tables = setup(sp, delta=frac * 0.25 * sp.a0 ** -2)
            ref = reference(sp, nets)
            if any((t.parents != ref[k]).any() for k, t in tables.items()):
                moved.add(kind)
    assert {"cyclic", "interval", "snowflake"} <= moved


@st.composite
def quasi_metric_spaces(draw):
    """Powers |x - y|^p, p in [1, 2], of distances between lattice points.

    A lattice of spacing 1/16 in the unit square bounds the ratio of the
    diameter to the smallest distance, and so the number of levels.
    """
    n = draw(st.integers(2, 14))
    dim = draw(st.integers(1, 2))
    coord = st.integers(0, 16)
    pts = np.array(draw(st.lists(st.tuples(*[coord] * dim), min_size=n,
                                 max_size=n, unique=True))) / 16.0
    power = draw(st.floats(1.0, 2.0))
    weights = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2)) ** power
    return dist, np.array(weights), draw(st.sampled_from([0.3, 0.5]))


@given(quasi_metric_spaces(), st.integers(0, 2 ** 16))
def test_batched_samplers_match_oracle_on_random_spaces(case, seed):
    dist, weights, delta = case
    try:
        sp = build_space(dist, weights)
        nets, labels, tables = setup(sp, delta=delta)
    except DyadwaveError:
        assume(False)
    assert_matches_oracle(sp, nets, labels, tables, grid_samples=6,
                          bnd_samples=20, seed=seed)


@given(quasi_metric_spaces(), st.floats(0.2, 0.95), st.integers(0, 2 ** 16))
def test_batched_samplers_match_oracle_on_random_randomized_spaces(case, frac,
                                                                   seed):
    dist, weights, _ = case
    try:
        sp = build_space(dist, weights)
        nets, labels, tables = setup(sp, delta=frac * 0.25 * sp.a0 ** -2)
    except DyadwaveError:
        assume(False)
    assert_matches_oracle(sp, nets, labels, tables, grid_samples=6,
                          bnd_samples=20, seed=seed)


@given(quasi_metric_spaces(), st.floats(0.15, 0.6))
def test_grid_is_deterministic_when_capture_stays_below_separation(
        case, delta):
    # a center captures a child closer than delta^k / (4 a0^2), while two
    # level-(k+1) points lie at least delta^(k+1) apart; at delta above
    # 1/(4 a0^2) a center captures only itself, so every coordinate keeps
    # the reference parents and the cubes do not depend on the draw
    dist, weights, _ = case
    try:
        sp = build_space(dist, weights)
        assume(delta > 0.25 * sp.a0 ** -2)
        nets, labels, tables = setup(sp, delta=delta)
    except DyadwaveError:
        assume(False)
    ref = reference(sp, nets)
    for k, table in tables.items():
        assert table.parents.shape[:2] == (labels.L + 1, labels.M)
        assert (table.parents == ref[k]).all()
    values = compute_splines(sp, nets, tables).values
    for k in transition_levels(nets):
        T = values[k][:, nets.levels[k + 1]]
        assert set(np.unique(T)) <= {0.0, 1.0}


def assert_transitions_are_net_columns(sp, nets, tables):
    """The column histogram of each parent table, the transition of its
    level, is the level's spline at the next level's net points, bit for
    bit: the finer spline is exactly the identity there."""
    values = compute_splines(sp, nets, tables).values
    for k in transition_levels(nets):
        parents = tables[k].parents
        T = column_frequencies(parents.reshape(-1, parents.shape[2]),
                               len(nets.levels[k]))
        cols = values[k][:, nets.levels[k + 1]]
        assert np.array_equal(cols.view(np.uint64), T.view(np.uint64)), k


@given(quasi_metric_spaces(), st.floats(0.2, 0.95))
def test_transitions_are_the_spline_net_columns_on_random_spaces(case, frac):
    # below delta = 1/(4 a0^2) a center can capture other children, so
    # the transitions can hold fractions
    dist, weights, _ = case
    try:
        sp = build_space(dist, weights)
        nets, labels, tables = setup(sp, delta=frac * 0.25 * sp.a0 ** -2)
    except DyadwaveError:
        assume(False)
    assert_transitions_are_net_columns(sp, nets, tables)


@pytest.mark.parametrize("kind,params", [
    ("cyclic", {"n": 32}), ("interval", {"n": 40}),
    ("binary_tree", {"depth": 5}), ("point_cloud", {"n": 48, "dim": 2}),
    ("koranyi_sphere", {"n": 40, "dim": 2}),
    ("snowflake", {"n": 40, "eps": 0.5})])
def test_transitions_are_the_spline_net_columns_on_generators(kind, params):
    sp = gen_example(kind, seed=3, **params)
    nets, labels, tables = setup(sp, delta=0.5 * 0.25 * sp.a0 ** -2)
    assert_transitions_are_net_columns(sp, nets, tables)


def scipy_fit(stats):
    keep = np.array(stats["mean_freq"]) > 0
    x = np.log(np.array(stats["eps_grid"])[keep])
    y = np.log(np.array(stats["mean_freq"])[keep])
    fit = scipy.stats.linregress(x, y)
    dof = keep.sum() - 2
    tq = scipy.stats.t.ppf(0.975, dof) if dof > 0 else math.nan
    return {"n_points": int(keep.sum()), "eta": float(fit.slope),
            "log_c": float(fit.intercept), "stderr": float(fit.stderr),
            "ci95": (float(fit.slope - tq * fit.stderr),
                     float(fit.slope + tq * fit.stderr)),
            "r2": float(fit.rvalue ** 2)}


def test_fit_boundary_exponent_equals_scipy():
    rng = np.random.default_rng(0)
    cases = []
    # 40 eps values leave dof > 30, beyond the quantile table
    for size in (2, 3, 4, 5, 8, 40):
        for _ in range(40):
            eps = np.sort(rng.uniform(0.01, 1.0, size))
            mean = np.exp(rng.normal(0.0, 1.0) * np.log(eps)
                          + rng.normal(0.0, 0.3, size))
            mean[rng.random(size) < 0.1] = 0.0
            cases.append({"eps_grid": eps.tolist(), "mean_freq": mean})
    cases.append({"eps_grid": [0.1, 0.2, 0.4], "mean_freq": [0.3, 0.3, 0.3]})
    dofs = []
    for stats in cases:
        if (np.array(stats["mean_freq"]) > 0).sum() < FIT_MIN_POINTS:
            continue
        got = fit_boundary_exponent(stats)
        want = scipy_fit(stats)
        assert got.keys() == want.keys()
        for key, val in want.items():
            assert np.array_equal(got[key], val, equal_nan=True), (key, stats)
        dofs.append(got["n_points"] - 2)
    assert len(dofs) > 150
    assert max(dofs) > len(_T975) and min(dofs) <= len(_T975)


def test_t_quantile_table_equals_scipy():
    from scipy.special import stdtrit
    assert len(_T975) == 30
    for dof, tq in enumerate(_T975, start=1):
        assert tq == stdtrit(dof, 0.975) == scipy.stats.t.ppf(0.975, dof)
