import itertools
import math

import numpy as np
import pytest

import randgrid_oracle as oracle
from dyadwave.nets import build_nets
from dyadwave.randgrid import (
    cube_assignments,
    build_grid,
    sample_omega,
    transition_levels,
)
from dyadwave.space import gen_example
from dyadwave.spline import (
    compute_splines,
    holder_estimate,
    mc_membership_frequencies,
    verify_splines,
)

FLEET = [
    ("cyclic", {"n": 8}),
    ("cyclic", {"n": 16}),
    ("interval", {"n": 64}),
    ("binary_tree", {"depth": 4}),
    ("point_cloud", {"n": 40, "dim": 2}),
    ("koranyi_sphere", {"n": 30, "dim": 2}),
]


def setup(kind, params, delta=0.5, seed=1):
    space = gen_example(kind, seed=seed, **params)
    nets = build_nets(space, delta)
    return (space, nets) + build_grid(space, nets)


def all_grid_averages(space, nets, labels, tables):
    tls = list(transition_levels(nets))
    coords = np.array(oracle.coordinates(labels))
    combos = np.array(list(itertools.product(range(len(coords)),
                                             repeat=len(tls))))
    total = len(combos)
    draws = {k: (coords[combos[:, i], 0], coords[combos[:, i], 1])
             for i, k in enumerate(tls)}
    sums = {k: np.zeros((len(nets.levels[k]), space.n)) for k in tls}
    cols = np.arange(space.n)
    parents = {k: t.parents for k, t in tables.items()}
    for k, asg in cube_assignments(nets, parents, draws, total):
        if k in sums:
            for row in asg:
                sums[k][row, cols] += 1.0
    return {k: s / total for k, s in sums.items()}, total


def test_two_point_exact():
    space, nets, labels, tables = setup("cyclic", {"n": 2})
    system = compute_splines(space, nets, tables)
    assert sorted(system.values) == list(nets.level_range) == [-1, 0]
    assert np.array_equal(system.values[0], np.eye(2))
    assert np.array_equal(system.values[-1], np.ones((1, 2)))
    # the transition is the coarse spline at the fine net points
    assert np.array_equal(system.values[-1][:, nets.levels[0]],
                          np.ones((1, 2)))


def test_cyclic8_matches_full_grid_enumeration():
    space, nets, labels, tables = setup("cyclic", {"n": 8})
    system = compute_splines(space, nets, tables)
    avg, total = all_grid_averages(space, nets, labels, tables)
    assert total == 27
    for k in avg:
        assert np.allclose(system.values[k], avg[k], atol=1e-13)


def test_point_cloud_matches_full_grid_enumeration():
    space, nets, labels, tables = setup("point_cloud", {"n": 7, "dim": 2},
                                        seed=3)
    system = compute_splines(space, nets, tables)
    avg, _ = all_grid_averages(space, nets, labels, tables)
    for k in avg:
        assert np.allclose(system.values[k], avg[k], atol=1e-13)


def test_transition_matrix_is_column_stochastic_probability_table():
    space, nets, labels, tables = setup("cyclic", {"n": 8})
    system = compute_splines(space, nets, tables)
    for k in transition_levels(nets):
        T = system.values[k][:, nets.levels[k + 1]]
        assert np.allclose(T.sum(axis=0), 1.0, atol=1e-14)
        assert T.min() >= 0.0
        # every entry is a count over the finite coordinate set
        n_coords = (labels.L + 1) * labels.M
        assert np.allclose(T * n_coords, np.round(T * n_coords), atol=1e-9)


@pytest.mark.parametrize("kind,params", FLEET)
def test_fleet_exact_identities(kind, params):
    space, nets, labels, tables = setup(kind, params)
    system = compute_splines(space, nets, tables)
    report = verify_splines(system, space, nets)
    assert report["ok"], report
    assert report["partition_dev"] <= 1e-12
    assert report["interpolation_dev"] <= 1e-12
    assert report["refinement_dev"] <= 1e-12
    assert report["stochastic_dev"] <= 1e-12
    assert report["persistence_dev"] <= 1e-12
    assert report["min_value"] >= 0.0
    assert report["outer_support_violations"] == 0
    assert report["row_sum_range"][0] > 0


@pytest.mark.parametrize("kind,params", [
    ("cyclic", {"n": 16}), ("interval", {"n": 64}),
    ("binary_tree", {"depth": 4}), ("point_cloud", {"n": 40, "dim": 2})])
def test_metric_fleet_inner_plateau(kind, params):
    space, nets, labels, tables = setup(kind, params)
    system = compute_splines(space, nets, tables)
    report = verify_splines(system, space, nets)
    assert report["inner_plateau_violations"] == 0


def test_farthest_first_policy_also_exact():
    space = gen_example("point_cloud", seed=2, n=30, dim=3)
    nets = build_nets(space, 0.5)
    labels, tables = build_grid(space, nets)
    system = compute_splines(space, nets, tables)
    assert verify_splines(system, space, nets)["ok"]


def test_mc_frequencies_within_binomial_error():
    space, nets, labels, tables = setup("cyclic", {"n": 8})
    system = compute_splines(space, nets, tables)
    N = 3000
    freq = mc_membership_frequencies(
        nets, labels, tables,
        seed=7, num_samples=N)
    for k, F in freq.items():
        p = system.values[k]
        se = np.sqrt(p * (1 - p) / N)
        assert np.all(np.abs(F - p) <= 4 * se + 1e-12)
        exact = (p == 0) | (p == 1)
        assert np.array_equal(F[exact], p[exact])


def test_mc_deterministic_in_seed():
    space, nets, labels, tables = setup("cyclic", {"n": 16}, delta=0.2)
    a = mc_membership_frequencies(nets, labels, tables, 3, 200)
    b = mc_membership_frequencies(nets, labels, tables, 3, 200)
    c = mc_membership_frequencies(nets, labels, tables, 4, 200)
    for k in a:
        assert np.array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_mc_matches_dp_at_live_delta():
    space, nets, labels, tables = setup("cyclic", {"n": 16}, delta=0.2)
    system = compute_splines(space, nets, tables)
    N = 4000
    freq = mc_membership_frequencies(
        nets, labels, tables,
        seed=11, num_samples=N)
    for k, F in freq.items():
        p = system.values[k]
        se = np.sqrt(p * (1 - p) / N)
        assert np.all(np.abs(F - p) <= 4 * se + 1e-12)


def test_grids_deterministic_at_half_delta():
    # the capture radius delta^k/(4 a0^2) stays below the child separation
    # delta^(k+1) whenever delta >= 1/(4 a0^2), so at delta = 1/2 no draw
    # ever moves a parent and every spline value is an indicator
    for kind, params in [("interval", {"n": 16}), ("cyclic", {"n": 16}),
                         ("point_cloud", {"n": 30, "dim": 2})]:
        space, nets, labels, tables = setup(kind, params)
        system = compute_splines(space, nets, tables)
        for V in system.values.values():
            assert set(np.unique(V)) <= {0.0, 1.0}


def test_small_delta_gives_fractional_values():
    space, nets, labels, tables = setup("cyclic", {"n": 16}, delta=0.2)
    system = compute_splines(space, nets, tables)
    frac = sum(int(((v > 0) & (v < 1)).sum()) for v in system.values.values())
    assert frac > 0
    report = verify_splines(system, space, nets)
    assert report["ok"], report


def test_ball_masses_on_cycle():
    space, nets, labels, tables = setup("cyclic", {"n": 8})
    system = compute_splines(space, nets, tables)
    assert np.array_equal(system.ball_mass[0], np.ones(8))
    assert np.array_equal(system.ball_mass[-1], np.full(4, 3.0))
    assert np.array_equal(system.ball_mass[-2], np.full(2, 7.0))
    assert np.array_equal(system.ball_mass[-3], np.array([8.0]))


def test_holder_estimate_reports_positive_rate():
    space, nets, labels, tables = setup("cyclic", {"n": 32}, delta=0.2)
    system = compute_splines(space, nets, tables)
    out = holder_estimate(system, space, nets)
    assert math.isfinite(out["const_at_eta"]) and out["const_at_eta"] > 0
    assert out["eta"] == 1.0
    assert out["n_pairs"] > 0
    assert out["eta_hat"] > 0
    # the fitted exponent certifies a constant within the budget
    iu = np.triu_indices(space.n, k=1)
    for k in nets.level_range:
        rel = space.dist[iu] / nets.scale(k)
        near = rel <= 1.0
        V = system.values[k]
        diff = np.abs(V[:, iu[0][near]] - V[:, iu[1][near]]).max(axis=0)
        assert np.all(diff <= out["budget"] * rel[near] ** out["eta_hat"]
                      + 1e-12)


def test_holder_fit_closed_form():
    from dyadwave.spline import holder_fit
    assert holder_fit([], []) == 4.0
    # one sample: diff 1/2 at relative distance 1/4
    got = holder_fit([np.log(4.0)], [np.log(0.5)])
    assert got == pytest.approx(np.log(8.0) / np.log(4.0))


def test_sample_grid_once_deterministic():
    space, nets, labels, tables = setup("point_cloud", {"n": 25, "dim": 2})
    tls = list(transition_levels(nets))
    om1 = sample_omega(labels, tls, seed=5, count=1)
    om2 = sample_omega(labels, tls, seed=5, count=1)
    assert all(np.array_equal(om1[k][0], om2[k][0])
               and np.array_equal(om1[k][1], om2[k][1]) for k in tls)
    parents = {k: t.parents for k, t in tables.items()}
    asg1 = dict(cube_assignments(nets, parents, om1, 1))
    asg2 = dict(cube_assignments(nets, parents, om2, 1))
    for k in asg1:
        assert np.array_equal(asg1[k], asg2[k])
