import numpy as np
import pytest

from dyadwave.cli import write_json
from dyadwave.errors import BadDelta, TooLarge
from dyadwave.nets import (
    build_nets,
    farthest_first_order,
    load_nets_json,
    nets_from_dict,
    nets_to_dict,
    verify_nets,
)
from dyadwave.space import build_space, gen_example


def test_cyclic8_reference_hierarchy():
    sp = gen_example("cyclic", n=8)
    nets = build_nets(sp, 0.5)
    assert nets.k_min == -3
    assert nets.k_max == 0
    assert [len(nets.levels[k]) for k in nets.level_range] == [1, 2, 4, 8]
    assert sorted(nets.levels[-1].tolist()) == [0, 2, 4, 6]
    assert sorted(nets.levels[-2].tolist()) == [0, 4]
    assert nets.levels[-3].tolist() == [0]
    assert sorted(nets.ydiff[-1].tolist()) == [1, 3, 5, 7]
    assert sorted(nets.ydiff[-2].tolist()) == [2, 6]
    assert nets.ydiff[-3].tolist() == [4]


def test_two_point_hierarchy():
    sp = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    nets = build_nets(sp, 0.5)
    assert nets.k_min == -1 and nets.k_max == 0
    assert len(nets.levels[-1]) == 1
    assert len(nets.levels[0]) == 2


def test_binary_tree_levels():
    sp = gen_example("binary_tree", depth=4)
    nets = build_nets(sp, 0.5)
    assert nets.k_max == -1
    assert nets.k_min == -4
    assert [len(nets.levels[k]) for k in nets.level_range] == [1, 2, 8, 16]


def test_interval_level_count():
    sp = gen_example("interval", n=256)
    nets = build_nets(sp, 0.5)
    assert nets.k_max == 8
    assert nets.k_min == -1
    sp64 = gen_example("interval", n=64)
    nets64 = build_nets(sp64, 0.5)
    assert nets64.k_max == 6 and nets64.k_min == -1


@pytest.mark.parametrize("kind,params", [
    ("cyclic", {"n": 16}),
    ("interval", {"n": 40}),
    ("binary_tree", {"depth": 3}),
    ("point_cloud", {"n": 40, "dim": 2}),
    ("koranyi_sphere", {"n": 30, "dim": 2}),
    ("snowflake", {"n": 24, "eps": 0.7}),
])
# farthest-first is the one scan order; the parameter keeps the test ids
@pytest.mark.parametrize("policy", ["farthest_first"])
def test_invariants_across_fleet(kind, params, policy):
    sp = gen_example(kind, seed=1, **params)
    nets = build_nets(sp, 0.5)
    assert nets.order_policy == policy
    report = verify_nets(nets, sp)
    for k, entry in report["levels"].items():
        assert entry["separation_ok"], (kind, k)
        assert entry["nested_ok"], (kind, k)
    assert report["root_ok"] and report["finest_ok"]
    # strict subset chain sizes
    sizes = [len(nets.levels[k]) for k in nets.level_range]
    assert sizes[0] == 1 and sizes[-1] == sp.n
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("kind,params", [
    ("cyclic", {"n": 16}),
    ("interval", {"n": 40}),
    ("point_cloud", {"n": 40, "dim": 2}),
    ("koranyi_sphere", {"n": 30, "dim": 2}),
])
def test_density_across_fleet(kind, params):
    sp = gen_example(kind, seed=1, **params)
    nets = build_nets(sp, 0.5)
    report = verify_nets(nets, sp)
    for k, entry in report["levels"].items():
        assert entry["density_ok"], (kind, k, entry["density_ratio"])
    assert report["ok"]


def test_farthest_first_is_permutation():
    sp = gen_example("point_cloud", n=25, dim=2, seed=4)
    order = farthest_first_order(sp.dist)
    assert sorted(order.tolist()) == list(range(25))
    assert order[0] == 0
    # second visit is a farthest point from the first
    assert sp.dist[0, order[1]] == pytest.approx(sp.dist[0].max())


def test_determinism_and_policy_difference():
    # the greedy scans follow the stored farthest-first order, not the
    # input order, and repeat exactly
    sp = gen_example("interval", n=64)
    a = build_nets(sp, 0.5)
    b = build_nets(sp, 0.5)
    for k in a.level_range:
        assert np.array_equal(a.levels[k], b.levels[k])
    assert np.array_equal(a.scan_order, farthest_first_order(sp.dist))
    assert not np.array_equal(a.scan_order, np.arange(sp.n))


def test_bad_delta_rejected():
    sp = gen_example("cyclic", n=8)
    for delta in (0.0, 1.0, 1.5, -0.25):
        with pytest.raises(BadDelta):
            build_nets(sp, delta)


def test_delta_near_one_rejected_as_too_large():
    sp = gen_example("cyclic", n=8)
    with pytest.raises(TooLarge):
        build_nets(sp, 0.99995)


def test_single_point_space_nets():
    sp = build_space(np.zeros((1, 1)), np.ones(1))
    nets = build_nets(sp, 0.5)
    assert nets.k_min == nets.k_max == 0
    assert nets.levels[0].tolist() == [0]


def test_json_roundtrip(tmp_path):
    sp = gen_example("point_cloud", n=20, dim=2, seed=2)
    nets = build_nets(sp, 0.5)
    path = tmp_path / "nets.json"
    write_json(path, nets_to_dict(nets))
    back = load_nets_json(path)
    assert back.delta == nets.delta
    assert back.k_min == nets.k_min and back.k_max == nets.k_max
    for k in nets.level_range:
        assert np.array_equal(back.levels[k], nets.levels[k])
    for k in nets.ydiff:
        assert np.array_equal(back.ydiff[k], nets.ydiff[k])
    again = nets_from_dict(nets_to_dict(nets))
    assert np.array_equal(again.scan_order, nets.scan_order)


SPARSE_NETS = """
import sys
from dyadwave.nets import nets_from_dict
# coarse levels spread over a wide range of indices, where the default
# np.isin sorts through np.unique
wide = list(range(0, 401, 20))
nets = nets_from_dict({"delta": 0.5, "k_min": 0, "k_max": 3,
                       "levels": {"0": [0], "1": wide, "2": wide + [10],
                                  "3": list(range(401))},
                       "scan_order": list(range(401))})
print(nets.ydiff[1].tolist(), "numpy.ma" in sys.modules)
"""


def test_nets_from_dict_leaves_numpy_ma_unloaded(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", SPARSE_NETS],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[10] False"
