import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadwave.cli import write_json
from dyadwave.errors import AxiomViolation, BadExponent, BadParams, DegenerateSpace
from dyadwave.space import (
    build_space,
    compute_a0,
    exponent_a,
    gen_example,
    load_space_csv,
    load_space_json,
    near_pairs,
    space_from_dict,
    space_to_dict,
)


def a0_bruteforce(dist):
    n = dist.shape[0]
    best = 1.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == i or j == k:
                    continue
                denom = dist[i, j] + dist[j, k]
                if denom > 0:
                    best = max(best, dist[i, k] / denom)
    return best


def test_three_point_quasi_constant():
    # d(a,b) = d(b,c) = 1 and d(a,c) = 3 forces a0 = 3/2
    dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    sp = build_space(dist, np.ones(3))
    assert sp.a0 == pytest.approx(1.5, abs=0)
    assert not sp.lipschitz
    assert sp.a0 == pytest.approx(a0_bruteforce(dist))


def test_cyclic_is_metric():
    sp = gen_example("cyclic", n=8)
    assert sp.a0 == 1.0
    assert sp.lipschitz
    assert sp.diam == 4.0
    assert sp.minsep == 1.0
    assert sp.total_mass == 8.0


@pytest.mark.parametrize("kind,params", [
    ("cyclic", {"n": 8}),
    ("interval", {"n": 16}),
    ("binary_tree", {"depth": 3}),
    ("point_cloud", {"n": 20, "dim": 2}),
    ("koranyi_sphere", {"n": 20, "dim": 2}),
    ("snowflake", {"n": 16, "eps": 0.7}),
])
def test_generator_axioms(kind, params):
    sp = gen_example(kind, seed=3, **params)
    n = sp.n
    assert sp.dist.shape == (n, n)
    assert np.array_equal(sp.dist, sp.dist.T)
    assert np.all(np.diag(sp.dist) == 0)
    off = ~np.eye(n, dtype=bool)
    assert np.all(sp.dist[off] > 0)
    assert np.all(sp.weights > 0)
    assert sp.a0 >= 1.0
    # scan tightness: the reported constant is achieved, never exceeded
    assert sp.a0 == pytest.approx(max(1.0, a0_bruteforce(sp.dist)), rel=1e-12)


def test_a0_scan_matches_bruteforce_random():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 6
        m = rng.uniform(0.5, 2.0, size=(n, n))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 0.0)
        assert compute_a0(m) == pytest.approx(max(1.0, a0_bruteforce(m)))


def test_axiom_violations_raise():
    with pytest.raises(DegenerateSpace):
        build_space(np.zeros((0, 0)), np.zeros(0))
    bad_diag = np.array([[0.1, 1.0], [1.0, 0.0]])
    with pytest.raises(AxiomViolation):
        build_space(bad_diag, np.ones(2))
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(AxiomViolation):
        build_space(asym, np.ones(2))
    dup = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(AxiomViolation):
        build_space(dup, np.ones(2))
    with pytest.raises(AxiomViolation):
        build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    with pytest.raises(AxiomViolation):
        build_space(np.array([[0.0, np.inf], [np.inf, 0.0]]), np.ones(2))


def test_single_point_space():
    sp = build_space(np.zeros((1, 1)), np.ones(1))
    assert sp.n == 1
    assert sp.diam == 0.0
    assert sp.a0 == 1.0


def test_strict_balls_on_cycle():
    sp = gen_example("cyclic", n=8)
    # B(0, 1) = {0} and B(0, 2) = {7, 0, 1}: the radius itself is excluded
    assert sp.ball_mass(0, 1.0) == 1.0
    assert sp.ball_mass(0, 2.0) == 3.0


def test_ball_monotone_in_radius():
    sp = gen_example("point_cloud", n=30, dim=2, seed=5)
    radii = np.linspace(0.05, 1.5, 12)
    for x in range(0, 30, 7):
        masses = [sp.ball_mass(x, r) for r in radii]
        assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_doubling_invariant_under_relabeling():
    sp = gen_example("point_cloud", n=18, dim=2, seed=11)
    rng = np.random.default_rng(0)
    perm = rng.permutation(sp.n)
    sp2 = build_space(sp.dist[np.ix_(perm, perm)], sp.weights[perm])
    assert sp.a0 == pytest.approx(sp2.a0)


def test_exponent_a_values():
    two = build_space(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    assert exponent_a(two) == 1.0
    dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    sp = build_space(dist, np.ones(3))
    val = exponent_a(sp)
    assert val == pytest.approx(1.0 / (1.0 + 2.0 * math.log2(1.5)))
    assert val == pytest.approx(0.4608, abs=5e-5)
    # a0 = 2 gives exactly 1/3
    d2 = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    sp2 = build_space(d2, np.ones(3))
    assert sp2.a0 == 2.0
    assert exponent_a(sp2) == pytest.approx(1.0 / 3.0)


def test_koranyi_comparable_to_euclidean():
    sp = gen_example("koranyi_sphere", n=40, dim=2, seed=1)
    # the generator's own draws: unit vectors of C^2 and d = |1 - <z, w>|
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1)))
    z = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    want = np.abs(1.0 - z @ z.conj().T)
    want = 0.5 * (want + want.T)
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(sp.dist.view(np.uint64), want.view(np.uint64))
    diff = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=2)
    off = ~np.eye(sp.n, dtype=bool)
    ratio_low = sp.dist[off] / diff[off] ** 2
    ratio_high = sp.dist[off] / diff[off]
    # |z - w|^2 <= 2 d_b and d_b <= |z - w| on the unit sphere
    assert ratio_low.min() >= 0.5 - 1e-12
    assert ratio_high.max() <= 1.0 + 1e-12


def test_snowflake_quasi_but_not_metric():
    sp = gen_example("snowflake", n=24, eps=0.6, seed=2)
    assert sp.a0 > 1.0 + 1e-9
    assert not sp.lipschitz
    with pytest.raises(BadExponent):
        gen_example("snowflake", n=8, eps=1.5)
    # without the noise factor |x - y|^0.6 is a metric
    x = np.linspace(0.0, 1.0, 24)
    noiseless = build_space(np.abs(x[:, None] - x[None, :]) ** 0.6,
                            np.ones(24))
    assert noiseless.a0 == 1.0


def test_generator_determinism():
    a = gen_example("point_cloud", n=15, dim=3, seed=42)
    b = gen_example("point_cloud", n=15, dim=3, seed=42)
    c = gen_example("point_cloud", n=15, dim=3, seed=43)
    assert np.array_equal(a.dist, b.dist)
    assert not np.array_equal(a.dist, c.dist)


def whole_cloud_dist(n, dim, seed):
    """Point cloud distances from one (n, n, dim) array of differences."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    pts = rng.uniform(size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, 0.0)
    return dist


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_cloud_row_blocks_have_the_bits_of_one_array(dim, seed):
    # one partial block after two whole ones, and a single short block
    for n in (150, 7):
        got = gen_example("point_cloud", n=n, dim=dim, seed=seed).dist
        want = whole_cloud_dist(n, dim, seed)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_unknown_kind_and_bad_params():
    with pytest.raises(BadParams):
        gen_example("moebius", n=4)
    with pytest.raises(BadParams):
        gen_example("cyclic", n=0)
    with pytest.raises(BadParams):
        gen_example("cyclic")


@pytest.mark.parametrize("kind,params,message", [
    ("moebius", {"n": 4}, "unknown example kind 'moebius'"),
    ([1], {"n": 4}, "unknown example kind [1]"),
    ("cyclic", {}, "missing parameter 'n' for kind 'cyclic'"),
    ("point_cloud", {"n": 8},
     "missing parameter 'dim' for kind 'point_cloud'"),
    ("cyclic", {"n": "x"}, "bad parameters for kind 'cyclic': invalid "
     "literal for int() with base 10: 'x'"),
    ("snowflake", {"n": 8, "eps": "e"}, "bad parameters for kind "
     "'snowflake': could not convert string to float: 'e'"),
    ("cyclic", {"n": 8, "dim": 2}, "bad parameters for kind 'cyclic': "
     "_cyclic() got an unexpected keyword argument 'dim'"),
    ("koranyi_sphere", {"n": "4", "dim": "2", "foo": 1}, "bad parameters "
     "for kind 'koranyi_sphere': _koranyi_sphere() got an unexpected "
     "keyword argument 'foo'"),
])
def test_gen_example_names_what_is_wrong_with_its_parameters(kind, params,
                                                             message):
    with pytest.raises(BadParams) as err:
        gen_example(kind, seed=0, **params)
    assert str(err.value) == message


def test_json_roundtrip(tmp_path):
    sp = gen_example("snowflake", n=10, eps=0.8, seed=9)
    path = tmp_path / "space.json"
    write_json(path, space_to_dict(sp))
    back = load_space_json(path)
    assert np.array_equal(back.dist, sp.dist)
    assert np.array_equal(back.weights, sp.weights)
    assert back.a0 == sp.a0
    again = space_from_dict(space_to_dict(sp))
    assert np.array_equal(again.dist, sp.dist)


def test_csv_loading(tmp_path):
    sp = gen_example("cyclic", n=6)
    dpath = tmp_path / "dist.csv"
    wpath = tmp_path / "weights.csv"
    np.savetxt(dpath, sp.dist, delimiter=",", fmt="%.17g")
    np.savetxt(wpath, sp.weights, delimiter=",", fmt="%.17g")
    back = load_space_csv(dpath, wpath)
    assert np.array_equal(back.dist, sp.dist)
    assert np.array_equal(back.weights, sp.weights)


@st.composite
def tied_symmetric(draw):
    """A symmetric matrix with zero diagonal and a radius that some entries
    equal or straddle by one ulp, together with a block of its rows."""
    n = draw(st.integers(1, 12))
    radius = draw(st.floats(0.01, 100.0))
    values = st.sampled_from([radius, np.nextafter(radius, 0.0),
                              np.nextafter(radius, np.inf), 0.5 * radius,
                              2.0 * radius])
    upper = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n)))
    dist = np.triu(upper.reshape(n, n), k=1)
    dist = dist + dist.T
    rows = np.array(draw(st.lists(st.integers(0, n - 1), max_size=n)),
                    dtype=int)
    return dist, radius, rows


@given(tied_symmetric(), st.booleans())
def test_near_pairs_lists_dense_comparison_row_major(case, strict):
    dist, radius, rows = case
    for block in (dist, dist[rows]):
        i, j, d = near_pairs(block, radius, strict)
        want = [(a, b) for a in range(block.shape[0])
                for b in range(block.shape[1])
                if (block[a, b] < radius if strict else block[a, b] <= radius)]
        assert list(zip(i.tolist(), j.tolist())) == want
        assert d.tolist() == [block[a, b] for a, b in want]
    # the pair list of a symmetric matrix is symmetric
    i, j, _ = near_pairs(dist, radius, strict)
    assert sorted(zip(j.tolist(), i.tolist())) == list(zip(i.tolist(),
                                                            j.tolist()))


positive_normal = st.floats(sys.float_info.min, sys.float_info.max)


@st.composite
def quotient_pairs(draw):
    """(d, s): independent positive normal floats, or s a few ulps off d."""
    d = draw(positive_normal)
    steps = draw(st.integers(-3, 3))
    s = d
    for _ in range(abs(steps)):
        s = np.nextafter(s, np.inf if steps > 0 else 0.0)
    return np.float64(d), np.float64(draw(st.one_of(positive_normal,
                                                    st.just(s))))


@given(quotient_pairs())
def test_rounded_quotient_stays_on_its_side_of_one(pair):
    # close_pair_ladder filters on d <= scale and reports d / scale <= 1
    d, s = pair
    with np.errstate(over="ignore", under="ignore"):
        q = d / s
    assert (d <= s) == (q <= 1.0)
    assert (d < s) == (q < 1.0)
