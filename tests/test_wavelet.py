import dataclasses
import math

import lp_oracle
import numpy as np
import pytest

from dyadwave.decaymat import extreme_eigs, inverse_sqrt, spectral_inverse_sqrt
from dyadwave.errors import (
    NotPositiveDefinite,
    RankDeficiency,
    ZeroBallMass,
)
from dyadwave.nets import build_nets
from dyadwave.randgrid import build_grid
from dyadwave.space import build_space, exponent_a, gen_example
from dyadwave.spline import compute_splines, sparse_triples
from dyadwave.wavelet import (
    build_mra,
    build_wavelet_basis,
    dual_splines,
    gram_components,
    gram_decay_certificates,
    gram_matrix,
    orthonormalize,
    normalized_gram,
    pre_wavelets,
    spline_projector,
    verify_wavelet_theorem,
)

FLEET = [
    ("cyclic", {"n": 16}),
    ("interval", {"n": 64}),
    ("binary_tree", {"depth": 4}),
    ("point_cloud", {"n": 40, "dim": 2}),
    ("koranyi_sphere", {"n": 30, "dim": 2}),
    ("snowflake", {"n": 32, "eps": 0.5}),
]


def setup(kind, params, delta=0.5, seed=1):
    space = gen_example(kind, seed=seed, **params)
    nets = build_nets(space, delta)
    system = compute_splines(space, nets, build_grid(space, nets)[1])
    return space, nets, system


def assemble(kind, params, delta=0.5, seed=1):
    space, nets, system = setup(kind, params, delta=delta, seed=seed)
    mra = build_mra(space, system)
    basis = build_wavelet_basis(space, nets, mra)
    return space, nets, system, mra, basis


def projector(space, mra, k):
    """The whole (n, n) projector onto V_k, as one block of rows."""
    ((rows, P),) = spline_projector(space, mra, k, space.n)
    assert rows == slice(0, space.n)
    return P


def mu_dot(space, f, g):
    return float(np.sum(space.weights * f * g))


def test_gram_finest_level_diagonal():
    space, nets, system = setup("cyclic", {"n": 8})
    M = gram_matrix(space, system, nets.k_max)
    expect = np.diag(space.weights[system.values[nets.k_max].argmax(axis=1)]
                     / system.ball_mass[nets.k_max])
    assert np.allclose(M, expect, atol=1e-14)
    assert np.allclose(M, np.eye(8), atol=1e-14)


def test_gram_coarsest_level_scalar():
    space, nets, system = setup("interval", {"n": 16})
    M = gram_matrix(space, system, nets.k_min)
    assert M.shape == (1, 1)
    assert math.isclose(M[0, 0],
                        space.total_mass / system.ball_mass[nets.k_min][0],
                        rel_tol=1e-12)


@pytest.mark.parametrize("kind,params", FLEET)
def test_gram_spd_and_riesz_bounds(kind, params):
    space, nets, system = setup(kind, params)
    for k in nets.level_range:
        M = gram_matrix(space, system, k)
        assert np.allclose(M, M.T, atol=1e-14)
        est = extreme_eigs(M)
        lmin, lmax = est["lmin"], est["lmax"]
        vals = np.linalg.eigvalsh(M)
        assert lmin > 0.0
        assert math.isclose(lmin, vals[0], rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(lmax, vals[-1], rel_tol=1e-10, abs_tol=1e-12)


@pytest.mark.parametrize("kind,params", FLEET)
def test_dual_biorthogonality(kind, params):
    space, nets, system = setup(kind, params)
    mra = build_mra(space, system)
    for k in nets.level_range:
        S = system.values[k]
        pair = (S * space.weights) @ dual_splines(space, mra, k).T
        assert np.abs(pair - np.eye(S.shape[0])).max() <= 1e-10


def test_dual_midlevel_interval32():
    space, nets, system = setup("interval", {"n": 32})
    k = (nets.k_min + nets.k_max) // 2
    D = dual_splines(space, build_mra(space, system), k)
    S = system.values[k]
    pair = (S * space.weights) @ D.T
    assert np.abs(pair - np.eye(S.shape[0])).max() <= 1e-10


def cholesky_duals(space, system, k):
    """The duals through an explicit Cholesky inverse of the Gram."""
    from scipy.linalg import cho_factor, cho_solve

    gram = gram_matrix(space, system, k)
    rs = 1.0 / np.sqrt(np.asarray(system.ball_mass[k], dtype=float))
    inv = cho_solve(cho_factor(gram), np.eye(gram.shape[0]))
    return (rs[:, None] * inv * rs[None, :]) @ system.values[k]


@pytest.mark.parametrize("kind,params", FLEET)
def test_duals_match_cholesky_inverse(kind, params):
    space, nets, system = setup(kind, params)
    mra = build_mra(space, system)
    for k in nets.level_range:
        old = cholesky_duals(space, system, k)
        new = dual_splines(space, mra, k)
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


def test_dual_splines_rejects_indefinite_gram():
    space, nets, system = setup("cyclic", {"n": 8})
    k = next(k for k in nets.level_range if len(nets.levels[k]) >= 2)
    values = system.values[k]
    values[0] = 0.0                    # the Gram gets a zero eigenvalue
    broken = dataclasses.replace(
        system, triples={**system.triples, k: sparse_triples(values)})
    with pytest.raises(NotPositiveDefinite, match=f"level {k} Gram"):
        build_mra(space, broken)


def test_dual_finest_rescaled_indicators():
    space, nets, system = setup("point_cloud", {"n": 12, "dim": 2})
    D = dual_splines(space, build_mra(space, system), nets.k_max)
    expect = system.values[nets.k_max] / space.weights[None, :]
    assert np.allclose(D, expect, atol=1e-12)


def test_projection_fixes_range_kills_complement():
    space, nets, system, mra, basis = assemble("cyclic", {"n": 16})
    rng = np.random.default_rng(5)
    for k, sl in basis.blocks.items():
        P = projector(space, mra, k)
        f = rng.standard_normal(len(nets.levels[k])) @ system.values[k]
        assert np.abs(P @ f - f).max() <= 1e-10
        psi = basis.rows[sl][0]
        assert np.abs(P @ psi).max() <= 1e-10


def test_projection_contraction_idempotent_selfadjoint():
    space, nets, system = setup("koranyi_sphere", {"n": 20, "dim": 2})
    mra = build_mra(space, system)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(space.n)
    g = rng.standard_normal(space.n)
    for k in nets.level_range:
        P = projector(space, mra, k)
        pf = P @ f
        assert mu_dot(space, pf, pf) <= mu_dot(space, f, f) + 1e-12
        assert np.abs(P @ pf - pf).max() <= 1e-10
        lhs = mu_dot(space, pf, g)
        rhs = mu_dot(space, f, P @ g)
        assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)


@pytest.mark.parametrize("kind,params", FLEET)
def test_projector_nesting(kind, params):
    space, nets, system = setup(kind, params)
    mra = build_mra(space, system)
    for k in range(nets.k_min, nets.k_max):
        coarse = projector(space, mra, k)
        fine = projector(space, mra, k + 1)
        assert np.abs(coarse @ fine - coarse).max() <= 1e-10
        assert np.abs(fine @ coarse - coarse).max() <= 1e-10


@pytest.mark.parametrize("kind,params", FLEET)
def test_projector_row_blocks_have_the_bits_of_the_whole_product(kind,
                                                                 params):
    space, nets, system = setup(kind, params)
    mra = build_mra(space, system)
    whole = lp_oracle.spline_projectors(space, mra)
    for k in nets.level_range:
        for step in (2, 3, 5, 16):
            blocks = list(spline_projector(space, mra, k, step))
            starts = [rows.start for rows, _ in blocks]
            stops = [rows.stop for rows, _ in blocks]
            assert starts == [0] + stops[:-1] and stops[-1] == space.n
            assert all(b - a >= min(step, space.n) for a, b in
                       zip(starts, stops)), (k, step)
            stacked = np.vstack([block for _, block in blocks])
            assert np.array_equal(stacked.view(np.uint64),
                                  whole[k].view(np.uint64)), (kind, k, step)


def test_projector_endpoints():
    space, nets, system = setup("interval", {"n": 32})
    mra = build_mra(space, system)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(space.n)
    mean = mu_dot(space, f, np.ones(space.n)) / space.total_mass
    coarse = projector(space, mra, nets.k_min) @ f
    assert np.abs(coarse - mean).max() <= 1e-12
    finest = projector(space, mra, nets.k_max)
    assert np.abs(finest - np.eye(space.n)).max() <= 1e-10


@pytest.mark.parametrize("kind,params", FLEET)
def test_prewavelets_orthogonal_to_coarse_space(kind, params):
    space, nets, system = setup(kind, params)
    mra = build_mra(space, system)
    for k in range(nets.k_min, nets.k_max):
        if len(nets.ydiff[k]) == 0:
            continue
        base = pre_wavelets(space, nets, mra, k)[0]
        S = system.values[k]
        assert np.abs((S * space.weights) @ base.T).max() <= 1e-10
        assert np.linalg.matrix_rank(base) == len(nets.ydiff[k])


def test_two_point_closed_form():
    space, nets, system, mra, basis = assemble("interval", {"n": 2})
    assert len(basis.rows) - 1 == 1
    (k,) = basis.blocks
    center = int(basis.centers[basis.blocks[k]][0])
    base = pre_wavelets(space, nets, mra, k)[0]
    assert np.allclose(np.abs(base[0]), [0.5, 0.5], atol=1e-12)
    assert math.isclose(base[0] @ space.weights, 0.0, abs_tol=1e-12)
    assert np.allclose(basis.mgram[k].dense(), [[0.5]], atol=1e-12)
    psi = basis.rows[basis.blocks[k]][0]
    root = 1.0 / math.sqrt(2.0)
    assert psi[center] > 0
    assert np.allclose(np.sort(psi), [-root, root], atol=1e-12)
    assert np.allclose(basis.rows[0], [root, root], atol=1e-12)


def test_single_point_space_basis():
    space = build_space(np.zeros((1, 1)), np.full(1, 2.0))
    nets = build_nets(space, 0.5)
    system = compute_splines(space, nets, build_grid(space, nets)[1])
    mra = build_mra(space, system)
    basis = build_wavelet_basis(space, nets, mra)
    assert basis.blocks == {} and len(basis.rows) - 1 == 0
    assert np.allclose(basis.rows, [[1.0 / math.sqrt(2.0)]])
    rep = verify_wavelet_theorem(space, nets, basis)
    assert rep["ok"] and rep["count"] == 0


def test_orthonormalize_single_vector():
    space, _, _ = setup("cyclic", {"n": 8})
    rng = np.random.default_rng(11)
    v = rng.standard_normal((1, 8))
    gram = (v * space.weights) @ v.T
    psi, mg = orthonormalize(v, gram, gram_components(gram), np.array([3.0]),
                             [0])
    norm = math.sqrt(mu_dot(space, v[0], v[0]))
    assert np.allclose(np.abs(psi[0]), np.abs(v[0]) / norm, atol=1e-12)
    assert mg.dense().shape == (1, 1)


def test_orthonormalize_fixes_already_orthonormal():
    space, _, _ = setup("cyclic", {"n": 8})
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((3, 8))
    ortho = []
    for row in raw:
        for prev in ortho:
            row = row - mu_dot(space, row, prev) * prev
        ortho.append(row / math.sqrt(mu_dot(space, row, row)))
    ortho = np.array(ortho)
    gram = (ortho * space.weights) @ ortho.T
    psi, mg = orthonormalize(ortho, gram, gram_components(gram), np.ones(3),
                             [0, 1, 2])
    assert np.abs(mg.dense() - np.eye(3)).max() <= 1e-12
    assert np.abs(np.abs(psi) - np.abs(ortho)).max() <= 1e-10


def test_cyclic16_full_gram_identity():
    space, nets, system, mra, basis = assemble("cyclic", {"n": 16})
    B = basis.rows
    gram = (B * space.weights) @ B.T
    assert np.abs(gram - np.eye(16)).max() <= 1e-10


def test_sign_convention_center_nonnegative():
    for kind, params in FLEET:
        space, nets, system, mra, basis = assemble(kind, params)
        for sl in basis.blocks.values():
            centers = basis.centers[sl]
            vals = basis.rows[sl][np.arange(len(centers)), centers]
            assert (vals >= 0.0).all()


@pytest.mark.parametrize("kind,params", FLEET)
def test_verify_theorem_fleet(kind, params):
    space, nets, system, mra, basis = assemble(kind, params)
    rep = verify_wavelet_theorem(space, nets, basis)
    assert rep["ok"]
    assert rep["count"] == space.n - 1
    assert rep["gram_dev"] <= 1e-10
    assert rep["mean_dev"] <= 1e-10
    assert rep["recon_dev"] <= 1e-10
    assert rep["a"] == exponent_a(space)
    assert not rep["decay"]["refuted"]
    assert rep["decay"]["c"] > 0.0
    assert rep["holder"]["eta_hat"] > 0.0


def test_verify_theorem_live_delta():
    space, nets, system, mra, basis = assemble("cyclic", {"n": 16}, delta=0.2)
    rep = verify_wavelet_theorem(space, nets, basis)
    assert rep["ok"]
    assert rep["decay"]["c"] > 0.0
    assert rep["holder"]["eta_hat"] > 0.0


def test_metric_space_uses_unit_exponent():
    space, nets, system, mra, basis = assemble("interval", {"n": 16})
    assert space.lipschitz
    rep = verify_wavelet_theorem(space, nets, basis)
    assert rep["a"] == 1.0


def test_mgram_series_root_matches_spectral():
    space, nets, system, mra, basis = assemble("cyclic", {"n": 16}, delta=0.2)
    checked = 0
    for k in basis.blocks:
        M = basis.mgram[k].dense()
        if M.shape[0] < 2:
            continue
        series = inverse_sqrt(M)["root"]
        oracle = spectral_inverse_sqrt(M)
        assert np.abs(series - oracle).max() <= 1e-8
        checked += 1
    assert checked > 0


def test_transform_roundtrip_and_parseval():
    space, nets, system, mra, basis = assemble("interval", {"n": 64})
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = rng.standard_normal(64)
        coeffs = basis.rows @ (space.weights * f)
        back = basis.rows.T @ coeffs
        assert np.abs(back - f).max() <= 1e-10
        assert math.isclose(float(coeffs @ coeffs), mu_dot(space, f, f),
                            rel_tol=1e-10)


def test_transform_of_basis_vectors():
    space, nets, system, mra, basis = assemble("cyclic", {"n": 16})
    coeffs = basis.rows @ (space.weights * basis.rows[1])
    expect = np.zeros(16)
    expect[1] = 1.0
    assert np.abs(coeffs - expect).max() <= 1e-10
    coeffs = basis.rows @ (space.weights * np.full(16, 3.0))
    assert abs(coeffs[0] - 3.0 * math.sqrt(space.total_mass)) <= 1e-10
    assert np.abs(coeffs[1:]).max() <= 1e-10


def test_labels_match_stacked_rows():
    # the constant row, then each level's block of rows, coarse to fine and
    # labelled with the level's new points in order of appearance
    space, nets, system, mra, basis = assemble("interval", {"n": 16})
    assert basis.rows.shape == (space.n, space.n)
    assert basis.centers.shape == (space.n,) and basis.centers[0] == -1
    ks = [k for k in range(nets.k_min, nets.k_max) if len(nets.ydiff[k])]
    assert list(basis.blocks) == ks
    stops = [1] + [sl.stop for sl in basis.blocks.values()]
    assert [sl.start for sl in basis.blocks.values()] == stops[:-1]
    assert stops[-1] == len(basis.rows)
    for k, sl in basis.blocks.items():
        assert np.array_equal(basis.centers[sl], nets.ydiff[k])


def test_measure_rescaling_shrinks_wavelets():
    space, nets, system, mra, basis = assemble("point_cloud",
                                               {"n": 24, "dim": 2})
    doubled = build_space(space.dist, 2.0 * space.weights)
    nets2 = build_nets(doubled, 0.5)
    system2 = compute_splines(doubled, nets2, build_grid(doubled, nets2)[1])
    basis2 = build_wavelet_basis(doubled, nets2, build_mra(doubled, system2))
    lhs = basis2.rows
    rhs = basis.rows / math.sqrt(2.0)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_rank_deficiency_guard():
    space, nets, system = setup("cyclic", {"n": 8})
    mra = build_mra(space, system)
    k = next(k for k in range(nets.k_min, nets.k_max)
             if len(nets.ydiff[k]) > 1)
    # two new points with the same fine spline leave equal residuals
    rows = nets.positions(k + 1, space.n)[nets.ydiff[k]]
    values = system.values[k + 1]
    values[rows[1]] = values[rows[0]]
    system.triples[k + 1] = sparse_triples(values)
    with pytest.raises(RankDeficiency):
        pre_wavelets(space, nets, mra, k)


def test_zero_ball_mass_guard():
    space, nets, system = setup("cyclic", {"n": 8})
    system.ball_mass[nets.k_max] = np.zeros(8)
    with pytest.raises(ZeroBallMass):
        gram_matrix(space, system, nets.k_max)
    with pytest.raises(ZeroBallMass):
        normalized_gram(np.ones((2, 2)), np.zeros(2))


def test_indefinite_prewavelet_gram_rejected():
    space, _, _ = setup("cyclic", {"n": 8})
    dup = np.ones((2, 8))
    with pytest.raises(NotPositiveDefinite):
        gram = (dup * space.weights) @ dup.T
        orthonormalize(dup, gram, gram_components(gram), np.ones(2), [0, 1])


@pytest.mark.parametrize("delta", [0.5, 0.2])
def test_gram_decay_certificates_positive(delta):
    space, nets, system, mra, basis = assemble("cyclic", {"n": 32},
                                               delta=delta)
    certs = gram_decay_certificates(space, nets, mra, basis=basis)
    for k, cert in certs["spline"].items():
        assert not cert["refuted"]
        assert cert["c"] > 0.0
    assert len(certs["prewavelet"]) == len(basis.blocks)
    for cert in certs["prewavelet"].values():
        assert not cert["refuted"]
        assert cert["c"] > 0.0
