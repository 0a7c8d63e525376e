import itertools

import numpy as np
import pytest

from dyadwave.decaymat import (
    DEFAULT_C_MAX,
    TINY,
    chain_constants,
    decay_certificate,
    envelope_fit,
    extreme_eigs,
    inverse_sqrt,
    neumann_inverse,
    spectral_inverse_sqrt,
)
from dyadwave.errors import (
    BadParams,
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
)
from dyadwave.space import exponent_a, gen_example


def spd(n, seed, cond=None):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    M = A @ A.T + n * np.eye(n)
    if cond is not None:
        vals, vecs = np.linalg.eigh(M)
        vals = np.linspace(1.0, cond, n)
        M = (vecs * vals) @ vecs.T
    return M


def test_envelope_exact_on_exponential_data():
    d = np.abs(np.subtract.outer(np.arange(9.0), np.arange(9.0)))
    M = np.exp(-2.0 * d)
    cert = decay_certificate(M, d)
    assert cert["c"] == pytest.approx(2.0, abs=1e-12)
    assert cert["C"] == pytest.approx(1.0, rel=1e-12)
    assert not cert["refuted"]


def test_envelope_covers_every_entry():
    rng = np.random.default_rng(3)
    pts = np.cumsum(rng.uniform(1.0, 3.0, size=20))
    d = np.abs(np.subtract.outer(pts, pts))
    M = np.exp(-1.3 * d) * rng.uniform(0.2, 1.0, size=d.shape)
    M = 0.5 * (M + M.T)
    cert = decay_certificate(M, d)
    assert cert["c"] > 0
    bound = cert["C"] * np.exp(-cert["c"] * d)
    assert np.all(np.abs(M) <= bound * (1 + 1e-12))


def test_envelope_refutes_growth():
    d = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    M = np.exp(0.5 * d)
    cert = decay_certificate(M, d)
    assert cert["refuted"]
    assert cert["c"] <= 0
    assert len(cert["worst"]) > 0
    assert cert["worst"][0]["slope"] <= cert["worst"][-1]["slope"]


def test_envelope_rate_cap_on_banded_matrix():
    # zero beyond distance 2: with the far-field cut past the band, any
    # rate is admissible and the cap comes back
    d = np.abs(np.subtract.outer(np.arange(8.0), np.arange(8.0)))
    M = np.where(d <= 2.0, 1.0, 0.0)
    fit = envelope_fit(d, M, x_cut=2.5)
    assert fit["c"] == 50.0
    assert fit["n_far"] == 0
    assert not fit["refuted"]


def test_certificate_preconditions():
    d = 0.25 * np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    with pytest.raises(BadParams):
        decay_certificate(np.exp(-d), d)
    d = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    with pytest.raises(BadParams):
        decay_certificate(np.exp(-d), d, s=1.5)
    with pytest.raises(DimensionMismatch):
        decay_certificate(np.eye(3), d)
    # within the separation slack, but d^s > d: typed error, not an assert
    d = 1.0 - 5e-10 + np.zeros((2, 2))
    np.fill_diagonal(d, 0.0)
    with pytest.raises(BadParams):
        decay_certificate(np.eye(2), d, s=0.5)


def test_product_of_decaying_matrices_still_decays():
    rng = np.random.default_rng(8)
    pts = np.cumsum(rng.uniform(1.0, 2.0, size=24))
    d = np.abs(np.subtract.outer(pts, pts))
    A = np.exp(-1.1 * d) * rng.uniform(0.3, 1.0, size=d.shape)
    B = np.exp(-1.1 * d) * rng.uniform(0.3, 1.0, size=d.shape)
    ca = decay_certificate(A, d)["c"]
    cab = decay_certificate(A @ B, d)["c"]
    assert ca > 0
    assert cab > 0 and cab <= ca + 1e-12


def test_envelope_fit_empty_and_near_field_only():
    out = envelope_fit(np.array([]), np.array([]))
    assert out["n_pairs"] == 0
    out = envelope_fit(np.array([0.1, 0.5]), np.exp([0.0, -1.0]))
    assert out["c"] == 50.0


def test_envelope_fit_lists_tied_worst_samples_in_row_major_order():
    # every sample is the anchor value, so each far one (x >= 1) has slope
    # 0 and the fit is refuted with those slopes tied; the near ones
    # (x = 0.5, slope inf) are scattered between them
    far = np.random.default_rng(0).permutation(32) % 2 == 0
    xs = np.where(far, np.arange(1.0, 33.0), 0.5).reshape(4, 8)
    out = envelope_fit(xs, np.ones_like(xs))
    assert out["refuted"] and out["c"] == 0.0
    assert [w["x"] for w in out["worst"]] == xs[xs >= 1.0][:5].tolist()
    assert all(w["slope"] == 0.0 for w in out["worst"])


def test_certificate_of_zero_matrix_anchors_at_tiny():
    d = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    cert = decay_certificate(np.zeros((4, 4)), d)
    assert cert["n_pairs"] == 0 and cert["n_far"] == 0
    assert cert["c"] == DEFAULT_C_MAX
    # exp(log(TINY)) rounds within a few ulps of TINY
    assert cert["C"] == pytest.approx(TINY, rel=1e-12)
    assert not cert["refuted"]


def test_decay_matrix_container():
    d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    cert = decay_certificate(np.exp(-d), d)
    assert cert["c"] > 0


def bruteforce_kappa(dist, m):
    n = dist.shape[0]
    worst = 1.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = np.inf
            for mid in itertools.product(range(n), repeat=m - 1):
                chain = (i, *mid, j)
                tot = sum(dist[chain[t], chain[t + 1]] for t in range(m))
                best = min(best, tot)
            worst = max(worst, dist[i, j] / best)
    return worst


def test_chain_constants_match_bruteforce():
    space = gen_example("point_cloud", seed=5, n=6, dim=2)
    snow = gen_example("snowflake", seed=5, n=6, eps=0.7)
    for sp in (space, snow):
        out = chain_constants(sp.dist, 4)
        assert out["exact"]
        for m in range(1, 5):
            assert out["kappa"][m - 1] == pytest.approx(
                bruteforce_kappa(sp.dist, m), rel=1e-12)


def test_chain_constants_bounds():
    for kind, params in [("snowflake", {"n": 14, "eps": 0.6}),
                         ("koranyi_sphere", {"n": 16, "dim": 2})]:
        sp = gen_example(kind, seed=2, **params)
        out = chain_constants(sp.dist, 8)
        k = out["kappa"]
        assert k[0] == pytest.approx(1.0)
        assert k[1] <= sp.a0 + 1e-12
        assert np.all(np.diff(k) >= -1e-12)
        for m in range(1, 9):
            assert k[m - 1] <= sp.a0 ** (1 + np.log2(m)) + 1e-9
        assert k[3] <= sp.a0 * k[1] + 1e-12
        assert k[7] <= sp.a0 * k[3] + 1e-12


def test_chain_constants_metric_space_all_one():
    sp = gen_example("cyclic", n=12)
    out = chain_constants(sp.dist, 5)
    assert np.allclose(out["kappa"], 1.0)


def test_chain_constants_sampled_fallback():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    full = chain_constants(d, 3)
    sampled = chain_constants(d, 3, exact_budget=25)
    assert not sampled["exact"]
    assert np.all(sampled["kappa"] <= full["kappa"] + 1e-12)


def test_extreme_eigs_against_dense():
    M = spd(30, 7)
    vals = np.linalg.eigvalsh(M)
    est = extreme_eigs(M)
    assert est["lmax"] == pytest.approx(vals[-1], rel=1e-8)
    assert est["lmin"] == pytest.approx(vals[0], rel=1e-8)


def test_extreme_eigs_rejects_indefinite():
    M = np.diag([1.0, -2.0])
    with pytest.raises(NotPositiveDefinite):
        extreme_eigs(M)
    with pytest.raises(NotPositiveDefinite):
        extreme_eigs(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_neumann_inverse_matches_dense():
    for seed in (0, 4):
        M = spd(24, seed)
        out = neumann_inverse(M, tol=1e-12)
        assert out["symmetric"]
        assert out["r"] < 1
        assert np.abs(out["inverse"] - np.linalg.inv(M)).max() < 1e-8
        assert out["residual"] < 1e-11


def test_neumann_inverse_nonsymmetric_reduction():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(12, 12)) + 6 * np.eye(12)
    out = neumann_inverse(M, tol=1e-12)
    assert not out["symmetric"]
    assert np.abs(out["inverse"] - np.linalg.inv(M)).max() < 1e-7


def test_neumann_inverse_errors():
    with pytest.raises(NotPositiveDefinite):
        neumann_inverse(np.diag([1.0, -1.0]))
    near_singular = np.diag([1.0, 1e-13])
    with pytest.raises(NoConvergence):
        neumann_inverse(near_singular)


def test_inverse_sqrt_matches_spectral():
    M = spd(20, 3, cond=40.0)
    out = inverse_sqrt(M, tol=1e-12)
    oracle = spectral_inverse_sqrt(M)
    assert np.abs(out["root"] - oracle).max() < 1e-8
    assert np.allclose(out["root"], out["root"].T)
    assert np.abs(out["root"] @ M @ out["root"] - np.eye(20)).max() < 1e-11


def test_inverse_sqrt_consistent_with_neumann():
    M = spd(16, 9)
    R = inverse_sqrt(M, tol=1e-12)["root"]
    inv = neumann_inverse(M, tol=1e-12)["inverse"]
    assert np.abs(R @ R - inv).max() < 1e-8


def test_spectral_inverse_sqrt_rejects_semidefinite():
    with pytest.raises(NotPositiveDefinite):
        spectral_inverse_sqrt(np.diag([1.0, 0.0]))


def test_gram_style_matrix_certificate_positive_rate():
    # kernel matrix on a 1-separated set decays like the certificate demands
    sp = gen_example("cyclic", n=48)
    d = sp.dist
    M = np.exp(-(d ** exponent_a(sp)))
    cert = decay_certificate(M, d, s=exponent_a(sp))
    assert cert["c"] > 0 and not cert["refuted"]
