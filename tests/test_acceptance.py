"""Acceptance suite: ten criteria, one printed pass/fail line each.

Run with -s (or read the lines pytest prints despite capture via
capsys.disabled) to see one ACCEPTANCE line per criterion.
"""

import math
import time

import numpy as np
import pytest

from dyadwave.cli import main as cli_main
from dyadwave.decaymat import (chain_constants, decay_certificate,
                               inverse_sqrt, neumann_inverse,
                               spectral_inverse_sqrt)
from dyadwave.lpanalysis import (build_lp, cz_kernel_bound, lp_equivalence,
                                 lp_norm, lp_projectors, random_sign_operator,
                                 random_signs, substitute_inequality_check)
from dyadwave.nets import build_nets
from dyadwave.randgrid import (boundary_layer_stats, build_grid,
                               fit_boundary_exponent)
from dyadwave.space import build_space, exponent_a, gen_example
from dyadwave.spline import (compute_splines, mc_membership_frequencies,
                             verify_splines)
from dyadwave.wavelet import (build_mra, build_wavelet_basis, gram_matrix,
                              verify_wavelet_theorem)

FLEET = [
    ("cyclic(8)", "cyclic", {"n": 8}),
    ("cyclic(64)", "cyclic", {"n": 64}),
    ("interval(64)", "interval", {"n": 64}),
    ("binary_tree(4)", "binary_tree", {"depth": 4}),
    ("point_cloud(50,2)", "point_cloud", {"n": 50, "dim": 2}),
    ("koranyi_sphere(48,2)", "koranyi_sphere", {"n": 48, "dim": 2}),
]


def assemble_from(space, delta=0.5):
    nets = build_nets(space, delta)
    labels, tables = build_grid(space, nets)
    system = compute_splines(space, nets, tables)
    mra = build_mra(space, system)
    basis = build_wavelet_basis(space, nets, mra)
    lp = build_lp(space, nets, basis)
    return {"space": space, "nets": nets, "labels": labels, "tables": tables,
            "system": system, "mra": mra, "basis": basis, "lp": lp}


def assemble(kind, params, delta=0.5):
    return assemble_from(gen_example(kind, seed=1, **params), delta)


@pytest.fixture(scope="module")
def fleet():
    return {name: assemble(kind, params) for name, kind, params in FLEET}


@pytest.fixture(scope="module")
def wavelet_reports(fleet):
    return {name: verify_wavelet_theorem(b["space"], b["nets"], b["basis"],
                                         seed=5)
            for name, b in fleet.items()}


def stamp(capsys, num, ok, text):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {text}",
              flush=True)


def test_criterion_01_exact_spline_suite(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for _, kind, params in FLEET:
        space = gen_example(kind, seed=1, **params)
        nets = build_nets(space, 0.5)
        system = compute_splines(space, nets, build_grid(space, nets)[1])
        rep = verify_splines(system, space, nets)
        worst = max(worst, rep["partition_dev"], rep["interpolation_dev"],
                    rep["refinement_dev"], rep["stochastic_dev"])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 60.0
    stamp(capsys, 1, ok,
          f"exact spline suite on {len(FLEET)} spaces: "
          f"max deviation {worst:.2e} ({dt:.1f}s)")
    assert worst <= 1e-12
    assert dt < 60.0


def test_criterion_02_dp_vs_monte_carlo(capsys):
    # delta = 1/5: at 1/2 every draw frequency on a lattice is exactly
    # 0 or 1, which would make the binomial band vacuous
    t0 = time.perf_counter()
    num = 10_000
    b = assemble("cyclic", {"n": 16}, delta=0.2)
    freq = mc_membership_frequencies(b["nets"], b["labels"], b["tables"],
                                     seed=11, num_samples=num)
    xs = np.random.default_rng(7).integers(0, b["space"].n, size=20)
    worst_z = 0.0
    exact_mismatch = 0
    live_cells = 0
    for k, F in freq.items():
        S = b["system"].values[k]
        for cols in (np.arange(b["space"].n), xs):
            f, s = F[:, cols], S[:, cols]
            se = np.sqrt(s * (1.0 - s) / num)
            live = se > 0
            live_cells += int(live.sum())
            if live.any():
                worst_z = max(worst_z,
                              float((np.abs(f - s)[live] / se[live]).max()))
            exact_mismatch += int(np.count_nonzero(f[~live] != s[~live]))
    dt = time.perf_counter() - t0
    ok = worst_z <= 4.0 and exact_mismatch == 0 and dt < 120.0
    stamp(capsys, 2, ok,
          f"monte carlo vs exact memberships: worst z {worst_z:.2f} "
          f"over {live_cells} live cells, "
          f"{exact_mismatch} degenerate mismatches ({dt:.1f}s)")
    assert worst_z <= 4.0
    assert exact_mismatch == 0
    assert dt < 120.0


def test_criterion_03_wavelet_theorem(fleet, wavelet_reports, capsys):
    worst_gram = worst_mean = worst_recon = 0.0
    counts_ok = True
    for name, b in fleet.items():
        rep = wavelet_reports[name]
        worst_gram = max(worst_gram, rep["gram_dev"])
        worst_mean = max(worst_mean, rep["mean_dev"])
        counts_ok = counts_ok and rep["count_ok"]
        space, basis = b["space"], b["basis"]
        B = basis.rows
        f = np.random.default_rng(23).standard_normal((20, space.n))
        coeffs = B @ (f * space.weights).T
        recon = (B.T @ coeffs).T
        worst_recon = max(worst_recon, float(np.abs(recon - f).max()))
    ok = (worst_gram <= 1e-10 and worst_mean <= 1e-10
          and worst_recon <= 1e-10 and counts_ok)
    stamp(capsys, 3, ok,
          f"wavelet system: gram {worst_gram:.2e}, mean {worst_mean:.2e}, "
          f"20-vector round trip {worst_recon:.2e}, counts "
          f"{'n-1 plus constant on all spaces' if counts_ok else 'WRONG'}")
    assert worst_gram <= 1e-10
    assert worst_mean <= 1e-10
    assert worst_recon <= 1e-10
    assert counts_ok


def test_criterion_04_decay_and_smoothness_fits(fleet, wavelet_reports,
                                                capsys):
    gammas, etas = {}, {}
    a_ok = True
    for name, b in fleet.items():
        rep = wavelet_reports[name]
        gammas[name] = rep["decay"]["c"]
        etas[name] = rep["holder"]["eta_hat"]
        a_ok = a_ok and rep["a"] == exponent_a(b["space"])
    min_g, min_e = min(gammas.values()), min(etas.values())
    ok = min_g > 0.0 and min_e > 0.0 and a_ok
    stamp(capsys, 4, ok,
          f"fitted exponents positive on all spaces: "
          f"gamma_hat in [{min_g:.2f}, {max(gammas.values()):.2f}], "
          f"eta_hat in [{min_e:.2f}, {max(etas.values()):.2f}]")
    for name in gammas:
        assert gammas[name] > 0.0, name
        assert etas[name] > 0.0, name
    assert a_ok


def test_criterion_05_gram_certificates(fleet, capsys):
    min_c = min_cp = math.inf
    worst_inv = worst_root = 0.0
    chains_ok = True
    for name, b in fleet.items():
        space, nets, system = b["space"], b["nets"], b["system"]
        s_chain = 1.0 / (1.0 + math.log2(space.a0))
        for k in nets.level_range:
            pts = nets.levels[k]
            M = gram_matrix(space, system, k)
            d = space.dist[np.ix_(pts, pts)] / nets.scale(k)
            if len(pts) > 1:
                min_c = min(min_c, decay_certificate(M, d)["c"])
            inv = neumann_inverse(M)["inverse"]
            worst_inv = max(worst_inv,
                            float(np.abs(inv - np.linalg.inv(M)).max()))
            if len(pts) > 1:
                min_cp = min(min_cp,
                             decay_certificate(inv, d, s=s_chain)["c"])
            root = inverse_sqrt(M)["root"]
            worst_root = max(worst_root,
                             float(np.abs(root -
                                          spectral_inverse_sqrt(M)).max()))
        m = min(10, space.n)
        sub = space.dist[np.ix_(range(m), range(m))]
        cc = chain_constants(sub, m)
        kappa = cc["kappa"]
        chains_ok = chains_ok and cc["exact"]
        chains_ok = chains_ok and abs(kappa[0] - 1.0) <= 1e-12
        chains_ok = chains_ok and kappa[1] <= space.a0 + 1e-9
        for j in range(m):
            bound = space.a0 ** (1.0 + math.log2(j + 1))
            chains_ok = chains_ok and kappa[j] <= bound + 1e-9
    ok = (min_c > 0.0 and min_cp > 0.0 and worst_inv <= 1e-8
          and worst_root <= 1e-8 and chains_ok)
    stamp(capsys, 5, ok,
          f"gram decay c {min_c:.2f}, inverse decay c {min_cp:.2f}, "
          f"series inverse dev {worst_inv:.2e}, "
          f"inverse sqrt dev {worst_root:.2e}, chain bounds "
          f"{'hold' if chains_ok else 'VIOLATED'}")
    assert min_c > 0.0
    assert min_cp > 0.0
    assert worst_inv <= 1e-8
    assert worst_root <= 1e-8
    assert chains_ok


def test_criterion_06_square_function_equivalence(fleet, capsys):
    worst_p2 = worst_drift = 0.0
    worst_iso = 0.0
    all_finite = True
    for name, b in fleet.items():
        space, basis = b["space"], b["basis"]
        first = lp_equivalence(space, basis, [2.0, 1.5, 4.0], num_trials=200,
                               seed=0)
        second = lp_equivalence(space, basis, [1.5, 4.0], num_trials=200,
                                seed=1)
        lo2, hi2 = first[2.0]
        worst_p2 = max(worst_p2, abs(lo2 - 1.0), abs(hi2 - 1.0))
        for p in (1.5, 4.0):
            for va, vb in zip(first[p], second[p]):
                all_finite = (all_finite and 0.0 < va < math.inf
                              and 0.0 < vb < math.inf)
                worst_drift = max(worst_drift, abs(va / vb - 1.0))
        f = np.random.default_rng(9).standard_normal((20, space.n))
        f -= ((f @ space.weights) / space.total_mass)[:, None]
        for sign_seed in (0, 1, 2):
            T = random_sign_operator(space, basis,
                                     random_signs(basis, seed=sign_seed))
            for row in f:
                worst_iso = max(worst_iso,
                                abs(lp_norm(space, T @ row, 2.0)
                                    - lp_norm(space, row, 2.0)))
    ok = (worst_p2 <= 1e-10 and all_finite and worst_drift <= 0.20
          and worst_iso <= 1e-10)
    stamp(capsys, 6, ok,
          f"square function: p=2 ratios within {worst_p2:.2e} of 1, "
          f"constants drift {100 * worst_drift:.1f}% across seed sets, "
          f"sign isometry dev {worst_iso:.2e}")
    assert worst_p2 <= 1e-10
    assert all_finite
    assert worst_drift <= 0.20
    assert worst_iso <= 1e-10


def test_criterion_07_kernel_normalisation(fleet, capsys):
    worst_p = worst_q = worst_tel = worst_rel = 0.0
    cz_finite = True
    for name, b in fleet.items():
        space, nets = b["space"], b["nets"]
        prev = None
        for k, P, Q in lp_projectors(space, nets, b["basis"]):
            worst_p = max(worst_p, float(np.abs(P.sum(axis=1) - 1.0).max()))
            if Q is not None:
                worst_q = max(worst_q, float(np.abs(Q.sum(axis=1)).max()))
            if prev is not None:
                tel = P - prev[0] - prev[1]
                worst_tel = max(worst_tel, float(np.abs(tel).max()))
            prev = P, Q
        c_hat = cz_kernel_bound(space, b["basis"])["c_hat"]
        cz_finite = cz_finite and math.isfinite(c_hat)
        doubled = assemble_from(build_space(space.dist, 2.0 * space.weights))
        c2 = cz_kernel_bound(doubled["space"], doubled["basis"])["c_hat"]
        if c_hat > 0:
            worst_rel = max(worst_rel, abs(c2 - c_hat) / c_hat)
    ok = (worst_p <= 1e-10 and worst_q <= 1e-10 and worst_tel <= 1e-12
          and cz_finite and worst_rel <= 1e-10)
    stamp(capsys, 7, ok,
          f"kernels: P mass dev {worst_p:.2e}, Q mass dev {worst_q:.2e}, "
          f"telescoping {worst_tel:.2e}, singular bound finite and "
          f"mass-scaling drift {worst_rel:.2e}")
    assert worst_p <= 1e-10
    assert worst_q <= 1e-10
    assert worst_tel <= 1e-12
    assert cz_finite
    assert worst_rel <= 1e-10


def test_criterion_08_restricted_sum_on_clusters(capsys):
    t0 = time.perf_counter()
    m, gap = 16, 100.0
    block = gen_example("cyclic", n=m)
    d = np.full((2 * m, 2 * m), gap)
    d[:m, :m] = block.dist
    d[m:, m:] = block.dist
    np.fill_diagonal(d, 0.0)
    b = assemble_from(build_space(d, np.ones(2 * m)))
    report = substitute_inequality_check(b["space"], b["nets"], b["lp"],
                                         r_grid=(32.0,))
    row = report["rows"][0]
    dt = time.perf_counter() - t0
    ok = (math.isfinite(row["max_ratio"])
          and row["max_contrast_factor"] >= 10.0 and dt < 60.0)
    stamp(capsys, 8, ok,
          f"two-cluster gap scales: restricted ratio {row['max_ratio']:.3f}, "
          f"unrestricted exceeds by {row['max_contrast_factor']:.1f}x "
          f"({dt:.1f}s)")
    assert math.isfinite(row["max_ratio"])
    assert row["max_contrast_factor"] >= 10.0
    assert dt < 60.0


def test_criterion_09_boundary_layers(capsys):
    # delta = 1/6 keeps per-cell frequencies off the 0/1 lattice
    # degeneracy that delta = 1/2 produces on interval spaces
    t0 = time.perf_counter()
    b = assemble("interval", {"n": 256}, delta=1.0 / 6.0)
    stats = boundary_layer_stats(b["space"], b["nets"], b["labels"],
                                 b["tables"], [0.05, 0.1, 0.2, 0.4],
                                 num_samples=2000, seed=3)
    fit = fit_boundary_exponent(stats)
    monotone = bool(np.all(np.diff(stats["freq"], axis=1) >= 0.0))
    dt = time.perf_counter() - t0
    ok = monotone and fit["ci95"][0] > 0.0 and dt < 180.0
    stamp(capsys, 9, ok,
          f"boundary layers: frequencies monotone in eps, "
          f"eta_hat {fit['eta']:.2f} with 95% CI "
          f"({fit['ci95'][0]:.2f}, {fit['ci95'][1]:.2f}) ({dt:.1f}s)")
    assert monotone
    assert fit["ci95"][0] > 0.0
    assert dt < 180.0


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["build", "--gen", "cyclic", "16",
                         "--out", str(out)]) == 0
        assert cli_main(["verify", "--artifacts", str(out)]) == 0
        blobs.append(((out / "build_report.json").read_bytes(),
                      (out / "report.json").read_bytes()))
    ok = blobs[0] == blobs[1]
    stamp(capsys, 10, ok,
          f"determinism: build and verify reports byte-identical across "
          f"runs ({len(blobs[0][0]) + len(blobs[0][1])} bytes compared)")
    assert blobs[0] == blobs[1]
