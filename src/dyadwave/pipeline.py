"""The bodies of ``build`` and ``verify``, and verify's comparisons.

``cli`` imports this module only when one of them runs.  What they share
with the other commands is looked up in ``cli`` at each call.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cli
from .errors import (BadParams, DeltaTooLarge, MissingArtifact, NoConvergence,
                     NotPositiveDefinite, RankDeficiency, TooLarge)
from .space import exponent_a, gen_example, load_space_csv, load_space_json

# rows of the spline projector that verify's telescoping check forms at once
PROJECTOR_ROWS = 128


def _load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingArtifact(f"config file {path} not found")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:
            raise BadParams("TOML configs need python >= 3.11; "
                            "use JSON instead") from exc
        try:
            payload = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise BadParams(f"bad TOML in {path}: {exc}") from exc
    else:
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise BadParams(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadParams(f"config {path} must hold a table of settings")
    return payload


def _load_space(cfg):
    gen = cfg.get("gen")
    if gen:
        if cfg.get("input"):
            raise BadParams("give either an input file or a generator spec, "
                            "not both")
        return gen_example(gen["kind"], seed=cfg["seed"], **gen["params"])
    path = cfg.get("input")
    if not path:
        raise BadParams("no input space: pass --input PATH or --gen KIND ...")
    if cfg.get("weights"):
        return load_space_csv(path, cfg["weights"])
    return load_space_json(path)


def _config_sha(core: dict) -> str:
    import hashlib
    return hashlib.sha256(cli._dumps(core).encode()).hexdigest()


def _construct(space, cfg):
    """Nets, splines, MRA and wavelet basis of a space, with check reports.

    ``build`` writes what this returns and ``verify`` compares the stored
    artifacts with it.  Each level's parent table is built once and serves
    both the splines and the sampled grid checks, and is dropped before
    the spline Grams and the basis exist.
    """
    from .nets import build_nets, verify_nets
    from .randgrid import build_grid, grid_checks
    from .spline import compute_splines, verify_splines
    from .wavelet import (build_mra, build_wavelet_basis,
                          verify_wavelet_theorem)

    nets = build_nets(space, cfg["delta"])
    labels, tables = build_grid(space, nets)
    system = compute_splines(space, nets, tables)
    checks = {
        "nets": verify_nets(nets, space),
        "random_grid": grid_checks(space, nets, labels, tables,
                                   seed=cfg["seed"],
                                   num_samples=cfg["grid_samples"]),
        "splines": verify_splines(system, space, nets,
                                  tol=cfg["tolerances"]["exact"]),
    }
    del labels, tables
    mra = build_mra(space, system)
    basis = build_wavelet_basis(space, nets, mra)
    checks["wavelets"] = verify_wavelet_theorem(
        space, nets, basis, seed=cfg["seed"], tol=cfg["tolerances"]["ortho"])
    return nets, system, mra, basis, checks


def _basis_meta(space, nets, basis) -> dict:
    """What ``build`` writes to basis.json."""
    return {
        "delta": nets.delta,
        "n": space.n,
        "count": len(basis.rows) - 1,
        "k_min": nets.k_min,
        "k_max": nets.k_max,
        "levels": list(basis.blocks),
        "index_sets": {k: basis.centers[sl] for k, sl in basis.blocks.items()},
        "mass_fine": basis.mass_fine,
        "mass_center": basis.mass_center,
        "constant_value": float(basis.rows[0, 0]),
        "total_mass": space.total_mass,
        "row_labels": [["const", -1]] + [
            [k, c] for k, sl in basis.blocks.items()
            for c in basis.centers[sl].tolist()],
    }


def _build_report(space, nets, checks, delta) -> dict:
    """What ``build`` writes to build_report.json."""
    return {
        "n": space.n,
        "delta": delta,
        "a0": space.a0,
        "k_min": nets.k_min,
        "k_max": nets.k_max,
        "level_sizes": {k: len(nets.levels[k]) for k in nets.level_range},
        "checks": checks,
        "ok": True,
    }


def build(args) -> int:
    from .nets import nets_to_dict

    flags = {key: getattr(args, key) for key in
             ("input", "weights", "delta", "seed", "out", "grid_samples")}
    flags["gen"] = cli._parse_gen_spec(args.gen) if args.gen else None
    cfg = cli._resolve_config(
        _load_config_file(args.config) if args.config else {}, flags)
    space = _load_space(cfg)
    delta = cfg["delta"]
    try:
        nets, system, _, basis, checks = _construct(space, cfg)
    except (RankDeficiency, NotPositiveDefinite, NoConvergence,
            TooLarge) as exc:
        # conditioning loss and level-budget overflow are both how a
        # too-coarse delta surfaces on a concrete space
        raise DeltaTooLarge(
            f"construction failed at delta={delta:g} "
            f"({type(exc).__name__}: {exc}); use a smaller delta") from exc

    bad = [name for name, rep in checks.items() if not rep["ok"]]
    if (checks["splines"]["outer_support_violations"]
            or checks["splines"]["inner_plateau_violations"]):
        bad.append("spline_support")
    if bad:
        print(cli._dumps(checks), file=sys.stderr)
        raise DeltaTooLarge(
            f"exact invariants failed for {', '.join(bad)} at "
            f"delta={delta:g}; use a smaller delta")

    out = Path(cfg["out"])
    cli._write_array(out / "dist.npy", space.dist)
    cli._write_array(out / "weights.npy", space.weights)
    cli.write_json(out / "nets.json", nets_to_dict(nets))
    for k, triples in system.triples.items():
        cli._write_array(out / "splines" / f"level_{k}.npy", triples)
    cli.write_csv(out / "basis_values.csv", basis.rows)
    cli.write_json(out / "basis.json", _basis_meta(space, nets, basis))
    core = {k: cfg[k] for k in cfg if k not in ("out", "jobs")}
    cli.write_json(out / "build_config.json", {
        "config": core,
        "config_sha256": _config_sha(core),
        "versions": cli._versions(),
    })
    cli.write_json(out / "build_report.json",
                   _build_report(space, nets, checks, delta))
    print(f"built {len(basis.rows) - 1} wavelets + constant over {space.n} "
          f"points -> {out}")
    return 0


def _load_triples(path, shape):
    """The ``(row, col, value)`` triples ``build`` stored for a matrix of
    ``shape`` (``spline.sparse_triples``), or None when an index lies past
    ``shape``.

    The indices must be non-negative integers in strictly increasing
    row-major order, so each entry is stored once; other triples raise
    MissingArtifact.
    """
    arr = cli._load_array(path, 2)
    if arr.shape[1] != 3:
        raise MissingArtifact(f"{path} holds {arr.shape[1]} columns, not "
                              "the row, column and value of each entry")
    idx = arr[:, :2]
    if not np.all(np.isfinite(idx) & (idx >= 0) & (idx == np.floor(idx))):
        raise MissingArtifact(f"{path} holds an index that is not a "
                              "non-negative integer")
    rows, cols = idx.T
    step, drift = np.diff(rows), np.diff(cols)
    if not np.all((step > 0) | (step == 0) & (drift > 0)):
        raise MissingArtifact(f"{path} lists its entries out of row-major "
                              "order or twice")
    if len(arr) and (rows[-1] >= shape[0] or cols.max() >= shape[1]):
        return None
    return arr


def _triple_devs(stored: np.ndarray, rebuilt: np.ndarray, n: int) -> tuple:
    """(|stored - rebuilt|, column) at each entry of an n-column matrix
    that either set of row-major triples holds; every other entry is 0 on
    both sides."""
    key_s, key_r = (t[:, 0].astype(np.int64) * n + t[:, 1].astype(np.int64)
                    for t in (stored, rebuilt))
    at = np.searchsorted(key_s, key_r)
    hit = np.zeros(len(key_r), dtype=bool)
    inside = at < len(key_s)
    hit[inside] = key_s[at[inside]] == key_r[inside]
    dev = stored[:, 2].copy()
    dev[at[hit]] -= rebuilt[hit, 2]
    return (np.abs(np.concatenate([dev, rebuilt[~hit, 2]])),
            np.concatenate([stored[:, 1], rebuilt[~hit, 1]]).astype(np.intp))


def _spline_devs(folder: Path, system, nets) -> tuple:
    """Largest deviations of the stored spline levels from the rebuilt
    ``S_k``, and of their columns at the net points of level k + 1, where
    ``S_k`` is the transition ``T_k`` bit for bit.

    Both are infinite when a stored level does not fit the rebuilt shape,
    and NaN when one holds a NaN.  The stored and rebuilt triples are
    compared as they are, one level at a time.
    """
    spline_dev = transition_dev = 0.0
    for k, rebuilt in sorted(system.triples.items()):
        stored = _load_triples(folder / f"level_{k}.npy",
                               (len(nets.levels[k]), system.n))
        if stored is None:
            return math.inf, math.inf
        dev, cols = _triple_devs(stored, rebuilt, system.n)
        spline_dev = np.maximum(spline_dev, dev.max(initial=0.0))
        if k < nets.k_max:
            at_net = np.zeros(system.n, dtype=bool)
            at_net[nets.levels[k + 1]] = True
            transition_dev = np.maximum(transition_dev,
                                        dev[at_net[cols]].max(initial=0.0))
    return spline_dev, transition_dev


def _same_json(stored: tuple, rebuilt: dict) -> bool:
    """Whether a stored artifact, a (text, parsed object) pair, holds the
    values ``build`` writes now.

    A text equal to what ``build`` writes matches at once.  Any other text
    is parsed and goes through the one writer, so NaN compares equal to
    NaN and an integral float to the integer it is written as.
    """
    text, payload = stored
    written = cli._dumps(rebuilt) + "\n"
    return text == written or cli._dumps(payload) + "\n" == written


def _chk(measured, tol) -> dict:
    m = float(measured)
    return {"measured": m, "tol": float(tol), "ok": bool(m <= tol)}


def _keep_freed_heap() -> None:
    """Let glibc keep freed n x n arrays in the heap for the next level.

    Each level of ``verify`` frees about a dozen n x n temporaries.  By
    default glibc maps each one above its mmap threshold afresh and trims
    the heap top once two are free, so every level faults its pages in
    again.  A 1 GiB mmap threshold serves them from the heap, and a 1 GiB
    trim threshold keeps them there.  The trim threshold is set only once
    the mmap one is accepted: setting it alone freezes the mmap threshold
    at 128 KiB.  Placement changes no value.  Where ``mallopt`` is missing
    or refuses, nothing changes.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        # no process symbol table (Windows) or no mallopt (macOS)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_mmap_threshold, 1 << 30) == 1:
        mallopt(m_trim_threshold, 1 << 30)


_ABSENT = object()


def _first_difference(stored, rebuilt, path=()):
    """The dotted path of the first leaf, in written key order, where two
    trees of parsed JSON differ as ``build`` writes them, with the text of
    each side's leaf (``absent`` where one side lacks it), or None."""
    if isinstance(stored, dict) and isinstance(rebuilt, dict):
        keys = sorted(stored.keys() | rebuilt.keys(), key=cli._key_order)
        pairs = [(key, stored.get(key, _ABSENT), rebuilt.get(key, _ABSENT))
                 for key in keys]
    elif isinstance(stored, list) and isinstance(rebuilt, list):
        pairs = [(str(i),
                  stored[i] if i < len(stored) else _ABSENT,
                  rebuilt[i] if i < len(rebuilt) else _ABSENT)
                 for i in range(max(len(stored), len(rebuilt)))]
    else:
        texts = ["absent" if side is _ABSENT else cli._dumps(side)
                 for side in (stored, rebuilt)]
        return None if texts[0] == texts[1] else (".".join(path), *texts)
    for key, a, b in pairs:
        found = _first_difference(a, b, path + (key,))
        if found:
            return found
    return None


def _report_nets_difference(files: dict) -> None:
    """Name on stderr the first leaf where a stored artifact differs from
    what ``build`` writes now; ``files`` maps each artifact's name to its
    stored and rebuilt payloads, in the order to search."""
    for name, (stored, rebuilt) in files.items():
        found = _first_difference(json.loads(cli._dumps(stored)),
                                  json.loads(cli._dumps(rebuilt)))
        if found:
            path, was, now = found
            print(f"verify: nets: {name} differs at {path} "
                  f"(stored {was}, rebuilt {now})", file=sys.stderr)
            return


def verify(args) -> int:
    _keep_freed_heap()
    from .lpanalysis import (build_lp, cz_kernel_bound, growth_sequence,
                             kernel_estimates, lp_equivalence, lp_projectors,
                             random_sign_operator, random_signs,
                             substitute_inequality_check)
    from .nets import load_nets_json, nets_to_dict
    from .wavelet import (gram_decay_certificates, orthonormality_devs,
                          spline_projector)

    art = Path(args.artifacts)
    cli._require_artifacts(art, ["dist.npy", "weights.npy", "nets.json",
                                 "basis.json", "basis_values.csv",
                                 "build_config.json", "build_report.json",
                                 "splines"])
    space = cli._stored_space(art)
    stored_nets = load_nets_json(art / "nets.json")
    stored = cli._read_artifact_json(art / "build_config.json")[1]
    cfg = cli._resolve_config(stored.get("config", {}),
                              {"num_trials": args.num_trials,
                               "pair_budget": args.pair_budget})
    stored_report = cli._read_artifact_json(art / "build_report.json")
    B, stored_meta, _, _ = cli._load_basis(art, space.n)
    count = int(stored_meta[1]["count"])
    seed = cfg["seed"]
    tol_exact = float(cfg["tolerances"]["exact"])
    tol_ortho = float(cfg["tolerances"]["ortho"])
    n = space.n
    w = space.weights

    nets, system, mra, basis, checks = _construct(space, cfg)
    # boundary trusts the stored nets and a0, so both must match
    nets_pair = (nets_to_dict(stored_nets), nets_to_dict(nets))
    rebuilt_report = _build_report(space, nets, checks, cfg["delta"])
    nets_match = (nets_pair[0] == nets_pair[1]
                  and _same_json(stored_report, rebuilt_report))
    if not nets_match:
        _report_nets_difference({
            "nets.json": nets_pair,
            "build_report.json": (stored_report[1], rebuilt_report)})
    splines_dev, trans_dev = _spline_devs(art / "splines", system, nets)
    rebuilt = basis.rows
    basis_dev = (float(np.abs(B - rebuilt).max())
                 if B.shape == rebuilt.shape
                 and _same_json(stored_meta, _basis_meta(space, nets, basis))
                 else math.inf)
    count_ok = count == n - 1 and B.shape == (count + 1, n)

    # direct checks on the loaded matrix, so corruption is caught even
    # when the rebuilt basis is healthy; a loaded matrix with the rebuilt
    # bits has the deviations that verify_wavelet_theorem found for them
    if B.shape == rebuilt.shape and np.array_equal(B.view(np.uint64),
                                                   rebuilt.view(np.uint64)):
        gram_dev, mean_dev, recon_dev = (
            checks["wavelets"][key]
            for key in ("gram_dev", "mean_dev", "recon_dev"))
    else:
        gram_dev, mean_dev, recon_dev = orthonormality_devs(B, w, seed)
    # the checks below read the rebuilt basis only
    del B

    lp = build_lp(space, nets, basis)
    tele_devs = []

    def telescoped():
        # one pass over the block projectors serves the kernel estimates
        # and compares each P_k with the spline projector onto V_k, one
        # block of its rows at a time
        for k, P, Q in lp_projectors(space, nets, basis):
            tele_devs.append(np.max([
                np.abs(np.subtract(block, P[rows], out=block), out=block).max()
                for rows, block in spline_projector(space, mra, k,
                                                    PROJECTOR_ROWS)]))
            yield k, P, Q

    kern = kernel_estimates(space, nets, lp, telescoped(),
                            pair_budget=cfg["pair_budget"], seed=seed)
    sym_dev, prow_dev, qrow_dev = (
        np.max([0.0] + [entry.get(key, 0.0)
                        for entry in kern["levels"].values()])
        for key in ("p_sym_dev", "p_rowsum_dev", "q_rowsum_dev"))

    signs = random_signs(basis, seed=seed)
    T = random_sign_operator(space, basis, signs)
    iso_dev = float(np.abs(T.T @ (w[:, None] * T) - np.diag(w)).max())
    del T    # no later check reads the operator

    equivalence = {}
    parseval_dev = 0.0
    if len(basis.rows) > 1:
        bounds = lp_equivalence(space, basis,
                                list(dict.fromkeys(cfg["p_list"] + [2.0])),
                                num_trials=cfg["num_trials"], seed=seed)
        for p in cfg["p_list"]:
            lo, hi = bounds[p]
            equivalence[f"{p:g}"] = {"lo": lo, "hi": hi,
                                     "num_trials": cfg["num_trials"]}
        parseval_dev = max(abs(bounds[2.0][0] - 1.0),
                           abs(bounds[2.0][1] - 1.0))

    spl_rep = checks["splines"]
    exact = {
        "nets": {"ok": bool(checks["nets"]["ok"] and nets_match)},
        "random_grid": {"ok": bool(checks["random_grid"]["ok"])},
        "spline_partition": _chk(spl_rep["partition_dev"], tol_exact),
        "spline_interpolation": _chk(spl_rep["interpolation_dev"], tol_exact),
        "spline_refinement": _chk(spl_rep["refinement_dev"], tol_exact),
        "spline_stochastic": _chk(spl_rep["stochastic_dev"], tol_exact),
        "spline_persistence": _chk(spl_rep["persistence_dev"], tol_exact),
        "spline_nonnegative": _chk(-spl_rep["min_value"], tol_exact),
        "artifact_splines_match": _chk(splines_dev, tol_exact),
        "artifact_transitions_match": _chk(trans_dev, tol_exact),
        "artifact_basis_match": _chk(basis_dev, tol_exact),
        "config_hash": {"ok": _config_sha(stored.get("config", {}))
                        == stored.get("config_sha256")},
        "basis_count": {"measured": count, "expected": n - 1,
                        "ok": bool(count_ok)},
        "basis_gram": _chk(gram_dev, tol_ortho),
        "vanishing_mean": _chk(mean_dev, tol_ortho),
        "reconstruction": _chk(recon_dev, tol_ortho),
        "lp_telescoping": _chk(np.max(tele_devs), tol_exact),
        "kernel_symmetry": _chk(sym_dev, tol_ortho),
        "p_kernel_rowsum": _chk(prow_dev, tol_ortho),
        "q_kernel_rowsum": _chk(qrow_dev, tol_ortho),
        "parseval": _chk(parseval_dev, tol_ortho),
        "sign_isometry": _chk(iso_dev, tol_ortho),
    }
    ok = all(item["ok"] for item in exact.values())

    fits = {
        "wavelet_decay": dict(checks["wavelets"]["decay"],
                              a=checks["wavelets"]["a"]),
        "wavelet_holder": checks["wavelets"]["holder"],
        "cz_bound": cz_kernel_bound(space, basis),
        "gram_certificates": gram_decay_certificates(space, nets, mra, basis),
        "kernel_estimates": kern,
        "norm_equivalence": equivalence,
        "substitute": substitute_inequality_check(space, nets, lp,
                                                  r_grid=cfg["r_grid"]),
        "growth_sample": growth_sequence(space, nets, lp, 0,
                                         min(cfg["r_grid"])),
    }

    report = {
        "n": n,
        "delta": nets.delta,
        "a0": space.a0,
        "exponent_a": exponent_a(space),
        "seed": seed,
        "exact": exact,
        "fits": fits,
        "reports": checks,
        "ok": ok,
        "provenance": {"config_sha256": stored.get("config_sha256"),
                       "versions": cli._versions()},
    }
    report_path = Path(args.report) if args.report else art / "report.json"
    cli.write_json(report_path, report)

    for name in sorted(exact):
        print(f"{'PASS' if exact[name]['ok'] else 'FAIL'} {name}")
    passed = sum(1 for item in exact.values() if item["ok"])
    status = "ok" if ok else "FAILED"
    print(f"verify: {status} ({passed}/{len(exact)} exact checks) "
          f"-> {report_path}")
    return 0 if ok else cli.EXIT_CHECKS_FAILED
