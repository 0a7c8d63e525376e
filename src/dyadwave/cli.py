"""Command line pipeline around the dyadic construction.

Five subcommands cover the workflow end to end: ``gen`` writes example
spaces, ``build`` constructs nets, splines, and the wavelet basis into
an artifact directory, ``verify`` re-checks a built directory and emits
an analysis report, ``analyze`` expands a signal in the basis, and
``boundary`` samples boundary-layer frequencies.  The artifacts keep the
space as raw float64 bits, ``dist.npy`` and ``weights.npy``, so no command
after ``build`` parses its n^2 distances, and each spline level as the
float64 ``(row, col, value)`` triples of its stored entries; every other
float is serialized with 17 significant digits and dictionary keys in a
fixed order, so the same configuration produces byte-identical files.

At module level this file imports only the standard library, NumPy,
``errors`` and ``space``; each command imports the modules it runs, so
``analyze`` loads none of the construction and ``boundary`` none of the
splines, wavelets or Littlewood-Paley analysis.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (BadDelta, BadExponent, BadParams, DeltaTooLarge,
                     DimensionMismatch, DyadwaveError, MissingArtifact,
                     NoConvergence, NotPositiveDefinite, RankDeficiency,
                     TooLarge, exit_code_for)
from .space import (GENERATOR_KINDS, build_space, check_weights, exponent_a,
                    gen_example, load_space_csv, load_space_json,
                    space_to_dict, square_function, use_stored_a0)

# 0 is success, 1 is reserved for unexpected crashes, and the error
# classes own 2-14, so failed verification checks get their own code.
EXIT_CHECKS_FAILED = 20

# rows of the spline projector that verify's telescoping check forms at once
PROJECTOR_ROWS = 128

# entries of basis_values.csv that write_csv formats at once
CSV_BLOCK = 1 << 13

CONFIG_DEFAULTS = {
    "input": None,
    "weights": None,
    "gen": None,
    "delta": 0.5,
    "seed": 0,
    "num_samples": 64,
    "num_trials": 100,
    "grid_samples": 32,
    "eps_grid": [0.02, 0.05, 0.1, 0.2, 0.4],
    "r_grid": [0.25, 0.5, 1.0],
    "p_list": [1.5, 2.0, 4.0],
    "pair_budget": 200_000,
    "tolerances": {"exact": 1e-12, "ortho": 1e-10},
    "out": "artifacts",
    "jobs": 1,
}

PARAM_NAMES = {
    "cyclic": ("n",),
    "interval": ("n",),
    "binary_tree": ("depth",),
    "point_cloud": ("n", "dim"),
    "koranyi_sphere": ("n", "dim"),
    "snowflake": ("n", "eps"),
}


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_floats(row, sep: str = ",") -> str:
    """A row of floats at 17 significant digits, joined by ``sep``.

    The one float formatter of every written file.  ``%g`` output holds
    the letters of ``nan`` and ``inf`` nowhere else, so the replacements
    touch only the non-finite values.
    """
    text = sep.join(["%.17g"] * len(row)) % tuple(row)
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _fmt_rows(M, sep: str = ",", known=None) -> list:
    """One text per row of a 1-D or 2-D float array, entries joined by ``sep``.

    The text of a float depends only on its bits, so each distinct bit
    pattern is formatted once, by one ``_fmt_floats`` call, and the rows
    are joined from those texts.  +0.0 and -0.0 are distinct patterns, and
    so is every NaN payload.  ``known``, when given, maps the patterns of
    the array formatted before to their texts, which are not formatted
    again; on return it maps this array's patterns instead.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    bits, inverse = np.unique(M.view(np.uint64), return_inverse=True)
    if known is None:
        texts = _fmt_floats(bits.view(float).tolist(), "\n").split("\n")
    else:
        keys = bits.tolist()
        new = [key for key in keys if key not in known]
        known.update(zip(new, _fmt_floats(
            np.array(new, dtype=np.uint64).view(float).tolist(), "\n")
            .split("\n")))
        texts = [known[key] for key in keys]
        known.clear()
        known.update(zip(keys, texts))
    texts = np.array(texts, dtype=object)
    return [sep.join(row) for row in texts[inverse.reshape(M.shape)].tolist()]


def _fmt(x) -> str:
    return _fmt_floats((float(x),))


def _key_order(key: str):
    try:
        return (0, int(key), "")
    except ValueError:
        return (1, 0, key)


def _dumps(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and 17-digit floats; numpy arrays and
    tuples are written as lists, numpy scalars as numbers, keys as str."""
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim in (1, 2) and obj.size:
            rows = _fmt_rows(obj, ", ")
            if obj.ndim == 1:
                return "[" + rows[0] + "]"
            inner = ",\n".join(pad + "  [" + row + "]" for row in rows)
            return "[\n" + inner + "\n" + pad + "]"
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted({str(k): v for k, v in obj.items()}.items(),
                       key=lambda kv: _key_order(kv[0]))
        inner = ",\n".join(f"{pad}  {json.dumps(k)}: {_dumps(v, indent + 1)}"
                           for k, v in items)
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is float for v in obj):
            return "[" + _fmt_floats(obj, ", ") + "]"
        parts = [_dumps(v, indent + 1) for v in obj]
        if any(p[0] in "[{" for p in parts):
            inner = ",\n".join(pad + "  " + p for p in parts)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join(parts) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return json.dumps(obj)


def _write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_array(path, arr) -> None:
    """``arr`` as a .npy file, written whole under its name like the texts."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        np.save(fh, arr, allow_pickle=False)
    os.replace(tmp, path)


def write_json(path, payload) -> None:
    _write_text(path, _dumps(payload) + "\n")


def write_csv(path, rows) -> None:
    """The rows as CSV, formatted one block of rows of about CSV_BLOCK
    entries at a time; the bit patterns of the block before are not
    formatted again."""
    M = np.atleast_2d(np.asarray(rows, dtype=float))
    step = max(1, CSV_BLOCK // max(1, M.shape[1]))
    known = {}
    blocks = ("\n".join(_fmt_rows(M[r0:r0 + step], known=known)) + "\n"
              for r0 in range(0, len(M), step))
    _write_text(path, "".join(blocks) or "\n")


# ---------------------------------------------------------------------------
# configuration

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


def _resolve_config(stored: dict, flags: dict) -> dict:
    """Defaults, then stored or file settings, then the flags not ``None``.

    Tolerances merge key by key.  The merged config is validated.  A config
    file is checked to be a map when read, so settings that are not one
    come from a corrupt ``build_config.json``.
    """
    if not isinstance(stored, dict):
        raise MissingArtifact("stored build config is not a map")
    unknown = set(stored) - set(CONFIG_DEFAULTS)
    if unknown:
        raise BadParams(f"unknown config keys: {sorted(unknown)}")
    tols = stored.get("tolerances", {})
    if not isinstance(tols, dict):
        raise BadParams("tolerances must be a map")
    cfg = {**CONFIG_DEFAULTS, **stored}
    cfg["tolerances"] = {**CONFIG_DEFAULTS["tolerances"], **tols}
    cfg.update((key, val) for key, val in flags.items() if val is not None)
    return _validate_config(cfg)


def _number(kind, key: str, val):
    """``val`` as ``kind``; a float key also takes an integer."""
    if isinstance(val, bool) or not isinstance(val, (int, kind)):
        raise BadParams(f"{key} must be of type {kind.__name__}, got {val!r}")
    try:
        return kind(val)
    except OverflowError as exc:
        raise BadParams(f"{key} is out of range, got {val!r}") from exc


def _validate_config(cfg: dict) -> dict:
    delta = _number(float, "delta", cfg["delta"])
    if not 0.0 < delta < 1.0:
        raise BadDelta(f"delta must lie in (0, 1), got {delta:g}")
    cfg["delta"] = delta
    for name, val in cfg["tolerances"].items():
        if name not in CONFIG_DEFAULTS["tolerances"]:
            raise BadParams(f"unknown tolerance {name!r}")
        if not _number(float, f"tolerance {name!r}", val) > 0:
            raise BadParams(f"tolerance {name!r} must be positive")
    for key in ("num_samples", "num_trials", "grid_samples",
                "pair_budget", "jobs"):
        cfg[key] = _number(int, key, cfg[key])
        if cfg[key] < 1:
            raise BadParams(f"{key} must be at least 1")
    for key in ("eps_grid", "r_grid", "p_list"):
        if not isinstance(cfg[key], (list, tuple)):
            raise BadParams(f"{key} must be a list of numbers")
        vals = [_number(float, key, v) for v in cfg[key]]
        if not vals or not all(v > 0 for v in vals):
            raise BadParams(f"{key} needs positive entries")
        cfg[key] = vals
    if not all(1.0 < p < math.inf for p in cfg["p_list"]):
        raise BadExponent(f"p_list entries must lie in (1, inf), "
                          f"got {cfg['p_list']}")
    cfg["seed"] = _number(int, "seed", cfg["seed"])
    if cfg["seed"] < 0:
        raise BadParams("seed must be non-negative")
    gen = cfg["gen"]
    if gen is not None and not (isinstance(gen, dict)
                                and isinstance(gen.get("kind"), str)
                                and isinstance(gen.get("params"), dict)):
        raise BadParams("gen must be a map with a kind and its params")
    paths = [cfg["out"]] + [cfg[key] for key in ("input", "weights")
                            if cfg[key] is not None]
    if not all(isinstance(path, str) for path in paths):
        raise BadParams("input, weights and out must be paths")
    return cfg


def _parse_gen_spec(tokens) -> dict:
    kind = tokens[0]
    if kind not in PARAM_NAMES:
        raise BadParams(f"unknown example kind {kind!r}; "
                        f"choose from {', '.join(GENERATOR_KINDS)}")
    names = PARAM_NAMES[kind]
    raw = tokens[1:]
    if len(raw) != len(names):
        raise BadParams(f"{kind} takes parameters {', '.join(names)}")
    params = {}
    for name, val in zip(names, raw):
        try:
            params[name] = float(val) if name == "eps" else int(val)
        except ValueError as exc:
            raise BadParams(f"parameter {name} for {kind} must be a number, "
                            f"got {val!r}") from exc
    return {"kind": kind, "params": params}


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


def _versions() -> dict:
    # numpy's BLAS sets the rounding; build and verify run no SciPy code
    import platform
    return {
        "dyadwave": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _config_sha(core: dict) -> str:
    import hashlib
    return hashlib.sha256(_dumps(core).encode()).hexdigest()


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    spec = _parse_gen_spec([args.kind] + args.params)
    space = gen_example(spec["kind"], seed=args.seed, **spec["params"])
    out = Path(args.out) if args.out else Path(f"{args.kind}.json")
    write_json(out, space_to_dict(space))
    print(f"wrote {spec['kind']} space with {space.n} points -> {out}")
    return 0


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


def cmd_build(args) -> int:
    from .nets import nets_to_dict

    flags = {key: getattr(args, key) for key in
             ("input", "weights", "delta", "seed", "out", "grid_samples")}
    flags["gen"] = _parse_gen_spec(args.gen) if args.gen else None
    cfg = _resolve_config(
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
        print(_dumps(checks), file=sys.stderr)
        raise DeltaTooLarge(
            f"exact invariants failed for {', '.join(bad)} at "
            f"delta={delta:g}; use a smaller delta")

    out = Path(cfg["out"])
    _write_array(out / "dist.npy", space.dist)
    _write_array(out / "weights.npy", space.weights)
    write_json(out / "nets.json", nets_to_dict(nets))
    for k, triples in system.triples.items():
        _write_array(out / "splines" / f"level_{k}.npy", triples)
    write_csv(out / "basis_values.csv", basis.rows)
    write_json(out / "basis.json", _basis_meta(space, nets, basis))
    core = {k: cfg[k] for k in cfg if k not in ("out", "jobs")}
    write_json(out / "build_config.json", {
        "config": core,
        "config_sha256": _config_sha(core),
        "versions": _versions(),
    })
    write_json(out / "build_report.json",
               _build_report(space, nets, checks, delta))
    print(f"built {len(basis.rows) - 1} wavelets + constant over {space.n} "
          f"points -> {out}")
    return 0


def _require_artifacts(art: Path, names) -> None:
    missing = [nm for nm in names if not (art / nm).exists()]
    if missing:
        raise MissingArtifact(
            f"{art} is missing {', '.join(missing)}; run build first")


def _read_artifact_json(path) -> tuple:
    """The text of a JSON artifact and the object it holds."""
    try:
        text = Path(path).read_text()
        payload = json.loads(text)
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise MissingArtifact(f"{path} does not hold a JSON object")
    return text, payload


def _load_matrix(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"cannot read {path}: {exc}") from exc


def _load_array(path, ndim: int) -> np.ndarray:
    """The float64 array of rank ``ndim`` in a .npy artifact, C-contiguous.

    Never unpickles: an unreadable file, a pickle, a zip, a header that
    claims more entries than memory holds or an array of another dtype or
    rank raises MissingArtifact.  A Fortran-ordered or byte-swapped file is
    copied to C order, so BLAS rounds as at build.
    """
    try:
        with open(path, "rb") as fh:
            arr = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError, MemoryError) as exc:
        raise MissingArtifact(f"cannot read {path}: {exc}") from exc
    if not isinstance(arr, np.ndarray):
        raise MissingArtifact(f"{path} is a zip archive, not one array")
    if arr.dtype.kind != "f" or arr.dtype.itemsize != 8 or arr.ndim != ndim:
        raise MissingArtifact(f"{path} holds a rank-{arr.ndim} {arr.dtype} "
                              f"array, not a rank-{ndim} float64 one")
    return np.ascontiguousarray(arr, dtype=float)


def _stored_space(art: Path):
    """The space of dist.npy and weights.npy, through every axiom check."""
    dist = _load_array(art / "dist.npy", 2)
    weights = _load_array(art / "weights.npy", 1)
    if len(weights) != len(dist):
        raise DimensionMismatch(f"weights.npy has {len(weights)} entries for "
                                f"the {len(dist)} rows of dist.npy")
    return build_space(dist, weights)


def _load_basis(art: Path, n: int) -> tuple:
    """Stored basis rows over n points, the text and the parsed object of
    basis.json, row labels, and the slice of rows of each level, read from
    labels in the order of build.  The wavelet count ``meta["count"]`` is
    checked to be an integer.
    """
    B = _load_matrix(art / "basis_values.csv")
    if B.shape[1] != n:
        raise DimensionMismatch(
            f"basis_values.csv has {B.shape[1]} columns for {n} points")
    meta_text, meta = _read_artifact_json(art / "basis.json")
    try:
        int(meta["count"])
        labels = [(lvl if lvl == "const" else int(lvl), int(center))
                  for lvl, center in meta["row_labels"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingArtifact(f"{art / 'basis.json'} lacks a valid count "
                              f"and row_labels: {exc!r}") from exc
    levels = [lvl for lvl, _ in labels]
    if (levels[:1] != ["const"] or "const" in levels[1:]
            or levels[1:] != sorted(levels[1:])):
        raise MissingArtifact(
            f"{art / 'basis.json'} row_labels must list the constant, then "
            "each level's rows together in ascending level order")
    starts = [i for i in range(1, len(levels)) if levels[i] != levels[i - 1]]
    blocks = {levels[a]: slice(a, b)
              for a, b in zip(starts, starts[1:] + [len(levels)])}
    return B, (meta_text, meta), labels, blocks


def _load_triples(path, shape):
    """The ``(row, col, value)`` triples ``build`` stored for a matrix of
    ``shape`` (``spline.sparse_triples``), or None when an index lies past
    ``shape``.

    The indices must be non-negative integers in strictly increasing
    row-major order, so each entry is stored once; other triples raise
    MissingArtifact.
    """
    arr = _load_array(path, 2)
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

    Both are infinite when a stored level does not fit the rebuilt shape.
    The stored and rebuilt triples are compared as they are, one level at
    a time.
    """
    spline_dev = transition_dev = 0.0
    for k, rebuilt in sorted(system.triples.items()):
        stored = _load_triples(folder / f"level_{k}.npy",
                               (len(nets.levels[k]), system.n))
        if stored is None:
            return math.inf, math.inf
        dev, cols = _triple_devs(stored, rebuilt, system.n)
        spline_dev = max(spline_dev, float(dev.max(initial=0.0)))
        if k < nets.k_max:
            at_net = np.zeros(system.n, dtype=bool)
            at_net[nets.levels[k + 1]] = True
            transition_dev = max(transition_dev,
                                 float(dev[at_net[cols]].max(initial=0.0)))
    return spline_dev, transition_dev


def _same_json(stored: tuple, rebuilt: dict) -> bool:
    """Whether a stored artifact, a (text, parsed object) pair, holds the
    values ``build`` writes now.

    A text equal to what ``build`` writes matches at once; ``_dumps``
    round-trips its own output, so the parsed object would match too.  Any
    other text is parsed and goes through the one writer, so NaN compares
    equal to NaN and an integral float to the integer it is written as.
    """
    text, payload = stored
    written = _dumps(rebuilt) + "\n"
    return text == written or _dumps(payload) + "\n" == written


def _chk(measured, tol) -> dict:
    m = float(measured)
    return {"measured": m, "tol": float(tol), "ok": bool(m <= tol)}


def _keep_freed_heap() -> None:
    """Let glibc keep freed n x n arrays in the heap for the next level.

    Each level of ``verify`` allocates and frees about a dozen n x n
    temporaries.  By default glibc maps every array above its mmap
    threshold afresh and returns the top of the heap to the system once
    more than two of them are free, so every level faults in and zeroes
    its pages again.  Raising the mmap threshold to 1 GiB serves them from
    the heap, and raising the trim threshold keeps the freed pages there.
    The trim threshold is set only once the mmap threshold is accepted:
    setting it alone freezes the mmap threshold at 128 KiB.  Placement
    changes no value.  Where ``mallopt`` is missing or refuses, nothing
    changes.
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
        keys = sorted(stored.keys() | rebuilt.keys(), key=_key_order)
        pairs = [(key, stored.get(key, _ABSENT), rebuilt.get(key, _ABSENT))
                 for key in keys]
    elif isinstance(stored, list) and isinstance(rebuilt, list):
        pairs = [(str(i),
                  stored[i] if i < len(stored) else _ABSENT,
                  rebuilt[i] if i < len(rebuilt) else _ABSENT)
                 for i in range(max(len(stored), len(rebuilt)))]
    else:
        texts = ["absent" if side is _ABSENT else _dumps(side)
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
        found = _first_difference(json.loads(_dumps(stored)),
                                  json.loads(_dumps(rebuilt)))
        if found:
            path, was, now = found
            print(f"verify: nets: {name} differs at {path} "
                  f"(stored {was}, rebuilt {now})", file=sys.stderr)
            return


def cmd_verify(args) -> int:
    _keep_freed_heap()
    from .lpanalysis import (build_lp, cz_kernel_bound, growth_sequence,
                             kernel_estimates, lp_equivalence, lp_projectors,
                             random_sign_operator, random_signs,
                             substitute_inequality_check)
    from .nets import load_nets_json, nets_to_dict
    from .wavelet import (gram_decay_certificates, orthonormality_devs,
                          spline_projector)

    art = Path(args.artifacts)
    _require_artifacts(art, ["dist.npy", "weights.npy", "nets.json",
                             "basis.json", "basis_values.csv",
                             "build_config.json", "build_report.json",
                             "splines"])
    space = _stored_space(art)
    stored_nets = load_nets_json(art / "nets.json")
    stored = _read_artifact_json(art / "build_config.json")[1]
    cfg = _resolve_config(stored.get("config", {}),
                          {"num_trials": args.num_trials,
                           "pair_budget": args.pair_budget})
    stored_report = _read_artifact_json(art / "build_report.json")
    B, stored_meta, _, _ = _load_basis(art, space.n)
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
        max([0.0] + [entry.get(key, 0.0) for entry in kern["levels"].values()])
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
        "lp_telescoping": _chk(max(tele_devs), tol_exact),
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
                       "versions": _versions()},
    }
    report_path = Path(args.report) if args.report else art / "report.json"
    write_json(report_path, report)

    for name in sorted(exact):
        print(f"{'PASS' if exact[name]['ok'] else 'FAIL'} {name}")
    passed = sum(1 for item in exact.values() if item["ok"])
    status = "ok" if ok else "FAILED"
    print(f"verify: {status} ({passed}/{len(exact)} exact checks) "
          f"-> {report_path}")
    return 0 if ok else EXIT_CHECKS_FAILED


def cmd_analyze(args) -> int:
    art = Path(args.artifacts)
    _require_artifacts(art, ["weights.npy", "basis.json", "basis_values.csv"])
    # the expansion needs only the measure, never the distances
    w = _load_array(art / "weights.npy", 1)
    check_weights(w)
    n = len(w)
    B, _, row_labels, blocks = _load_basis(art, n)
    if len(row_labels) != B.shape[0]:
        raise DimensionMismatch(
            f"basis.json labels {len(row_labels)} rows, basis_values.csv "
            f"holds {B.shape[0]}")
    signal = _load_matrix(args.signal).ravel()
    if not np.isfinite(signal).all():
        raise MissingArtifact(f"{args.signal} holds a value that is not "
                              f"a finite number")
    if signal.shape != (n,):
        raise DimensionMismatch(
            f"signal has {signal.size} values for {n} points")

    coeffs = B @ (w * signal)
    recon_dev = float(np.abs(B.T @ coeffs - signal).max())
    energy = float(w @ signal ** 2)
    coeff_energy = float(coeffs @ coeffs)
    parseval_abs = abs(coeff_energy - energy)
    parseval_rel = parseval_abs / max(energy, 1e-300)

    sf = square_function(B, blocks, coeffs)

    out = Path(args.out) if args.out else art
    coeff_lines = ["# level,center,coefficient"]
    coeff_lines += [f"{lvl},{center},{c}" for (lvl, center), c
                    in zip(row_labels, _fmt_rows(coeffs[:, None]))]
    _write_text(out / "coefficients.csv", "\n".join(coeff_lines) + "\n")
    sf_lines = ["# index,square_function"]
    sf_lines += [f"{i},{v}" for i, v in enumerate(_fmt_rows(sf[:, None]))]
    _write_text(out / "sf.csv", "\n".join(sf_lines) + "\n")
    write_json(out / "analyze_report.json", {
        "n": n,
        "signal": str(args.signal),
        "energy": energy,
        "coeff_energy": coeff_energy,
        "parseval_abs": parseval_abs,
        "parseval_rel": parseval_rel,
        "recon_dev": recon_dev,
        "mean_coefficient": float(coeffs[0]),
        "sf_l2": float(math.sqrt(w @ sf ** 2)),
    })
    print(f"analyzed {n} values: parseval residual {parseval_abs:.3e}, "
          f"reconstruction deviation {recon_dev:.3e} -> {out}")
    return 0


def cmd_boundary(args) -> int:
    from .nets import load_nets_json
    from .randgrid import (boundary_layer_stats, build_grid,
                           fit_boundary_exponent)

    art = Path(args.artifacts)
    _require_artifacts(art, ["dist.npy", "weights.npy", "nets.json",
                             "build_config.json", "build_report.json"])
    space = _stored_space(art)
    nets = load_nets_json(art / "nets.json")
    if len(nets.scan_order) != space.n:
        raise DimensionMismatch(f"nets.json covers {len(nets.scan_order)} "
                                f"points, dist.npy {space.n}")
    stored = _read_artifact_json(art / "build_config.json")[1]
    cfg = _resolve_config(stored.get("config", {}),
                          {"num_samples": args.num_samples,
                           "eps_grid": args.eps_grid, "seed": args.seed,
                           "jobs": args.jobs})
    # build computed a0 and verify checks the stored value
    report = _read_artifact_json(art / "build_report.json")[1]
    use_stored_a0(space, report.get("a0"))
    stats = boundary_layer_stats(space, nets, *build_grid(space, nets),
                                 cfg["eps_grid"], cfg["num_samples"],
                                 cfg["seed"], jobs=cfg["jobs"])
    fit = fit_boundary_exponent(stats)

    out = Path(args.out) if args.out else art
    # one (levels * eps * n, 3) matrix of eps, freq and stderr
    freq = stats["freq"]
    eps = np.broadcast_to(np.array(stats["eps_grid"])[:, None], freq.shape)
    cells = np.stack([eps, freq, stats["per_cell_stderr"]], axis=-1)
    prefixes = [f"{x},{k}," for k in stats["levels"]
                for _ in stats["eps_grid"] for x in range(space.n)]
    lines = ["# x,k,eps,freq,stderr"]
    lines += [p + row for p, row in zip(prefixes,
                                        _fmt_rows(cells.reshape(-1, 3)))]
    _write_text(out / "boundary.csv", "\n".join(lines) + "\n")
    write_json(out / "boundary_fit.json", {
        "eta": fit.get("eta"),
        "log_c": fit.get("log_c"),
        "ci95": fit.get("ci95"),
        "stderr": fit.get("stderr"),
        "r2": fit.get("r2"),
        "n_points": fit.get("n_points"),
        "eps_grid": stats["eps_grid"],
        "levels": stats["levels"],
        "num_samples": stats["num_samples"],
        "mean_freq": stats["mean_freq"],
        "seed": cfg["seed"],
    })
    eta = fit.get("eta", math.nan)
    lo, hi = fit.get("ci95", (math.nan, math.nan))
    print(f"boundary exponent {eta:.4f} (95% CI [{lo:.4f}, {hi:.4f}]) "
          f"over {cfg['num_samples']} samples -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadwave",
        description="dyadic nets, splines, wavelets, and their diagnostics "
                    "on finite quasi-metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write an example space as JSON")
    g.add_argument("kind", choices=GENERATOR_KINDS)
    g.add_argument("params", nargs="*",
                   help="generator parameters in order, e.g. n [dim]")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None,
                   help="output path (default <kind>.json)")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build",
                       help="construct nets, splines, and the wavelet basis")
    b.add_argument("--config", default=None,
                   help="JSON or TOML settings file")
    b.add_argument("--input", default=None, help="space JSON, or distance "
                   "CSV when --weights is given")
    b.add_argument("--weights", default=None, help="weights CSV")
    b.add_argument("--gen", nargs="+", default=None, metavar="ARG",
                   help="generator spec, e.g. --gen cyclic 8")
    b.add_argument("--delta", type=float, default=None)
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--grid-samples", dest="grid_samples", type=int,
                   default=None)
    b.add_argument("--out", default=None, help="artifact directory")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify",
                       help="re-check a built directory and write a report")
    v.add_argument("--artifacts", default="artifacts")
    v.add_argument("--report", default=None,
                   help="report path (default <artifacts>/report.json)")
    v.add_argument("--num-trials", dest="num_trials", type=int, default=None)
    v.add_argument("--pair-budget", dest="pair_budget", type=int,
                   default=None)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("analyze", help="expand a signal in the basis")
    a.add_argument("--artifacts", default="artifacts")
    a.add_argument("--signal", required=True,
                   help="CSV with one value per point")
    a.add_argument("--out", default=None,
                   help="output directory (default: the artifact directory)")
    a.set_defaults(func=cmd_analyze)

    d = sub.add_parser("boundary",
                       help="sample boundary-layer frequencies and fit "
                            "the exponent")
    d.add_argument("--artifacts", default="artifacts")
    d.add_argument("--num-samples", dest="num_samples", type=int,
                   default=None)
    d.add_argument("--eps-grid", dest="eps_grid", type=float, nargs="+",
                   default=None)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--jobs", type=int, default=None)
    d.add_argument("--out", default=None,
                   help="output directory (default: the artifact directory)")
    d.set_defaults(func=cmd_boundary)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except DyadwaveError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def run() -> int:
    """The ``dyadwave`` command: ``main``, then leave without teardown.

    When ``main`` returns, every artifact is written and closed, so the
    interpreter's teardown (about 20 ms of freeing modules and cyclic
    objects) changes nothing a user can see.  ``run`` flushes both streams
    and ends the process with ``os._exit``, so no ``atexit`` handler runs.
    A ``SystemExit`` from argparse or an exception out of ``main`` takes
    the interpreter's own exit.  So does a failing flush: ``run`` returns
    the code, and the teardown reports the error as a normal exit does
    (code 120 for a closed pipe).
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):    # a closed pipe or a closed stream
        return code
    os._exit(code)


if __name__ == "__main__":    # pragma: no cover
    raise SystemExit(run())
