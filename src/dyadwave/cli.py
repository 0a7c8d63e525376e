"""Command line around the dyadic construction.

Five subcommands cover the workflow end to end: ``gen`` writes example
spaces, ``build`` constructs nets, splines, and the wavelet basis into
an artifact directory, ``verify`` re-checks a built directory and emits
an analysis report, ``analyze`` expands a signal in the basis, and
``boundary`` samples boundary-layer frequencies.  The artifacts keep the
space as raw float64 bits, ``dist.npy`` and ``weights.npy``, and each
spline level as the float64 ``(row, col, value)`` triples of its entries;
every other float is written with 17 significant digits and keys in a
fixed order, so the same configuration gives byte-identical files.

``build`` and ``verify`` run in ``pipeline``.  Each command imports what
it runs: ``analyze`` loads only ``errors`` and ``measure`` of the
package, and ``boundary`` no splines, wavelets or Littlewood-Paley
analysis.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import EXAMPLE_KINDS, __version__
from .errors import (BadDelta, BadExponent, BadParams, DimensionMismatch,
                     DyadwaveError, MissingArtifact, exit_code_for)
from .measure import check_weights, square_function

# 0 is success, 1 is reserved for unexpected crashes, and the error
# classes own 2-14, so failed verification checks get their own code.
EXIT_CHECKS_FAILED = 20

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
    if kind not in EXAMPLE_KINDS:
        raise BadParams(f"unknown example kind {kind!r}; "
                        f"choose from {', '.join(EXAMPLE_KINDS)}")
    typed = EXAMPLE_KINDS[kind]
    raw = tokens[1:]
    if len(raw) != len(typed):
        raise BadParams(f"{kind} takes parameters "
                        f"{', '.join(name for name, _ in typed)}")
    params = {}
    for (name, number), val in zip(typed, raw):
        try:
            params[name] = number(val)
        except ValueError as exc:
            raise BadParams(f"parameter {name} for {kind} must be a number, "
                            f"got {val!r}") from exc
    return {"kind": kind, "params": params}


def _versions() -> dict:
    # numpy's BLAS sets the rounding; build and verify run no SciPy code
    import platform
    return {
        "dyadwave": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    from .space import gen_example, space_to_dict

    spec = _parse_gen_spec([args.kind] + args.params)
    space = gen_example(spec["kind"], seed=args.seed, **spec["params"])
    out = Path(args.out) if args.out else Path(f"{args.kind}.json")
    write_json(out, space_to_dict(space))
    print(f"wrote {spec['kind']} space with {space.n} points -> {out}")
    return 0


def cmd_build(args) -> int:
    from .pipeline import build
    return build(args)


def cmd_verify(args) -> int:
    from .pipeline import verify
    return verify(args)


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
    from .space import build_space

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
    from .space import use_stored_a0

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
        **fit,
        "eps_grid": stats["eps_grid"],
        "levels": stats["levels"],
        "num_samples": stats["num_samples"],
        "mean_freq": stats["mean_freq"],
        "seed": cfg["seed"],
    })
    eta, (lo, hi) = fit["eta"], fit["ci95"]
    if math.isnan(eta):
        print("boundary: too few eps values with a positive mean frequency "
              "for a slope fit; the exponent is NaN", file=sys.stderr)
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
    g.add_argument("kind", choices=tuple(EXAMPLE_KINDS))
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

    Once ``main`` returns every artifact is written and closed, so the
    interpreter's teardown (about 20 ms) changes nothing a user can see.
    ``run`` flushes both streams and ends the process with ``os._exit``;
    no ``atexit`` handler runs.  A ``SystemExit`` from argparse, an
    exception out of ``main`` or a failing flush (code 120 for a closed
    pipe) takes the interpreter's own exit.
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
    # pipeline imports this module by name: not compiled twice
    sys.modules["dyadwave.cli"] = sys.modules[__name__]
    raise SystemExit(run())
