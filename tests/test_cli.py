import ast
import dataclasses
import io
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import lp_oracle
import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyadwave import cli, lpanalysis, pipeline
from dyadwave.cli import EXIT_CHECKS_FAILED, _dumps, _fmt, main, write_json
from dyadwave.lpanalysis import lp_projectors
from dyadwave.space import (build_space, gen_example, load_space_json,
                            space_to_dict)
from dyadwave.spline import sparse_triples


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One cyclic(8) build shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli_build")
    art = root / "art"
    assert run("build", "--gen", "cyclic", "8", "--out", art) == 0
    return art


def write_hard_space(path):
    # scale ratio 1e18 needs ~60 levels at delta=1/2 but >4096 at 0.99
    d = np.array([[0.0, 1e-18, 1.0], [1e-18, 0.0, 1.0], [1.0, 1.0, 0.0]])
    write_json(path, space_to_dict(build_space(d, np.ones(3))))


# ---------------------------------------------------------------------------
# serialization helpers

def test_fmt_round_trips_doubles():
    for x in (math.pi, 1e-300, 2.0 / 3.0, -0.0, 123456789.123456789):
        assert float(_fmt(x)) == x
    assert _fmt(math.inf) == "Infinity"
    assert _fmt(-math.inf) == "-Infinity"
    assert _fmt(math.nan) == "NaN"


def test_dumps_orders_numeric_keys():
    text = _dumps({"10": 1, "2": 2, "-3": 3, "b": 4, "a": 5})
    order = [text.index(f'"{k}"') for k in ("-3", "2", "10", "a", "b")]
    assert order == sorted(order)


def test_dumps_parses_back_with_specials():
    payload = {"x": [1.5, math.inf, math.nan], "y": {"z": True, "w": None}}
    loaded = json.loads(_dumps(payload))
    assert loaded["x"][0] == 1.5 and loaded["x"][1] == math.inf
    assert math.isnan(loaded["x"][2])
    assert loaded["y"] == {"z": True, "w": None}


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_square_matrix(tmp_path):
    out = tmp_path / "c8.json"
    assert run("gen", "cyclic", "8", "--out", out) == 0
    space = load_space_json(out)
    assert space.n == 8
    assert space.dist.shape == (8, 8)


def test_gen_single_point(tmp_path):
    out = tmp_path / "one.json"
    assert run("gen", "interval", "1", "--out", out) == 0
    assert load_space_json(out).n == 1


def test_gen_seeded_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("gen", "koranyi_sphere", "16", "2", "--seed", "7",
               "--out", a) == 0
    assert run("gen", "koranyi_sphere", "16", "2", "--seed", "7",
               "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_bad_params(tmp_path, capsys):
    assert run("gen", "cyclic", "--out", tmp_path / "x.json") == 4
    assert run("gen", "cyclic", "eight", "--out", tmp_path / "x.json") == 4
    assert run("gen", "point_cloud", "10", "--out", tmp_path / "x.json") == 4
    assert run("build", "--gen", "snowflake", "8", "e") == 4
    assert capsys.readouterr().err.splitlines() == [
        "error[BadParams]: cyclic takes parameters n",
        "error[BadParams]: parameter n for cyclic must be a number, "
        "got 'eight'",
        "error[BadParams]: point_cloud takes parameters n, dim",
        "error[BadParams]: parameter eps for snowflake must be a number, "
        "got 'e'"]


@pytest.mark.parametrize("spec", [
    ("cyclic", "8"), ("interval", "8"), ("binary_tree", "3"),
    ("point_cloud", "40", "2"), ("koranyi_sphere", "30", "2"),
    ("snowflake", "40", "0.5")])
def test_each_kind_gives_one_space_by_every_route(tmp_path, spec):
    # gen, build --gen, a config file's gen map and gen_example with the
    # parameters as strings build the same bits
    from dyadwave import EXAMPLE_KINDS
    kind, *raw = spec
    names = [name for name, _ in EXAMPLE_KINDS[kind]]
    assert run("gen", *spec, "--seed", 3, "--out", tmp_path / "g.json") == 0
    assert run("build", "--gen", *spec, "--seed", 3,
               "--out", tmp_path / "flag") == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 3, "gen": {
        "kind": kind,
        "params": {name: json.loads(val) for name, val in zip(names, raw)}}}))
    assert run("build", "--config", config, "--out", tmp_path / "file") == 0
    want = load_space_json(tmp_path / "g.json")
    lib = gen_example(kind, seed=3, **dict(zip(names, raw)))
    stored = [[np.load(tmp_path / art / name)
               for name in ("dist.npy", "weights.npy")]
              for art in ("flag", "file")]
    for dist, weights in [(lib.dist, lib.weights), *stored]:
        assert np.array_equal(dist.view(np.uint64), want.dist.view(np.uint64))
        assert np.array_equal(weights.view(np.uint64),
                              want.weights.view(np.uint64))


GEN_HELP = """\
usage: dyadwave gen [-h] [--seed SEED] [--out OUT]
                    {cyclic,interval,binary_tree,point_cloud,koranyi_sphere,snowflake}
                    [params ...]

positional arguments:
  {cyclic,interval,binary_tree,point_cloud,koranyi_sphere,snowflake}
  params                generator parameters in order, e.g. n [dim]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --out OUT             output path (default <kind>.json)
"""


def test_generator_kinds_read_in_the_order_of_one_table(monkeypatch, capsys):
    # the parser's choices and the unknown-kind message list the kinds of
    # dyadwave.EXAMPLE_KINDS, in its order
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        run("gen", "--help")
    assert (stop.value.code, capsys.readouterr().out) == (0, GEN_HELP)
    with pytest.raises(SystemExit) as stop:
        run("gen", "foo", "3")
    assert stop.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "dyadwave gen: error: argument kind: invalid choice: 'foo' (choose "
        "from 'cyclic', 'interval', 'binary_tree', 'point_cloud', "
        "'koranyi_sphere', 'snowflake')")
    assert run("build", "--gen", "foo", "3") == 4
    assert capsys.readouterr().err == (
        "error[BadParams]: unknown example kind 'foo'; choose from cyclic, "
        "interval, binary_tree, point_cloud, koranyi_sphere, snowflake\n")


@pytest.mark.parametrize("spec", [("binary_tree", "59"),
                                  ("point_cloud", "10000000", "2")])
def test_space_too_large_to_allocate_exits_14(tmp_path, capsys, spec):
    # 4 EiB of leaves and 1.4 PiB of coordinate differences exceed any
    # address space, so both fail at once under every overcommit setting
    assert run("gen", *spec, "--out", tmp_path / "x.json") == 14
    assert run("build", "--gen", *spec, "--out", tmp_path / "art") == 14
    assert "error[TooLarge]: cannot allocate" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# build

def test_build_layout_and_counts(built):
    for name in ("dist.npy", "weights.npy", "nets.json", "basis.json",
                 "basis_values.csv", "build_config.json", "build_report.json"):
        assert (built / name).exists()
    meta = json.loads((built / "basis.json").read_text())
    assert meta["count"] == 7
    assert meta["n"] == 8
    B = np.loadtxt(built / "basis_values.csv", delimiter=",", ndmin=2)
    assert B.shape == (8, 8)
    report = json.loads((built / "build_report.json").read_text())
    assert report["ok"] is True
    # one .npy of triples per spline level, and no copy of their columns
    levels = json.loads((built / "nets.json").read_text())["levels"]
    assert sorted(p.name for p in (built / "splines").iterdir()) \
        == sorted(f"level_{k}.npy" for k in levels)
    assert not (built / "transitions").exists()


def test_build_single_point(tmp_path):
    src = tmp_path / "one.json"
    assert run("gen", "interval", "1", "--out", src) == 0
    art = tmp_path / "art"
    assert run("build", "--input", src, "--out", art) == 0
    meta = json.loads((art / "basis.json").read_text())
    assert meta["count"] == 0
    B = np.loadtxt(art / "basis_values.csv", delimiter=",", ndmin=2)
    assert B.shape == (1, 1)


def test_build_hard_space_delta_too_large(tmp_path, capsys):
    src = tmp_path / "hard.json"
    write_hard_space(src)
    assert run("build", "--input", src, "--delta", "0.5",
               "--out", tmp_path / "ok") == 0
    assert run("build", "--input", src, "--delta", "0.99",
               "--out", tmp_path / "bad") == 7
    assert "DeltaTooLarge" in capsys.readouterr().err


def test_build_gates_the_basis_at_the_configured_ortho_tolerance(tmp_path,
                                                                capsys):
    # verify gates orthonormality at tolerances.ortho, and so does build:
    # no basis is rounded that exactly, so nothing is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"ortho": 1e-20}}))
    art = tmp_path / "art"
    assert run("build", "--config", cfg, "--gen", "cyclic", "16",
               "--out", art) == 7
    assert "failed for wavelets" in capsys.readouterr().err
    assert not art.exists()


def test_build_rejects_bad_delta(tmp_path):
    assert run("build", "--gen", "cyclic", "8", "--delta", "1.5",
               "--out", tmp_path / "art") == 5
    assert run("build", "--gen", "cyclic", "8", "--delta", "0",
               "--out", tmp_path / "art") == 5


def test_build_missing_input(tmp_path):
    assert run("build", "--input", tmp_path / "nope.json",
               "--out", tmp_path / "art") == 8
    (tmp_path / "dist.csv").write_text("0,abc\n1,0\n")
    (tmp_path / "w.csv").write_text("1\n1\n")
    assert run("build", "--input", tmp_path / "dist.csv",
               "--weights", tmp_path / "w.csv", "--out", tmp_path / "art") == 8


@pytest.mark.parametrize("payload", [
    {"dist": [["0", "1"], ["1", "0"]], "weights": [1, 1]},
    {"dist": [[0, True], [True, 0]], "weights": [1, 1]},
    {"dist": [[0, 1], [1, 0]], "weights": ["1", True]},
], ids=["numeric_strings", "booleans_in_dist", "weights_string_and_bool"])
def test_build_space_entry_not_a_number_exits_8(tmp_path, capsys, payload):
    src = tmp_path / "space.json"
    src.write_text(json.dumps(payload))
    rc = run("build", "--input", src, "--out", tmp_path / "art")
    err = capsys.readouterr().err
    assert rc == 8, err
    assert "MissingArtifact" in err and "not a number" in err
    assert not (tmp_path / "art").exists()


def test_build_input_conflicts_with_gen(tmp_path):
    src = tmp_path / "c.json"
    assert run("gen", "cyclic", "8", "--out", src) == 0
    assert run("build", "--input", src, "--gen", "cyclic", "8",
               "--out", tmp_path / "art") == 4


def test_build_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": {"kind": "cyclic", "params": {"n": 8}},
                               "delta": 0.5, "seed": 3}))
    art = tmp_path / "art"
    assert run("build", "--config", cfg, "--delta", "0.25", "--out", art) == 0
    stored = json.loads((art / "build_config.json").read_text())
    assert stored["config"]["delta"] == 0.25
    assert stored["config"]["seed"] == 3
    assert "config_sha256" in stored and "versions" in stored


def test_build_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": {"kind": "cyclic", "params": {"n": 8}},
                               "detla": 0.5}))
    assert run("build", "--config", cfg, "--out", tmp_path / "art") == 4


# config values that a cast would turn into a number of the right kind
CONVERTIBLE = [{"num_samples": 2.7}, {"seed": "5"}, {"delta": "0.25"},
               {"eps_grid": ["0.1"]}, {"pair_budget": 1e5}]


@pytest.mark.parametrize("config,code", [
    ({"tolerances": 5}, 4),
    ({"tolerances": {"exact": "tiny"}}, 4),
    ({"delta": "abc"}, 4),
    ({"delta": None}, 4),
    ({"eps_grid": 5}, 4),
    ({"p_list": ["x"]}, 4),
    ({"seed": None}, 4),
    ({"seed": -1}, 4),
    ({"grid_samples": [3]}, 4),
    ({"gen": 5}, 4),
    ({"gen": {"kind": "cyclic", "params": {"n": "eight"}}}, 4),
    ({"out": None}, 4),
    ({"delta": 2.0}, 5),
    # a bool is an int in python, so it must not pass as 1
    *(({key: True}, 4) for key in ("delta", "seed", "num_samples",
                                   "num_trials", "grid_samples",
                                   "pair_budget", "jobs")),
    *(({key: [True]}, 4) for key in ("eps_grid", "r_grid", "p_list")),
    *(({"tolerances": {name: True}}, 4) for name in ("exact", "ortho")),
    ({"tolerances": {"foo": 1e-3}}, 4),
    # values are not converted: no truncation, no numbers read from strings
    *((config, 4) for config in CONVERTIBLE),
    # the Littlewood-Paley exponents lie in (1, inf)
    ({"p_list": [1.0]}, 13),
    ({"p_list": [2.0, 0.5]}, 13),
    ({"p_list": [math.inf]}, 13),
])
def test_build_config_bad_values(tmp_path, capsys, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": {"kind": "cyclic", "params": {"n": 8}},
                               **config}))
    assert run("build", "--config", cfg) == code, capsys.readouterr().err


@pytest.mark.parametrize("config", CONVERTIBLE)
def test_stored_config_wrong_type_exits_4(built, tmp_path, capsys, config):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    stored = json.loads((bad / "build_config.json").read_text())
    stored["config"].update(config)
    (bad / "build_config.json").write_text(json.dumps(stored))
    rc = run("verify", "--artifacts", bad, "--report", tmp_path / "r.json")
    assert rc == 4, capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "boundary"])
def test_stored_config_not_a_map_exits_8(built, tmp_path, command):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    stored = json.loads((bad / "build_config.json").read_text())
    stored["config"] = 5
    (bad / "build_config.json").write_text(json.dumps(stored))
    out = {"verify": "--report", "boundary": "--out"}[command]
    assert run(command, "--artifacts", bad, out, tmp_path / "out") == 8


@pytest.mark.parametrize("command", ["verify", "boundary"])
def test_nets_levels_not_a_map_exits_8(built, tmp_path, capsys, command):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    nets = json.loads((bad / "nets.json").read_text())
    nets["levels"] = [1, 2]
    (bad / "nets.json").write_text(json.dumps(nets))
    out = {"verify": "--report", "boundary": "--out"}[command]
    rc = run(command, "--artifacts", bad, out, tmp_path / "out")
    err = capsys.readouterr().err
    assert rc == 8, err
    assert "MissingArtifact" in err


def test_build_from_csv_pair(tmp_path):
    d = np.abs(np.arange(6)[:, None] - np.arange(6)[None, :]).astype(float)
    np.savetxt(tmp_path / "dist.csv", d, delimiter=",")
    np.savetxt(tmp_path / "w.csv", np.ones(6), delimiter=",")
    art = tmp_path / "art"
    assert run("build", "--input", tmp_path / "dist.csv",
               "--weights", tmp_path / "w.csv", "--out", art) == 0
    assert np.load(art / "dist.npy").shape == (6, 6)
    assert np.load(art / "weights.npy").shape == (6,)


# ---------------------------------------------------------------------------
# verify

def test_verify_fresh_build_passes(built):
    assert run("verify", "--artifacts", built) == 0
    report = json.loads((built / "report.json").read_text())
    assert report["ok"] is True
    assert all(item["ok"] for item in report["exact"].values())
    fits = report["fits"]
    assert fits["wavelet_decay"]["c"] > 0
    assert fits["wavelet_holder"]["eta_hat"] > 0
    assert math.isfinite(fits["cz_bound"]["c_hat"])
    assert fits["norm_equivalence"]["2"]["lo"] == pytest.approx(1.0)


def _verify_on_two_threads(tmp_path, gen, delta):
    """``gen`` and ``build`` on one OpenBLAS thread, then ``verify`` on two."""
    env = _cli_env()

    def cli_run(threads, *args):
        return subprocess.run(
            [sys.executable, "-m", "dyadwave.cli", *map(str, args)],
            capture_output=True, text=True, timeout=300, cwd=tmp_path,
            env={**env, "OPENBLAS_NUM_THREADS": threads})

    assert cli_run("1", "gen", *gen, "--seed", "0",
                   "--out", "space.json").returncode == 0
    assert cli_run("1", "build", "--input", "space.json", "--delta", delta,
                   "--seed", "0", "--out", "art").returncode == 0
    return cli_run("2", "verify", "--artifacts", "art")


def test_verify_passes_with_another_blas_thread_count(tmp_path):
    # build_report.json holds wavelet fit counts; with the off-component
    # entries exactly zero, a verify on two OpenBLAS threads rebuilds the
    # report that a build on one thread wrote
    out = _verify_on_two_threads(tmp_path, ("snowflake", "384", "0.5"), "0.5")
    assert out.returncode == 0, out.stdout
    assert "verify: ok (22/22 exact checks)" in out.stdout


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="two BLAS threads need two CPUs")
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: holder.n_pairs counts rounding-level differences "
    "above TINY, so it moves with the BLAS summation order"))
def test_randomized_verify_passes_with_another_blas_thread_count(tmp_path):
    # exits 20 at checks.wavelets.holder.n_pairs (stored 1862514, rebuilt
    # 1862518)
    out = _verify_on_two_threads(tmp_path, ("point_cloud", "384", "2"), "0.2")
    assert out.returncode == 0, out.stderr
    assert "verify: ok (22/22 exact checks)" in out.stdout


def _cli_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy sets glibc's malloc thresholds")
def test_keep_freed_heap_reuses_freed_pages(tmp_path):
    # eight 1.28 MB arrays per round, about 2500 pages; with the policy
    # the later rounds take them from the heap the first round faulted in
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from dyadwave import pipeline\n"
        "pipeline._keep_freed_heap()\n"
        "faults = []\n"
        "for _ in range(6):\n"
        "    arrays = [np.ones((400, 400)) for _ in range(8)]\n"
        "    del arrays\n"
        "    faults.append(resource.getrusage("
        "resource.RUSAGE_SELF).ru_minflt)\n"
        "print(faults[-1] - faults[0])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, env=_cli_env())
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 500


def test_heap_policy_changes_no_report_bit(tmp_path):
    # heap placement must never move a bit of what verify writes
    env = _cli_env()

    def cli_run(*args, policy=True):
        prefix = ["-m", "dyadwave.cli"] if policy else [
            "-c", "import sys; from dyadwave import cli, pipeline; "
            "pipeline._keep_freed_heap = lambda: None; "
            "sys.exit(cli.main(sys.argv[1:]))"]
        out = subprocess.run([sys.executable, *prefix, *map(str, args)],
                             capture_output=True, text=True, timeout=300,
                             cwd=tmp_path, env=env)
        assert out.returncode == 0, out.stderr
        return out

    cli_run("gen", "snowflake", "128", "0.5", "--out", "space.json")
    cli_run("build", "--input", "space.json", "--out", "art")
    kept = cli_run("verify", "--artifacts", "art", "--report", "kept.json")
    plain = cli_run("verify", "--artifacts", "art", "--report", "plain.json",
                    policy=False)
    assert kept.stdout.replace("kept", "plain") == plain.stdout
    assert ((tmp_path / "kept.json").read_bytes()
            == (tmp_path / "plain.json").read_bytes())


def test_verify_corrupted_basis_fails(built, tmp_path):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    B = np.loadtxt(bad / "basis_values.csv", delimiter=",", ndmin=2)
    B[2, 3] += 0.25
    lines = [",".join(format(v, ".17g") for v in row) for row in B]
    (bad / "basis_values.csv").write_text("\n".join(lines) + "\n")
    assert run("verify", "--artifacts", bad) == EXIT_CHECKS_FAILED
    report = json.loads((bad / "report.json").read_text())
    assert not report["ok"]
    assert not report["exact"]["basis_gram"]["ok"]
    assert not report["exact"]["artifact_basis_match"]["ok"]


def test_verify_checks_the_loaded_basis_only_when_it_differs(
        built, tmp_path, monkeypatch):
    # the rebuilt basis is checked by verify_wavelet_theorem; a stored basis
    # with the same bits reuses those deviations, and one with other bits
    # gets checked on its own
    import shutil

    from dyadwave import wavelet
    calls = []
    original = wavelet.orthonormality_devs

    def counting(B, w, seed=0):
        calls.append(B.shape)
        return original(B, w, seed)

    # every module that bound the name at import gets the counter
    for name, module in list(sys.modules.items()):
        if (name.startswith("dyadwave")
                and getattr(module, "orthonormality_devs", None) is original):
            monkeypatch.setattr(module, "orthonormality_devs", counting)
    art = tmp_path / "art"
    shutil.copytree(built, art)
    assert run("verify", "--artifacts", art) == 0
    assert len(calls) == 1
    clean = json.loads((art / "report.json").read_text())

    B = np.loadtxt(art / "basis_values.csv", delimiter=",", ndmin=2)
    B[2, 3] += 1e-9
    lines = [",".join(format(v, ".17g") for v in row) for row in B]
    (art / "basis_values.csv").write_text("\n".join(lines) + "\n")
    B = np.loadtxt(art / "basis_values.csv", delimiter=",", ndmin=2)
    calls.clear()
    assert run("verify", "--artifacts", art) == EXIT_CHECKS_FAILED
    assert len(calls) == 2
    exact = json.loads((art / "report.json").read_text())["exact"]
    w = np.load(art / "weights.npy")
    gram_dev = original(B, w, clean["seed"])[0]
    assert exact["basis_gram"] == {"measured": gram_dev, "tol": 1e-10,
                                   "ok": gram_dev <= 1e-10}
    assert exact["basis_gram"]["measured"] != (
        clean["exact"]["basis_gram"]["measured"])
    rebuilt = np.loadtxt(built / "basis_values.csv", delimiter=",",
                         ndmin=2)
    assert exact["artifact_basis_match"] == {
        "measured": float(np.abs(B - rebuilt).max()), "tol": 1e-12,
        "ok": False}


def test_verify_tampered_spline_fails(built, tmp_path):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    target = sorted((bad / "splines").iterdir())[0]
    triples = np.load(target)
    triples[0, 2] += 1e-6
    np.save(target, triples)
    assert run("verify", "--artifacts", bad) == EXIT_CHECKS_FAILED
    report = json.loads((bad / "report.json").read_text())
    assert not report["exact"]["artifact_splines_match"]["ok"]


def test_verify_tampered_config_fails(built, tmp_path):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    stored = json.loads((bad / "build_config.json").read_text())
    stored["config"]["seed"] = 999
    (bad / "build_config.json").write_text(json.dumps(stored))
    assert run("verify", "--artifacts", bad) == EXIT_CHECKS_FAILED
    report = json.loads((bad / "report.json").read_text())
    assert not report["exact"]["config_hash"]["ok"]


@pytest.mark.parametrize("change,code", [
    ("order_policy", EXIT_CHECKS_FAILED),
    ("scan_order", EXIT_CHECKS_FAILED),
    ("no_order_policy", 0),
])
def test_verify_compares_stored_nets(built, tmp_path, change, code):
    # a nets.json without an order policy reads as the default policy
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    nets = json.loads((bad / "nets.json").read_text())
    if change == "order_policy":
        nets["order_policy"] = "input_order"
    elif change == "scan_order":
        scan = nets["scan_order"]
        scan[1], scan[2] = scan[2], scan[1]
    else:
        del nets["order_policy"]
    (bad / "nets.json").write_text(json.dumps(nets))
    assert run("verify", "--artifacts", bad) == code
    report = json.loads((bad / "report.json").read_text())
    assert report["exact"]["nets"]["ok"] is (code == 0)
    assert sum(not item["ok"] for item in report["exact"].values()) \
        == (code != 0)


@pytest.mark.parametrize("name,tamper,line", [
    ("build_report.json", lambda r: r.update(a0=1.25),
     "build_report.json differs at a0 (stored 1.25, rebuilt 1)"),
    ("build_report.json", lambda r: r["level_sizes"].update({"0": 5}),
     "build_report.json differs at level_sizes.0 (stored 5, rebuilt 8)"),
    ("nets.json", lambda r: r["scan_order"].insert(1, r["scan_order"].pop(2)),
     "nets.json differs at scan_order.1 (stored 2, rebuilt 4)"),
])
def test_failed_nets_check_names_first_differing_leaf(
        built, tmp_path, capsys, name, tamper, line):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    payload = json.loads((bad / name).read_text())
    tamper(payload)
    (bad / name).write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("verify", "--artifacts", bad) == EXIT_CHECKS_FAILED
    out, err = capsys.readouterr()
    assert err == f"verify: nets: {line}\n"
    assert "FAIL nets\n" in out


def test_first_difference_walks_written_key_order():
    stored = {"b": [1, 2.5], "10": 1, "2": {"x": None}}
    assert pipeline._first_difference(stored, stored) is None
    assert pipeline._first_difference(
        stored, {"b": [1, 2.5], "10": 2, "2": {}}) == ("2.x", "null",
                                                      "absent")
    assert pipeline._first_difference(
        stored, {"b": [1, 2.5, 3], "10": 1, "2": {"x": None}}) == (
            "b.2", "absent", "3")
    assert pipeline._first_difference(1.0, 1) is None


@pytest.mark.parametrize("name", ["build_report.json", "basis.json"])
def test_reindented_artifact_still_matches(built, tmp_path, capsys, name):
    # a stored text that differs from what build writes is parsed and
    # compared through the writer, so another layout of the same values
    # still passes every check
    import shutil
    art = tmp_path / "art"
    shutil.copytree(built, art)
    text = (art / name).read_text()
    (art / name).write_text(json.dumps(json.loads(text), indent=4))
    assert (art / name).read_text() != text
    capsys.readouterr()
    assert run("verify", "--artifacts", art,
               "--report", tmp_path / "r.json") == 0
    out, err = capsys.readouterr()
    assert "verify: ok (22/22 exact checks)" in out
    assert err == ""


def test_one_leaf_edit_in_written_layout_fails_nets(built, tmp_path, capsys):
    # the same layout as build writes, one leaf changed: the texts differ,
    # so the parsed report is compared and the leaf is named
    import shutil
    art = tmp_path / "art"
    shutil.copytree(built, art)
    report = json.loads((art / "build_report.json").read_text())
    k_min = report["k_min"]
    report["k_min"] = k_min - 1
    (art / "build_report.json").write_text(_dumps(report) + "\n")
    capsys.readouterr()
    assert run("verify", "--artifacts", art,
               "--report", tmp_path / "r.json") == EXIT_CHECKS_FAILED
    out, err = capsys.readouterr()
    assert err == (f"verify: nets: build_report.json differs at k_min "
                   f"(stored {k_min - 1}, rebuilt {k_min})\n")
    assert "FAIL nets\n" in out


def test_one_by_one_gram_blocks_call_no_lapack(tmp_path, monkeypatch):
    """At snowflake 64 0.5 (delta 0.5) every spline Gram component is 1x1:
    build and verify prove and solve them in closed form, with no
    np.linalg.cholesky or solve.  The pre-wavelet Grams have components
    of 2 to 4 rows there, which keep their stacked eigh, but no eigh runs
    on 1x1 blocks.  Each command finds the components of each Gram once
    (build found the spline Grams' twice and the pre-wavelet Grams' twice,
    verify once more per level)."""
    from dyadwave import wavelet

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a Gram of 1x1 blocks")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    eigh = np.linalg.eigh

    def larger_blocks_only(blocks):
        assert blocks.shape[1] > 1, blocks.shape
        return eigh(blocks)

    monkeypatch.setattr(np.linalg, "eigh", larger_blocks_only)
    calls = []
    original = wavelet.gram_components

    def counting(gram):
        calls.append(len(gram))
        return original(gram)

    monkeypatch.setattr(wavelet, "gram_components", counting)
    art = tmp_path / "art"
    commands = [("build", "--gen", "snowflake", "64", "0.5", "--delta", 0.5,
                 "--out", art),
                ("verify", "--artifacts", art,
                 "--report", tmp_path / "r.json")]
    for argv in commands:
        calls.clear()
        assert run(*argv) == 0
        nets = json.loads((art / "nets.json").read_text())
        basis = json.loads((art / "basis.json").read_text())
        grams = nets["k_max"] - nets["k_min"] + 1 + len(basis["levels"])
        assert 0 < len(calls) <= grams, (argv[0], len(calls), grams)


def test_each_level_table_built_once_per_command(tmp_path, monkeypatch):
    from collections import Counter

    from dyadwave import randgrid
    built_levels = Counter()
    original = randgrid.transition_parents

    def counting(*args):
        built_levels[args[4]] += 1
        return original(*args)

    # every module that bound the name at import gets the counter
    for name, module in list(sys.modules.items()):
        if (name.startswith("dyadwave")
                and getattr(module, "transition_parents", None) is original):
            monkeypatch.setattr(module, "transition_parents", counting)
    art = tmp_path / "art"
    commands = [("build", "--gen", "cyclic", "16", "--delta", "0.2",
                 "--out", art),
                ("verify", "--artifacts", art),
                ("boundary", "--artifacts", art, "--num-samples", 8)]
    for argv in commands:
        built_levels.clear()
        assert run(*argv) == 0
        nets = json.loads((art / "nets.json").read_text())
        levels = range(nets["k_min"], nets["k_max"])
        assert len(levels) > 1
        assert built_levels == Counter(levels), argv[0]


def test_each_spline_gram_formed_once_per_command(tmp_path, monkeypatch):
    # build_mra forms each level's Gram once, and the Gram decay
    # certificates of verify read the ones the MRA keeps
    from collections import Counter

    from dyadwave import wavelet
    formed = Counter()
    original = wavelet.gram_matrix

    def counting(space, system, k):
        formed[k] += 1
        return original(space, system, k)

    monkeypatch.setattr(wavelet, "gram_matrix", counting)
    art = tmp_path / "art"
    commands = [("build", "--gen", "point_cloud", "32", "2", "--delta", "0.4",
                 "--out", art),
                ("verify", "--artifacts", art)]
    for argv in commands:
        formed.clear()
        assert run(*argv) == 0
        nets = json.loads((art / "nets.json").read_text())
        levels = range(nets["k_min"], nets["k_max"] + 1)
        assert len(levels) > 1
        assert formed == Counter(levels), argv[0]


def test_construct_forms_no_spline_projector(monkeypatch):
    from dyadwave import wavelet

    def refuse(*args):
        raise AssertionError("spline_projector called")

    monkeypatch.setattr(wavelet, "spline_projector", refuse)
    space = gen_example("point_cloud", seed=0, n=48, dim=2)
    cfg = cli._resolve_config({}, {"delta": 0.4})
    nets, _, mra, basis, checks = pipeline._construct(space, cfg)
    assert checks["wavelets"]["ok"]
    assert sorted(mra.grams) == list(nets.level_range)
    assert basis.rows.shape == (space.n, space.n)


def test_grid_lists_each_level_once_per_command(tmp_path, monkeypatch):
    # every grid step filters one neighbour list per level transition, over
    # the level-(k+1) rows at 2 a0 delta^k, and the grid checks read the
    # tables' lists; a call on level-(k+1) rows at any radius a grid step
    # reads (2 a0 delta^k, delta^k / (2 a0), delta^k / (4 a0^2)) is counted
    from collections import Counter

    from dyadwave import randgrid
    calls = []
    checking = []
    pairs, checks = randgrid.near_pairs, randgrid.grid_checks

    def listing(dist, radius, strict=True):
        calls.append((dist.shape[0], radius, bool(checking)))
        return pairs(dist, radius, strict)

    def checked(*args, **kwargs):
        checking.append(True)
        try:
            return checks(*args, **kwargs)
        finally:
            checking.pop()

    for name, module in list(sys.modules.items()):
        if name.startswith("dyadwave"):
            for attr, orig, wrap in (("near_pairs", pairs, listing),
                                     ("grid_checks", checks, checked)):
                if getattr(module, attr, None) is orig:
                    monkeypatch.setattr(module, attr, wrap)
    art = tmp_path / "art"
    # boundary radii 0.3 delta^j and Hölder radii delta^j meet no grid
    # radius at delta = 0.2 and a0 = 1
    commands = [("build", "--gen", "cyclic", "16", "--delta", "0.2",
                 "--out", art),
                ("verify", "--artifacts", art),
                ("boundary", "--artifacts", art, "--num-samples", 8,
                 "--eps-grid", 0.1, 0.3)]
    for argv in commands:
        calls.clear()
        assert run(*argv) == 0
        nets = json.loads((art / "nets.json").read_text())
        a0 = json.loads((art / "build_report.json").read_text())["a0"]
        assert a0 == 1.0
        levels = range(nets["k_min"], nets["k_max"])
        assert len(levels) > 1
        rows = {k: len(nets["levels"][str(k + 1)]) for k in levels}
        scale = {k: nets["delta"] ** k for k in levels}
        on_levels = Counter(
            (k, factor) for n_rows, radius, _ in calls for k in levels
            for factor in (2.0 * a0, 0.5 / a0, 0.25 / a0 ** 2)
            if n_rows == rows[k]
            and math.isclose(radius, factor * scale[k], rel_tol=1e-9))
        assert on_levels == Counter((k, 2.0 * a0) for k in levels), argv[0]
        assert not any(inside for _, _, inside in calls), argv[0]


def test_verify_forms_block_projectors_once(tmp_path, monkeypatch):
    passes = []
    original = lpanalysis.lp_projectors

    def counting(*args):
        passes.append(args)
        return original(*args)

    # every module that bound the name at import gets the counter
    for name, module in list(sys.modules.items()):
        if (name.startswith("dyadwave")
                and getattr(module, "lp_projectors", None) is original):
            monkeypatch.setattr(module, "lp_projectors", counting)
    art = tmp_path / "art"
    assert run("build", "--gen", "cyclic", "16", "--out", art) == 0
    passes.clear()
    assert run("verify", "--artifacts", art,
               "--report", tmp_path / "r.json") == 0
    assert len(passes) == 1


def test_verify_forms_one_ball_mass_table_per_level(tmp_path, monkeypatch):
    # the kernel estimates, restricted level sums and growth sequence read
    # each level's masses over all points from build_lp; the restricted
    # sums add one call at each radius that is no level scale
    from collections import Counter

    from dyadwave.space import QuasiMetricSpace
    radii = []
    original = QuasiMetricSpace.ball_masses

    def counting(self, centers, r):
        if np.array_equal(centers, np.arange(self.n)):
            radii.append(float(r))
        return original(self, centers, r)

    monkeypatch.setattr(QuasiMetricSpace, "ball_masses", counting)
    art = tmp_path / "art"
    assert run("build", "--gen", "cyclic", "16", "--out", art) == 0
    radii.clear()
    assert run("verify", "--artifacts", art,
               "--report", tmp_path / "r.json") == 0
    nets = json.loads((art / "nets.json").read_text())
    cfg = json.loads((art / "build_config.json").read_text())["config"]
    scales = [nets["delta"] ** k
              for k in range(nets["k_min"], nets["k_max"] + 1)]
    assert len(scales) > 2
    own = [r for r in cfg["r_grid"] if r not in scales]
    assert len(own) < len(cfg["r_grid"])
    assert Counter(radii) == Counter(scales + own)


def test_a0_computed_only_by_commands_that_read_it(tmp_path, monkeypatch):
    from dyadwave import space
    calls = []
    original = space.compute_a0

    def counting(dist):
        calls.append(dist.shape[0])
        return original(dist)

    # every module that bound the name at import gets the counter
    for name, module in list(sys.modules.items()):
        if (name.startswith("dyadwave")
                and getattr(module, "compute_a0", None) is original):
            monkeypatch.setattr(module, "compute_a0", counting)
    src, art = tmp_path / "snow.json", tmp_path / "art"
    np.savetxt(tmp_path / "sig.csv", np.arange(16.0), delimiter=",")
    commands = [(("gen", "snowflake", "16", "0.6", "--out", src), 0),
                (("build", "--input", src, "--delta", "0.3", "--out", art), 1),
                (("verify", "--artifacts", art), 1),
                (("analyze", "--artifacts", art, "--signal",
                  tmp_path / "sig.csv"), 0),
                (("boundary", "--artifacts", art, "--num-samples", 8,
                  "--eps-grid", 0.2, 0.4, 0.8), 0)]
    for argv, expected in commands:
        calls.clear()
        assert run(*argv) == 0
        assert calls == [16] * expected, argv[0]


def test_verify_missing_artifacts(tmp_path):
    assert run("verify", "--artifacts", tmp_path / "empty") == 8


def test_verify_single_point(tmp_path):
    src = tmp_path / "one.json"
    assert run("gen", "interval", "1", "--out", src) == 0
    art = tmp_path / "art"
    assert run("build", "--input", src, "--out", art) == 0
    assert run("verify", "--artifacts", art) == 0


def test_build_and_verify_byte_identical(tmp_path, capsys):
    arts = []
    for name in ("a", "b"):
        art = tmp_path / name
        assert run("build", "--gen", "cyclic", "8", "--out", art) == 0
        assert run("verify", "--artifacts", art) == 0
        assert "verify: ok (22/22 exact checks)" in capsys.readouterr().out
        arts.append(art)
    a, b = arts
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*")
                           if p.is_file())
    assert {"dist.npy", "weights.npy", "report.json",
            "splines/level_0.npy"} <= set(map(str, files))
    # the transitions are the splines' net columns, so none are written
    assert not any(name.parts[0] == "transitions" for name in files)
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_construct_peak_holds_no_transitions_or_grid_tables():
    """The transitions are read from the splines' net columns, and the
    grid tables are dropped after the spline checks, before the spline
    Grams and the basis exist, and the wavelet decay fit's temporaries are
    dropped before the Hoelder fit: at point_cloud 256 2 (delta 0.4) the
    construction's traced peak stays at or below 8.0 n x n float64 arrays
    (24.3 with a dense copy of each transition and the tables held to the
    end, 16.6 with the spline checks' unbounded scans, 14.9 with every
    level's duals and the decay fit's temporaries held, 13.1 with every
    spline level and spline Gram held dense)."""
    space = gen_example("point_cloud", seed=0, n=256, dim=2)
    space.a0    # computed on first read, outside the traced call
    cfg = cli._resolve_config({}, {"delta": 0.4})
    _, peak = traced_peak(lambda: pipeline._construct(space, cfg), space.n)
    assert peak <= 8.0, peak


def _arrays(obj):
    """Every NumPy array reachable from ``obj`` through dataclass fields,
    dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))
    elif isinstance(obj, dict):
        for val in obj.values():
            yield from _arrays(val)
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            yield from _arrays(val)


def test_construct_keeps_no_dense_spline_level_or_gram():
    """The splines are kept as triples and the spline Grams as component
    blocks, so after the construction neither holds an (n_k, n) or an
    (n_k, n_k) float array, and together they hold under a third of one
    n x n float64 array (the dense levels and Grams were 8.1)."""
    space = gen_example("point_cloud", seed=0, n=256, dim=2)
    cfg = cli._resolve_config({}, {"delta": 0.4})
    nets, system, mra, _, _ = pipeline._construct(space, cfg)
    dense = {shape for k in nets.level_range
             for shape in ((len(nets.levels[k]), space.n),
                           (len(nets.levels[k]),) * 2)}
    held = list(_arrays(system)) + list(_arrays(mra))
    assert len(held) > 2 * len(dense)
    assert [a.shape for a in held
            if a.dtype.kind == "f" and a.shape in dense] == []
    assert sum(a.nbytes for a in held) < space.n ** 2 * 8 / 3


def test_construct_peak_bounds_the_spline_check_scans():
    """The first close-pair scan runs over row blocks, the spline support
    check holds no dense per-level temporary while the smoothness fit runs,
    each pair-difference block stays within n^2 / 8 entries, and the
    wavelet Hölder fit keeps one sample array per level: at snowflake 384
    0.5 (delta 0.5), where every pair is close at the coarsest scale, the
    construction's traced peak stays at or below 6.0 n x n float64 arrays (13.0 with one scan of all n^2 entries, 10.6 with
    every level's duals and the decay fit's temporaries held, 9.1 with
    every spline level and spline Gram held dense, 6.34 with the Hölder
    samples concatenated)."""
    space = gen_example("snowflake", seed=0, n=384, eps=0.5)
    space.a0    # computed on first read, outside the traced call
    cfg = cli._resolve_config({}, {"delta": 0.5})
    _, peak = traced_peak(lambda: pipeline._construct(space, cfg), space.n)
    assert peak <= 6.0, peak


def test_verify_peak_holds_one_basis(tmp_path):
    """verify drops the loaded basis_values.csv matrix once its checks
    have read it, so the Littlewood-Paley stage holds the rebuilt basis
    only, and compares each P_k with the spline projector one block of
    rows at a time, and the kernel asymmetry one tile at a time: at
    point_cloud 256 2 (delta 0.4) the traced peak of the command stays at
    or below 10.5 n x n float64 arrays (18.5 with the whole projector and
    its difference formed, 26.5 with both bases, the transitions and the
    grid tables held, 18.2 with every spline level and spline Gram held
    dense and the whole asymmetry formed)."""
    art = tmp_path / "art"
    assert run("build", "--gen", "point_cloud", "256", "2", "--delta", 0.4,
               "--out", art) == 0
    rc, peak = traced_peak(lambda: run("verify", "--artifacts", art,
                                       "--report", tmp_path / "r.json"), 256)
    assert rc == 0
    assert peak <= 10.5, peak


# ---------------------------------------------------------------------------
# analyze

def test_analyze_constant_signal(built, tmp_path):
    np.savetxt(tmp_path / "sig.csv", np.full(8, 2.5), delimiter=",")
    out = tmp_path / "out"
    assert run("analyze", "--artifacts", built, "--signal",
               tmp_path / "sig.csv", "--out", out) == 0
    rows = [line.split(",") for line
            in (out / "coefficients.csv").read_text().splitlines()[1:]]
    assert rows[0][0] == "const"
    assert float(rows[0][2]) == pytest.approx(2.5 * math.sqrt(8.0))
    assert all(abs(float(r[2])) < 1e-12 for r in rows[1:])
    sf = [float(line.split(",")[1]) for line
          in (out / "sf.csv").read_text().splitlines()[1:]]
    assert max(sf) < 1e-12


def test_analyze_wavelet_signal_unit_coefficient(built, tmp_path):
    B = np.loadtxt(built / "basis_values.csv", delimiter=",", ndmin=2)
    np.savetxt(tmp_path / "psi.csv", B[3], delimiter=",")
    out = tmp_path / "out"
    assert run("analyze", "--artifacts", built, "--signal",
               tmp_path / "psi.csv", "--out", out) == 0
    vals = [float(line.split(",")[2]) for line
            in (out / "coefficients.csv").read_text().splitlines()[1:]]
    assert vals[3] == pytest.approx(1.0, abs=1e-12)
    assert sum(abs(v) > 1e-10 for v in vals) == 1


def test_analyze_random_signal_parseval(built, tmp_path):
    rng = np.random.default_rng(5)
    np.savetxt(tmp_path / "sig.csv", rng.standard_normal(8), delimiter=",")
    assert run("analyze", "--artifacts", built, "--signal",
               tmp_path / "sig.csv", "--out", tmp_path / "out") == 0
    rep = json.loads((tmp_path / "out" / "analyze_report.json").read_text())
    assert rep["parseval_abs"] <= 1e-10
    assert rep["recon_dev"] <= 1e-10
    sf_lines = (tmp_path / "out" / "sf.csv").read_text().splitlines()
    assert len(sf_lines) == 1 + 8


@pytest.mark.parametrize("order", [
    lambda labels: labels[1:] + labels[:1],           # constant last
    lambda labels: labels[:1] + labels[1:][::-1],     # levels descending
    lambda labels: labels[:1] + labels[2:] + labels[1:2],   # level split
], ids=["constant_last", "levels_descending", "level_split"])
def test_analyze_labels_not_grouped_by_level_exit_8(built, tmp_path, capsys,
                                                    order):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    meta = json.loads((bad / "basis.json").read_text())
    meta["row_labels"] = order(meta["row_labels"])
    (bad / "basis.json").write_text(json.dumps(meta))
    np.savetxt(tmp_path / "sig.csv", np.ones(8), delimiter=",")
    rc = run("analyze", "--artifacts", bad, "--signal", tmp_path / "sig.csv",
             "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert rc == 8, err
    assert "row_labels" in err


@pytest.mark.parametrize("gen", [["cyclic", "16"], ["interval", "64"],
                                 ["binary_tree", "4"],
                                 ["point_cloud", "40", "2"],
                                 ["koranyi_sphere", "30", "2"],
                                 ["snowflake", "32", "0.5"]],
                         ids=lambda gen: gen[0])
def test_analyze_square_function_matches_gather_oracle(tmp_path, gen):
    """analyze reads each level of the loaded basis as a slice of its rows;
    the square function equals the list-gather one bit for bit."""
    art = tmp_path / "art"
    assert run("build", "--gen", *gen, "--out", art) == 0
    weights = np.load(art / "weights.npy")
    B = np.loadtxt(art / "basis_values.csv", delimiter=",", ndmin=2)
    labels = json.loads((art / "basis.json").read_text())["row_labels"]
    signal = np.random.default_rng(6).standard_normal(len(weights))
    np.savetxt(tmp_path / "sig.csv", signal, delimiter=",")
    assert run("analyze", "--artifacts", art, "--signal", tmp_path / "sig.csv",
               "--out", tmp_path / "out") == 0
    signal = np.loadtxt(tmp_path / "sig.csv", delimiter=",", ndmin=2).ravel()
    want = lp_oracle.gather_square_function(
        B, [None if lvl == "const" else lvl for lvl, _ in labels],
        B @ (weights * signal))
    got = [float(line.split(",")[1]) for line
           in (tmp_path / "out" / "sf.csv").read_text().splitlines()[1:]]
    assert got == want.tolist()


def test_analyze_dimension_mismatch(built, tmp_path):
    np.savetxt(tmp_path / "sig.csv", np.ones(5), delimiter=",")
    assert run("analyze", "--artifacts", built, "--signal",
               tmp_path / "sig.csv", "--out", tmp_path / "out") == 9


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_analyze_refuses_a_signal_value_that_is_not_finite(built, tmp_path,
                                                           capsys, cell):
    # np.loadtxt reads these cells as floats, so only a finiteness check
    # keeps NaN out of the coefficients, the square function and the report
    lines = ["1.5"] * 8
    lines[3] = cell
    (tmp_path / "sig.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = run("analyze", "--artifacts", built, "--signal",
             tmp_path / "sig.csv", "--out", out)
    assert rc == 8, capsys.readouterr().err
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# boundary

def test_boundary_outputs(tmp_path):
    art = tmp_path / "art"
    assert run("build", "--gen", "cyclic", "16", "--out", art) == 0
    assert run("boundary", "--artifacts", art, "--num-samples", "60",
               "--eps-grid", "0.1", "0.2", "0.4") == 0
    lines = (art / "boundary.csv").read_text().splitlines()
    nets = json.loads((art / "nets.json").read_text())
    n_levels = len(nets["levels"])
    assert len(lines) == 1 + 16 * 3 * n_levels
    by_cell = {}
    for line in lines[1:]:
        x, k, eps, freq, se = line.split(",")
        assert 0.0 <= float(freq) <= 1.0
        assert float(se) >= 0.0
        by_cell.setdefault((x, k), []).append((float(eps), float(freq)))
    for cells in by_cell.values():
        cells.sort()
        freqs = [f for _, f in cells]
        assert freqs == sorted(freqs)
    fit = json.loads((art / "boundary_fit.json").read_text())
    for key in ("eta", "ci95", "stderr", "n_points", "eps_grid"):
        assert key in fit


def test_boundary_says_on_one_line_that_it_fits_no_slope(built, tmp_path,
                                                         capsys):
    # one repeated eps gives no slope; the line names no file or source line
    assert run("boundary", "--artifacts", built, "--num-samples", 8,
               "--eps-grid", 0.4, 0.4, 0.4, "--out", tmp_path) == 0
    assert capsys.readouterr().err == (
        "boundary: too few eps values with a positive mean frequency for a "
        "slope fit; the exponent is NaN\n")
    assert math.isnan(json.loads(
        (tmp_path / "boundary_fit.json").read_text())["eta"])


def test_boundary_stderr_shrinks_with_samples(tmp_path):
    # delta small enough that the grid draws actually vary per cell
    art = tmp_path / "art"
    assert run("build", "--gen", "cyclic", "16", "--delta", "0.2",
               "--out", art) == 0

    def stderr_by_cell(samples, out):
        assert run("boundary", "--artifacts", art, "--num-samples", samples,
                   "--eps-grid", "0.4", "0.6", "--out", out) == 0
        cells = {}
        for line in (out / "boundary.csv").read_text().splitlines()[1:]:
            x, k, eps, _, se = line.split(",")
            if float(se) > 0:
                cells[(x, k, eps)] = float(se)
        return cells

    small = stderr_by_cell(50, tmp_path / "s")
    big = stderr_by_cell(200, tmp_path / "b")
    shared = set(small) & set(big)
    assert shared
    ratios = [big[c] / small[c] for c in shared]
    assert 0.3 < np.mean(ratios) < 0.8


def test_boundary_csv_independent_of_jobs(tmp_path):
    # 300 draws span two chunks, so --jobs 2 sends them to two workers
    art = tmp_path / "art"
    assert run("build", "--gen", "cyclic", "16", "--delta", "0.2",
               "--out", art) == 0
    for jobs in ("1", "2"):
        assert run("boundary", "--artifacts", art, "--num-samples", "300",
                   "--eps-grid", "0.2", "0.4", "--jobs", jobs,
                   "--out", tmp_path / jobs) == 0
    assert ((tmp_path / "1" / "boundary.csv").read_bytes()
            == (tmp_path / "2" / "boundary.csv").read_bytes())


def test_boundary_missing_artifacts(tmp_path):
    assert run("boundary", "--artifacts", tmp_path / "empty") == 8


# ---------------------------------------------------------------------------
# malformed artifacts

@pytest.mark.parametrize("command,name", [
    ("verify", "dist.npy"),
    ("verify", "weights.npy"),
    ("verify", "nets.json"),
    ("verify", "build_config.json"),
    ("verify", "basis.json"),
    ("analyze", "weights.npy"),
    ("analyze", "basis.json"),
    ("verify", "build_report.json"),
    ("boundary", "dist.npy"),
    ("boundary", "weights.npy"),
    ("boundary", "nets.json"),
    ("boundary", "build_config.json"),
    ("boundary", "build_report.json"),
])
@pytest.mark.parametrize("payload", [b'{"truncated": ', b"\xff\xfe\x00",
                                     b"[1, 2]"])
def test_malformed_artifact_json_exits_8(built, tmp_path, capsys, command,
                                         name, payload):
    # each payload is neither a JSON object nor a .npy array
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    (bad / name).write_bytes(payload)
    np.savetxt(tmp_path / "sig.csv", np.ones(8), delimiter=",")
    args = {"verify": ["--report", tmp_path / "report.json"],
            "analyze": ["--signal", tmp_path / "sig.csv",
                        "--out", tmp_path / "out"],
            "boundary": ["--num-samples", 4, "--out", tmp_path / "out"]}
    rc = run(command, "--artifacts", bad, *args[command])
    err = capsys.readouterr().err
    assert rc == 8, err
    assert "MissingArtifact" in err


def _drop_last_column(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))


def _drop_last_row(path):
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in lines[:-1]))


def _drop_key(key):
    def corrupt(path):
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
    return corrupt


def _set_key(key, value):
    def corrupt(path):
        meta = json.loads(path.read_text())
        meta[key] = value
        path.write_text(json.dumps(meta))
    return corrupt


def _first_cell_abc(path):
    text = path.read_text()
    path.write_text("abc" + text[text.index(","):])


def _saves(name, transform):
    """A corruption, called ``name``, that stores ``transform`` of the
    stored array in its place."""
    def corrupt(path):
        np.save(path, transform(np.load(path)))
    corrupt.__name__ = name
    return corrupt


def _with_entries(value, *index):
    """A copy of an array with ``value(old)`` at each index."""
    def transform(arr):
        arr = arr.copy()
        for i in index:
            arr[i] = value(arr[i])
        return arr
    return transform


def _directory_in_place(path):
    path.unlink()
    path.mkdir()


def _cut_three_bytes(path):
    path.write_bytes(path.read_bytes()[:-3])


def _empty(path):
    path.write_bytes(b"")


def _zip_archive(path):
    arr = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, arr=arr)


def _claims_huge_shape(path):
    # np.load allocates the header's 8 TB before it reads the 8 bytes
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": "<f8", "fortran_order": False, "shape": (10 ** 6, 10 ** 6)})
    path.write_bytes(buf.getvalue() + bytes(8))


class _MakesDir:
    """Makes a directory when unpickled, so a test can see a pickle load."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


def _pickle_making_a_dir(path):
    # an object array whose load, with pickles allowed, makes "unpickled"
    marker = path.parent / "unpickled"
    np.save(path, np.array([_MakesDir(marker)], dtype=object),
            allow_pickle=True)
    np.load(path, allow_pickle=True)
    marker.rmdir()


def _delete(path):
    path.unlink()


def _drop_last_point(path):
    # dist.npy and weights.npy agree with each other, not with nets.json
    art = path.parent
    np.save(art / "dist.npy", np.load(art / "dist.npy")[:-1, :-1])
    np.save(art / "weights.npy", np.load(art / "weights.npy")[:-1])


# every reader case runs on each command's read of each space file
NPY_READER_CASES = [
    (_directory_in_place, 8),
    (_cut_three_bytes, 8),
    (_empty, 8),
    (_zip_archive, 8),
    (_claims_huge_shape, 8),
    (_pickle_making_a_dir, 8),
    (_saves("int64", lambda a: a.astype(np.int64)), 8),
    (_saves("bool", lambda a: a != 0), 8),
    (_saves("complex128", lambda a: a.astype(complex)), 8),
    (_saves("float32", lambda a: a.astype(np.float32)), 8),
    (_saves("rank_up", lambda a: a[None]), 8),
    (_saves("nan_entry", _with_entries(lambda v: np.nan, 1)), 2),
    (_saves("inf_entry", _with_entries(lambda v: np.inf, 1)), 2),
    (_saves("fortran_order", np.asfortranarray), 0),
    (_saves("big_endian", lambda a: a.astype(">f8")), 0),
]
SPACE_READS = [("verify", "dist.npy"), ("verify", "weights.npy"),
               ("boundary", "dist.npy"), ("boundary", "weights.npy"),
               ("analyze", "weights.npy")]


def _swap_first_two(a):
    return a[[1, 0, *range(2, len(a))]]


def _repeat_first(a):
    return a[[0, *range(len(a))]]


# level 0 of the cyclic(8) fixture holds one entry per row, the last at
# (7, 7), so each case below breaks exactly one rule of the triples
SPLINE_CASES = [
    (_saves("fractional_index", _with_entries(lambda v: v + 0.5, (1, 1))), 8),
    (_saves("nan_index", _with_entries(lambda v: np.nan, (1, 0))), 8),
    (_saves("negative_index", _with_entries(lambda v: -1.0, (0, 1))), 8),
    (_saves("repeated_pair", _repeat_first), 8),
    (_saves("unsorted_pair", _swap_first_two), 8),
    (_saves("two_columns", lambda a: a[:, :2]), 8),
    (_saves("four_columns", lambda a: np.column_stack([a, a[:, 2]])), 8),
    (_saves("column_past_shape", _with_entries(lambda v: 8.0, (-1, 1))),
     EXIT_CHECKS_FAILED),
    (_saves("row_past_shape", _with_entries(lambda v: 8.0, (-1, 0))),
     EXIT_CHECKS_FAILED),
]


@pytest.mark.parametrize("command,name,corrupt,code", [
    ("verify", "basis_values.csv", _first_cell_abc, 8),
    ("verify", "basis_values.csv", _drop_last_column, 9),
    ("verify", "basis.json", _drop_key("count"), 8),
    ("verify", "basis.json", _drop_key("row_labels"), 8),
    ("analyze", "basis_values.csv", _first_cell_abc, 8),
    ("analyze", "basis_values.csv", _drop_last_column, 9),
    ("analyze", "basis_values.csv", _drop_last_row, 9),
    ("analyze", "basis.json", _drop_key("count"), 8),
    ("analyze", "basis.json", _drop_key("row_labels"), 8),
    ("analyze", "sig.csv", _first_cell_abc, 8),
    ("boundary", "build_report.json", _drop_key("a0"), 8),
    ("boundary", "build_report.json", _set_key("a0", "abc"), 8),
    ("boundary", "build_report.json", _set_key("a0", 0.5), 8),
    ("boundary", "build_report.json", _set_key("a0", 10 ** 400), 8),
    ("verify", "build_report.json", _set_key("a0", 1.25), EXIT_CHECKS_FAILED),
    ("verify", "dist.npy", _saves("non_square", lambda a: a[:, :-1]), 2),
    ("boundary", "dist.npy", _saves("non_square", lambda a: a[:, :-1]), 2),
    ("verify", "dist.npy",
     _saves("asymmetric", _with_entries(lambda v: 2.0 * v, (0, 1))), 2),
    ("verify", "dist.npy", _saves("symmetric_change", _with_entries(
        lambda v: 1.5 * v, (0, 1), (1, 0))), EXIT_CHECKS_FAILED),
    ("verify", "weights.npy",
     _saves("zero_weight", _with_entries(lambda v: 0.0, 0)), 2),
    ("boundary", "weights.npy",
     _saves("negative_weight", _with_entries(lambda v: -v, 0)), 2),
    ("analyze", "weights.npy",
     _saves("zero_weight", _with_entries(lambda v: 0.0, 0)), 2),
    ("verify", "weights.npy", _saves("one_short", lambda a: a[:-1]), 9),
    ("boundary", "weights.npy", _saves("one_short", lambda a: a[:-1]), 9),
    ("analyze", "weights.npy", _saves("one_short", lambda a: a[:-1]), 9),
    ("verify", "dist.npy", _drop_last_point, 9),
    ("boundary", "dist.npy", _drop_last_point, 9),
    ("analyze", "dist.npy", _delete, 0),
] + [("verify", "splines/level_0.npy", corrupt, code)
     for corrupt, code in SPLINE_CASES]
  + [(command, name, corrupt, code) for command, name in SPACE_READS
     for corrupt, code in NPY_READER_CASES])
def test_malformed_artifact_exit_codes(built, tmp_path, capsys, command,
                                       name, corrupt, code):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    np.savetxt(bad / "sig.csv", np.ones((1, 8)), delimiter=",")
    corrupt(bad / name)
    args = {"verify": ["--report", tmp_path / "report.json"],
            "analyze": ["--signal", bad / "sig.csv",
                        "--out", tmp_path / "out"],
            "boundary": ["--num-samples", 4, "--out", tmp_path / "out"]}
    rc = run(command, "--artifacts", bad, *args[command])
    assert rc == code, capsys.readouterr().err
    assert not (bad / "unpickled").exists()


def _two_point_space(d):
    """Writes the two-point space at distance ``d`` beside the artifacts."""
    def write(art):
        (art.parent / "space.json").write_text(json.dumps(
            {"dist": [[0.0, d], [d, 0.0]], "weights": [1.0, 1.0]}))
    return write


def _nets_delta(value):
    def corrupt(art):
        nets = json.loads((art / "nets.json").read_text())
        nets["delta"] = value
        (art / "nets.json").write_text(json.dumps(nets))
    return corrupt


def _spline_level_0(transform):
    def corrupt(art):
        _saves("spline", transform)(art / "splines" / "level_0.npy")
    return corrupt


# inputs whose scales leave the float range, and NaN spline values, with
# the command that reads them and its documented code
MALFORMED_INPUTS = [
    pytest.param(_two_point_space(1e308),
                 ["build", "--input", "space.json", "--out", "out"], 3,
                 id="space_scale_overflows"),
    pytest.param(_two_point_space(5e-324),
                 ["build", "--input", "space.json", "--delta", "0.1",
                  "--out", "out"], 3, id="space_scale_underflows"),
] + [
    pytest.param(_nets_delta(value), argv, 8,
                 id=f"nets_delta_{value}_{argv[0]}")
    for value in (1e-300, 2.0, math.nan)
    for argv in (["verify", "--artifacts", "bad"],
                 ["boundary", "--artifacts", "bad", "--num-samples", "4"])
] + [
    pytest.param(_spline_level_0(_with_entries(lambda v: np.nan, (1, 2))),
                 ["verify", "--artifacts", "bad"], EXIT_CHECKS_FAILED,
                 id="spline_nan"),
    pytest.param(_spline_level_0(lambda a: _with_entries(
        lambda v: 7.0, (2, 2))(_with_entries(lambda v: np.nan, (1, 2))(a))),
                 ["verify", "--artifacts", "bad"], EXIT_CHECKS_FAILED,
                 id="spline_nan_and_shifted_neighbour"),
]


@pytest.mark.parametrize("corrupt,argv,code", MALFORMED_INPUTS)
def test_malformed_inputs_exit_with_documented_codes(built, tmp_path,
                                                     corrupt, argv, code):
    import shutil
    shutil.copytree(built, tmp_path / "bad")
    corrupt(tmp_path / "bad")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "dyadwave.cli", *argv], capture_output=True,
        text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr


def test_stored_space_is_the_input_bit_for_bit(tmp_path):
    src = tmp_path / "space.json"
    assert run("gen", "snowflake", "24", "0.5", "--out", src) == 0
    art = tmp_path / "art"
    assert run("build", "--input", src, "--out", art) == 0
    space = load_space_json(src)
    for name, want in (("dist.npy", space.dist),
                       ("weights.npy", space.weights)):
        got = np.load(art / name, allow_pickle=False)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a Fortran-ordered copy reads back C-contiguous with the same bits
    np.save(tmp_path / "f.npy", np.asfortranarray(space.dist))
    back = cli._load_array(tmp_path / "f.npy", 2)
    assert back.flags.c_contiguous
    assert np.array_equal(back.view(np.uint64), space.dist.view(np.uint64))


@pytest.mark.parametrize("tamper,failed", [
    ("net_column", {"artifact_splines_match": 0.25,
                    "artifact_transitions_match": 0.25}),
    ("other_column", {"artifact_splines_match": 0.25}),
    ("past_shape", {"artifact_splines_match": math.inf,
                    "artifact_transitions_match": math.inf}),
])
def test_verify_reads_the_transitions_from_the_stored_splines(
        built, tmp_path, tamper, failed):
    """T_k is S_k at the net points of level k + 1, so a stored spline value
    in such a column fails both artifact checks and one elsewhere only the
    splines' check; an index past the shape reads as infinitely far."""
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    levels = json.loads((bad / "nets.json").read_text())["levels"]
    k = min(map(int, levels)) + 1
    path = bad / "splines" / f"level_{k}.npy"
    triples = np.load(path)
    if tamper == "past_shape":
        triples[-1, 1] = len(levels["0"])
    else:
        in_net = [int(col) in levels[str(k + 1)] for col in triples[:, 1]]
        triples[in_net.index(tamper == "net_column"), 2] += 0.25
    np.save(path, triples)
    assert run("verify", "--artifacts", bad, "--report",
               tmp_path / "r.json") == EXIT_CHECKS_FAILED
    exact = json.loads((tmp_path / "r.json").read_text())["exact"]
    assert {name: item["measured"] for name, item in exact.items()
            if not item["ok"]} == failed


SPARSE_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, -0.0, 0.25, 1.0, -1.0,
                                  5e-324, math.nan, math.inf])


@given(st.integers(1, 6).flatmap(lambda rows: st.integers(1, 6).flatmap(
    lambda cols: st.tuples(*[hnp.arrays(float, (rows, cols),
                                        elements=SPARSE_ENTRIES)] * 2))))
def test_triple_deviations_are_the_dense_ones(pair):
    """Each column's largest |stored - rebuilt| over the stored triples
    has the bits of the dense difference's, entries on one side included."""
    stored, rebuilt = pair
    with np.errstate(invalid="ignore"):    # inf - inf, on both paths
        dev, cols = pipeline._triple_devs(sparse_triples(stored),
                                          sparse_triples(rebuilt),
                                          stored.shape[1])
        dense = np.abs(stored - rebuilt)
    got = [dev[cols == c].max(initial=0.0) for c in range(dense.shape[1])]
    assert np.array_equal(got, dense.max(axis=0), equal_nan=True)


NUMBER = re.compile(r"-?\d[\d.eE+-]*")


def _reads(command, name):
    """Whether a command reads an artifact; boundary takes a0 from
    build_report.json, and verify checks it."""
    if command == "analyze":
        return name in ("weights.npy", "basis.json", "basis_values.csv")
    if command == "boundary":
        return name in ("dist.npy", "weights.npy", "nets.json",
                        "build_config.json", "build_report.json")
    return True


TEXT_KINDS = ["delete", "truncate", "non_numeric", "drop_row", "drop_column",
              "invalid_json", "json_non_object"]
NPY_KINDS = ["delete", "truncate", "bad_header", "pickled", "int_dtype",
             "bool_dtype", "wrong_rank", "nan_entry"]


def _corrupt_npy(path, kind, data):
    raw = path.read_bytes()
    arr = np.load(path)
    if kind == "truncate":
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    elif kind == "bad_header":
        # flipping every bit of one byte of the magic, version, length or
        # header dict leaves no loadable file
        i = data.draw(st.integers(0, raw.index(b"\n")))
        path.write_bytes(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:])
    elif kind == "pickled":
        np.save(path, np.array([1.0, "x"], dtype=object), allow_pickle=True)
    elif kind == "int_dtype":
        np.save(path, arr.astype(np.int64))
    elif kind == "bool_dtype":
        np.save(path, arr != 0)
    elif kind == "wrong_rank":
        np.save(path, arr.reshape(1, *arr.shape))
    else:
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = np.nan
        np.save(path, arr)


def _corrupt_one(path, kind, data):
    if kind == "delete":
        path.unlink()
        return
    if path.suffix == ".npy":
        _corrupt_npy(path, kind, data)
        return
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    if kind == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif kind == "non_numeric":
        tok = data.draw(st.sampled_from(list(NUMBER.finditer(text))))
        cell = '"abc"' if path.suffix == ".json" else "abc"
        text = text[:tok.start()] + cell + text[tok.end():]
    elif kind == "drop_row":
        i = data.draw(st.integers(0, len(lines) - 1))
        text = "".join(lines[:i] + lines[i + 1:])
    elif kind == "drop_column" and path.suffix == ".json":
        # the last entry of every flat list of two or more entries
        text = re.sub(r",[^,\[\]{}\n]+\]", "]", text)
    elif kind == "drop_column":
        text = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    elif kind == "invalid_json":
        text = "{" + text
    else:
        text = data.draw(st.sampled_from(["[1, 2]", "3", "null", '"x"']))
    path.write_text(text)


ARTIFACT_FILES = ["dist.npy", "weights.npy", "nets.json", "basis.json",
                  "basis_values.csv", "build_config.json", "build_report.json",
                  "splines"]


@pytest.mark.parametrize("target", ARTIFACT_FILES)
@settings(max_examples=20)
@given(data=st.data())
def test_single_file_corruption_exits_documented_code(built, target, data):
    import shutil
    import tempfile
    name = target
    if not target.endswith((".json", ".csv", ".npy")):
        name = data.draw(st.sampled_from(sorted(
            f"{target}/{p.name}" for p in (built / target).iterdir())))
    kind = data.draw(st.sampled_from(
        NPY_KINDS if name.endswith(".npy") else TEXT_KINDS))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bad = tmp / "bad"
        shutil.copytree(built, bad)
        np.savetxt(tmp / "sig.csv", np.ones(8), delimiter=",")
        _corrupt_one(bad / name, kind, data)
        args = {"verify": ["--report", tmp / "report.json",
                           "--num-trials", "2", "--pair-budget", "64"],
                "analyze": ["--signal", tmp / "sig.csv", "--out", tmp / "o"],
                "boundary": ["--num-samples", "8", "--out", tmp / "o"]}
        for command, extra in args.items():
            rc = run(command, "--artifacts", bad, *extra)
            # 2: dist.npy or weights.npy holds no quasi-metric space;
            # 4: a stored config value has the wrong type
            assert rc in (0, 2, 4, 8, 9, EXIT_CHECKS_FAILED), (command, rc)
            if not _reads(command, name):
                assert rc == 0, (command, rc)


def test_package_has_no_assert_statements():
    # python -O strips asserts, so runtime checks must raise typed errors
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(pkg.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert len(list(pkg.glob("*.py"))) > 5
    assert found == []


def test_package_uses_nothing_the_fast_exit_skips():
    # cli.run ends the process with os._exit, which runs no atexit
    # handler, joins no thread and calls no finalizer; the process pool
    # of boundary --jobs is shut down by its with block before main returns
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.FunctionDef) and node.name == "__del__":
                names = ["__del__"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.split(".")[0] in ("atexit", "threading",
                                                "__del__")]
    assert len(list(pkg.glob("*.py"))) > 5
    assert found == []


def test_package_has_no_unused_definitions():
    # every top-level function and class is named by other package code;
    # the acceptance criteria call these six directly
    criteria = {"chain_constants", "neumann_inverse", "inverse_sqrt",
                "spectral_inverse_sqrt", "mc_membership_frequencies",
                "decay_certificate"}
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    tops = [(path.name, top) for path in sorted(pkg.glob("*.py"))
            for top in ast.parse(path.read_text()).body]
    named = [{node.id if isinstance(node, ast.Name) else node.attr
              for node in ast.walk(top)
              if isinstance(node, (ast.Name, ast.Attribute))}
             for _, top in tops]
    unused = [f"{name}:{top.name}" for i, (name, top) in enumerate(tops)
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and top.name not in criteria
              and not any(top.name in names
                          for j, names in enumerate(named) if j != i)]
    assert len(tops) > 100
    assert unused == []


def test_every_generator_comes_from_stream_rng():
    # seeding.stream_rng is the package's one generator constructor, so no
    # other module names np.random or imports from numpy.random
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    named = [f"{path.name}:{node.lineno}"
             for path in sorted(pkg.glob("*.py")) if path.name != "seeding.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr == "random"
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("np", "numpy"))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").startswith("numpy")
                 and ("random" in node.module
                      or any(a.name == "random" for a in node.names)))
             or (isinstance(node, ast.Import)
                 and any(a.name.startswith("numpy.random")
                         for a in node.names))]
    assert named == []


def test_every_default_is_set_by_package_code():
    # a defaulted parameter that no call in the package sets by keyword or
    # by position is a knob only tests turn; a ``**`` splat sets none.
    # Exceptions: the entry point's argv and the parameters the acceptance
    # criteria set
    criteria = {"main.argv", "chain_constants.exact_budget",
                "chain_constants.seed", "inverse_sqrt.tol",
                "inverse_sqrt.max_terms", "decay_certificate.s"}
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    nodes = [node for path in sorted(pkg.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))]
    defaulted, positional = set(), {}
    for fn in nodes:
        if isinstance(fn, ast.FunctionDef):
            args = fn.args.posonlyargs + fn.args.args
            if args and args[0].arg == "self":
                args = args[1:]
            positional[fn.name] = [a.arg for a in args]
            with_default = args[len(args) - len(fn.args.defaults):] + [
                a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None]
            defaulted.update(f"{fn.name}.{a.arg}" for a in with_default)
    set_by_calls = set()
    for call in nodes:
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            given = list(itertools.takewhile(
                lambda arg: not isinstance(arg, ast.Starred), call.args))
            named = [kw.arg for kw in call.keywords if kw.arg is not None]
            set_by_calls.update(
                f"{name}.{arg}"
                for arg in positional.get(name, [])[:len(given)] + named)
    assert len(defaulted) > 20
    assert sorted(defaulted - set_by_calls - criteria) == []
    assert criteria <= defaulted


def test_every_dataclass_field_is_read_by_package_code():
    # a record field that no package code reads is a copy of a fact held
    # elsewhere, or one nothing needs
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    trees = [ast.parse(path.read_text()) for path in sorted(pkg.glob("*.py"))]
    fields = [f"{cls.name}.{stmt.target.id}"
              for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              and any(getattr(dec, "func", dec).id == "dataclass"
                      for dec in cls.decorator_list)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert len(fields) > 20
    assert [name for name in fields if name.split(".")[1] not in read] == []


def test_pairs_are_enumerated_in_one_place():
    # the parent tables, grid checks, boundary layers and Hölder fits all
    # read their neighbour lists from space.near_pairs
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    found = [f"{path.name}:{getattr(top, 'name', top.lineno)}"
             for path in sorted(pkg.glob("*.py"))
             for top in ast.parse(path.read_text()).body
             for node in ast.walk(top)
             if getattr(node, "attr", getattr(node, "id", None))
             in ("nonzero", "triu_indices")]
    assert found == ["space.py:near_pairs"]


def test_sample_floor_is_defined_in_one_place():
    # every decay and Hölder fit keeps its samples through the floor
    # predicate of decaymat, so no other module names the threshold
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    found = [path.name for path in sorted(pkg.glob("*.py"))
             if re.search(r"\bTINY\b", path.read_text())]
    assert found == ["decaymat.py"]


def test_basis_is_read_in_place():
    # one basis matrix: nothing defines or calls a stacking copy of it, and
    # the square function slices each level instead of gathering its rows
    pkg = Path(__file__).resolve().parents[1] / "src" / "dyadwave"
    stacked = [f"{path.name}:{node.lineno}"
               for path in sorted(pkg.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if getattr(node, "name", None) == "stacked"
               or isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None))
               == "stacked"]
    assert stacked == []
    tree = ast.parse((pkg / "measure.py").read_text())
    (sf,) = [node for node in tree.body
             if getattr(node, "name", None) == "square_function"]
    gathers = [node.lineno for node in ast.walk(sf)
               if isinstance(node, (ast.List, ast.ListComp))
               or isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "enumerate"]
    assert gathers == []


def test_verify_fails_when_a_level_misses_a_wavelet(tmp_path, monkeypatch,
                                                     capsys):
    """lp_telescoping compares each P_k with the spline projector onto V_k,
    so block projectors short of one wavelet fail it."""
    art = tmp_path / "art"
    assert run("build", "--gen", "cyclic", "16", "--out", art) == 0

    def short(space, nets, basis):
        k = max(basis.blocks)
        sl = basis.blocks[k]
        blocks = {**basis.blocks, k: slice(sl.start + 1, sl.stop)}
        return lp_projectors(space, nets,
                             dataclasses.replace(basis, blocks=blocks))

    # verify imports the name from lpanalysis when it runs
    monkeypatch.setattr(lpanalysis, "lp_projectors", short)
    capsys.readouterr()
    rc = run("verify", "--artifacts", art, "--report", tmp_path / "r.json")
    failed = [line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL ")]
    assert (rc, failed) == (EXIT_CHECKS_FAILED, ["lp_telescoping"])


SESSION = """
from dyadwave.cli import main
open("sig.csv", "w").write("1.5\\n" * 16)
for argv in (["gen", "cyclic", "16", "--out", "space.json"],
             ["build", "--input", "space.json", "--out", "art"],
             ["verify", "--artifacts", "art"],
             ["analyze", "--artifacts", "art", "--signal", "sig.csv"]):
    if main(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
"""


# a slope fit over four eps values reads its t quantile from a table
BOUNDARY_SESSION = """
import json
from dyadwave.cli import main
for argv in (["gen", "interval", "32", "--out", "space.json"],
             ["build", "--input", "space.json", "--delta", "0.3",
              "--out", "art"],
             ["boundary", "--artifacts", "art", "--num-samples", "32",
              "--eps-grid", "0.05", "0.1", "0.2", "0.4"]):
    if main(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
if json.load(open("art/boundary_fit.json"))["n_points"] != 4:
    raise SystemExit("boundary fitted fewer than four eps values")
"""


@pytest.mark.parametrize("work", ["", SESSION, BOUNDARY_SESSION],
                         ids=["import", "session", "boundary"])
def test_cli_import_leaves_scipy_stats_unloaded(tmp_path, work):
    # no command of these sessions imports SciPy, not even to stamp its
    # version into build_config.json or report.json
    code = ("import sys, dyadwave.cli\n" + work +
            "\nprint([m for m in ('scipy', 'scipy.stats', 'scipy.linalg', "
            "'scipy.special') if m in sys.modules])")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip().splitlines()[-1] == "[]"


IMPORT_PROBE = """
import os, sys
from dyadwave.cli import main
if main(sys.argv[1:]) != 0:
    raise SystemExit("command failed")
print([m.__file__ for name, m in sys.modules.items()
       if name.startswith("dyadwave")])
print([m for m in {modules!r} if m in sys.modules])
"""
CONSTRUCTION = ("dyadwave.nets", "dyadwave.randgrid", "dyadwave.seeding",
                "dyadwave.spline", "dyadwave.wavelet", "dyadwave.decaymat",
                "dyadwave.lpanalysis", "numpy.random")
PROBED = CONSTRUCTION + ("dyadwave.space", "dyadwave.pipeline")


def code_size(path) -> int:
    """Characters of a module's source that are neither white space nor
    part of a comment or a docstring."""
    text = Path(path).read_text()
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            # ast offsets count UTF-8 bytes
            doc = node.body[0]
            first, last = doc.lineno - 1, doc.end_lineno - 1
            head = lines[first].encode()[:doc.col_offset].decode()
            tail = lines[last].encode()[doc.end_col_offset:].decode()
            lines[first:last + 1] = [head + tail] + [""] * (last - first)
    return sum(len("".join(line.split())) for line in lines)


@pytest.fixture(scope="module")
def command_loads(tmp_path_factory):
    """{command: (code size of the package source loaded, the PROBED
    modules loaded)} of one run of each command in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    root = tmp_path_factory.mktemp("imports")
    (root / "sig.csv").write_text("1.5\n" * 16)
    loads = {}
    for argv in (["gen", "cyclic", "16", "--out", "space.json"],
                 ["build", "--input", "space.json", "--out", "art"],
                 ["verify", "--artifacts", "art"],
                 ["analyze", "--artifacts", "art", "--signal", "sig.csv"],
                 ["boundary", "--artifacts", "art", "--num-samples", "8"]):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(modules=PROBED),
             *argv], capture_output=True, text=True, timeout=120,
            cwd=root, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
        files, modules = out.stdout.strip().splitlines()[-2:]
        loads[argv[0]] = (sum(map(code_size, ast.literal_eval(files))),
                          modules)
    return loads


def test_each_command_imports_only_the_modules_it_runs(command_loads):
    # analyze expands a signal in the stored basis and needs neither the
    # distances nor the construction; boundary samples cubes and needs no
    # splines, wavelets or Littlewood-Paley analysis; build checks no LP
    # kernels; only build and verify run the pipeline
    construction = PROBED[:-1]
    want = {
        "gen": ("dyadwave.space",),
        "build": tuple(m for m in construction
                       if m != "dyadwave.lpanalysis") + ("dyadwave.pipeline",),
        "verify": PROBED,
        "analyze": (),
        "boundary": ("dyadwave.nets", "dyadwave.randgrid", "dyadwave.seeding",
                     "numpy.random", "dyadwave.space"),
    }
    for command, (_, modules) in command_loads.items():
        assert modules == str(list(want[command])), command


def test_each_command_compiles_no_more_package_source(command_loads):
    # the code, without comments and docstrings, of the package source
    # each command loads, which a run without a bytecode cache compiles:
    # no more than the modules each command runs, analyze none of space
    # or the pipeline
    bounds = {"gen": 24_095, "build": 75_836, "verify": 85_215,
              "analyze": 23_074, "boundary": 41_909}
    sizes = {command: size for command, (size, _) in command_loads.items()}
    assert all(sizes[command] <= bounds[command] for command in bounds), sizes


def test_package_import_loads_no_submodule_or_numpy(tmp_path):
    # the package's public names resolve from space on first use
    code = ("import sys, dyadwave\n"
            "print([m for m in sys.modules if m.startswith('dyadwave.')"
            " or m == 'numpy'])\n"
            "from dyadwave import *\n"
            "from dyadwave import space\n"
            "print(QuasiMetricSpace is space.QuasiMetricSpace"
            " and build_space is space.build_space"
            " and gen_example is space.gen_example)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.splitlines() == ["[]", "True"]


MA_SESSION = """
import sys
from dyadwave.cli import main
for argv in (["build", "--gen", "cyclic", "16", "--out", "art"],
             ["verify", "--artifacts", "art"],
             ["boundary", "--artifacts", "art", "--num-samples", "8",
              "--eps-grid", "0.4", "0.4", "0.4"]):
    if main(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
    print("numpy.ma after", argv[0], "numpy.ma" in sys.modules)
"""


def test_verify_and_boundary_leave_numpy_ma_unloaded(tmp_path):
    # a plain np.unique imports numpy.ma; the nets check and the slope-fit
    # guard use none.  Boundary's grid of one repeated eps takes the guard.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", MA_SESSION],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    loaded = [line for line in out.stdout.splitlines()
              if line.startswith("numpy.ma after")]
    assert loaded == [f"numpy.ma after {command} False"
                      for command in ("build", "verify", "boundary")]


def test_verify_compares_basis_json_in_full(built, tmp_path):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(built, bad)
    meta = json.loads((bad / "basis.json").read_text())
    meta["row_labels"][1] = [meta["row_labels"][1][0], 999]
    meta["mass_fine"] = []
    (bad / "basis.json").write_text(json.dumps(meta))
    assert run("verify", "--artifacts", bad,
               "--report", tmp_path / "r.json") == EXIT_CHECKS_FAILED
    exact = json.loads((tmp_path / "r.json").read_text())["exact"]
    assert [name for name, item in exact.items() if not item["ok"]] \
        == ["artifact_basis_match"]
    assert exact["artifact_basis_match"]["measured"] == math.inf


def test_cli_import_loads_no_process_pool(tmp_path):
    # boundary imports the pool only when it runs with --jobs > 1
    code = ("import sys, dyadwave.cli\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
