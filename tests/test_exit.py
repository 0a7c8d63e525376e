"""The command-line exit: ``cli.run`` flushes and leaves with ``os._exit``.

These tests launch ``python -m dyadwave.cli`` as a child with its streams
on pipes, so stdout is block-buffered as under any pipeline, and check
that skipping the interpreter's teardown loses no byte, no exit code and
no descendant process.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadwave import cli

ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_NUM_THREADS": "1"}


def module_run(*args, cwd, prefix=("-m", "dyadwave.cli"), stdout=None):
    """Run the module as a child; ``stdout`` replaces its stdout pipe."""
    return subprocess.run([sys.executable, *prefix, *map(str, args)],
                          stdout=stdout or subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300,
                          cwd=cwd, env=_env())


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    art = tmp_path_factory.mktemp("exit_build") / "art"
    assert cli.main(["build", "--gen", "cyclic", "8", "--out", str(art)]) == 0
    return art


def test_installed_command_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    module, _, attr = scripts["dyadwave"].partition(":")
    assert module == "dyadwave.cli"
    assert callable(getattr(cli, attr))
    guard, = [node for node in ast.parse(Path(cli.__file__).read_text()).body
              if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = {node.func.id for node in ast.walk(guard)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {"SystemExit", attr}


def test_module_verify_streams_equal_in_process(built, tmp_path, capsys):
    args = ["verify", "--artifacts", built, "--report", tmp_path / "r.json"]
    assert cli.main([str(a) for a in args]) == 0
    inproc = capsys.readouterr()
    report = (tmp_path / "r.json").read_bytes()
    child = module_run(*args, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stdout == inproc.out
    assert child.stderr == inproc.err
    assert sum(line.startswith("PASS ") for line in
               child.stdout.splitlines()) == 22
    assert "verify: ok (22/22 exact checks)" in child.stdout
    assert (tmp_path / "r.json").read_bytes() == report


@pytest.mark.parametrize("case, code", [
    ("verify", 0), ("delta", 5), ("missing", 8), ("tampered", 20),
    ("unknown", 2), ("help", 0)])
def test_module_exit_codes(built, tmp_path, case, code):
    if case == "tampered":
        shutil.copytree(built, tmp_path / "bad")
        path = tmp_path / "bad" / "basis_values.csv"
        B = np.loadtxt(path, delimiter=",", ndmin=2)
        B[2, 3] += 0.25
        path.write_text("\n".join(",".join(format(v, ".17g") for v in row)
                                  for row in B) + "\n")
    args = {
        "verify": ["verify", "--artifacts", built, "--report", "r.json"],
        "delta": ["build", "--gen", "cyclic", "8", "--delta", "1.5",
                  "--out", "art"],
        "missing": ["verify", "--artifacts", "none"],
        "tampered": ["verify", "--artifacts", "bad"],
        "unknown": ["nosuch"],
        "help": ["--help"],
    }[case]
    child = module_run(*args, cwd=tmp_path)
    assert child.returncode == code, child.stderr


def test_module_closed_stdout_exits_120(tmp_path):
    # a pipe whose reader is gone: the flush fails, and run leaves it to
    # the interpreter's teardown, which reports it as a normal exit does
    def closed_stdout(prefix):
        read, write = os.pipe()
        os.close(read)
        try:
            return module_run("gen", "cyclic", "8", "--out", "c8.json",
                              cwd=tmp_path, prefix=prefix, stdout=write)
        finally:
            os.close(write)

    fast = closed_stdout(("-m", "dyadwave.cli"))
    plain = closed_stdout(("-c", "import sys; from dyadwave import cli; "
                           "sys.exit(cli.main(sys.argv[1:]))"))
    assert fast.returncode == plain.returncode == 120
    assert "BrokenPipeError" in fast.stderr
    assert fast.stderr == plain.stderr


def test_module_without_stdout_exits_0(tmp_path):
    # launched with fd 1 closed, sys.stdout is None and print writes nothing
    child = subprocess.run(
        [sys.executable, "-m", "dyadwave.cli", "gen", "cyclic", "8",
         "--out", "c8.json"], stderr=subprocess.PIPE, text=True, timeout=300,
        cwd=tmp_path, env=_env(), preexec_fn=lambda: os.close(1))
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    assert (tmp_path / "c8.json").exists()


def test_module_boundary_jobs_leaves_no_process(tmp_path):
    # communicate returns only once every holder of the pipes has closed
    # them, descendants included, so the timeout proves none outlives run
    art = tmp_path / "art"
    assert cli.main(["build", "--gen", "cyclic", "16", "--delta", "0.2",
                     "--out", str(art)]) == 0
    for jobs in ("1", "2"):
        with subprocess.Popen(
                [sys.executable, "-m", "dyadwave.cli", "boundary",
                 "--artifacts", str(art), "--num-samples", "300",
                 "--eps-grid", "0.2", "0.4", "--jobs", jobs, "--out", jobs],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=tmp_path, env=_env()) as proc:
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, err
    assert ((tmp_path / "1" / "boundary.csv").read_bytes()
            == (tmp_path / "2" / "boundary.csv").read_bytes())
