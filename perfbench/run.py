#!/usr/bin/env python3
"""Benchmark of the dyadwave command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pc-pipeline --seed 0 \
        --seconds 55 --trace 0

Each workload is one user session of the CLI (``build``, ``verify``,
``analyze``, ``boundary``) on an input generated from ``--seed``.  The
session runs as sequential subprocesses of this driver, again and again
until ``--seconds`` have passed; each command is timed from spawn to
exit, its peak RSS comes from ``os.wait4``, and every output is checked.
This process and its children are pinned to one CPU, and a probe thread
measures that CPU's speed while each command runs; a command's time is
reported at the probe's nominal speed.  A run reports each command's
median over its passes.
With ``--trace 1`` the driver instead makes one untraced pass and one
traced pass (``perfbench/trace.py``) and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Why each
workload exists and which metric each layer should move is written down
in ``perfbench/README.md``.
"""

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# Seed whose exact outputs are pinned in reference.json.
DEFAULT_SEED = 0
# Set-up (input generation) runs this many times; setup_s is the median.
SETUP_REPS = 3
# Fresh interpreters timed for cli.startup_s.
STARTUP_REPS = 3
TOL_ANALYZE = 1e-10
VERIFY_CHECKS = 22
COMMANDS = ("build", "verify", "analyze", "boundary")
# The speed probe times PROBE_LOOPS steps of a pure-Python loop every
# PROBE_PERIOD_S on the CPU the commands run on. PROBE_NOMINAL_S is that
# time in a fast phase of the machine the benchmark was written on
# (2-vCPU Intel Xeon, Python 3.11); end-to-end times are reported at
# that speed (see README, "Noise and bounds").
PROBE_PERIOD_S = 0.02
PROBE_LOOPS = 5000
PROBE_NOMINAL_S = 4.0e-4


@dataclass(frozen=True)
class Workload:
    gen: tuple            # generator kind and positional parameters
    gen_seed: int | None  # pinned generator seed; None uses the workload seed
    delta: str
    num_samples: int      # boundary Monte Carlo samples
    why: str

    @property
    def n(self) -> int:
        return int(self.gen[1])


EPS_GRID = ("0.05", "0.1", "0.2", "0.4")

WORKLOADS = {
    "pc-pipeline": Workload(
        gen=("point_cloud", "256", "2"), gen_seed=0, delta="0.4",
        num_samples=128,
        why="metric point cloud with many levels: grid_checks leads build "
            "and verify, and boundary runs the Monte Carlo cube sampler "
            "over 128 samples"),
    "snowflake-quasi": Workload(
        gen=("snowflake", "384", "0.5"), gen_seed=None, delta="0.5",
        num_samples=32,
        why="true quasi-metric: compute_a0 runs in every command and the "
            "dense per-level matrices give the largest peak RSS"),
}


# ---------------------------------------------------------------------------
# host speed

def probe_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Times probe_loop on this process's CPU while the commands run there.

    The process is pinned to one CPU and its children inherit the pin, so
    the probe thread shares the CPU with the command it measures. It
    wakes every PROBE_PERIOD_S and takes about 2 % of the CPU.
    """

    def __init__(self):
        self.marks = []  # (start, seconds), in start order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            self.marks.append((start, probe_loop()))

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_NOMINAL_S over the median probe time within [t0, t1].

        An interval too short to hold a sample (a command that fails at
        start-up) uses the last sample before it, or 1 if there is none.
        """
        marks = self.marks[:]
        lo = bisect.bisect_left(marks, t0, key=itemgetter(0))
        hi = bisect.bisect_right(marks, t1, key=itemgetter(0))
        inside = [secs for _, secs in marks[lo:hi] or marks[hi - 1:hi]]
        return PROBE_NOMINAL_S / median(inside) if inside else 1.0


def pin_to_one_cpu() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# running the CLI

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Result:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    scale: float = 1.0  # host-speed factor from the probe, 1 without one

    @property
    def time_s(self) -> float:
        """Wall time at the probe's nominal speed."""
        return self.wall_s * self.scale


def run_process(argv, cwd: Path, env: dict, probe=None) -> Result:
    """Run one child to completion; wall time and peak RSS from wait4."""
    out_path = cwd / ".stdout"
    err_path = cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                  out_path.read_text(errors="replace"),
                  err_path.read_text(errors="replace"),
                  probe.scale(t0, t0 + wall) if probe else 1.0)


def run_cli(args, cwd: Path, env: dict, probe=None) -> Result:
    return run_process([sys.executable, "-m", "dyadwave.cli", *args], cwd, env,
                       probe)


def command_argv(wl: Workload, seed: int, art: str) -> dict:
    return {
        "build": ["build", "--input", "inputs/space.json", "--delta", wl.delta,
                  "--seed", str(seed), "--out", art],
        "verify": ["verify", "--artifacts", art],
        "analyze": ["analyze", "--artifacts", art,
                    "--signal", "inputs/signal.csv"],
        "boundary": ["boundary", "--artifacts", art,
                     "--num-samples", str(wl.num_samples),
                     "--eps-grid", *EPS_GRID, "--seed", str(seed),
                     "--jobs", "1"],
    }


# ---------------------------------------------------------------------------
# set-up: the program only ever sees these generated files

def write_signal(path: Path, n: int, seed: int) -> None:
    rng = random.Random(seed)
    path.write_text("".join(f"{rng.gauss(0.0, 1.0)!r}\n" for _ in range(n)))


def setup_once(wl: Workload, seed: int, work: Path, env: dict,
               probe=None) -> tuple:
    """One set-up; its time at the probe's nominal speed."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    gen_seed = seed if wl.gen_seed is None else wl.gen_seed
    res = run_cli(["gen", *wl.gen, "--seed", str(gen_seed),
                   "--out", "inputs/space.json"], work, env)
    if res.rc == 0:
        write_signal(inputs / "signal.csv", wl.n, seed)
    t1 = time.perf_counter()
    if res.rc != 0:
        raise SystemExit(f"set-up failed: gen exited {res.rc}\n{res.stderr}")
    wall = (t1 - t0) * (probe.scale(t0, t1) if probe else 1.0)
    return wall, sha256(inputs / "space.json")


def setup(wl: Workload, seed: int, work: Path, env: dict, reps: int,
          probe=None) -> list:
    walls = []
    digests = set()
    for _ in range(reps):
        wall, digest = setup_once(wl, seed, work, env, probe)
        walls.append(wall)
        digests.add(digest)
    if len(digests) != 1:
        raise SystemExit("set-up failed: gen is not deterministic")
    return walls


# ---------------------------------------------------------------------------
# correctness gate

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_json(path: Path):
    return json.loads(path.read_text())


def check_build(art: Path, wl: Workload, res: Result) -> list:
    rep = load_json(art / "build_report.json")
    basis = load_json(art / "basis.json")
    problems = []
    if rep.get("ok") is not True:
        problems.append("build_report.json: ok is not true")
    if rep.get("n") != wl.n or basis.get("count") != wl.n - 1:
        problems.append(f"basis count {basis.get('count')} "
                        f"for n={rep.get('n')}")
    return problems


def check_verify(art: Path, wl: Workload, res: Result) -> list:
    rep = load_json(art / "report.json")
    exact = rep.get("exact", {})
    passed = sum(1 for item in exact.values() if item.get("ok") is True)
    problems = []
    if len(exact) != VERIFY_CHECKS or passed != VERIFY_CHECKS:
        problems.append(f"{passed}/{len(exact)} exact checks pass, "
                        f"want {VERIFY_CHECKS}/{VERIFY_CHECKS}")
    if rep.get("ok") is not True:
        problems.append("report.json: ok is not true")
    summary = f"verify: ok ({VERIFY_CHECKS}/{VERIFY_CHECKS} exact checks)"
    if summary not in res.stdout:
        problems.append("stdout lacks the all-pass summary line")
    return problems


def check_analyze(art: Path, wl: Workload, res: Result) -> list:
    rep = load_json(art / "analyze_report.json")
    return [f"{key} = {rep.get(key)!r} exceeds {TOL_ANALYZE:g}"
            for key in ("parseval_rel", "recon_dev")
            if not (isinstance(rep.get(key), (int, float))
                    and rep[key] <= TOL_ANALYZE)]


def check_boundary(art: Path, wl: Workload, res: Result) -> list:
    fit = load_json(art / "boundary_fit.json")
    problems = []
    if fit.get("num_samples") != wl.num_samples:
        problems.append(f"num_samples {fit.get('num_samples')}")
    eps = fit.get("eps_grid", [])
    if eps != sorted(eps) or len(eps) != len(EPS_GRID):
        problems.append(f"eps grid {eps}")
    freq = {}
    for line in (art / "boundary.csv").read_text().splitlines()[1:]:
        x, k, e, f, _ = line.split(",")
        freq.setdefault((x, k), []).append((float(e), float(f)))
    for cell, pairs in freq.items():
        vals = [f for _, f in sorted(pairs)]
        if any(b < a for a, b in zip(vals, vals[1:])):
            problems.append(f"frequency not monotone in eps at point/level "
                            f"{cell}")
            break
    mean = fit.get("mean_freq", [])
    if any(b < a for a, b in zip(mean, mean[1:])):
        problems.append("mean frequency not monotone in eps")
    return problems


CHECKS = {"build": check_build, "verify": check_verify,
          "analyze": check_analyze, "boundary": check_boundary}


def check_command(cmd: str, art: Path, wl: Workload, res: Result) -> list:
    if res.rc != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {res.rc}: {tail[0]}"]
    try:
        return CHECKS[cmd](art, wl, res)
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def reference_values(art: Path) -> dict:
    """The seeded outputs the reference file pins at the default seed."""
    rep = load_json(art / "build_report.json")
    grid = rep["checks"]["random_grid"]
    return {
        "a0": rep["a0"],
        "level_sizes": rep["level_sizes"],
        "basis_count": load_json(art / "basis.json")["count"],
        "grid_violations": {k: v for k, v in grid.items()
                            if k.endswith("_violations")},
        "boundary_csv_sha256": sha256(art / "boundary.csv"),
    }


def check_reference(name: str, art: Path, extra: dict) -> list:
    want = load_json(REFERENCE).get(name)
    if want is None:
        return [f"no reference values for {name}"]
    try:
        got = {**reference_values(art), **extra}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"reference mismatch in {key}: got {got.get(key)!r}, "
            f"want {val!r}" for key, val in want.items()
            if key in got and got[key] != val]


# ---------------------------------------------------------------------------
# end-to-end passes

def run_pass(wl: Workload, seed: int, work: Path, env: dict,
             probe=None) -> dict:
    art = work / "art"
    shutil.rmtree(art, ignore_errors=True)
    argvs = command_argv(wl, seed, "art")
    out = {"results": {}, "problems": {}}
    for cmd in COMMANDS:
        if any(out["problems"].values()):
            out["problems"][cmd] = ["skipped after an earlier failure"]
            continue
        res = run_cli(argvs[cmd], work, env, probe)
        out["results"][cmd] = res
        out["problems"][cmd] = check_command(cmd, art, wl, res)
    return out


def pass_failures(p: dict) -> int:
    return sum(1 for probs in p["problems"].values() if probs)


def report(ops: dict) -> int:
    """Print every problem; return the number of failed operations."""
    for op, probs in ops.items():
        for prob in probs:
            print(f"FAIL {op}: {prob}")
    return sum(1 for probs in ops.values() if probs)


def end_to_end(args, wl: Workload, work: Path, env: dict) -> tuple:
    passes = []
    ops = {}
    with SpeedProbe() as probe:
        setup_times = setup(wl, args.seed, work, env, SETUP_REPS, probe)
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            p = run_pass(wl, args.seed, work, env, probe)
            passes.append(p)
            ops.update((f"pass {len(passes)} {c}", probs)
                       for c, probs in p["problems"].items())
            if pass_failures(p):
                break
            if args.seed == DEFAULT_SEED and len(passes) == 1:
                ops["reference values"] = check_reference(args.workload,
                                                          work / "art", {})
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    print(f"speed probe: {len(probe.marks)} samples, median "
          f"{median(secs for _, secs in probe.marks) * 1e6:.1f} us, "
          f"nominal {PROBE_NOMINAL_S * 1e6:.1f} us")

    attempted = len(ops)
    failed = report(ops)
    ok = [p for p in passes if not pass_failures(p)]
    metrics = {"setup_s": (median(setup_times), "s")}
    if ok:
        # Each time is a command's wall time at the probe's nominal speed,
        # and a run reports the median over its passes (see README,
        # "Noise and bounds").
        times = {c: median(p["results"][c].time_s for p in ok)
                 for c in COMMANDS}
        metrics.update({
            "build_s": (times["build"], "s"),
            "verify_s": (times["verify"], "s"),
            "analyze_s": (times["analyze"], "s"),
            "boundary_samples_per_s": (wl.num_samples / times["boundary"],
                                       "1/s"),
            "total_s": (median(sum(p["results"][c].time_s for c in COMMANDS)
                               for p in ok), "s"),
            "peak_rss_mb": (median([max(p["results"][c].rss_mb
                                        for c in COMMANDS) for p in ok]),
                            "MB"),
        })
        for c in COMMANDS:
            wall = median(p["results"][c].wall_s for p in ok)
            print(f"{c}: median {times[c]:.3f} s at nominal speed, "
                  f"{wall:.3f} s measured, over {len(ok)} passes "
                  f"{[round(p['results'][c].wall_s, 3) for p in ok]}")
    print(f"setup: {[round(t, 3) for t in setup_times]} s at nominal speed")
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# traced run

def startup_seconds(work: Path, env: dict) -> float:
    walls = []
    for _ in range(STARTUP_REPS):
        res = run_process([sys.executable, "-c", "import dyadwave.cli"],
                          work, env)
        if res.rc != 0:
            raise SystemExit(f"import dyadwave.cli failed:\n{res.stderr}")
        walls.append(res.wall_s)
    return median(walls)


def corrupted_copy_fails(wl: Workload, work: Path, env: dict) -> bool:
    """Self-check of the gate: tampered basis values must fail verify."""
    bad = work / "art_corrupt"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(work / "art", bad)
    path = bad / "basis_values.csv"
    lines = path.read_text().splitlines(keepends=True)
    first, rest = lines[1].split(",", 1)
    lines[1] = f"{float(first) + 1e-3!r},{rest}"
    path.write_text("".join(lines))
    res = run_cli(["verify", "--artifacts", "art_corrupt"], work, env)
    caught = bool(check_command("verify", bad, wl, res))
    shutil.rmtree(bad, ignore_errors=True)
    return caught


def identical_trees(a: Path, b: Path) -> list:
    """Relative paths whose bytes differ between two artifact trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(p) for p in files_a ^ files_b) + sorted(
        str(p) for p in files_a & files_b
        if (a / p).read_bytes() != (b / p).read_bytes())


def self_times(spans) -> tuple:
    """Per-name summed self time and call count from [name, t0, t1, parent]."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    self_s, calls = {}, {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
        calls[name] = calls.get(name, 0) + 1
    return self_s, calls


PER_LAYER_TIMES = (
    "cli.cmd_build", "cli.cmd_verify", "cli.cmd_analyze", "cli.cmd_boundary",
    "cli.write_csv", "cli.write_json", "cli._write_text", "cli._load_matrix",
    "space.load_space_json", "space.compute_a0",
    "nets.build_nets", "nets.verify_nets",
    "randgrid.reference_order", "randgrid.grid_labels", "randgrid.grid_checks",
    "randgrid.boundary_layer_stats",
    "spline.compute_splines", "spline.verify_splines",
    "wavelet.build_mra", "wavelet.build_wavelet_basis",
    "wavelet.verify_wavelet_theorem", "wavelet.gram_decay_certificates",
    "decaymat.spectral_inverse_sqrt",
    "lpanalysis.build_lp", "lpanalysis.kernel_estimates",
    "lpanalysis.lp_equivalence", "lpanalysis.cz_kernel_bound",
    "lpanalysis.random_sign_operator",
)
PER_LAYER_CALLS = ("space.compute_a0", "randgrid.transition_parents",
                   "lpanalysis.lp_equivalence")
PER_LAYER_COUNTERS = {
    "cli.artifact_bytes": "bytes", "nets.level_count": "count",
    "nets.points_total": "count", "randgrid.coords_per_level": "count",
    "spline.values_nnz_frac": "frac",
}
PER_LAYER_PEAKS = ("wavelet.build_mra", "lpanalysis.build_lp")


def traced(args, wl: Workload, work: Path, env: dict) -> tuple:
    setup(wl, args.seed, work, env, 1)
    base = run_pass(wl, args.seed, work, env)
    ops = {f"untraced {c}": p for c, p in base["problems"].items()}
    if pass_failures(base):
        return len(ops), report(ops), {}

    plan = {"src": str(SRC), "cwd": str(work),
            "spans": str(work / "spans.json"),
            "commands": [[c, a] for c, a in
                         command_argv(wl, args.seed, "art_traced").items()]}
    (work / "plan.json").write_text(json.dumps(plan))
    shutil.rmtree(work / "art_traced", ignore_errors=True)
    res = run_process([sys.executable, str(HERE / "trace.py"), "plan.json"],
                      work, env)
    if res.rc != 0:
        raise SystemExit(f"traced run failed ({res.rc}):\n{res.stderr}")
    trace = load_json(work / "spans.json")

    for cmd, info in trace["commands"].items():
        tres = Result(info["rc"], info["end"] - info["start"], 0.0,
                      info["stdout"], "")
        ops[f"traced {cmd}"] = check_command(cmd, work / "art_traced", wl,
                                             tres)
    ops["traced files byte-identical"] = [
        f"{p} differs" for p in identical_trees(work / "art",
                                                work / "art_traced")]
    if args.seed == DEFAULT_SEED:
        labels = {k: trace["counters"][k] for k in ("L", "M")
                  if k in trace["counters"]}
        ops["reference values"] = check_reference(args.workload,
                                                  work / "art", labels)
    ops["gate self-check"] = ([] if corrupted_copy_fails(wl, work, env)
                              else ["corrupted basis values passed verify"])
    failed = report(ops)

    self_s, calls = self_times(trace["spans"])
    metrics = {}
    absent = trace["absent"]

    def put(name, value, unit, key=None):
        if key in absent:
            metrics[name] = (0.0, unit, absent[key])
        else:
            metrics[name] = (value, unit)

    startup = startup_seconds(work, env)
    metrics["cli.startup_s"] = (startup, "s")
    for name in PER_LAYER_TIMES:
        put(f"{name}.s", self_s.get(name, 0.0), "s", name)
    for name in PER_LAYER_CALLS:
        put(f"{name}.calls", calls.get(name, 0), "count", name)
    for name, unit in PER_LAYER_COUNTERS.items():
        put(name, trace["counters"].get(name, 0), unit, name)
    for name in PER_LAYER_PEAKS:
        put(f"{name}.peak_mb", trace["peaks"].get(name, 0) / 2**20, "MB",
            name)
    for cmd in COMMANDS:
        metrics[f"{cmd}.peak_rss_mb"] = (base["results"][cmd].rss_mb, "MB")

    traced_wall = sum(info["end"] - info["start"]
                      for info in trace["commands"].values())
    untraced_wall = sum(base["results"][c].wall_s for c in COMMANDS)
    metrics["trace.overhead_frac"] = (
        (traced_wall + startup * len(COMMANDS)) / untraced_wall - 1.0, "frac")
    coverage = []
    for cmd, info in trace["commands"].items():
        top = sum(t1 - t0 for _, t0, t1, parent, run in trace["spans"]
                  if parent is None and run == cmd)
        coverage.append(top / (info["end"] - info["start"]))
    metrics["trace.coverage"] = (min(coverage), "frac")
    return len(ops), failed, metrics


# ---------------------------------------------------------------------------

def environment(seed: int, work: Path, pinned_cpu: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
           "pinned_cpu": pinned_cpu, "python": platform.python_version()}
    config = work / "art" / "build_config.json"
    if config.exists():
        versions = load_json(config).get("versions", {})
        env.update(numpy=versions.get("numpy"), scipy=versions.get("scipy"))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dyadwave" / "cli.py").is_file():
        print(f"error: no dyadwave sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = cli_env()
    pinned_cpu = pin_to_one_cpu()
    run = traced if args.trace else end_to_end
    attempted, failed, metrics = run(args, wl, work, env)
    print("env: " + json.dumps(environment(args.seed, work, pinned_cpu),
                               sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: dict(zip(("value", "unit", "absent"), m))
                    for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
