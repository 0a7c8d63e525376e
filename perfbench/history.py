#!/usr/bin/env python3
"""Run the benchmark over several seeds and append the result to the history.

    python3 perfbench/history.py --label seed-088b9d0 --seeds 10

For every workload in BENCHMARK.json this makes ``--seeds`` untraced runs
(seeds 0 .. N-1) and one traced run at seed 0, each as its own
``perfbench/run.py`` process, strictly one after another.  It writes
``perfbench/history/<label>.json`` with every raw value, and per
end-to-end metric the median, the quartiles and the spread (interquartile
distance over the median) that the acceptance rule compares with the
metric's bound.  A later change is compared against these files run with
the same benchmark code and settings.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(line[5:]) for line in lines
                if line.startswith("env: ")), {})
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summarize(runs: list, spec: list) -> dict:
    out = {}
    for metric in spec:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": metric["bound"],
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    entry = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.seeds):
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = run_once(name, 0, seconds, 1)
        entry["env"] = runs[0]["env"]
        entry["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": summarize(runs, bench["end_to_end"]),
            "traced": {"correct": traced["correct"],
                       "metrics": {k: v["value"]
                                   for k, v in traced["metrics"].items()}},
        }
        for metric, s in entry["workloads"][name]["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (> bound/3)"
            print(f"{name:16s} {metric:24s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} bound {s['bound']}{flag}")

    out = HERE / "history" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
