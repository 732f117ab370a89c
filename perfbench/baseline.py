"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json, run.py runs untraced once per seed
0-9, untraced three more times at the default seed (the same-seed spread),
and traced once at the default seed, each for BENCHMARK.json's run_seconds.
The output holds every run's figures and, per end-to-end metric, the median,
the quartiles and the spread (Q3 - Q1) / median that the bounds in
BENCHMARK.json are judged against.  It also records the machine: core count,
Python, numpy and BLAS versions and the thread pinning.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads as wl  # noqa: E402

SEEDS = 10            # untraced runs at seeds 0 .. SEEDS - 1
SAME_SEED_RUNS = 3    # further untraced runs at the default seed


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    record = {"seed": seed, "wall_s": wall,
              **json.loads(proc.stdout.strip().splitlines()[-1])}
    if not trace:
        with open(os.path.join(run.WORK, workload, "details.json")) as fh:
            record.update(json.load(fh))
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, "
          f"correct {record['correct']}", file=sys.stderr)
    return record


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarise(benchmark, runs) -> dict:
    """Spread of every end-to-end metric, and of the printed ESS/s, over runs."""
    if len(runs) < 2:
        return {}
    out = {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs])
           for m in benchmark["end_to_end"]}
    for key in ("ess_min_per_s", "ess_median_per_s"):
        values = [r["printed"][key] for r in runs if key in r["printed"]]
        if len(values) >= 2:
            out[key] = spread(values)
    return out


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pinning": run.PINNED_THREADS,
            "default_seed": wl.DEFAULT_SEED, "data_seed": wl.DATA_SEED}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seconds = benchmark["run_seconds"]
    summary = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs = [bench(name, seed, seconds, 0) for seed in range(SEEDS)]
        same_seed = [bench(name, wl.DEFAULT_SEED, seconds, 0)
                     for _ in range(SAME_SEED_RUNS)]
        summary["workloads"][name] = {
            "across_seeds": summarise(benchmark, runs),
            "same_seed": summarise(benchmark, same_seed),
            "failed": sum(r["failed"] for r in runs + same_seed),
            "attempted": sum(r["attempted"] for r in runs + same_seed),
            "runs": runs,
            "same_seed_runs": same_seed,
            "traced": bench(name, wl.DEFAULT_SEED, seconds, 1),
        }
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    for name, entry in summary["workloads"].items():
        for metric, stats in entry["across_seeds"].items():
            print(f"{name:<10s} {metric:<22s} median {stats['median']:10.4g}  "
                  f"spread {stats['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
