"""countmix benchmark: fit and report wall time, ESS/s and peak RSS.

Run from the repository root:

    python3 perfbench/run.py --workload nb-7118 --seed 0 --seconds 60 --trace 0

With ``--trace 0`` the benchmark drives the real CLI as child processes
(``countmix fit``, then ``countmix report``) and prints the end-to-end
metrics.  With ``--trace 1`` it runs one fit and report inside this process
with every public function of the six countmix modules wrapped, and prints
the per-layer metrics (see tracing.py).  ``--quick`` shrinks every fit so the
whole harness runs in well under a minute; it is what test_quick.py uses.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is taken
from ``src/`` of the checkout this file sits in; the benchmark exits with
status 2 and no result when it is missing.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# One BLAS/OpenMP thread per process: the fit's own pool already runs
# min(chains, cpu_count) workers, so this keeps busy threads at nproc.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402  (after pinning, so this process is pinned too)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# On shared machines the speed can change from one stretch of seconds to
# the next, so the short set-up and report timings are sampled across the
# run rather than in one burst: SETUP_BEFORE set-ups before the first fit,
# REPORT_REPEATS reports after each fit, one set-up after every report, and
# more report and set-up pairs on the last fit until the run's time is spent.
SETUP_BEFORE = 4
REPORT_REPEATS = 4
CHILD_TIMEOUT_S = 170.0

FIT_OUTPUTS = ("checksums.txt", "prevalence.csv", "irr_forest.csv",
               "pmf_curves.csv", "assignments.csv", "run_meta.json",
               "summary.txt") + tuple(f"chain_{c}.csv" for c in range(wl.CHAINS))
REPORT_OUTPUTS = ("prevalence_table.csv", "irr_table.csv", "pmf_table.csv")

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "report_s": "s",
    "fit_peak_rss_mb": "MB",
    "report_peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, the program is missing)."""


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    # Children may cache bytecode, as an installed package would, so that
    # setup_s does not depend on whether the caller's environment allows it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path):
    """Run argv to completion; return (exit code, wall s, peak RSS MB).

    Peak RSS comes from wait4's rusage, which on Linux is the largest RSS of
    the child and of every descendant it waited for (the chain workers).
    """
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def countmix_cmd(*args) -> list:
    return [sys.executable, "-m", "countmix.cli", *args]


def fit_args(workload, seed, csv_path, out_dir, iters, burn_in) -> list:
    return ["fit", "--input", csv_path, "--model", workload.model,
            "--iters", str(iters), "--burnin", str(burn_in),
            "--chains", str(wl.CHAINS), "--kmax", str(wl.K_MAX),
            "--seed", str(seed), "--out", out_dir]


def report_args(fit_dir, out_dir) -> list:
    return ["report", "--traces", fit_dir, "--out", out_dir]


def prevalence_means(fit_dir) -> list:
    with open(os.path.join(fit_dir, "prevalence.csv"), newline="") as fh:
        return [float(row["mean"]) for row in csv.DictReader(fh)]


def recovery_miss(prevalences, truth_weights) -> float:
    """Largest gap between the sorted truth and the heaviest prevalences."""
    top = sorted(prevalences, reverse=True)[:len(truth_weights)]
    return max(abs(a - b) for a, b in zip(top, sorted(truth_weights, reverse=True)))


def load_chains(fit_dir) -> list:
    from countmix import traceio

    return [traceio.load_trace(os.path.join(fit_dir, f"chain_{c}.csv"))[0]
            for c in range(wl.CHAINS)]


def check_outputs(fit_code, report_code, fit_dir, report_dir, truth_weights,
                  check_recovery) -> list:
    """Reasons the run failed; empty when its outputs are correct.

    ``fit`` may exit 0 or 4 (4 is the documented R-hat outcome); ``report``
    must exit 0, which means the trace checksums verified.  On exit 0 the
    fit's pooled prevalence table must recover the truth.  Exit 4 says the
    chains disagree, which at N = 7118 happens when a chain is still in a
    split-component mode; then at least one chain's posterior means must
    recover the truth, which a wrong likelihood or sampler would not give.
    """
    problems = []
    if fit_code not in (0, 4):
        problems.append(f"fit exited {fit_code}")
    if report_code != 0:
        problems.append(f"report exited {report_code}")
    for directory, names in ((fit_dir, FIT_OUTPUTS), (report_dir, REPORT_OUTPUTS)):
        problems += [f"missing {name}" for name in names
                     if not os.path.isfile(os.path.join(directory, name))]
    if problems or not check_recovery:
        return problems
    if fit_code == 0:
        miss = recovery_miss(prevalence_means(fit_dir), truth_weights)
        where = "pooled prevalences"
    else:
        miss = min(recovery_miss(chain["c"].mean(axis=0), truth_weights)
                   for chain in load_chains(fit_dir))
        where = "every chain's prevalences"
    if miss > wl.PREVALENCE_TOLERANCE:
        problems.append(f"{where} miss the truth by {miss:.4f} "
                        f"> {wl.PREVALENCE_TOLERANCE}")
    return problems


def tracked_ess(fit_dir, n_tracked) -> list:
    """Pooled ESS of c, beta and psi of the n_tracked heaviest components.

    Pooled ESS is the sum over chains of ``diagnostics.ess`` on the chain
    CSVs the fit persisted, read back with ``traceio.load_trace``.
    """
    from countmix import diagnostics

    slots = np.argsort(prevalence_means(fit_dir))[::-1][:n_tracked]
    chains = load_chains(fit_dir)
    series = []
    for j in slots:
        series.append([t["c"][:, j] for t in chains])
        series.append([t["psi"][:, j] for t in chains])
        for d in range(chains[0]["beta"].shape[2]):
            series.append([t["beta"][:, j, d] for t in chains])
    return [sum(diagnostics.ess(x) for x in per_chain) for per_chain in series]


def output_counts(fit_dir) -> dict:
    """Exact counts that repeat at a fixed seed, read from the fit's outputs."""
    with open(os.path.join(fit_dir, "run_meta.json")) as fh:
        meta = json.load(fh)
    sampler = meta["sampler"]
    per_chain = (sampler["iterations"] - sampler["burn_in"]) // sampler["thin"]
    written = sum(os.path.getsize(os.path.join(fit_dir, f"chain_{c}.csv"))
                  for c in range(sampler["chains"]))
    return {
        "stored_states": per_chain * sampler["chains"],
        "traceio.mb_written": written / 1e6,
        "occupied_components": len(meta["occupied"]),
    }


def time_setup(csv_path, log_path) -> float:
    """Wall time for a fresh process to import countmix and ingest the CSV."""
    argv = [sys.executable, "-c",
            "import sys, countmix, countmix.cli; countmix.cli.ingest(sys.argv[1])",
            csv_path]
    code, wall, _ = run_child(argv, log_path)
    if code != 0:
        raise BenchmarkError(f"ingest failed (exit {code}); see {log_path}")
    return wall


def prepare(workload):
    if not os.path.isfile(os.path.join(SRC, "countmix", "cli.py")):
        raise BenchmarkError(f"countmix sources not found under {SRC}")
    run_dir = os.path.join(WORK, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    csv_path = os.path.join(run_dir, "data.csv")
    truth_weights = wl.write_dataset(workload, csv_path)
    return run_dir, csv_path, truth_weights


def untraced_run(workload, seed, seconds, quick) -> dict:
    started = time.perf_counter()
    run_dir, csv_path, truth_weights = prepare(workload)
    iters, burn_in = wl.fit_length(workload, traced=False, quick=quick)
    setup_log = os.path.join(run_dir, "setup.log")
    time_setup(csv_path, setup_log)  # fills the bytecode and file caches
    setup_times = [time_setup(csv_path, setup_log)
                   for _ in range(1 if quick else SETUP_BEFORE)]

    pair_s = []

    def report_and_setup(cycle):
        t0 = time.perf_counter()
        cycle["reports"].append(run_child(
            countmix_cmd(*report_args(cycle["fit_dir"], cycle["report_dir"])),
            os.path.join(run_dir, "report.log")))
        setup_times.append(time_setup(csv_path, setup_log))
        pair_s.append(time.perf_counter() - t0)

    def elapsed():
        return time.perf_counter() - started

    cycles = []
    while not cycles or elapsed() + statistics.mean(c["cycle_s"] for c in cycles) <= seconds:
        i = len(cycles)
        t0 = time.perf_counter()
        fit_dir = os.path.join(run_dir, f"fit{i}")
        fit_code, fit_s, fit_rss = run_child(
            countmix_cmd(*fit_args(workload, seed, csv_path, fit_dir, iters, burn_in)),
            os.path.join(run_dir, f"fit{i}.log"))
        cycle = {"fit_code": fit_code, "fit_s": fit_s, "fit_peak_rss_mb": fit_rss,
                 "fit_dir": fit_dir, "report_dir": os.path.join(run_dir, f"report{i}"),
                 "reports": []}
        cycles.append(cycle)
        for _ in range(1 if quick else REPORT_REPEATS):
            report_and_setup(cycle)
        cycle["cycle_s"] = time.perf_counter() - t0
    while not quick and elapsed() + statistics.median(pair_s) <= seconds:
        report_and_setup(cycles[-1])

    for i, c in enumerate(cycles):
        c["report_s"] = [wall for _, wall, _ in c["reports"]]
        report_code = next((code for code, _, _ in c["reports"] if code != 0), 0)
        c["problems"] = check_outputs(c["fit_code"], report_code, c["fit_dir"],
                                      c["report_dir"], truth_weights,
                                      check_recovery=not quick)
        for problem in c["problems"]:
            print(f"cycle {i} failed: {problem}", file=sys.stderr)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "fit_s": statistics.median(c["fit_s"] for c in cycles),
        "report_s": statistics.median(t for c in cycles for t in c["report_s"]),
        "fit_peak_rss_mb": statistics.median(c["fit_peak_rss_mb"] for c in cycles),
        "report_peak_rss_mb": statistics.median(
            rss for c in cycles for _, _, rss in c["reports"]),
    }
    failed = sum(1 for c in cycles if c["problems"])
    good = [c for c in cycles if not c["problems"]]
    # ESS/s and fail_rate are printed but left out of the result's metrics:
    # across seeds ESS/s spreads far beyond any bound of at most 25%, and a
    # fail rate reads 0 when all is well.
    printed = {"fail_rate": (failed / len(cycles), "ratio")}
    counts = {}
    if good:
        # Chains are bit-identical across cycles of one seed, so one read of
        # the persisted chains gives every cycle's ESS.
        ess = tracked_ess(good[0]["fit_dir"], len(truth_weights))
        printed["ess_min_per_s"] = (min(ess) / metrics["fit_s"], "1/s")
        printed["ess_median_per_s"] = (statistics.median(ess) / metrics["fit_s"], "1/s")
        counts = output_counts(good[0]["fit_dir"])
        counts.update(ess_min=min(ess), ess_median=statistics.median(ess))

    print(f"workload {workload.name}  seed {seed}  {len(cycles)} cycle(s) of "
          f"{wl.CHAINS} chains x {iters} sweeps ({burn_in} burn-in)")
    for name, value in metrics.items():
        print(f"  {name:<20s} {value:12.6g} {END_TO_END_UNITS[name]}")
    for name, (value, unit) in printed.items():
        print(f"  {name:<20s} {value:12.6g} {unit}")
    print(f"  fit exit codes       {[c['fit_code'] for c in cycles]}")
    print(f"  fit_s per cycle      {[round(c['fit_s'], 3) for c in cycles]}")
    print(f"  report_s per cycle   {[[round(t, 3) for t in c['report_s']] for c in cycles]}")
    print(f"  setup_s samples      {[round(t, 3) for t in setup_times]}")
    for name, value in counts.items():
        print(f"  count {name:<26s} {value:.6g}")
    result = {
        "correct": not failed,
        "attempted": len(cycles),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in metrics.items()},
    }
    details = {"printed": {name: value for name, (value, _) in printed.items()},
               "counts": counts,
               "setup_s": setup_times,
               "cycles": [{k: c[k] for k in ("fit_code", "fit_s", "report_s")}
                          for c in cycles]}
    with open(os.path.join(run_dir, "details.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    return result


def traced_run(workload, seed, quick) -> dict:
    run_dir, csv_path, truth_weights = prepare(workload)
    iters, burn_in = wl.fit_length(workload, traced=True, quick=quick)
    fit_dir = os.path.join(run_dir, "fit")
    report_dir = os.path.join(run_dir, "report")
    result = tracing.traced_fit_and_report(
        fit_args(workload, seed, csv_path, fit_dir, iters, burn_in),
        report_args(fit_dir, report_dir),
        spans_path=os.path.join(WORK, f"spans-{workload.name}.jsonl"),
        log_path=os.path.join(run_dir, "traced.log"))
    # The traced fit is shorter than the untraced one, too short to recover
    # the prevalences reliably, so only exit codes and outputs are checked.
    problems = check_outputs(result.fit_code, result.report_code, fit_dir,
                             report_dir, truth_weights, check_recovery=False)
    if not problems:
        counts = output_counts(fit_dir)
        result.metrics["traceio.mb_written"] = (counts["traceio.mb_written"], "MB")
        result.metrics["diagnostics.occupied_components"] = (
            float(counts["occupied_components"]), "count")
    for problem in problems:
        print(f"traced run failed: {problem}", file=sys.stderr)
    print(f"workload {workload.name}  seed {seed}  traced, {wl.CHAINS} chains x "
          f"{iters} sweeps ({burn_in} burn-in) run in-process")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<44s} {value:14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": 1,
        "failed": int(bool(problems)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="run budget, set-up included; at least one fit is always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny fits that exercise the whole harness")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    sys.path.insert(0, SRC)
    try:
        if args.trace:
            result = traced_run(workload, args.seed, args.quick)
        else:
            result = untraced_run(workload, args.seed, args.seconds, args.quick)
    except (BenchmarkError, tracing.TracedRunFailed) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
