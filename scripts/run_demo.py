"""End-to-end demonstration: simulate a three-component dataset, fit it,
and render the report tables.

Runs the CLI entry points in-process so the script works from a source
checkout without installing console scripts.  The default settings are a
scaled-down version of the fit used in the acceptance suite; pass --full
for the 4 x 10000 configuration (takes a few minutes).
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from countmix.cli import run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_output",
                        help="directory for simulated data, traces, and tables")
    parser.add_argument("--model", choices=["nb", "zinb"], default="nb")
    parser.add_argument("--full", action="store_true",
                        help="run the full 4-chain, 10000-iteration fit")
    args = parser.parse_args()

    sim_dir = os.path.join(args.out, "simulated")
    fit_dir = os.path.join(args.out, "fit")
    rep_dir = os.path.join(args.out, "report")

    code = run(["simulate", "--model", args.model, "--out", sim_dir])
    if code != 0:
        return code

    fit_args = ["fit", "--input", os.path.join(sim_dir, "data.csv"),
                "--model", args.model, "--out", fit_dir]
    if not args.full:
        fit_args += ["--iters", "5000", "--burnin", "2500", "--chains", "2"]
    code = run(fit_args)
    if code != 0:
        return code

    code = run(["report", "--traces", fit_dir, "--out", rep_dir])
    if code == 0:
        print(f"\ndone; see {fit_dir}/summary.txt and the tables in {rep_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
