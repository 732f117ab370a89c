"""Command-line front-end: simulate, fit, and report subcommands.

Configuration precedence is flag > config file > default.  Machine files
carry full binary64 reprs; human tables use 6 significant digits.  Exit
codes: 0 success, 2 input error or degenerate fit, 3 sampler failure, 4
convergence failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import re
import sys
from array import array
from collections import Counter, namedtuple

import numpy as np

from .diagnostics import (
    HPDI_MIN_SAMPLES,
    DegenerateFitError,
    component_summary,
    hard_assignments,
    relabel,
    rhat,
)
from .model import (
    CovariateColumn,
    Dataset,
    ModelSpec,
    generate_synthetic,
)
from .sampler import SamplerConfig, SamplerError, Trace, run_chains
from . import traceio
from .traceio import DataError

__all__ = [
    "DataError",
    "EXIT_OK",
    "EXIT_INPUT",
    "EXIT_SAMPLER",
    "EXIT_CONVERGENCE",
    "ingest",
    "export_dataset",
    "parse_config",
    "run",
    "main",
    "DEMO_TRUTH",
]

log = logging.getLogger("countmix")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SAMPLER = 3
EXIT_CONVERGENCE = 4


# Canonical demo configuration: three components shaped like the reference
# prevalences 6%/58%/37% with predictive count modes near 5, 24, and 39.
DEMO_TRUTH = {
    "weights": [420 / 7118, 4091 / 7118, 2607 / 7118],
    "beta": [
        [1.8625, 0.05, 0.60, 0.25, -0.20],
        [2.6568, -0.02, 0.25, 0.85, 0.50],
        [4.1851, 0.01, -0.25, -0.75, -0.50],
    ],
    "psi": [2.5, 150.0, 150.0],
    "covariates": [
        ["age_std", "normal"],
        ["sex", "binary", 0.5],
        ["chemo", "binary", 0.5],
        ["metastases_std", "normal"],
    ],
    "n": 7118,
    "seed": 20260825,
}

DEMO_TRUTH_ZINB = dict(DEMO_TRUTH, pi=[0.3, 0.05, 0.0])


def _sig6(x: float) -> str:
    return f"{x:.6g}"


# type() is compared exactly: JSON true and false load as bool, a subclass of int.
def _is_number(v) -> bool:
    return type(v) is int or type(v) is float and math.isfinite(v)


def _is_list(v, valid, d: int | None = None) -> bool:
    return type(v) is list and d in (None, len(v)) and all(map(valid, v))


def _json_field(doc, source: str, fields: dict, key: str, d: int | None = None):
    """The value at a dotted key of a JSON document.  fields[key] holds what it
    must be and a test of it given d, then optionally the same for each entry
    of a list; a DataError names a missing field or the field or entry that fails."""
    value = doc
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise DataError(f"{source} has no {key!r} field")
        value = value[part]
    want, valid, *entry = fields[key]
    if not valid(value, d):
        raise DataError(f"{source} field {key!r} must be {want.format(d=d)}, "
                        f"not {json.dumps(value)}")
    for i, v in enumerate(value if entry else ()):
        if not entry[1](v):
            raise DataError(f"{source} {key!r} entry {i} must be {entry[0]}, not {json.dumps(v)}")
    return value


# ---------------------------------------------------------------------------
# configuration files


def parse_config(path: str) -> dict:
    """Simple ``key = value`` file; '#' starts a comment."""
    out: dict[str, str] = {}
    with traceio.reading(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# Each simulate and fit setting, declared once: its flag is --key with "_" written
# as "-", and a config file may hold exactly these keys.  A default of None leaves
# the value to the ModelSpec and SamplerConfig defaults or to the params file.
Setting = namedtuple("Setting", "key type default choices help",
                     defaults=(str, None, None, None))
_MODEL = Setting("model", choices=("nb", "zinb"))
SETTINGS = {
    "simulate": (_MODEL, Setting("n", int), Setting("seed", int),
                 Setting("out", default="simulated")),
    "fit": (
        Setting("input"), _MODEL, Setting("outcome", default="y"),
        Setting("categorical", default="",
                help="'col=ref' or 'col=ref:lev1|lev2'; ';'-separated"),
        Setting("kmax", int), Setting("alpha0", float), Setting("m0", float),
        Setting("s0", float), Setting("a0", float), Setting("b0", float),
        Setting("iters", int), Setting("burnin", int), Setting("thin", int),
        Setting("chains", int), Setting("seed", int), Setting("target_accept", float),
        Setting("rhat_threshold", float, 1.1), Setting("occupancy_threshold", float, 0.01),
        Setting("out", default="fit_out"),
    ),
}
# Setting keys whose dataclass field has another name.
_FIELD_NAMES = {"model": "variant", "kmax": "k_max", "iters": "iterations", "burnin": "burn_in",
                "seed": "master_seed"}


def _settings(command: str, args) -> dict:
    """Every setting of the command, taken from flag > config file > default."""
    config = parse_config(args.config) if args.config else {}
    table = SETTINGS[command]
    unknown = sorted(set(config) - {s.key for s in table})
    if unknown:
        raise DataError(f"unknown config key {', '.join(map(repr, unknown))} for {command}; "
                        f"valid keys: {', '.join(sorted(s.key for s in table))}")
    values = {}
    for s in table:
        value = getattr(args, s.key)
        if value is None and s.key in config:
            try:
                value = s.type(config[s.key])
            except ValueError as exc:
                raise DataError(f"config key {s.key}: cannot parse {config[s.key]!r}") from exc
            if s.choices and value not in s.choices:
                raise DataError(f"config key {s.key}: {value!r} is not one of {s.choices}")
        values[s.key] = s.default if value is None else value
    return values


def _parse_categorical(spec_str: str) -> dict:
    """'col=ref' or 'col=ref:lev1|lev2|...'; multiple separated by ';'."""
    out = {}
    for part in spec_str.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DataError(f"bad categorical directive {part!r} (want col=reference)")
        col, rest = part.split("=", 1)
        if ":" in rest:
            ref, levels = rest.split(":", 1)
            out[col.strip()] = (ref.strip(), tuple(s.strip() for s in levels.split("|")))
        else:
            out[col.strip()] = (rest.strip(), None)
    return out


# ---------------------------------------------------------------------------
# ingestion

# C0 and C1 control characters: a bare carriage return in a column name, in a
# category level that names a dummy column, or in the reference level, which
# assignments.csv holds, would not survive the CSV files a fit writes.
_CONTROL_CHAR = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_INT64_MAX = np.iinfo(np.int64).max


def _check_column_names(source: str, header, outcome: str, names):
    """The column-name rule of ingest and simulate.  Each header cell and each of names,
    the covariate columns made from the header, is non-empty and free of control
    characters; none repeats among outcome, "intercept" and names, which head columns."""
    final = [outcome, "intercept", *names]
    for name in [*header, *names]:
        if not name:
            raise DataError(f"{source}: column {header.index(name) + 1} has an empty name")
        if _CONTROL_CHAR.search(name):
            raise DataError(f"{source}: column name {name!r} holds a control character")
        if final.count(name) > 1:
            raise DataError(f"{source}: duplicate column name {name!r}")


def ingest(path: str, categorical: dict | None = None, outcome: str = "y") -> Dataset:
    """Read a delimited table into a Dataset.

    Declared categorical columns are dummy-coded against their reference
    level; an intercept column is prepended.  The raw values of declared
    categorical columns are retained on the returned Dataset (attribute
    ``categorical_raw``) for cross-tabulation at report time.
    """
    categorical = categorical or {}
    with traceio.reading(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise DataError(f"{path}: empty input file")
        delim = "\t" if "\t" in first else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delim)
        header = next(reader)
        # Blank lines are skipped, so messages take each row's line from
        # lines.  An array, not one int object per row: those would stay in
        # the heap that the forked chain workers inherit.
        rows, lines = [], array("l")
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append(row)
                lines.append(reader.line_num)
    header = [h.strip() for h in header]
    if outcome not in header:
        raise DataError(f"{path}: outcome column {outcome!r} not in header")
    for col in categorical:
        if col not in header or col == outcome:
            raise DataError(f"{path}: categorical column {col!r} "
                            + ("is the outcome column" if col == outcome else "not in header"))
        # report writes a file named after the column, crosstab_<column>.csv.
        if {os.sep, os.altsep} & set(col):
            raise DataError(f"{path}: categorical column {col!r} holds a path separator")
    if not rows:
        raise DataError(f"{path}: no data rows")
    y_idx = header.index(outcome)

    y = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        lineno = lines[i]
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        cell = row[y_idx].strip()
        try:
            val = int(cell)
        except ValueError:
            raise DataError(f"{path}:{lineno}: outcome {cell!r} is not an integer") from None
        if val < 0:
            raise DataError(f"{path}:{lineno}: outcome {val} is negative")
        if val > _INT64_MAX:
            raise DataError(f"{path}:{lineno}: outcome {val} is too large")
        y[i] = val

    columns: list[np.ndarray] = [np.ones(len(rows))]
    names: list[str] = ["intercept"]
    cat_raw: dict[str, np.ndarray] = {}
    for j, h in enumerate(header):
        if j == y_idx:
            continue
        values = [row[j].strip() for row in rows]
        if h in categorical:
            ref, allowed = categorical[h]
            if allowed is not None:
                for i, v in enumerate(values):
                    if v not in allowed:
                        raise DataError(f"{path}:{lines[i]}: unknown category {v!r} "
                                        f"in column {h!r}")
            present = set(values)
            levels = sorted(present if allowed is None else allowed)
            if ref not in present:
                raise DataError(f"{path}: reference level {ref!r} absent from column {h!r}")
            if _CONTROL_CHAR.search(ref):
                raise DataError(f"{path}: reference level {ref!r} of column {h!r} "
                                "holds a control character")
            for lev in levels:
                if lev == ref:
                    continue
                columns.append(np.array([1.0 if v == lev else 0.0 for v in values]))
                names.append(f"{h}={lev}")
            cat_raw[h] = np.array(values)
        else:
            parsed = np.empty(len(values))
            for i, v in enumerate(values):
                try:
                    parsed[i] = float(v)
                except ValueError:
                    raise DataError(
                        f"{path}:{lines[i]}: non-numeric value {v!r} in column {h!r} "
                        "(declare it categorical?)"
                    ) from None
                if not math.isfinite(parsed[i]):
                    raise DataError(f"{path}:{lines[i]}: non-finite value {v!r} in column {h!r}")
            columns.append(parsed)
            names.append(h)
    _check_column_names(path, header, outcome, names[1:])
    data = Dataset(y=y, X=np.column_stack(columns), column_names=names)
    for j in np.flatnonzero(np.all(data.X[:, 1:] == data.X[0, 1:], axis=0)):
        log.warning("column %r is constant", names[j + 1])
    data.categorical_raw = cat_raw
    log.info("ingested %d rows, columns: %s", data.n, ", ".join(names))
    return data


def export_dataset(data: Dataset, path: str):
    """Write a Dataset back to csv, outcome column y (intercept column omitted)."""
    traceio.write_csv(
        path,
        ["y"] + list(data.column_names[1:]),
        ([str(yv)] + [repr(v) for v in row]
         for yv, row in zip(data.y.tolist(), data.X[:, 1:].tolist())),
    )


# ---------------------------------------------------------------------------
# simulate


# The simulate --params fields and the JSON types each must hold (see _json_field);
# pi, n and seed may be left out.  generate_synthetic checks lengths and values.
_NUMBERS = ("a list of finite numbers", lambda v, d: _is_list(v, _is_number))
_INTEGER = ("an integer", lambda v, d: type(v) is int)
PARAMS_FIELDS = {
    "weights": _NUMBERS, "psi": _NUMBERS, "pi": _NUMBERS, "n": _INTEGER, "seed": _INTEGER,
    "beta": ("a non-empty list of equal-length, non-empty lists of finite numbers",
             lambda v, d: type(v) is list and v != [] and type(v[0]) is list and v[0] != []
             and all(_is_list(row, _is_number, len(v[0])) for row in v)),
    "covariates": ("a list", lambda v, d: type(v) is list, "[name, kind] or [name, kind, number]",
                   lambda e: type(e) is list and len(e) in (2, 3)
                   and all(type(v) is str for v in e[:2]) and all(map(_is_number, e[2:]))),
}


def cmd_simulate(args) -> int:
    settings = _settings("simulate", args)
    if args.params:
        source = f"params file {args.params}"
        with traceio.reading(args.params) as fh:
            truth = json.load(fh)
        if not isinstance(truth, dict):
            raise DataError(f"{source} must hold a JSON object")
        for key in PARAMS_FIELDS:
            if key in truth or key not in ("pi", "n", "seed"):
                _json_field(truth, source, PARAMS_FIELDS, key)
        names = [e[0] for e in truth["covariates"]]
        _check_column_names(source, ["y", *names], "y", names)
    else:
        truth = DEMO_TRUTH_ZINB if settings["model"] == "zinb" else DEMO_TRUTH
    n, seed = (truth.get(key, default) if settings[key] is None else settings[key]
               for key, default in (("n", 1000), ("seed", 0)))
    # A ValueError here is an input error (see run); --out is made only after.
    data, z_true = generate_synthetic(
        truth["weights"], truth["beta"], truth["psi"], n,
        [CovariateColumn(*e) for e in truth["covariates"]], seed, pi=truth.get("pi"))
    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    export_dataset(data, os.path.join(out_dir, "data.csv"))
    traceio.write_json(os.path.join(out_dir, "truth.json"),
                       dict(truth, n=n, seed=seed, z=[int(v) for v in z_true]))
    print(f"wrote {data.n} rows to {out_dir}/data.csv (ground truth in truth.json)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _fit_settings(args):
    settings = _settings("fit", args)
    if not settings["input"]:
        raise DataError("fit requires --input (or 'input' in the config file)")
    settings["categorical"] = _parse_categorical(settings["categorical"])
    if not math.isfinite(settings["rhat_threshold"]):
        raise DataError(f"rhat_threshold must be finite, not {settings['rhat_threshold']}")
    if not 0.0 <= settings["occupancy_threshold"] <= 1.0:
        raise DataError("occupancy_threshold must lie in [0, 1], "
                        f"not {settings['occupancy_threshold']}")
    named = {_FIELD_NAMES.get(k, k): v for k, v in settings.items() if v is not None}
    spec, sampler_cfg = (
        cls(**{f.name: named[f.name] for f in dataclasses.fields(cls) if f.name in named})
        for cls in (ModelSpec, SamplerConfig))
    # HPD intervals need HPDI_MIN_SAMPLES pooled states and R-hat 4 per chain.
    stored, chains = sampler_cfg.n_stored, sampler_cfg.chains
    if stored * chains < HPDI_MIN_SAMPLES or (chains > 1 and stored < 4):
        raise DataError(f"the fit would store {stored} states per chain, {stored * chains} "
                        f"in all; it needs at least {HPDI_MIN_SAMPLES} in all and, with two "
                        "or more chains, 4 per chain")
    return settings, spec, sampler_cfg


def _tracked_rhats(relabeled, summaries, column_names):
    """Split-chain R-hat for every occupied component's weight and betas."""
    occupied = [s.index for s in summaries if s.occupied]
    values = np.column_stack([
        rhat(np.stack([t.c[:, occupied] for t in relabeled])),
        rhat(np.stack([t.beta[:, occupied] for t in relabeled])),
    ])
    names = [name for j in occupied
             for name in [f"c[{j}]"] + [f"beta[{j}].{col}" for col in column_names]]
    return dict(zip(names, values.ravel().tolist()))


FIT_TABLES = ("prevalence.csv", "irr_forest.csv", "pmf_curves.csv")
REPORT_TABLES = ("prevalence_table.csv", "irr_table.csv", "pmf_table.csv")


def _write_tables(out_dir, summaries, column_names, filenames):
    """Write the prevalence, IRR and pmf tables under the given file names."""
    prevalence, irr, pmf = (os.path.join(out_dir, name) for name in filenames)
    occupied = [s for s in summaries if s.occupied]
    traceio.write_csv(
        prevalence,
        ["component", "mean", "hpdi_lo", "hpdi_hi", "occupied"],
        (
            [str(s.index), repr(s.prevalence_mean), repr(s.prevalence_hpdi[0]),
             repr(s.prevalence_hpdi[1]), str(int(s.occupied))]
            for s in summaries
        ),
    )
    traceio.write_csv(
        irr,
        ["component", "covariate", "mean", "hpdi_lo", "hpdi_hi", "excludes_one"],
        (
            [str(s.index), col, repr(float(s.irr_mean[dd])),
             repr(float(s.irr_hpdi[dd, 0])), repr(float(s.irr_hpdi[dd, 1])),
             str(int(s.irr_excludes_one[dd]))]
            for s in occupied for dd, col in enumerate(column_names)
        ),
    )
    traceio.write_csv(
        pmf,
        ["component", "y", "probability"],
        ([str(s.index), str(yv), repr(float(p))] for s in occupied for yv, p in enumerate(s.pmf)),
    )


def _write_fit_outputs(out_dir, data, spec, sampler_cfg, settings, relabeled,
                       summaries, assignments, rhats, reference_x):
    report_inputs = ["assignments.csv", "run_meta.json"]
    for i, trace in enumerate(relabeled):
        report_inputs.append(f"chain_{i}.csv")
        traceio.save_trace(trace, os.path.join(out_dir, report_inputs[-1]))

    _write_tables(out_dir, summaries, data.column_names, FIT_TABLES)

    cat_raw = data.categorical_raw
    cat_cols = sorted(cat_raw)
    traceio.write_csv(
        os.path.join(out_dir, "assignments.csv"),
        ["row", "component"] + cat_cols,
        (
            [str(i), str(int(assignments[i]))] + [str(cat_raw[c][i]) for c in cat_cols]
            for i in range(data.n)
        ),
    )

    meta = {
        "model": dataclasses.asdict(spec),
        "sampler": dataclasses.asdict(sampler_cfg),
        "column_names": list(data.column_names),
        "reference_x": [float(v) for v in reference_x],
        "y_max": int(data.y.max()),
        "n": data.n,
        "occupied": [s.index for s in summaries if s.occupied],
        "occupancy_threshold": settings["occupancy_threshold"],
        # Strict JSON has no inf: a non-finite R-hat is recorded as null.
        "rhat": {k: (v if math.isfinite(v) else None) for k, v in rhats.items()},
        "rhat_threshold": settings["rhat_threshold"],
        "categorical": {c: settings["categorical"][c][0] for c in settings["categorical"]},
    }
    traceio.write_json(os.path.join(out_dir, "run_meta.json"), meta)
    traceio.write_checksums(out_dir, report_inputs)


def _component_tables(summaries, column_names) -> list[str]:
    """The prevalence and IRR tables of summary.txt, also printed by report."""
    occupied = [s for s in summaries if s.occupied]
    lines = [f"occupied components: {len(occupied)}", "",
             "component  prevalence  hpdi_lo  hpdi_hi  count_mode  empirical_mode"]
    for s in occupied:
        emp = "-" if s.empirical_mode is None else str(s.empirical_mode)
        lines.append(
            f"{s.index:>9d}  {_sig6(s.prevalence_mean):>10s}  "
            f"{_sig6(s.prevalence_hpdi[0]):>7s}  {_sig6(s.prevalence_hpdi[1]):>7s}  "
            f"{s.count_mode:>10d}  {emp:>14s}"
        )
    lines.append("")
    lines.append("incidence rate ratios (posterior mean of exp(beta), 95% HPDI)")
    lines.append("component  covariate  irr  hpdi_lo  hpdi_hi  excludes_1")
    for s in occupied:
        for dd, col in enumerate(column_names):
            lines.append(
                f"{s.index:>9d}  {col}  {_sig6(float(s.irr_mean[dd]))}  "
                f"{_sig6(float(s.irr_hpdi[dd, 0]))}  {_sig6(float(s.irr_hpdi[dd, 1]))}  "
                f"{'yes' if s.irr_excludes_one[dd] else 'no'}"
            )
    return lines


def _summary_text(data, spec, sampler_cfg, summaries, rhats, relabeled):
    lines = []
    lines.append("countmix fit summary")
    lines.append("====================")
    lines.append(f"model: {spec.variant}  k_max: {spec.k_max}  alpha0: {_sig6(spec.alpha0)}")
    lines.append(f"observations: {data.n}  covariate columns: {data.d}")
    lines.append(f"chains: {sampler_cfg.chains}  iterations: {sampler_cfg.iterations}  "
                 f"burn_in: {sampler_cfg.burn_in}  thin: {sampler_cfg.thin}  "
                 f"seed: {sampler_cfg.master_seed}")
    lines.append("")
    lines += _component_tables(summaries, data.column_names)
    lines.append("")
    if rhats:
        lines.append("split-chain R-hat (tracked scalars)")
        for name in sorted(rhats):
            lines.append(f"  {name}: {_sig6(rhats[name])}")
    else:
        lines.append("R-hat unavailable (single chain)")
    lines.append("")
    lines.append("acceptance rates after adaptation "
                 "(per chain, weighted by component row counts)")
    for i, trace in enumerate(relabeled):
        rb = _sig6(trace.accept_rates["beta_weighted"])
        rp = _sig6(trace.accept_rates["psi_weighted"])
        lines.append(f"  chain {i}: beta {rb}  psi {rp}")
    lines.append("")
    return "\n".join(lines) + "\n"


def cmd_fit(args) -> int:
    settings, spec, sampler_cfg = _fit_settings(args)
    data = ingest(settings["input"], settings["categorical"], settings["outcome"])
    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    if sampler_cfg.chains == 1:
        log.warning("single chain requested: R-hat is unavailable; "
                    "multiple chains are recommended")
    traces = run_chains(spec, data, sampler_cfg)
    reference_x = data.X.mean(axis=0)
    relabeled = relabel(traces, reference_x=reference_x,
                        weight_floor=settings["occupancy_threshold"])
    assignments = hard_assignments(relabeled, data)
    summaries = component_summary(relabeled, int(data.y.max()), reference_x,
                                  settings["occupancy_threshold"])
    for s in summaries:
        members = data.y[assignments == s.index]
        if members.size:
            s.empirical_mode = int(np.argmax(np.bincount(members)))
    rhats = (
        _tracked_rhats(relabeled, summaries, data.column_names)
        if sampler_cfg.chains >= 2 else {}
    )
    _write_fit_outputs(out_dir, data, spec, sampler_cfg, settings, relabeled,
                       summaries, assignments, rhats, reference_x)
    traceio.write_text(os.path.join(out_dir, "summary.txt"),
                       _summary_text(data, spec, sampler_cfg, summaries, rhats, relabeled))
    print(f"fit complete: {len([s for s in summaries if s.occupied])} occupied "
          f"components; outputs in {out_dir}")
    bad = {k: v for k, v in rhats.items() if v > settings["rhat_threshold"]}
    if bad:
        worst = max(bad, key=bad.get)
        print(f"convergence failure: R-hat {_sig6(bad[worst])} for {worst} "
              f"exceeds {settings['rhat_threshold']}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


# The run_meta.json fields report reads, each with what it must hold given d, the chain
# headers' covariate count (see _json_field); sampler.chains says which chains to read.
REPORT_META_FIELDS = {
    "sampler.chains": ("an integer >= 1", lambda v, d: type(v) is int and v >= 1),
    "y_max": ("an integer >= 0", lambda v, d: type(v) is int and v >= 0),
    "reference_x": ("a list of {d} finite numbers, the first 1 (the intercept)",
                    lambda v, d: _is_list(v, _is_number, d) and v[0] == 1),
    "occupancy_threshold": ("a finite number", lambda v, d: _is_number(v)),
}


def cmd_report(args) -> int:
    """Re-render the fit's tables from the files its checksums.txt verifies."""
    trace_dir = args.traces
    out_dir = args.out or trace_dir
    verified = traceio.verify_checksums(trace_dir)

    def verified_path(name):
        if name not in verified:
            raise DataError(f"{name} is not listed in {trace_dir}/checksums.txt; re-run the fit")
        return os.path.join(trace_dir, name)

    with traceio.reading(verified_path("run_meta.json")) as fh:
        meta = json.load(fh)
    traces = []
    for cid in range(_json_field(meta, "run_meta.json", REPORT_META_FIELDS, "sampler.chains")):
        name = f"chain_{cid}.csv"
        arrays, columns = traceio.load_trace(verified_path(name))
        traces.append(Trace(counts=None, column_names=columns, **arrays))
        # K, the covariate names and the model fix a chain file's header.
        if len({(t.k, t.column_names, t.pi is None) for t in (traces[0], traces[-1])}) > 1:
            raise DataError(f"the header of {name} differs from that of chain_0.csv")
        if len(traces[-1]) != len(traces[0]):
            raise DataError(f"{name} holds {len(traces[-1])} states, chain_0.csv {len(traces[0])}")
    column_names = traces[0].column_names
    y_max, reference_x, threshold = (
        _json_field(meta, "run_meta.json", REPORT_META_FIELDS, key, len(column_names))
        for key in list(REPORT_META_FIELDS)[1:])
    # The categorical columns for the cross-tabs follow row and component
    # in assignments.csv.
    assign_path = verified_path("assignments.csv")
    table = []
    with traceio.reading(assign_path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for row in reader if header[2:] else ():
            if len(row) != len(header) or not row[1].isdecimal():
                raise DataError(f"{assign_path}:{reader.line_num}: expected {len(header)} "
                                "fields, the second a component number")
            table.append(row)
    summaries = component_summary(traces, y_max, reference_x, threshold)
    os.makedirs(out_dir, exist_ok=True)
    _write_tables(out_dir, summaries, column_names, REPORT_TABLES)
    print("\n".join(_component_tables(summaries, column_names)))
    occupied = [s.index for s in summaries if s.occupied]
    for j, col in enumerate(header[2:], start=2):
        levels = sorted({row[j] for row in table})
        counts = Counter((int(row[1]), row[j]) for row in table)
        rows = []
        print(f"\nshare of {col} levels within each component (%)")
        print("component  " + "  ".join(levels))
        for k in occupied:
            n_k = [counts[k, lev] for lev in levels]
            total = sum(n_k)
            shares = [100.0 * n / total if total else 0.0 for n in n_k]
            rows.append([str(k)] + [repr(s) for s in shares])
            print(f"{k:>9d}  " + "  ".join(_sig6(s) for s in shares))
        traceio.write_csv(os.path.join(out_dir, f"crosstab_{col}.csv"),
                          ["component"] + levels, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="countmix",
        description="Dirichlet-prior mixtures of Negative Binomial regressions "
                    "for count outcomes, fit by multi-chain MCMC.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--params", help="JSON file with generating parameters")
    fit = sub.add_parser("fit", help="fit the mixture model")
    for cmd, command, func in ((sim, "simulate", cmd_simulate), (fit, "fit", cmd_fit)):
        cmd.add_argument("--config", help="key=value config file")
        for s in SETTINGS[command]:
            cmd.add_argument("--" + s.key.replace("_", "-"), type=s.type,
                             choices=s.choices, help=s.help)
        cmd.set_defaults(func=func)

    rep = sub.add_parser("report", help="render tables from persisted traces")
    rep.add_argument("--traces", required=True, help="fit output directory")
    rep.add_argument("--out", help="directory for rendered tables (default: traces dir)")
    rep.set_defaults(func=cmd_report)
    return parser


def run(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    # Like stderr, stdout escapes what the locale cannot encode (a covariate
    # name in report's tables) rather than failing after the files are written.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ValueError, OSError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateFitError as exc:
        print(f"degenerate fit: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SamplerError as exc:
        print(f"sampler failure: {exc}", file=sys.stderr)
        return EXIT_SAMPLER


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
