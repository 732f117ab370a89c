"""The text of every file countmix reads or writes, and persistence of sampled traces.

Every file is UTF-8.  ``reading`` opens each file countmix reads, skipping a
leading byte-order mark, and any fault met while reading it is a
``DataError`` that names the file.
``write_csv`` writes every table: fields are quoted only where they hold a
comma, a quote or a newline.  Each chain is one file in wide format: a
header row of parameter names (``c[j]``, ``beta[j].<column>``, ``psi[j]``,
then ``pi[j]`` for the zero-inflated model) and one row of full binary64
reprs per stored state.  A sha256 checksum manifest lists the files a fit
leaves for ``report``; ``verify_checksums`` checks every file it lists.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import warnings

import numpy as np

__all__ = ["DataError", "reading", "write_text", "write_json", "write_csv", "save_trace",
           "load_trace", "write_checksums", "verify_checksums"]

CHECKSUM_FILE = "checksums.txt"


class DataError(Exception):
    """Bad input data or configuration."""


@contextlib.contextmanager
def reading(path: str):
    """Open path as UTF-8 text, without a leading byte-order mark; a fault met
    while reading it names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error, json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_json(path: str, doc):
    write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_csv(path: str, header, rows):
    """Write a header and rows as CSV; float fields are written as their repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _param_names(k: int, d: int, column_names, zero_inflated: bool):
    names = [f"c[{j}]" for j in range(k)]
    names += [f"beta[{j}].{column_names[dd]}" for j in range(k) for dd in range(d)]
    names += [f"psi[{j}]" for j in range(k)]
    if zero_inflated:
        names += [f"pi[{j}]" for j in range(k)]
    return names


def save_trace(trace, path: str):
    """Write one chain's scalar parameters, one row per stored state.

    The header names the columns (see ``_param_names``); values are full
    binary64 reprs, so ``load_trace`` reads them back exactly.  Only the
    scalar parameters are persisted; reports that need hard assignments
    read the assignments file written at fit time.
    """
    s_count, k = trace.c.shape
    d = trace.beta.shape[2]
    blocks = [trace.c, trace.beta.reshape(s_count, k * d), trace.psi]
    if trace.pi is not None:
        blocks.append(trace.pi)
    values = np.concatenate(blocks, axis=1)
    write_csv(path, _param_names(k, d, trace.column_names, trace.pi is not None),
              values.tolist())


def load_trace(path: str):
    """Read a persisted chain back into arrays keyed c/beta/psi/pi.

    Returns (arrays, column_names); beta has shape (S, K, D).  Raises
    DataError when the header is not one ``save_trace`` writes, no row
    follows it, a row does not hold one number per column, or a state holds
    what no fit stores: a non-finite value, a c[j] or pi[j] outside [0, 1], a
    psi[j] <= 0, or c[j] whose sum is off 1 by more than 1e-9 (a fit's are
    off by rounding only).
    """
    with reading(path) as fh:
        header = next(csv.reader(fh), [])
        k = sum(name.startswith("c[") for name in header)
        d = sum(name.startswith("beta[0].") for name in header)
        zinb = any(name.startswith("pi[") for name in header)
        cols = tuple(name[len("beta[0]."):] for name in header[k:k + d])
        if k == 0 or header != _param_names(k, d, cols, zinb):
            raise DataError(f"unrecognized trace header in {path}")
        try:
            with warnings.catch_warnings():     # no rows is the DataError below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"malformed trace file {path}: {exc}") from None
    if not values.size:
        raise DataError(f"{path} holds no stored states")
    if values.shape[1] != len(header):
        raise DataError(f"malformed trace file {path}: {values.shape[1]} "
                        f"values per row, header names {len(header)}")
    c, beta, psi, pi = np.split(values, [k, k * (d + 1), k * (d + 2)], axis=1)
    unit = np.hstack([c, pi])                       # pi has no columns for nb
    if not (np.isfinite(values).all() and (psi > 0).all() and ((unit >= 0) & (unit <= 1)).all()):
        raise DataError(f"{path}: a value is non-finite, a c[j] or pi[j] lies outside [0, 1], "
                        "or a psi[j] is <= 0")
    totals = c.sum(axis=1)
    off = np.flatnonzero(np.abs(totals - 1.0) > 1e-9)
    if off.size:
        s = off[0]
        raise DataError(f"{path}: the c[j] of state {s} sum to {float(totals[s])!r}, not 1")
    return {"c": c, "beta": beta.reshape(len(values), k, d), "psi": psi,
            "pi": pi if zinb else None}, cols


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_checksums(directory: str, filenames):
    write_text(os.path.join(directory, CHECKSUM_FILE), "".join(
        f"{_sha256(os.path.join(directory, name))}  {name}\n" for name in sorted(filenames)))


def verify_checksums(directory: str) -> set:
    """Check each file the directory's manifest lists; return their names."""
    manifest = os.path.join(directory, CHECKSUM_FILE)
    if not os.path.exists(manifest):
        raise DataError(f"missing checksum manifest in {directory}")
    with reading(manifest) as fh:
        entries = [line.strip().partition("  ") for line in fh]
    for lineno, (digest, sep, name) in enumerate(entries, start=1):
        if not sep:
            raise DataError(f"{manifest}:{lineno}: expected '<sha256>  <file name>'")
        target = os.path.join(directory, name)
        if not os.path.isfile(target):
            raise DataError(f"missing file {name}, listed in {manifest}")
        if _sha256(target) != digest:
            raise DataError(f"checksum mismatch for {name}")
    return {name for _, _, name in entries}
