"""Traced run: time the calls into each countmix module from outside it.

Every public function defined in one of the six modules is wrapped, and the
wrapper is bound in every countmix namespace that holds the original.  That
matters because ``cli`` binds ``relabel``, ``hard_assignments`` and the rest
by ``from ... import`` and ``sampler`` binds ``loglik_matrix`` the same way:
wrapping only the defining module would record nothing.  Chains run inside
this process (``run_chains(parallel=False)``), because spans taken in forked
pool workers would be lost.

Spans (name, start, end, parent) are kept in memory, written out as JSON
lines at the end, and reduced to per-layer metrics.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("sampler", "model", "distributions", "diagnostics", "traceio", "cli")
UPDATE_BLOCKS = ("update_assignments", "update_zero_inflation", "update_weights",
                 "update_coefficients", "update_precisions")


class TracedRunFailed(Exception):
    """The traced fit did not run far enough to give the per-layer metrics."""


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, list] = {}    # name -> what `keep` took from each call
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep=None):
        """Wrap fn; keep(args, kwargs, result), if given, is stored per call."""
        spans, stack = self.spans, self._stack
        kept = self.kept.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if kept is not None:
                kept.append(keep(args, kwargs, result))
            return result

        return traced

    def write(self, path: str):
        with open(path, "w", newline="\n") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# What the metrics need from the calls themselves: run_chain's data, config
# and returned Trace.
KEEP = {
    "sampler.run_chain": lambda args, kwargs, trace: (args[1], args[2], trace),
}


def install(tracer: Tracer) -> dict:
    """Wrap the public functions of every layer; return the modules by name."""
    package = importlib.import_module("countmix")
    modules = {name: importlib.import_module(f"countmix.{name}") for name in LAYERS}
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, keep=KEEP.get(name))
    run_chains = modules["sampler"].run_chains
    wrapped[run_chains] = tracer.wrap(
        "sampler.run_chains", functools.partial(run_chains, parallel=False))
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    return modules


@dataclass
class TracedResult:
    fit_code: int
    report_code: int
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)


def _durations(spans):
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
    return total, count


def _under(spans, ancestor: str) -> list[bool]:
    """Per span, whether it is `ancestor` or runs inside a span of that name."""
    flags = []
    for name, _, _, parent in spans:
        flags.append(name == ancestor or (parent >= 0 and flags[parent]))
    return flags


def _self_time(spans, name: str) -> float:
    """Duration of the `name` spans minus the time their child spans cover."""
    own = {i for i, span in enumerate(spans) if span[0] == name}
    total = sum(spans[i][2] - spans[i][1] for i in own)
    children = sum(end - start for _, start, end, parent in spans if parent in own)
    return total - children


def log_gamma_ns_per_value(log_gamma_raw, y_unique, psi_values) -> float:
    """Median ns per value of the psi step's ``_log_gamma_raw`` calls.

    For each proposed psi, ``sampler._nb_loglik_at_psi`` evaluates
    ``_log_gamma_raw(y_unique + psi)`` and the 0-d ``_log_gamma_raw(psi)``.
    The same two calls are timed here, one psi per call, so the per-call
    overhead that bounds small workloads is in the figure.
    """
    times = []
    for _ in range(20):
        start = time.perf_counter()
        for psi in psi_values:
            log_gamma_raw(y_unique + psi)
            log_gamma_raw(np.array(psi))
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (len(psi_values) * (y_unique.size + 1)) * 1e9


def traced_fit_and_report(fit_argv, report_argv, spans_path, log_path) -> TracedResult:
    """Run ``countmix fit`` then ``countmix report`` traced, in this process.

    What the commands print goes to log_path.  A layer function that does
    not exist, or is never called, reads 0.
    """
    tracer = Tracer()
    modules = install(tracer)
    cli = modules["cli"]
    with open(log_path, "w") as log, contextlib.redirect_stdout(log):
        start = time.perf_counter()
        fit_code = cli.run(fit_argv)
        report_code = cli.run(report_argv)
        wall = time.perf_counter() - start
    tracer.write(spans_path)

    runs = tracer.kept["sampler.run_chain"]
    if fit_code not in (0, 4) or not runs:
        raise TracedRunFailed(f"traced fit exited {fit_code}; see {log_path}")
    spans = tracer.spans
    total, count = _durations(spans)
    data, config, _ = runs[0]
    traces = [trace for _, _, trace in runs]
    sweeps = config.iterations * len(runs)
    in_chain = _under(spans, "sampler.run_chain")
    in_hard = _under(spans, "diagnostics.hard_assignments")

    def seconds(name):
        return total.get(name, 0.0)

    def count_under(name, flags):
        return sum(1 for span, flag in zip(spans, flags) if flag and span[0] == name)

    first = traces[0]
    loglik_s, loglik_calls = seconds("model.loglik_matrix"), count.get("model.loglik_matrix", 0)
    cells = loglik_calls * data.n * first.k
    occupied = ([inspect.unwrap(modules["diagnostics"].occupied_counts)(t) for t in traces]
                if getattr(first, "z", None) is not None else [np.zeros(1)])
    accept = {key: float(np.nanmean([np.nanmean(t.accept_rates[key]) for t in traces]))
              for key in ("beta", "psi")}

    m = {}
    m["sampler.sweep_ms"] = (seconds("sampler.run_chain") / sweeps * 1e3, "ms")
    for block in UPDATE_BLOCKS:
        m[f"sampler.{block}.ms_per_sweep"] = (seconds(f"sampler.{block}") / sweeps * 1e3, "ms")
    m["sampler.beta_accept_rate"] = (accept["beta"], "ratio")
    m["sampler.psi_accept_rate"] = (accept["psi"], "ratio")
    m["sampler.stored_states"] = (float(sum(len(t) for t in traces)), "count")
    m["sampler.trace_mb"] = (sum(v.nbytes for v in vars(first).values()
                                 if isinstance(v, np.ndarray)) / 1e6, "MB")
    m["model.loglik_matrix.calls_per_sweep"] = (
        count_under("model.loglik_matrix", in_chain) / sweeps, "count")
    m["model.loglik_matrix.ms_per_call"] = (
        loglik_s / loglik_calls * 1e3 if loglik_calls else 0.0, "ms")
    m["model.loglik_matrix.cells_per_s"] = (cells / loglik_s if loglik_s else 0.0, "1/s")
    stored_psi = first.psi.ravel()
    m["distributions.log_gamma.ns_per_value"] = (
        log_gamma_ns_per_value(modules["distributions"]._log_gamma_raw, data.y_unique,
                               stored_psi[np.linspace(0, stored_psi.size - 1, 500,
                                                      dtype=int)]), "ns")
    m["diagnostics.hard_assignments_s"] = (seconds("diagnostics.hard_assignments"), "s")
    m["diagnostics.responsibilities_calls"] = (
        float(count_under("sampler.responsibilities", in_hard)), "count")
    for name in ("relabel", "component_summary", "rhat"):
        m[f"diagnostics.{name}_s"] = (seconds(f"diagnostics.{name}"), "s")
    m["diagnostics.occupied_k_mean"] = (float(np.mean(np.concatenate(occupied))), "count")
    for name in ("save_trace", "load_trace", "verify_checksums"):
        m[f"traceio.{name}_s"] = (seconds(f"traceio.{name}"), "s")
    m["cli.ingest_s"] = (seconds("cli.ingest"), "s")
    m["cli.fit_self_s"] = (_self_time(spans, "cli.cmd_fit"), "s")
    m["cli.report_self_s"] = (_self_time(spans, "cli.cmd_report"), "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.span_sum_s"] = (sum(end - start for _, start, end, parent in spans
                                 if parent < 0), "s")
    return TracedResult(fit_code, report_code, m)
