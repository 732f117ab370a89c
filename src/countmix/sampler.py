"""Blocked Gibbs / Metropolis-within-Gibbs sampler for the mixture model.

Per sweep: assignments z (conjugate categorical), structural zeros and pi
for the zero-inflated variant, weights c (conjugate Dirichlet), then
random-walk Metropolis on each component's regression, one beta coordinate
at a time and then ln psi, proposed for all components at once (given z
they are conditionally independent).  Proposal scales adapt toward a target
acceptance rate during burn-in only, so the stored chain is a valid Markov
chain.

``sweep`` runs the blocks in this order and counts the rows per component
once, after the assignment draw.  The current psi's ``_nb_table`` is carried
from sweep to sweep: ``run_chain`` builds it once, and the regression block,
the only one that changes psi, rewrites the rows it changes.  That block
returns boolean acceptances and refreshes empty components from the prior.
``run_chain`` adds adaptation, checks and storage, and counts a component's
steps only where it holds rows.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .model import (
    Dataset,
    ModelSpec,
    ParamState,
    _log_pmf,
    _nb_eta_terms,
    _nb_table,
)

__all__ = [
    "SamplerConfig",
    "Trace",
    "SamplerError",
    "update_assignments",
    "update_weights",
    "update_regressions",
    "update_zero_inflation",
    "sweep",
    "run_chain",
    "run_chains",
]


class SamplerError(RuntimeError):
    """Mid-run numeric fault; the message names the sweep and the chain."""


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 10000
    burn_in: int = 5000
    thin: int = 1
    chains: int = 4
    master_seed: int = 0
    target_accept: float = 0.3

    def __post_init__(self):
        if self.burn_in >= self.iterations:
            raise ValueError("burn_in must be < iterations")
        if self.thin < 1 or self.chains < 1 or self.burn_in < 0 or self.master_seed < 0:
            raise ValueError("thin and chains must be >= 1, burn_in and master_seed >= 0")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if self.n_stored < 1:
            raise ValueError("thin must be <= iterations - burn_in, or no state is stored")

    @property
    def n_stored(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class Trace:
    """Post-burn-in, thinned states of one chain (struct-of-arrays)."""

    c: np.ndarray                 # (S, K)
    beta: np.ndarray              # (S, K, D)
    psi: np.ndarray               # (S, K)
    counts: np.ndarray | None     # (S, K) rows per component; None if read from disk
    pi: np.ndarray | None         # (S, K) for zinb, else None
    accept_rates: dict = field(default_factory=dict)
    column_names: tuple = ()

    def __len__(self) -> int:
        return self.c.shape[0]

    @property
    def k(self) -> int:
        return self.c.shape[1]


def _occupancy_weighted_rate(rates: np.ndarray, mean_counts: np.ndarray) -> float:
    """Acceptance rate averaged over components, weighted by mean row count.

    Rarely occupied components accept most prior-scale proposals, so the
    unweighted mean says little about how the occupied ones mix.
    """
    per_component = rates.reshape(len(mean_counts), -1).mean(axis=1)
    weighted = np.where(mean_counts > 0, per_component, 0.0) * mean_counts
    return float(weighted.sum() / mean_counts.sum())


def _to_weights(log_r: np.ndarray, log_c: np.ndarray, floor=-np.inf) -> np.ndarray:
    """Turn K x n log pmf values into weights c_k f_k(y_n), in place.

    Each column is scaled so that its largest weight, or e^floor if that is
    larger, becomes 1; returns the ln of that per-column scale.
    """
    log_r += log_c[:, np.newaxis]
    top = log_r.max(axis=0, initial=floor)
    if not np.all(np.isfinite(top)):
        raise SamplerError("all responsibilities underflowed for some observation")
    log_r -= top
    np.exp(log_r, out=log_r)
    return top


def _pick(cum: np.ndarray, total: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the cell j with cum[j-1] <= u * total < cum[j].

    cum holds cumulative weights down axis 0; a total above cum[-1] adds one
    cell past the last, of mass total - cum[-1], drawn as j = len(cum).  A
    cell of zero mass is never drawn: u * total is kept below total.
    """
    x = np.minimum(u * total, np.nextafter(total, 0.0))
    return np.count_nonzero(x >= cum, axis=0)


def _cumsum_rows(w: np.ndarray) -> np.ndarray:
    """np.cumsum(w, axis=0) in place, with the same sums in the same order.

    numpy's accumulate down axis 0 costs about 25 ns per element in any
    memory layout: 175 us at (4, 7118), against 15 us for these row adds.
    """
    for j in range(1, w.shape[0]):
        w[j] += w[j - 1]
    return w


def update_assignments(state: ParamState, data: Dataset, table: np.ndarray,
                       rng: np.random.Generator, work: np.ndarray | None = None) -> np.ndarray:
    """Draw z_n ~ Categorical(r_n) for every observation, in place.

    The kernel runs on the occupied components only.  The empty ones share
    one envelope cell of mass c_E = sum of their c_k, which bounds their
    weights c_k f_k(y_n) on every row because a pmf is at most 1.  Rows
    drawn into that cell are evaluated on all K components: with
    probability T_E / c_E, where T_E is the empty slots' exact weight, they
    take an empty slot in proportion to its weight, and otherwise they draw
    from their full K-way categorical.  That is the distribution a
    rejection sampler on this envelope returns, reached without its loop,
    so every z_n has exactly the dense draw's law.

    table is the current psi's ``_nb_table`` over ``data.y_unique``.
    work is a (2, K, N) float array for the kernel's temporaries.  A chain
    passes the same one to every ``sweep``, so they are not handed back to
    the operating system and faulted in again.
    """
    c = state.c
    if work is None:
        work = np.empty((2, c.shape[0], data.n))
    occupied = np.bincount(state.z, minlength=c.shape[0]) > 0
    work = work[:, :np.count_nonzero(occupied)]
    pi = state.pi
    with np.errstate(divide="ignore"):
        log_c = np.log(c)
        log_c_env = np.log(c[~occupied].sum())
    w = _log_pmf(data, table[occupied], state.beta[occupied], state.psi[occupied],
                 None if pi is None else pi[occupied], work=work)
    top = _to_weights(w, log_c[occupied], floor=log_c_env)
    cum = _cumsum_rows(w)
    pick = _pick(cum, cum[-1] + np.exp(log_c_env - top), rng.random(data.n))
    z = np.flatnonzero(occupied).take(pick, mode="clip")
    rows = np.flatnonzero(pick == cum.shape[0])        # drawn into the envelope cell
    if rows.size:
        w = _log_pmf(data, table, state.beta, state.psi, pi, rows)
        row_top = _to_weights(w, log_c)
        u = rng.random((2, rows.size))
        # Keep an empty slot with probability T_E / c_E, compared in log
        # space; T_E is read off the rows' max-subtracted weights.
        with np.errstate(divide="ignore"):
            keep = np.log(u[0]) + log_c_env < row_top + np.log(w[~occupied].sum(axis=0))
        w[occupied[:, np.newaxis] & keep] = 0.0
        cum_r = _cumsum_rows(w)
        z[rows] = _pick(cum_r, cum_r[-1], u[1])
    state.z = z
    return z


def update_weights(counts: np.ndarray, spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Conjugate Dirichlet(alpha0 + counts) draw of the weights, given row counts."""
    g = rng.standard_gamma(spec.alpha0 + counts)  # counts sum to N >= 1, so g.sum() > 0
    return g / g.sum()


def update_regressions(state: ParamState, data: Dataset, spec: ModelSpec, counts: np.ndarray,
                       table: np.ndarray, scales: np.ndarray, rng: np.random.Generator,
                       work: np.ndarray | None = None) -> np.ndarray:
    """Random-walk Metropolis on each component's (beta_k, ln psi_k), in place.

    D steps on the beta coordinates, then one on ln psi, each proposing for
    every component at once and summing the rows' log-likelihood changes per
    component; each row's linear predictor and ``_nb_eta_terms`` are kept
    current through the steps.  The prior of ln psi is N(a0, b0^2), so the
    symmetric proposal needs no Jacobian.  An empty component's beta is
    refreshed from the prior after its steps, and its psi takes the prior
    refresh as its proposal.  counts is the rows per component, table the
    current psi's ``_nb_table``, whose rows are rewritten where psi accepts or
    is refreshed.  scales and the returned boolean acceptances are (K, D + 1):
    the beta coordinates, then ln psi.  work, if given, is a (K, N) float
    array for the product that forms eta.
    """
    k_max, d_dim = state.beta.shape
    z = state.z
    # The component whose likelihood each row enters: z, with the out-of-range
    # label k_max (dropped from per-component sums) for a structural zero.
    rows = z if state.w is None else np.where(state.w == 1, k_max, z)
    yf, X, n = data._yf, data.X, data.n
    psi_z = state.psi.take(z)
    # eta_n = x_n . beta_{z_n}: the (K, N) product beta X^T read off at (z_n, n)
    # with one flat take costs less than gathering beta[z] as an (N, D) array.
    eta = np.matmul(state.beta, X.T, out=work).take(z * n + np.arange(n))
    cur = _nb_eta_terms(yf, eta, psi_z)
    steps = scales[:, :d_dim] * rng.standard_normal((k_max, d_dim))
    log_u = np.log(rng.random((k_max, d_dim)))
    proposed = state.beta + steps
    # The prior part of every log ratio; step d adds its likelihood part.
    log_ratio = (0.5 / spec.s0 ** 2) * ((state.beta - spec.m0) ** 2 - (proposed - spec.m0) ** 2)
    accept = np.empty((k_max, d_dim + 1), dtype=bool)
    for d in range(d_dim):
        eta_new = eta + steps[:, d].take(z) * X[:, d]
        new = _nb_eta_terms(yf, eta_new, psi_z)
        ratio = log_ratio[:, d] + np.bincount(rows, weights=new - cur,
                                              minlength=k_max + 1)[:k_max]
        accept[:, d] = np.isfinite(ratio) & (log_u[:, d] < ratio)
        moved = accept[:, d].take(z)
        np.putmask(eta, moved, eta_new)
        np.putmask(cur, moved, new)
    np.copyto(state.beta, proposed, where=accept[:, :d_dim])
    empty = counts == 0
    state.beta[empty] = rng.normal(spec.m0, spec.s0, size=(int(empty.sum()), d_dim))

    log_psi = np.log(state.psi)
    prop = log_psi + scales[:, d_dim] * rng.standard_normal(k_max)
    log_u = np.log(rng.random(k_max))
    prop[empty] = rng.normal(spec.a0, spec.b0, size=int(empty.sum()))
    psi_new = np.exp(prop)
    table_new = _nb_table(data, psi_new)
    new = _nb_eta_terms(yf, eta, psi_new.take(z))
    new += (table_new - table).take(z * data.y_unique.size + data.y_inverse)
    ratio = (np.bincount(rows, weights=new - cur, minlength=k_max + 1)[:k_max]
             + (0.5 / spec.b0 ** 2) * ((log_psi - spec.a0) ** 2 - (prop - spec.a0) ** 2))
    accept[:, d_dim] = np.isfinite(ratio) & (log_u < ratio)
    moved = accept[:, d_dim] | empty
    state.psi[moved] = psi_new[moved]
    table[moved] = table_new[moved]
    return accept


def update_zero_inflation(state: ParamState, data: Dataset, spec: ModelSpec, counts: np.ndarray,
                          table: np.ndarray, rng: np.random.Generator):
    """Draw structural-zero indicators w and per-component pi, in place (zinb).

    Each pi_k has a Beta(1, 1) prior.  counts is the rows per component,
    table the current psi's ``_nb_table``.
    """
    w = np.zeros(data.n, dtype=np.int8)
    zero_idx = np.flatnonzero(data.zero_mask)
    if zero_idx.size:
        zk = state.z[zero_idx]
        log_nb = _log_pmf(data, table, state.beta, state.psi, None, zero_idx)
        log_nb0 = log_nb[zk, np.arange(zero_idx.size)]
        pi_z = state.pi[zk]
        p1 = pi_z
        p0 = (1.0 - pi_z) * np.exp(log_nb0)
        prob = np.where(p1 + p0 > 0, p1 / (p1 + p0), 0.0)
        w[zero_idx] = (rng.random(zero_idx.size) < prob).astype(np.int8)
    s_k = np.bincount(state.z[w == 1], minlength=counts.size).astype(float)
    state.pi = rng.beta(1.0 + s_k, 1.0 + counts - s_k)
    state.w = w
    return state.pi, w


def _initial_state(data: Dataset, spec: ModelSpec, chain_id: int) -> ParamState:
    """Quantile-binned start: overdispersed yet informed, rotated per chain."""
    k = spec.k_max
    order = np.roll(np.arange(k), chain_id % k)
    ranks = np.argsort(np.argsort(data.y, kind="stable"), kind="stable")
    bins = np.minimum(ranks * k // data.n, k - 1)
    z = order[bins]
    # Integer sums of y are exact in float64, so these are the members' means.
    counts = np.bincount(z, minlength=k)
    means = np.bincount(z, weights=data._yf, minlength=k) / np.maximum(counts, 1)
    beta = np.zeros((k, data.d))
    beta[:, 0] = np.log(np.where(counts > 0, means, data.y.mean()) + 0.5)
    state = ParamState(
        c=np.full(k, 1.0 / k),
        beta=beta,
        psi=np.ones(k),
        z=z,
    )
    if spec.zero_inflated:
        zero_frac = float(data.zero_mask.mean())
        state.pi = np.full(k, min(max(zero_frac, 0.01), 0.5))
        state.w = np.zeros(data.n, dtype=np.int8)
    return state


def sweep(state: ParamState, data: Dataset, spec: ModelSpec, table: np.ndarray,
          scales: np.ndarray, rng: np.random.Generator, work: np.ndarray | None = None):
    """Update every block once, in place; returns (flags, counts).

    table is the current psi's ``_nb_table`` over ``data.y_unique``.  psi
    changes only in the last block, which keeps table current in place, so
    one table serves this sweep and the next.  The proposal scales and the
    boolean acceptance flags are (K, D + 1), as ``update_regressions`` takes
    and returns them.  counts is the rows per component after the assignment
    draw; the flags of a component with none are not trials.  work is a
    (2, K, N) float array for temporaries.
    """
    k = spec.k_max
    work = np.empty((2, k, data.n)) if work is None else work
    update_assignments(state, data, table, rng, work)
    counts = np.bincount(state.z, minlength=k)
    if spec.zero_inflated:
        update_zero_inflation(state, data, spec, counts, table, rng)
    state.c = update_weights(counts, spec, rng)
    return update_regressions(state, data, spec, counts, table, scales, rng, work[0]), counts


def _check_finite(state: ParamState, iteration: int, chain_id: int):
    ok = (
        np.all(np.isfinite(state.c))
        and np.all(np.isfinite(state.beta))
        and np.all(np.isfinite(state.psi))
        and np.all(state.psi > 0)
    )
    if not ok:
        raise SamplerError(f"non-finite parameter state at sweep {iteration} (chain {chain_id})")


def run_chain(spec: ModelSpec, data: Dataset, config: SamplerConfig,
              chain_id: int) -> Trace:
    """Run one chain; fully reproducible from (master_seed, chain_id)."""
    rng = np.random.default_rng([config.master_seed, chain_id])
    state = _initial_state(data, spec, chain_id)
    k, d = spec.k_max, data.d

    # Columns 0..d-1 are the beta coordinates, column d is ln psi.
    log_scale = np.log(np.column_stack([np.full((k, d), 0.1), np.full(k, 0.5)]))
    accepted = np.zeros((k, d + 1))
    trials = np.zeros((k, d + 1))

    s_count = config.n_stored
    stored_c = np.empty((s_count, k))
    stored_beta = np.empty((s_count, k, d))
    stored_psi = np.empty((s_count, k))
    stored_counts = np.empty((s_count, k), dtype=np.int64)
    stored_pi = np.empty((s_count, k)) if spec.zero_inflated else None

    target = config.target_accept
    work = np.empty((2, k, data.n))
    table = _nb_table(data, state.psi)
    s = 0
    for iteration in range(1, config.iterations + 1):
        flags, counts = sweep(state, data, spec, table, np.exp(log_scale), rng, work)
        live = (counts > 0)[:, np.newaxis]
        if iteration <= config.burn_in:
            log_scale += np.where(live, (flags - target) * iteration ** -0.6, 0.0)
            if iteration % 200 == 0:
                _check_finite(state, iteration, chain_id)
        else:
            accepted += flags & live
            trials += live
            if (iteration - config.burn_in) % config.thin == 0:
                _check_finite(state, iteration, chain_id)
                stored_c[s] = state.c
                stored_beta[s] = state.beta
                stored_psi[s] = state.psi
                stored_counts[s] = counts
                if stored_pi is not None:
                    stored_pi[s] = state.pi
                s += 1

    rates = np.where(trials > 0, accepted / np.maximum(trials, 1), np.nan)
    rate_beta, rate_psi = rates[:, :d], rates[:, d]
    # Weighted here, where the rates and the counts still share labels.
    mean_counts = stored_counts.mean(axis=0)
    return Trace(
        c=stored_c,
        beta=stored_beta,
        psi=stored_psi,
        counts=stored_counts,
        pi=stored_pi,
        accept_rates={"beta": rate_beta, "psi": rate_psi,
                      "beta_weighted": _occupancy_weighted_rate(rate_beta, mean_counts),
                      "psi_weighted": _occupancy_weighted_rate(rate_psi, mean_counts)},
        column_names=data.column_names,
    )


def run_chains(spec: ModelSpec, data: Dataset, config: SamplerConfig,
               parallel: bool = True) -> list[Trace]:
    """Run all configured chains; item i is chain i, identical to a sequential run."""
    chain_ids = range(config.chains)
    # The CPUs this process may run on: the affinity mask, where the OS has one.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.chains, cpus or 1)
    if parallel and workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run_chain, repeat(spec), repeat(data), repeat(config),
                                     chain_ids))
        except BrokenProcessPool as exc:
            raise SamplerError(f"a chain worker process died: {exc}") from exc
        except OSError:
            pass  # Sandboxed environments may forbid subprocesses; run them here.
    return [run_chain(spec, data, config, cid) for cid in chain_ids]
