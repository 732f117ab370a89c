"""Post-processing of sampled traces.

Relabeling resolves the label-switching symmetry by ordering components on
their fitted mean at a reference covariate row; convergence is checked
with split-chain R-hat and an autocorrelation-based effective sample size;
interval summaries use highest-posterior-density intervals.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Dataset, LINPRED_CLAMP, _log_pmf, _nb_table
from .sampler import Trace, _to_weights

__all__ = [
    "ComponentSummary",
    "DegenerateFitError",
    "relabel",
    "rhat",
    "ess",
    "hpdi",
    "hard_assignments",
    "component_summary",
    "occupied_counts",
]

# Stored states evaluated across all chains: hard_assignments recomputes the
# N x K responsibilities for each, component_summary the predictive pmf.
HARD_ASSIGNMENT_STATES = 400
PMF_STATES = 200
HPDI_PROB = 0.95
HPDI_MIN_SAMPLES = 20


class DegenerateFitError(RuntimeError):
    """Raised when no component clears the occupancy threshold."""


def _relabel_one(trace: Trace, reference_x: np.ndarray, weight_floor: float) -> Trace:
    eta = np.einsum("skd,d->sk", trace.beta, reference_x)
    mu = np.exp(np.clip(eta, -LINPRED_CLAMP, LINPRED_CLAMP))
    empty = trace.c < weight_floor
    # lexsort is stable: ties on (empty, mu, psi) keep original order.
    order = np.lexsort((trace.psi, mu, empty), axis=-1)   # order[s, j] = old slot of j

    def permuted(a):
        return None if a is None else np.take_along_axis(a, order, axis=1)

    return replace(trace, c=permuted(trace.c), psi=permuted(trace.psi),
                   counts=permuted(trace.counts), pi=permuted(trace.pi),
                   beta=np.take_along_axis(trace.beta, order[:, :, np.newaxis], axis=1))


def relabel(traces, reference_x, weight_floor: float) -> list[Trace]:
    """Order components ascending in mu_k(reference_x) within every state.

    Ties break by ascending psi then original index.  Components below the
    weight floor sort last, so that prior-refreshed (or transiently reborn)
    components stay out of the occupied slots and cannot scramble their
    order.  The CLI passes the column means of the design matrix and its
    occupancy threshold.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    reference_x = np.asarray(reference_x, dtype=float)
    return [_relabel_one(t, reference_x, weight_floor) for t in traces]


def rhat(chains):
    """Split-chain potential scale reduction, per trailing index.

    chains is a (C, S, ...) array, or C equal-length series: each chain's
    first S // 2 * 2 states are split into two halves.  Returns a float for
    (C, S) and an array of shape chains.shape[2:] otherwise; 1.0 where every
    half is the same constant, inf where every half is constant but their
    values differ.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim < 2 or x.shape[0] < 2 or x.shape[1] < 4:
        raise ValueError("rhat needs >= 2 chains of length >= 4")
    n = x.shape[1] // 2
    # Halves as contiguous rows of a (..., 2C, n) array, so that each variance
    # and mean is a pairwise sum over one contiguous row.
    halves = x[:, :2 * n].reshape(2 * x.shape[0], n, *x.shape[2:])
    halves = np.ascontiguousarray(np.moveaxis(halves, (0, 1), (-2, -1)))
    within = halves.var(axis=-1, ddof=1).mean(axis=-1)
    between = n * halves.mean(axis=-1).var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(((n - 1) / n * within + between / n) / within)
    r = np.where(within == 0.0, np.where(between == 0.0, 1.0, np.inf), r)
    return float(r) if r.ndim == 0 else r


def ess(samples):
    """Effective sample size via Geyer's initial positive sequence.

    Pairs of autocorrelations are summed while positive; the result is
    clipped to 1.5 * N.  A constant series reports N.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    if n < 8:
        raise ValueError("ess needs at least 8 samples")
    centered = x - x.mean()
    if np.all(centered == 0.0):
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    tau = 0.0
    m = 0
    while 2 * m + 1 < n:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    tau = max(tau - 1.0, 1.0 / 1.5)
    return float(min(n / tau, 1.5 * n))


def hpdi(samples, prob: float):
    """Shortest contiguous interval of sorted samples holding mass prob.

    Intervals run along axis 0: 1-D samples give two floats, an (S, ...)
    array gives (lo, hi) arrays of shape samples.shape[1:].
    """
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")
    x = np.sort(np.asarray(samples, dtype=float), axis=0)
    n = len(x)
    if n < HPDI_MIN_SAMPLES:
        raise ValueError(f"hpdi needs at least {HPDI_MIN_SAMPLES} samples")
    step = min(int(np.ceil(prob * n)), n - 1)
    i = np.argmin(x[step:] - x[: n - step], axis=0)[np.newaxis]  # first minimum on ties
    lo = np.take_along_axis(x, i, axis=0)[0]
    hi = np.take_along_axis(x, i + step, axis=0)[0]
    return (float(lo), float(hi)) if x.ndim == 1 else (lo, hi)


def _strided_indices(length: int, budget: int) -> np.ndarray:
    if length <= budget:
        return np.arange(length)
    return np.linspace(0, length - 1, budget).round().astype(int)


def hard_assignments(traces, data: Dataset) -> np.ndarray:
    """Argmax component of the trace-averaged responsibilities per row.

    Responsibilities are recomputed from (c, beta, psi[, pi]) on a strided
    subset of stored states (HARD_ASSIGNMENT_STATES across all chains)
    through the sweep's kernel, into one work array; ties go to the lower
    index.  Invariant to the order chains are supplied in.
    """
    traces = sorted(traces, key=lambda t: t.chain_id)
    per_chain = max(1, HARD_ASSIGNMENT_STATES // max(len(traces), 1))
    work = np.empty((2, traces[0].k, data.n))
    total = np.zeros(work.shape[1:])
    count = 0
    for trace in traces:
        for s in _strided_indices(len(trace), per_chain):
            psi, pi = trace.psi[s], None if trace.pi is None else trace.pi[s]
            table = _nb_table(data.y_unique, data.log_gamma_y1, psi)
            r = _log_pmf(data, table, trace.beta[s], psi, pi, work=work)
            with np.errstate(divide="ignore"):
                _to_weights(r, np.log(trace.c[s]))
            r /= r.sum(axis=0)
            total += r
            count += 1
    total /= count
    return np.argmax(total, axis=0)


def occupied_counts(trace: Trace) -> np.ndarray:
    """Number of components with at least one assigned observation, per state."""
    return np.count_nonzero(trace.counts, axis=1)


@dataclass
class ComponentSummary:
    index: int
    occupied: bool
    prevalence_mean: float
    prevalence_hpdi: tuple[float, float]
    irr_mean: np.ndarray          # (D,)
    irr_hpdi: np.ndarray          # (D, 2)
    irr_excludes_one: np.ndarray  # (D,) bool
    count_mode: int
    pmf: np.ndarray               # predictive pmf over the y grid
    empirical_mode: int | None = None


def _predictive_pmf(beta, psi, pi, reference_x, y_max: int) -> np.ndarray:
    """(K, G) predictive pmf at reference_x over y in [0, y_max + 50].

    Rows of the grid Dataset are (reference_x, y), so reference_x must lead
    with the intercept's 1; each state goes through the sweep's kernel into
    one work array, and the exponentiated pmfs are averaged.
    """
    y = np.arange(int(y_max) + 51)
    x = np.asarray(reference_x, dtype=float)
    grid = Dataset(y=y, X=np.broadcast_to(x, (y.size, x.size)), column_names=("",) * x.size)
    work = np.empty((2, beta.shape[1], y.size))
    total = np.zeros(work.shape[1:])
    for s in range(len(beta)):
        table = _nb_table(grid.y_unique, grid.log_gamma_y1, psi[s])
        log_pmf = _log_pmf(grid, table, beta[s], psi[s], None if pi is None else pi[s], work=work)
        total += np.exp(log_pmf, out=log_pmf)
    return total / len(beta)


def component_summary(traces, y_max: int, reference_x, occupancy_threshold: float):
    """Per-component posterior summaries from pooled relabeled traces.

    Chains are pooled in chain-id order.  Prevalence is the posterior mean
    weight; the IRR point estimate is the posterior mean of exp(beta) (not
    exp of the posterior mean); the predictive pmf at reference_x over y in
    [0, y_max + 50] averages PMF_STATES strided states, and the count mode
    scans it.  empirical_mode is left for callers that hold the data.
    """
    traces = sorted(traces, key=lambda t: t.chain_id)
    c_all = np.concatenate([t.c for t in traces])          # (S, K)
    beta_all = np.concatenate([t.beta for t in traces])    # (S, K, D)
    psi_all = np.concatenate([t.psi for t in traces])
    pi_all = None if traces[0].pi is None else np.concatenate([t.pi for t in traces])

    # One contiguous row per component: numpy sums each pairwise, as it does a
    # 1-D series, where a mean over axis 0 would add the states one by one.
    prev_mean = np.ascontiguousarray(c_all.T).mean(axis=1)
    prev_lo, prev_hi = hpdi(c_all, HPDI_PROB)
    irr = np.exp(beta_all)
    irr_mean = irr.mean(axis=0)                             # (K, D)
    irr_hpdi = np.stack(hpdi(irr, HPDI_PROB), axis=-1)      # (K, D, 2)
    idx = _strided_indices(len(c_all), PMF_STATES)
    pmf = _predictive_pmf(beta_all[idx], psi_all[idx],
                          None if pi_all is None else pi_all[idx], reference_x, y_max)
    # Zero-inflated variant: report the count mode with the zero mode
    # omitted, since the point mass at zero would otherwise swamp it.
    mode = np.argmax(pmf[:, 1:], axis=1) + 1 if pi_all is not None else np.argmax(pmf, axis=1)
    summaries = [
        ComponentSummary(
            index=j,
            occupied=bool(prev_mean[j] >= occupancy_threshold),
            prevalence_mean=float(prev_mean[j]),
            prevalence_hpdi=(float(prev_lo[j]), float(prev_hi[j])),
            irr_mean=irr_mean[j],
            irr_hpdi=irr_hpdi[j],
            irr_excludes_one=~((irr_hpdi[j, :, 0] <= 1.0) & (1.0 <= irr_hpdi[j, :, 1])),
            count_mode=int(mode[j]),
            pmf=pmf[j],
        )
        for j in range(c_all.shape[1])
    ]
    if not any(s.occupied for s in summaries):
        raise DegenerateFitError("no component clears the occupancy threshold")
    return summaries
