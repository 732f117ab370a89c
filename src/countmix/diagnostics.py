"""Post-processing of sampled traces.

Relabeling resolves the label-switching symmetry by ordering components on
their fitted mean at a reference covariate row; the CLI gates convergence
on split-chain R-hat alone and prints no effective sample size (only
perfbench and the tests call ``ess``); interval summaries use
highest-posterior-density intervals.
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


def _pooled(traces, budget: int | None = None):
    """(c, beta, psi, pi) of the chains pooled in list order, pi None for nb;
    given a budget, that many states strided evenly over them (all, if fewer)."""
    n = sum(len(t) for t in traces)
    idx = (slice(None) if budget is None or n <= budget
           else np.linspace(0, n - 1, budget).round().astype(int))
    return [None if getattr(traces[0], name) is None
            else np.concatenate([getattr(t, name) for t in traces])[idx]
            for name in ("c", "beta", "psi", "pi")]


def _state_log_pmfs(data: Dataset, beta, psi, pi):
    """Yield each state's K x data.n log pmf through the sweep's kernel, each
    in an array of its own."""
    for s in range(len(beta)):
        table = _nb_table(data, psi[s])
        yield _log_pmf(data, table, beta[s], psi[s], None if pi is None else pi[s])[0]


def hard_assignments(traces, data: Dataset) -> np.ndarray:
    """Argmax component of the trace-averaged responsibilities per row.

    Responsibilities are recomputed from (c, beta, psi[, pi]) on
    HARD_ASSIGNMENT_STATES states strided over the chains pooled in list
    order, through the sweep's kernel and weighting (``_to_weights``, which
    counts a weight below e^-700 of its row's largest as 0); ties go to the
    lower index.
    """
    c, beta, psi, pi = _pooled(traces, HARD_ASSIGNMENT_STATES)
    total = np.zeros((c.shape[1], data.n))
    for s, r in enumerate(_state_log_pmfs(data, beta, psi, pi)):
        with np.errstate(divide="ignore"):
            _to_weights(r, np.log(c[s]))
        r /= r.sum(axis=0)
        total += r
    total /= len(c)
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


def component_summary(traces, y_max: int, reference_x, occupancy_threshold: float):
    """Per-component posterior summaries from pooled relabeled traces.

    Chains are pooled in list order.  Prevalence is the posterior mean
    weight; the IRR point estimate is the posterior mean of exp(beta) (not
    exp of the posterior mean); the predictive pmf at reference_x over y in
    [0, y_max + 50] averages PMF_STATES strided states, and the count mode
    scans it.  empirical_mode is left for callers that hold the data.
    """
    c_all, beta_all, _, _ = _pooled(traces)                 # (S, K), (S, K, D)
    _, beta, psi, pi = _pooled(traces, PMF_STATES)

    # One contiguous row per component: numpy sums each pairwise, as it does a
    # 1-D series, where a mean over axis 0 would add the states one by one.
    prev_mean = np.ascontiguousarray(c_all.T).mean(axis=1)
    prev_lo, prev_hi = hpdi(c_all, HPDI_PROB)
    irr = np.exp(beta_all)
    irr_mean = irr.mean(axis=0)                             # (K, D)
    irr_hpdi = np.stack(hpdi(irr, HPDI_PROB), axis=-1)      # (K, D, 2)
    # The pmf grid is one Dataset of (reference_x, y) rows, so reference_x
    # must lead with the intercept's 1.
    y = np.arange(int(y_max) + 51)
    x = np.asarray(reference_x, dtype=float)
    grid = Dataset(y=y, X=np.broadcast_to(x, (y.size, x.size)), column_names=("",) * x.size)
    pmf = sum(np.exp(log_pmf) for log_pmf in _state_log_pmfs(grid, beta, psi, pi)) / len(beta)
    # Zero-inflated variant: report the count mode with the zero mode
    # omitted, since the point mass at zero would otherwise swamp it.
    mode = np.argmax(pmf[:, 1:], axis=1) + 1 if pi is not None else np.argmax(pmf, axis=1)
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
