"""Model state containers, the NB likelihood kernel, and the synthetic generator.

The mixture has k_max components with symmetric Dirichlet(alpha0) weights;
with alpha0 << 1 superfluous components empty out, so the occupied count is
inferred from data rather than fixed in advance.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .distributions import _log_gamma_raw, sample_negbin

__all__ = [
    "Dataset",
    "ModelSpec",
    "ParamState",
    "CovariateColumn",
    "LINPRED_CLAMP",
    "generate_synthetic",
]

# Linear predictors are clamped to +/-LINPRED_CLAMP before exponentiation
# (in the NB kernel below and wherever a mean is formed from beta), so early
# MCMC wandering cannot produce inf/NaN means.  Clamped cells are not counted.
LINPRED_CLAMP = 50.0


@dataclass(frozen=True)
class ModelSpec:
    """The model: its variant, then the finite numbers that set its priors.
    s0 and b0 are standard deviations; each pi_k has a Beta(1, 1) prior."""

    variant: str = "nb"  # "nb" or "zinb"
    alpha0: float = 0.1
    m0: float = 0.0
    s0: float = 10.0
    a0: float = 0.0
    b0: float = 2.0
    k_max: int = 10

    def __post_init__(self):
        if self.variant not in ("nb", "zinb"):
            raise ValueError(f"unknown model variant {self.variant!r}")
        infinite = [f.name for f in fields(self)[1:] if not np.isfinite(getattr(self, f.name))]
        if infinite:
            raise ValueError(f"{', '.join(infinite)} must be finite")
        if self.alpha0 <= 0 or self.s0 <= 0 or self.b0 <= 0:
            raise ValueError("alpha0, s0, b0 must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    @property
    def zero_inflated(self) -> bool:
        return self.variant == "zinb"


class Dataset:
    """Immutable design matrix plus count outcome.

    Column 0 of X is the intercept (all ones).  Caches the unique-count
    decomposition of y and ln Gamma(y+1) per unique count, which the NB
    kernel reuses every sweep, and a contiguous copy XT of X^T, whose rows
    the linear predictors are formed from.
    """

    def __init__(self, y, X, column_names):
        y = np.asarray(y)
        X = np.asarray(X, dtype=float)
        if y.ndim != 1 or X.ndim != 2 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be length N, X must be N x D")
        if y.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("need N >= 1 observations and D >= 1 columns")
        if np.any(y < 0) or not np.all(np.floor(np.asarray(y, dtype=float)) == y):
            raise ValueError("outcomes must be non-negative integers")
        if not np.all(np.isfinite(X)):
            raise ValueError("covariates must be finite")
        if not np.allclose(X[:, 0], 1.0):
            raise ValueError("column 0 of X must be the all-ones intercept")
        if len(column_names) != X.shape[1]:
            raise ValueError("column_names must match X's width")
        self.y = y.astype(np.int64)
        self.y.setflags(write=False)
        self.X = X
        self.X.setflags(write=False)
        self.XT = np.ascontiguousarray(X.T)
        self.XT.setflags(write=False)
        self.column_names = tuple(column_names)
        self.y_unique, self.y_inverse = np.unique(self.y, return_inverse=True)
        self._yf = self.y.astype(float)
        self.log_gamma_y1 = _log_gamma_raw(self.y_unique + 1.0)
        self.zero_mask = self.y == 0

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class ParamState:
    """One full parameter configuration; chain-private, mutated in place."""

    c: np.ndarray                 # (K,) simplex
    beta: np.ndarray              # (K, D)
    psi: np.ndarray               # (K,) positive
    z: np.ndarray                 # (N,) component indices
    pi: np.ndarray | None = None  # (K,) zero-inflation probabilities
    w: np.ndarray | None = None   # (N,) structural-zero indicators


def _nb_table(data: Dataset, psi) -> np.ndarray:
    """The terms of ln NB(y | mu, psi) that involve no mean, per unique count.

    ln Gamma(y+psi) - ln Gamma(psi) - ln Gamma(y+1) + psi ln psi over
    ``data.y_unique``, of shape psi.shape + data.y_unique.shape.  With
    ``_nb_eta_terms`` it is the NB log pmf, read per row at data.y_inverse:
    ``_nb_table(data, psi)[..., data.y_inverse] + _nb_eta_terms(y, eta, psi)``.
    It sums logs over every count 0 .. y_max, so its time and memory grow
    with psi.size x y_max, however few the unique counts are.
    """
    psi = np.asarray(psi, dtype=float)[..., np.newaxis]
    # For integer y, ln Gamma(y + psi) - ln Gamma(psi) = sum_{j<y} ln(psi + j);
    # column 0 holds y = 0's empty sum.
    lg = np.zeros(psi.shape[:-1] + (data.y_unique[-1] + 1,))
    terms = np.add(psi, np.arange(lg.shape[-1] - 1.0), out=lg[..., 1:])
    np.cumsum(np.log(terms, out=terms), axis=-1, out=terms)
    return lg.take(data.y_unique, axis=-1) - data.log_gamma_y1 + psi * np.log(psi)


def _nb_eta_terms(yf, eta, psi, out=None, work=None) -> np.ndarray:
    """The terms of ln NB(y | e^eta, psi) that involve the linear predictor.

    y eta - (psi + y) ln(psi + e^eta), with eta clamped to +/-LINPRED_CLAMP.
    yf and psi broadcast against eta, which must already have the result's
    shape; eta is not modified unless it is ``out``.  out and work, if
    given, are float arrays of that shape filled instead of new ones.
    """
    # np.maximum/np.minimum: np.clip's Python-level dispatch costs more on small arrays.
    out = np.minimum(np.maximum(eta, -LINPRED_CLAMP, out=out), LINPRED_CLAMP, out=out)
    log_psi_mu = np.exp(out, out=work)
    log_psi_mu += psi
    np.log(log_psi_mu, out=log_psi_mu)
    out -= log_psi_mu
    out *= yf
    log_psi_mu *= psi
    out -= log_psi_mu
    return out


def _log_pmf(data: Dataset, table, beta, psi, pi, rows=slice(None)) -> np.ndarray:
    """(3, K, len(rows)) planes for the given rows under each component: the
    log pmf, the linear predictors x_n . beta_k and their ``_nb_eta_terms``.

    beta, psi and pi hold any K components, and table is their
    ``_nb_table`` over ``data.y_unique``; the pmf is zero-inflated exactly
    when pi is not None.  The sweep passes either its occupied components
    and all rows, or all components and a few rows, and hands the last two
    planes on to ``update_zero_inflation`` and ``update_regressions``;
    ``hard_assignments`` and the predictive pmf pass all components and all
    rows and read plane 0.
    """
    xt = data.XT[:, rows]
    # One array, not three: separate ones (and _nb_eta_terms' own temporary)
    # took about 126 page faults per sweep at N = 7118 against about 1, and 12% longer.
    planes = np.empty((3, len(beta), xt.shape[1]))
    ll, eta, terms = planes
    np.matmul(beta, xt, out=eta)
    _nb_eta_terms(data._yf[rows], eta, psi[:, np.newaxis], out=terms, work=ll)
    # mode="clip" lets take write into ll unbuffered; every index is in range.
    np.take(table, data.y_inverse[rows], axis=1, out=ll, mode="clip")
    ll += terms
    if pi is not None:
        with np.errstate(divide="ignore"):
            log_pi = np.log(pi)[:, np.newaxis]
            ll += np.log1p(-pi)[:, np.newaxis]
        zero = data.zero_mask[rows]
        ll[:, zero] = np.logaddexp(log_pi, ll[:, zero])
    return planes


@dataclass(frozen=True)
class CovariateColumn:
    """Generator spec for one synthetic covariate column."""

    name: str
    kind: str  # "normal" or "binary"
    param: float = 0.5  # success probability for binary columns

    def __post_init__(self):
        if self.kind not in ("normal", "binary"):
            raise ValueError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "binary" and not 0.0 <= self.param <= 1.0:
            raise ValueError(f"binary covariate {self.name!r} needs p in [0, 1], not {self.param}")


def generate_synthetic(c, beta, psi, n, covariates, seed, pi=None):
    """Draw a synthetic dataset from known mixture parameters.

    Returns (Dataset, true z).  Covariates are drawn per ``covariates``
    (CovariateColumn entries); the intercept column is always prepended.
    Serves as the recovery oracle for the sampler.
    """
    c = np.asarray(c, dtype=float)
    beta = np.asarray(beta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    k, d = beta.shape
    if c.shape != (k,) or abs(c.sum() - 1.0) > 1e-9 or np.any(c < 0):
        raise ValueError(f"weights must hold one value per component ({k}) on the simplex")
    if psi.shape != (k,) or not np.all(psi > 0):
        raise ValueError(f"psi must hold one value per component ({k}), each > 0")
    if pi is not None:
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (k,) or not np.all((pi >= 0) & (pi <= 1)):
            raise ValueError(f"pi must hold one value in [0, 1] per component ({k})")
    if len(covariates) != d - 1:
        raise ValueError("covariates must describe the non-intercept columns")
    rng = np.random.default_rng(seed)
    X = np.ones((n, d))
    for j, col in enumerate(covariates, start=1):
        if col.kind == "normal":
            X[:, j] = rng.standard_normal(n)
        else:
            X[:, j] = rng.binomial(1, col.param, size=n).astype(float)
    z = rng.choice(k, size=n, p=c / c.sum())
    eta = np.clip(np.einsum("nd,nd->n", X, beta[z]), -LINPRED_CLAMP, LINPRED_CLAMP)
    y = sample_negbin(np.exp(eta), psi[z], rng, size=n)
    if pi is not None:
        structural = rng.random(n) < pi[z]
        y = np.where(structural, 0, y)
    names = ("intercept",) + tuple(col.name for col in covariates)
    return Dataset(y=y, X=X, column_names=names), z
