"""Reference NB and ZINB log pmfs, written out from the closed form.

The library evaluates the NB likelihood only through its fused kernel
(``model._nb_table`` + ``model._nb_eta_terms``).  These functions state the
mean/precision form term by term instead, validated against mpmath in
test_distributions.py, so the tests can check the kernel against a second,
independent formula.
"""
import numpy as np

from countmix.distributions import _log_gamma_raw, _validate_nb_params
from countmix.model import LINPRED_CLAMP


def _validate_counts(y):
    arr = np.asarray(y)
    if arr.size and (np.any(arr < 0) or not np.all(np.floor(arr) == arr)):
        raise ValueError("counts must be non-negative integers")
    return arr.astype(float)


def _nb_logpmf_raw(y, mu, psi):
    """Mean/precision NB log pmf, no validation.  Broadcasts."""
    log_psi_mu = np.log(psi + mu)
    return (
        _log_gamma_raw(y + psi)
        - _log_gamma_raw(psi)
        - _log_gamma_raw(y + 1.0)
        + psi * (np.log(psi) - log_psi_mu)
        + y * (np.log(mu) - log_psi_mu)
    )


def negbin_log_pmf(y, mu, psi):
    """Log pmf of the Negative Binomial with mean ``mu`` and precision ``psi``.

    Variance is mu + mu**2/psi; psi -> inf recovers the Poisson.  With
    psi = 1 this is the geometric pmf with success probability 1/(1+mu).
    """
    yf = _validate_counts(y)
    mu, psi = _validate_nb_params(mu, psi)
    out = _nb_logpmf_raw(yf, mu, psi)
    scalar = np.isscalar(y) and np.isscalar(mu) and np.isscalar(psi)
    return float(out) if scalar else out


def zinb_log_pmf(y, pi, mu, psi):
    """Log pmf of the zero-inflated NB: point mass pi at zero plus (1-pi)*NB."""
    pi_arr = np.asarray(pi, dtype=float)
    if pi_arr.size and (not np.all(np.isfinite(pi_arr)) or np.any(pi_arr < 0.0)
                        or np.any(pi_arr > 1.0)):
        raise ValueError("zero-inflation probability must lie in [0, 1]")
    yf = _validate_counts(y)
    mu, psi = _validate_nb_params(mu, psi)
    nb = _nb_logpmf_raw(yf, mu, psi)
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi_arr)
        log_1mpi = np.log1p(-pi_arr)
    deflated = log_1mpi + nb
    out = np.where(yf == 0, np.logaddexp(np.broadcast_to(log_pi, deflated.shape), deflated),
                   deflated)
    scalar = all(np.isscalar(v) for v in (y, pi, mu, psi))
    return float(out) if scalar else out


def log_pmf_matrix(data, beta, psi, pi=None):
    """N x K log pmf of every row of a Dataset under every component.

    beta is (K, D), psi and pi are (K,); pi=None gives the NB pmf, else the
    ZINB pmf.  The linear predictor is clamped to +/-LINPRED_CLAMP, as the
    library's kernel clamps it.
    """
    eta = data.X @ np.asarray(beta, dtype=float).T
    mu = np.exp(np.clip(eta, -LINPRED_CLAMP, LINPRED_CLAMP))
    y = data.y[:, np.newaxis]
    return negbin_log_pmf(y, mu, psi) if pi is None else zinb_log_pmf(y, pi, mu, psi)
