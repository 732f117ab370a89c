"""ln Gamma and the negative binomial draw of the count-mixture model.

``_log_gamma_raw`` is ln Gamma as a Lanczos series, so the core library
needs nothing beyond numpy.  It takes a positive float array and checks
nothing; ``model`` calls it for ln Gamma(y + 1) once per dataset
(``_nb_table`` sums logs for ln Gamma(y + psi) - ln Gamma(psi)).
``sample_negbin`` draws the counts of ``generate_synthetic``; the sampler
takes its Dirichlet and Beta draws from numpy directly.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["sample_negbin"]

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set).
# Relative error is at float64 machine precision over (0, 1e6].
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_raw(x: np.ndarray) -> np.ndarray:
    """Lanczos ln Gamma, no validation.  x must be positive."""
    # Shift arguments below 0.5 up by one and divide by x afterwards:
    # ln G(x) = ln G(x+1) - ln x.  Keeps the series well conditioned near 0.
    small = x < 0.5
    z = np.where(small, x + 1.0, x)
    s = np.full_like(z, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z + (k - 1.0))
    t = z + (_LANCZOS_G - 0.5)
    out = _HALF_LOG_2PI + (z - 0.5) * np.log(t) - t + np.log(s)
    return np.where(small, out - np.log(np.where(small, x, 1.0)), out)


def _validate_nb_params(mu, psi):
    mu = np.asarray(mu, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if mu.size and (not np.all(np.isfinite(mu)) or np.any(mu <= 0.0)):
        raise ValueError("negative binomial mean must be finite and > 0")
    if psi.size and (not np.all(np.isfinite(psi)) or np.any(psi <= 0.0)):
        raise ValueError("negative binomial precision must be finite and > 0")
    return mu, psi


# Poisson draws overflow for enormous rates; above this we switch to the
# (exact-in-the-limit) normal approximation rounded to a count.
_POISSON_NORMAL_CUTOFF = 1e8


def sample_negbin(mu, psi, rng: np.random.Generator, size):
    """Draw an array of NB counts of shape size via the gamma-Poisson mixture.

    lambda ~ Gamma(shape=psi, mean=mu), y ~ Poisson(lambda); the marginal
    law is NB with mean mu and precision psi (variance mu + mu**2/psi).
    """
    mu, psi = _validate_nb_params(mu, psi)
    lam = rng.gamma(shape=psi, scale=mu / psi, size=size)
    big = lam > _POISSON_NORMAL_CUTOFF
    draws = rng.poisson(np.where(big, 0.0, lam)).astype(np.int64)
    if np.any(big):
        approx = rng.normal(lam[big], np.sqrt(lam[big]))
        draws[big] = np.maximum(0, np.rint(approx)).astype(np.int64)
    return draws

