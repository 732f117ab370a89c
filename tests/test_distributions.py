"""Unit tests for ln Gamma, the reference NB/ZINB pmfs, and the samplers.

Exact values are checked against mpmath (multiprecision oracle); sampler
laws are checked by Monte Carlo moments and a chi-square goodness-of-fit.
The NB and ZINB pmfs are the test oracles of tests/oracles.py.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from countmix import distributions
from countmix.distributions import _log_gamma_raw, sample_negbin
from oracles import negbin_log_pmf, zinb_log_pmf

mpmath.mp.dps = 50


class TestLogGamma:
    def test_integer_values(self):
        assert _log_gamma_raw(1.0) == pytest.approx(0.0, abs=1e-12)
        assert _log_gamma_raw(5.0) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_half(self):
        assert _log_gamma_raw(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_against_mpmath_grid(self):
        # Absolute tolerance 1e-10 on [1e-6, 1e4]; purely relative above
        # that, where ln Gamma itself exceeds float64's absolute resolution.
        xs = np.logspace(-6, 4, 300)
        ours = _log_gamma_raw(xs)
        exact = np.array([float(mpmath.loggamma(x)) for x in xs])
        np.testing.assert_allclose(ours, exact, atol=1e-10, rtol=1e-12)
        xs_hi = np.logspace(4, 6, 50)
        np.testing.assert_allclose(
            _log_gamma_raw(xs_hi),
            [float(mpmath.loggamma(x)) for x in xs_hi],
            rtol=1e-13,
        )

    def test_recurrence(self):
        # Absolute 1e-10 up to 1e4; above that ln Gamma exceeds 1e5 and
        # float64 spacing alone is coarser than the absolute target, so the
        # check becomes relative.
        xs = np.logspace(-6, 4, 400)
        lhs = _log_gamma_raw(xs + 1.0)
        rhs = _log_gamma_raw(xs) + np.log(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        xs_hi = np.logspace(4, 6, 100)
        np.testing.assert_allclose(_log_gamma_raw(xs_hi + 1.0),
                                   _log_gamma_raw(xs_hi) + np.log(xs_hi), rtol=1e-13)

    @given(st.floats(min_value=1e-6, max_value=1e4))
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, x):
        assert _log_gamma_raw(x + 1.0) == pytest.approx(_log_gamma_raw(x) + math.log(x),
                                                        abs=1e-10)

    def test_array_shape(self):
        out = _log_gamma_raw(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (2, 2)


def _nb_exact(y, mu, psi):
    y, mu, psi = mpmath.mpf(y), mpmath.mpf(mu), mpmath.mpf(psi)
    return float(
        mpmath.loggamma(y + psi) - mpmath.loggamma(psi) - mpmath.loggamma(y + 1)
        + psi * mpmath.log(psi / (psi + mu)) + y * mpmath.log(mu / (psi + mu))
    )


class TestNegbinLogPmf:
    def test_geometric_values(self):
        # psi = 1 is geometric with success probability 1/(1+mu).
        assert negbin_log_pmf(0, 1.0, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
        assert negbin_log_pmf(3, 1.0, 1.0) == pytest.approx(math.log(1 / 16), abs=1e-12)

    def test_against_mpmath(self):
        for y, mu, psi in [(2, 3.0, 2.0), (0, 0.1, 0.1), (296, 44.0, 1.5),
                           (10, 300.0, 100.0), (5, 24.0, 150.0)]:
            assert negbin_log_pmf(y, mu, psi) == pytest.approx(
                _nb_exact(y, mu, psi), abs=1e-10)

    @given(mu=st.floats(min_value=0.1, max_value=300.0),
           psi=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_geometric_equivalence(self, mu, psi):
        del psi
        y = np.arange(51)
        geom = y * math.log(mu / (1 + mu)) - math.log(1 + mu)
        np.testing.assert_allclose(negbin_log_pmf(y, mu, 1.0), geom, atol=1e-12)

    @given(mu=st.floats(min_value=0.1, max_value=300.0),
           psi=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_pmf_normalizes(self, mu, psi):
        sd = math.sqrt(mu + mu * mu / psi)
        y_max = int(mu + 60 * sd) + 200
        total = np.exp(negbin_log_pmf(np.arange(y_max), mu, psi)).sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_finite_for_valid_inputs(self):
        vals = negbin_log_pmf(np.arange(0, 500, 7), 0.01, 0.01)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("mu,psi", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                        (1.0, -2.0), (float("inf"), 1.0)])
    def test_domain_errors(self, mu, psi):
        with pytest.raises(ValueError):
            negbin_log_pmf(1, mu, psi)

    def test_rejects_non_counts(self):
        with pytest.raises(ValueError):
            negbin_log_pmf(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            negbin_log_pmf(1.5, 1.0, 1.0)


class TestZinbLogPmf:
    def test_no_inflation_matches_nb(self):
        y = np.arange(30)
        np.testing.assert_allclose(
            zinb_log_pmf(y, 0.0, 3.0, 2.0), negbin_log_pmf(y, 3.0, 2.0), atol=1e-14)

    def test_full_inflation_at_zero(self):
        assert zinb_log_pmf(0, 1.0, 5.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_half_inflation(self):
        # 0.5 + 0.5 * NB(0 | mu=1, psi=1) = 0.5 + 0.25
        assert zinb_log_pmf(0, 0.5, 1.0, 1.0) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_positive_count_deflated(self):
        assert zinb_log_pmf(4, 0.3, 2.0, 1.5) == pytest.approx(
            math.log(0.7) + negbin_log_pmf(4, 2.0, 1.5), abs=1e-12)

    @given(pi=st.floats(min_value=0.0, max_value=1.0),
           mu=st.floats(min_value=0.1, max_value=100.0),
           psi=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_normalizes(self, pi, mu, psi):
        sd = math.sqrt(mu + mu * mu / psi)
        y = np.arange(int(mu + 60 * sd) + 200)
        total = np.exp(zinb_log_pmf(y, pi, mu, psi)).sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("pi", [-0.1, 1.1, float("nan")])
    def test_domain_errors(self, pi):
        with pytest.raises(ValueError):
            zinb_log_pmf(0, pi, 1.0, 1.0)


class TestSampleNegbin:
    def test_moments(self, rng):
        draws = sample_negbin(5.0, 2.0, rng, size=10 ** 6)
        mean, var = 5.0, 5.0 + 25.0 / 2.0
        se_mean = math.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) < 3 * se_mean
        # SE of the sample variance from the empirical fourth moment.
        dev = (draws - draws.mean()) ** 2
        se_var = dev.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.var(ddof=1) - var) < 3 * se_var

    def test_normal_approximation_above_the_poisson_cutoff(self, rng):
        # The gamma rates lie at least 8 SDs above the cutoff, so every
        # draw is the rounded normal one.
        mu, psi = 1e9, 100.0
        assert mu * (1.0 - 8.0 / math.sqrt(psi)) > distributions._POISSON_NORMAL_CUTOFF
        draws = sample_negbin(mu, psi, rng, size=20000)
        assert draws.dtype == np.int64 and np.all(draws >= 0)
        var = mu + mu ** 2 / psi
        assert abs(draws.mean() - mu) < 4 * math.sqrt(var / draws.size)
        dev = (draws - draws.mean()) ** 2
        assert abs(draws.var(ddof=1) - var) < 4 * dev.std(ddof=1) / math.sqrt(draws.size)

    def test_deterministic(self):
        a = sample_negbin(5.0, 2.0, np.random.default_rng(3), size=100)
        b = sample_negbin(5.0, 2.0, np.random.default_rng(3), size=100)
        np.testing.assert_array_equal(a, b)

    def test_chi_square_gof(self, rng):
        mu, psi = 4.0, 1.5
        draws = sample_negbin(mu, psi, rng, size=10 ** 6)
        cutoff = 40  # pool the tail so every cell has large expected count
        observed = np.bincount(np.minimum(draws, cutoff), minlength=cutoff + 1)
        probs = np.exp(negbin_log_pmf(np.arange(cutoff), mu, psi))
        probs = np.append(probs, 1.0 - probs.sum())
        chi2 = np.sum((observed - draws.size * probs) ** 2 / (draws.size * probs))
        p = stats.chi2.sf(chi2, df=cutoff)
        assert p > 0.001

    def test_scalar_and_array(self, rng):
        assert sample_negbin(2.0, 1.0, rng, size=3).shape == (3,)
        out = sample_negbin(np.array([1.0, 10.0]), np.array([1.0, 2.0]), rng, size=2)
        assert out.shape == (2,)

