"""Unit tests for model containers, the NB likelihood kernel, and the generator."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from countmix.model import (
    CovariateColumn,
    Dataset,
    LINPRED_CLAMP,
    ModelSpec,
    ParamState,
    _log_pmf,
    _nb_table,
    generate_synthetic,
)
from oracles import log_pmf_matrix, negbin_log_pmf, zinb_log_pmf


class TestContainers:
    def test_hyperparam_defaults(self):
        s = ModelSpec()
        assert (s.variant, s.alpha0, s.m0, s.s0, s.a0, s.b0, s.k_max) == (
            "nb", 0.1, 0.0, 10.0, 0.0, 2.0, 10)

    @pytest.mark.parametrize("kwargs", [
        {"alpha0": 0.0}, {"s0": -1.0}, {"b0": 0.0}, {"k_max": 0},
    ])
    def test_hyperparam_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)

    def test_modelspec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("poisson")
        assert ModelSpec("zinb").zero_inflated
        assert not ModelSpec("nb").zero_inflated

    def test_dataset_requires_intercept(self):
        X = np.column_stack([np.full(4, 2.0), np.ones(4)])
        with pytest.raises(ValueError):
            Dataset(y=[1, 2, 3, 4], X=X, column_names=("a", "b"))

    def test_dataset_rejects_bad_outcomes(self):
        X = np.ones((3, 1))
        with pytest.raises(ValueError):
            Dataset(y=[1, -2, 3], X=X, column_names=("intercept",))
        with pytest.raises(ValueError):
            Dataset(y=[1.5, 2, 3], X=X, column_names=("intercept",))

    def test_dataset_rejects_nonfinite_covariates(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(ValueError):
            Dataset(y=[1, 2, 3], X=X, column_names=("intercept", "x"))

    @pytest.mark.parametrize("make,message", [
        (lambda: Dataset(y=[[1, 2]], X=np.ones((1, 1)), column_names=("intercept",)),
         "length N"),
        (lambda: Dataset(y=[1, 2], X=np.ones((3, 1)), column_names=("intercept",)), "length N"),
        (lambda: Dataset(y=[], X=np.ones((0, 1)), column_names=("intercept",)), "N >= 1"),
        (lambda: Dataset(y=[1], X=np.ones((1, 0)), column_names=()), "D >= 1"),
        (lambda: Dataset(y=[1, 2], X=np.ones((2, 2)), column_names=("intercept",)),
         "column_names"),
        (lambda: CovariateColumn("x1", "uniform"), "unknown covariate kind"),
        (lambda: generate_synthetic([1.0], [[0.0, 1.0]], [1.0], 10, [], seed=0),
         "non-intercept columns"),
    ], ids=["y-not-1d", "n-mismatch", "no-rows", "no-columns", "names-width", "covariate-kind",
            "covariate-count"])
    def test_shape_and_kind_errors(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_dataset_immutable(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.y[0] = 99


def _random_state(rng, k, d, n, zinb=False):
    c = rng.dirichlet(np.full(k, 2.0))
    state = ParamState(
        c=c,
        beta=rng.normal(0, 0.8, size=(k, d)),
        psi=np.exp(rng.normal(0, 0.5, size=k)),
        z=rng.integers(0, k, size=n),
    )
    if zinb:
        state.pi = rng.uniform(0.05, 0.6, size=k)
    return state


def complete_log_likelihood(state, data):
    """Sum over observations of the assigned component's kernel log pmf."""
    table = _nb_table(data, state.psi)
    ll = _log_pmf(data, table, state.beta, state.psi, state.pi)
    return float(ll[state.z, np.arange(data.n)].sum())


class TestCompleteLogLikelihood:
    def test_single_observation(self):
        data = Dataset(y=[7], X=np.array([[1.0, 0.5]]), column_names=("intercept", "x"))
        state = ParamState(
            c=np.array([1.0]), beta=np.array([[1.0, 0.4]]), psi=np.array([2.0]),
            z=np.array([0]))
        mu = math.exp(1.0 + 0.4 * 0.5)
        assert complete_log_likelihood(state, data) == pytest.approx(
            negbin_log_pmf(7, mu, 2.0), abs=1e-12)

    def test_duplicated_observation_doubles(self):
        X = np.array([[1.0, 0.5], [1.0, 0.5]])
        data = Dataset(y=[7, 7], X=X, column_names=("intercept", "x"))
        single = Dataset(y=[7], X=X[:1], column_names=("intercept", "x"))
        state = ParamState(
            c=np.array([1.0]), beta=np.array([[1.0, 0.4]]), psi=np.array([2.0]),
            z=np.array([0, 0]))
        one = ParamState(c=np.array([1.0]), beta=state.beta, psi=state.psi,
                         z=np.array([0]))
        assert complete_log_likelihood(state, data) == pytest.approx(
            2.0 * complete_log_likelihood(one, single), abs=1e-10)

    def test_term_by_term(self, rng):
        n, k = 5, 2
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = rng.poisson(4.0, size=n)
        data = Dataset(y=y, X=X, column_names=("intercept", "x"))
        state = _random_state(rng, k, 2, n)
        expected = sum(
            negbin_log_pmf(int(y[i]), math.exp(float(X[i] @ state.beta[state.z[i]])),
                           float(state.psi[state.z[i]]))
            for i in range(n))
        assert complete_log_likelihood(state, data) == pytest.approx(expected, abs=1e-9)

    def test_zinb_term_by_term(self, rng):
        n, k = 6, 2
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = np.array([0, 3, 0, 1, 8, 0])
        data = Dataset(y=y, X=X, column_names=("intercept", "x"))
        state = _random_state(rng, k, 2, n, zinb=True)
        expected = sum(
            zinb_log_pmf(int(y[i]), float(state.pi[state.z[i]]),
                         math.exp(float(X[i] @ state.beta[state.z[i]])),
                         float(state.psi[state.z[i]]))
            for i in range(n))
        assert complete_log_likelihood(state, data) == pytest.approx(expected, abs=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        gen = np.random.default_rng(seed)
        n, k = 12, 4
        X = np.column_stack([np.ones(n), gen.standard_normal(n)])
        data = Dataset(y=gen.poisson(3.0, size=n), X=X, column_names=("intercept", "x"))
        state = _random_state(gen, k, 2, n)
        perm = gen.permutation(k)
        inv = np.argsort(perm)
        permuted = ParamState(c=state.c[perm], beta=state.beta[perm],
                              psi=state.psi[perm], z=inv[state.z])
        base = complete_log_likelihood(state, data)
        assert complete_log_likelihood(permuted, data) == pytest.approx(
            base, abs=1e-12 * max(1.0, abs(base)))

    def test_poisson_limit(self, rng):
        from countmix.distributions import _log_gamma_raw
        n = 30
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = rng.poisson(6.0, size=n)
        data = Dataset(y=y, X=X, column_names=("intercept", "x"))
        beta = np.array([[math.log(6.0), 0.2]])
        state = ParamState(c=np.array([1.0]), beta=beta, psi=np.array([1e6]),
                           z=np.zeros(n, dtype=int))
        mu = np.exp(np.clip(X @ beta[0], -LINPRED_CLAMP, LINPRED_CLAMP))
        yf = y.astype(float)
        poisson = yf * np.log(mu) - mu - _log_gamma_raw(yf + 1.0)
        nb = complete_log_likelihood(state, data)
        assert abs(nb - poisson.sum()) < 1e-4 * n


class TestNbTable:
    """``_nb_table`` sums ln(psi + j) over j < y for ln Gamma(y + psi) - ln Gamma(psi)."""

    PSI = np.array([1e-3, 0.1, 1.0, 10.0, 150.0, 1e4, 1e6])
    # Every count to 11, then 40 counts up to 300 000, the large count of the
    # README's known limitation.
    Y = np.unique(np.r_[np.arange(12), np.geomspace(12, 300_000, 40).round()])
    # Each cell lies within BOUND of its exact value, relative to the sum of
    # the magnitudes of its four terms (or to 1, if that is less).  The sum's
    # error grows with y; measured, 3.3e-15 up to y = 50 000 and 9.6e-15 at
    # y = 300 000 (an absolute 1.3e-7).
    BOUND = 2e-14

    def test_matches_mpmath(self):
        data = Dataset(y=self.Y, X=np.ones((self.Y.size, 1)), column_names=("intercept",))
        with mpmath.workdps(40):
            exact = np.array([[float(mpmath.loggamma(int(y) + mpmath.mpf(p)) - mpmath.loggamma(p)
                                     - mpmath.loggamma(int(y) + 1) + p * mpmath.log(p))
                               for y in self.Y] for p in self.PSI])
        psi = self.PSI[:, np.newaxis]
        scale = np.maximum(1.0, np.abs(gammaln(self.Y + psi) - gammaln(psi))
                           + gammaln(self.Y + 1.0) + np.abs(psi * np.log(psi)))
        err = np.abs(_nb_table(data, self.PSI) - exact)
        assert np.all(err <= self.BOUND * scale)

    def test_shape_follows_psi(self, small_dataset):
        u = small_dataset.y_unique.size
        assert _nb_table(small_dataset, 2.0).shape == (u,)
        assert _nb_table(small_dataset, np.full((3, 4), 2.0)).shape == (3, 4, u)


class TestZinbIdentifiability:
    """The ZINB mixture likelihood sees the structural-zero masses
    b_k = c_k * pi_k only through their sum B: a structural zero carries no
    covariate information.  With the NB masses a_k = c_k * (1 - pi_k) held
    fixed, every split of B has the same likelihood, so pi_k is not
    identified one component at a time (acceptance criterion 6 gates B and
    a_k instead)."""

    C = np.array([0.06, 0.58, 0.36])
    PI = np.array([0.3, 0.05, 0.0])
    BETA = np.array([[1.8, 0.6], [2.7, 0.25], [4.2, -0.5]])
    PSI = np.array([2.5, 150.0, 150.0])

    @pytest.fixture(scope="class")
    def data(self):
        data, _ = generate_synthetic(self.C, self.BETA, self.PSI, 400,
                                     [CovariateColumn("x1", "normal")], seed=4,
                                     pi=self.PI)
        return data

    def _mixture_loglik(self, data, a, b):
        c = a + b
        ll = log_pmf_matrix(data, self.BETA, self.PSI, b / c)
        return float(np.logaddexp.reduce(ll + np.log(c), axis=1).sum())

    def test_splits_of_b_share_the_likelihood(self, data):
        assert data.zero_mask.any()
        a = self.C * (1.0 - self.PI)
        total = float(np.sum(self.C * self.PI))
        splits = [self.C * self.PI, np.array([total, 0.0, 0.0]),
                  np.array([0.0, 0.0, total]), np.full(3, total / 3)]
        values = [self._mixture_loglik(data, a, b) for b in splits]
        np.testing.assert_allclose(values[1:], values[0], rtol=1e-10)

    def test_changing_b_changes_the_likelihood(self, data):
        a = self.C * (1.0 - self.PI)
        b = self.C * self.PI
        base = self._mixture_loglik(data, a, b)
        # Move mass from the NB parts to B, keeping sum_k c_k = 1.
        shift = 0.05
        moved = self._mixture_loglik(data, a * (1.0 - shift / a.sum()),
                                     b + shift * b / b.sum())
        assert abs(moved - base) > 1.0


class TestGenerateSynthetic:
    def test_near_poisson_mean(self):
        data, _ = generate_synthetic(
            c=[1.0], beta=[[math.log(5.0)]], psi=[1e6], n=10 ** 5,
            covariates=[], seed=0)
        se = math.sqrt(5.0 / data.n)
        assert abs(data.y.mean() - 5.0) < 3 * se

    def test_component_frequencies(self):
        c = np.array([0.06, 0.58, 0.37]) / 1.01
        _, z = generate_synthetic(
            c=c, beta=[[1.0], [2.0], [3.0]], psi=[1.0, 1.0, 1.0], n=10 ** 5,
            covariates=[], seed=1)
        freq = np.bincount(z, minlength=3) / z.size
        se = np.sqrt(c * (1 - c) / z.size)
        assert np.all(np.abs(freq - c) < 3 * se)

    def test_deterministic(self, two_component_truth):
        t = two_component_truth
        a, za = generate_synthetic(t["c"], t["beta"], t["psi"], 500,
                                   t["covariates"], seed=5)
        b, zb = generate_synthetic(t["c"], t["beta"], t["psi"], 500,
                                   t["covariates"], seed=5)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.X, b.X)
        assert a.column_names == b.column_names
        np.testing.assert_array_equal(za, zb)

    def test_simplex_violation(self):
        with pytest.raises(ValueError):
            generate_synthetic([0.06, 0.58, 0.37], np.zeros((3, 1)),
                               [1.0, 1.0, 1.0], 10, [], seed=0)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_synthetic([1.0], [[0.0]], [1.0], 0, [], seed=0)

    def test_zero_inflation_raises_zero_fraction(self):
        base, _ = generate_synthetic([1.0], [[math.log(8.0)]], [5.0], 20000,
                                     [], seed=2)
        inflated, _ = generate_synthetic([1.0], [[math.log(8.0)]], [5.0], 20000,
                                         [], seed=2, pi=[0.4])
        frac_base = (base.y == 0).mean()
        frac_infl = (inflated.y == 0).mean()
        assert frac_infl > frac_base + 0.3

    def test_binary_covariate(self):
        data, _ = generate_synthetic(
            [1.0], [[0.0, 0.0]], [1.0], 5000,
            [CovariateColumn("b", "binary", 0.25)], seed=3)
        col = data.X[:, 1]
        assert set(np.unique(col)) <= {0.0, 1.0}
        assert abs(col.mean() - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 5000)
