"""Unit tests for relabeling, convergence statistics, and summaries."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix.diagnostics import (
    HARD_ASSIGNMENT_STATES,
    DegenerateFitError,
    component_summary,
    ess,
    hard_assignments,
    hpdi,
    occupied_counts,
    relabel,
    rhat,
)
from countmix.model import (
    Dataset,
    ModelSpec,
    generate_synthetic,
)
from countmix.sampler import SamplerConfig, Trace, run_chain
from oracles import log_pmf_matrix, negbin_log_pmf


def _ordered_trace(rng, s=60, k=3, d=2, n=25):
    """Trace whose components are already ascending in mu at x = (1, 0)."""
    intercepts = np.array([0.5, 1.5, 2.5])
    beta = np.empty((s, k, d))
    beta[:, :, 0] = intercepts[np.newaxis, :] + rng.normal(0, 0.05, size=(s, k))
    beta[:, :, 1] = rng.normal(0, 0.1, size=(s, k, d - 1)).reshape(s, k)
    c = rng.dirichlet(np.full(k, 5.0), size=s)
    psi = np.exp(rng.normal(0, 0.2, size=(s, k)))
    z = rng.integers(0, k, size=(s, n))
    return Trace(c=c, beta=beta, psi=psi, counts=_counts(z, k), pi=None,
                 column_names=("intercept", "x1"))


def _counts(z, k):
    """Per-state component row counts of an (S, N) label array."""
    return (z[:, :, np.newaxis] == np.arange(k)).sum(axis=1)


def _reversed(trace):
    """The same trace with component labels j -> K - 1 - j in every state."""
    return Trace(
        c=trace.c[:, ::-1].copy(), beta=trace.beta[:, ::-1].copy(),
        psi=trace.psi[:, ::-1].copy(), counts=trace.counts[:, ::-1].copy(),
        pi=None, column_names=trace.column_names)


REF_X = np.array([1.0, 0.0])


def _slots(rel, original, s):
    """Per slot of rel's state s, the slot of original that holds its weight."""
    return np.array([np.flatnonzero(original.c[s] == v).item() for v in rel.c[s]])


class TestRelabel:
    def test_ordered_trace_identity(self, rng):
        trace = _ordered_trace(rng)
        (rel,) = relabel([trace], reference_x=REF_X, weight_floor=0.0)
        assert type(rel) is Trace
        for s in range(len(trace)):
            np.testing.assert_array_equal(_slots(rel, trace, s), np.arange(3))
        np.testing.assert_array_equal(rel.beta, trace.beta)

    def test_swap_then_relabel_recovers(self, rng):
        trace = _ordered_trace(rng)
        perm = np.array([0, 2, 1])
        swapped = Trace(
            c=trace.c[:, perm], beta=trace.beta[:, perm], psi=trace.psi[:, perm],
            counts=trace.counts[:, perm], pi=None, column_names=trace.column_names)
        (rel,) = relabel([swapped], reference_x=REF_X, weight_floor=0.0)
        np.testing.assert_array_equal(rel.c, trace.c)
        np.testing.assert_array_equal(rel.beta, trace.beta)
        np.testing.assert_array_equal(rel.psi, trace.psi)
        np.testing.assert_array_equal(rel.counts, trace.counts)

    def test_idempotent(self, rng):
        trace = _ordered_trace(rng)
        shuffled = _reversed(trace)
        (once,) = relabel([shuffled], reference_x=REF_X, weight_floor=0.0)
        (twice,) = relabel([once], reference_x=REF_X, weight_floor=0.0)
        np.testing.assert_array_equal(once.beta, twice.beta)
        np.testing.assert_array_equal(once.counts, twice.counts)

    def test_zinb_pi_moves_with_its_component(self, rng):
        trace = replace(_ordered_trace(rng), pi=rng.uniform(0.0, 0.5, size=(60, 3)))
        perms = np.argsort(rng.random((len(trace), 3)), axis=1)   # one per state
        scrambled = replace(trace, **{
            name: np.take_along_axis(getattr(trace, name), perms, axis=1)
            for name in ("c", "psi", "counts", "pi")},
            beta=np.take_along_axis(trace.beta, perms[:, :, np.newaxis], axis=1))
        assert not np.array_equal(scrambled.pi, trace.pi)
        (rel,) = relabel([scrambled], reference_x=REF_X, weight_floor=0.0)
        for name in ("c", "beta", "psi", "counts", "pi"):
            np.testing.assert_array_equal(getattr(rel, name), getattr(trace, name))

    def test_relabeled_loglik_unchanged(self, rng, small_dataset):
        trace = _ordered_trace(rng, n=small_dataset.n)
        shuffled = _reversed(trace)
        (rel,) = relabel([shuffled], reference_x=REF_X, weight_floor=0.0)

        def mixture_loglik(t, s):
            ll = log_pmf_matrix(small_dataset, t.beta[s], t.psi[s]) + np.log(t.c[s])
            top = ll.max(axis=1)
            return float(np.sum(top + np.log(np.exp(ll - top[:, np.newaxis]).sum(axis=1))))

        for s in range(0, len(trace), 13):
            a = mixture_loglik(shuffled, s)
            b = mixture_loglik(rel, s)
            assert b == pytest.approx(a, abs=1e-12 * max(1.0, abs(a)))
            order = _slots(rel, shuffled, s)
            np.testing.assert_array_equal(rel.counts[s], shuffled.counts[s, order])

    def test_requires_reference(self, rng):
        with pytest.raises(TypeError):
            relabel([_ordered_trace(rng)])
        with pytest.raises(ValueError):
            relabel([], reference_x=REF_X, weight_floor=0.0)


class TestRhat:
    def test_identical_constant_chains(self):
        assert rhat([np.ones(100), np.ones(100)]) == 1.0

    def test_same_distribution(self):
        gen = np.random.default_rng(0)
        chains = [gen.normal(0, 1, size=10 ** 4) for _ in range(2)]
        assert rhat(chains) < 1.01

    def test_gross_offset(self):
        gen = np.random.default_rng(0)
        a = gen.normal(0, 1, size=10 ** 4)
        b = gen.normal(10, 1, size=10 ** 4)
        assert rhat([a, b]) > 2.0

    def test_detects_within_chain_drift(self):
        # Split halves catch a trend even when full-chain means agree.
        trend = np.linspace(-3, 3, 4000)
        gen = np.random.default_rng(1)
        chains = [trend + gen.normal(0, 0.1, size=4000) for _ in range(2)]
        assert rhat(chains) > 1.5

    def test_constant_halves_that_differ(self):
        # Every split half is constant, so the within-chain variance is 0,
        # but the halves disagree: no number of draws makes them agree.
        assert rhat([np.ones(100), np.full(100, 5.0)]) == math.inf
        jump = np.repeat([0.0, 1.0], 50)
        assert rhat([jump, jump]) == math.inf

    def test_stacked_trailing_axes(self, rng):
        traces = [_ordered_trace(rng) for _ in range(3)]
        beta = np.stack([t.beta for t in traces])            # (C, S, K, D)
        beta[:, :, 2, 1] = 0.25                               # one constant column
        values = rhat(beta)
        assert values.shape == beta.shape[2:]
        for j in range(3):
            for d in range(2):
                assert values[j, d] == rhat(beta[:, :, j, d])
        assert values[2, 1] == 1.0
        assert np.all(np.isfinite(values))

    def test_needs_two_chains(self):
        with pytest.raises(ValueError):
            rhat([np.arange(100.0)])


class TestEss:
    def test_white_noise(self):
        gen = np.random.default_rng(3)
        x = gen.normal(size=10 ** 4)
        assert abs(ess(x) - 10 ** 4) < 0.15 * 10 ** 4

    def test_ar1(self):
        gen = np.random.default_rng(4)
        n, phi = 200000, 0.9
        x = np.empty(n)
        x[0] = gen.normal()
        eps = gen.normal(size=n)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + eps[i]
        expected = n * (1 - phi) / (1 + phi)
        assert abs(ess(x) - expected) < 0.25 * expected

    def test_constant(self):
        assert ess(np.full(500, 2.5)) == 500.0

    def test_bounded(self):
        gen = np.random.default_rng(5)
        x = gen.normal(size=256)
        x = -x  # antithetic-like series can exceed N but not 1.5 N
        assert 0 < ess(x) <= 1.5 * 256

    def test_needs_min_length(self):
        with pytest.raises(ValueError):
            ess(np.arange(5.0))


class TestHpdi:
    def test_uniform_grid(self):
        lo, hi = hpdi(np.arange(1.0, 101.0), 0.95)
        assert (lo, hi) == (1.0, 96.0)

    def test_standard_normal(self):
        gen = np.random.default_rng(6)
        lo, hi = hpdi(gen.normal(size=4 * 10 ** 6), 0.95)
        assert lo == pytest.approx(-1.96, abs=0.05)
        assert hi == pytest.approx(1.96, abs=0.05)

    def test_point_mass(self):
        lo, hi = hpdi(np.full(50, 3.3), 0.9)
        assert lo == hi == 3.3

    def test_skew_shifts_interval(self):
        gen = np.random.default_rng(7)
        x = gen.exponential(size=10 ** 5)
        lo, hi = hpdi(x, 0.9)
        # Shortest interval for an exponential hugs zero.
        assert lo < 0.01
        assert hi == pytest.approx(-math.log(0.1), abs=0.05)

    @given(prob=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_width_monotone_in_prob(self, prob, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=500)
        lo1, hi1 = hpdi(x, prob)
        lo2, hi2 = hpdi(x, min(prob + 0.04, 0.99))
        assert hi2 - lo2 >= hi1 - lo1 - 1e-12

    @pytest.mark.parametrize("prob", [0.0, 1.0, -0.5, 2.0])
    def test_prob_domain(self, prob):
        with pytest.raises(ValueError):
            hpdi(np.arange(30.0), prob)

    def test_needs_min_length(self):
        with pytest.raises(ValueError):
            hpdi(np.arange(10.0), 0.5)

    def test_columns_equal_one_dimensional_calls(self):
        gen = np.random.default_rng(8)
        x = gen.exponential(size=(301, 4, 3))
        x[:, 0, 0] = 2.5                    # a point mass column
        x[:, 1, 1] = np.round(x[:, 1, 1])   # ties among the widths
        lo, hi = hpdi(x, 0.95)
        assert lo.shape == hi.shape == (4, 3)
        for j in range(4):
            for d in range(3):
                assert (lo[j, d], hi[j, d]) == hpdi(x[:, j, d], 0.95)
        assert all(type(v) is float for v in hpdi(x[:, 0, 0], 0.95))


@pytest.fixture(scope="module")
def separated_fit(two_component_truth_module):
    """A short real fit on well-separated 2-component data."""
    t = two_component_truth_module
    data, z_true = generate_synthetic(t["c"], t["beta"], t["psi"], 2000,
                                      t["covariates"], seed=30)
    spec = ModelSpec("nb", k_max=5)
    cfg = SamplerConfig(iterations=4000, burn_in=2000, chains=2, master_seed=3)
    traces = [run_chain(spec, data, cfg, chain_id=i) for i in range(2)]
    rel = relabel(traces, reference_x=data.X.mean(axis=0), weight_floor=0.01)
    return data, z_true, spec, rel


@pytest.fixture(scope="module")
def two_component_truth_module():
    from countmix.model import CovariateColumn
    return {
        "c": np.array([0.4, 0.6]),
        "beta": np.array([[np.log(2.0), 0.3], [np.log(50.0), -0.3]]),
        "psi": np.array([50.0, 50.0]),
        "covariates": [CovariateColumn("x1", "normal")],
    }


class TestHardAssignments:
    def test_well_separated_recovery(self, separated_fit):
        data, z_true, spec, rel = separated_fit
        assign = hard_assignments(rel, data)
        # Relabeled slot 0 is the low-mean component, matching truth's order.
        agreement = np.mean(assign == z_true)
        assert agreement >= 0.99

    def test_tie_goes_to_lower_index(self, rng):
        # Two identical components: every responsibility is exactly 0.5.
        data = Dataset(y=[4, 7], X=np.ones((2, 1)), column_names=("intercept",))
        s = 30
        beta = np.full((s, 2, 1), 1.5)
        trace = Trace(c=np.full((s, 2), 0.5), beta=beta, psi=np.full((s, 2), 2.0),
                      counts=None, pi=None)
        assign = hard_assignments([trace], data)
        np.testing.assert_array_equal(assign, [0, 0])


    @pytest.mark.parametrize("zinb", [False, True], ids=["nb", "zinb"])
    def test_matches_the_term_by_term_responsibilities(self, zinb):
        # Argmax of the oracle's normalised c_k f_k(y_n), averaged over the
        # same HARD_ASSIGNMENT_STATES states, strided over the chains pooled
        # in list order.
        gen = np.random.default_rng(11)
        n, s, k = 300, 350, 4
        x1 = gen.standard_normal(n)
        y = np.where(gen.random(n) < 0.2, 0, gen.poisson(np.exp(gen.uniform(0, 4, n))))
        data = Dataset(y=y, X=np.column_stack([np.ones(n), x1]),
                       column_names=("intercept", "x1"))
        # States scattered around four components with distinct means and
        # zero-inflation levels, with weights that vary from state to state.
        centre = np.array([[0.2, 0.3], [1.4, -0.2], [2.6, 0.1], [3.8, 0.0]])
        pi_centre = np.array([0.6, 0.05, 0.3, 0.01])
        traces = [Trace(c=gen.dirichlet(np.full(k, 2.0), size=s),
                        beta=centre + gen.normal(0.0, 0.6, size=(s, k, 2)),
                        psi=np.exp(gen.normal(1.5, 0.5, size=(s, k))), counts=None,
                        pi=np.clip(pi_centre + gen.normal(0.0, 0.05, size=(s, k)), 0.0, 1.0)
                        if zinb else None) for _ in range(2)]
        c, beta, psi = (np.concatenate([getattr(t, name) for t in traces])
                        for name in ("c", "beta", "psi"))
        pi = np.concatenate([t.pi for t in traces]) if zinb else None
        total = np.zeros((n, k))
        for i in np.linspace(0, 2 * s - 1, HARD_ASSIGNMENT_STATES).round().astype(int):
            log_r = log_pmf_matrix(data, beta[i], psi[i], pi[i] if zinb else None) + np.log(c[i])
            r = np.exp(log_r - log_r.max(axis=1, keepdims=True))
            total += r / r.sum(axis=1, keepdims=True)
        expected = np.argmax(total, axis=1)
        top_two = np.sort(total, axis=1)[:, -2:]
        assert np.all(top_two[:, 1] - top_two[:, 0] > 1e-9)   # no rounding-level ties
        assert len(np.unique(expected)) == k
        np.testing.assert_array_equal(hard_assignments(traces, data), expected)


class TestComponentSummary:
    def test_constant_beta_gives_unit_irr(self, rng):
        s = 40
        trace = Trace(c=np.tile([0.6, 0.4], (s, 1)),
                      beta=np.zeros((s, 2, 1)), psi=np.ones((s, 2)),
                      counts=None, pi=None)
        summaries = component_summary([trace], y_max=7, reference_x=np.ones(1),
                                      occupancy_threshold=0.01)
        for summ in summaries:
            assert summ.irr_mean[0] == pytest.approx(1.0, abs=1e-12)
            lo, hi = summ.irr_hpdi[0]
            assert lo == hi == pytest.approx(1.0, abs=1e-12)
            assert not summ.irr_excludes_one[0]

    def test_synthetic_recovery(self, separated_fit):
        data, _, spec, rel = separated_fit
        summaries = component_summary(rel, int(data.y.max()), data.X.mean(axis=0), 0.01)
        occupied = [s for s in summaries if s.occupied]
        assert len(occupied) == 2
        assert occupied[0].prevalence_mean == pytest.approx(0.4, abs=0.05)
        assert occupied[1].prevalence_mean == pytest.approx(0.6, abs=0.05)
        # Slope IRRs bracket the truth exp(+-0.3).
        assert occupied[0].irr_hpdi[1][0] < math.exp(0.3) < occupied[0].irr_hpdi[1][1]
        assert occupied[1].irr_hpdi[1][0] < math.exp(-0.3) < occupied[1].irr_hpdi[1][1]

    def test_prevalences_sum_to_one(self, separated_fit):
        data, _, spec, rel = separated_fit
        summaries = component_summary(rel, int(data.y.max()), data.X.mean(axis=0), 0.01)
        total = sum(s.prevalence_mean for s in summaries)
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("zinb", [False, True], ids=["nb", "zinb"])
    def test_pmf_matches_reference_formula(self, zinb):
        # Mean over the PMF_STATES strided pooled states of the closed-form
        # NB pmf at reference_x, with the zero point mass mixed in for ZINB.
        gen = np.random.default_rng(9)
        s, k, d, y_max = 350, 4, 3, 120
        traces = [Trace(c=gen.dirichlet(np.ones(k), size=s),
                        beta=gen.normal([2.0, 0.3, -0.2], 0.6, size=(s, k, d)),
                        psi=np.exp(gen.normal(1.0, 1.5, size=(s, k))), counts=None,
                        pi=gen.uniform(0.0, 0.5, size=(s, k)) if zinb else None)
                  for _ in range(2)]
        x = np.array([1.0, 0.4, -0.7])
        summaries = component_summary(traces, y_max=y_max, reference_x=x,
                                      occupancy_threshold=0.01)
        beta, psi = (np.concatenate([t.beta for t in traces]),
                     np.concatenate([t.psi for t in traces]))
        pi = np.concatenate([t.pi for t in traces]) if zinb else None
        y = np.arange(y_max + 51)
        expected = np.zeros((k, y.size))
        idx = np.linspace(0, 2 * s - 1, 200).round().astype(int)
        for t in idx:
            pmf = np.exp(negbin_log_pmf(y, np.exp(beta[t] @ x)[:, None], psi[t][:, None]))
            if zinb:
                pmf = (1.0 - pi[t][:, None]) * pmf
                pmf[:, 0] += pi[t]
            expected += pmf
        expected /= idx.size
        for j, summ in enumerate(summaries):
            np.testing.assert_allclose(summ.pmf, expected[j], rtol=1e-12)

    def test_degenerate_fit_raises(self, rng):
        s = 40
        trace = Trace(c=np.tile([0.5, 0.5], (s, 1)),
                      beta=np.zeros((s, 2, 1)), psi=np.ones((s, 2)),
                      counts=None, pi=None)
        with pytest.raises(DegenerateFitError):
            component_summary([trace], y_max=4, reference_x=np.ones(1),
                              occupancy_threshold=0.9)


class TestOccupiedCounts:
    def test_counts_match_unique_labels(self, rng):
        z = rng.integers(0, 6, size=(10, 8))
        trace = Trace(c=np.full((10, 6), 1 / 6), beta=np.zeros((10, 6, 1)),
                      psi=np.ones((10, 6)), counts=_counts(z, 6), pi=None)
        expected = [len(np.unique(z[s])) for s in range(10)]
        np.testing.assert_array_equal(occupied_counts(trace), expected)
