"""Unit tests for the conditional updates and the chain driver."""
import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from countmix.model import (
    CovariateColumn,
    Dataset,
    LINPRED_CLAMP,
    ModelSpec,
    ParamState,
    _nb_table,
    generate_synthetic,
)
from conftest import current_table, handoff, sweep_shared
from countmix import model, sampler
from countmix.cli import DEMO_TRUTH
from countmix.distributions import _log_gamma_raw
from countmix.sampler import (
    SamplerConfig,
    SamplerError,
    _cumsum_rows,
    _occupancy_weighted_rate,
    _pick,
    _to_weights,
    run_chain,
    run_chains,
    update_assignments,
    update_regressions,
    update_weights,
    update_zero_inflation,
)
from oracles import log_pmf_matrix, negbin_log_pmf


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.n_stored == 5000

    @pytest.mark.parametrize("kwargs", [
        {"iterations": 10, "burn_in": 10},
        {"thin": 0},
        {"chains": 0},
        {"target_accept": 1.5},
        {"iterations": 10, "burn_in": 5, "thin": 6},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplerConfig(**kwargs)


def _state_for(data, k, beta=None, psi=None, c=None, pi=None):
    d = data.d
    return ParamState(
        c=np.full(k, 1.0 / k) if c is None else np.asarray(c, dtype=float),
        beta=np.zeros((k, d)) if beta is None else np.asarray(beta, dtype=float),
        psi=np.ones(k) if psi is None else np.asarray(psi, dtype=float),
        z=np.zeros(data.n, dtype=np.int64),
        pi=pi if pi is None else np.asarray(pi, dtype=float),
    )


def responsibilities(state, data):
    """N x K membership probabilities from the term-by-term pmf.

    The pmf is the oracle's; the weighting is the sampler's _to_weights.
    """
    log_r = log_pmf_matrix(data, state.beta, state.psi, state.pi).T.copy()
    with np.errstate(divide="ignore"):
        _to_weights(log_r, np.log(state.c))
    return (log_r / log_r.sum(axis=0)).T


def _spy(monkeypatch, name, module=sampler):
    """Wrap module.<name>; returns the list of (args, result) of the calls it sees."""
    calls, fn = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, spy)
    return calls


class TestResponsibilities:
    def test_identical_components_give_weights(self, small_dataset):
        state = _state_for(small_dataset, 2, c=[0.3, 0.7],
                           beta=[[1.0, 0.2], [1.0, 0.2]], psi=[2.0, 2.0])
        r = responsibilities(state, small_dataset)
        np.testing.assert_allclose(r, np.tile([0.3, 0.7], (small_dataset.n, 1)),
                                   atol=1e-12)

    def test_loglik_gap_of_two(self):
        # With equal weights and a likelihood ratio of e^2, the first
        # component's responsibility is e^2/(1+e^2).
        data = Dataset(y=[3], X=np.ones((1, 1)), column_names=("intercept",))
        state = _state_for(data, 2, c=[0.5, 0.5], beta=[[1.0], [1.0]], psi=[2.0, 2.0])
        base = responsibilities(state, data)
        np.testing.assert_allclose(base[0], [0.5, 0.5], atol=1e-12)
        # Construct the e^2 gap directly in weight space instead: weights
        # proportional to (e^2, 1) with identical likelihoods.
        total = math.exp(2.0) + 1.0
        state2 = _state_for(data, 2, c=[math.exp(2.0) / total, 1.0 / total],
                            beta=[[1.0], [1.0]], psi=[2.0, 2.0])
        r = responsibilities(state2, data)
        assert r[0, 0] == pytest.approx(math.exp(2.0) / (1.0 + math.exp(2.0)), abs=1e-12)
        assert r[0, 0] == pytest.approx(0.880797, abs=1e-6)

    def test_zero_weight_component(self, small_dataset):
        state = _state_for(small_dataset, 2, c=[1.0, 0.0],
                           beta=[[1.0, 0.0], [1.0, 0.0]], psi=[2.0, 2.0])
        r = responsibilities(state, small_dataset)
        assert np.all(r[:, 1] == 0.0)

    def test_rows_sum_to_one(self, small_dataset, rng):
        state = _state_for(small_dataset, 4,
                           beta=rng.normal(0, 1, size=(4, 2)),
                           psi=np.exp(rng.normal(0, 1, size=4)),
                           c=rng.dirichlet(np.ones(4)))
        r = responsibilities(state, small_dataset)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-10)


class TestUpdateAssignments:
    def test_draws_follow_responsibilities(self, small_dataset, rng):
        state = _state_for(small_dataset, 2, c=[0.25, 0.75],
                           beta=[[1.0, 0.0], [1.0, 0.0]], psi=[2.0, 2.0])
        counts = np.zeros(2)
        for _ in range(200):
            z, _, _ = update_assignments(state, small_dataset, current_table(state, small_dataset),
                                         rng)
            counts += np.bincount(z, minlength=2)
        total = counts.sum()
        se = math.sqrt(0.25 * 0.75 / total)
        assert abs(counts[0] / total - 0.25) < 4 * se

    # Six rows, K_max = 4: z sits on slots 0-1, and the empty slots 2-3 carry
    # heavy weights and parameters of their own, so that most rows' draws
    # pass through the envelope cell of the empty slots.
    ORACLE_Y = [0, 0, 3, 7, 15, 40]
    ORACLE_X1 = [-1.0, 0.5, 0.0, 1.2, -0.4, 0.8]
    ORACLE_Z = [0, 1, 0, 1, 0, 1]
    ORACLE_DRAWS = 40_000
    ORACLE_COPIES = 2_000      # each draw updates this many copies of every row

    @staticmethod
    def _envelope_rows(calls):
        """Per _log_pmf call that passed rows, how many rows it evaluated on all K components."""
        return [len(args[5]) for args, _ in calls if len(args) > 5]

    @pytest.mark.parametrize("variant", ["nb", "zinb"])
    def test_envelope_draw_matches_dense_categorical(self, variant, monkeypatch):
        reps = self.ORACLE_COPIES
        x1 = np.tile(self.ORACLE_X1, reps)
        data = Dataset(y=np.tile(self.ORACLE_Y, reps), X=np.column_stack([np.ones(x1.size), x1]),
                       column_names=("intercept", "x1"))
        state = ParamState(
            c=np.array([0.3, 0.25, 0.25, 0.2]),
            beta=np.array([[math.log(2.0), 0.3], [math.log(10.0), -0.2],
                           [math.log(30.0), 0.1], [0.0, 0.0]]),
            psi=np.array([2.0, 8.0, 5.0, 1.0]),
            z=np.tile(self.ORACLE_Z, reps),
            pi=np.array([0.1, 0.2, 0.5, 0.3]) if variant == "zinb" else None,
        )
        expected = self.ORACLE_DRAWS * responsibilities(state, data)[:6]
        calls = _spy(monkeypatch, "_log_pmf")
        rng = np.random.default_rng(2024)
        counts = np.zeros((6, 4))
        for _ in range(self.ORACLE_DRAWS // reps):
            state.z = np.tile(self.ORACLE_Z, reps)
            z = update_assignments(state, data, current_table(state, data), rng)[0].reshape(reps, 6)
            assert np.all((z >= 0) & (z < 4))
            for k in range(4):
                counts[:, k] += (z == k).sum(axis=0)
        envelope_rows = self._envelope_rows(calls)
        assert len(envelope_rows) == self.ORACLE_DRAWS // reps
        assert sum(envelope_rows) > 0.2 * self.ORACLE_DRAWS * 6
        for n in range(6):
            assert stats.chisquare(counts[n], expected[n]).pvalue > 1e-3, n

    def test_all_slots_occupied_never_draws_the_envelope(self, small_dataset, rng,
                                                         monkeypatch):
        calls = _spy(monkeypatch, "_log_pmf")
        state = _state_for(small_dataset, 3, c=[0.2, 0.3, 0.5],
                           beta=[[0.5, 0.1], [1.5, 0.0], [2.5, -0.1]], psi=[1.0, 2.0, 3.0])
        for _ in range(200):
            state.z = np.arange(small_dataset.n) % 3
            update_assignments(state, small_dataset, current_table(state, small_dataset), rng)
        # An empty slot of zero weight leaves c_E = 0 too.
        state.c = np.array([0.4, 0.6, 0.0])
        for _ in range(200):
            state.z = np.arange(small_dataset.n) % 2
            z, _, _ = update_assignments(state, small_dataset, current_table(state, small_dataset),
                                         rng)
            assert np.all(z < 2)
        assert self._envelope_rows(calls) == []

    def test_single_slot(self, small_dataset, rng):
        state = _state_for(small_dataset, 1, beta=[[1.0, 0.2]])
        z, _, _ = update_assignments(state, small_dataset, current_table(state, small_dataset), rng)
        np.testing.assert_array_equal(z, 0)

    def test_underflowed_occupied_weights_draw_exactly(self, rng):
        # At y = 0 the occupied slots' log pmf is about -1800 and the empty
        # slots' about -800 (slots 2, 3) or -1300 (slot 1 when emptied), so
        # every weight underflows next to c_E, yet the draw must follow the
        # exact ratios among the slots that can matter.
        data = Dataset(y=[0], X=np.ones((1, 1)), column_names=("intercept",))
        state = _state_for(data, 4, c=[0.3, 0.25, 0.25, 0.2],
                           beta=[[40.0], [30.0], [20.0], [20.0]], psi=np.full(4, 50.0))
        z = np.empty(4000, dtype=int)
        for i in range(z.size):
            state.z[:] = 0
            z[i] = update_assignments(state, data, current_table(state, data), rng)[0][0]
        assert set(np.unique(z)) == {2, 3}
        share = np.mean(z == 2)
        assert abs(share - 0.25 / 0.45) < 4 * math.sqrt(share * (1 - share) / z.size)
        # With slot 3 out of reach, only slot 2 is ever drawn, never the last slot.
        state.beta[3, 0] = 35.0
        for _ in range(200):
            state.z[:] = 0
            assert update_assignments(state, data, current_table(state, data), rng)[0][0] == 2

    def test_nonfinite_occupied_weights_raise(self, small_dataset, rng):
        state = _state_for(small_dataset, 3, beta=[[np.nan, 0.0], [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SamplerError):
            update_assignments(state, small_dataset, current_table(state, small_dataset), rng)


class TestCumsumRows:
    # Weights as the assignment draw holds them: in [0, 1] with exact zeros,
    # (K_occ, N) for the occupied slots and (K, few rows) for the envelope.
    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 40)),
                  elements=st.one_of(st.just(0.0), st.floats(1e-300, 1.0))))
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_cumsum_bit_for_bit(self, w):
        expected = np.cumsum(w, axis=0)
        out = _cumsum_rows(w)
        assert out is w
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))


class TestToWeights:
    # Scaled lanes at and next to the -700 cut, and below it in numpy's slow range.
    EDGES = (0.0, -700.0, np.nextafter(-700.0, 0.0), np.nextafter(-700.0, -np.inf), -708.5,
             -745.2, -800.0)

    @staticmethod
    def _check(log_pmf, log_c, floor=-np.inf):
        scaled = log_pmf + log_c[:, np.newaxis]
        top = scaled.max(axis=0, initial=floor)
        scaled -= top
        w = log_pmf.copy()
        np.testing.assert_array_equal(_to_weights(w, log_c, floor), top)
        kept = scaled >= -700.0
        np.testing.assert_array_equal(w[kept].view(np.int64),
                                      np.exp(scaled[kept]).view(np.int64))
        np.testing.assert_array_equal(w[~kept].view(np.int64), 0)     # +0.0
        assert np.all(w[np.isneginf(log_c)] == 0.0)

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 40)),
                  elements=st.one_of(st.sampled_from(EDGES), st.floats(-2000.0, 0.0))),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_exp_at_or_above_minus_700_and_zero_below(self, log_pmf, data):
        k = log_pmf.shape[0]
        log_c = data.draw(arrays(np.float64, k, elements=st.one_of(
            st.just(-np.inf), st.just(0.0), st.floats(-50.0, 0.0))))
        assume(np.isfinite(log_c).any())
        floor = data.draw(st.one_of(st.just(-np.inf), st.floats(-100.0, 0.0)))
        self._check(log_pmf, log_c, floor)

    def test_lanes_at_the_cut(self):
        # Column 0's top is 0, so each scaled lane is its log pmf exactly;
        # slot 2 has c_k = 0.
        log_pmf = np.zeros((3, len(self.EDGES)))
        log_pmf[1] = self.EDGES
        self._check(log_pmf, np.array([0.0, 0.0, -np.inf]))


class TestPick:
    @staticmethod
    def _nextafter_formula(cum, total, u):
        return np.count_nonzero(np.minimum(u * total, np.nextafter(total, 0.0)) >= cum, axis=0)

    # u = 1 - 2^-53 is the largest value rng.random returns.
    U_MAX = 1.0 - 2.0 ** -53

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 40)),
                  elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_nextafter_formula_bit_for_bit(self, w, data):
        cum = np.cumsum(w, axis=0)
        n = w.shape[1]
        extra = data.draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0),
                                                                   st.floats(0.0, 1.0))))
        u = data.draw(arrays(np.float64, n, elements=st.one_of(
            st.just(0.0), st.just(self.U_MAX), st.floats(0.0, 1.0, exclude_max=True))))
        total = cum[-1] + extra
        np.testing.assert_array_equal(_pick(cum, total, u), self._nextafter_formula(cum, total, u))

    def test_u_times_total_rounding_up_to_total(self):
        # For a normal total, U_MAX * total stays below total (1.5 included);
        # for a subnormal one it rounds up to total, and the last cell of
        # zero mass must still not be drawn.
        total = np.array([1.5, 1.0, 5e-324, 3 * 5e-324])
        rounds_up = self.U_MAX * total >= total
        np.testing.assert_array_equal(rounds_up, [False, False, True, True])
        cum = np.stack([total / 2, total, total])        # cells: half, half, zero mass
        u = np.full(total.size, self.U_MAX)
        picks = _pick(cum, total, u)
        np.testing.assert_array_equal(picks, self._nextafter_formula(cum, total, u))
        assert np.all(picks < 2)


class TestUpdateWeights:
    def test_degenerate(self, rng):
        np.testing.assert_array_equal(update_weights(np.array([3]), ModelSpec(k_max=1), rng),
                                      [1.0])

    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=12).filter(any),
           st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_simplex(self, counts, alpha0):
        c = update_weights(np.array(counts), ModelSpec(alpha0=alpha0, k_max=len(counts)),
                           np.random.default_rng(0))
        assert np.all(c >= 0)
        assert c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_counts_sample_prior(self, rng):
        spec = ModelSpec(alpha0=0.5, k_max=3)
        draws = np.array([update_weights(np.bincount([], minlength=3), spec, rng)
                          for _ in range(20000)])
        se = math.sqrt((1 / 3) * (2 / 3) / 2.5 / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - 1 / 3) < 4 * se)

    def test_posterior_mean_closed_form(self):
        counts = np.array([420, 4091, 2607])
        alpha = counts + 0.1
        mean = alpha / alpha.sum()
        np.testing.assert_allclose(mean, [0.05902, 0.57475, 0.36624], atol=5e-5)

    def test_posterior_moments_monte_carlo(self, rng):
        counts = np.bincount(np.repeat([0, 1, 2], [420, 4091, 2607]), minlength=3)
        spec = ModelSpec(alpha0=0.1, k_max=3)
        m = 20000
        draws = np.array([update_weights(counts, spec, rng) for _ in range(m)])
        alpha = np.array([420.1, 4091.1, 2607.1])
        a0 = alpha.sum()
        mean = alpha / a0
        var = alpha * (a0 - alpha) / (a0 ** 2 * (a0 + 1))
        se = np.sqrt(var / m)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se)


class TestUpdateCoefficients:
    def test_zero_scale_never_moves(self, small_dataset, rng):
        spec = ModelSpec("nb", k_max=1)
        state = _state_for(small_dataset, 1, beta=[[1.5, -0.2]])
        before = state.beta.copy()
        flags = update_regressions(state, small_dataset, spec,
                                   *sweep_shared(state, small_dataset)[:2],
                                   *handoff(state, small_dataset), np.zeros((1, 3)), rng)
        np.testing.assert_array_equal(state.beta, before)
        # Zero step means the proposal equals the current point: ratio 1.
        assert np.all(flags == 1.0)

    def test_empty_component_prior_refresh(self, small_dataset, rng):
        spec = ModelSpec("nb", k_max=2)
        draws = []
        for _ in range(5000):
            state = _state_for(small_dataset, 2)
            state.z[:] = 0  # component 1 empty
            update_regressions(state, small_dataset, spec, *sweep_shared(state, small_dataset)[:2],
                               *handoff(state, small_dataset), np.array([[0.1, 0.1, 0.0]] * 2),
                               rng)
            draws.append(state.beta[1].copy())
        draws = np.array(draws)
        se_mean = 10.0 / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * se_mean)
        assert np.all(np.abs(draws.std(axis=0) - 10.0) < 0.5)


class TestUpdatePrecisions:
    def test_zero_scale_never_moves(self, small_dataset, rng):
        spec = ModelSpec("nb", k_max=1)
        state = _state_for(small_dataset, 1, psi=[3.0])
        flags = update_regressions(state, small_dataset, spec,
                                   *sweep_shared(state, small_dataset)[:2],
                                   *handoff(state, small_dataset), np.zeros((1, 3)), rng)
        # exp(log(3) + 0) round-trips through log space
        assert state.psi[0] == pytest.approx(3.0, rel=1e-15)
        assert flags[0, 2]

    def test_empty_component_prior_median(self, small_dataset, rng):
        spec = ModelSpec("nb", k_max=2)
        draws = []
        for _ in range(5000):
            state = _state_for(small_dataset, 2)
            state.z[:] = 0
            update_regressions(state, small_dataset, spec, *sweep_shared(state, small_dataset)[:2],
                               *handoff(state, small_dataset), np.array([[0.0, 0.0, 0.3]] * 2),
                               rng)
            draws.append(state.psi[1])
        draws = np.array(draws)
        # Prior is log-normal(0, 2): median exp(0) = 1.
        log_draws = np.log(draws)
        se = 2.0 / math.sqrt(draws.size)
        assert abs(np.median(log_draws)) < 4 * se
        assert abs(log_draws.std(ddof=1) - 2.0) < 0.15


class TestVectorisedMetropolis:
    """The regression block proposes for every component in one call; given
    z the components must still move independently, each on its own
    conditional."""

    @staticmethod
    def _three_components(n_per=50, seed=101):
        # Rows 0..n_per-1 belong to component 0 (a criterion-3 dataset),
        # the rest to component 1; component 2 is empty.
        beta0 = np.array([[math.log(8.0), 0.4]])
        data0, _ = generate_synthetic([1.0], beta0, [3.0], n_per,
                                      [CovariateColumn("x1", "normal")], seed=seed)
        data1, _ = generate_synthetic([1.0], [[math.log(30.0), -0.2]], [10.0], n_per,
                                      [CovariateColumn("x1", "normal")], seed=seed + 1)
        data = Dataset(y=np.concatenate([data0.y, data1.y]),
                       X=np.vstack([data0.X, data1.X]),
                       column_names=data0.column_names)
        state = ParamState(c=np.full(3, 1 / 3),
                           beta=np.array([[math.log(8.0), 0.4],
                                          [math.log(30.0), -0.2],
                                          [0.0, 0.0]]),
                           psi=np.array([3.0, 10.0, 1.0]),
                           z=np.repeat([0, 1], n_per))
        return data, data0, state

    def test_zero_scale_component_frozen_among_moving_ones(self, rng):
        data, _, state = self._three_components()
        spec = ModelSpec("nb", k_max=3)
        scales = np.array([[0.05, 0.05, 0.3], [0.0, 0.0, 0.0], [0.1, 0.1, 0.3]])
        frozen_beta, frozen_psi = state.beta[1].copy(), state.psi[1]
        start = copy.deepcopy(state)
        for _ in range(50):
            flags = update_regressions(state, data, spec, *sweep_shared(state, data)[:2],
                                       *handoff(state, data), scales, rng)
            np.testing.assert_array_equal(flags[1], True)
            assert flags.dtype == bool
        np.testing.assert_array_equal(state.beta[1], frozen_beta)
        assert state.psi[1] == pytest.approx(frozen_psi, rel=1e-14)
        assert np.all(state.beta[0] != start.beta[0])
        assert state.psi[0] != start.psi[0]
        assert np.all(state.beta[2] != start.beta[2]) and state.psi[2] != start.psi[2]

    def test_grid_quadrature_with_other_components_updating(self):
        # Criterion 3's oracle for component 0's slope and log psi, while
        # component 1 moves in the same calls and component 2 is refreshed.
        from test_acceptance import _grid_sd, _ks_against_grid

        data, data0, state = self._three_components()
        spec = ModelSpec("nb", k_max=3)
        b0, psi0 = math.log(8.0), 3.0

        grid_b = np.linspace(-0.4, 1.2, 4001)
        mu_grid = np.exp(b0 + grid_b[:, None] * data0.X[:, 1])
        logd_b = (negbin_log_pmf(np.tile(data0.y, (grid_b.size, 1)), mu_grid, psi0).sum(axis=1)
                  - 0.5 * (grid_b - spec.m0) ** 2 / spec.s0 ** 2)
        mu0 = np.exp(data0.X @ np.array([b0, 0.4]))
        grid_lp = np.linspace(math.log(0.8), math.log(15.0), 4001)
        logd_lp = (np.array([negbin_log_pmf(data0.y, mu0, math.exp(lp)).sum() for lp in grid_lp])
                   - 0.5 * (grid_lp - spec.a0) ** 2 / spec.b0 ** 2)

        draws, burn = 50000, 2000
        rng = np.random.default_rng(7)
        # The slope half freezes every ln psi and the ln psi half every beta, as
        # the oracles hold them fixed; empty component 2 is refreshed either way.
        scales = np.array([[0.0, 2.4 * _grid_sd(grid_b, logd_b), 0.0], [0.05, 0.05, 0.0],
                           [0.1, 0.1, 0.0]])
        slope = np.empty(draws)
        counts, table, _ = sweep_shared(state, data)
        for it in range(burn + draws):
            update_regressions(state, data, spec, counts, table, *handoff(state, data), scales,
                               rng)
            if it >= burn:
                slope[it - burn] = state.beta[0, 1]
        assert state.beta[1, 0] != math.log(30.0)

        state.beta[0] = [b0, 0.4]
        rng = np.random.default_rng(8)
        scales = np.array([[0.0, 0.0, 2.4 * _grid_sd(grid_lp, logd_lp)], [0.0, 0.0, 0.3],
                           [0.0, 0.0, 0.3]])
        log_psi = np.empty(draws)
        for it in range(burn + draws):
            update_regressions(state, data, spec, counts, table, *handoff(state, data), scales,
                               rng)
            if it >= burn:
                log_psi[it - burn] = math.log(state.psi[0])
        assert state.psi[1] != 10.0
        assert _ks_against_grid(slope, grid_b, logd_b) < 0.02
        assert _ks_against_grid(log_psi, grid_lp, logd_lp) < 0.02

    def test_matches_loop_that_drops_structural_zeros(self):
        # A per-component loop over negbin_log_pmf that leaves out the rows
        # with w = 1, drawing the same random numbers, must take every
        # accept/reject decision the vectorised block takes.  The zinb state
        # has a clamped component, one of structural zeros only (walked on
        # its prior) and an empty one (refreshed from the prior).
        def loglik(data, idx, beta_k, psi_k):
            eta = np.clip(data.X[idx] @ beta_k, -LINPRED_CLAMP, LINPRED_CLAMP)
            return negbin_log_pmf(data.y[idx], np.exp(eta), psi_k).sum()

        def reference(state, data, spec, scales_b, scales_p, rng):
            k, d = state.beta.shape
            steps = scales_b * rng.standard_normal((k, d))
            log_u = np.log(rng.random((k, d)))
            flags_b = np.zeros((k, d), dtype=bool)
            for j in range(k):
                idx = np.flatnonzero((state.z == j) & (state.w == 0))
                for dd in range(d):
                    prop = state.beta[j].copy()
                    prop[dd] += steps[j, dd]
                    ratio = (loglik(data, idx, prop, state.psi[j])
                             - loglik(data, idx, state.beta[j], state.psi[j])
                             - 0.5 / spec.s0 ** 2 * ((prop[dd] - spec.m0) ** 2
                                                     - (state.beta[j, dd] - spec.m0) ** 2))
                    if log_u[j, dd] < ratio:
                        state.beta[j], flags_b[j, dd] = prop, True
            empty = np.bincount(state.z, minlength=k) == 0
            state.beta[empty] = rng.normal(spec.m0, spec.s0, size=(int(empty.sum()), d))
            prop = np.log(state.psi) + scales_p * rng.standard_normal(k)
            log_u = np.log(rng.random(k))
            flags_p = np.zeros(k, dtype=bool)
            for j in range(k):
                idx = np.flatnonzero((state.z == j) & (state.w == 0))
                ratio = (loglik(data, idx, state.beta[j], math.exp(prop[j]))
                         - loglik(data, idx, state.beta[j], state.psi[j])
                         - 0.5 / spec.b0 ** 2 * ((prop[j] - spec.a0) ** 2
                                                 - (math.log(state.psi[j]) - spec.a0) ** 2))
                if log_u[j] < ratio:
                    state.psi[j], flags_p[j] = math.exp(prop[j]), True
            state.psi[empty] = np.exp(rng.normal(spec.a0, spec.b0, size=int(empty.sum())))
            return flags_b, flags_p

        gen = np.random.default_rng(0)
        n = 300
        X = np.column_stack([np.ones(n), gen.standard_normal(n), gen.binomial(1, 0.5, n)])
        y = gen.negative_binomial(2, 0.2, n)
        y[:60] = 0
        data = Dataset(y=y, X=X, column_names=("intercept", "x1", "x2"))
        z = gen.integers(0, 3, n)
        z[:15] = 3                       # component 3: structural zeros only
        w = np.zeros(n, dtype=np.int8)
        w[:40] = 1
        spec = ModelSpec("zinb", k_max=5)  # component 4 is empty
        vec = ParamState(c=np.full(5, 0.2), beta=gen.normal(0, 1, (5, 3)),
                         psi=np.exp(gen.normal(0, 1, 5)), z=z, pi=np.full(5, 0.3), w=w)
        vec.beta[0, 0] = 60.0            # every row of component 0 is clamped
        ref = copy.deepcopy(vec)
        scales_b, scales_p = np.full((5, 3), 0.2), np.full(5, 0.5)
        for it in range(100):
            rng_vec, rng_ref = np.random.default_rng(it), np.random.default_rng(it)
            counts, table, _ = sweep_shared(vec, data)
            flags_vec = update_regressions(vec, data, spec, counts, table, *handoff(vec, data),
                                           np.column_stack([scales_b, scales_p]), rng_vec)
            flags_ref = np.column_stack(reference(ref, data, spec, scales_b, scales_p, rng_ref))
            # An empty component's flags are not trials; its state is compared below.
            np.testing.assert_array_equal(flags_vec[counts > 0], flags_ref[counts > 0])
            np.testing.assert_allclose(vec.beta, ref.beta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(vec.psi, ref.psi, rtol=1e-12)


class TestUpdateZeroInflation:
    def _zinb_setup(self, n_zero=30, n_pos=70):
        gen = np.random.default_rng(11)
        y = np.concatenate([np.zeros(n_zero, dtype=int),
                            gen.poisson(8.0, size=n_pos) + 1])
        X = np.ones((y.size, 1))
        return Dataset(y=y, X=X, column_names=("intercept",))

    def test_pi_zero_forces_w_zero(self, rng):
        data = self._zinb_setup()
        draws = []
        for _ in range(4000):
            state = _state_for(data, 1, beta=[[2.0]], pi=[0.0])
            pi, w = update_zero_inflation(state, data, *sweep_shared(state, data), rng)
            assert np.all(w == 0)
            draws.append(pi[0])
        # Posterior is Beta(1, 1 + n); check the analytic mean.
        n = data.n
        mean = 1.0 / (n + 2.0)
        draws = np.array(draws)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - mean) < 4 * se

    def test_bernoulli_probability_two_thirds(self, rng):
        # pi = 0.5 and NB(0 | mu=1, psi=1) = 0.5 give P(w=1) = 2/3.
        data = Dataset(y=[0], X=np.ones((1, 1)), column_names=("intercept",))
        hits = 0
        m = 30000
        for _ in range(m):
            state = _state_for(data, 1, beta=[[0.0]], psi=[1.0], pi=[0.5])
            _, w = update_zero_inflation(state, data, *sweep_shared(state, data), rng)
            hits += int(w[0])
        se = math.sqrt((2 / 3) * (1 / 3) / m)
        assert abs(hits / m - 2 / 3) < 4 * se

    def test_positive_counts_never_structural(self, rng):
        data = self._zinb_setup()
        state = _state_for(data, 1, beta=[[2.0]], pi=[0.9])
        _, w = update_zero_inflation(state, data, *sweep_shared(state, data), rng)
        assert np.all(w[data.y > 0] == 0)


class TestZeroInflationConditionals:
    """Exact conditionals of update_zero_inflation at K = 3 (component 2
    empty), drawn many times from one fixed state: given z, w_n = 1 with
    probability p1 / (p1 + p0), p1 = pi_z and p0 = (1 - pi_z) NB(0 | mu_n,
    psi_z), and given w, pi_k ~ Beta(1 + s_k, 1 + n_k - s_k) with s_k the
    structural zeros among the n_k rows of component k."""

    DRAWS = 4000

    @pytest.fixture(scope="class")
    def draws(self):
        gen = np.random.default_rng(5)
        n = 60
        X = np.column_stack([np.ones(n), gen.standard_normal(n)])
        y = np.concatenate([np.zeros(40, dtype=int), gen.poisson(4.0, 20) + 1])
        data = Dataset(y=y, X=X, column_names=("intercept", "x1"))
        z = np.concatenate([np.repeat([0, 1], 20), np.repeat([0, 1], 10)])
        state = ParamState(c=np.array([0.5, 0.5, 0.0]),
                           beta=np.array([[1.0, 0.5], [0.5, -0.3], [0.0, 0.0]]),
                           psi=np.array([0.5, 20.0, 1.0]), z=z,
                           pi=np.array([0.6, 0.2, 0.4]))
        rng = np.random.default_rng(17)
        pis, ws = [], []
        shared = sweep_shared(state, data)
        for _ in range(self.DRAWS):
            pi, w = update_zero_inflation(copy.deepcopy(state), data, *shared, rng)
            pis.append(pi)
            ws.append(w)
        return data, state, np.array(pis), np.array(ws)

    def test_w_follows_its_bernoulli_conditional(self, draws):
        data, state, _, ws = draws
        z = state.z
        mu = np.exp(np.einsum("nd,nd->n", data.X, state.beta[z]))
        p1 = state.pi[z]
        p0 = (1.0 - p1) * np.exp(negbin_log_pmf(data.y, mu, state.psi[z]))
        prob = p1 / (p1 + p0)
        zero = data.y == 0
        assert np.all(ws[:, ~zero] == 0)
        hits = ws[:, zero].sum(axis=0)
        expected = self.DRAWS * prob[zero]
        chi2 = np.sum((hits - expected) ** 2 / (expected * (1.0 - prob[zero])))
        assert stats.chi2.sf(chi2, df=int(zero.sum())) > 1e-3
        # The two occupied components differ in psi, so in P(w = 1).
        assert abs(prob[zero & (z == 0)].mean() - prob[zero & (z == 1)].mean()) > 0.1

    def test_pi_follows_its_beta_conditional(self, draws):
        # Probability integral transform through each draw's own Beta
        # conditional: uniform on (0, 1) per component, empty one included.
        _, state, pis, ws = draws
        n_k = np.bincount(state.z, minlength=3)
        s_k = np.stack([np.bincount(state.z[w == 1], minlength=3) for w in ws])
        assert np.all(s_k[:, 2] == 0) and n_k[2] == 0
        assert np.mean(s_k[:, :2] != n_k[:2] - s_k[:, :2]) > 0.8
        u = stats.beta.cdf(pis, 1 + s_k, 1 + n_k - s_k)
        for k in range(3):
            assert stats.kstest(u[:, k], "uniform").pvalue > 1e-3


def _truth_data(truth, n):
    """n rows drawn from the two-component truth at seed 8."""
    return generate_synthetic(truth["c"], truth["beta"], truth["psi"], n, truth["covariates"],
                              seed=8)[0]


class TestHandoff:
    """The assignment draw hands each row's linear predictor and NB terms at
    its new component to the regression block, which forms no eta itself,
    and the terms to the structural-zero draw, which evaluates no pmf."""

    @pytest.mark.parametrize("variant", ["nb", "zinb"])
    def test_regressions_get_each_rows_eta_and_terms(self, two_component_truth, variant,
                                                     monkeypatch):
        # K_max = 6 over two true components leaves empty slots, so that rows
        # are drawn into the envelope cell and take their pair from its pass.
        data = _truth_data(two_component_truth, 200)
        nb_eta_terms, regressions = model._nb_eta_terms, sampler.update_regressions

        def check(state, data, spec, counts, table, eta, terms, scales, rng):
            expected = np.einsum("nd,nd->n", data.X, state.beta[state.z])
            np.testing.assert_allclose(eta, expected, rtol=1e-12)
            expected = nb_eta_terms(data._yf, expected, state.psi[state.z])
            np.testing.assert_allclose(terms, expected, rtol=1e-12)
            return regressions(state, data, spec, counts, table, eta, terms, scales, rng)

        monkeypatch.setattr(sampler, "update_regressions", check)
        # _log_pmf calls model._nb_eta_terms; update_regressions calls sampler's import of it.
        eta_terms = _spy(monkeypatch, "_nb_eta_terms", model), _spy(monkeypatch, "_nb_eta_terms")
        log_pmf, to_weights = _spy(monkeypatch, "_log_pmf"), _spy(monkeypatch, "_to_weights")
        sweeps = 60
        cfg = SamplerConfig(iterations=sweeps, burn_in=30, chains=1, master_seed=42)
        run_chain(ModelSpec(variant, k_max=6), data, cfg, chain_id=0)
        # One _to_weights call per sweep on the occupied pass, and one more in
        # each sweep that has envelope rows.
        assert len(to_weights) > sweeps
        # One call per _log_pmf pass, then D beta steps and one psi step per
        # sweep: the current terms are handed on, not formed again.
        assert sum(map(len, eta_terms)) == len(log_pmf) + (data.d + 1) * sweeps

    def test_zinb_sweep_evaluates_the_pmf_once_per_pass(self, two_component_truth, monkeypatch):
        # The structural-zero draw reads ln NB(0 | z_n) off the hand-off, so a
        # zinb sweep calls _log_pmf once on the occupied components and once
        # more only in a sweep with envelope rows: as often as _to_weights.
        data = _truth_data(two_component_truth, 200)
        assert data.zero_mask.any()
        spec = ModelSpec("zinb", k_max=6)
        state = sampler._initial_state(data, spec, 0)
        table = _nb_table(data, state.psi)
        scales = np.full((spec.k_max, data.d + 1), 0.1)
        rng = np.random.default_rng(42)
        log_pmf, to_weights = _spy(monkeypatch, "_log_pmf"), _spy(monkeypatch, "_to_weights")
        passes = []
        for _ in range(60):
            del log_pmf[:], to_weights[:]
            sampler.sweep(state, data, spec, table, scales, rng)
            assert len(log_pmf) == len(to_weights)
            passes.append(len(to_weights))
        assert set(passes) == {1, 2}


class TestRunChain:
    CFG = SamplerConfig(iterations=300, burn_in=150, chains=1, master_seed=42)

    def test_deterministic(self, two_component_truth):
        data = _truth_data(two_component_truth, 200)
        spec = ModelSpec("nb", k_max=4)
        a = run_chain(spec, data, self.CFG, chain_id=0)
        b = run_chain(spec, data, self.CFG, chain_id=0)
        np.testing.assert_equal(vars(a), vars(b))

    def test_trace_length_and_validity(self, two_component_truth):
        data = _truth_data(two_component_truth, 150)
        spec = ModelSpec("nb", k_max=3)
        cfg = SamplerConfig(iterations=220, burn_in=100, thin=3, chains=1,
                            master_seed=1)
        trace = run_chain(spec, data, cfg, chain_id=0)
        assert len(trace) == (220 - 100) // 3
        np.testing.assert_allclose(trace.c.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert np.all(trace.c >= 0)
        assert np.all(np.isfinite(trace.beta))
        assert np.all(np.isfinite(trace.psi)) and np.all(trace.psi > 0)
        assert np.all(trace.counts >= 0)
        np.testing.assert_array_equal(trace.counts.sum(axis=1), data.n)

    def test_single_component_recovery(self):
        beta_true = np.array([[math.log(12.0), 0.4]])
        data, _ = generate_synthetic([1.0], beta_true, [3.0], 3000,
                                     [CovariateColumn("x1", "normal")], seed=21)
        spec = ModelSpec("nb", k_max=1)
        cfg = SamplerConfig(iterations=1500, burn_in=700, chains=1, master_seed=5)
        trace = run_chain(spec, data, cfg, chain_id=0)
        for d in range(2):
            samples = trace.beta[:, 0, d]
            assert abs(samples.mean() - beta_true[0, d]) < 2 * samples.std(ddof=1) + 0.02

    def test_acceptance_rates_in_band(self, two_component_truth):
        data = _truth_data(two_component_truth, 500)
        spec = ModelSpec("nb", k_max=3)
        cfg = SamplerConfig(iterations=1600, burn_in=800, chains=1, master_seed=2)
        trace = run_chain(spec, data, cfg, chain_id=0)
        occupied = np.flatnonzero(trace.c.mean(axis=0) > 0.05)
        for k in occupied:
            rates = trace.accept_rates["beta"][k]
            assert np.all((rates > 0.15) & (rates < 0.6))
            assert 0.15 < trace.accept_rates["psi"][k] < 0.6

    def test_one_current_psi_table_per_sweep(self, two_component_truth, monkeypatch):
        # run_chain builds the current psi's (K, U) table once, and each
        # sweep's psi step builds only the proposal's: K (U + 1) ln Gamma
        # cells per sweep, and one table more.
        data = _truth_data(two_component_truth, 200)
        k = 4
        calls = _spy(monkeypatch, "_nb_table")
        cfg = SamplerConfig(iterations=20, burn_in=10, chains=1, master_seed=42)
        run_chain(ModelSpec("nb", k_max=k), data, cfg, chain_id=0)
        cells = sum(np.size(psi) * (d.y_unique.size + 1) for (d, psi), _ in calls)
        assert cells == (20 + 1) * k * (data.y_unique.size + 1)

    @pytest.mark.parametrize("counts", ["demo-800", "one-large-count"])
    def test_the_sweep_never_calls_the_lanczos_series(self, counts, monkeypatch):
        # The tables sum logs, whether the counts are dense (800 rows of the
        # demo truth) or sparse (one count of 300 000 among 59 Poisson(5)
        # rows).  Dataset's own call, for ln Gamma(y + 1), comes before the spy.
        if counts == "demo-800":
            truth = DEMO_TRUTH
            data, _ = generate_synthetic(
                truth["weights"], truth["beta"], truth["psi"], 800,
                [CovariateColumn(*col) for col in truth["covariates"]], seed=truth["seed"])
        else:
            y = np.append(np.random.default_rng(3).poisson(5.0, size=59), 300_000)
            data = Dataset(y=y, X=np.ones((60, 1)), column_names=("intercept",))
        calls = []

        def spy(x):
            calls.append(x.shape)
            return _log_gamma_raw(x)

        monkeypatch.setattr("countmix.model._log_gamma_raw", spy)
        cfg = SamplerConfig(iterations=20, burn_in=10, chains=1, master_seed=42)
        run_chain(ModelSpec("nb", k_max=3), data, cfg, chain_id=0)
        assert calls == []

    @pytest.mark.parametrize("model", ["nb", "zinb"])
    def test_carried_table_is_the_current_psis_after_every_sweep(self, two_component_truth,
                                                                 model, monkeypatch):
        # K_max = 6 over two true components leaves empty slots, whose psi
        # the psi step refreshes from the prior; their table rows must follow.
        data = _truth_data(two_component_truth, 200)
        fn, current, refreshed = sampler.sweep, [], []

        def checked(state, data, spec, table, *rest):
            flags, counts = fn(state, data, spec, table, *rest)
            current.append(np.array_equal(table, _nb_table(data, state.psi)))
            refreshed.append(np.count_nonzero(counts == 0))
            return flags, counts

        monkeypatch.setattr(sampler, "sweep", checked)
        cfg = SamplerConfig(iterations=30, burn_in=10, chains=1, master_seed=42)
        run_chain(ModelSpec(model, k_max=6), data, cfg, chain_id=0)
        assert len(current) == 30 and all(current)
        assert sum(n > 0 for n in refreshed) > 10

    def test_runs_one_sweep_per_iteration_and_stores_its_counts(self, two_component_truth,
                                                                monkeypatch):
        # The sweep criterion 4 checks must be the one the chain runs.
        data = _truth_data(two_component_truth, 200)
        calls = _spy(monkeypatch, "sweep")
        cfg = SamplerConfig(iterations=20, burn_in=10, thin=2, chains=1, master_seed=42)
        trace = run_chain(ModelSpec("nb", k_max=4), data, cfg, chain_id=0)
        assert len(calls) == 20
        # Sweeps 12, 14, ..., 20 are stored.
        np.testing.assert_array_equal(trace.counts, [counts for _, (_, counts) in calls[11::2]])

    def test_acceptance_rates_count_sweeps_where_the_component_holds_rows(
            self, two_component_truth, monkeypatch):
        # K_max = 6 over two true components: some slots hold rows in only
        # some sweeps, and one never does, so its rates are NaN.
        data = _truth_data(two_component_truth, 200)
        calls = _spy(monkeypatch, "sweep")
        cfg = SamplerConfig(iterations=60, burn_in=30, chains=1, master_seed=42)
        trace = run_chain(ModelSpec("nb", k_max=6), data, cfg, chain_id=0)
        flags = np.array([flags for _, (flags, _) in calls[30:]])
        live = np.array([counts > 0 for _, (_, counts) in calls[30:]])[:, :, np.newaxis]
        trials = live.sum(axis=0)
        assert np.any(trials == 0) and np.any((trials > 0) & (trials < 30))
        with np.errstate(invalid="ignore"):
            rates = (flags & live).sum(axis=0) / trials
        np.testing.assert_array_equal(trace.accept_rates["beta"], rates[:, :-1])
        np.testing.assert_array_equal(trace.accept_rates["psi"], rates[:, -1])

    @pytest.mark.parametrize("block", ["update_weights", "update_regressions"])
    def test_non_finite_state_names_the_sweep_and_chain(self, two_component_truth, block,
                                                        monkeypatch):
        # The block writes a NaN into c or psi at sweep 25, after burn-in.
        data = _truth_data(two_component_truth, 100)
        fn, calls = getattr(sampler, block), []

        def poisoned(*args):
            out = fn(*args)
            calls.append(args)
            if len(calls) == 25:
                if block == "update_weights":
                    out = np.full_like(out, np.nan)      # sweep stores it as c
                else:
                    args[0].psi[0] = np.nan
            return out

        monkeypatch.setattr(sampler, block, poisoned)
        cfg = SamplerConfig(iterations=40, burn_in=20, chains=1, master_seed=42)
        with pytest.raises(SamplerError, match=r"at sweep 25 \(chain 1\)"):
            run_chain(ModelSpec("nb", k_max=3), data, cfg, chain_id=1)
        assert len(calls) == 25

    def test_zinb_states_valid(self):
        data, _ = generate_synthetic([1.0], [[math.log(6.0)]], [4.0], 300, [],
                                     seed=13, pi=[0.3])
        spec = ModelSpec("zinb", k_max=2)
        trace = run_chain(spec, data, self.CFG, chain_id=0)
        assert trace.pi is not None
        assert np.all((trace.pi >= 0) & (trace.pi <= 1))


class TestOccupancyWeightedRate:
    def test_rarely_occupied_component_barely_counts(self):
        rate = _occupancy_weighted_rate(np.array([0.3, 0.9]), np.array([990.0, 10.0]))
        assert rate == pytest.approx(0.306, abs=1e-12)

    def test_never_occupied_component_is_ignored(self):
        rates = np.array([[0.2, 0.4], [np.nan, np.nan]])  # (K, D) beta rates
        assert _occupancy_weighted_rate(rates, np.array([50.0, 0.0])) == pytest.approx(0.3)

    def test_run_chain_weights_by_stored_counts(self, two_component_truth):
        data = _truth_data(two_component_truth, 200)
        trace = run_chain(ModelSpec("nb", k_max=4), data, TestRunChain.CFG, 0)
        mean_counts = trace.counts.mean(axis=0)
        for key in ("beta", "psi"):
            assert trace.accept_rates[f"{key}_weighted"] == _occupancy_weighted_rate(
                trace.accept_rates[key], mean_counts)


class TestRunChains:
    SPEC = ModelSpec("nb", k_max=3)
    CFG = SamplerConfig(iterations=200, burn_in=100, chains=3, master_seed=7)

    def test_parallel_matches_sequential(self, two_component_truth):
        data = _truth_data(two_component_truth, 150)
        par = run_chains(self.SPEC, data, self.CFG, parallel=True)
        seq = run_chains(self.SPEC, data, self.CFG, parallel=False)
        assert len(par) == len(seq) == 3
        np.testing.assert_equal([vars(t) for t in par], [vars(t) for t in seq])

    def test_refused_subprocesses_run_the_chains_in_this_process(self, two_component_truth,
                                                                 monkeypatch):
        def refuse(max_workers):
            raise OSError("subprocesses are not permitted here")

        monkeypatch.setattr(sampler, "ProcessPoolExecutor", refuse)
        data = _truth_data(two_component_truth, 150)
        fallback = run_chains(self.SPEC, data, self.CFG, parallel=True)
        seq = run_chains(self.SPEC, data, self.CFG, parallel=False)
        np.testing.assert_equal([vars(t) for t in fallback], [vars(t) for t in seq])

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity-mask", "cpu-count"])
    def test_one_usable_cpu_runs_the_chains_in_this_process(self, two_component_truth,
                                                            affinity, monkeypatch):
        # Two CPUs on the machine, but the process may run on one of them.
        def pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} was started for one CPU")

        monkeypatch.setattr(sampler, "ProcessPoolExecutor", pool)
        if affinity:
            monkeypatch.setattr(sampler.os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
            monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
        else:
            monkeypatch.delattr(sampler.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(sampler.os, "cpu_count", lambda: 1)
        data = _truth_data(two_component_truth, 150)
        traces = run_chains(self.SPEC, data, self.CFG, parallel=True)
        seq = run_chains(self.SPEC, data, self.CFG, parallel=False)
        np.testing.assert_equal([vars(t) for t in traces], [vars(t) for t in seq])

    def test_single_chain_matches_run_chain(self, two_component_truth):
        data = _truth_data(two_component_truth, 150)
        cfg = SamplerConfig(iterations=200, burn_in=100, chains=1, master_seed=7)
        (via_driver,) = run_chains(self.SPEC, data, cfg)
        direct = run_chain(self.SPEC, data, cfg, chain_id=0)
        np.testing.assert_array_equal(via_driver.beta, direct.beta)
