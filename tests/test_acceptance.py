"""Acceptance suite: nine numbered criteria, one pass/fail line each.

Criteria 1-4 are exactness and stationarity checks against independent
oracles (closed forms, grid quadrature, prior-vs-Gibbs moment matching).
Criteria 5-7 run the full-scale synthetic recovery fits.  Criteria 8-9
exercise the CLI end to end.  Each test prints one CRITERION line; the
conftest hook repeats them in the terminal summary.
"""
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import current_table, handoff, record_criterion
from countmix.cli import (
    DEMO_TRUTH,
    DEMO_TRUTH_ZINB,
    EXIT_INPUT,
    EXIT_OK,
    run,
)
from countmix.diagnostics import (
    hpdi,
    hard_assignments,
    occupied_counts,
    relabel,
    rhat,
)
from countmix.distributions import _log_gamma_raw, sample_negbin
from countmix.model import (
    CovariateColumn,
    Dataset,
    LINPRED_CLAMP,
    ModelSpec,
    ParamState,
    generate_synthetic,
)
from countmix.sampler import (
    SamplerConfig,
    run_chains,
    sweep,
    update_regressions,
    update_weights,
)
from oracles import _nb_logpmf_raw, negbin_log_pmf

MASTER_SEED = 11  # fit seed for the full-scale recovery runs


# ---------------------------------------------------------------------------
# criterion 1: distribution exactness


def test_criterion_1_distribution_exactness():
    start = time.time()
    mus = [0.1, 3.0, 30.0, 100.0, 300.0]
    psis = [0.1, 1.0, 10.0, 100.0]
    worst_sum = 0.0
    for mu in mus:
        for psi in psis:
            sd = math.sqrt(mu + mu * mu / psi)
            y = np.arange(int(mu + 80 * sd) + 200)
            total = np.exp(negbin_log_pmf(y, mu, psi)).sum()
            worst_sum = max(worst_sum, abs(total - 1.0))
    y = np.arange(51)
    worst_geom = 0.0
    for mu in [0.1, 1.0, 24.0, 300.0]:
        geom = y * math.log(mu / (1 + mu)) - math.log(1 + mu)
        worst_geom = max(worst_geom, np.max(np.abs(negbin_log_pmf(y, mu, 1.0) - geom)))
    xs = np.logspace(-6, 4, 400)
    worst_rec = np.max(np.abs(_log_gamma_raw(xs + 1.0) - _log_gamma_raw(xs) - np.log(xs)))
    elapsed = time.time() - start
    ok = worst_sum < 1e-8 and worst_geom < 1e-12 and worst_rec < 1e-10 and elapsed < 1.0
    record_criterion(1, ok, f"pmf sum err {worst_sum:.2e}, geometric err {worst_geom:.2e}, "
                            f"recurrence err {worst_rec:.2e}, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: conjugacy exactness


def test_criterion_2_conjugacy_exactness():
    start = time.time()
    z = np.repeat([0, 1, 2], [420, 4091, 2607])
    spec = ModelSpec(alpha0=0.1, k_max=3)
    rng = np.random.default_rng(0)
    m = 10 ** 5
    total = np.zeros(3)
    for _ in range(m):
        total += update_weights(np.bincount(z, minlength=3), spec, rng)
    empirical = total / m
    alpha = np.array([420.1, 4091.1, 2607.1])
    a0 = alpha.sum()
    mean = alpha / a0
    var = alpha * (a0 - alpha) / (a0 ** 2 * (a0 + 1))
    se = np.sqrt(var / m)
    devs = np.abs(empirical - mean) / se
    elapsed = time.time() - start
    ok = bool(np.all(devs < 3.0)) and elapsed < 10.0
    record_criterion(2, ok, f"max |dev|/SE {devs.max():.2f} over {m} draws, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: conditional-correctness oracles (grid quadrature)


def _ks_against_grid(samples, grid, log_density):
    log_density = log_density - log_density.max()
    density = np.exp(log_density)
    cdf = np.cumsum(density)
    cdf /= cdf[-1]
    x = np.sort(samples)
    grid_cdf = np.interp(x, grid, cdf)
    n = len(x)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return max(np.max(np.abs(ecdf_hi - grid_cdf)), np.max(np.abs(ecdf_lo - grid_cdf)))


def _grid_sd(grid, log_density):
    """Standard deviation of a density known up to a constant on a grid."""
    dens = np.exp(log_density - log_density.max())
    dens /= dens.sum()
    return math.sqrt(np.sum(dens * (grid - np.sum(dens * grid)) ** 2))


def test_criterion_3_grid_quadrature_oracles():
    start = time.time()
    spec = ModelSpec("nb", k_max=1)
    beta_true = np.array([[math.log(8.0), 0.4]])
    data, _ = generate_synthetic([1.0], beta_true, [3.0], 50,
                                 [CovariateColumn("x1", "normal")], seed=101)
    z = np.zeros(50, dtype=np.int64)
    draws = 50000
    burn = 2000

    def conditional_beta1(b1, b0, psi):
        eta = np.clip(b0 * data.X[:, 0] + b1[:, None] * data.X[:, 1],
                      -LINPRED_CLAMP, LINPRED_CLAMP)
        mu = np.exp(eta)
        ll = negbin_log_pmf(np.tile(data.y, (len(b1), 1)), mu, psi).sum(axis=1)
        return ll - 0.5 * (b1 - spec.m0) ** 2 / spec.s0 ** 2

    b0_fixed, psi_fixed = math.log(8.0), 3.0
    grid_b = np.linspace(0.4 - 0.8, 0.4 + 0.8, 4001)
    logd_b = conditional_beta1(grid_b, b0_fixed, psi_fixed)
    sd_b = _grid_sd(grid_b, logd_b)

    rng = np.random.default_rng(7)
    state = ParamState(c=np.array([1.0]), beta=np.array([[b0_fixed, 0.4]]),
                       psi=np.array([psi_fixed]), z=z)
    scales = np.array([[0.0, 2.4 * sd_b, 0.0]])  # frozen intercept and ln psi, tuned slope
    counts, table = np.bincount(z, minlength=1), current_table(state, data)
    samples_b = np.empty(draws)
    for it in range(burn + draws):
        update_regressions(state, data, spec, counts, table, *handoff(state, data), scales,
                           rng)
        if it >= burn:
            samples_b[it - burn] = state.beta[0, 1]
    ks_b = _ks_against_grid(samples_b, grid_b, logd_b)

    def conditional_psi(psi_grid):
        eta = np.clip(data.X @ np.array([b0_fixed, 0.4]), -LINPRED_CLAMP, LINPRED_CLAMP)
        mu = np.exp(eta)
        out = np.empty(len(psi_grid))
        for i, p in enumerate(psi_grid):
            ll = negbin_log_pmf(data.y, mu, p).sum()
            lp = np.log(p)
            out[i] = ll - 0.5 * (lp - spec.a0) ** 2 / spec.b0 ** 2 - lp
        return out

    grid_p = np.linspace(0.8, 15.0, 4001)
    logd_p = conditional_psi(grid_p)
    sd_lp = _grid_sd(np.log(grid_p), logd_p)

    rng = np.random.default_rng(8)
    state = ParamState(c=np.array([1.0]), beta=np.array([[b0_fixed, 0.4]]),
                       psi=np.array([psi_fixed]), z=z)
    scales = np.array([[0.0, 0.0, 2.4 * sd_lp]])  # frozen beta, tuned ln psi
    table = current_table(state, data)
    samples_p = np.empty(draws)
    for it in range(burn + draws):
        update_regressions(state, data, spec, counts, table, *handoff(state, data), scales,
                           rng)
        if it >= burn:
            samples_p[it - burn] = state.psi[0]
    ks_p = _ks_against_grid(samples_p, grid_p, logd_p)

    elapsed = time.time() - start
    ok = ks_b < 0.02 and ks_p < 0.02 and elapsed < 120.0
    record_criterion(3, ok, f"KS beta {ks_b:.4f}, KS psi {ks_p:.4f} "
                            f"at {draws} draws, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: Geweke joint-distribution test


def _geweke_prior_draw(rng, spec, X):
    k, n = spec.k_max, X.shape[0]
    c = update_weights(np.zeros(k, dtype=np.int64), spec, rng)
    state = ParamState(
        c=c,
        beta=rng.normal(spec.m0, spec.s0, size=(k, X.shape[1])),
        psi=np.exp(rng.normal(spec.a0, spec.b0, size=k)),
        z=rng.choice(k, size=n, p=c),
    )
    if spec.zero_inflated:
        state.pi = rng.beta(1.0, 1.0, size=k)
        state.w = (rng.random(n) < state.pi[state.z]).astype(np.int8)
    return state


def _geweke_generate_y(rng, state, X):
    eta = np.clip(np.einsum("nd,nd->n", X, state.beta[state.z]),
                  -LINPRED_CLAMP, LINPRED_CLAMP)
    y = sample_negbin(np.exp(eta), state.psi[state.z], rng, size=X.shape[0])
    if state.w is not None:
        y = np.where(state.w == 1, 0, y)
    return y


def _geweke_scalars(state, y):
    out = [state.c[0], state.beta[0, 0], state.beta[1, 0], state.beta[0, 1],
           math.log(state.psi[0]), math.log(state.psi[1]),
           float(np.mean(y)), float(np.mean(y == 0))]
    if state.pi is not None:
        out += [state.pi[0], state.pi[1], float(state.w.mean())]
    return out


def _geweke_zscores(variant, seed):
    from countmix.diagnostics import ess
    rng = np.random.default_rng(seed)
    n, k = 20, 2
    # Tame hyperparameters keep the prior-generated counts finite so both
    # loops explore the same region in reasonable time.
    spec = ModelSpec(variant, alpha0=1.0, m0=0.0, s0=0.6, a0=0.5, b0=0.5, k_max=k)
    x_rng = np.random.default_rng(99)
    X = np.column_stack([np.ones(n), x_rng.standard_normal(n)])
    names = ("intercept", "x1")
    m1, m2 = 8000, 40000

    marginal = []
    for _ in range(m1):
        state = _geweke_prior_draw(rng, spec, X)
        marginal.append(_geweke_scalars(state, _geweke_generate_y(rng, state, X)))
    marginal = np.array(marginal)

    state = _geweke_prior_draw(rng, spec, X)
    y = _geweke_generate_y(rng, state, X)
    successive = []
    for _ in range(m2):
        # y changes every iteration, so each sweep gets a fresh table.
        data = Dataset(y=y, X=X, column_names=names)
        sweep(state, data, spec, current_table(state, data), np.full((k, 3), 0.5), rng)
        y = _geweke_generate_y(rng, state, X)
        successive.append(_geweke_scalars(state, y))
    successive = np.array(successive)

    zs = []
    for j in range(marginal.shape[1]):
        for power in (1, 2):
            a = marginal[:, j] ** power
            b = successive[:, j] ** power
            se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / ess(b))
            zs.append((a.mean() - b.mean()) / se)
    return np.array(zs)


def test_criterion_4_geweke():
    start = time.time()
    z_nb = _geweke_zscores("nb", seed=1)
    z_zinb = _geweke_zscores("zinb", seed=2)
    worst = max(np.max(np.abs(z_nb)), np.max(np.abs(z_zinb)))
    elapsed = time.time() - start
    ok = worst < 4.0 and elapsed < 300.0
    record_criterion(4, ok, f"max |z| {worst:.2f} over "
                            f"{len(z_nb) + len(z_zinb)} tracked moments, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# criteria 5 and 7 share the full-scale NB recovery fit


@pytest.fixture(scope="module")
def headline_fit():
    truth = DEMO_TRUTH
    data, z_true = generate_synthetic(
        c=np.array(truth["weights"]),
        beta=np.array(truth["beta"]),
        psi=np.array(truth["psi"]),
        n=truth["n"],
        covariates=[CovariateColumn(*e) for e in truth["covariates"]],
        seed=truth["seed"],
    )
    spec = ModelSpec("nb", k_max=10)
    cfg = SamplerConfig(iterations=10000, burn_in=5000, chains=4,
                        master_seed=MASTER_SEED)
    start = time.time()
    traces = run_chains(spec, data, cfg)
    elapsed = time.time() - start
    relabeled = relabel(traces, reference_x=data.X.mean(axis=0), weight_floor=0.01)
    return data, z_true, spec, relabeled, elapsed


def test_criterion_5_synthetic_recovery(headline_fit):
    truth = DEMO_TRUTH
    data, z_true, spec, relabeled, sample_time = headline_fit
    true_c = np.array(truth["weights"])
    true_beta = np.array(truth["beta"])
    reference_x = data.X.mean(axis=0)

    # (a) posterior mode of the occupied-component count
    occ = np.concatenate([occupied_counts(t) for t in relabeled])
    mode_occ = int(np.bincount(occ).argmax())

    # truth components in the relabeling order (ascending mean at reference_x)
    truth_order = np.argsort(true_beta @ reference_x)
    true_c_ord = true_c[truth_order]
    true_beta_ord = true_beta[truth_order]

    # (b) occupied prevalences within +-0.03
    c_all = np.concatenate([t.c for t in relabeled])
    prev = c_all.mean(axis=0)
    prev_err = float(np.max(np.abs(prev[:3] - true_c_ord)))

    # (c) >= 90% of true beta coordinates inside their 95% HPDIs
    beta_all = np.concatenate([t.beta for t in relabeled])
    covered = 0
    for j in range(3):
        for d in range(data.d):
            lo, hi = hpdi(beta_all[:, j, d], 0.95)
            covered += int(lo <= true_beta_ord[j, d] <= hi)
    coverage = covered / (3 * data.d)

    # (d) hard-assignment accuracy after optimal label matching
    assign = hard_assignments(relabeled, data)
    best_acc = 0.0
    for perm in itertools.permutations(range(3)):
        mapped = np.full(10, -1)
        for slot, comp in enumerate(perm):
            mapped[slot] = truth_order[comp]
        acc = float(np.mean(mapped[assign] == z_true))
        best_acc = max(best_acc, acc)

    # (e) post-relabel R-hat < 1.1 for all occupied-component betas
    worst_rhat = float(rhat(np.stack([t.beta[:, :3] for t in relabeled])).max())

    ok = (mode_occ == 3 and prev_err < 0.03 and coverage >= 0.90
          and best_acc >= 0.85 and worst_rhat < 1.1 and sample_time < 1800.0)
    record_criterion(5, ok, f"occupied mode {mode_occ}, prevalence err {prev_err:.4f}, "
                            f"coverage {covered}/15, accuracy {best_acc:.3f}, "
                            f"worst R-hat {worst_rhat:.4f}, sampling {sample_time:.0f}s")
    assert ok


def test_criterion_7_label_switching(headline_fit):
    data, _, spec, relabeled, _ = headline_fit
    # Artificially permute labels in every state of one relabeled trace,
    # then relabel again: the unpermuted relabeled trace must come back
    # exactly.
    from countmix.sampler import Trace
    base = relabeled[0]
    gen = np.random.default_rng(0)
    s = len(base)
    k = base.k
    perms = np.array([gen.permutation(k) for _ in range(s)])
    scrambled = Trace(
        c=np.take_along_axis(base.c, perms, axis=1),
        beta=np.take_along_axis(base.beta, perms[:, :, None], axis=1),
        psi=np.take_along_axis(base.psi, perms, axis=1),
        counts=np.take_along_axis(base.counts, perms, axis=1),
        pi=None,
        column_names=base.column_names,
    )
    (back,) = relabel([scrambled], reference_x=data.X.mean(axis=0), weight_floor=0.01)
    exact = (np.array_equal(back.c, base.c)
             and np.array_equal(back.beta, base.beta)
             and np.array_equal(back.psi, base.psi)
             and np.array_equal(back.counts, base.counts))

    # Cross-chain agreement: per-slot intercept means within 2 pooled SDs.
    agree = True
    worst_gap = 0.0
    for j in range(3):
        series = [t.beta[:, j, 0] for t in relabeled]
        means = np.array([s.mean() for s in series])
        pooled_sd = math.sqrt(np.mean([s.var(ddof=1) for s in series]))
        gap = (means.max() - means.min()) / pooled_sd
        worst_gap = max(worst_gap, gap)
        agree = agree and gap < 2.0

    ok = exact and agree
    record_criterion(7, ok, f"permutation round-trip exact: {exact}, "
                            f"worst intercept gap {worst_gap:.2f} pooled SDs")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: ZINB recovery


def test_criterion_6_zinb_recovery():
    truth = DEMO_TRUTH_ZINB
    true_pi = np.array(truth["pi"])
    data, _ = generate_synthetic(
        c=np.array(truth["weights"]),
        beta=np.array(truth["beta"]),
        psi=np.array(truth["psi"]),
        n=truth["n"],
        covariates=[CovariateColumn(*e) for e in truth["covariates"]],
        seed=truth["seed"],
        pi=true_pi,
    )
    spec = ModelSpec("zinb", k_max=10)
    cfg = SamplerConfig(iterations=10000, burn_in=5000, chains=4,
                        master_seed=MASTER_SEED)
    start = time.time()
    traces = run_chains(spec, data, cfg)
    elapsed = time.time() - start
    relabeled = relabel(traces, reference_x=data.X.mean(axis=0), weight_floor=0.01)
    true_beta = np.array(truth["beta"])
    reference_x = data.X.mean(axis=0)
    truth_order = np.argsort(true_beta @ reference_x)
    true_pi_ord = true_pi[truth_order]
    true_c_ord = np.array(truth["weights"])[truth_order]

    # The likelihood sees the structural-zero masses c_k * pi_k only through
    # their sum B, so each pi_k is fixed by the prior alone and is printed,
    # not gated (see test_model.py::TestZinbIdentifiability).  Gated: B and
    # the NB masses a_k = c_k * (1 - pi_k) of the occupied components.
    pi_all = np.concatenate([t.pi for t in relabeled])
    pi_mean = pi_all.mean(axis=0)[:3]
    c_all = np.concatenate([t.c for t in relabeled])
    true_b = float(np.sum(true_c_ord * true_pi_ord))
    b_all = np.sum(c_all * pi_all, axis=1)
    b_err = abs(float(b_all.mean()) - true_b)
    b_rhat = rhat(np.stack([np.sum(t.c * t.pi, axis=1) for t in relabeled]))
    a_mean = (c_all * (1.0 - pi_all)).mean(axis=0)[:3]
    a_err = np.abs(a_mean - true_c_ord * (1.0 - true_pi_ord))

    # Posterior-predictive zero fraction vs the data's zero fraction.
    beta_all = np.concatenate([t.beta for t in relabeled])
    psi_all = np.concatenate([t.psi for t in relabeled])
    idx = np.linspace(0, len(c_all) - 1, 200).round().astype(int)
    zero_pred = 0.0
    for s in idx:
        eta = np.clip(data.X @ beta_all[s].T, -LINPRED_CLAMP, LINPRED_CLAMP)
        nb0 = np.exp(_nb_logpmf_raw(0.0, np.exp(eta), psi_all[s][None, :]))
        p0 = pi_all[s][None, :] + (1.0 - pi_all[s][None, :]) * nb0
        zero_pred += float((p0 * c_all[s][None, :]).sum(axis=1).mean())
    zero_pred /= len(idx)
    zero_data = float(data.zero_mask.mean())
    zero_gap = abs(zero_pred - zero_data)

    ok = (b_err < 0.01 and bool(np.all(a_err < 0.03)) and zero_gap < 0.01
          and elapsed < 1800.0)
    record_criterion(6, ok, f"B {b_all.mean():.4f} vs truth {true_b:.4f} "
                            f"(SD {b_all.std():.4f}, R-hat {b_rhat:.3f}), "
                            f"a_k max err {a_err.max():.4f}, "
                            f"zero fraction {zero_pred:.4f} vs data {zero_data:.4f}, "
                            f"pi means {np.round(pi_mean, 3).tolist()} vs truth "
                            f"{true_pi_ord.tolist()} (not gated), "
                            f"sampling {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: determinism of cmd_fit


SMALL_PARAMS = {
    "weights": [0.4, 0.6],
    "beta": [[0.7, 0.3], [3.9, -0.3]],
    "psi": [50.0, 50.0],
    "covariates": [["x1", "normal"]],
    "n": 2000,
    "seed": 30,
}

SMALL_FIT_FLAGS = ["--kmax", "4", "--iters", "800", "--burnin", "400",
                   "--chains", "2", "--seed", "3"]


def test_criterion_8_determinism(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(SMALL_PARAMS))
    sim_dir = str(tmp_path / "sim")
    assert run(["simulate", "--params", str(params), "--out", sim_dir]) == EXIT_OK
    outputs = []
    for name in ("fit_a", "fit_b"):
        fit_dir = str(tmp_path / name)
        code = run(["fit", "--input", os.path.join(sim_dir, "data.csv"),
                    "--out", fit_dir] + SMALL_FIT_FLAGS)
        assert code == EXIT_OK
        outputs.append({
            "summary": open(os.path.join(fit_dir, "summary.txt"), "rb").read(),
            "chain0": open(os.path.join(fit_dir, "chain_0.csv"), "rb").read(),
            "checksums": open(os.path.join(fit_dir, "checksums.txt"), "rb").read(),
        })
    identical = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    record_criterion(8, identical,
                     "repeated cmd_fit produced byte-identical summary, traces, "
                     "and checksums" if identical else "outputs differ between runs")
    assert identical


# ---------------------------------------------------------------------------
# criterion 9: end-to-end CLI exit-code matrix


def test_criterion_9_cli_matrix(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(SMALL_PARAMS))
    sim_dir = str(tmp_path / "sim")
    fit_dir = str(tmp_path / "fit")
    rep_dir = str(tmp_path / "rep")
    results = {}
    results["simulate"] = run(["simulate", "--params", str(params), "--out", sim_dir])
    results["fit"] = run(["fit", "--input", os.path.join(sim_dir, "data.csv"),
                          "--out", fit_dir] + SMALL_FIT_FLAGS)
    results["report"] = run(["report", "--traces", fit_dir, "--out", rep_dir])

    malformed = tmp_path / "malformed.csv"
    malformed.write_text("y,x\n3,oops\n")
    results["malformed"] = run(["fit", "--input", str(malformed),
                                "--out", str(tmp_path / "f1")] + SMALL_FIT_FLAGS)
    negative = tmp_path / "negative.csv"
    negative.write_text("y,x\n3,0.1\n-2,0.4\n")
    results["negative"] = run(["fit", "--input", str(negative),
                               "--out", str(tmp_path / "f2")] + SMALL_FIT_FLAGS)
    unknown = tmp_path / "unknown.csv"
    unknown.write_text("y,t\n3,none\n2,weird\n")
    results["unknown"] = run(["fit", "--input", str(unknown),
                              "--categorical", "t=none:none|chemo",
                              "--out", str(tmp_path / "f3")] + SMALL_FIT_FLAGS)

    ok = (results["simulate"] == EXIT_OK and results["fit"] == EXIT_OK
          and results["report"] == EXIT_OK
          and results["malformed"] == EXIT_INPUT
          and results["negative"] == EXIT_INPUT
          and results["unknown"] == EXIT_INPUT)
    record_criterion(9, ok, f"exit codes {results}")
    assert ok
