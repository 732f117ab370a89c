"""Shared fixtures and the acceptance-criteria reporting hook."""
import numpy as np
import pytest

from countmix.model import CovariateColumn, Dataset, _nb_eta_terms, _nb_table
from countmix.sampler import _linear_predictor

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


def record_criterion(number, passed, detail):
    line = f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def current_table(state, data):
    """The current psi's ``_nb_table``, as ``sampler.run_chain`` builds it before its
    first sweep and the psi step keeps it current in place."""
    return _nb_table(data.y_unique, data.log_gamma_y1, state.psi)


def sweep_shared(state, data):
    """The rows per component and current psi's table, as ``sampler.sweep`` hands them on."""
    return np.bincount(state.z, minlength=state.c.size), current_table(state, data)


def psi_step_inputs(state, data):
    """update_precisions' counts, table, eta and cur, from the helpers a sweep uses."""
    eta = _linear_predictor(state.beta, data.X, state.z)
    return *sweep_shared(state, data), eta, _nb_eta_terms(data._yf, eta, state.psi[state.z])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset():
    gen = np.random.default_rng(7)
    n = 40
    X = np.column_stack([np.ones(n), gen.standard_normal(n)])
    y = gen.poisson(5.0, size=n)
    return Dataset(y=y, X=X, column_names=("intercept", "x1"))


@pytest.fixture
def two_component_truth():
    """Well-separated 2-component generating parameters."""
    return {
        "c": np.array([0.4, 0.6]),
        "beta": np.array([[np.log(2.0), 0.3], [np.log(50.0), -0.3]]),
        "psi": np.array([5.0, 20.0]),
        "covariates": [CovariateColumn("x1", "normal")],
    }
