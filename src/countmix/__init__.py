"""Dirichlet-prior mixtures of Negative Binomial regressions for counts.

Fits NB and zero-inflated NB regression mixtures by multi-chain MCMC,
infers the number of occupied components from the data, and reports
prevalences, incidence rate ratios, and HPD intervals.
"""

from .distributions import sample_negbin
from .model import (
    CovariateColumn,
    Dataset,
    ModelSpec,
    ParamState,
    generate_synthetic,
)
from .sampler import SamplerConfig, SamplerError, Trace, run_chain, run_chains
from .diagnostics import (
    ComponentSummary,
    component_summary,
    ess,
    hard_assignments,
    hpdi,
    relabel,
    rhat,
)

__version__ = "0.1.0"
