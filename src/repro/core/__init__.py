"""Core dependency-aware social-sensing model (the paper's contribution).

Public surface:

* :class:`SourceParameters` — the channel parameter set θ (Section II-B);
* :class:`SourceClaimMatrix` / :class:`DependencyMatrix` /
  :class:`SensingProblem` — the data model (Section II-A);
* likelihood helpers implementing Table II and Equations (4)–(9);
* :class:`EMExtEstimator` — the dependency-aware EM (Section IV).
"""

from repro.core.em_ext import EMConfig, EMExtEstimator, fit_em_ext_batch, run_em_ext
from repro.core.likelihood import (
    column_log_likelihoods,
    data_log_likelihood,
    emission_probability,
    pattern_log_joint,
    posterior_and_log_likelihood,
    posterior_truth,
)
from repro.core.model import DEFAULT_EPSILON, ParameterTrace, SourceParameters
from repro.core.result import EstimationResult, FactFindingResult
from repro.data.dense import DependencyMatrix, SensingProblem, SourceClaimMatrix

__all__ = [
    "DEFAULT_EPSILON",
    "DependencyMatrix",
    "EMConfig",
    "EMExtEstimator",
    "EstimationResult",
    "FactFindingResult",
    "ParameterTrace",
    "SensingProblem",
    "SourceClaimMatrix",
    "SourceParameters",
    "column_log_likelihoods",
    "data_log_likelihood",
    "emission_probability",
    "fit_em_ext_batch",
    "pattern_log_joint",
    "posterior_and_log_likelihood",
    "posterior_truth",
    "run_em_ext",
]
