"""Warm-start strategies for the EM families, written once per backend.

Three strategies (see :class:`~repro.core.em_ext.EMConfig` for the full
rationale):

* ``support`` — a dependency-discounted vote-count posterior
  (assertions with more independent supporters start more credible)
  turned into parameters by one M-step — the classic truth-discovery
  warm start;
* ``staged`` — fit the nested independence model on the *independent*
  cells first (the EM-Social view), then enrich: one dependency-aware
  M-step on the staged posterior seeds the full model.  This breaks
  the chicken-and-egg between the truth posterior and the dependent
  emission rates ``f, g`` — they are learned from an
  already-calibrated posterior instead of amplifying the initial
  guess;
* ``random`` — each backend's ``random_params`` (the paper's
  "initialize parameter set with random probability").

Every function is parameterised by a backend from
:mod:`repro.engine.backends`, so dense, sparse and masked estimators
share one implementation; stage one runs on the dense and CSR
backends' own independence-model steps.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.core.model import SourceParameters
from repro.engine.backends import IndependentParameters


def support_posterior(backend: Any) -> np.ndarray:
    """Dependency-discounted vote posterior.

    Grows affinely with independent support,
    ``Z_j = 0.2 + 0.6 · support_j / max_support``.  Counting only
    independent claims keeps viral cascades (which the model has not
    yet judged) from branding their assertions credible before the
    first iteration; the EM loop then learns from the dependent claims
    whatever they actually carry.
    """
    support = backend.support_counts()
    top = float(support.max()) if support.size else 0.0
    if top > 0:
        return 0.2 + 0.6 * support / top
    return np.full(backend.n_assertions, 0.5)


def support_initialisation(backend: Any) -> Any:
    """Support posterior → one M-step from the neutral parameter set."""
    return backend.m_step(support_posterior(backend), backend.neutral())


def staged_stage_one(
    backend: Any,
    posterior: np.ndarray,
    *,
    tolerance: float,
    stage_iterations: int = 40,
) -> Tuple[np.ndarray, SourceParameters]:
    """Fit the independence model over unmasked (independent) cells.

    A compact EM of the backend's independence model (one
    ``independent_m_step`` and one ``independent_e_step`` per
    iteration), warm-started from ``posterior``; returns the converged
    posterior and the two learned rate vectors lifted into a full
    parameter set (``f = t``, ``g = b``), ready for the stage-two
    enrichment M-step.
    """
    n = backend.n_sources
    theta = IndependentParameters(t=np.full(n, 0.55), b=np.full(n, 0.45), z=0.5)
    for _ in range(stage_iterations):
        theta = backend.independent_m_step(posterior, theta)
        new_posterior = backend.independent_e_step(theta)[0]
        if (
            posterior.size
            and float(np.abs(new_posterior - posterior).max()) < tolerance
        ):
            posterior = new_posterior
            break
        posterior = new_posterior
    staged = SourceParameters(
        a=theta.t, b=theta.b, f=theta.t, g=theta.b, z=theta.z
    )
    return posterior, staged


def staged_initialisation(
    backend: Any,
    *,
    tolerance: float,
    stage_iterations: int = 40,
) -> SourceParameters:
    """Fit the nested independent-cells model, then enrich with f, g.

    Stage one is a compact masked EM over independent cells only (the
    EM-Social view), warm-started from the support posterior.  Stage
    two takes stage one's converged posterior and performs one full
    dependency-aware M-step, which *measures* the dependent emission
    rates against a posterior that is already anchored in the
    independent evidence.
    """
    posterior, staged = staged_stage_one(
        backend,
        support_posterior(backend),
        tolerance=tolerance,
        stage_iterations=stage_iterations,
    )
    return backend.m_step(posterior, staged)


__all__ = [
    "staged_initialisation",
    "staged_stage_one",
    "support_initialisation",
    "support_posterior",
]
