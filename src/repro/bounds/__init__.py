"""Fundamental error bounds (Section III) and related confidence bounds.

* :func:`exact_bound` / :func:`exact_column_bound` — Equation (3) over
  all ``2^n`` claim patterns, evaluated meet-in-the-middle from
  ``2^{n/2}``-entry half tables (one path for every column, degenerate
  0/1 rates included);
* :func:`gibbs_bound` / :func:`gibbs_column_bound` — Algorithm 1's
  Gibbs-sampling approximation (Equation 6);
* :func:`bound_cascade` — deadline-aware degradation ladder
  (exact → gibbs → analytic) that always returns a finite bound plus
  a :class:`DegradationReport`;
* :func:`parameter_confidence` — Cramér–Rao style intervals on fitted
  source parameters (related-work extension).
"""

from repro.bounds.analytic import bhattacharyya_bounds, bhattacharyya_coefficient
from repro.bounds.cascade import (
    CASCADE_TIERS,
    CascadeOutcome,
    DegradationReport,
    TierAttempt,
    bound_cascade,
    estimate_exact_seconds,
)
from repro.bounds.cramer_rao import (
    ParameterConfidence,
    fisher_information,
    parameter_confidence,
)
from repro.bounds.exact import (
    MAX_EXACT_SOURCES,
    BoundResult,
    bound_from_pattern_table,
    exact_bound,
    exact_column_bound,
)
from repro.bounds.gibbs import GibbsConfig, gibbs_bound, gibbs_column_bound

__all__ = [
    "BoundResult",
    "CASCADE_TIERS",
    "CascadeOutcome",
    "DegradationReport",
    "GibbsConfig",
    "MAX_EXACT_SOURCES",
    "ParameterConfidence",
    "TierAttempt",
    "bhattacharyya_bounds",
    "bhattacharyya_coefficient",
    "bound_cascade",
    "bound_from_pattern_table",
    "estimate_exact_seconds",
    "exact_bound",
    "exact_column_bound",
    "fisher_information",
    "gibbs_bound",
    "gibbs_column_bound",
    "parameter_confidence",
]
