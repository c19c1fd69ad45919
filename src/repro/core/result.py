"""Result containers returned by fact-finders.

All algorithms in the library — the dependency-aware EM of the paper
and every baseline — return a :class:`FactFindingResult`, so downstream
code (metrics, ranking, the Apollo pipeline, benchmarks) can treat them
uniformly.  Estimation-theoretic algorithms return the richer
:class:`EstimationResult`, which additionally carries the fitted
parameter set and convergence diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.model import ParameterTrace, SourceParameters
from repro.engine.health import RunHealth
from repro.utils.errors import ValidationError
from repro.utils.validation import check_binary


@dataclass
class FactFindingResult:
    """The output of a fact-finder on one :class:`SensingProblem`.

    Attributes
    ----------
    algorithm:
        Short identifier of the producing algorithm (e.g. ``"em-ext"``).
    scores:
        Per-assertion credibility scores, higher = more credible.  For
        probabilistic algorithms these are posteriors in ``[0, 1]``; for
        heuristics they are algorithm-specific but monotone in belief.
    decisions:
        Per-assertion binary true/false labels.
    extras:
        Algorithm-specific diagnostics (iteration counts, per-source
        reliability estimates, ...).
    """

    algorithm: str
    scores: np.ndarray
    decisions: np.ndarray
    extras: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.decisions = np.asarray(self.decisions)
        if self.scores.ndim != 1:
            raise ValidationError(f"scores must be 1-D, got shape {self.scores.shape}")
        if self.decisions.shape != self.scores.shape:
            raise ValidationError(
                "decisions and scores must have the same shape, got "
                f"{self.decisions.shape} vs {self.scores.shape}"
            )
        check_binary(self.decisions, "decisions", what="labels")
        self.decisions = self.decisions.astype(np.int8)

    @property
    def n_assertions(self) -> int:
        """Number of assertions scored."""
        return self.scores.size

    def ranking(self) -> np.ndarray:
        """Assertion indices sorted by decreasing credibility.

        Ties break by assertion index, which keeps rankings
        deterministic across runs.
        """
        # argsort is stable for the secondary (index) key when we negate
        # scores, because equal scores preserve original order.
        return np.argsort(-self.scores, kind="stable")

    def top_k(self, k: int) -> np.ndarray:
        """The ``k`` most credible assertion indices (k may exceed m)."""
        if k < 0:
            raise ValidationError(f"k must be non-negative, got {k}")
        return self.ranking()[:k]


@dataclass
class EstimationResult(FactFindingResult):
    """A :class:`FactFindingResult` from a maximum-likelihood estimator.

    ``scores`` holds the truth posterior :math:`P(C_j = 1 | SC_j; D, θ)`
    and ``decisions`` its 0.5-threshold labels.
    """

    parameters: Optional[SourceParameters] = None
    log_likelihood: float = float("nan")
    converged: bool = False
    n_iterations: int = 0
    trace: Optional[ParameterTrace] = None
    #: Multi-restart health report (populated by engine-driven estimators).
    health: Optional[RunHealth] = None

    @property
    def posterior(self) -> np.ndarray:
        """Alias for ``scores``, under its estimation-theoretic name."""
        return self.scores


__all__ = ["EstimationResult", "FactFindingResult"]
