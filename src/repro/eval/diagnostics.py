"""Diagnostics: sampler health, EM convergence, posterior calibration.

Production deployments of the bound and the estimator need more than
point results — they need to know whether the Gibbs chains mixed,
whether EM actually converged or just ran out of iterations, and
whether the reported posteriors mean what they claim.  This module
provides the three corresponding checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.result import EstimationResult
from repro.utils.errors import ValidationError


# ---------------------------------------------------------------------------
# Markov-chain diagnostics
# ---------------------------------------------------------------------------

def autocorrelation(series: np.ndarray, lag: int) -> float:
    """Lag-``lag`` autocorrelation of a scalar chain trace."""
    series = np.asarray(series, dtype=np.float64)
    if lag < 0:
        raise ValidationError(f"lag must be non-negative, got {lag}")
    if series.size <= lag + 1:
        raise ValidationError(
            f"series of length {series.size} too short for lag {lag}"
        )
    centred = series - series.mean()
    denominator = float(np.dot(centred, centred))
    if denominator == 0.0:
        return 0.0
    if lag == 0:
        return 1.0
    return float(np.dot(centred[:-lag], centred[lag:]) / denominator)


def effective_sample_size(series: np.ndarray, max_lag: int = 200) -> float:
    """Initial-positive-sequence ESS estimate of a scalar chain trace.

    Sums autocorrelations until they turn non-positive (Geyer's initial
    positive sequence truncation) and returns ``n / (1 + 2 Σ ρ_k)``.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n < 4:
        raise ValidationError(f"need at least 4 samples, got {n}")
    rho_sum = 0.0
    for lag in range(1, min(max_lag, n - 2) + 1):
        rho = autocorrelation(series, lag)
        if rho <= 0:
            break
        rho_sum += rho
    return float(n / (1.0 + 2.0 * rho_sum))


def gelman_rubin(chains: Sequence[np.ndarray]) -> float:
    """Potential scale-reduction factor (R̂) across parallel chain traces.

    Values near 1 indicate the chains agree; > ~1.1 flags poor mixing.
    """
    arrays = [np.asarray(chain, dtype=np.float64) for chain in chains]
    if len(arrays) < 2:
        raise ValidationError("gelman_rubin needs at least 2 chains")
    length = min(a.size for a in arrays)
    if length < 4:
        raise ValidationError("chains too short for R-hat")
    stacked = np.stack([a[:length] for a in arrays])
    m, n = stacked.shape
    chain_means = stacked.mean(axis=1)
    chain_vars = stacked.var(axis=1, ddof=1)
    within = chain_vars.mean()
    between = n * chain_means.var(ddof=1)
    if within == 0.0:
        return 1.0
    pooled = (n - 1) / n * within + between / n
    return float(np.sqrt(pooled / within))


# ---------------------------------------------------------------------------
# EM convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EMDiagnostics:
    """Health report of one EM run."""

    converged: bool
    n_iterations: int
    final_delta: float
    log_likelihood_increased: bool
    max_likelihood_drop: float
    posterior_entropy: float

    @property
    def healthy(self) -> bool:
        """Converged with a monotone likelihood trace."""
        return self.converged and self.log_likelihood_increased


def em_diagnostics(result: EstimationResult) -> EMDiagnostics:
    """Inspect an :class:`EstimationResult`'s convergence trace."""
    if result.trace is None or result.trace.n_iterations == 0:
        raise ValidationError("result carries no iteration trace")
    log_likelihoods = np.asarray(result.trace.log_likelihoods)
    deltas = result.trace.parameter_deltas
    drops = np.diff(log_likelihoods)
    max_drop = float(-drops.min()) if drops.size else 0.0
    scores = np.clip(result.scores, 1e-12, 1 - 1e-12)
    entropy = float(
        -(scores * np.log(scores) + (1 - scores) * np.log(1 - scores)).mean()
    )
    return EMDiagnostics(
        converged=result.converged,
        n_iterations=result.n_iterations,
        final_delta=float(deltas[-1]),
        log_likelihood_increased=bool((drops >= -1e-6).all()),
        max_likelihood_drop=max(0.0, max_drop),
        posterior_entropy=entropy,
    )


# ---------------------------------------------------------------------------
# Posterior calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationBin:
    """One reliability-diagram bin."""

    lower: float
    upper: float
    mean_confidence: float
    empirical_accuracy: float
    count: int


def calibration_curve(
    scores: np.ndarray, truth: np.ndarray, n_bins: int = 10
) -> List[CalibrationBin]:
    """Reliability diagram of probabilistic truth scores.

    A well-calibrated estimator's assertions scored ~0.8 are true ~80%
    of the time.  Empty bins are omitted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    if scores.shape != truth.shape:
        raise ValidationError("scores and truth must align")
    if n_bins < 1:
        raise ValidationError(f"n_bins must be positive, got {n_bins}")
    if scores.size and (scores.min() < 0 or scores.max() > 1):
        raise ValidationError("scores must be probabilities for calibration")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    bins: List[CalibrationBin] = []
    for index in range(n_bins):
        low, high = edges[index], edges[index + 1]
        if index == n_bins - 1:
            mask = (scores >= low) & (scores <= high)
        else:
            mask = (scores >= low) & (scores < high)
        count = int(mask.sum())
        if count == 0:
            continue
        bins.append(
            CalibrationBin(
                lower=float(low),
                upper=float(high),
                mean_confidence=float(scores[mask].mean()),
                empirical_accuracy=float(truth[mask].mean()),
                count=count,
            )
        )
    return bins


def expected_calibration_error(
    scores: np.ndarray, truth: np.ndarray, n_bins: int = 10
) -> float:
    """ECE: count-weighted mean |confidence − accuracy| over bins."""
    bins = calibration_curve(scores, truth, n_bins)
    total = sum(b.count for b in bins)
    if total == 0:
        return 0.0
    return float(
        sum(
            b.count * abs(b.mean_confidence - b.empirical_accuracy) for b in bins
        )
        / total
    )


__all__ = [
    "CalibrationBin",
    "EMDiagnostics",
    "autocorrelation",
    "calibration_curve",
    "effective_sample_size",
    "em_diagnostics",
    "expected_calibration_error",
    "gelman_rubin",
]
