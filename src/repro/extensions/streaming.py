"""Streaming (recursive) dependency-aware estimation.

The paper's related work includes a recursive ground-truth estimator
for social data *streams* (Yao et al., IPSN 2016).  This extension
brings that capability to the dependency-aware model: claims arrive in
batches (e.g. one batch per hour of a crawl), and the estimator updates
its source parameters incrementally instead of refitting from scratch.

Mechanism: the dependency-aware M-step is a ratio of posterior-weighted
counts, so the model state is exactly the engine's
:class:`~repro.engine.statistics.SufficientStatistics` — a ``(4, n)``
numerator and denominator block with rows ``a, b, f, g`` plus the
prior's counters.  Each batch contributes the count blocks the shared
:class:`~repro.engine.backends.DenseBackend`'s M-step divides; a forgetting
factor ``decay`` exponentially discounts history so the estimator
tracks sources whose behaviour drifts.  The streaming estimator is
therefore a thin decayed wrapper over the same accumulator the batch
estimators use.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.data.coerce import coerce_problem
from repro.data.protocol import FORMAT_DENSE, Problem
from repro.core.result import EstimationResult
from repro.engine.backends import DenseBackend
from repro.engine.initialisation import support_posterior
from repro.engine.statistics import SufficientStatistics
from repro.utils.errors import DataError, ValidationError
from repro.utils.rng import RandomState, SeedLike
from repro.utils.validation import check_positive_int

#: Convergence threshold of the inner refinement loop: the posterior is
#: considered settled once its max absolute change falls below this.
INNER_TOLERANCE = 1e-8

#: Amplitude of the seeded cold-start jitter (see ``StreamingEMExt``).
_COLD_START_JITTER = 0.05


def _prior_counts(posterior: np.ndarray) -> Tuple[float, float]:
    """Equation 14's counts: the posterior mass and the number of assertions."""
    return float(posterior.sum()), float(posterior.size)


class StreamingEMExt:
    """Incremental dependency-aware estimator over claim batches.

    Every batch must cover the same source population (same row
    indices); assertions are new per batch, as in a live stream where
    each window surfaces fresh statements.

    ``seed`` controls the only stochastic choice the stream makes: a
    small symmetric jitter applied to the first batch's cold-start
    support posterior, which decorrelates parallel streams that watch
    the same window (they would otherwise all start from the identical
    fixed point).  ``seed=None`` (the default) applies no jitter, so
    the historical fully-deterministic cold start is preserved
    bit-for-bit; any other seed is itself deterministic — two streams
    built with the same seed produce identical results.

    Examples
    --------
    >>> from repro.synthetic import generate_dataset
    >>> stream = StreamingEMExt(n_sources=20)
    >>> batch = generate_dataset(seed=1).problem.without_truth()
    >>> result = stream.partial_fit(batch)
    >>> stream.n_batches
    1
    """

    def __init__(
        self,
        n_sources: int,
        *,
        decay: float = 0.95,
        inner_iterations: int = 25,
        epsilon: float = DEFAULT_EPSILON,
        initial_parameters: Optional[SourceParameters] = None,
        seed: SeedLike = None,
    ):
        check_positive_int(n_sources, "n_sources")
        check_positive_int(inner_iterations, "inner_iterations")
        if not 0.0 < decay <= 1.0:
            raise ValidationError(f"decay must be in (0, 1], got {decay}")
        if not 0 < epsilon < 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.n_sources = n_sources
        self.decay = decay
        self.inner_iterations = inner_iterations
        self.epsilon = epsilon
        if initial_parameters is not None:
            if initial_parameters.n_sources != n_sources:
                raise ValidationError(
                    f"initial_parameters describe {initial_parameters.n_sources} "
                    f"sources, expected {n_sources}"
                )
            self.parameters = initial_parameters.clamp(epsilon)
        else:
            self.parameters = SourceParameters.from_scalars(
                n_sources, a=0.55, b=0.45, f=0.55, g=0.45, z=0.5
            )
        self._stats = SufficientStatistics.zeros(n_sources)
        self.n_batches = 0
        self._seed = seed

    def _validate_batch(self, batch: "Problem") -> None:
        """Reject batches that would corrupt the accumulated statistics."""
        if batch.n_sources != self.n_sources:
            raise ValidationError(
                f"batch has {batch.n_sources} sources, stream expects "
                f"{self.n_sources}"
            )
        if batch.n_assertions == 0:
            raise ValidationError("batch carries no assertions")
        if not np.all(np.isfinite(batch.claims.values)):
            raise DataError("batch SC matrix contains non-finite values")
        if not np.all(np.isfinite(batch.dependency.values)):
            raise DataError("batch dependency matrix contains non-finite values")

    def partial_fit(self, batch: "Problem") -> EstimationResult:
        """Absorb one claim batch and return its truth estimates.

        Batches may arrive in either storage format; CSR batches are
        densified under the memory budget before the update.

        The batch's posterior is refined with a few inner EM iterations
        (E-step on the batch, M-step on the decayed global statistics),
        so early batches are not frozen into a cold-start estimate.
        The returned result reports what that loop actually did:
        ``n_iterations`` is the number of refinement passes executed
        and ``converged`` is whether the final posterior change fell
        below :data:`INNER_TOLERANCE` (a batch that burned the whole
        ``inner_iterations`` budget without settling reports
        ``converged=False``).

        A batch that fails — invalid shape, non-finite inputs, or a
        failure mid-update — leaves the stream exactly as it was: the
        statistics, parameters and batch counter are snapshotted before
        the update and rolled back on any exception, so one poisoned
        window cannot corrupt the accumulated state.
        """
        batch = coerce_problem(batch, needs=FORMAT_DENSE)
        self._validate_batch(batch)
        stats_snapshot = self._stats.copy()
        parameters_snapshot = self.parameters
        batches_snapshot = self.n_batches
        try:
            backend = DenseBackend(batch, epsilon=self.epsilon)
            if self.n_batches == 0:
                # Cold start: the neutral parameters carry no signal yet, so
                # seed the first batch's posterior from dependency-discounted
                # support (the same warm start the batch estimators use).
                posterior = support_posterior(backend)
                if self._seed is not None:
                    jitter = RandomState(self._seed).uniform(
                        -_COLD_START_JITTER, _COLD_START_JITTER, posterior.shape
                    )
                    posterior = np.clip(
                        posterior + jitter, self.epsilon, 1.0 - self.epsilon
                    )
            else:
                posterior = backend.posterior(self.parameters)
            n_iterations = 0
            converged = False
            for _ in range(self.inner_iterations):
                snapshot = self._stats.merged_rates(
                    backend.partition_counts(posterior),
                    _prior_counts(posterior),
                    self.decay,
                    self.parameters,
                    self.epsilon,
                )
                new_posterior = backend.posterior(snapshot)
                delta = (
                    float(np.max(np.abs(new_posterior - posterior)))
                    if posterior.size
                    else 0.0
                )
                posterior = new_posterior
                n_iterations += 1
                if delta < INNER_TOLERANCE:
                    converged = True
                    break
            if not np.all(np.isfinite(posterior)):
                raise DataError("batch update produced a non-finite posterior")
            # Commit: decay history, add this batch's counts, refresh params.
            self._stats.decay(self.decay)
            self._stats.add(
                backend.partition_counts(posterior), _prior_counts(posterior)
            )
            parameters = self._stats.rates(self.parameters, self.epsilon)
            if not parameters.is_finite():
                raise DataError("batch update produced non-finite parameters")
            self.parameters = parameters
            self.n_batches += 1
        except Exception:
            # Roll back: the stream is exactly as it was before the batch.
            self._stats = stats_snapshot
            self.parameters = parameters_snapshot
            self.n_batches = batches_snapshot
            raise
        decisions = (posterior >= 0.5).astype(np.int8)
        return EstimationResult(
            algorithm="streaming-em-ext",
            scores=posterior,
            decisions=decisions,
            parameters=self.parameters,
            converged=converged,
            n_iterations=n_iterations,
        )


__all__ = ["INNER_TOLERANCE", "StreamingEMExt"]
