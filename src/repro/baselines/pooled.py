"""Pooled (homogeneous) dependency-aware EM — an ablation baseline.

The paper's model spends four parameters per source.  This baseline
collapses the population to one shared (a, b, f, g, z): the M-step sums
counts over *all* sources before taking ratios, so the model has five
parameters total regardless of population size.

It answers a question every deployment faces: is per-source reliability
modelling worth `4n` extra parameters on this data?  On synthetic
workloads with heterogeneous sources the per-source EM-Ext wins; at
extreme sparsity the pooled model's stability can close the gap
(see ``benchmarks/test_ablations.py``).

Implementation-wise this is the engine's pluggable-backend design at
work: a :class:`~repro.engine.backends.DenseBackend` subclass that
overrides only the M-step (the pooled ratio of each row of the dense
count block instead of per-source ratios), driven by the same
:class:`~repro.engine.driver.EMDriver` and support warm start as every
other estimator.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import FactFinder
from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.core.result import EstimationResult
from repro.data.protocol import Problem
from repro.engine.backends import DenseBackend, _dependency_parameters
from repro.engine.driver import EMDriver
from repro.engine.initialisation import support_initialisation
from repro.engine.statistics import ratio_update
from repro.utils.errors import ValidationError
from repro.utils.validation import check_positive_int


class _PooledDenseBackend(DenseBackend):
    """Dense backend whose M-step pools counts over the whole population.

    Each rate is the population ratio of one row of the dense backend's
    ``(4, n)`` count block — the row's numerators over its denominators,
    0.5 where the partition has no mass — shared by every source.
    """

    def m_step(
        self, posterior: np.ndarray, previous: SourceParameters
    ) -> SourceParameters:
        numerators, denominators = self.partition_counts(posterior)
        pooled = ratio_update(
            numerators.sum(axis=1, keepdims=True),
            denominators.sum(axis=1, keepdims=True),
            fallback=np.full((4, 1), 0.5),
        )
        z = float(posterior.mean()) if posterior.size else 0.5
        return _dependency_parameters(
            np.repeat(pooled, self.n_sources, axis=1), z, self.epsilon
        )


class PooledEMExt(FactFinder):
    """Dependency-aware EM with population-level (pooled) parameters."""

    algorithm_name = "em-pooled"

    def __init__(
        self,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        epsilon: float = DEFAULT_EPSILON,
        seed=None,
    ):
        check_positive_int(max_iterations, "max_iterations")
        if not tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {tolerance}")
        if not 0 < epsilon < 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.epsilon = epsilon
        # Deterministic algorithm; `seed` accepted for registry symmetry.
        self._seed = seed

    def fit(self, problem: Problem) -> EstimationResult:
        """Run pooled EM from a dependency-discounted support start."""
        problem = self.coerce(problem)
        backend = _PooledDenseBackend(problem, epsilon=self.epsilon)
        params = support_initialisation(backend)
        driver = EMDriver(
            max_iterations=self.max_iterations, tolerance=self.tolerance
        )
        outcome = driver.run(backend, params)
        return EstimationResult(
            algorithm=self.algorithm_name,
            scores=outcome.posterior,
            decisions=outcome.decisions,
            parameters=outcome.parameters,
            log_likelihood=outcome.log_likelihood,
            converged=outcome.converged,
            n_iterations=outcome.n_iterations,
            trace=outcome.trace,
        )


__all__ = ["PooledEMExt"]
