"""Independence-assuming EM fact-finders: EM (IPSN 2012) and EM-Social (IPSN 2014).

Both baselines model every source as a two-parameter binary channel
(claim rate given true, claim rate given false) and assume claims are
conditionally independent given the assertion truth:

* **EM** (Wang et al., IPSN 2012) runs on the raw source-claim matrix —
  dependency indicators are ignored entirely.  Under cascades this
  over-counts repeated information, which is why its false-positive
  rate grows with the number of sources (paper Figure 7).
* **EM-Social** (Wang et al., IPSN 2014) *removes* dependent claims —
  cells with ``SC = 1`` and ``D = 1`` are masked out of the likelihood,
  as if the repeating source had said nothing.  This avoids the
  over-counting but throws away whatever information the repeats carry,
  which is the gap EM-Ext closes.

Both ride the shared estimation engine: the independence model is the
dense backend's own, over the cells of ``(SC, D′)`` — ``D′ = 0`` for
EM, ``D′ = D`` for EM-Social — which is also what the staged
initialisation's stage one fits.
:class:`~repro.engine.backends.MaskedDenseBackend` adapts it to a 0/1
cell mask (``mask = 1 − D′``), driven by the same
:class:`~repro.engine.driver.EMDriver` (restarts, convergence, tracing)
the dependency-aware estimators use.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import FactFinder
from repro.core.model import DEFAULT_EPSILON
from repro.core.result import EstimationResult
from repro.data.dense import DenseProblem
from repro.data.protocol import Problem
from repro.engine.backends import IndependentParameters, MaskedDenseBackend
from repro.engine.driver import EMDriver
from repro.engine.initialisation import support_initialisation
from repro.utils.errors import ValidationError
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int


class _MaskedIndependentEM(FactFinder):
    """EM on the independence model over the cells a 0/1 mask keeps.

    Masked cells contribute to neither the likelihood nor the M-step
    counts — they are treated as *missing*, not as non-claims.
    """

    def __init__(
        self,
        max_iterations: int = 200,
        tolerance: float = 1e-6,
        epsilon: float = DEFAULT_EPSILON,
        n_restarts: int = 1,
        init_strategy: str = "support",
        smoothing: float = 0.0,
        seed: SeedLike = None,
    ):
        check_positive_int(max_iterations, "max_iterations")
        check_positive_int(n_restarts, "n_restarts")
        if not tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {tolerance}")
        if not 0 < epsilon < 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5), got {epsilon}")
        if init_strategy not in ("support", "random"):
            raise ValidationError(
                f"init_strategy must be 'support' or 'random', got {init_strategy!r}"
            )
        if smoothing < 0:
            raise ValidationError(f"smoothing must be non-negative, got {smoothing}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.epsilon = epsilon
        self.n_restarts = n_restarts
        self.init_strategy = init_strategy
        self.smoothing = smoothing
        self._seed = seed

    # Subclasses define which cells participate.
    def _mask(self, problem: DenseProblem) -> np.ndarray:
        raise NotImplementedError

    def fit(self, problem: Problem) -> EstimationResult:
        """Run (multi-restart) masked EM and return the best fixed point."""
        problem = self.coerce(problem)
        sc = problem.claims.values.astype(np.float64)
        mask = self._mask(problem).astype(np.float64)
        backend = MaskedDenseBackend(
            sc, mask, smoothing=self.smoothing, epsilon=self.epsilon
        )
        driver = EMDriver(
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            n_restarts=self.n_restarts,
        )

        def _init(index: int, rng: np.random.Generator) -> IndependentParameters:
            if index == 0 and self.init_strategy == "support":
                return support_initialisation(backend)
            return backend.random_params(rng)

        outcome = driver.fit(backend, _init, self._seed)
        params = outcome.parameters
        return EstimationResult(
            algorithm=self.algorithm_name,
            scores=outcome.posterior,
            decisions=outcome.decisions,
            parameters=None,
            log_likelihood=outcome.log_likelihood,
            converged=outcome.converged,
            n_iterations=outcome.n_iterations,
            trace=outcome.trace,
            health=outcome.health,
            extras={
                "t": params.t,
                "b": params.b,
                "z": params.z,
            },
        )


class EMIndependent(_MaskedIndependentEM):
    """EM (IPSN 2012): ignore dependencies, use every cell."""

    algorithm_name = "em"

    def _mask(self, problem: DenseProblem) -> np.ndarray:
        return np.ones(problem.claims.shape)


class EMSocial(_MaskedIndependentEM):
    """EM-Social (IPSN 2014): ignore dependent cells entirely.

    "Claims repeated by dependent sources do not offer value": every
    cell flagged dependent — the repeated claim *and* the silence where
    the source saw the assertion from an ancestor — is excluded from the
    likelihood.  Excluding only the claims while keeping dependent
    silences as independent evidence would bias the estimator toward
    "false" (the silences say "my reliable source didn't repeat it"),
    which is information the IPSN 2014 model explicitly refuses to use.
    """

    algorithm_name = "em-social"

    def _mask(self, problem: DenseProblem) -> np.ndarray:
        return 1.0 - problem.dependency.values.astype(np.float64)


__all__ = ["EMIndependent", "EMSocial", "IndependentParameters"]
