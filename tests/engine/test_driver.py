"""Unit tests for the generic EM driver (convergence, restarts, selection)."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine import EMDriver


@dataclass(frozen=True)
class ScalarParams:
    """One-parameter toy model: EM halves the distance to a target."""

    value: float

    def max_difference(self, other: "ScalarParams") -> float:
        return abs(self.value - other.value)


class HalvingBackend:
    """Toy backend converging geometrically to ``target``."""

    def __init__(self, target: float = 1.0):
        self.target = target

    def posterior(self, params: ScalarParams) -> np.ndarray:
        return np.array([params.value])

    def m_step(self, posterior: np.ndarray, params: ScalarParams) -> ScalarParams:
        return ScalarParams(value=(params.value + self.target) / 2.0)

    def e_step(self, params: ScalarParams):
        # Log likelihood improves as we approach the target.
        return np.array([params.value]), -abs(params.value - self.target)


class TestRun:
    def test_converges_within_tolerance(self):
        driver = EMDriver(max_iterations=100, tolerance=1e-6)
        outcome = driver.run(HalvingBackend(), ScalarParams(0.0))
        assert outcome.converged
        assert outcome.parameters.value == pytest.approx(1.0, abs=1e-5)
        assert outcome.n_iterations == outcome.trace.n_iterations
        assert outcome.log_likelihood == pytest.approx(0.0, abs=1e-5)

    def test_iteration_cap(self):
        driver = EMDriver(max_iterations=3, tolerance=1e-12)
        outcome = driver.run(HalvingBackend(), ScalarParams(0.0))
        assert not outcome.converged
        assert outcome.n_iterations == 3

    def test_decisions_threshold(self):
        driver = EMDriver(max_iterations=50, tolerance=1e-6)
        outcome = driver.run(HalvingBackend(target=0.9), ScalarParams(0.0))
        assert outcome.decisions.tolist() == [1]


class TestFit:
    def test_best_restart_wins(self):
        starts = [0.0, 0.99, -5.0]

        def initialiser(index, rng):
            return ScalarParams(starts[index])

        # One iteration only: the restart starting nearest the target has
        # the highest likelihood.
        driver = EMDriver(max_iterations=1, tolerance=1e-15, n_restarts=3)
        outcome = driver.fit(HalvingBackend(), initialiser, seed=0)
        assert outcome.parameters.value == pytest.approx((0.99 + 1.0) / 2.0)

    def test_restart_rngs_are_independent(self):
        seen = []

        def initialiser(index, rng):
            seen.append(float(rng.random()))
            return ScalarParams(0.0)

        driver = EMDriver(max_iterations=1, tolerance=1e-6, n_restarts=3)
        driver.fit(HalvingBackend(), initialiser, seed=0)
        assert len(seen) == 3
        assert len(set(seen)) == 3
