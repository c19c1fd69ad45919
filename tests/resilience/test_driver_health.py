"""Run-health guards in the EM driver: NaN-safe selection, isolation, budgets."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import EMConfig, EMExtEstimator
from repro.engine import EMDriver, RunHealth
from repro.resilience import FaultInjector, FlakyBackend, NaNLikelihoodBackend
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ConvergenceError, ValidationError


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
        return np.array([params.value]), -abs(params.value - self.target)


class SlowBackend(HalvingBackend):
    """Halving backend whose E-step takes a measurable amount of time."""

    def e_step(self, params: ScalarParams):
        time.sleep(0.005)
        return super().e_step(params)


def constant_initialiser(index, rng):
    return ScalarParams(0.0)


class TestNaNSafeSelection:
    def test_diverged_first_restart_never_shadows_finite_one(self):
        # Restart 0's only E-step returns NaN; restart 1 is healthy.  The
        # old `candidate_ll > best_ll` comparison kept the NaN restart.
        backend = NaNLikelihoodBackend(HalvingBackend(), nan_calls=(0,))
        driver = EMDriver(max_iterations=1, tolerance=1e-12, n_restarts=2)
        outcome = driver.fit(backend, constant_initialiser, seed=0)
        assert np.isfinite(outcome.log_likelihood)
        assert outcome.health is not None
        assert outcome.health.selected == 1
        assert outcome.health.restarts[0].status == "diverged"
        assert not outcome.health.ok  # a restart failed, even if recoverable

    def test_diverged_restart_stops_iterating(self):
        backend = NaNLikelihoodBackend(HalvingBackend(), nan_calls=(0,))
        driver = EMDriver(
            max_iterations=50, tolerance=1e-12, n_restarts=1, strict=True
        )
        with pytest.raises(ConvergenceError):
            driver.fit(backend, constant_initialiser, seed=0)
        # Only the poisoned iteration ran; the loop did not grind on NaNs.
        assert backend.calls == 1


class TestAllRestartsFail:
    def test_strict_mode_raises_convergence_error(self):
        backend = NaNLikelihoodBackend(HalvingBackend(), nan_calls=(0, 1))
        driver = EMDriver(
            max_iterations=1, tolerance=1e-12, n_restarts=2, strict=True
        )
        with pytest.raises(ConvergenceError) as excinfo:
            driver.fit(backend, constant_initialiser, seed=0)
        assert excinfo.value.iterations == 2
        assert np.isfinite(excinfo.value.residual)
        assert "every EM restart failed" in str(excinfo.value)

    def test_non_strict_mode_degrades_to_best_effort(self):
        backend = NaNLikelihoodBackend(HalvingBackend(), nan_calls=(0, 1))
        driver = EMDriver(max_iterations=1, tolerance=1e-12, n_restarts=2)
        outcome = driver.fit(backend, constant_initialiser, seed=0)
        assert not outcome.converged
        assert outcome.health.all_failed
        assert outcome.health.selected is None
        # The fallback still carries usable (finite) parameters.
        assert np.isfinite(outcome.parameters.value)

    def test_non_strict_without_fallback_still_raises(self):
        # Every restart *errors* (no diverged outcome to fall back on).
        backend = FlakyBackend(HalvingBackend(), fail_calls=(0, 1))
        driver = EMDriver(max_iterations=1, tolerance=1e-12, n_restarts=2)
        with pytest.raises(ConvergenceError):
            driver.fit(backend, constant_initialiser, seed=0)


class TestRestartIsolation:
    def test_errored_restart_is_recorded_and_skipped(self):
        backend = FlakyBackend(HalvingBackend(), fail_calls=(0,))
        driver = EMDriver(max_iterations=100, tolerance=1e-8, n_restarts=2)
        outcome = driver.fit(backend, constant_initialiser, seed=0)
        assert outcome.converged
        report = outcome.health.restarts[0]
        assert report.status == "error"
        assert "InjectedFault" in report.error
        assert outcome.health.selected == 1
        assert outcome.health.n_failed == 1

    def test_fault_free_fit_is_healthy(self):
        driver = EMDriver(max_iterations=100, tolerance=1e-8, n_restarts=2)
        outcome = driver.fit(HalvingBackend(), constant_initialiser, seed=0)
        assert outcome.health.ok
        assert [r.status for r in outcome.health.restarts] == ["converged"] * 2
        assert "2 restart(s)" in outcome.health.summary()


class TestWallClockBudget:
    def test_budget_bounds_the_fit_but_returns_a_result(self):
        driver = EMDriver(
            max_iterations=10_000,
            tolerance=1e-300,
            n_restarts=5,
            max_wall_seconds=0.02,
        )
        outcome = driver.fit(SlowBackend(), constant_initialiser, seed=0)
        assert outcome.health.budget_exhausted
        # At least the first restart ran and produced parameters.
        assert outcome.health.n_restarts >= 1
        assert outcome.health.n_restarts < 5
        assert np.isfinite(outcome.parameters.value)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValidationError):
            EMDriver(max_iterations=1, tolerance=1e-6, max_wall_seconds=0.0)


class TestEndToEndGuards:
    """The guards through the real estimator on a poisoned problem."""

    @pytest.fixture()
    def poisoned_problem(self):
        problem = generate_dataset(
            GeneratorConfig(n_sources=10, n_assertions=30, n_trees=(4, 5)), seed=3
        ).problem.without_truth()
        return FaultInjector(seed=0).poison_claims(problem, rate=0.1)

    def test_strict_estimator_raises_on_poisoned_input(self, poisoned_problem):
        config = EMConfig(max_iterations=30, n_restarts=2, strict=True)
        estimator = EMExtEstimator(config=config, seed=0)
        with pytest.raises(ConvergenceError):
            estimator.fit(poisoned_problem)

    def test_non_strict_estimator_raises_when_nothing_usable_remains(
        self, poisoned_problem
    ):
        # Poisoned claims make every restart *error* (the M-step cannot
        # even build parameters), so there is no best-effort fallback to
        # degrade to: non-strict mode must raise too, with the restart
        # ledger in the message.
        config = EMConfig(max_iterations=30, n_restarts=2)
        with pytest.raises(ConvergenceError, match="2 error"):
            EMExtEstimator(config=config, seed=0).fit(poisoned_problem)

    def test_healthy_estimator_attaches_ok_health(self, synthetic_dataset):
        result = EMExtEstimator(seed=0).fit(
            synthetic_dataset.problem.without_truth()
        )
        assert isinstance(result.health, RunHealth)
        assert result.health.ok
