"""Trial isolation in the simulation harness: policies, ledger, breakers."""

import numpy as np
import pytest

from repro.baselines import make_fact_finder
from repro.eval import run_simulation
from repro.parallel import ParallelConfig
from repro.resilience import (
    BreakerConfig,
    FailurePolicy,
    InjectedFault,
    chaos_finder,
    temporary_algorithm,
)
from repro.resilience.policy import ACTION_SHORT_CIRCUITED, retry_seed
from repro.synthetic import GeneratorConfig
from repro.utils.errors import ValidationError

pytestmark = pytest.mark.chaos

CONFIG = GeneratorConfig(n_sources=10, n_assertions=30, n_trees=(4, 5))


def _chaos(fail_fits=(), name="chaos-em"):
    """A chaos wrapper around the independent EM baseline."""
    return chaos_finder(
        lambda seed: make_fact_finder("em", seed=seed),
        fail_fits=fail_fits,
        name=name,
    )


class TestFailurePolicies:
    def test_fail_fast_propagates_the_injected_fault(self):
        with temporary_algorithm(_chaos(fail_fits=(0,))) as name:
            with pytest.raises(InjectedFault):
                run_simulation(
                    CONFIG,
                    algorithms=("em", name),
                    n_trials=3,
                    seed=42,
                    include_optimal=False,
                )

    def test_skip_policy_completes_with_populated_ledger(self):
        # The chaos algorithm is killed on trial 1 (its fit #1); the
        # harness must finish all trials for every other algorithm.
        with temporary_algorithm(_chaos(fail_fits=(1,))) as name:
            result = run_simulation(
                CONFIG,
                algorithms=("em", name),
                n_trials=3,
                seed=42,
                include_optimal=False,
                failure_policy=FailurePolicy.skip(),
            )
        assert len(result.series["em"].accuracy) == 3
        assert len(result.series[name].accuracy) == 2
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.trial == 1
        assert failure.algorithm == name
        assert failure.error_type == "InjectedFault"
        assert failure.action == "skipped"
        assert result.failure_counts() == {name: {"skipped": 1}}
        assert result.n_skipped(name) == 1

    def test_retry_policy_recovers_and_records_the_attempt(self):
        # Fit #1 (trial 1, attempt 0) dies; the retry (fit #2) succeeds,
        # so the series is complete and the ledger records one retry.
        with temporary_algorithm(_chaos(fail_fits=(1,))) as name:
            result = run_simulation(
                CONFIG,
                algorithms=(name,),
                n_trials=3,
                seed=42,
                include_optimal=False,
                failure_policy=FailurePolicy.retry(max_attempts=2),
            )
        assert len(result.series[name].accuracy) == 3
        assert len(result.failures) == 1
        assert result.failures[0].action == "retried"
        assert result.n_skipped(name) == 0

    def test_retry_exhaustion_skips_with_full_ledger(self):
        # Trial 0 fails on the original attempt and both retries.
        with temporary_algorithm(_chaos(fail_fits=(0, 1, 2))) as name:
            result = run_simulation(
                CONFIG,
                algorithms=(name,),
                n_trials=2,
                seed=42,
                include_optimal=False,
                failure_policy=FailurePolicy.retry(max_attempts=3),
            )
        assert len(result.series[name].accuracy) == 1
        actions = [f.action for f in result.failures]
        assert actions == ["retried", "retried", "skipped"]

    def test_invalid_policy_mode_rejected(self):
        with pytest.raises(ValidationError):
            FailurePolicy(mode="explode")
        with pytest.raises(ValidationError):
            FailurePolicy.retry(max_attempts=0)


class TestDeterminismUnderFaults:
    def test_surviving_series_match_a_fault_free_run(self):
        """Fault-free algorithms are bit-identical whatever the policy."""
        reference = run_simulation(
            CONFIG,
            algorithms=("em",),
            n_trials=3,
            seed=42,
            include_optimal=False,
        )
        with temporary_algorithm(_chaos(fail_fits=(0, 1, 2))) as name:
            chaotic = run_simulation(
                CONFIG,
                algorithms=("em", name),
                n_trials=3,
                seed=42,
                include_optimal=False,
                failure_policy=FailurePolicy.retry(max_attempts=1),
            )
        assert chaotic.series["em"].accuracy == reference.series["em"].accuracy
        assert (
            chaotic.series["em"].false_positive_rate
            == reference.series["em"].false_positive_rate
        )

    def test_retry_seed_is_deterministic_and_leaves_attempt_zero_alone(self):
        assert retry_seed(1234, 0) == 1234
        assert retry_seed(1234, 1) == retry_seed(1234, 1)
        assert retry_seed(1234, 1) != retry_seed(1234, 2)
        assert retry_seed(1234, 1) != retry_seed(1235, 1)


class TestNonFiniteScoresArePolicyFailures:
    def test_nan_scores_are_skipped_not_recorded(self):
        class NaNFinder:
            algorithm_name = "nan-finder"
            accepts_trial_seed = True

            def __init__(self, seed=None, **_kwargs):
                self._seed = seed

            def fit(self, problem):
                inner = make_fact_finder("em", seed=self._seed).fit(problem)
                poisoned = inner.scores.copy()
                poisoned[0] = np.nan
                object.__setattr__(inner, "scores", poisoned)
                return inner

        with temporary_algorithm(NaNFinder) as name:
            result = run_simulation(
                CONFIG,
                algorithms=(name,),
                n_trials=2,
                seed=3,
                include_optimal=False,
                failure_policy=FailurePolicy.skip(),
            )
        assert result.series[name].accuracy == []
        assert {f.error_type for f in result.failures} == {"DataError"}


class TestCircuitBreakerInHarness:
    def test_persistent_failures_trip_into_short_circuits(self):
        # The chaos algorithm fails every fit; with a 2-call window the
        # breaker trips early and later trials are refused without even
        # attempting the fit.
        with temporary_algorithm(
            _chaos(fail_fits=tuple(range(50)), name="always-boom")
        ) as name:
            result = run_simulation(
                CONFIG,
                algorithms=("em", name),
                n_trials=8,
                seed=42,
                include_optimal=False,
                failure_policy=FailurePolicy.skip(),
                breaker_config=BreakerConfig(
                    failure_threshold=0.5, window=2, min_calls=2, cooldown_calls=3
                ),
            )
        counts = result.failure_counts()[name]
        assert counts.get("short_circuited", 0) > 0
        assert counts.get("skipped", 0) >= 2
        refused = [f for f in result.failures if f.action == ACTION_SHORT_CIRCUITED]
        assert all(f.error_type == "CircuitOpenError" for f in refused)
        # The healthy co-scheduled algorithm is untouched by the breaker.
        assert len(result.series["em"].accuracy) == 8
        assert result.failure_counts().get("em") is None

    def test_breaker_is_transparent_for_healthy_algorithms(self):
        kwargs = dict(
            algorithms=("em",), n_trials=4, seed=7, include_optimal=False
        )
        plain = run_simulation(CONFIG, **kwargs)
        guarded = run_simulation(CONFIG, breaker_config=BreakerConfig(), **kwargs)
        assert plain.series["em"].accuracy == guarded.series["em"].accuracy
        assert guarded.failures == []

    def test_breaker_requires_the_serial_path(self):
        # Breaker state spans trials; a pooled run would fork it per
        # worker and silently diverge, so the combination is rejected.
        with pytest.raises(ValidationError, match="breaker"):
            run_simulation(
                CONFIG,
                algorithms=("em",),
                n_trials=2,
                seed=1,
                include_optimal=False,
                breaker_config=BreakerConfig(),
                parallel=ParallelConfig(n_jobs=2),
            )


class TestCascadeBoundInHarness:
    def test_deadlined_optimal_bound_matches_the_plain_one(self):
        # On these tiny problems the cascade's exact tier always fits a
        # 30 s budget, so the deadline-aware path must be bit-identical.
        kwargs = dict(
            algorithms=("em",), n_trials=3, seed=11, include_optimal=True
        )
        plain = run_simulation(CONFIG, **kwargs)
        deadlined = run_simulation(CONFIG, bound_deadline_seconds=30.0, **kwargs)
        assert plain.series["optimal"].accuracy == deadlined.series["optimal"].accuracy
        assert (
            plain.series["optimal"].false_positive_rate
            == deadlined.series["optimal"].false_positive_rate
        )

    def test_bound_deadline_must_be_positive(self):
        with pytest.raises(ValidationError):
            run_simulation(
                CONFIG,
                algorithms=("em",),
                n_trials=1,
                seed=1,
                bound_deadline_seconds=0.0,
            )
