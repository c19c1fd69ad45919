"""Ledgers and metrics counters must never disagree.

The repo keeps three truthful records of what went wrong or was
attempted: the harness failure ledger (summarised by
:class:`~repro.eval.diagnostics.TelemetrySummary`), the cascade's
:class:`~repro.bounds.cascade.DegradationReport`, and the circuit
breaker's snapshot.  Each is produced at the same code points that
increment the corresponding metrics counters, so the two views must
match *exactly* — these regressions pin that.
"""

from repro import observability
from repro.bounds import bound_cascade
from repro.engine import TelemetryRecorder
from repro.eval import run_simulation
from repro.eval.diagnostics import summarize_telemetry
from repro.resilience import FailurePolicy, InjectedFault, temporary_algorithm
from repro.resilience.supervisor import BreakerConfig, CircuitBreaker, Deadline
from repro.synthetic import GeneratorConfig, empirical_parameters, generate_dataset

CONFIG = GeneratorConfig(n_sources=8, n_assertions=24, n_trees=(3, 4))


class _FlakySeedFinder:
    """Fails deterministically per trial seed (pure function of seed)."""

    algorithm_name = "flaky-seed-ledger"
    accepts_trial_seed = True

    def __init__(self, seed=None, **_kwargs):
        self._seed = seed

    def fit(self, problem):
        from repro.baselines import make_fact_finder

        if self._seed % 3 == 0:
            raise InjectedFault(f"flaky on seed {self._seed}")
        return make_fact_finder("em", seed=self._seed).fit(problem)


class TestTelemetrySummaryAgreement:
    def test_retry_and_skip_counts_match_counters(self):
        recorder = TelemetryRecorder()
        with temporary_algorithm(_FlakySeedFinder):
            with observability.observe() as session:
                result = run_simulation(
                    CONFIG,
                    algorithms=("em", _FlakySeedFinder.algorithm_name),
                    n_trials=6,
                    seed=8,
                    include_optimal=False,
                    telemetry=recorder,
                    failure_policy=FailurePolicy.retry(max_attempts=2),
                )
        summary = summarize_telemetry(recorder.events, result.failures)
        counters = session.metrics.snapshot()["counters"]
        # The run must actually exercise both actions.
        assert summary.n_retried > 0
        assert summary.n_skipped > 0
        assert counters["harness.failures.retried"] == summary.n_retried
        assert counters["harness.failures.skipped"] == summary.n_skipped
        assert (
            summary.n_trial_failures
            == summary.n_retried + summary.n_skipped
        )
        # The counter sees every EM loop in the process (including the
        # chaos finder's internal delegate fits, which carry no
        # telemetry callback), so it can only be >= the recorder's view.
        assert counters["em.iterations"] >= summary.n_iterations
        assert counters["harness.trials"] == 6


class TestDegradationReportAgreement:
    def test_tier_attempts_match_cascade_counters(self):
        dataset = generate_dataset(CONFIG, seed=21)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values
        with observability.observe() as session:
            outcome = bound_cascade(dependency, params, seed=3)
        self._assert_attempts_match(outcome.report, session)

    def test_degraded_run_still_matches(self):
        # An already-expired deadline forces the cascade all the way
        # down to the analytic tier, recording skips along the way.
        dataset = generate_dataset(CONFIG, seed=22)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values
        with observability.observe() as session:
            outcome = bound_cascade(
                dependency, params, deadline=Deadline.after(1e-9), seed=3
            )
        assert outcome.report.degraded
        self._assert_attempts_match(outcome.report, session)

    @staticmethod
    def _assert_attempts_match(report, session):
        counters = session.metrics.snapshot()["counters"]
        expected = {}
        for attempt in report.attempts:
            key = f"cascade.attempts.{attempt.tier}.{attempt.status}"
            expected[key] = expected.get(key, 0) + 1
        recorded = {
            name: value
            for name, value in counters.items()
            if name.startswith("cascade.attempts.")
        }
        assert recorded == expected


class TestBreakerAgreement:
    def test_snapshot_matches_transition_counters(self):
        config = BreakerConfig(
            failure_threshold=0.5, window=4, min_calls=2, cooldown_calls=2
        )
        with observability.observe() as session:
            breaker = CircuitBreaker(config)
            # Trip it: enough failures inside the window.
            for _ in range(2):
                assert breaker.allow()
                breaker.record_failure()
            # Short-circuit during cooldown (the second cooldown call
            # transitions to half-open and is admitted as the probe).
            refused = sum(0 if breaker.allow() else 1 for _ in range(2))
            # The half-open probe succeeds -> closed again.
            breaker.record_success()
            assert breaker.allow()
            breaker.record_success()
        counters = session.metrics.snapshot()["counters"]
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "closed"
        assert counters["breaker.transitions.opened"] == snapshot["n_trips"] == 1
        assert (
            counters["breaker.short_circuits"]
            == snapshot["n_short_circuits"]
            == refused
        )
        assert refused > 0
        assert counters["breaker.transitions.half_open"] == 1
        assert counters["breaker.transitions.closed"] == 1

    def test_short_circuited_ledger_matches_counter(self):
        with temporary_algorithm(_FlakySeedFinder):
            with observability.observe() as session:
                result = run_simulation(
                    CONFIG,
                    algorithms=(_FlakySeedFinder.algorithm_name,),
                    n_trials=10,
                    seed=8,
                    include_optimal=False,
                    failure_policy=FailurePolicy.skip(),
                    breaker_config=BreakerConfig(
                        failure_threshold=0.4,
                        window=4,
                        min_calls=2,
                        cooldown_calls=3,
                    ),
                )
        counters = session.metrics.snapshot()["counters"]
        n_short = sum(
            1 for f in result.failures if f.action == "short_circuited"
        )
        assert n_short > 0
        assert counters["harness.failures.short_circuited"] == n_short
