"""Observability parity: worker-collected metrics/spans must equal serial.

Workers run their own observability session and ship spans + metric
snapshots back with each result; the parent grafts and merges them in
task order.  These tests hold the line: for every parallel entry point,
and for batched trial packs, the merged counters equal a serial run's
counters exactly, and the span trees carry the same names in the same
trial order.
"""

import multiprocessing
import os

import pytest

from repro import observability
from repro.baselines import make_fact_finder
from repro.eval import run_simulation
from repro.observability import validate_span_tree
from repro.parallel import ParallelConfig
from repro.resilience import FailurePolicy, InjectedFault, temporary_algorithm
from repro.synthetic import GeneratorConfig

N_JOBS = int(os.environ.get("REPRO_TEST_N_JOBS", "4"))

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers must inherit the parent's algorithm registry (fork only)",
)

CONFIG = GeneratorConfig(n_sources=8, n_assertions=24, n_trees=(3, 4))


def _observed_run(fn):
    """Run ``fn`` under a fresh session; return (result, counters, root)."""
    with observability.observe() as session:
        result = fn()
    return result, session.metrics.snapshot()["counters"], session.finish()


def _span_names(span):
    """The tree's span names in depth-first order (timings stripped)."""
    names = [span.name]
    for child in span.children:
        names.extend(_span_names(child))
    return names


class TestHarnessObservabilityParity:
    def test_counters_and_span_order_match_serial(self):
        kwargs = dict(
            algorithms=("em", "em-ext"),
            n_trials=4,
            seed=123,
            include_optimal=True,
        )
        serial, serial_counters, serial_root = _observed_run(
            lambda: run_simulation(CONFIG, **kwargs)
        )
        pooled, pooled_counters, pooled_root = _observed_run(
            lambda: run_simulation(
                CONFIG, parallel=ParallelConfig(n_jobs=N_JOBS), **kwargs
            )
        )
        in_process, inproc_counters, inproc_root = _observed_run(
            lambda: run_simulation(
                CONFIG, parallel=ParallelConfig.serial(), **kwargs
            )
        )
        assert serial_counters == pooled_counters == inproc_counters
        assert serial_counters["harness.trials"] == 4
        # Same span names in the same (trial) order: worker trees are
        # grafted as the outcomes are consumed, which is trial order.
        assert (
            _span_names(serial_root)
            == _span_names(pooled_root)
            == _span_names(inproc_root)
        )
        for root in (serial_root, pooled_root, inproc_root):
            assert validate_span_tree(root) == []

    def test_batched_trial_packs_count_what_serial_counts(self):
        """Lane packs count every EM iteration and restart a serial run does.

        Only the packs' own ``engine.batched.*`` and ``harness.batched.*``
        counters are extra.
        """
        kwargs = dict(
            algorithms=("em", "em-ext"),
            n_trials=4,
            seed=123,
            include_optimal=True,
        )
        _, serial_counters, _ = _observed_run(
            lambda: run_simulation(CONFIG, **kwargs)
        )
        _, batched_counters, batched_root = _observed_run(
            lambda: run_simulation(CONFIG, trial_mode="batched", **kwargs)
        )
        assert batched_counters["harness.batched.prefit_hits"] == 4
        shared = {
            name: value
            for name, value in batched_counters.items()
            if not name.startswith(("engine.batched.", "harness.batched."))
        }
        assert shared == serial_counters
        assert serial_counters["em.iterations"] > 0
        assert validate_span_tree(batched_root) == []

    def test_disabled_parent_means_no_worker_collection(self):
        # No session in the parent -> the spec ships collect=False and
        # results carry no observability payload (and no session leaks).
        result = run_simulation(
            CONFIG,
            algorithms=("em",),
            n_trials=2,
            seed=5,
            include_optimal=False,
            parallel=ParallelConfig(n_jobs=2),
        )
        assert not observability.enabled()
        assert result.failures == []


class _FlakySeedFinder:
    """Fails deterministically per trial seed (pure function of seed)."""

    algorithm_name = "flaky-seed-obs"
    accepts_trial_seed = True

    def __init__(self, seed=None, **_kwargs):
        self._seed = seed

    def fit(self, problem):
        if self._seed % 3 == 0:
            raise InjectedFault(f"flaky on seed {self._seed}")
        return make_fact_finder("em", seed=self._seed).fit(problem)


class _SeedBomb:
    """Dies on chosen seeds while armed; delegates when not."""

    algorithm_name = "seed-bomb-obs"
    accepts_trial_seed = True
    armed = True

    def __init__(self, seed=None, **_kwargs):
        self._seed = seed

    def fit(self, problem):
        if type(self).armed and self._seed % 5 == 0:
            raise InjectedFault(f"bomb armed on seed {self._seed}")
        return make_fact_finder("em", seed=self._seed).fit(problem)


@needs_fork
class TestPolicyObservabilityParity:
    def test_retry_counters_match_serial(self):
        # Seed 8 exercises both retried and skipped (see the serial
        # parity wall); the failure-action counters must agree across
        # execution modes, including the backoff bookkeeping.
        kwargs = dict(
            algorithms=("em", _FlakySeedFinder.algorithm_name),
            n_trials=6,
            seed=8,
            include_optimal=False,
            failure_policy=FailurePolicy.retry(max_attempts=2),
        )
        with temporary_algorithm(_FlakySeedFinder):
            serial, serial_counters, _ = _observed_run(
                lambda: run_simulation(CONFIG, **kwargs)
            )
            pooled, pooled_counters, _ = _observed_run(
                lambda: run_simulation(
                    CONFIG,
                    parallel=ParallelConfig(n_jobs=N_JOBS, start_method="fork"),
                    **kwargs,
                )
            )
        assert serial_counters == pooled_counters
        assert serial_counters["harness.failures.retried"] == sum(
            1 for f in serial.failures if f.action == "retried"
        )
        assert serial_counters["harness.failures.skipped"] == sum(
            1 for f in serial.failures if f.action == "skipped"
        )


@needs_fork
class TestCheckpointResumeObservability:
    def test_resumed_sweep_counts_only_remaining_trials(self, tmp_path):
        # Seed 7: the bomb fires on trial 3 (probed offline), leaving a
        # checkpoint with trials 0-2 done.  The resumed run's counters
        # must cover exactly the remaining trials.
        path = str(tmp_path / "sweep.ckpt")
        kwargs = dict(
            algorithms=("em", _SeedBomb.algorithm_name),
            n_trials=6,
            seed=7,
            include_optimal=False,
        )
        parallel = ParallelConfig(n_jobs=N_JOBS, start_method="fork")
        try:
            with temporary_algorithm(_SeedBomb):
                _SeedBomb.armed = True
                with pytest.raises(InjectedFault):
                    run_simulation(
                        CONFIG, checkpoint_path=path, parallel=parallel, **kwargs
                    )
                assert os.path.exists(path)
                _SeedBomb.armed = False
                resumed, resumed_counters, resumed_root = _observed_run(
                    lambda: run_simulation(
                        CONFIG, checkpoint_path=path, parallel=parallel, **kwargs
                    )
                )
        finally:
            _SeedBomb.armed = True
        assert validate_span_tree(resumed_root) == []
        n_resumed = resumed_counters["harness.trials"]
        assert 0 < n_resumed < 6
        assert resumed_root.children[0].name == "harness.run_simulation"
        trials = [
            c
            for c in resumed_root.children[0].children
            if c.name == "harness.trial"
        ]
        assert len(trials) == n_resumed
        # The trials that ran are the ones after the checkpoint, in order.
        assert [t.attributes["trial"] for t in trials] == list(
            range(6 - n_resumed, 6)
        )
