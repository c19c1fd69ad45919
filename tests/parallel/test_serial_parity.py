"""The serial-parity wall: parallel execution must be bit-for-bit serial.

Every parallel entry point — the simulation harness and the sharded
Gibbs bound — promises results that are *identical* (not just
statistically equivalent) for any worker count.
These tests hold the line with exact ``==`` comparisons on floats.

``REPRO_TEST_N_JOBS`` overrides the non-trivial worker count (CI uses 2
to match its runners; the default is 4).
"""

import multiprocessing
import os

import pytest

from repro.baselines import make_fact_finder
from repro.bounds import GibbsConfig, gibbs_bound
from repro.engine import TelemetryRecorder
from repro.eval import run_simulation
from repro.parallel import ParallelConfig
from repro.resilience import FailurePolicy, InjectedFault, temporary_algorithm
from repro.synthetic import GeneratorConfig, empirical_parameters, generate_dataset

N_JOBS = int(os.environ.get("REPRO_TEST_N_JOBS", "4"))

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers must inherit the parent's algorithm registry (fork only)",
)

CONFIG = GeneratorConfig(n_sources=8, n_assertions=24, n_trees=(3, 4))


def _series_dict(result):
    """All metric series of a SimulationResult, hashable for exact ==."""
    return {
        name: (
            tuple(series.accuracy),
            tuple(series.false_positive_rate),
            tuple(series.false_negative_rate),
        )
        for name, series in result.series.items()
    }


def _ledger(result):
    return [
        (f.trial, f.algorithm, f.attempt, f.error_type, f.action)
        for f in result.failures
    ]


def _event_keys(recorder):
    """Telemetry events minus wall-clock durations (which may not match)."""
    return [(e.iteration, e.delta, e.log_likelihood) for e in recorder.events]


class TestHarnessParity:
    def test_run_simulation_identical_for_any_worker_count(self):
        kwargs = dict(
            algorithms=("em", "em-ext"),
            n_trials=4,
            seed=123,
            include_optimal=True,
        )
        recorders = [TelemetryRecorder() for _ in range(3)]
        serial = run_simulation(CONFIG, telemetry=recorders[0], **kwargs)
        pooled = run_simulation(
            CONFIG,
            telemetry=recorders[1],
            parallel=ParallelConfig(n_jobs=N_JOBS),
            **kwargs,
        )
        in_process = run_simulation(
            CONFIG,
            telemetry=recorders[2],
            parallel=ParallelConfig.serial(),
            **kwargs,
        )
        assert _series_dict(serial) == _series_dict(pooled) == _series_dict(in_process)
        assert serial.failures == pooled.failures == []
        # Worker telemetry is replayed into the parent's recorder in
        # trial order — same events as a live serial run.
        assert _event_keys(recorders[0]) == _event_keys(recorders[1])
        assert _event_keys(recorders[0]) == _event_keys(recorders[2])
        assert len(recorders[0]) > 0

    def test_chunked_dispatch_is_still_identical(self):
        kwargs = dict(
            algorithms=("em",), n_trials=5, seed=31, include_optimal=False
        )
        serial = run_simulation(CONFIG, **kwargs)
        chunked = run_simulation(
            CONFIG, parallel=ParallelConfig(n_jobs=2, chunk_size=2), **kwargs
        )
        assert _series_dict(serial) == _series_dict(chunked)


class TestGibbsParity:
    def test_sharded_bound_invariant_to_worker_count(self):
        dataset = generate_dataset(CONFIG, seed=21)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values
        config = GibbsConfig(
            burn_in=20, min_sweeps=100, max_sweeps=400, check_interval=50
        )
        results = [
            gibbs_bound(dependency, params, config=config, seed=9, parallel=parallel)
            for parallel in (
                ParallelConfig(n_jobs=1),
                ParallelConfig(n_jobs=N_JOBS),
                ParallelConfig.serial(),
            )
        ]
        reference = results[0]
        for other in results[1:]:
            assert other.total == reference.total
            assert other.false_positive == reference.false_positive
            assert other.false_negative == reference.false_negative
            assert other.n_samples == reference.n_samples
        assert 0.0 <= reference.total <= 0.5


class _FlakySeedFinder:
    """Registry-compatible finder that dies deterministically per seed.

    Unlike :func:`repro.resilience.faults.chaos_finder` (whose global
    fit counter is per-process, so fork workers would each count their
    own fits), failure here is a pure function of the trial seed — the
    same trials fail no matter which process runs them.
    """

    algorithm_name = "flaky-seed"
    accepts_trial_seed = True

    def __init__(self, seed=None, **_kwargs):
        self._seed = seed

    def fit(self, problem):
        if self._seed % 3 == 0:
            raise InjectedFault(f"flaky on seed {self._seed}")
        return make_fact_finder("em", seed=self._seed).fit(problem)


class _SeedBomb:
    """Finder that dies on chosen seeds while armed; delegates when not.

    ``armed`` is a class attribute so a test can let one sweep crash,
    disarm, and resume — fork workers inherit the flag's current value.
    """

    algorithm_name = "seed-bomb"
    accepts_trial_seed = True
    armed = True

    def __init__(self, seed=None, **_kwargs):
        self._seed = seed

    def fit(self, problem):
        if type(self).armed and self._seed % 5 == 0:
            raise InjectedFault(f"bomb armed on seed {self._seed}")
        return make_fact_finder("em", seed=self._seed).fit(problem)


@needs_fork
class TestPolicyParity:
    def test_retry_ledger_and_series_identical(self):
        # Seed 8: two trials fail on their first attempt; one of them
        # also fails its retry and is skipped — the ledger exercises
        # both actions (probed offline; failure is a pure function of
        # the deterministic trial seeds).
        kwargs = dict(
            algorithms=("em", _FlakySeedFinder.algorithm_name),
            n_trials=6,
            seed=8,
            include_optimal=False,
            failure_policy=FailurePolicy.retry(max_attempts=2),
        )
        with temporary_algorithm(_FlakySeedFinder):
            serial = run_simulation(CONFIG, **kwargs)
            pooled = run_simulation(
                CONFIG,
                parallel=ParallelConfig(n_jobs=N_JOBS, start_method="fork"),
                **kwargs,
            )
        assert _series_dict(serial) == _series_dict(pooled)
        assert _ledger(serial) == _ledger(pooled)
        assert {f.action for f in serial.failures} == {"retried", "skipped"}

    def test_skip_ledger_and_series_identical(self):
        kwargs = dict(
            algorithms=("em", _FlakySeedFinder.algorithm_name),
            n_trials=6,
            seed=8,
            include_optimal=False,
            failure_policy=FailurePolicy.skip(),
        )
        with temporary_algorithm(_FlakySeedFinder):
            serial = run_simulation(CONFIG, **kwargs)
            pooled = run_simulation(
                CONFIG,
                parallel=ParallelConfig(n_jobs=N_JOBS, start_method="fork"),
                **kwargs,
            )
        assert _series_dict(serial) == _series_dict(pooled)
        assert _ledger(serial) == _ledger(pooled)
        assert len(serial.failures) > 0


@needs_fork
class TestCheckpointResumeParity:
    def test_interrupted_parallel_sweep_resumes_bit_for_bit(self, tmp_path):
        # Seed 7: the bomb fires on trial 3, so the crashed sweep leaves
        # a checkpoint holding trials 0-2 (probed offline).
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
                # Disarm and resume: the remaining trials run in
                # workers, and the merged result must equal an
                # uninterrupted run.
                _SeedBomb.armed = False
                resumed = run_simulation(
                    CONFIG, checkpoint_path=path, parallel=parallel, **kwargs
                )
                uninterrupted = run_simulation(CONFIG, **kwargs)
        finally:
            _SeedBomb.armed = True
        assert _series_dict(resumed) == _series_dict(uninterrupted)
        assert resumed.failures == uninterrupted.failures == []


def _square(x):
    return x * x


class TestSupervisedExecutorParity:
    """The heartbeat-supervised path must change *when*, never *what*."""

    def test_supervised_imap_matches_plain_results(self):
        from repro.parallel import parallel_map

        tasks = list(range(17))
        plain = parallel_map(_square, tasks, config=ParallelConfig(n_jobs=N_JOBS))
        supervised = parallel_map(
            _square,
            tasks,
            config=ParallelConfig(
                n_jobs=N_JOBS, timeout_seconds=120.0, max_resubmits=2
            ),
        )
        assert supervised == plain == [x * x for x in tasks]

    def test_supervised_harness_run_is_bit_identical_to_serial(self):
        kwargs = dict(
            algorithms=("em", "em-ext"),
            n_trials=4,
            seed=77,
            include_optimal=True,
        )
        serial = run_simulation(CONFIG, **kwargs)
        supervised = run_simulation(
            CONFIG,
            parallel=ParallelConfig(
                n_jobs=N_JOBS, timeout_seconds=120.0, max_resubmits=2
            ),
            **kwargs,
        )
        assert _series_dict(serial) == _series_dict(supervised)
        assert serial.failures == supervised.failures == []
