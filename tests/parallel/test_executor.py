"""Unit tests of the execution layer: config validation, ordering, containment."""

import os

import pytest

from repro.parallel import (
    ParallelConfig,
    WorkerTimeoutError,
    cpu_count,
    parallel_imap,
    parallel_map,
)
from repro.utils.errors import ValidationError


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _explode_on_three(x):
    if x == 3:
        raise ValueError("boom on 3")
    return x


class TestParallelConfig:
    def test_defaults_are_one_process_worker(self):
        config = ParallelConfig()
        assert config.n_jobs == 1
        assert config.backend == "process"
        assert config.chunk_size == 1
        assert config.timeout_seconds is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_jobs": 0},
            {"n_jobs": -2},
            {"backend": "threads"},
            {"chunk_size": 0},
            {"start_method": "magic"},
            {"timeout_seconds": 0.0},
            {"timeout_seconds": -1.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ParallelConfig(**kwargs)

    def test_all_cores_resolves_to_cpu_count(self):
        assert ParallelConfig(n_jobs=-1).resolve_jobs() == cpu_count()
        assert cpu_count() >= 1

    def test_effective_jobs_capped_by_tasks(self):
        assert ParallelConfig(n_jobs=8).effective_jobs(3) == 3
        assert ParallelConfig(n_jobs=2).effective_jobs(100) == 2
        assert ParallelConfig.serial().effective_jobs(100) == 1

    def test_constructors(self):
        assert ParallelConfig.serial().backend == "serial"
        assert ParallelConfig.processes().n_jobs == -1
        assert ParallelConfig.processes(3).n_jobs == 3


class TestParallelMap:
    def test_empty_task_list(self):
        assert parallel_map(_square, [], config=ParallelConfig(n_jobs=4)) == []

    def test_serial_backend_runs_in_process(self):
        pids = parallel_map(_pid, range(4), config=ParallelConfig.serial())
        assert set(pids) == {os.getpid()}

    def test_single_job_runs_in_process(self):
        pids = parallel_map(_pid, range(4), config=ParallelConfig(n_jobs=1))
        assert set(pids) == {os.getpid()}

    def test_process_backend_uses_workers(self):
        pids = parallel_map(_pid, range(8), config=ParallelConfig(n_jobs=2))
        assert os.getpid() not in pids

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    @pytest.mark.parametrize("chunk_size", [1, 3])
    def test_results_preserve_task_order(self, n_jobs, chunk_size):
        config = ParallelConfig(n_jobs=n_jobs, chunk_size=chunk_size)
        assert parallel_map(_square, range(10), config=config) == [
            x * x for x in range(10)
        ]

    def test_imap_streams_in_order(self):
        stream = parallel_imap(_square, range(5), config=ParallelConfig(n_jobs=2))
        assert next(stream) == 0
        assert list(stream) == [1, 4, 9, 16]

    def test_worker_exception_reraised_in_parent(self):
        with pytest.raises(ValueError, match="boom on 3"):
            parallel_map(_explode_on_three, range(6), config=ParallelConfig(n_jobs=2))

    def test_worker_exception_raised_in_process_too(self):
        with pytest.raises(ValueError, match="boom on 3"):
            parallel_map(_explode_on_three, range(6), config=ParallelConfig.serial())

    def test_abandoned_stream_does_not_hang(self):
        stream = parallel_imap(_square, range(50), config=ParallelConfig(n_jobs=2))
        assert next(stream) == 0
        stream.close()  # must terminate the pool, not wait for 49 tasks

    def test_timeout_error_type_is_catchable(self):
        from repro.utils.errors import ReproError

        assert issubclass(WorkerTimeoutError, ReproError)
