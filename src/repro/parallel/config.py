"""Configuration of the process-based execution layer.

One :class:`ParallelConfig` describes *how* a fan-out runs — worker
count, backend, chunking, worker start method and the per-result
timeout guard — while the call site
(:func:`repro.eval.harness.run_simulation`) decides *what* is fanned out.

The determinism contract (docs/ARCHITECTURE.md "Parallelism") is
deliberately not configurable: the harness draws its random numbers in
the parent, in the same order as the serial path, and ships explicit
seeds to the workers, so results are bit-for-bit independent of
``n_jobs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.utils.errors import ValidationError
from repro.utils.validation import (
    check_in_choices,
    check_nonnegative_int,
    check_positive_int,
)

#: Backend names.
BACKEND_PROCESS = "process"
BACKEND_SERIAL = "serial"
_BACKENDS = (BACKEND_PROCESS, BACKEND_SERIAL)

#: Worker start methods (``None`` means the platform default).
_START_METHODS = ("fork", "spawn", "forkserver")


def cpu_count() -> int:
    """Usable CPU count (affinity-aware where the platform supports it)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ParallelConfig:
    """How a fan-out executes.

    Attributes
    ----------
    n_jobs:
        Worker process count; ``-1`` means one per available core.
        ``1`` keeps the work in-process (same code path as any other
        job count, minus the pool).
    backend:
        ``"process"`` (worker processes) or ``"serial"`` (in-process
        execution of the *same* fanned-out code path — useful for
        debugging a parallel run without processes in the way).
    chunk_size:
        Tasks handed to a worker per dispatch.  ``1`` (default) gives
        the best load balance for heterogeneous tasks (EM fits whose
        iteration counts differ); raise it when tasks are tiny and
        dispatch overhead dominates.
    start_method:
        ``multiprocessing`` start method, or ``None`` for the platform
        default (``fork`` on Linux).  ``fork`` is required when workers
        must see parent-process state created after import time, e.g.
        algorithms registered with
        :func:`repro.resilience.faults.temporary_algorithm`.
    timeout_seconds:
        Hang guard: a per-chunk *soft deadline*.  Workers heartbeat the
        parent before every task; a chunk whose heartbeat goes silent
        for this long is treated as wedged — the pool is terminated
        (workers killed, not joined), healthy chunks are resubmitted to
        a fresh pool, and the wedged chunk is retried up to
        ``max_resubmits`` times before it surfaces as a
        :class:`~repro.parallel.executor.WorkerTimeoutError` — so a
        wedged worker can never hang the parent.  ``None`` (default)
        disables the guard.
    max_resubmits:
        How many times a wedged chunk is resubmitted to a rebuilt pool
        before it is declared failed.  ``0`` (default) fails a wedged
        chunk on first detection — the historical kill-the-pool
        behaviour.  Only meaningful with ``timeout_seconds`` set.
    """

    n_jobs: int = 1
    backend: str = BACKEND_PROCESS
    chunk_size: int = 1
    start_method: Optional[str] = None
    timeout_seconds: Optional[float] = None
    max_resubmits: int = 0

    def __post_init__(self) -> None:
        if self.n_jobs != -1:
            check_positive_int(self.n_jobs, "n_jobs")
        check_in_choices(self.backend, "backend", _BACKENDS)
        check_positive_int(self.chunk_size, "chunk_size")
        if self.start_method is not None:
            check_in_choices(self.start_method, "start_method", _START_METHODS)
        if self.timeout_seconds is not None and not self.timeout_seconds > 0:
            raise ValidationError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        check_nonnegative_int(self.max_resubmits, "max_resubmits")

    @classmethod
    def serial(cls) -> "ParallelConfig":
        """In-process execution of the fanned-out code path."""
        return cls(n_jobs=1, backend=BACKEND_SERIAL)

    @classmethod
    def processes(
        cls, n_jobs: int = -1, **kwargs
    ) -> "ParallelConfig":
        """Process fan-out across ``n_jobs`` workers (default: all cores)."""
        return cls(n_jobs=n_jobs, backend=BACKEND_PROCESS, **kwargs)

    def resolve_jobs(self) -> int:
        """The concrete worker count (``-1`` resolved to the core count)."""
        return cpu_count() if self.n_jobs == -1 else self.n_jobs

    def effective_jobs(self, n_tasks: int) -> int:
        """Workers actually useful for ``n_tasks`` tasks."""
        if self.backend == BACKEND_SERIAL:
            return 1
        return max(1, min(self.resolve_jobs(), n_tasks))


__all__ = [
    "BACKEND_PROCESS",
    "BACKEND_SERIAL",
    "ParallelConfig",
    "cpu_count",
]
