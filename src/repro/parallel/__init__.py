"""Process-based parallel execution layer.

The paper's evaluation is embarrassingly parallel: Section V-B sweeps
hundreds of Monte-Carlo trials per parameter point.  This package fans
the trials out across worker processes under one configuration object,
without giving up the library's determinism guarantee:

* :mod:`repro.parallel.config` — :class:`ParallelConfig`
  (``n_jobs`` / ``backend`` / ``chunk_size`` / ``start_method`` /
  ``timeout_seconds``);
* :mod:`repro.parallel.executor` — :func:`parallel_imap` /
  :func:`parallel_map`, the ordered streaming fan-out with worker-fault
  propagation and a pool-killing timeout guard;
* :mod:`repro.parallel.merge` — merging per-worker failure ledgers and
  telemetry event streams back into the parent in serial order.

**Determinism contract.**  The harness draws every random number in
the *parent*, in the same order as the serial code path (dataset
generation, ``SeedSequence``-derived trial seeds), ships explicit seeds
to workers, and consumes results in task order.  A run with
``n_jobs=8`` is therefore bit-for-bit identical to ``n_jobs=1`` —
pinned by ``tests/parallel/test_serial_parity.py``.

Entry points: :func:`repro.eval.harness.run_simulation` (``parallel=``)
and ``repro experiment fig7|fig8|fig9|fig10 --n-jobs``.
"""

from repro.parallel.config import ParallelConfig, cpu_count
from repro.parallel.executor import WorkerTimeoutError, parallel_imap, parallel_map
from repro.parallel.merge import merge_counters, merge_ledgers, replay_events

__all__ = [
    "ParallelConfig",
    "WorkerTimeoutError",
    "cpu_count",
    "merge_counters",
    "merge_ledgers",
    "parallel_imap",
    "parallel_map",
    "replay_events",
]
