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
  propagation and a pool-killing timeout guard.

**Determinism contract.**  The harness draws every random number in
the *parent*, in the same order as the serial code path (dataset
generation, ``SeedSequence``-derived trial seeds), ships explicit seeds
to workers, and consumes results in task order: the harness extends
its failure ledger and grafts each worker's observability records in
that order.  A run with ``n_jobs=8`` is therefore bit-for-bit
identical to ``n_jobs=1`` — pinned by
``tests/parallel/test_serial_parity.py``.

Entry points: :func:`repro.eval.harness.run_simulation` (``parallel=``)
and ``repro experiment fig7|fig8|fig9|fig10 --n-jobs``.
"""

from repro.parallel.config import ParallelConfig, cpu_count
from repro.parallel.executor import WorkerTimeoutError, parallel_imap, parallel_map

__all__ = [
    "ParallelConfig",
    "WorkerTimeoutError",
    "cpu_count",
    "parallel_imap",
    "parallel_map",
]
