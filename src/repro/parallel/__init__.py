"""Process-based parallel execution layer.

The paper's evaluation is embarrassingly parallel three times over:
Section V-B sweeps hundreds of Monte-Carlo trials per parameter point,
and Algorithm 1 runs one Gibbs chain per distinct dependency column.
This package fans both out across worker processes under one
configuration object,
without giving up the library's determinism guarantee:

* :mod:`repro.parallel.config` — :class:`ParallelConfig`
  (``n_jobs`` / ``backend`` / ``chunk_size`` / ``start_method`` /
  ``timeout_seconds``);
* :mod:`repro.parallel.executor` — :func:`parallel_imap` /
  :func:`parallel_map`, the ordered streaming fan-out with worker-fault
  propagation and a pool-killing timeout guard;
* :mod:`repro.parallel.merge` — merging per-worker failure ledgers and
  telemetry event streams back into the parent in serial order.

**Determinism contract.**  Every parallel entry point draws its random
numbers in the *parent*, in the same order as the serial code path
(dataset generation, ``SeedSequence``-derived trial/chain seeds), ships explicit seeds or generators to workers, and consumes
results in task order.  A run with ``n_jobs=8`` is therefore
bit-for-bit identical to ``n_jobs=1`` — pinned by
``tests/parallel/test_parity.py``.

Entry points: :func:`repro.eval.harness.run_simulation` (``parallel=``),
:func:`repro.bounds.gibbs.gibbs_bound` (``parallel=``), and the CLI's
``--n-jobs`` flag.
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
