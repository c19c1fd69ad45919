"""Shared estimation engine behind every EM family in the library.

The paper's EM-Ext (Section IV, Equations 9–14) used to be implemented
four separate times — dense, sparse, streaming and the masked
independence baselines — each with its own copy of the M-step ratio,
hierarchical smoothing, initialisation and convergence loop.  This
package is the single implementation they all delegate to.  Every
M-step in it takes its rates from one layout: a ``(…, k, n)`` count
block with one row per rate (``[a, b, f, g]``, or ``[t, b]`` for the
independence model), sources on the last axis and an optional leading
lane axis, divided by one :func:`ratio_update` and clamped once.

* :mod:`repro.engine.statistics` — the Equations 10–14 ratio kernel
  (:func:`ratio_update`: pooled-rate smoothing, empty-partition
  fallback) and the :class:`SufficientStatistics` accumulator of
  ``(4, n)`` count blocks whose decayed form powers the streaming
  estimator;
* :mod:`repro.engine.backends` — one backend per storage format:
  :class:`DenseBackend` (ndarray) and :class:`CSRBackend` (scipy
  sparse), each with one count method and both models' steps (the
  dependency-aware model and the two-parameter independence model over
  the independent cells); :class:`MaskedDenseBackend` adapts the dense
  independence model to the EM / EM-Social baselines' cell masks;
* :mod:`repro.engine.initialisation` — the ``support`` / ``staged`` /
  ``random`` warm starts, written once and parameterised by backend;
* :mod:`repro.engine.driver` — the generic :class:`EMDriver` owning
  restarts, tolerance/max-iteration convergence and
  :class:`~repro.core.model.ParameterTrace` recording; the trace, the
  :class:`RunHealth` report and the ``em.*`` observability counters are
  a fit's one record of its iterations.

* :mod:`repro.engine.batched` — the lane engine: many same-shape EM
  runs as one ``(B, n, m)`` tensor pass (:class:`BatchedDenseBackend`,
  :func:`run_batched_lanes`), with ``(B, 4, n)`` rate blocks,
  bit-for-bit each lane's serial run.  Its one front end is the lane
  planner behind :func:`repro.core.fit_em_ext_batch`, batched
  restarts, harness trial packs and the serving layer.
"""

from repro.engine.backends import (
    CSRBackend,
    DenseBackend,
    MaskedDenseBackend,
    make_backend,
)
from repro.engine.batched import (
    BatchedDenseBackend,
    BatchedLaneResult,
    BatchedSourceParameters,
    run_batched_lanes,
)
from repro.engine.driver import DriverOutcome, EMDriver
from repro.engine.health import (
    FAILED_STATUSES,
    RESTART_STATUSES,
    RestartReport,
    RunHealth,
)
from repro.engine.initialisation import (
    staged_initialisation,
    support_initialisation,
    support_posterior,
)
from repro.engine.statistics import SufficientStatistics, ratio_update
from repro.parallel.config import ParallelConfig

__all__ = [
    "BatchedDenseBackend",
    "BatchedLaneResult",
    "BatchedSourceParameters",
    "CSRBackend",
    "DenseBackend",
    "DriverOutcome",
    "EMDriver",
    "FAILED_STATUSES",
    "MaskedDenseBackend",
    "ParallelConfig",
    "RESTART_STATUSES",
    "RestartReport",
    "RunHealth",
    "SufficientStatistics",
    "make_backend",
    "ratio_update",
    "run_batched_lanes",
    "staged_initialisation",
    "support_initialisation",
    "support_posterior",
]
