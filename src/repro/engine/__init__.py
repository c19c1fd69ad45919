"""Shared estimation engine behind every EM family in the library.

The paper's EM-Ext (Section IV, Equations 9–14) used to be implemented
four separate times — dense, sparse, streaming and the masked
independence baselines — each with its own copy of the M-step ratio,
hierarchical smoothing, initialisation and convergence loop.  This
package is the single implementation they all delegate to:

* :mod:`repro.engine.statistics` — the Equations 10–14 ratio kernel
  (:func:`ratio_update`: pooled-rate smoothing, empty-partition
  fallback) and the :class:`SufficientStatistics` accumulator whose
  decayed form powers the streaming estimator;
* :mod:`repro.engine.backends` — interchangeable computation backends:
  :class:`DenseBackend` (ndarray), :class:`CSRBackend` (scipy sparse)
  and :class:`MaskedDenseBackend` (the two-parameter independence
  model with a cell mask);
* :mod:`repro.engine.initialisation` — the ``support`` / ``staged`` /
  ``random`` warm starts, written once and parameterised by backend;
* :mod:`repro.engine.driver` — the generic :class:`EMDriver` owning
  restarts, tolerance/max-iteration convergence,
  :class:`~repro.core.model.ParameterTrace` recording and
  per-iteration telemetry callbacks (:class:`IterationEvent`,
  :class:`TelemetryRecorder`).

* :mod:`repro.engine.batched` — the lane engine: many same-shape EM
  runs as one ``(B, n, m)`` tensor pass (:class:`BatchedDenseBackend`,
  :func:`run_batched_lanes`), bit-for-bit each lane's serial run.  Its
  one front end is the lane planner behind
  :func:`repro.core.fit_em_ext_batch`, batched restarts, harness trial
  packs and the serving layer.
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
from repro.engine.driver import (
    DriverOutcome,
    EMDriver,
    IterationEvent,
    TelemetryRecorder,
)
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
from repro.engine.statistics import (
    RATE_NAMES,
    SufficientStatistics,
    ratio_update,
)
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
    "IterationEvent",
    "MaskedDenseBackend",
    "ParallelConfig",
    "RATE_NAMES",
    "RESTART_STATUSES",
    "RestartReport",
    "RunHealth",
    "SufficientStatistics",
    "TelemetryRecorder",
    "make_backend",
    "ratio_update",
    "run_batched_lanes",
    "staged_initialisation",
    "support_initialisation",
    "support_posterior",
]
