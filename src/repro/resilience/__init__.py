"""Fault tolerance for the estimation stack.

The paper models *sources* as unreliable sensors; this package extends
the same stance to the runtime, threading fault tolerance through the
engine, the evaluation harness and the streaming estimator:

* :mod:`repro.engine.health` (re-exported here) — structured
  :class:`RunHealth` reports the :class:`~repro.engine.driver.EMDriver`
  attaches to every multi-restart fit: per-restart status, NaN-safe
  selection, wall-clock budgets, and strict-mode
  :class:`~repro.utils.errors.ConvergenceError`;
* :mod:`repro.resilience.policy` — trial-level failure policies
  (``fail_fast`` / ``skip`` / ``retry`` with deterministic reseeding)
  and the :class:`TrialFailure` ledger
  :func:`~repro.eval.harness.run_simulation` records;
* :mod:`repro.resilience.checkpoint` — atomic checkpoint/resume so a
  300-trial sweep survives interruption and resumes bit-for-bit;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  toolkit (corrupted matrices, byzantine sources, malformed tweet
  streams, flaky backends, chaos fact-finders) behind the
  ``tests/resilience`` chaos suite;
* :mod:`repro.resilience.supervisor` — deadline-aware supervision:
  the cooperative :class:`Deadline` budget threaded through EM
  iterations, Gibbs sweeps and exact-bound columns, deterministic
  exponential backoff for retries, and the call-counted
  :class:`CircuitBreaker` the harness wraps around per-algorithm fits.
"""

from repro.engine.health import (
    FAILED_STATUSES,
    RESTART_STATUSES,
    RestartReport,
    RunHealth,
)
from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
    simulation_fingerprint,
)
from repro.resilience.faults import (
    FaultInjector,
    FlakyBackend,
    InjectedFault,
    NaNLikelihoodBackend,
    chaos_finder,
    temporary_algorithm,
)
from repro.resilience.policy import (
    FailurePolicy,
    TrialFailure,
    retry_seed,
)
from repro.resilience.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    backoff_delay,
    parse_timespan,
)

__all__ = [
    "BreakerConfig",
    "CHECKPOINT_VERSION",
    "CheckpointState",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "FAILED_STATUSES",
    "FailurePolicy",
    "FaultInjector",
    "FlakyBackend",
    "InjectedFault",
    "NaNLikelihoodBackend",
    "RESTART_STATUSES",
    "RestartReport",
    "RunHealth",
    "TrialFailure",
    "backoff_delay",
    "chaos_finder",
    "load_checkpoint",
    "parse_timespan",
    "retry_seed",
    "save_checkpoint",
    "simulation_fingerprint",
    "temporary_algorithm",
]
