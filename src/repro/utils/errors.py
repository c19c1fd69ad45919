"""Exception hierarchy for the :mod:`repro` library.

Every exception raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch library failures with
a single ``except`` clause while still distinguishing validation
problems from numerical ones.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An input failed structural or range validation.

    Inherits from :class:`ValueError` so that generic callers treating
    bad arguments as value errors keep working.
    """


class DataError(ReproError):
    """A dataset or event stream is malformed or internally inconsistent."""


class MemoryBudgetError(ReproError, MemoryError):
    """A requested densification would exceed the configured memory budget.

    Raised by :meth:`repro.data.CsrProblem.dense_view` (and everything
    routed through :func:`repro.data.coerce_problem`) *before* any large
    allocation happens, instead of silently materialising multi-GB
    matrices.  Inherits from :class:`MemoryError` so generic callers
    treating memory exhaustion specially keep working.
    """

    def __init__(self, message: str, *, required_bytes: int = 0, budget_bytes: int = 0):
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DeadlineExceeded(ReproError):
    """A supervised computation ran past its cooperative deadline.

    Raised by long-running loops (EM iterations, Gibbs sweeps, the exact
    bound's columns) when a :class:`repro.resilience.supervisor.Deadline`
    expires.  Carries structured partial-progress information so the
    caller — typically :func:`repro.bounds.cascade.bound_cascade` — can
    degrade gracefully instead of losing the work silently.

    Attributes
    ----------
    context:
        Name of the loop that hit the deadline (e.g. ``"gibbs-sweep"``).
    elapsed_seconds / budget_seconds:
        Wall-clock spent vs. the configured budget.
    progress:
        Loop-specific partial-progress payload (iteration counts,
        running estimates, pattern counts, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        context: str = "",
        elapsed_seconds: float = 0.0,
        budget_seconds: float = 0.0,
        progress: dict = None,
    ):
        super().__init__(message)
        self.context = context
        self.elapsed_seconds = elapsed_seconds
        self.budget_seconds = budget_seconds
        self.progress = dict(progress) if progress else {}


class CircuitOpenError(ReproError):
    """A call was refused because its circuit breaker is open.

    Raised (or recorded as a ledger entry) when a
    :class:`repro.resilience.supervisor.CircuitBreaker` has tripped for
    a consistently-failing operation and the cooldown has not elapsed.
    """


class ServiceOverloaded(ReproError):
    """An estimation service refused to admit a request.

    Raised by :meth:`repro.serve.EstimationService.submit` when the
    pending queue is at its configured depth limit — backpressure is
    surfaced to the caller immediately instead of letting the queue
    (and every queued request's latency) grow without bound.

    Attributes
    ----------
    queue_depth / max_queue_depth:
        Pending requests at refusal time vs. the configured limit.
    """

    def __init__(
        self, message: str, *, queue_depth: int = 0, max_queue_depth: int = 0
    ):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth
