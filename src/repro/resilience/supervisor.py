"""Deadline-aware supervision: budgets, backoff and circuit breakers.

The paper's machinery spans a huge cost spectrum — the exact bound
enumerates :math:`2^n` dependency patterns while the analytic bound is
closed-form — and a production deployment must keep every request
answerable when the expensive path blows its budget.  This module holds
the three supervision primitives the rest of the library threads
through its long-running loops:

* :class:`Deadline` — a cooperative wall-clock (and optional memory)
  budget.  Loops call :meth:`Deadline.check` at natural yield points
  (EM iterations, Gibbs sweeps, exact-bound columns); an expired
  deadline raises :class:`~repro.utils.errors.DeadlineExceeded`
  carrying structured partial-progress information, never a bare
  timeout.  Memory checks reuse the same accounting as the data
  layer's densification budget (:mod:`repro.data.memory`) and raise
  the same :class:`~repro.utils.errors.MemoryBudgetError`.
* :func:`backoff_delay` — deterministic exponential backoff with
  *seeded* jitter: the delay before retry ``attempt`` is a pure
  function of ``(policy, attempt, seed)``, so retried sweeps remain
  reproducible while still decorrelating their retry storms.
* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine over a sliding failure-rate window.  Deliberately counted in
  *calls*, not wall-clock: a breaker that reopened on a timer would
  make otherwise-deterministic sweeps depend on machine speed.

Nothing here imports the heavy numerical modules; the supervisor is a
leaf that the engine, kernels, bounds and harness all share.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.observability import count
from repro.utils.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    MemoryBudgetError,
    ValidationError,
)

# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class Deadline:
    """A cooperative wall-clock + optional memory budget.

    Construct with the budget in seconds (``None`` disables the
    wall-clock guard, which makes every check a no-op — callers can
    thread one object unconditionally).  The clock starts at
    construction; :meth:`after` is the readable spelling.

    A ``Deadline`` is picklable and meaningful across processes on the
    same machine: ``time.monotonic`` is system-wide on the platforms
    the parallel layer supports, so a worker inherits the parent's
    remaining budget.
    """

    def __init__(
        self,
        seconds: Optional[float] = None,
        *,
        memory_bytes: Optional[int] = None,
    ) -> None:
        if seconds is not None:
            if isinstance(seconds, bool) or not isinstance(
                seconds, (int, float, np.integer, np.floating)
            ):
                raise ValidationError(
                    f"seconds must be a number or None, got {seconds!r}"
                )
            if not seconds > 0:
                raise ValidationError(f"seconds must be positive, got {seconds}")
            seconds = float(seconds)
        if memory_bytes is not None:
            if isinstance(memory_bytes, bool) or not isinstance(
                memory_bytes, (int, np.integer)
            ):
                raise ValidationError(
                    f"memory_bytes must be an integer byte count, got {memory_bytes!r}"
                )
            if memory_bytes <= 0:
                raise ValidationError(
                    f"memory_bytes must be positive, got {memory_bytes}"
                )
            memory_bytes = int(memory_bytes)
        self.budget_seconds = seconds
        self.memory_bytes = memory_bytes
        self.started_at = time.monotonic()

    @classmethod
    def after(
        cls, seconds: Optional[float], *, memory_bytes: Optional[int] = None
    ) -> "Deadline":
        """A deadline expiring ``seconds`` from now."""
        return cls(seconds, memory_bytes=memory_bytes)

    @classmethod
    def unlimited(cls, *, memory_bytes: Optional[int] = None) -> "Deadline":
        """A deadline that never expires (memory budget may still apply)."""
        return cls(None, memory_bytes=memory_bytes)

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return time.monotonic() - self.started_at

    def remaining(self) -> float:
        """Seconds left (``inf`` without a wall budget, floored at 0)."""
        if self.budget_seconds is None:
            return float("inf")
        return max(0.0, self.budget_seconds - self.elapsed())

    def expired(self) -> bool:
        """True once the wall-clock budget is spent."""
        return (
            self.budget_seconds is not None
            and self.elapsed() >= self.budget_seconds
        )

    def check(self, context: str, **progress: Any) -> None:
        """Raise :class:`DeadlineExceeded` if the wall budget is spent.

        ``progress`` keywords become the exception's structured
        partial-progress payload — pass whatever the caller could use
        to salvage the run (iteration counts, running estimates...).
        """
        if self.budget_seconds is None:
            return
        elapsed = self.elapsed()
        if elapsed >= self.budget_seconds:
            raise DeadlineExceeded(
                f"{context} exceeded its {self.budget_seconds:g}s deadline "
                f"(elapsed {elapsed:.3f}s)",
                context=context,
                elapsed_seconds=elapsed,
                budget_seconds=self.budget_seconds,
                progress=progress,
            )

    def check_memory(self, required_bytes: int, context: str) -> None:
        """Raise :class:`MemoryBudgetError` if an allocation won't fit.

        A no-op without a memory budget.  Uses the same exception as
        the data layer's densification guard so callers handle both
        identically.
        """
        if self.memory_bytes is None:
            return
        if required_bytes > self.memory_bytes:
            raise MemoryBudgetError(
                f"{context} needs ~{required_bytes / 1e9:.2f} GB but this "
                f"deadline's memory budget is {self.memory_bytes / 1e9:.2f} GB",
                required_bytes=int(required_bytes),
                budget_bytes=self.memory_bytes,
            )

    def __repr__(self) -> str:
        wall = "∞" if self.budget_seconds is None else f"{self.budget_seconds:g}s"
        mem = (
            "" if self.memory_bytes is None else f", memory={self.memory_bytes}B"
        )
        return f"Deadline({wall}{mem}, elapsed={self.elapsed():.3f}s)"


_TIMESPAN_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h)?\s*$")
_TIMESPAN_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0, None: 1.0}


def parse_timespan(spec: str) -> float:
    """``"5s"`` / ``"250ms"`` / ``"2m"`` / ``"1.5h"`` / ``"30"`` → seconds.

    Bare numbers are seconds.  Used by the CLI's ``--deadline`` flag.
    """
    match = _TIMESPAN_RE.match(str(spec))
    if match is None:
        raise ValidationError(
            f"invalid timespan {spec!r}; use e.g. 500ms, 5s, 2m or 1.5h"
        )
    seconds = float(match.group(1)) * _TIMESPAN_UNITS[match.group(2)]
    if seconds <= 0:
        raise ValidationError(f"timespan must be positive, got {spec!r}")
    return seconds


# ---------------------------------------------------------------------------
# Deterministic exponential backoff
# ---------------------------------------------------------------------------

#: Domain-separation tag for the jitter stream (arbitrary constant).
_JITTER_TAG = 0xB0FF


def backoff_delay(
    attempt: int,
    *,
    base: float,
    factor: float = 2.0,
    max_delay: float = 30.0,
    jitter: float = 0.1,
    seed: int = 0,
) -> float:
    """Delay in seconds before retry ``attempt`` (1-based).

    ``base * factor**(attempt-1)`` capped at ``max_delay``, then
    perturbed by symmetric multiplicative jitter ``±jitter`` drawn from
    a :class:`numpy.random.SeedSequence` keyed on ``(seed, attempt)`` —
    the delay is a pure function of its inputs, so retried runs stay
    bit-reproducible.  ``base <= 0`` disables backoff entirely (the
    historical immediate-retry behaviour).
    """
    if base <= 0:
        return 0.0
    if attempt < 1:
        raise ValidationError(f"attempt must be >= 1, got {attempt}")
    delay = min(float(max_delay), float(base) * float(factor) ** (attempt - 1))
    if jitter:
        sequence = np.random.SeedSequence(
            [abs(int(seed)) & (2**63 - 1), int(attempt), _JITTER_TAG]
        )
        unit = float(np.random.default_rng(sequence).random())
        delay *= 1.0 + float(jitter) * (2.0 * unit - 1.0)
    return max(0.0, delay)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

#: Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Trip/recovery policy of a :class:`CircuitBreaker`.

    Attributes
    ----------
    failure_threshold:
        Failure *rate* over the sliding window at which the breaker
        opens (``0.5`` = half the recent calls failed).
    window:
        Number of recent call outcomes the rate is measured over.
    min_calls:
        Calls observed before the breaker may trip at all — a single
        early failure must not blacklist an algorithm.
    cooldown_calls:
        Refused calls while open before one half-open probe is allowed.
        Counted in calls rather than seconds so a sweep's breaker
        decisions are independent of machine speed.
    """

    failure_threshold: float = 0.5
    window: int = 8
    min_calls: int = 4
    cooldown_calls: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValidationError(
                f"failure_threshold must be in (0, 1], got {self.failure_threshold}"
            )
        for name in ("window", "min_calls", "cooldown_calls"):
            value = getattr(self, name)
            if (
                isinstance(value, (bool, np.bool_))
                or not isinstance(value, (int, np.integer))
                or value < 1
            ):
                raise ValidationError(
                    f"{name} must be a positive integer, got {value!r}"
                )


class CircuitBreaker:
    """Closed → open → half-open failure containment for repeated calls.

    Closed: calls flow, outcomes land in the sliding window; once at
    least ``min_calls`` outcomes are in the window and the failure rate
    reaches ``failure_threshold`` the breaker opens.  Open: calls are
    refused (:meth:`allow` returns ``False``) until ``cooldown_calls``
    refusals have accumulated, then one half-open probe is admitted.
    Half-open: a success closes the breaker and clears the window; a
    failure reopens it and restarts the cooldown.
    """

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self.state = BREAKER_CLOSED
        self._window: deque = deque(maxlen=self.config.window)
        self._refused = 0
        self.n_trips = 0
        self.n_short_circuits = 0

    @property
    def failure_rate(self) -> float:
        """Failure rate over the current window (0 when empty)."""
        if not self._window:
            return 0.0
        return sum(self._window) / len(self._window)

    def allow(self) -> bool:
        """May the next call proceed?  Refusals are counted for cooldown."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_HALF_OPEN:
            # One probe at a time: the sweeps that use breakers are
            # trial-ordered, so the probe's outcome arrives before the
            # next allow() — admitting it keeps the machine simple.
            return True
        self._refused += 1
        if self._refused >= self.config.cooldown_calls:
            self.state = BREAKER_HALF_OPEN
            count("breaker.transitions.half_open")
            return True
        self.n_short_circuits += 1
        count("breaker.short_circuits")
        return False

    def record_success(self) -> None:
        """Record a successful call outcome."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            count("breaker.transitions.closed")
            self._window.clear()
            self._refused = 0
            return
        self._window.append(0)

    def record_failure(self) -> None:
        """Record a failed call outcome; may trip the breaker."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_OPEN
            self._refused = 0
            self.n_trips += 1
            count("breaker.transitions.opened")
            return
        self._window.append(1)
        if (
            self.state == BREAKER_CLOSED
            and len(self._window) >= self.config.min_calls
            and self.failure_rate >= self.config.failure_threshold
        ):
            self.state = BREAKER_OPEN
            self._refused = 0
            self.n_trips += 1
            count("breaker.transitions.opened")

    def call_refused_error(self, context: str) -> CircuitOpenError:
        """A descriptive :class:`CircuitOpenError` for a refused call."""
        return CircuitOpenError(
            f"circuit breaker open for {context}: failure rate "
            f"{self.failure_rate:.0%} over the last {len(self._window)} calls "
            f"(probe after {self.config.cooldown_calls - self._refused} more "
            "refusals)"
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state digest for telemetry."""
        return {
            "state": self.state,
            "failure_rate": self.failure_rate,
            "n_trips": self.n_trips,
            "n_short_circuits": self.n_short_circuits,
        }


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "backoff_delay",
    "parse_timespan",
]
