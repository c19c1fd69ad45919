"""Graceful degradation ladder over the three bound evaluators.

The library knows three ways to evaluate the fundamental error bound,
spanning a huge cost spectrum:

========  =======================================  =====================
tier      evaluator                                cost
========  =======================================  =====================
exact     :func:`repro.bounds.exact.exact_bound`   ``O(2^{n/2} · n · K)``
gibbs     :func:`repro.bounds.gibbs.gibbs_bound`   sampling run
analytic  :func:`~repro.bounds.analytic.
          bhattacharyya_bounds` (upper bracket)    closed form
========  =======================================  =====================

:func:`bound_cascade` picks the best tier a
:class:`~repro.resilience.supervisor.Deadline` can afford and falls
*down* the ladder when a tier blows its budget
(:class:`~repro.utils.errors.DeadlineExceeded` /
:class:`~repro.utils.errors.MemoryBudgetError`) or fails outright —
the caller always gets a finite bound plus a truthful
:class:`DegradationReport` saying which tier actually ran and why the
better ones did not.

Two properties the chaos suite pins down:

* **transparent when unconstrained** — with no deadline and no faults
  the cascade calls the top tier verbatim (same arguments, same code
  path), so its bound is bit-for-bit the tier's own output;
* **always answers** — the analytic floor sanitises non-finite inputs
  and, as a last resort, returns the prior bound ``min(z, 1-z)``
  (the Bayes risk of ignoring the sources entirely), which is finite
  for every parameter setting the library can construct.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import observability
from repro.bounds.analytic import bhattacharyya_bounds
from repro.bounds.exact import (
    MAX_EXACT_SOURCES,
    BoundResult,
    _unique_columns,
    exact_bound,
)
from repro.bounds.gibbs import GibbsConfig, gibbs_bound
from repro.core.model import SourceParameters
from repro.data.coerce import as_dependency_array
from repro.kernels.enumeration import table_bytes_estimate
from repro.resilience.supervisor import Deadline
from repro.utils.errors import (
    DeadlineExceeded,
    MemoryBudgetError,
    ValidationError,
)
from repro.utils.rng import SeedLike

#: Ladder order, best tier first.
CASCADE_TIERS = ("exact", "gibbs", "analytic")

#: Conservative throughput of the exact tier's meet-in-the-middle kernel,
#: in half-table entries · columns per second, used to predict whether
#: the exact tier fits the remaining wall budget.  The kernel ran at
#: 1.1e7–1.4e7 for n = 16–30 and K = 8–100 on a 2-vCPU VM with 1-thread
#: BLAS.  Deliberately pessimistic — a wrong "too slow" costs accuracy,
#: a wrong "fast enough" costs the whole budget before the cooperative
#: check can fire.
EXACT_ENTRIES_PER_SECOND = 2e6

#: Rate clamp for the sanitised analytic floor.
_ANALYTIC_EPS = 1e-9


def estimate_exact_seconds(n_sources: int, n_columns: int) -> float:
    """Predicted wall cost of the exact tier: ``(2^⌊n/2⌋ + 2^⌈n/2⌉) · K`` entries."""
    half = n_sources // 2
    entries = float(2**half + 2 ** (n_sources - half)) * max(n_columns, 1)
    return entries / EXACT_ENTRIES_PER_SECOND


@dataclass(frozen=True)
class TierAttempt:
    """What happened to one tier of the cascade.

    ``status`` is ``"ok"`` (this tier produced the bound),
    ``"skipped"`` (the cost model ruled it out before it ran) or
    ``"failed"`` (it started and blew its budget or raised).
    ``reason`` is the human-readable why; ``elapsed_seconds`` is the
    wall time the attempt consumed (0 for skips).
    """

    tier: str
    status: str
    reason: str = ""
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class DegradationReport:
    """Truthful record of which cascade tier ran and why.

    Attributes
    ----------
    requested:
        The tier the cascade aimed for (the best tier the problem size
        admits — ``"exact"`` up to :data:`MAX_EXACT_SOURCES` sources,
        ``"gibbs"`` beyond).
    tier:
        The tier that actually produced the returned bound.
    degraded:
        ``True`` when ``tier != requested`` — the caller received a
        looser bound than it asked for.
    attempts:
        One :class:`TierAttempt` per tier considered, ladder order.
    """

    requested: str
    tier: str
    attempts: Tuple[TierAttempt, ...] = field(default_factory=tuple)

    @property
    def degraded(self) -> bool:
        return self.tier != self.requested

    def summary(self) -> str:
        """One-line digest for logs and the CLI."""
        parts = [
            f"{a.tier}={a.status}" + (f" ({a.reason})" if a.reason else "")
            for a in self.attempts
        ]
        return f"tier={self.tier} requested={self.requested}: " + "; ".join(parts)


def _record_attempt(attempts: list, attempt: TierAttempt) -> None:
    """Append a tier attempt and mirror it into the metrics registry.

    The ``cascade.attempts.<tier>.<status>`` counters are incremented
    at exactly the points :class:`TierAttempt` records are created, so
    a :class:`DegradationReport` and the registry can never disagree
    (pinned in ``tests/observability/test_ledger_agreement.py``).
    """
    attempts.append(attempt)
    observability.count(f"cascade.attempts.{attempt.tier}.{attempt.status}")


@dataclass(frozen=True)
class CascadeOutcome:
    """The bound the cascade produced plus its degradation report."""

    bound: BoundResult
    report: DegradationReport


def _sanitised_params(params: SourceParameters) -> SourceParameters:
    """Non-finite rates → 0.5 (uninformative), everything clamped."""

    def clean(values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        arr = np.where(np.isfinite(arr), arr, 0.5)
        return np.clip(arr, _ANALYTIC_EPS, 1.0 - _ANALYTIC_EPS)

    z = params.z if np.isfinite(params.z) else 0.5
    z = float(np.clip(z, _ANALYTIC_EPS, 1.0 - _ANALYTIC_EPS))
    return SourceParameters(
        a=clean(params.a), b=clean(params.b), f=clean(params.f),
        g=clean(params.g), z=z,
    )


def _prior_floor(params: SourceParameters) -> BoundResult:
    """``min(z, 1-z)``: the Bayes risk of ignoring the sources."""
    z = params.z if np.isfinite(params.z) else 0.5
    z = float(np.clip(z, 0.0, 1.0))
    total = min(z, 1.0 - z)
    # Deciding by the prior alone errs entirely on the minority side:
    # z < 0.5 means "always say false", so every error is a missed
    # true assertion (a false negative), and vice versa.
    fp = total if z >= 0.5 else 0.0
    return BoundResult(
        total=total,
        false_positive=fp,
        false_negative=total - fp,
        method="analytic",
    )


def analytic_tier(
    dependency,
    params: SourceParameters,
    *,
    deadline: Optional[Deadline] = None,
    config: Optional[GibbsConfig] = None,
    seed: SeedLike = None,
) -> BoundResult:
    """The cascade's closed-form floor — never raises, always finite.

    Evaluates the Bhattacharyya upper bracket on a sanitised copy of
    the problem (non-finite dependency cells → independent, non-finite
    rates → uninformative 0.5) and falls back to the prior bound
    ``min(z, 1-z)`` when even that fails.  The FP/FN split of the
    bracket is not identified by the closed form, so it is divided
    evenly — the *total* is the quantity the bracket bounds.
    """
    floor = _prior_floor(params)
    try:
        dep = np.asarray(as_dependency_array(dependency), dtype=np.float64)
        dep = (np.where(np.isfinite(dep), dep, 0.0) > 0.5).astype(np.float64)
        _, upper = bhattacharyya_bounds(dep, _sanitised_params(params))
        if not np.isfinite(upper):
            return floor
        total = float(min(upper, floor.total))
        return BoundResult(
            total=total,
            false_positive=total / 2.0,
            false_negative=total / 2.0,
            method="analytic",
        )
    except Exception:
        return floor


def _exact_tier(dependency, params, *, deadline, config, seed):
    return exact_bound(dependency, params, deadline=deadline)


def _gibbs_tier(dependency, params, *, deadline, config, seed):
    return gibbs_bound(
        dependency, params, config=config, seed=seed, deadline=deadline
    )


_DEFAULT_RUNNERS: Dict[str, Callable[..., BoundResult]] = {
    "exact": _exact_tier,
    "gibbs": _gibbs_tier,
    "analytic": analytic_tier,
}


def _problem_size(dependency) -> Tuple[Optional[int], Optional[int], str]:
    """``(n_sources, n_unique_columns, coercion_error)`` for the cost model."""
    try:
        dep = as_dependency_array(dependency)
    except Exception as error:
        return None, None, f"{type(error).__name__}: {error}"
    if dep.ndim == 1:
        return int(dep.shape[0]), 1, ""
    if dep.ndim == 2:
        try:
            unique_cols, _ = _unique_columns(dep)
            return int(dep.shape[0]), int(unique_cols.shape[0]), ""
        except Exception:
            return int(dep.shape[0]), int(dep.shape[1]), ""
    return None, None, f"dependency must be 1-D or 2-D, got {dep.shape}"


def bound_cascade(
    dependency,
    params: SourceParameters,
    *,
    deadline: Optional[Deadline] = None,
    config: Optional[GibbsConfig] = None,
    seed: SeedLike = None,
    runners: Optional[Dict[str, Callable[..., BoundResult]]] = None,
) -> CascadeOutcome:
    """Evaluate the bound at the best tier the budget affords.

    Tier selection is two-stage.  A *cost model* first rules tiers out
    without running them: the exact tier is skipped above
    :data:`MAX_EXACT_SOURCES` sources, when its predicted half-table
    work (:func:`estimate_exact_seconds`) exceeds the remaining wall
    budget, or when its half-table footprint
    (:func:`~repro.kernels.enumeration.table_bytes_estimate`) exceeds
    the deadline's memory budget.  Surviving tiers then *run* under the
    deadline; one that raises
    :class:`~repro.utils.errors.DeadlineExceeded`,
    :class:`~repro.utils.errors.MemoryBudgetError` or any other error
    is recorded as failed and the cascade falls to the next tier.  The
    analytic floor cannot fail, so the cascade always returns a finite
    bound.

    With no deadline and no faults the selected tier runs verbatim —
    same function, same arguments — so the cascade is bit-for-bit
    transparent (property-tested in ``tests/resilience``).

    ``runners`` overrides individual tier evaluators (chaos tests
    inject faulty tiers this way); unlisted tiers keep their defaults.

    Returns a :class:`CascadeOutcome`; ``outcome.report.summary()`` is
    the one-line story of what happened.
    """
    if deadline is not None and not isinstance(deadline, Deadline):
        raise ValidationError(
            f"deadline must be a Deadline or None, got {type(deadline).__name__}"
        )
    tier_runners = dict(_DEFAULT_RUNNERS)
    if runners:
        unknown = set(runners) - set(CASCADE_TIERS)
        if unknown:
            raise ValidationError(
                f"unknown cascade tiers {sorted(unknown)}; "
                f"choose from {list(CASCADE_TIERS)}"
            )
        tier_runners.update(runners)

    n, k, size_error = _problem_size(dependency)
    requested = (
        "exact"
        if n is not None and n <= MAX_EXACT_SOURCES
        else ("gibbs" if n is not None else "analytic")
    )

    attempts: list = []
    with observability.span("bound.cascade", requested=requested):
        for tier in CASCADE_TIERS:
            skip_reason = _skip_reason(tier, n, k, size_error, deadline)
            if skip_reason:
                _record_attempt(
                    attempts,
                    TierAttempt(tier=tier, status="skipped", reason=skip_reason),
                )
                continue
            started = time.monotonic()
            with observability.span("cascade.tier", tier=tier):
                try:
                    bound = tier_runners[tier](
                        dependency, params, deadline=deadline, config=config, seed=seed
                    )
                except DeadlineExceeded as error:
                    _record_attempt(
                        attempts,
                        TierAttempt(
                            tier=tier,
                            status="failed",
                            reason=f"deadline exceeded in {error.context or tier}",
                            elapsed_seconds=time.monotonic() - started,
                        ),
                    )
                    continue
                except MemoryBudgetError as error:
                    _record_attempt(
                        attempts,
                        TierAttempt(
                            tier=tier,
                            status="failed",
                            reason=f"memory budget: {error}",
                            elapsed_seconds=time.monotonic() - started,
                        ),
                    )
                    continue
                except Exception as error:
                    _record_attempt(
                        attempts,
                        TierAttempt(
                            tier=tier,
                            status="failed",
                            reason=f"{type(error).__name__}: {error}",
                            elapsed_seconds=time.monotonic() - started,
                        ),
                    )
                    continue
            elapsed = time.monotonic() - started
            if not np.isfinite(bound.total):
                _record_attempt(
                    attempts,
                    TierAttempt(
                        tier=tier,
                        status="failed",
                        reason=f"non-finite bound {bound.total!r}",
                        elapsed_seconds=elapsed,
                    ),
                )
                continue
            _record_attempt(
                attempts, TierAttempt(tier=tier, status="ok", elapsed_seconds=elapsed)
            )
            return CascadeOutcome(
                bound=bound,
                report=DegradationReport(
                    requested=requested, tier=tier, attempts=tuple(attempts)
                ),
            )

        # Every tier failed — even the sanitised analytic runner
        # (possible only via an injected runner).  Fall back to the
        # prior floor so the cascade keeps its always-answers contract.
        bound = _prior_floor(params)
        _record_attempt(
            attempts,
            TierAttempt(
                tier="analytic", status="ok", reason="prior floor min(z, 1-z)"
            ),
        )
        return CascadeOutcome(
            bound=bound,
            report=DegradationReport(
                requested=requested, tier="analytic", attempts=tuple(attempts)
            ),
        )


def _skip_reason(
    tier: str,
    n: Optional[int],
    k: Optional[int],
    size_error: str,
    deadline: Optional[Deadline],
) -> str:
    """Why the cost model rules ``tier`` out before running it ('' = run)."""
    if tier == "analytic":
        return ""
    if size_error:
        return f"input coercion failed ({size_error})"
    if deadline is not None and deadline.expired():
        return "no wall budget remaining"
    if tier == "exact":
        assert n is not None and k is not None
        if n > MAX_EXACT_SOURCES:
            return f"{n} sources exceeds MAX_EXACT_SOURCES={MAX_EXACT_SOURCES}"
        if deadline is not None:
            predicted = estimate_exact_seconds(n, k)
            if predicted > deadline.remaining():
                return (
                    f"predicted {predicted:.1f}s exceeds remaining "
                    f"{deadline.remaining():.1f}s budget"
                )
            if deadline.memory_bytes is not None:
                needed = table_bytes_estimate(n, k)
                if needed > deadline.memory_bytes:
                    return (
                        f"half tables need ~{needed / 1e6:.0f} MB but memory "
                        f"budget is {deadline.memory_bytes / 1e6:.0f} MB"
                    )
    return ""


__all__ = [
    "CASCADE_TIERS",
    "CascadeOutcome",
    "DegradationReport",
    "EXACT_ENTRIES_PER_SECOND",
    "TierAttempt",
    "analytic_tier",
    "bound_cascade",
    "estimate_exact_seconds",
]
