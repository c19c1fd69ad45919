"""The generic EM driver: restarts, convergence, tracing.

:class:`EMDriver` owns the loop every EM family in the library shares
(Algorithm 2's "while {θ} are not convergent"): M-step, parameter
delta, E-step, :class:`~repro.core.model.ParameterTrace` recording,
tolerance/max-iteration convergence and multi-restart selection by
observed-data log likelihood.  The numerical work is delegated to a
backend from :mod:`repro.engine.backends`.

A fit leaves one record of its iterations: the Equation (7) log
likelihood and the parameter delta of each iteration in the result's
trace, each restart's outcome in its :class:`RunHealth`, and the
``em.iterations`` / ``em.restarts`` counters and ``em.run`` / ``em.fit``
spans of an :func:`repro.observability.observe` session.

Run health
----------
The driver guards its own numerics (DESIGN.md treats sources as
unreliable; the runtime gets the same treatment):

* a non-finite log likelihood or parameter delta marks the restart
  *diverged* — the loop stops instead of iterating on garbage;
* a restart whose backend raises is recorded and skipped, not fatal;
* restart selection is NaN-safe: a diverged restart can never shadow a
  later finite one;
* an optional wall-clock budget (``max_wall_seconds``) bounds the whole
  multi-restart fit;
* when *every* restart fails, strict mode raises
  :class:`~repro.utils.errors.ConvergenceError` (with the iteration
  count and last residual); non-strict mode degrades gracefully and
  returns a best-effort outcome carrying a structured
  :class:`~repro.engine.health.RunHealth` report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Tuple

import numpy as np

from repro import observability
from repro.core.model import ParameterTrace
from repro.engine.health import RestartReport, RunHealth
from repro.utils.errors import ConvergenceError, DeadlineExceeded, ValidationError
from repro.utils.rng import RandomState, SeedLike, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.resilience.supervisor import Deadline


@dataclass
class DriverOutcome:
    """Everything one converged (or exhausted) EM run produced."""

    parameters: object
    posterior: np.ndarray
    trace: ParameterTrace
    converged: bool
    diverged: bool = False
    budget_exhausted: bool = False
    health: Optional[RunHealth] = None

    @property
    def n_iterations(self) -> int:
        return self.trace.n_iterations

    @property
    def log_likelihood(self) -> float:
        return (
            self.trace.log_likelihoods[-1]
            if self.trace.n_iterations
            else float("nan")
        )

    @property
    def decisions(self) -> np.ndarray:
        """0.5-threshold truth labels from the posterior."""
        return (self.posterior >= 0.5).astype(np.int8)


class EMDriver:
    """Backend-agnostic EM loop with restarts."""

    def __init__(
        self,
        *,
        max_iterations: int,
        tolerance: float,
        n_restarts: int = 1,
        strict: bool = False,
        max_wall_seconds: Optional[float] = None,
        budget: Optional["Deadline"] = None,
    ) -> None:
        if max_wall_seconds is not None and max_wall_seconds <= 0:
            raise ValidationError(
                f"max_wall_seconds must be positive, got {max_wall_seconds}"
            )
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.n_restarts = n_restarts
        self.strict = strict
        self.max_wall_seconds = max_wall_seconds
        self.budget = budget

    @classmethod
    def from_config(cls, config: Any) -> "EMDriver":
        """Build from an :class:`~repro.core.em_ext.EMConfig`."""
        return cls(
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
            n_restarts=config.n_restarts,
            strict=getattr(config, "strict", False),
            max_wall_seconds=getattr(config, "max_wall_seconds", None),
        )

    def run(
        self, backend: Any, params: Any, *, deadline: Optional[float] = None
    ) -> DriverOutcome:
        """One EM run from ``params`` to a fixed point (or the iteration cap).

        ``deadline`` is an absolute ``time.perf_counter()`` instant; the
        loop stops after the first iteration that finishes past it (the
        run is marked ``budget_exhausted``, never left parameterless).
        A non-finite log likelihood or parameter delta stops the loop
        immediately with ``diverged=True``.

        A driver-level ``budget`` (a supervision
        :class:`~repro.resilience.supervisor.Deadline`) is stricter: it
        is checked cooperatively after every iteration and *raises*
        :class:`~repro.utils.errors.DeadlineExceeded` with the iteration
        count and last residual so supervisors such as
        :func:`repro.bounds.cascade.bound_cascade` can fall back to a
        cheaper tier instead of silently accepting a truncated fit.
        """
        trace = ParameterTrace()
        posterior = backend.posterior(params)
        converged = False
        diverged = False
        budget_exhausted = False
        with observability.span("em.run", max_iterations=self.max_iterations):
            for iteration in range(self.max_iterations):
                new_params = backend.m_step(posterior, params)
                delta = new_params.max_difference(params)
                params = new_params
                posterior, log_likelihood = backend.e_step(params)
                trace.record(log_likelihood, delta)
                observability.count("em.iterations")
                if not (math.isfinite(delta) and math.isfinite(log_likelihood)):
                    diverged = True
                    break
                if delta < self.tolerance:
                    converged = True
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    budget_exhausted = True
                    break
                if self.budget is not None:
                    self.budget.check(
                        "EMDriver.run",
                        iteration=iteration,
                        delta=float(delta),
                        log_likelihood=float(log_likelihood),
                    )
        return DriverOutcome(
            parameters=params,
            posterior=posterior,
            trace=trace,
            converged=converged,
            diverged=diverged,
            budget_exhausted=budget_exhausted,
        )

    def fit(
        self,
        backend: Any,
        initialiser: Callable[[int, np.random.Generator], object],
        seed: SeedLike = None,
    ) -> DriverOutcome:
        """Multi-restart EM; the best *usable* fixed point wins.

        ``initialiser(index, rng)`` produces the starting parameters of
        restart ``index`` (strategy-based for the first, typically
        random for the rest).

        Fault tolerance: a restart that diverges (non-finite numerics)
        or raises — in its initialiser (data-dependent warm starts can
        choke on corrupt input) or inside the EM loop — is recorded in
        the returned
        outcome's :class:`~repro.engine.health.RunHealth` and skipped;
        selection compares only finite log likelihoods, so a diverged
        first restart can never shadow a later usable one.  When every
        restart fails, strict mode raises
        :class:`~repro.utils.errors.ConvergenceError`; otherwise the
        last diverged outcome is returned best-effort (with
        ``converged=False`` and the health report attached).

        Restarts run one after another.  Lane-batched restarts (EM-Ext's
        ``restart_mode="batched"``) do not come through here: they run
        on the shared lane planner,
        :func:`repro.core.em_ext._batch_lane_outcomes`, which feeds its
        lane outcomes to :meth:`consume_candidates`.
        """
        rng = RandomState(seed)
        health = RunHealth()
        deadline = (
            time.perf_counter() + self.max_wall_seconds
            if self.max_wall_seconds is not None
            else None
        )
        candidates = self._serial_candidates(
            backend, initialiser, rng, deadline, health
        )
        return self.consume_candidates(candidates, health)

    def consume_candidates(
        self,
        candidates: Iterator[Tuple[int, Optional[DriverOutcome], Optional[str]]],
        health: Optional[RunHealth] = None,
    ) -> DriverOutcome:
        """Select the best usable outcome from ``(index, candidate, error)`` triples.

        The shared back half of :meth:`fit` — health recording,
        NaN-safe selection, strict-mode escalation — factored out so
        the lane planner (batched restarts, harness trial packs and
        serving) can feed pre-computed lane outcomes through the
        identical selection and reporting path.
        """
        if health is None:
            health = RunHealth()
        best: Optional[DriverOutcome] = None
        best_index = -1
        fallback: Optional[DriverOutcome] = None
        total_iterations = 0
        last_residual = float("nan")
        fit_span = observability.span("em.fit", n_restarts=self.n_restarts)
        fit_span.__enter__()
        n_restarts_run = 0
        try:
            for index, candidate, error in candidates:
                n_restarts_run += 1
                observability.count("em.restarts")
                if error is not None:  # per-restart fault isolation
                    observability.count("em.restarts_failed")
                    health.record(
                        RestartReport(
                            index=index,
                            status="error",
                            n_iterations=0,
                            log_likelihood=float("nan"),
                            error=error,
                        )
                    )
                    continue
                total_iterations += candidate.n_iterations
                deltas = candidate.trace.parameter_deltas
                if len(deltas):
                    last_residual = float(deltas[-1])
                log_likelihood = candidate.log_likelihood
                if candidate.diverged or np.isnan(log_likelihood):
                    health.record(
                        RestartReport(
                            index=index,
                            status="diverged",
                            n_iterations=candidate.n_iterations,
                            log_likelihood=log_likelihood,
                        )
                    )
                    fallback = candidate
                    continue
                if candidate.budget_exhausted:
                    health.budget_exhausted = True
                status = (
                    "converged"
                    if candidate.converged
                    else ("budget" if candidate.budget_exhausted else "exhausted")
                )
                health.record(
                    RestartReport(
                        index=index,
                        status=status,
                        n_iterations=candidate.n_iterations,
                        log_likelihood=log_likelihood,
                    )
                )
                if best is None or log_likelihood > best.log_likelihood:
                    best = candidate
                    best_index = index
        finally:
            observability.observe_value("em.restarts_per_fit", n_restarts_run)
            fit_span.__exit__(None, None, None)
        if best is not None:
            health.selected = best_index
            best.health = health
            return best
        message = (
            f"every EM restart failed ({health.summary()}); "
            "no usable fixed point"
        )
        if self.strict or fallback is None:
            raise ConvergenceError(
                message, iterations=total_iterations, residual=last_residual
            )
        fallback.converged = False
        fallback.health = health
        return fallback

    def _serial_candidates(
        self,
        backend: Any,
        initialiser: Callable[[int, np.random.Generator], object],
        rng: RandomState,
        deadline: Optional[float],
        health: RunHealth,
    ) -> Iterator[Tuple[int, Optional[DriverOutcome], Optional[str]]]:
        """The restart loop: one full :meth:`run` per restart, in order."""
        for index, restart_rng in enumerate(spawn_rngs(rng, self.n_restarts)):
            if deadline is not None and index > 0 and time.perf_counter() >= deadline:
                health.budget_exhausted = True
                return
            try:
                params = initialiser(index, restart_rng)
                candidate = self.run(backend, params, deadline=deadline)
            except DeadlineExceeded:
                # Supervision budgets must reach the supervisor — they
                # are not a per-restart fault to isolate and continue.
                raise
            except Exception as error:
                yield index, None, f"{type(error).__name__}: {error}"
                continue
            yield index, candidate, None


__all__ = [
    "DriverOutcome",
    "EMDriver",
    "RestartReport",
    "RunHealth",
]
