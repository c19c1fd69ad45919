"""The in-process estimation service: queue → micro-batcher → lanes.

:class:`EstimationService` is the request-serving surface the ROADMAP's
"heavy traffic" north star calls for, built entirely out of layers the
library already has:

* the **lane engine** (:func:`repro.core.em_ext._batch_lane_outcomes`)
  amortises compatible EM-Ext requests into one stacked tensor pass —
  each lane's answer is bit-for-bit the direct ``fit``;
* the **supervision layer** (PR 7) provides admission control: a
  per-algorithm :class:`~repro.resilience.supervisor.CircuitBreaker`
  refuses requests for algorithms that keep failing, per-request
  :class:`~repro.resilience.supervisor.Deadline` budgets reject
  requests that went stale in the queue, and an optional drain budget
  bounds one drain's wall clock;
* the **observability layer** (PR 8) gets a ``serve.batch.drain`` span
  per drain, a ``serve.request`` span per request, a queue-depth
  gauge, a batch-occupancy histogram and cache hit-rate counters — all
  no-ops unless a session is active.

Contract: every response is *path-transparent* — batched, serial and
cached answers are bit-for-bit what ``EstimationRequest``'s direct fit
would return.  The one opt-in deviation is ``warm_start=True``, where
the response equals a direct fit *with the warm initial parameters*
(service history chooses the starting point; see DESIGN notes in
``docs/ARCHITECTURE.md``).

Timeout semantics are deliberately simple: a request's deadline is
checked once, when the drain picks it up.  A request that expired in
the queue is answered with ``DeadlineExceeded`` without being fitted
(and without poisoning its algorithm's breaker); one that made the cut
runs to completion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import observability
from repro.baselines import ALGORITHM_REGISTRY, make_fact_finder
from repro.core.em_ext import EMExtEstimator, _batch_lane_outcomes
from repro.core.result import FactFindingResult
from repro.resilience.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
)
from repro.serve.batcher import (
    BATCHABLE_ALGORITHM,
    PendingRequest,
    plan_batches,
)
from repro.serve.fingerprint import (
    FingerprintCache,
    problem_fingerprint,
    request_fingerprint,
)
from repro.serve.request import (
    PATH_BATCHED,
    PATH_CACHE,
    PATH_REJECTED,
    PATH_SERIAL,
    EstimationRequest,
    EstimationResponse,
    error_response,
    ok_response,
)
from repro.utils.errors import (
    DeadlineExceeded,
    ServiceOverloaded,
    ValidationError,
)

#: EM-family baselines whose constructors accept ``seed`` (and, for the
#: masked independence pair, ``smoothing``).
_SEEDED_SMOOTHED_ALGORITHMS = ("em", "em-social")
_SEEDED_ALGORITHMS = ("em-pooled",)


@dataclass(frozen=True)
class ServiceConfig:
    """Policy knobs of an :class:`EstimationService`.

    Attributes
    ----------
    max_batch_size:
        Lane budget per micro-batch; larger compatibility groups are
        chunked.
    max_queue_depth:
        Pending requests admitted before :meth:`EstimationService.submit`
        raises :class:`~repro.utils.errors.ServiceOverloaded`.
    default_timeout_seconds:
        Per-request deadline applied when a request does not carry its
        own ``timeout_seconds`` (``None`` = no default).
    drain_budget_seconds:
        Optional wall budget for one :meth:`EstimationService.drain`;
        work that does not fit is answered with ``DeadlineExceeded``
        errors instead of running long.
    breaker:
        Trip/recovery policy of the per-algorithm circuit breakers.
    result_cache_slots:
        LRU capacity of the exact-replay result cache (``0`` disables).
        Cached payloads are shared objects — treat results as
        read-only, as everywhere else in the library.
    warm_cache_slots:
        LRU capacity of the warm-start parameter cache consulted by
        ``warm_start=True`` requests (``0`` disables).
    """

    max_batch_size: int = 32
    max_queue_depth: int = 256
    default_timeout_seconds: Optional[float] = None
    drain_budget_seconds: Optional[float] = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    result_cache_slots: int = 256
    warm_cache_slots: int = 64

    def __post_init__(self) -> None:
        for name in ("max_batch_size", "max_queue_depth"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        for name in ("default_timeout_seconds", "drain_budget_seconds"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValidationError(
                    f"{name} must be positive or None, got {value!r}"
                )
        for name in ("result_cache_slots", "warm_cache_slots"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )


class EstimationService:
    """Queue estimation requests and drain them through lane packs.

    Examples
    --------
    >>> from repro.serve import EstimationRequest, EstimationService
    >>> from repro.synthetic import generate_dataset
    >>> service = EstimationService()
    >>> problem = generate_dataset(seed=7).problem.without_truth()
    >>> service.submit(EstimationRequest("req-1", problem, seed=0))
    >>> [r.status for r in service.drain()]
    ['ok']
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._queue: List[PendingRequest] = []
        self._next_position = 0
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._result_cache = (
            FingerprintCache(
                self.config.result_cache_slots, metric_prefix="serve.cache"
            )
            if self.config.result_cache_slots
            else None
        )
        self._warm_cache = (
            FingerprintCache(
                self.config.warm_cache_slots, metric_prefix="serve.warm"
            )
            if self.config.warm_cache_slots
            else None
        )
        self.n_submitted = 0
        self.n_completed = 0
        self.n_rejected = 0
        self.n_batched = 0
        self.n_serial = 0
        self.n_cache_hits = 0

    # -- admission ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests waiting for the next drain."""
        return len(self._queue)

    def submit(self, request: EstimationRequest) -> None:
        """Queue one request, or refuse it loudly.

        Raises :class:`~repro.utils.errors.ServiceOverloaded` when the
        queue is at ``max_queue_depth`` — backpressure surfaces at the
        door instead of inflating every queued request's latency — and
        :class:`~repro.utils.errors.ValidationError` for an unknown
        algorithm (that is a usage error, not a runtime fault, so it
        never reaches the algorithm's breaker).
        """
        if request.algorithm not in ALGORITHM_REGISTRY:
            raise ValidationError(
                f"unknown algorithm {request.algorithm!r}; available: "
                f"{sorted(ALGORITHM_REGISTRY)}"
            )
        if len(self._queue) >= self.config.max_queue_depth:
            observability.count("serve.overloaded")
            raise ServiceOverloaded(
                f"queue is full ({len(self._queue)} pending, limit "
                f"{self.config.max_queue_depth}); drain before submitting more",
                queue_depth=len(self._queue),
                max_queue_depth=self.config.max_queue_depth,
            )
        timeout = (
            request.timeout_seconds
            if request.timeout_seconds is not None
            else self.config.default_timeout_seconds
        )
        self._queue.append(
            PendingRequest(
                request=request,
                position=self._next_position,
                submitted_at=time.monotonic(),
                deadline=Deadline.after(timeout) if timeout is not None else None,
            )
        )
        self._next_position += 1
        self.n_submitted += 1
        observability.count("serve.requests")
        observability.set_gauge("serve.queue.depth", len(self._queue))

    # -- draining ----------------------------------------------------------

    def drain(self) -> List[EstimationResponse]:
        """Answer everything queued, in submission order.

        One drain = one ``serve.batch.drain`` span: admission decisions
        (breaker, staleness, cache) resolve per request, survivors are
        packed by the micro-batcher, packs run as stacked lanes and
        leftovers run serially.  Responses come back ordered by
        submission position no matter which path answered them.
        """
        pending, self._queue = self._queue, []
        observability.set_gauge("serve.queue.depth", 0)
        if not pending:
            return []
        budget = (
            Deadline.after(self.config.drain_budget_seconds)
            if self.config.drain_budget_seconds is not None
            else None
        )
        with observability.span("serve.batch.drain", n_pending=len(pending)):
            drain_start = time.monotonic()
            responses: Dict[int, EstimationResponse] = {}
            to_run: List[PendingRequest] = []
            for item in pending:
                response = self._admit(item, drain_start)
                if response is not None:
                    responses[item.position] = response
                else:
                    to_run.append(item)
            packs, serial = plan_batches(
                to_run, max_batch_size=self.config.max_batch_size
            )
            for pack in packs:
                for position, response in self._run_pack(
                    pack, drain_start, budget
                ):
                    responses[position] = response
            for item, reason in serial:
                observability.count("serve.fallbacks")
                observability.count(f"serve.fallbacks.{reason}")
                responses[item.position] = self._run_serial(
                    item, drain_start, budget
                )
        return [responses[item.position] for item in pending]

    def serve(
        self, requests: Sequence[EstimationRequest]
    ) -> List[EstimationResponse]:
        """Submit-and-drain convenience over an arbitrary request list.

        Drains whenever the queue fills, so the list may exceed
        ``max_queue_depth``; responses match the input order.
        """
        responses: List[EstimationResponse] = []
        for request in requests:
            try:
                self.submit(request)
            except ServiceOverloaded:
                responses.extend(self.drain())
                self.submit(request)
        responses.extend(self.drain())
        return responses

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-friendly service counters and breaker states."""
        return {
            "queue_depth": self.queue_depth,
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_rejected": self.n_rejected,
            "n_batched": self.n_batched,
            "n_serial": self.n_serial,
            "n_cache_hits": self.n_cache_hits,
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            },
        }

    # -- internals ---------------------------------------------------------

    def _breaker(self, algorithm: str) -> CircuitBreaker:
        breaker = self._breakers.get(algorithm)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker)
            self._breakers[algorithm] = breaker
        return breaker

    def _admit(
        self, item: PendingRequest, drain_start: float
    ) -> Optional[EstimationResponse]:
        """Resolve a request without fitting, if admission can.

        Returns a response for refused (breaker open), stale (deadline
        spent in the queue) and cache-answered requests; ``None`` means
        the request goes on to execution.  Refusals and staleness never
        touch the breaker — the algorithm was not called.
        """
        request = item.request
        queued = max(0.0, drain_start - item.submitted_at)
        breaker = self._breaker(request.algorithm)
        if not breaker.allow():
            with observability.span(
                "serve.request", request_id=request.request_id, path=PATH_REJECTED
            ):
                observability.count("serve.rejected.breaker")
                self.n_rejected += 1
                return error_response(
                    request,
                    breaker.call_refused_error(f"algorithm {request.algorithm!r}"),
                    path=PATH_REJECTED,
                    queued_seconds=queued,
                )
        if item.deadline is not None and item.deadline.expired():
            with observability.span(
                "serve.request", request_id=request.request_id, path=PATH_REJECTED
            ):
                observability.count("serve.rejected.timeout")
                self.n_rejected += 1
                try:
                    item.deadline.check(
                        f"request {request.request_id}", queued_seconds=queued
                    )
                except DeadlineExceeded as error:
                    return error_response(
                        request,
                        error,
                        path=PATH_REJECTED,
                        queued_seconds=queued,
                    )
        if self._result_cache is not None:
            fingerprint = request_fingerprint(request)
            item.extras["fingerprint"] = fingerprint
            if fingerprint is not None:
                cached = self._result_cache.get(fingerprint)
                if cached is not None:
                    with observability.span(
                        "serve.request",
                        request_id=request.request_id,
                        path=PATH_CACHE,
                    ):
                        self.n_cache_hits += 1
                        self.n_completed += 1
                        return ok_response(
                            request,
                            cached,
                            path=PATH_CACHE,
                            queued_seconds=queued,
                        )
        if request.warm_start and self._warm_cache is not None:
            item.warm_parameters = self._warm_cache.get(
                problem_fingerprint(request.problem)
            )
        return None

    def _record_success(
        self, item: PendingRequest, result: FactFindingResult
    ) -> None:
        """Post-fit bookkeeping shared by the batched and serial paths."""
        self._breaker(item.request.algorithm).record_success()
        self.n_completed += 1
        fingerprint = item.extras.get("fingerprint")
        if self._result_cache is not None and fingerprint is not None:
            self._result_cache.put(fingerprint, result)
        parameters = getattr(result, "parameters", None)
        if (
            self._warm_cache is not None
            and item.request.algorithm == BATCHABLE_ALGORITHM
            and parameters is not None
        ):
            self._warm_cache.put(
                problem_fingerprint(item.request.problem), parameters
            )

    def _run_pack(
        self,
        pack: List[PendingRequest],
        drain_start: float,
        budget: Optional[Deadline],
    ) -> List[Tuple[int, EstimationResponse]]:
        """Run one compatibility group as stacked lanes of a tensor pass."""
        observability.observe_value("serve.batch.occupancy", float(len(pack)))
        config = pack[0].request.effective_config
        started = time.monotonic()
        try:
            outcomes = _batch_lane_outcomes(
                [item.request.problem for item in pack],
                [item.request.seed for item in pack],
                config,
                initial_parameters=[item.warm_parameters for item in pack],
                budget=budget,
            )
        except DeadlineExceeded as error:
            # The drain budget cut the whole pack; the algorithm did
            # nothing wrong, so breakers are left alone.
            observability.count("serve.drain_budget_exhausted")
            elapsed = time.monotonic() - started
            return [
                (
                    item.position,
                    error_response(
                        item.request,
                        error,
                        path=PATH_BATCHED,
                        queued_seconds=max(0.0, drain_start - item.submitted_at),
                        service_seconds=elapsed,
                    ),
                )
                for item in pack
            ]
        elapsed = time.monotonic() - started
        self.n_batched += len(pack)
        observability.count("serve.batched", len(pack))
        answered: List[Tuple[int, EstimationResponse]] = []
        for item, (result, error) in zip(pack, outcomes):
            queued = max(0.0, drain_start - item.submitted_at)
            with observability.span(
                "serve.request",
                request_id=item.request.request_id,
                path=PATH_BATCHED,
                lanes=len(pack),
            ):
                if error is not None:
                    self._breaker(item.request.algorithm).record_failure()
                    response = error_response(
                        item.request,
                        error,
                        path=PATH_BATCHED,
                        queued_seconds=queued,
                        service_seconds=elapsed,
                    )
                else:
                    assert result is not None
                    self._record_success(item, result)
                    response = ok_response(
                        item.request,
                        result,
                        path=PATH_BATCHED,
                        queued_seconds=queued,
                        service_seconds=elapsed,
                    )
            answered.append((item.position, response))
        return answered

    def _run_serial(
        self,
        item: PendingRequest,
        drain_start: float,
        budget: Optional[Deadline],
    ) -> EstimationResponse:
        """Fit one request directly — the fallback (and reference) path."""
        request = item.request
        queued = max(0.0, drain_start - item.submitted_at)
        self.n_serial += 1
        with observability.span(
            "serve.request", request_id=request.request_id, path=PATH_SERIAL
        ):
            started = time.monotonic()
            if budget is not None and budget.expired():
                observability.count("serve.drain_budget_exhausted")
                try:
                    budget.check("serve.drain", request_id=request.request_id)
                except DeadlineExceeded as error:
                    return error_response(
                        request,
                        error,
                        path=PATH_SERIAL,
                        queued_seconds=queued,
                    )
            try:
                result = fit_request(
                    request, initial_parameters=item.warm_parameters
                )
            except Exception as error:  # mirrored, not raised: fault isolation
                self._breaker(request.algorithm).record_failure()
                return error_response(
                    request,
                    error,
                    path=PATH_SERIAL,
                    queued_seconds=queued,
                    service_seconds=time.monotonic() - started,
                )
            self._record_success(item, result)
            return ok_response(
                request,
                result,
                path=PATH_SERIAL,
                queued_seconds=queued,
                service_seconds=time.monotonic() - started,
            )


def fit_request(
    request: EstimationRequest, *, initial_parameters=None
) -> FactFindingResult:
    """The direct fit a request stands for — the service's parity oracle.

    This is the exact construction the service's serial path uses and
    the reference every other path must match bit-for-bit; the trace
    replayer's ``--verify`` mode and the serve test-wall both compare
    against it.  ``initial_parameters`` only applies to EM-Ext (the
    warm-start contract).
    """
    name = request.algorithm
    if name == BATCHABLE_ALGORITHM:
        return EMExtEstimator(
            request.effective_config,
            seed=request.seed,
            initial_parameters=initial_parameters,
        ).fit(request.problem)
    if name in _SEEDED_SMOOTHED_ALGORITHMS:
        kwargs = {"seed": request.seed}
        if request.config is not None:
            kwargs["smoothing"] = request.config.smoothing
        return make_fact_finder(name, **kwargs).fit(request.problem)
    if name in _SEEDED_ALGORITHMS:
        return make_fact_finder(name, seed=request.seed).fit(request.problem)
    return make_fact_finder(name).fit(request.problem)


__all__ = [
    "EstimationService",
    "ServiceConfig",
    "fit_request",
]
