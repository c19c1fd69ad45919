"""Request traces: synthesise, load and replay them against the service.

A trace is a JSONL file — one header record plus one record per
request — that pins down a reproducible serving workload.  Request
records are self-contained: they either reference the synthetic
generator (``generator_seed`` + shape, the compact form
:func:`generate_trace` writes) or inline the raw ``claims`` /
``dependency`` cell arrays, so a trace replays identically on any
machine.

:func:`replay_trace` is the measurement (and verification) harness:
closed-loop replay through an :class:`~repro.serve.EstimationService`
or the per-request serial baseline, reporting throughput, nearest-rank
latency percentiles and — with ``verify=True`` — a bit-for-bit
comparison of every response against the direct fit it stands for.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.em_ext import EMConfig
from repro.core.result import EstimationResult
from repro.data.dense import DenseProblem
from repro.serve.request import (
    PATH_SERIAL,
    EstimationRequest,
    EstimationResponse,
    error_response,
    ok_response,
)
from repro.serve.service import EstimationService, ServiceConfig, fit_request
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import DataError, ValidationError

#: Schema tag of the trace JSONL header record.
SERVE_TRACE_SCHEMA = "repro.serve-trace/v1"

#: Replay modes.
MODE_BATCHED = "batched"
MODE_SERIAL = "serial"


def generate_trace(
    path: str,
    *,
    n_requests: int = 200,
    seed: int = 0,
    n_sources: int = 20,
    n_assertions: int = 50,
    distinct_problems: Optional[int] = None,
    algorithm: str = "em-ext",
    init_strategy: str = "random",
    n_restarts: int = 1,
    timeout_seconds: Optional[float] = None,
) -> int:
    """Write a seeded synthetic request trace; returns the request count.

    Problems are Fig. 7-sized by default (``n = 20``, ``m = 50``) and
    referenced by generator seed, so the file stays small no matter the
    request count.  ``distinct_problems`` caps how many different
    problems appear: with fewer distinct problems than requests the
    trace contains exact repeats — same problem, same request seed —
    which is what exercises the service's result cache.  The default
    ``init_strategy="random"`` matters for serving throughput: the
    staged initialisation runs serially per problem in the parent, so
    traces meant to demonstrate micro-batching speedups should not use
    it.
    """
    if n_requests < 1:
        raise ValidationError(f"n_requests must be positive, got {n_requests}")
    distinct = distinct_problems if distinct_problems is not None else n_requests
    if distinct < 1:
        raise ValidationError(
            f"distinct_problems must be positive, got {distinct_problems}"
        )
    em = {"init_strategy": init_strategy, "n_restarts": n_restarts}
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "schema": SERVE_TRACE_SCHEMA,
            "n_requests": n_requests,
            "seed": seed,
        }
        handle.write(json.dumps(header) + "\n")
        for index in range(n_requests):
            variant = index % distinct
            record: Dict[str, object] = {
                "request_id": f"req-{index:05d}",
                "generator_seed": seed * 1000 + variant,
                "n_sources": n_sources,
                "n_assertions": n_assertions,
                "seed": seed + variant,
                "algorithm": algorithm,
            }
            if algorithm == "em-ext":
                record["em"] = em
            if timeout_seconds is not None:
                record["timeout_seconds"] = timeout_seconds
            handle.write(json.dumps(record) + "\n")
    return n_requests


def load_trace(path: str) -> List[EstimationRequest]:
    """Materialise a trace file into request objects.

    Problems referenced by ``generator_seed`` are regenerated through
    the synthetic generator (memoised, so repeated references share one
    materialisation — and hence one content fingerprint); records
    carrying inline ``claims`` / ``dependency`` arrays are wrapped
    directly.
    """
    requests: List[EstimationRequest] = []
    problems: Dict[tuple, DenseProblem] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise DataError(
                    f"{path}:{line_number}: invalid JSON ({error})"
                ) from error
            if "request_id" not in record:
                schema = record.get("schema")
                if schema != SERVE_TRACE_SCHEMA:
                    raise DataError(
                        f"{path}:{line_number}: unsupported trace schema "
                        f"{schema!r} (expected {SERVE_TRACE_SCHEMA!r})"
                    )
                continue
            if "claims" in record:
                problem = DenseProblem.from_arrays(
                    np.asarray(record["claims"], dtype=np.int8),
                    np.asarray(record["dependency"], dtype=np.int8),
                )
            else:
                key = (
                    int(record["generator_seed"]),
                    int(record.get("n_sources", 20)),
                    int(record.get("n_assertions", 50)),
                )
                problem = problems.get(key)
                if problem is None:
                    problem = generate_dataset(
                        GeneratorConfig(
                            n_sources=key[1], n_assertions=key[2]
                        ),
                        seed=key[0],
                    ).problem.without_truth()
                    problems[key] = problem
            config = (
                EMConfig(**record["em"]) if record.get("em") is not None else None
            )
            requests.append(
                EstimationRequest(
                    request_id=str(record["request_id"]),
                    problem=problem,
                    algorithm=str(record.get("algorithm", "em-ext")),
                    config=config,
                    seed=record.get("seed"),
                    timeout_seconds=record.get("timeout_seconds"),
                    warm_start=bool(record.get("warm_start", False)),
                )
            )
    if not requests:
        raise DataError(f"{path}: trace contains no requests")
    return requests


def _bytes_equal(a, b) -> bool:
    """Whether two array-likes share dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def results_bitwise_equal(a, b) -> bool:
    """Whether two results are payload-identical, bit for bit.

    Compares scores, decisions and ``extras`` (where EM and EM-Social
    keep their fitted rates) and — for estimation results — the fitted
    parameters, log-likelihood, convergence report and the
    per-iteration trace through their byte representations, so NaNs
    with matching bit patterns compare equal (two runs of the same
    deterministic code path agree or differ exactly).
    """
    if type(a) is not type(b) or a.algorithm != b.algorithm:
        return False
    if not (
        _bytes_equal(a.scores, b.scores) and _bytes_equal(a.decisions, b.decisions)
    ):
        return False
    if a.extras.keys() != b.extras.keys() or not all(
        _bytes_equal(a.extras[key], b.extras[key]) for key in a.extras
    ):
        return False
    if isinstance(a, EstimationResult):
        if a.converged != b.converged or a.n_iterations != b.n_iterations:
            return False
        if not _bytes_equal(a.log_likelihood, b.log_likelihood):
            return False
        for ours, theirs, names in (
            (a.parameters, b.parameters, ("a", "b", "f", "g", "z")),
            (a.trace, b.trace, ("log_likelihoods", "parameter_deltas")),
        ):
            if (ours is None) != (theirs is None):
                return False
            if ours is not None and not all(
                _bytes_equal(getattr(ours, name), getattr(theirs, name))
                for name in names
            ):
                return False
    return True


def _nearest_rank_ms(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``latencies`` (seconds), in ms."""
    ordered = sorted(latencies)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1] * 1000.0


@dataclass
class ReplayReport:
    """What one trace replay did and how fast it was."""

    mode: str
    n_requests: int
    n_ok: int
    n_errors: int
    wall_seconds: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p99_ms: float
    path_counts: Dict[str, int] = field(default_factory=dict)
    n_verified: int = 0
    n_mismatches: int = 0
    mismatched_ids: List[str] = field(default_factory=list)
    responses: List[EstimationResponse] = field(default_factory=list)

    def summary(self) -> str:
        """One human line for the CLI."""
        paths = ", ".join(
            f"{name}={count}" for name, count in sorted(self.path_counts.items())
        )
        line = (
            f"{self.mode}: {self.n_ok}/{self.n_requests} ok in "
            f"{self.wall_seconds:.3f}s ({self.throughput_rps:.1f} req/s, "
            f"p50 {self.latency_p50_ms:.1f}ms, p99 {self.latency_p99_ms:.1f}ms; "
            f"{paths})"
        )
        if self.n_verified:
            line += (
                f"; verified {self.n_verified} responses, "
                f"{self.n_mismatches} mismatched"
            )
        return line

    def to_row(self) -> Dict[str, object]:
        """JSON-friendly benchmark row (no response payloads)."""
        return {
            "mode": self.mode,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "path_counts": dict(sorted(self.path_counts.items())),
            "n_verified": self.n_verified,
            "n_mismatches": self.n_mismatches,
        }


def replay_trace(
    requests: Sequence[EstimationRequest],
    *,
    mode: str = MODE_BATCHED,
    service_config: Optional[ServiceConfig] = None,
    verify: bool = False,
) -> ReplayReport:
    """Replay ``requests`` closed-loop and measure the service.

    All requests "arrive" at replay start; per-request latency is
    submission-to-answer (queue wait plus service time).  ``"batched"``
    drives an :class:`~repro.serve.EstimationService`;
    ``"serial"`` is the per-request direct-fit baseline the speedup is
    measured against.  ``verify=True`` re-fits every answered request
    directly and compares bit-for-bit (``warm_start`` requests are
    skipped — their starting point is service history, which a cold
    direct fit does not see).
    """
    if mode not in (MODE_BATCHED, MODE_SERIAL):
        raise ValidationError(
            f"mode must be {MODE_BATCHED!r} or {MODE_SERIAL!r}, got {mode!r}"
        )
    started = time.perf_counter()
    if mode == MODE_BATCHED:
        service = EstimationService(service_config)
        responses = service.serve(list(requests))
    else:
        responses = []
        for request in requests:
            fit_started = time.perf_counter()
            try:
                result = fit_request(request)
            except Exception as error:
                responses.append(
                    error_response(
                        request,
                        error,
                        path=PATH_SERIAL,
                        queued_seconds=fit_started - started,
                        service_seconds=time.perf_counter() - fit_started,
                    )
                )
                continue
            responses.append(
                ok_response(
                    request,
                    result,
                    path=PATH_SERIAL,
                    queued_seconds=fit_started - started,
                    service_seconds=time.perf_counter() - fit_started,
                )
            )
    wall = time.perf_counter() - started
    latencies = [response.latency_seconds for response in responses]
    path_counts: Dict[str, int] = {}
    for response in responses:
        path_counts[response.path] = path_counts.get(response.path, 0) + 1
    report = ReplayReport(
        mode=mode,
        n_requests=len(responses),
        n_ok=sum(1 for response in responses if response.ok),
        n_errors=sum(1 for response in responses if not response.ok),
        wall_seconds=wall,
        throughput_rps=len(responses) / wall if wall > 0 else float("inf"),
        latency_p50_ms=_nearest_rank_ms(latencies, 50.0),
        latency_p99_ms=_nearest_rank_ms(latencies, 99.0),
        path_counts=path_counts,
        responses=list(responses),
    )
    if verify:
        by_id = {request.request_id: request for request in requests}
        for response in responses:
            if not response.ok:
                continue
            request = by_id[response.request_id]
            if request.warm_start:
                continue
            report.n_verified += 1
            if not results_bitwise_equal(response.result, fit_request(request)):
                report.n_mismatches += 1
                report.mismatched_ids.append(response.request_id)
    return report


__all__ = [
    "MODE_BATCHED",
    "MODE_SERIAL",
    "SERVE_TRACE_SCHEMA",
    "ReplayReport",
    "generate_trace",
    "load_trace",
    "replay_trace",
    "results_bitwise_equal",
]
