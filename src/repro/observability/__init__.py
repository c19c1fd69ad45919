"""Observability: tracing, metrics and profiling hooks — off by default.

The package is a stdlib-only leaf (kernels and the resilience
supervisor import it), organised as:

* :mod:`repro.observability.tracing` — spans, the per-process tracer,
  span-tree validation and JSON export;
* :mod:`repro.observability.metrics` — counters / gauges / histogram
  summaries with snapshot-and-merge for worker replay;
* :mod:`repro.observability.session` — the process-global session and
  the cheap no-op helpers instrumented call sites use;
* :mod:`repro.observability.profiling` — the opt-in cProfile wrapper.

Everything recorded here is *bitwise transparent*: enabling a session
changes no numeric output and no RNG stream, only what gets observed.
The guarantee is pinned by ``tests/observability/test_transparency.py``
and the serial-vs-parallel parity wall in ``tests/parallel/``.
"""

from repro.observability.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    metrics_document,
    write_metrics_json,
)
from repro.observability.profiling import profile_stage
from repro.observability.session import (
    ObservabilitySession,
    active,
    count,
    enabled,
    graft,
    merge_metrics,
    observe,
    observe_value,
    set_gauge,
    span,
)
from repro.observability.tracing import (
    TRACE_SCHEMA,
    Span,
    Tracer,
    trace_document,
    validate_span_tree,
    write_trace_json,
)

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "ObservabilitySession",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "active",
    "count",
    "enabled",
    "graft",
    "merge_metrics",
    "metrics_document",
    "observe",
    "observe_value",
    "profile_stage",
    "set_gauge",
    "span",
    "trace_document",
    "validate_span_tree",
    "write_metrics_json",
    "write_trace_json",
]
