"""Counters, gauges and histogram summaries for the hot paths.

The registry is a plain in-memory accumulator: no locks, no background
threads, no sampling.  Hot paths already *compute* most of what we want
to see — cache probes, dedup ratios, sweep counts, restart tallies —
and then discard it; the registry is where those observations land when
an :func:`repro.observability.observe` session is active.

Design constraints (shared with :mod:`repro.observability.tracing`):

* **stdlib only** — kernels import this module, and kernels must stay
  import-light;
* **bitwise transparent** — recording never touches numerics or RNG
  state, so enabling metrics cannot change any result;
* **pickle-safe** — a :meth:`MetricsRegistry.snapshot` is a plain dict
  of plain scalars, so workers can ship their registries back to the
  parent, which merges them in task order with
  :meth:`MetricsRegistry.merge`.

Histograms are kept as constant-size summaries (count/sum/min/max)
rather than bucketed distributions: enough for rates ("sweeps per
second"), averages ("restarts per fit") and extremes, with O(1) cost
per observation and a trivially associative merge.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Union

Number = Union[int, float]

#: Version tag embedded in exported metric documents.
METRICS_SCHEMA = "repro.metrics/v1"


class MetricsRegistry:
    """In-memory counters, gauges and histogram summaries.

    Not thread-safe: the library's execution model is single-threaded
    per process (parallelism is process-based), and each process owns
    its own registry.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, Number] = {}
        self.histograms: Dict[str, Dict[str, Number]] = {}

    # -- recording ---------------------------------------------------------

    def increment(self, name: str, value: Number = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = value

    def observe(self, name: str, value: Number) -> None:
        """Fold ``value`` into histogram summary ``name``."""
        summary = self.histograms.get(name)
        if summary is None:
            self.histograms[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
            return
        summary["count"] += 1
        summary["sum"] += value
        if value < summary["min"]:
            summary["min"] = value
        if value > summary["max"]:
            summary["max"] = value

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> Number:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict copy of the registry, safe to pickle or JSON-dump."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: dict(s) for name, s in self.histograms.items()},
        }

    def merge(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters add, histograms combine their summaries, gauges take
        the snapshot's value (last write wins — callers merge snapshots
        in task order, as they graft worker span trees).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.increment(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, other in snapshot.get("histograms", {}).items():
            summary = self.histograms.get(name)
            if summary is None:
                self.histograms[name] = dict(other)
                continue
            summary["count"] += other["count"]
            summary["sum"] += other["sum"]
            if other["min"] < summary["min"]:
                summary["min"] = other["min"]
            if other["max"] > summary["max"]:
                summary["max"] = other["max"]

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


def metrics_document(snapshot: Mapping[str, Mapping]) -> Dict:
    """Wrap a snapshot in the versioned on-disk metrics document."""
    return {
        "schema": METRICS_SCHEMA,
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            name: dict(s) for name, s in snapshot.get("histograms", {}).items()
        },
    }


def write_metrics_json(path: str, snapshot: Mapping[str, Mapping]) -> None:
    """Write a snapshot to ``path`` as the versioned metrics document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics_document(snapshot), handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "metrics_document",
    "write_metrics_json",
]
