"""Per-layer attribution for the traced benchmark run.

The benchmark measures the library from outside, so spans are recorded
by wrapping the library's layer boundaries for the length of one traced
run (:func:`patched`) and restoring the originals afterwards.  Each
boundary is patched where its caller looks it up: a function is
replaced in every ``repro`` module that holds it as a global, and a
method is replaced on its class.  Spans stay in memory
(:class:`SpanRecorder`) and are reduced to per-layer self times by
:func:`span_self_times` and :func:`layer_table`.

Boundaries hit more than ~1e5 times per run (Gibbs ``sweep``, the kernel
log-table builders) are not wrapped; their work is read from the
library's own counters instead (see ``run.py``).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Columns of a ``spans.json`` row.
SPAN_FIELDS = ("id", "parent", "name", "layer", "start", "end", "request_id")

#: ``(span name, "module:qualified.name", request argument index or None)``.
#: The layer of a span is the first dotted component of its name, which
#: is the ``src/repro`` package the boundary belongs to.
BOUNDARIES: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("engine.dense.step", "repro.engine.backends:DenseBackend.e_step", None),
    ("engine.dense.step", "repro.engine.backends:DenseBackend.m_step", None),
    ("engine.masked.step", "repro.engine.backends:MaskedDenseBackend.e_step", None),
    ("engine.masked.step", "repro.engine.backends:MaskedDenseBackend.m_step", None),
    ("engine.init", "repro.engine.initialisation:staged_initialisation", None),
    ("engine.init", "repro.engine.initialisation:support_initialisation", None),
    ("engine.driver", "repro.engine.driver:EMDriver.fit", None),
    ("engine.driver", "repro.engine.driver:EMDriver.run", None),
    ("engine.driver", "repro.engine.driver:EMDriver.consume_candidates", None),
    ("engine.batched", "repro.engine.batched:run_batched_lanes", None),
    ("engine.batched", "repro.engine.batched:BatchedDenseBackend.from_backends", None),
    ("kernels.enumeration", "repro.kernels.enumeration:gray_pattern_masses", None),
    ("kernels.dedup", "repro.kernels.dedup:group_columns", None),
    ("bounds.exact", "repro.bounds.exact:exact_bound", None),
    ("bounds.gibbs", "repro.bounds.gibbs:gibbs_bound", None),
    ("synthetic.generate", "repro.synthetic.generator:SyntheticGenerator.generate", None),
    ("core.em_ext", "repro.core.em_ext:EMExtEstimator.fit", None),
    ("core.em_ext", "repro.core.em_ext:_batch_lane_outcomes", None),
    ("baselines.em", "repro.baselines.em_independent:EMIndependent.fit", None),
    ("baselines.em_social", "repro.baselines.em_independent:EMSocial.fit", None),
    ("eval.harness", "repro.eval.harness:run_simulation", None),
    ("serve.submit", "repro.serve.service:EstimationService.submit", 1),
    ("serve.drain", "repro.serve.service:EstimationService.drain", None),
    ("serve.serve", "repro.serve.service:EstimationService.serve", None),
    ("serve.plan", "repro.serve.batcher:plan_batches", None),
    ("serve.fingerprint", "repro.serve.fingerprint:request_fingerprint", 0),
    ("serve.serial_fit", "repro.serve.service:fit_request", 0),
    ("pipeline.apollo", "repro.pipeline.apollo:ApolloPipeline.run", None),
    ("pipeline.ingest", "repro.pipeline.ingest:ingest_tweets", None),
    ("pipeline.cluster", "repro.pipeline.cluster:TokenClusterer.cluster", None),
    ("pipeline.build", "repro.pipeline.build:build_problem_from_clusters", None),
    ("network.dependency", "repro.network.dependency:extract_dependency", None),
    ("data.coerce", "repro.data.coerce:coerce_problem", None),
)


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name's first dotted component."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Records nested spans in memory: one list per span, in open order.

    Every span is ``[id, parent, name, start, end, request_id]`` with
    ``time.perf_counter`` times (seconds).  Nesting follows the call
    stack, so the recorder is for one thread.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str, request_id: Optional[str] = None) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, name, time.perf_counter(), None, request_id]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None) -> Iterator[None]:
        record = self.open(name, request_id)
        try:
            yield
        finally:
            self.close(record)

    def document(self) -> dict:
        """The ``spans.json`` document: field names plus one row per span."""
        rows = [[i, parent, name, layer_of(name), start, end, rid] for i, parent, name, start, end, rid in self.spans]
        return {"fields": list(SPAN_FIELDS), "spans": rows}


def _wrap(function: Callable, name: str, recorder: SpanRecorder, request_arg: Optional[int]):
    if request_arg is None:

        def wrapped(*args, **kwargs):
            record = recorder.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(record)

    else:

        def wrapped(*args, **kwargs):
            request = args[request_arg] if len(args) > request_arg else None
            record = recorder.open(name, getattr(request, "request_id", None))
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(record)

    wrapped.__wrapped__ = function
    return wrapped


@contextmanager
def patched(
    recorder: SpanRecorder,
    boundaries: Sequence[Tuple[str, str, Optional[int]]] = BOUNDARIES,
) -> Iterator[None]:
    """Wrap every boundary in a span for the block, then restore it."""
    undo: List[Callable[[], None]] = []
    try:
        for name, target, request_arg in boundaries:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                undo.append(_patch_method(module, qualname, name, recorder, request_arg))
            else:
                undo.extend(_patch_function(module, qualname, name, recorder, request_arg))
        yield
    finally:
        for restore in reversed(undo):
            restore()


def _patch_method(module, qualname, name, recorder, request_arg) -> Callable[[], None]:
    class_name, attribute = qualname.split(".")
    owner = getattr(module, class_name)
    had_own = attribute in owner.__dict__
    raw = owner.__dict__[attribute] if had_own else getattr(owner, attribute)
    if isinstance(raw, classmethod):
        replacement = classmethod(_wrap(raw.__func__, name, recorder, request_arg))
    else:
        replacement = _wrap(raw, name, recorder, request_arg)
    setattr(owner, attribute, replacement)

    def restore() -> None:
        if had_own:
            setattr(owner, attribute, raw)
        else:  # the method was inherited: drop the shadowing wrapper
            delattr(owner, attribute)

    return restore


def _patch_function(module, attribute, name, recorder, request_arg) -> List[Callable[[], None]]:
    original = getattr(module, attribute)
    replacement = _wrap(original, name, recorder, request_arg)
    undo = []
    for holder in list(sys.modules.values()):
        if not getattr(holder, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, replacement)
                undo.append(lambda holder=holder, key=key: setattr(holder, key, original))
    return undo


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def span_self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    Children may overlap one another (spans of concurrent work); the
    covered part is the union of their intervals clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    return [
        (span[4] - span[3]) - _covered(span[3], span[4], children.get(span[0], []))
        for span in spans
    ]


def layer_table(spans: Sequence[Sequence]) -> dict:
    """Per span name and per layer: calls, total, self seconds and share.

    ``total_s`` sums span durations, so it double-counts a name that
    nests inside itself; ``self_s`` never double-counts.  ``share`` is
    self time over the root span's duration.
    """
    self_times = span_self_times(spans)
    roots = [span for span in spans if span[1] is None]
    root_s = sum(span[4] - span[3] for span in roots) or 1.0
    by_name: Dict[str, Dict[str, float]] = {}
    by_layer: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times):
        for table, key in ((by_name, span[2]), (by_layer, layer_of(span[2]))):
            row = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span[4] - span[3]
            row["self_s"] += own
    for table in (by_name, by_layer):
        for row in table.values():
            row["share"] = row["self_s"] / root_s
    root_self = sum(own for span, own in zip(spans, self_times) if span[1] is None)
    return {
        "root_s": root_s,
        "unattributed_frac": root_self / root_s,
        "layers": dict(sorted(by_layer.items())),
        "spans": dict(sorted(by_name.items())),
    }
