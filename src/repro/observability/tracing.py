"""Structured tracing: lightweight spans with parent/child links.

A :class:`Span` records a named interval on ``time.perf_counter`` plus
free-form attributes and nested children.  A :class:`Tracer` maintains
the open-span stack for one process and guarantees a *single root*: the
synthetic ``"session"`` span opened at construction, closed by
:meth:`Tracer.finish`.

Worker processes run their own tracer and ship their finished span
trees back to the parent (spans are plain picklable dataclasses); the
parent *grafts* them under its current span in task order, the order
a serial run would have opened them.  Grafted spans keep their
originating ``pid``, and because ``perf_counter`` clocks are not
comparable across processes, well-formedness (children nested inside
parent intervals) is only enforced between spans of the same pid —
:func:`validate_span_tree` encodes exactly that contract and is what
the transparency test wall runs against every emitted tree.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.utils.errors import ValidationError

#: Version tag embedded in exported trace documents.
TRACE_SCHEMA = "repro.trace/v1"


@dataclass
class Span:
    """One named interval in a span tree.

    ``start``/``end`` are ``time.perf_counter`` stamps — monotonic and
    high-resolution, but only meaningful relative to other spans with
    the same ``pid``.
    """

    name: str
    start: float
    pid: int
    attributes: Dict = field(default_factory=dict)
    end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def duration_seconds(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict:
        """JSON-ready plain-dict form (recursive)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_seconds": self.duration_seconds,
            "pid": self.pid,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Span":
        return cls(
            name=payload["name"],
            start=payload["start"],
            pid=payload["pid"],
            attributes=dict(payload.get("attributes", {})),
            end=payload.get("end"),
            children=[cls.from_dict(c) for c in payload.get("children", [])],
        )


class Tracer:
    """Open-span stack for one process; guarantees a single root span."""

    __slots__ = ("_root", "_stack")

    def __init__(self, root_name: str = "session") -> None:
        self._root = Span(name=root_name, start=time.perf_counter(), pid=os.getpid())
        self._stack: List[Span] = [self._root]

    @property
    def root(self) -> Span:
        return self._root

    @property
    def current(self) -> Span:
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a child of the current span for the duration of the block."""
        child = Span(
            name=name,
            start=time.perf_counter(),
            pid=os.getpid(),
            attributes=attributes,
        )
        self.current.children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            child.end = time.perf_counter()
            self._stack.pop()

    def graft(self, spans: List[Span]) -> None:
        """Attach finished span trees (e.g. from a worker) under the
        current span, preserving their order."""
        self.current.children.extend(spans)

    def finish(self) -> Span:
        """Close the root span and return it.  Idempotent."""
        if self._root.end is None:
            self._root.end = time.perf_counter()
        return self._root


def validate_span_tree(root: Span) -> List[str]:
    """Structural checks on a finished span tree; returns problem strings.

    Enforced invariants:

    * every span is closed (``end`` set) with a non-negative duration;
    * every span has a non-empty name;
    * a child whose ``pid`` matches its parent's lies inside the
      parent's interval (grafted foreign-pid subtrees carry their own
      clock, so containment is only checked within a pid).

    An empty list means the tree is well-formed.
    """
    problems: List[str] = []

    def visit(span: Span, path: str) -> None:
        if not span.name:
            problems.append(f"{path}: empty span name")
        if span.end is None:
            problems.append(f"{path}: span never closed")
        elif span.end < span.start:
            problems.append(
                f"{path}: negative duration ({span.end - span.start:g}s)"
            )
        for index, child in enumerate(span.children):
            child_path = f"{path}/{child.name or '?'}[{index}]"
            if (
                child.pid == span.pid
                and span.end is not None
                and child.end is not None
            ):
                if child.start < span.start or child.end > span.end:
                    problems.append(
                        f"{child_path}: not contained in parent interval"
                    )
            visit(child, child_path)

    visit(root, root.name or "?")
    return problems


def trace_document(root: Span) -> Dict:
    """Wrap a finished span tree in the versioned on-disk trace document."""
    if root.end is None:
        raise ValidationError("cannot export an unfinished span tree")
    return {"schema": TRACE_SCHEMA, "root": root.to_dict()}


def write_trace_json(path: str, root: Span) -> None:
    """Write a finished span tree to ``path`` as the trace document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace_document(root), handle, indent=2)
        handle.write("\n")


__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "Tracer",
    "trace_document",
    "validate_span_tree",
    "write_trace_json",
]
