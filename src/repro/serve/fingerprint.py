"""Content fingerprints and the equality-keyed serving caches.

Two requests carrying structurally identical problems are different
objects, so identity keying would never hit.  The service keys its
caches on *content* instead:

* :func:`problem_fingerprint` digests a problem's storage layout,
  shape and matrix bytes — two problems share a fingerprint iff their
  ``SC``/``D`` cells are byte-identical in the same layout;
* :func:`request_fingerprint` extends that with everything else that
  determines a fit's output (algorithm, EM configuration, seed), so a
  fingerprint hit may replay a cached result *bit-for-bit* in place of
  recomputing it.

A request seeded with a live ``numpy.random.Generator`` has no stable
fingerprint (the generator mutates as it is consumed), and a
``warm_start`` request's output depends on service history; both are
excluded from result caching (:func:`request_fingerprint` returns
``None``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.data.protocol import FORMAT_DENSE, Problem
from repro.observability import count
from repro.utils.validation import check_positive_int

_HASH_SEPARATOR = b"\x00repro.serve\x00"


def _digest(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(_HASH_SEPARATOR)
        digest.update(part if isinstance(part, bytes) else str(part).encode())
    return digest.hexdigest()


def problem_fingerprint(problem: Problem) -> str:
    """A stable content digest of a problem's claim and dependency cells.

    The digest covers the storage format, the shape and the matrix
    bytes (dense: the int8 cell arrays; CSR: the index and data arrays
    of both matrices).  Identifiers and truth labels are deliberately
    excluded — they never influence a fit.  Dense and CSR views of the
    same cells fingerprint differently; coerce first when cross-format
    identity matters.
    """
    parts = [problem.format, problem.n_sources, problem.n_assertions]
    if problem.format == FORMAT_DENSE:
        parts.append(np.ascontiguousarray(problem.claims.values).tobytes())
        parts.append(np.ascontiguousarray(problem.dependency.values).tobytes())
    else:
        for matrix in (problem.claims, problem.dependency):
            parts.append(np.ascontiguousarray(matrix.indptr).tobytes())
            parts.append(np.ascontiguousarray(matrix.indices).tobytes())
            parts.append(np.ascontiguousarray(matrix.data).tobytes())
    return _digest(parts)


def _seed_token(seed) -> Optional[str]:
    """Canonical text of a seed, or ``None`` when it has no stable one."""
    if seed is None:
        return "none"
    if isinstance(seed, (int, np.integer)):
        return f"int:{int(seed)}"
    return None


def request_fingerprint(request) -> Optional[str]:
    """Full digest of a request's fit-determining inputs, if it has one.

    Returns ``None`` for requests whose output is not a pure function
    of the digestible inputs: generator-seeded requests (the generator
    is stateful) and ``warm_start`` requests (the starting point comes
    from service history).
    """
    if request.warm_start:
        return None
    seed_token = _seed_token(request.seed)
    if seed_token is None:
        return None
    return _digest(
        [
            problem_fingerprint(request.problem),
            request.algorithm,
            repr(request.effective_config),
            seed_token,
        ]
    )


class FingerprintCache:
    """Equality-keyed LRU cache with hit/miss counters.

    The serving counterpart of the kernels' identity-keyed LRU: keys
    are fingerprint strings, eviction is least-recently-used, and every
    lookup lands on a ``<metric_prefix>.hits`` / ``.misses`` counter so
    the cache's effectiveness shows up in the metrics snapshot
    alongside the kernel caches'.
    """

    def __init__(
        self, n_slots: int = 256, *, metric_prefix: str = "serve.cache"
    ) -> None:
        check_positive_int(n_slots, "n_slots")
        self._n_slots = int(n_slots)
        self._hits_metric = f"{metric_prefix}.hits"
        self._misses_metric = f"{metric_prefix}.misses"
        self._slots: "OrderedDict[str, object]" = OrderedDict()

    def get(self, key: str):
        """The cached value for ``key``, or ``None`` on a miss."""
        value = self._slots.get(key)
        if value is None:
            count(self._misses_metric)
            return None
        self._slots.move_to_end(key)
        count(self._hits_metric)
        return value

    def put(self, key: str, value) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        self._slots[key] = value
        self._slots.move_to_end(key)
        while len(self._slots) > self._n_slots:
            self._slots.popitem(last=False)

    def __len__(self) -> int:
        return len(self._slots)

    def clear(self) -> None:
        self._slots.clear()


__all__ = [
    "FingerprintCache",
    "problem_fingerprint",
    "request_fingerprint",
]
