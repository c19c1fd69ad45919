"""Dependency-indicator extraction (Section II-A, Figure 1).

A claim by source ``i`` on assertion ``j`` is *dependent* when an
ancestor of ``i`` made the same assertion strictly earlier — the
source may merely be repeating what it saw.  For cells where ``i``
never reported ``j`` the library still defines an indicator (the EM
M-step partitions non-claims by dependency, DESIGN.md §5.2): the cell
is dependent when *any* ancestor asserted ``j`` at all, i.e. the source
had the opportunity to repeat and stayed silent.

Two ancestry policies:

* ``"direct"`` (paper's Figure 1) — ancestors are direct followees;
* ``"transitive"`` — ancestors close over follow chains, modelling
  multi-hop exposure through retweet cascades.

One pass computes both matrices from cell lists, never from an
``(n, m)`` array: each claimed cell's first report time, joined to the
ancestor edges, gives each exposed cell's earliest exposure, and a cell
is dependent when it is exposed and silent, or exposed strictly before
its own first report.  :func:`extract_dependency` scatters the cells
into int8 matrices; a CSR build (``output_format="csr"`` of the
pipeline and dataset builders) compresses the same cells directly, so
a crawl-scale problem never allocates a dense matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.csr import CsrProblem
from repro.data.dense import DenseProblem, DependencyMatrix, SourceClaimMatrix
from repro.data.protocol import FORMAT_DENSE, FORMATS, Problem
from repro.network.events import EventLog
from repro.network.graph import FollowGraph
from repro.utils.errors import ValidationError
from repro.utils.validation import check_in_choices

_POLICIES = ("direct", "transitive")


def _first_of_runs(cells: np.ndarray, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each distinct cell once, with its earliest time, sorted by cell."""
    order = np.lexsort((times, cells))
    cells, times = cells[order], times[order]
    first = np.ones(cells.size, dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    return cells[first], times[first]


def _dependency_cells(
    log: EventLog, graph: FollowGraph, n_assertions: int, policy: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted flat indices ``i * n_assertions + j`` of the claims and of D's ones."""
    check_in_choices(policy, "policy", _POLICIES)
    n_sources = graph.n_sources
    count = len(log.posts)
    sources = np.fromiter((p.source for p in log.posts), np.int64, count)
    assertions = np.fromiter((p.assertion for p in log.posts), np.int64, count)
    times = np.fromiter((p.time for p in log.posts), np.float64, count)
    if count and sources.max() >= n_sources:
        raise ValidationError(
            f"log references source {sources.max()} but the graph has "
            f"only {n_sources} sources"
        )
    if count and assertions.max() >= n_assertions:
        raise ValidationError(
            f"log references assertion {assertions.max()} but "
            f"n_assertions={n_assertions}"
        )
    claimed, reported = _first_of_runs(sources * n_assertions + assertions, times)
    claimer, claimed_assertion = np.divmod(claimed, n_assertions)

    # Join the claimed cells to the ancestor edges: an edge (source,
    # ancestor) exposes the source to each of the ancestor's claims.
    claims_of = np.bincount(claimer, minlength=n_sources)
    first_claim = np.cumsum(claims_of) - claims_of  # claimed is row-sorted
    claimers = set(np.flatnonzero(claims_of).tolist())
    transitive = policy == "transitive"
    edge_sources, edge_ancestors = [], []
    for source in range(n_sources):
        exposing = graph.ancestors(source, transitive=transitive) & claimers
        edge_sources += [source] * len(exposing)
        edge_ancestors += exposing
    ancestor = np.array(edge_ancestors, dtype=np.int64)
    width = claims_of[ancestor]
    # Row k of the join copies claimed cell picks[k] to its edge's source.
    offset = np.cumsum(width) - width
    picks = np.repeat(first_claim[ancestor] - offset, width) + np.arange(width.sum())
    rows = np.repeat(np.array(edge_sources, dtype=np.int64), width)
    exposed, exposure = _first_of_runs(
        rows * n_assertions + claimed_assertion[picks], reported[picks]
    )

    # Dependent: exposed strictly before the cell's first report, which
    # is +inf for a silent cell.
    at = np.searchsorted(claimed, exposed)
    own = np.append(reported, np.inf)[at]
    own[np.append(claimed, -1)[at] != exposed] = np.inf
    return claimed, exposed[exposure < own]


def extract_dependency(
    log: EventLog,
    graph: FollowGraph,
    *,
    n_assertions: int,
    policy: str = "direct",
    source_ids: Optional[Sequence[str]] = None,
    assertion_ids: Optional[Sequence[str]] = None,
) -> Tuple[SourceClaimMatrix, DependencyMatrix]:
    """Build ``(SC, D)`` from an event log and a follow graph.

    Returns the source-claim matrix and the full-cell dependency
    indicators.  ``n_assertions`` must be supplied because a log may not
    mention every assertion of the study (silent assertions still occupy
    matrix columns).
    """
    claimed, dependent = _dependency_cells(log, graph, n_assertions, policy)
    claims = np.zeros((graph.n_sources, n_assertions), dtype=np.int8)
    dependency = np.zeros_like(claims)
    claims.reshape(-1)[claimed] = 1
    dependency.reshape(-1)[dependent] = 1
    return (
        SourceClaimMatrix(
            claims, source_ids=source_ids, assertion_ids=assertion_ids
        ),
        DependencyMatrix(dependency),
    )


def _build_problem(
    log: EventLog,
    graph: FollowGraph,
    *,
    n_assertions: int,
    policy: str = "direct",
    output_format: str = FORMAT_DENSE,
    truth: Optional[np.ndarray] = None,
    source_ids: Optional[Sequence[str]] = None,
    assertion_ids: Optional[Sequence[str]] = None,
) -> Problem:
    """The problem of a log and a graph in ``output_format``.

    The dense build goes through :func:`extract_dependency`; the CSR
    build compresses the same cells without an ``(n, m)`` array.
    """
    check_in_choices(output_format, "output_format", FORMATS)
    if output_format == FORMAT_DENSE:
        claims, dependency = extract_dependency(
            log,
            graph,
            n_assertions=n_assertions,
            policy=policy,
            source_ids=source_ids,
            assertion_ids=assertion_ids,
        )
        return DenseProblem(claims=claims, dependency=dependency, truth=truth)
    from scipy import sparse

    shape = (graph.n_sources, n_assertions)

    def _csr(cells: np.ndarray):
        rows, cols = np.divmod(cells, n_assertions)
        ones = np.ones(cells.size, dtype=np.int8)
        return sparse.csr_matrix((ones, (rows, cols)), shape=shape)

    claimed, dependent = _dependency_cells(log, graph, n_assertions, policy)
    return CsrProblem(
        claims=_csr(claimed),
        dependency=_csr(dependent),
        truth=truth,
        source_ids=source_ids,
        assertion_ids=assertion_ids,
    )


def build_problem(
    log: EventLog,
    graph: FollowGraph,
    *,
    n_assertions: int,
    policy: str = "direct",
    truth: np.ndarray = None,
    source_ids: Optional[Sequence[str]] = None,
    assertion_ids: Optional[Sequence[str]] = None,
) -> DenseProblem:
    """Convenience wrapper: extract matrices and wrap them in a problem."""
    return _build_problem(
        log,
        graph,
        n_assertions=n_assertions,
        policy=policy,
        truth=truth,
        source_ids=source_ids,
        assertion_ids=assertion_ids,
    )


def dependency_summary(problem: Problem) -> dict:
    """Descriptive statistics of the dependency structure of a problem.

    Accepts either storage format; the counting is done on whichever
    representation the problem already holds (no densification).
    """
    if problem.format == FORMAT_DENSE:
        sc = problem.claims.values
        dep = problem.dependency.values
        n_claims = int(sc.sum())
        n_dependent_claims = int((sc & dep).sum())
        dependent_cell_fraction = problem.dependency.dependent_fraction
    else:
        sc = problem.claims
        dep = problem.dependency
        n_claims = int(sc.nnz)
        n_dependent_claims = int(sc.multiply(dep).nnz)
        n_cells = problem.n_sources * problem.n_assertions
        dependent_cell_fraction = float(dep.nnz / n_cells) if n_cells else 0.0
    return {
        "n_sources": problem.n_sources,
        "n_assertions": problem.n_assertions,
        "n_claims": n_claims,
        "n_original_claims": n_claims - n_dependent_claims,
        "n_dependent_claims": n_dependent_claims,
        "dependent_claim_fraction": problem.dependent_claim_fraction(),
        "dependent_cell_fraction": dependent_cell_fraction,
    }


__all__ = ["build_problem", "dependency_summary", "extract_dependency"]
