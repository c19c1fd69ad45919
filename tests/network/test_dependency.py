"""Tests for dependency-indicator extraction (the Figure 1 semantics)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import EventLog, FollowGraph, Post, build_problem, dependency_summary, extract_dependency
from repro.network.dependency import _build_problem
from repro.utils.errors import ValidationError


def _figure1_setup():
    """John (0) follows Sally (1); Heather (2) independent.

    t1: Sally posts Main St (assertion 0); Heather posts University (1).
    t2: John posts Main St.  t3: John posts University.
    """
    graph = FollowGraph.from_edges(3, [(0, 1)])
    log = EventLog(
        posts=[
            Post(post_id=0, source=1, assertion=0, time=1.0),
            Post(post_id=1, source=2, assertion=1, time=1.0),
            Post(post_id=2, source=0, assertion=0, time=2.0),
            Post(post_id=3, source=0, assertion=1, time=3.0),
        ]
    )
    return graph, log


class TestFigure1Example:
    def test_claims(self):
        graph, log = _figure1_setup()
        claims, dependency = extract_dependency(log, graph, n_assertions=2)
        expected_sc = np.array([[1, 1], [1, 0], [0, 1]])
        np.testing.assert_array_equal(claims.values, expected_sc)

    def test_dependency_indicators(self):
        graph, log = _figure1_setup()
        _, dependency = extract_dependency(log, graph, n_assertions=2)
        # D_{1,1} = 1 (paper's indexing): John's Main St claim is
        # dependent; his University claim is not (he doesn't follow
        # Heather); Sally and Heather are independent.
        assert dependency[0, 0] == 1
        assert dependency[0, 1] == 0
        assert dependency[1, 0] == 0
        assert dependency[2, 1] == 0

    def test_non_claim_dependency(self):
        """Sally never posted University; John did, so had Sally posted
        it first the cell would be dependent.  But Sally follows nobody:
        all her non-claims are independent."""
        graph, log = _figure1_setup()
        _, dependency = extract_dependency(log, graph, n_assertions=2)
        assert dependency[1, 1] == 0


class TestPolicies:
    def test_transitive_policy(self):
        """A follows B follows C; C posts; A's later post is dependent
        only under the transitive policy."""
        graph = FollowGraph.from_edges(3, [(0, 1), (1, 2)])
        log = EventLog(
            posts=[
                Post(post_id=0, source=2, assertion=0, time=1.0),
                Post(post_id=1, source=0, assertion=0, time=2.0),
            ]
        )
        _, direct = extract_dependency(log, graph, n_assertions=1, policy="direct")
        _, transitive = extract_dependency(
            log, graph, n_assertions=1, policy="transitive"
        )
        assert direct[0, 0] == 0
        assert transitive[0, 0] == 1

    def test_unknown_policy(self):
        graph, log = _figure1_setup()
        with pytest.raises(ValidationError):
            extract_dependency(log, graph, n_assertions=2, policy="psychic")


class TestTiming:
    def test_simultaneous_report_is_independent(self):
        """Same-time reports are not 'earlier': no dependency."""
        graph = FollowGraph.from_edges(2, [(0, 1)])
        log = EventLog(
            posts=[
                Post(post_id=0, source=1, assertion=0, time=1.0),
                Post(post_id=1, source=0, assertion=0, time=1.0),
            ]
        )
        _, dependency = extract_dependency(log, graph, n_assertions=1)
        assert dependency[0, 0] == 0

    def test_follower_posting_first_is_independent(self):
        graph = FollowGraph.from_edges(2, [(0, 1)])
        log = EventLog(
            posts=[
                Post(post_id=0, source=0, assertion=0, time=1.0),
                Post(post_id=1, source=1, assertion=0, time=2.0),
            ]
        )
        _, dependency = extract_dependency(log, graph, n_assertions=1)
        assert dependency[0, 0] == 0
        # The followee doesn't follow back: also independent.
        assert dependency[1, 0] == 0


class TestValidation:
    def test_log_exceeding_graph(self):
        graph = FollowGraph(1)
        log = EventLog(posts=[Post(post_id=0, source=5, assertion=0, time=1.0)])
        with pytest.raises(ValidationError):
            extract_dependency(log, graph, n_assertions=1)

    def test_log_exceeding_assertions(self):
        graph, log = _figure1_setup()
        with pytest.raises(ValidationError):
            extract_dependency(log, graph, n_assertions=1)

    def test_silent_assertions_get_columns(self):
        graph, log = _figure1_setup()
        claims, dependency = extract_dependency(log, graph, n_assertions=5)
        assert claims.n_assertions == 5
        np.testing.assert_array_equal(claims.values[:, 2:], 0)


class TestHelpers:
    def test_build_problem(self):
        graph, log = _figure1_setup()
        problem = build_problem(log, graph, n_assertions=2, truth=np.array([1, 1]))
        assert problem.has_truth
        assert problem.n_sources == 3

    def test_dependency_summary(self):
        graph, log = _figure1_setup()
        problem = build_problem(log, graph, n_assertions=2)
        summary = dependency_summary(problem)
        assert summary["n_claims"] == 4
        assert summary["n_dependent_claims"] == 1
        assert summary["n_original_claims"] == 3
        assert summary["dependent_claim_fraction"] == pytest.approx(0.25)


# -- the Section II-A oracle ------------------------------------------------------


def oracle_ancestors(n, edges, policy):
    """Each source's ancestors: its followees, closed over follow chains
    under ``"transitive"``; a source is never its own ancestor."""
    followees = [set() for _ in range(n)]
    for follower, followee in edges:
        followees[follower].add(followee)
    sets = []
    for i in range(n):
        found = set(followees[i])
        while policy == "transitive":
            grown = found.union(*(followees[a] for a in found))
            if grown == found:
                break
            found = grown
        sets.append(found - {i})
    return sets


def oracle_matrices(n, m, ancestors, reports):
    """SC and D cell by cell: a claim is dependent when an ancestor made
    the same assertion strictly before the source first did; a silent
    cell is dependent when any ancestor made it at all."""
    first = {}
    for source, assertion, time in reports:
        first[source, assertion] = min(time, first.get((source, assertion), math.inf))
    sc = np.zeros((n, m), dtype=np.int8)
    dep = np.zeros((n, m), dtype=np.int8)
    for i in range(n):
        for j in range(m):
            exposures = [first[a, j] for a in ancestors[i] if (a, j) in first]
            if (i, j) in first:
                sc[i, j] = 1
                dep[i, j] = any(time < first[i, j] for time in exposures)
            else:
                dep[i, j] = len(exposures) > 0
    return sc, dep


@st.composite
def social_logs(draw):
    """A follow graph, cycles allowed, and a log over it: times from a
    small set (ties), repeated reports of a cell, and assertions nobody
    makes.  Zero sources or zero assertions give an empty log."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 4))
    pairs = [(f, e) for f in range(n) for e in range(n) if f != e]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    reports = []
    if n and m:
        report = st.tuples(
            st.integers(0, n - 1), st.integers(0, m - 1), st.integers(0, 3)
        )
        reports = draw(st.lists(report, max_size=12))
    return n, m, edges, reports


class TestSection2AOracle:
    @pytest.mark.parametrize("policy", ["direct", "transitive"])
    @settings(max_examples=150, deadline=None)
    @given(world=social_logs())
    # A tie with the followee is independent; a silent follower is exposed.
    @example(world=(2, 2, [(0, 1)], [(1, 0, 1), (0, 0, 1), (1, 1, 0)]))
    # Only the follower's first report counts: the followee came between.
    @example(world=(2, 1, [(0, 1)], [(0, 0, 0), (1, 0, 1), (0, 0, 2)]))
    # A follow cycle through three sources.
    @example(world=(3, 1, [(0, 1), (1, 2), (2, 0)], [(2, 0, 0), (0, 0, 1)]))
    def test_matches_the_per_cell_loop(self, policy, world):
        n, m, edges, reports = world
        graph = FollowGraph.from_edges(n, edges)
        log = EventLog(
            posts=[
                Post(post_id=k, source=s, assertion=a, time=float(t))
                for k, (s, a, t) in enumerate(reports)
            ]
        )
        ancestors = oracle_ancestors(n, edges, policy)
        transitive = policy == "transitive"
        assert [graph.ancestors(i, transitive=transitive) for i in range(n)] == ancestors
        sc, dep = oracle_matrices(n, m, ancestors, reports)

        claims, dependency = extract_dependency(log, graph, n_assertions=m, policy=policy)
        assert claims.values.dtype == dependency.values.dtype == np.int8
        np.testing.assert_array_equal(claims.values, sc)
        np.testing.assert_array_equal(dependency.values, dep)

        csr = _build_problem(log, graph, n_assertions=m, policy=policy, output_format="csr")
        assert csr.claims.shape == csr.dependency.shape == (n, m)
        np.testing.assert_array_equal(csr.claims.toarray(), sc)
        np.testing.assert_array_equal(csr.dependency.toarray(), dep)
