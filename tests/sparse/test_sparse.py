"""Tests for CSR problems: the container, EM on it, and the CSR build."""

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("scipy.sparse")

from repro.core import EMConfig, EMExtEstimator
from repro.data import SparseSensingProblem
from repro.datasets import simulate_dataset
from repro.network import EventLog, FollowGraph, Post
from repro.network.dependency import _build_problem
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ValidationError


class TestSparseProblem:
    def test_from_dense_round_trip(self, tiny_problem):
        sparse_problem = SparseSensingProblem.from_dense(tiny_problem)
        assert sparse_problem.n_sources == 3
        assert sparse_problem.n_claims == 4
        dense = sparse_problem.to_dense()
        np.testing.assert_array_equal(dense.claims.values, tiny_problem.claims.values)
        np.testing.assert_array_equal(
            dense.dependency.values, tiny_problem.dependency.values
        )
        np.testing.assert_array_equal(dense.truth, tiny_problem.truth)

    def test_dependent_claim_fraction(self, tiny_problem):
        sparse_problem = SparseSensingProblem.from_dense(tiny_problem)
        assert sparse_problem.dependent_claim_fraction() == pytest.approx(
            tiny_problem.dependent_claim_fraction()
        )

    def test_shape_mismatch(self):
        from scipy import sparse

        with pytest.raises(ValidationError):
            SparseSensingProblem(
                claims=sparse.eye(3, format="csr"),
                dependency=sparse.eye(4, format="csr"),
            )

    def test_non_binary_rejected(self):
        from scipy import sparse

        bad = sparse.csr_matrix(np.array([[2.0, 0.0]]))
        with pytest.raises(ValidationError):
            SparseSensingProblem(claims=bad, dependency=bad * 0)

    def test_truth_validation(self, tiny_problem):
        sparse_problem = SparseSensingProblem.from_dense(tiny_problem)
        with pytest.raises(ValidationError):
            SparseSensingProblem(
                claims=sparse_problem.claims,
                dependency=sparse_problem.dependency,
                truth=np.array([1, 0, 1]),
            )

    def test_without_truth(self, tiny_problem):
        sparse_problem = SparseSensingProblem.from_dense(tiny_problem)
        assert not sparse_problem.without_truth().has_truth


class TestSparseEM:
    def test_matches_dense_estimator(self):
        """Sparse and dense EM agree on decisions and accuracy."""
        dataset = generate_dataset(GeneratorConfig.estimator_defaults(), seed=4)
        dense_blind = dataset.problem.without_truth()
        sparse_blind = SparseSensingProblem.from_dense(dataset.problem).without_truth()
        dense_result = EMExtEstimator(seed=0).fit(dense_blind)
        sparse_result = EMExtEstimator().fit(sparse_blind)
        agreement = (dense_result.decisions == sparse_result.decisions).mean()
        assert agreement > 0.9
        dense_accuracy = (dense_result.decisions == dataset.problem.truth).mean()
        sparse_accuracy = (sparse_result.decisions == dataset.problem.truth).mean()
        assert abs(dense_accuracy - sparse_accuracy) < 0.08

    def test_posteriors_close_to_dense(self):
        dataset = generate_dataset(GeneratorConfig(), seed=9)
        dense_result = EMExtEstimator(seed=0).fit(dataset.problem.without_truth())
        sparse_result = EMExtEstimator().fit(
            SparseSensingProblem.from_dense(dataset.problem).without_truth()
        )
        # Same staged initialisation and update equations → posteriors
        # land on the same fixed point.
        np.testing.assert_allclose(
            sparse_result.scores, dense_result.scores, atol=0.05
        )

    def test_support_init_runs(self, tiny_problem):
        sparse_problem = SparseSensingProblem.from_dense(tiny_problem).without_truth()
        result = EMExtEstimator(EMConfig(init_strategy="support")).fit(sparse_problem)
        assert result.scores.shape == (2,)

    def test_smoothing_supported(self):
        dataset = generate_dataset(GeneratorConfig(), seed=2)
        sparse_blind = SparseSensingProblem.from_dense(dataset.problem).without_truth()
        result = EMExtEstimator(EMConfig(smoothing=1.0)).fit(sparse_blind)
        assert np.isfinite(result.scores).all()

    def test_full_scale_crawl_runs(self):
        """The headline capability: a Table III-scale slice in seconds."""
        dataset = simulate_dataset("ukraine", scale=0.5, seed=0)
        evaluation = dataset.evaluation_slice()
        sparse_blind = SparseSensingProblem.from_dense(
            evaluation.problem
        ).without_truth()
        result = EMExtEstimator(EMConfig(smoothing=1.0, max_iterations=60)).fit(
            sparse_blind
        )
        assert result.scores.shape == (evaluation.n_assertions,)
        assert np.isfinite(result.log_likelihood)


class TestSparseExtraction:
    """The CSR build of a log and a graph (its matrices are pinned
    against the Section II-A oracle in ``tests/network``)."""

    def test_validation(self):
        graph = FollowGraph(1)
        log = EventLog(posts=[Post(post_id=0, source=4, assertion=0, time=1.0)])
        with pytest.raises(ValidationError):
            _build_problem(log, graph, n_assertions=1, output_format="csr")

    def test_truth_attached(self):
        graph = FollowGraph.from_edges(2, [(0, 1)])
        log = EventLog(
            posts=[
                Post(post_id=0, source=1, assertion=0, time=1.0),
                Post(post_id=1, source=0, assertion=0, time=2.0),
            ]
        )
        problem = _build_problem(
            log, graph, n_assertions=1, output_format="csr", truth=np.array([1])
        )
        assert isinstance(problem, SparseSensingProblem)
        assert problem.has_truth
        assert problem.dependency[0, 0] == 1

    def test_csr_build_allocates_less_than_one_dense_matrix(self):
        """The evaluation day of ``examples/full_scale_sparse.py``.

        Given its log and follow graph (rebuilt here as
        ``evaluation_slice`` builds them), the CSR build's peak traced
        allocation stays below one n x m int8 matrix.  The dense build
        of the same log is traced too, so the measurement is shown to
        see an n x m array when one is made.
        """
        dataset = simulate_dataset("ukraine", scale=0.5, seed=11)
        evaluation = dataset.evaluation_slice(output_format="csr")
        tweets = sorted(dataset.evaluation_tweets(), key=lambda t: (t.time, t.tweet_id))
        users = {user: k for k, user in enumerate(sorted({t.user for t in tweets}))}
        assertions = {a: k for k, a in enumerate(sorted({t.assertion for t in tweets}))}
        day_start = dataset.spec.evaluation_offset_days
        log = EventLog(
            posts=[
                Post(
                    post_id=k,
                    source=users[t.user],
                    assertion=assertions[t.assertion],
                    time=t.time - day_start,
                )
                for k, t in enumerate(tweets)
            ]
        )
        graph = FollowGraph(len(users))
        for follower, followee in dataset.graph.edges():
            if follower in users and followee in users:
                graph.add_follow(users[follower], users[followee])
        n, m = len(users), len(assertions)
        assert (n, m) == (1205, 681)

        _build_problem(log, graph, n_assertions=m, output_format="csr")  # warm-up
        tracemalloc.start()
        try:
            problem = _build_problem(log, graph, n_assertions=m, output_format="csr")
            csr_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _build_problem(log, graph, n_assertions=m)
            dense_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (problem.claims != evaluation.problem.claims).nnz == 0
        assert (problem.dependency != evaluation.problem.dependency).nnz == 0
        assert dense_peak >= n * m
        assert csr_peak < n * m
