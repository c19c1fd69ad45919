"""Tests for the sparse substrate (problem, EM, extraction)."""

import numpy as np
import pytest

pytest.importorskip("scipy")

from repro.core import EMConfig, EMExtEstimator
from repro.datasets import simulate_dataset
from repro.network.dependency import extract_dependency
from repro.sparse import SparseSensingProblem, extract_dependency_sparse
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
    @pytest.mark.parametrize("policy", ["direct", "transitive"])
    def test_matches_dense_extractor(self, policy):
        dataset = simulate_dataset("kirkuk", scale=0.04, seed=3)
        log = dataset.event_log()
        n_assertions = dataset.n_assertions
        dense_claims, dense_dep = extract_dependency(
            log, dataset.graph, n_assertions=n_assertions, policy=policy
        )
        sparse_problem = extract_dependency_sparse(
            log, dataset.graph, n_assertions=n_assertions, policy=policy
        )
        np.testing.assert_array_equal(
            np.asarray(sparse_problem.claims.todense()), dense_claims.values
        )
        np.testing.assert_array_equal(
            np.asarray(sparse_problem.dependency.todense()), dense_dep.values
        )

    def test_validation(self):
        from repro.network import EventLog, FollowGraph, Post

        graph = FollowGraph(1)
        log = EventLog(posts=[Post(post_id=0, source=4, assertion=0, time=1.0)])
        with pytest.raises(ValidationError):
            extract_dependency_sparse(log, graph, n_assertions=1)

    def test_truth_attached(self, tiny_problem):
        from repro.network import EventLog, FollowGraph, Post

        graph = FollowGraph.from_edges(2, [(0, 1)])
        log = EventLog(
            posts=[
                Post(post_id=0, source=1, assertion=0, time=1.0),
                Post(post_id=1, source=0, assertion=0, time=2.0),
            ]
        )
        problem = extract_dependency_sparse(
            log, graph, n_assertions=1, truth=np.array([1])
        )
        assert problem.has_truth
        assert problem.dependency[0, 0] == 1.0
