"""Tests for the dense problem containers (`repro.data.dense`), imported from `repro.core`."""

import numpy as np
import pytest

from repro.core import DependencyMatrix, SensingProblem, SourceClaimMatrix
from repro.utils.errors import ValidationError


class TestSourceClaimMatrix:
    def test_basic_shape(self):
        matrix = SourceClaimMatrix(np.array([[1, 0, 1], [0, 0, 1]]))
        assert matrix.shape == (2, 3)
        assert matrix.n_sources == 2
        assert matrix.n_assertions == 3
        assert matrix.n_claims == 3

    def test_density(self):
        matrix = SourceClaimMatrix(np.array([[1, 0], [0, 1]]))
        assert matrix.density == pytest.approx(0.5)

    def test_default_ids(self):
        matrix = SourceClaimMatrix(np.zeros((2, 2), dtype=int))
        assert matrix.source_ids == ["S0", "S1"]
        assert matrix.assertion_ids == ["C0", "C1"]

    def test_custom_ids_validated(self):
        with pytest.raises(ValidationError):
            SourceClaimMatrix(np.zeros((2, 2), dtype=int), source_ids=["a"])
        with pytest.raises(ValidationError):
            SourceClaimMatrix(np.zeros((2, 2), dtype=int), source_ids=["a", "a"])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError):
            SourceClaimMatrix(np.array([[2, 0]]))

    def test_from_claims(self):
        matrix = SourceClaimMatrix.from_claims([(0, 1), (1, 0)], 2, 2)
        assert matrix[0, 1] == 1
        assert matrix[0, 0] == 0

    def test_from_claims_out_of_bounds(self):
        with pytest.raises(ValidationError):
            SourceClaimMatrix.from_claims([(5, 0)], 2, 2)

    def test_counting_helpers(self):
        matrix = SourceClaimMatrix(np.array([[1, 1, 0], [1, 0, 0]]))
        np.testing.assert_array_equal(matrix.claims_per_source(), [2, 1])
        np.testing.assert_array_equal(matrix.claims_per_assertion(), [2, 1, 0])
        np.testing.assert_array_equal(matrix.supporters(0), [0, 1])
        np.testing.assert_array_equal(matrix.silent_assertions(), [2])

    def test_equality(self):
        a = SourceClaimMatrix(np.array([[1, 0]]))
        b = SourceClaimMatrix(np.array([[1, 0]]))
        c = SourceClaimMatrix(np.array([[0, 1]]))
        assert a == b
        assert a != c


class TestDependencyMatrix:
    def test_independent_factory(self):
        dep = DependencyMatrix.independent(3, 4)
        assert dep.shape == (3, 4)
        assert dep.dependent_fraction == 0.0

    def test_dependent_fraction(self):
        dep = DependencyMatrix(np.array([[1, 0], [0, 0]]))
        assert dep.dependent_fraction == pytest.approx(0.25)

    def test_repr_mentions_count(self):
        dep = DependencyMatrix(np.array([[1, 1]]))
        assert "2" in repr(dep)


class TestSensingProblem:
    def test_from_fixture(self, tiny_problem):
        assert tiny_problem.n_sources == 3
        assert tiny_problem.n_assertions == 2
        assert tiny_problem.has_truth

    def test_accepts_raw_arrays(self):
        problem = SensingProblem(np.array([[1, 0]]), np.array([[0, 0]]))
        assert isinstance(problem.claims, SourceClaimMatrix)
        assert isinstance(problem.dependency, DependencyMatrix)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            SensingProblem(np.array([[1, 0]]), np.array([[0, 0], [0, 0]]))

    def test_truth_shape_checked(self):
        with pytest.raises(ValidationError):
            SensingProblem(np.array([[1, 0]]), np.array([[0, 0]]), truth=np.array([1]))

    def test_truth_binary_checked(self):
        with pytest.raises(ValidationError):
            SensingProblem(
                np.array([[1, 0]]), np.array([[0, 0]]), truth=np.array([1, 2])
            )

    def test_without_truth(self, tiny_problem):
        blind = tiny_problem.without_truth()
        assert not blind.has_truth
        assert blind.claims == tiny_problem.claims

    def test_independent_constructor(self):
        problem = SensingProblem.independent(np.array([[1, 1], [0, 1]]))
        assert problem.dependency.dependent_fraction == 0.0

    def test_dependent_claim_fraction(self, tiny_problem):
        # One of four claims is dependent (John's Main St claim).
        assert tiny_problem.dependent_claim_fraction() == pytest.approx(0.25)

    def test_dependent_claim_fraction_empty(self):
        problem = SensingProblem(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int))
        assert problem.dependent_claim_fraction() == 0.0
