"""Tests for the EM (IPSN 2012) and EM-Social (IPSN 2014) baselines."""

import numpy as np
import pytest

from repro.baselines import EMIndependent, EMSocial, IndependentParameters
from repro.core import SensingProblem
from repro.engine.backends import MaskedDenseBackend
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ValidationError


class TestIndependentParameters:
    def test_clamp(self):
        params = IndependentParameters(
            t=np.array([0.0, 1.0]), b=np.array([0.5, 0.5]), z=1.0
        ).clamp(0.01)
        assert params.t.min() == pytest.approx(0.01)
        assert params.z == pytest.approx(0.99)

    def test_max_difference(self):
        a = IndependentParameters(t=np.array([0.5]), b=np.array([0.5]), z=0.5)
        b = IndependentParameters(t=np.array([0.9]), b=np.array([0.5]), z=0.5)
        assert a.max_difference(b) == pytest.approx(0.4)


class TestEMIndependent:
    def test_basic_fit(self, synthetic_dataset):
        result = EMIndependent(seed=0).fit(synthetic_dataset.problem.without_truth())
        assert result.algorithm == "em"
        assert ((result.scores >= 0) & (result.scores <= 1)).all()
        assert result.n_iterations >= 1

    def test_deterministic(self, synthetic_dataset):
        blind = synthetic_dataset.problem.without_truth()
        a = EMIndependent(seed=1).fit(blind)
        b = EMIndependent(seed=1).fit(blind)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_recovers_truth_on_rich_data(self):
        dataset = generate_dataset(
            GeneratorConfig(n_sources=40, n_assertions=400, n_trees=40), seed=5
        )
        result = EMIndependent(seed=0).fit(dataset.problem.without_truth())
        assert (result.decisions == dataset.problem.truth).mean() > 0.85

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValidationError):
            EMIndependent(max_iterations=0)
        with pytest.raises(ValidationError):
            EMIndependent(tolerance=0.0)
        with pytest.raises(ValidationError):
            EMIndependent(epsilon=0.6)
        with pytest.raises(ValidationError):
            EMIndependent(n_restarts=0)
        with pytest.raises(ValidationError):
            EMIndependent(init_strategy="bogus")
        with pytest.raises(ValidationError):
            EMIndependent(smoothing=-0.5)

    def test_monotone_likelihood(self, synthetic_dataset):
        result = EMIndependent(init_strategy="random", seed=3).fit(
            synthetic_dataset.problem.without_truth()
        )
        diffs = np.diff(result.trace.log_likelihoods)
        assert (diffs >= -1e-6).all()

    def test_ignores_dependency_matrix(self, synthetic_dataset):
        """EM must give identical output with and without D (it ignores it)."""
        problem = synthetic_dataset.problem
        stripped = SensingProblem.independent(problem.claims.values)
        with_dep = EMIndependent(seed=0).fit(problem.without_truth())
        without_dep = EMIndependent(seed=0).fit(stripped)
        np.testing.assert_allclose(with_dep.scores, without_dep.scores)


class TestMaskedDenseBackend:
    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
    def test_mask_must_be_zero_one(self, value):
        """A fractional mask has no cell model: the steps would disagree on it."""
        mask = np.ones((3, 4))
        mask[1, 2] = value
        with pytest.raises(ValidationError, match="mask"):
            MaskedDenseBackend(np.zeros((3, 4)), mask)

    def test_mask_shape_must_match_claims(self):
        with pytest.raises(ValidationError, match="mask shape"):
            MaskedDenseBackend(np.zeros((3, 4)), np.ones((4, 3)))


class TestEMSocial:
    def test_basic_fit(self, synthetic_dataset):
        result = EMSocial(seed=0).fit(synthetic_dataset.problem.without_truth())
        assert result.algorithm == "em-social"
        assert ((result.scores >= 0) & (result.scores <= 1)).all()

    def test_dependent_cells_do_not_matter(self, synthetic_dataset):
        """Flipping claims inside dependent cells must not change EM-Social."""
        problem = synthetic_dataset.problem
        sc = problem.claims.values.copy()
        dep = problem.dependency.values
        flipped = sc.copy()
        flipped[dep == 1] = 1 - flipped[dep == 1]
        original = EMSocial(seed=0).fit(
            SensingProblem(sc, dep)
        )
        modified = EMSocial(seed=0).fit(SensingProblem(flipped, dep))
        np.testing.assert_allclose(original.scores, modified.scores)

    def test_equals_em_when_no_dependencies(self):
        sc = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
        problem = SensingProblem.independent(sc)
        em = EMIndependent(seed=0).fit(problem)
        social = EMSocial(seed=0).fit(problem)
        np.testing.assert_allclose(em.scores, social.scores)

    def test_fully_dependent_source_is_neutral(self):
        """A source whose every cell is dependent contributes nothing."""
        sc = np.array([[1, 1], [1, 0], [0, 1]])
        dep_without = np.zeros((3, 2), dtype=int)
        dep_with = dep_without.copy()
        dep_with[0, :] = 1  # source 0 fully dependent
        sc_dropped = sc.copy()
        sc_dropped[0, :] = 0
        masked = EMSocial(seed=0).fit(SensingProblem(sc, dep_with))
        # Compare with removing source 0 entirely.
        removed = EMSocial(seed=0).fit(
            SensingProblem(sc[1:], dep_without[1:])
        )
        np.testing.assert_allclose(masked.scores, removed.scores, atol=1e-6)
