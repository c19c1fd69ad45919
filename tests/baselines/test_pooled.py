"""Tests for the pooled (homogeneous) EM ablation baseline."""

import numpy as np
import pytest

from repro.baselines import PooledEMExt, make_fact_finder
from repro.baselines.pooled import _PooledDenseBackend
from repro.core import EMExtEstimator, SensingProblem
from repro.engine.backends import DenseBackend
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ValidationError


class TestConstruction:
    def test_registered(self):
        finder = make_fact_finder("em-pooled")
        assert isinstance(finder, PooledEMExt)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iterations": 0}, {"tolerance": 0.0}, {"epsilon": 0.7}],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            PooledEMExt(**kwargs)


class TestPooledMStep:
    @pytest.mark.parametrize("independent", [False, True])
    def test_m_step_is_the_population_ratio_of_the_dense_count_block(
        self, synthetic_dataset, independent
    ):
        """Each pooled rate is one row of the dense block: Σ numerators / Σ denominators."""
        problem = synthetic_dataset.problem.without_truth()
        if independent:  # the dependent rows have no mass: they fall back to 0.5
            problem = SensingProblem.independent(problem.claims.values)
        epsilon = 1e-3
        backend = _PooledDenseBackend(problem, epsilon=epsilon)
        posterior = np.random.default_rng(5).random(problem.n_assertions)
        got = backend.m_step(posterior, backend.neutral())
        numerators, denominators = DenseBackend(problem).partition_counts(posterior)
        for row, name in enumerate(("a", "b", "f", "g")):
            total = denominators[row].sum()
            rate = numerators[row].sum() / total if total > 0 else 0.5
            rate = min(max(rate, epsilon), 1.0 - epsilon)
            assert np.array_equal(
                getattr(got, name), np.full(problem.n_sources, rate)
            ), name
        assert got.z == min(max(float(posterior.mean()), epsilon), 1.0 - epsilon)


class TestFit:
    def test_parameters_are_homogeneous(self, synthetic_dataset):
        result = PooledEMExt().fit(synthetic_dataset.problem.without_truth())
        params = result.parameters
        for name in ("a", "b", "f", "g"):
            values = getattr(params, name)
            assert np.allclose(values, values[0]), name

    def test_deterministic(self, synthetic_dataset):
        blind = synthetic_dataset.problem.without_truth()
        a = PooledEMExt().fit(blind)
        b = PooledEMExt().fit(blind)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_recovers_homogeneous_population(self):
        """When sources really are identical, pooling is sufficient."""
        config = GeneratorConfig(
            n_sources=30, n_assertions=300, n_trees=30,
            p_on=0.6, p_indep_true=(0.7, 0.7), true_ratio=0.6,
        )
        dataset = generate_dataset(config, seed=1)
        result = PooledEMExt().fit(dataset.problem.without_truth())
        accuracy = (result.decisions == dataset.problem.truth).mean()
        assert accuracy > 0.85
        # The pooled rate lands on the true population rate.
        assert result.parameters.a[0] == pytest.approx(0.42, abs=0.05)

    def test_per_source_beats_pooled_on_heterogeneous_data(self):
        """With spread-out reliabilities, per-source modelling wins."""
        config = GeneratorConfig(
            n_sources=40, n_assertions=200, n_trees=40,
            p_indep_true=(0.45, 0.95),  # widely heterogeneous sources
        )
        per_source_accuracy = []
        pooled_accuracy = []
        for seed in range(4):
            dataset = generate_dataset(config, seed=seed)
            blind = dataset.problem.without_truth()
            truth = dataset.problem.truth
            ext = EMExtEstimator(seed=0).fit(blind)
            pooled = PooledEMExt().fit(blind)
            per_source_accuracy.append(float((ext.decisions == truth).mean()))
            pooled_accuracy.append(float((pooled.decisions == truth).mean()))
        assert np.mean(per_source_accuracy) > np.mean(pooled_accuracy)

    def test_convergence_flag(self, synthetic_dataset):
        result = PooledEMExt(max_iterations=500).fit(
            synthetic_dataset.problem.without_truth()
        )
        assert result.converged
