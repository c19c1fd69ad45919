"""Tests for repro.core.likelihood (Table II / Equations 4-9)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SensingProblem, SourceParameters
from repro.core.likelihood import (
    column_log_likelihoods,
    data_log_likelihood,
    emission_probability,
    pattern_log_joint,
    posterior_and_log_likelihood,
    posterior_truth,
)
from repro.utils.errors import ValidationError


class TestEmissionProbability:
    """Verify every row of Table II."""

    def test_table_ii(self, small_params):
        source = 0
        p = small_params
        cases = {
            (1, 0, 1): p.a[source],
            (1, 0, 0): 1 - p.a[source],
            (0, 0, 1): p.b[source],
            (0, 0, 0): 1 - p.b[source],
            (1, 1, 1): p.f[source],
            (1, 1, 0): 1 - p.f[source],
            (0, 1, 1): p.g[source],
            (0, 1, 0): 1 - p.g[source],
        }
        for (c, d, sc), expected in cases.items():
            assert emission_probability(sc, d, c, p, source) == pytest.approx(expected)

    def test_invalid_flags(self, small_params):
        with pytest.raises(ValidationError):
            emission_probability(2, 0, 1, small_params, 0)


class TestColumnLogLikelihoods:
    def test_matches_bruteforce(self, small_params):
        sc = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        dep = np.array([[1, 0], [0, 0], [0, 1]], dtype=float)
        log_true, log_false = column_log_likelihoods(sc, dep, small_params)
        for j in range(2):
            expected_true = 1.0
            expected_false = 1.0
            for i in range(3):
                expected_true *= emission_probability(
                    int(sc[i, j]), int(dep[i, j]), 1, small_params, i
                )
                expected_false *= emission_probability(
                    int(sc[i, j]), int(dep[i, j]), 0, small_params, i
                )
            assert log_true[j] == pytest.approx(np.log(expected_true))
            assert log_false[j] == pytest.approx(np.log(expected_false))

    def test_shape_mismatch(self, small_params):
        with pytest.raises(ValidationError):
            column_log_likelihoods(np.zeros((3, 2)), np.zeros((2, 2)), small_params)

    def test_source_count_mismatch(self, small_params):
        with pytest.raises(ValidationError):
            column_log_likelihoods(np.zeros((4, 2)), np.zeros((4, 2)), small_params)

    def test_normalisation_over_patterns(self, small_params):
        """Σ over all claim patterns of P(pattern | C) equals 1."""
        d_column = np.array([0, 1, 0])
        for c_value in (0, 1):
            total = 0.0
            for pattern in itertools.product((0, 1), repeat=3):
                log_true, log_false = column_log_likelihoods(
                    np.array(pattern, dtype=float), d_column.astype(float), small_params
                )
                total += np.exp(log_true if c_value == 1 else log_false)
            assert total == pytest.approx(1.0)


class TestPatternLogJoint:
    def test_sums_to_marginal(self, small_params):
        d_column = np.array([0, 0, 1])
        total = 0.0
        for pattern in itertools.product((0, 1), repeat=3):
            log_joint_true, log_joint_false = pattern_log_joint(
                np.array(pattern), d_column, small_params
            )
            total += np.exp(log_joint_true) + np.exp(log_joint_false)
        assert total == pytest.approx(1.0)


class TestPosterior:
    def test_bayes_consistency(self, tiny_problem, small_params):
        posterior = posterior_truth(tiny_problem, small_params)
        assert posterior.shape == (2,)
        assert (posterior >= 0).all() and (posterior <= 1).all()

    def test_supported_assertion_more_credible(self, small_params):
        """An assertion everyone reports beats one nobody reports."""
        sc = np.array([[1, 0], [1, 0], [1, 0]])
        problem = SensingProblem.independent(sc)
        posterior = posterior_truth(problem, small_params)
        assert posterior[0] > posterior[1]

    def test_extreme_prior(self, tiny_problem, small_params):
        sure = SourceParameters(
            a=small_params.a, b=small_params.b, f=small_params.f, g=small_params.g,
            z=1.0,
        )
        posterior = posterior_truth(tiny_problem, sure)
        np.testing.assert_allclose(posterior, 1.0)

    def test_posterior_from_log_likelihoods_degenerate(self):
        posterior, log_likelihood = posterior_and_log_likelihood(
            np.array([[-np.inf, -np.inf]]), 0.5
        )
        assert posterior[0] == pytest.approx(0.5)
        assert log_likelihood == -np.inf


class TestDegenerateRates:
    """Rates of exactly 0 or 1 give the Equation (4)/(5) values, not NaN.

    Worked example: ``a = (0, 0.6)``, ``b = (0.2, 0.3)``, ``z = 0.5``,
    no dependent cell.  Column 0 (source 0 silent, source 1 claims) has
    ``P(SC | C = 1) = (1 − 0)·0.6`` and ``P(SC | C = 0) = 0.8·0.3``;
    column 1 (both claim) cannot be true, since ``a_0 = 0``, and has
    ``P(SC | C = 0) = 0.2·0.3``.
    """

    @pytest.fixture
    def example(self):
        params = SourceParameters(
            a=np.array([0.0, 0.6]),
            b=np.array([0.2, 0.3]),
            f=np.array([0.5, 0.5]),
            g=np.array([0.5, 0.5]),
            z=0.5,
        )
        problem = SensingProblem.independent(np.array([[0, 1], [1, 1]]))
        return problem, params

    def test_column_log_likelihoods(self, example):
        problem, params = example
        log_true, log_false = column_log_likelihoods(
            problem.claims.values, problem.dependency.values, params
        )
        assert log_true[0] == pytest.approx(np.log(0.6), rel=1e-12)
        assert log_true[1] == -np.inf
        assert log_false == pytest.approx(np.log([0.8 * 0.3, 0.2 * 0.3]), rel=1e-12)

    def test_posterior_and_log_likelihood(self, example):
        problem, params = example
        posterior = posterior_truth(problem, params)
        assert posterior[0] == pytest.approx(0.6 / (0.6 + 0.24), rel=1e-12)
        assert posterior[1] == 0.0
        expected = np.log(0.5 * 0.6 + 0.5 * 0.24) + np.log(0.5 * 0.06)
        assert data_log_likelihood(problem, params) == pytest.approx(expected, rel=1e-12)

    def test_pattern_log_joint(self, example):
        problem, params = example
        log_joint_true, log_joint_false = pattern_log_joint(
            problem.claims.values[:, 0], problem.dependency.values[:, 0], params
        )
        assert log_joint_true == pytest.approx(np.log(0.5 * 0.6), rel=1e-12)
        assert log_joint_false == pytest.approx(np.log(0.5 * 0.24), rel=1e-12)


class TestDataLogLikelihood:
    def test_finite_for_clamped_params(self, tiny_problem, small_params):
        assert np.isfinite(data_log_likelihood(tiny_problem, small_params))

    def test_matches_manual_sum(self, tiny_problem, small_params):
        log_true, log_false = column_log_likelihoods(
            tiny_problem.claims.values, tiny_problem.dependency.values, small_params
        )
        manual = np.log(
            np.exp(log_true) * small_params.z + np.exp(log_false) * (1 - small_params.z)
        ).sum()
        assert data_log_likelihood(tiny_problem, small_params) == pytest.approx(manual)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pattern_probabilities_normalise(n, seed):
    """Property: the emission model is a distribution for any θ and D."""
    rng = np.random.default_rng(seed)
    params = SourceParameters.random(n, seed=seed, informative=False).clamp(1e-9)
    d_column = (rng.random(n) < 0.5).astype(float)
    total_true = 0.0
    total_false = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        log_true, log_false = column_log_likelihoods(
            np.array(pattern, dtype=float), d_column, params
        )
        total_true += np.exp(log_true)
        total_false += np.exp(log_false)
    assert total_true == pytest.approx(1.0, abs=1e-9)
    assert total_false == pytest.approx(1.0, abs=1e-9)
