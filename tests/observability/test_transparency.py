"""The transparency wall: observability must be bitwise invisible.

For random problems and every estimator and bound backend, running with
an observability session active must produce results **bit-for-bit
identical** to running without one — same scores, same posteriors, same
bound values, same RNG-driven sampler output.  Every emitted span tree
must also be well-formed (single root, children nested inside same-pid
parent intervals, no negative durations, everything closed).

These are exact ``==`` comparisons on floats, the same discipline as
the serial-parity wall in ``tests/parallel/``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.baselines import ALGORITHM_REGISTRY, make_fact_finder
from repro.bounds import (
    GibbsConfig,
    bhattacharyya_bounds,
    bound_cascade,
    exact_bound,
    gibbs_bound,
)
from repro.observability import validate_span_tree
from repro.synthetic import GeneratorConfig, empirical_parameters, generate_dataset

SETTINGS = settings(max_examples=25, deadline=None)
FAST_SETTINGS = settings(max_examples=10, deadline=None)

GIBBS_CONFIG = GibbsConfig(
    burn_in=20, min_sweeps=60, max_sweeps=200, check_interval=50
)

problem_seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _dataset(seed, n_sources=6, n_assertions=14):
    config = GeneratorConfig(
        n_sources=n_sources, n_assertions=n_assertions, n_trees=(2, 3)
    )
    return generate_dataset(config, seed=seed)


def _finder(name, seed):
    """Construct one registered finder; only the EM family is seeded."""
    if name in ("em", "em-social", "em-ext", "em-pooled"):
        return make_fact_finder(name, seed=seed)
    return make_fact_finder(name)


def _observed(fn):
    """Run ``fn`` under a fresh session; return (result, finished root)."""
    with observability.observe() as session:
        result = fn()
    return result, session.finish()


def _assert_well_formed(root):
    problems = validate_span_tree(root)
    assert problems == [], problems


class TestEstimatorTransparency:
    @SETTINGS
    @given(seed=problem_seeds, algorithm=st.sampled_from(sorted(ALGORITHM_REGISTRY)))
    def test_every_estimator_is_bitwise_invariant(self, seed, algorithm):
        problem = _dataset(seed).problem.without_truth()

        def fit():
            return _finder(algorithm, seed).fit(problem)

        plain = fit()
        observed, root = _observed(fit)
        np.testing.assert_array_equal(plain.scores, observed.scores)
        np.testing.assert_array_equal(plain.decisions, observed.decisions)
        _assert_well_formed(root)


class TestBoundTransparency:
    @SETTINGS
    @given(seed=problem_seeds)
    def test_exact_bound_bitwise_invariant(self, seed):
        dataset = _dataset(seed)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values

        plain = exact_bound(dependency, params)
        observed, root = _observed(lambda: exact_bound(dependency, params))
        assert plain.total == observed.total
        assert plain.false_positive == observed.false_positive
        assert plain.false_negative == observed.false_negative
        _assert_well_formed(root)
        names = {c.name for c in root.children}
        assert "bound.exact" in names

    @FAST_SETTINGS
    @given(seed=problem_seeds)
    def test_gibbs_bound_bitwise_invariant(self, seed):
        dataset = _dataset(seed)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values

        def bound():
            return gibbs_bound(dependency, params, config=GIBBS_CONFIG, seed=seed)

        plain = bound()
        observed, root = _observed(bound)
        assert plain.total == observed.total
        assert plain.false_positive == observed.false_positive
        assert plain.false_negative == observed.false_negative
        assert plain.n_samples == observed.n_samples
        _assert_well_formed(root)

    @SETTINGS
    @given(seed=problem_seeds)
    def test_analytic_bracket_bitwise_invariant(self, seed):
        dataset = _dataset(seed)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values

        plain = bhattacharyya_bounds(dependency, params)
        observed, root = _observed(
            lambda: bhattacharyya_bounds(dependency, params)
        )
        assert plain == observed
        _assert_well_formed(root)

    @FAST_SETTINGS
    @given(seed=problem_seeds)
    def test_cascade_bitwise_invariant(self, seed):
        dataset = _dataset(seed)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values

        def cascade():
            return bound_cascade(dependency, params, seed=seed)

        plain = cascade()
        observed, root = _observed(cascade)
        assert plain.bound.total == observed.bound.total
        # Attempt timings are wall clock; everything else must match.
        assert plain.report.requested == observed.report.requested
        assert plain.report.tier == observed.report.tier
        assert [
            (a.tier, a.status, a.reason) for a in plain.report.attempts
        ] == [
            (a.tier, a.status, a.reason) for a in observed.report.attempts
        ]
        _assert_well_formed(root)
        names = {c.name for c in root.children}
        assert "bound.cascade" in names


class TestSpanTreeShape:
    def test_em_fit_span_tree_structure(self):
        problem = _dataset(3).problem.without_truth()
        _, root = _observed(lambda: make_fact_finder("em-ext", seed=3).fit(problem))
        _assert_well_formed(root)
        fits = [c for c in root.children if c.name == "em.fit"]
        assert fits, [c.name for c in root.children]
        runs = [c for c in fits[0].children if c.name == "em.run"]
        assert runs
        assert all(r.duration_seconds >= 0 for r in runs)

    def test_metrics_recorded_during_fit(self):
        problem = _dataset(4).problem.without_truth()
        with observability.observe() as session:
            make_fact_finder("em-ext", seed=4).fit(problem)
        counters = session.metrics.snapshot()["counters"]
        assert counters["em.iterations"] > 0
        assert counters["em.restarts"] > 0

    def test_gibbs_counters_count_one_run_exactly(self):
        """One sampler run; every sweep, burn-in included, counted once."""
        dataset = _dataset(21, n_sources=9)
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        config = GibbsConfig(
            burn_in=20, min_sweeps=100, max_sweeps=400, check_interval=50
        )
        with observability.observe() as session:
            result = gibbs_bound(
                dataset.problem.dependency.values, params, config=config, seed=9
            )
        counters = session.metrics.snapshot()["counters"]
        assert counters["bounds.gibbs.sampler_runs"] == 1
        assert counters["bounds.gibbs.samples"] == result.n_samples
        assert counters["kernels.gibbs.sweeps"] == config.burn_in + result.n_samples
        root = session.finish()
        _assert_well_formed(root)
        assert [c.name for c in root.children] == ["bound.gibbs.sample"]
