"""Property-based invariants of the estimation engine and the bounds.

Hypothesis generates the *shape* of each case (dimensions, seeds,
knobs); the actual matrices are drawn from a seeded generator so every
failing example is replayable.  The invariants pinned here are the ones
every backend and both bound estimators must satisfy on *any* input:

* sufficient statistics are non-negative and conserve posterior mass
  across the four cell partitions;
* every M-step output is a probability;
* the Bayes-risk bound is a pair of non-negative error masses whose sum
  never exceeds the trivial ``min(z, 1-z) <= 0.5`` risk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import GibbsConfig, exact_bound, gibbs_bound
from repro.core import SensingProblem, SourceParameters
from repro.engine import (
    RATE_NAMES,
    DenseBackend,
    SufficientStatistics,
    ratio_update,
    stable_posterior,
)
from repro.kernels.tables import IndependenceLogTables, LogParameterTables

SETTINGS = settings(max_examples=25, deadline=None)

dims = st.tuples(st.integers(2, 6), st.integers(2, 8))
seeds = st.integers(0, 2**32 - 1)


def _problem(n_sources: int, n_assertions: int, seed: int) -> SensingProblem:
    """A random valid sensing problem (dependency implies a claim)."""
    rng = np.random.default_rng(seed)
    sc = (rng.random((n_sources, n_assertions)) < 0.6).astype(np.int8)
    dep = ((rng.random(sc.shape) < 0.3) & (sc == 1)).astype(np.int8)
    truth = (rng.random(n_assertions) < 0.5).astype(np.int8)
    return SensingProblem(claims=sc, dependency=dep, truth=truth)


class TestRatioUpdate:
    @SETTINGS
    @given(seed=seeds, n=st.integers(1, 10), smoothing=st.floats(0.0, 2.0))
    def test_output_is_a_rate_with_fallback_on_empty_partitions(
        self, seed, n, smoothing
    ):
        rng = np.random.default_rng(seed)
        # Posterior-weighted counts: numerator never exceeds denominator,
        # and some partitions are empty (zero denominator).
        denominator = rng.random(n) * rng.integers(0, 2, size=n)
        numerator = denominator * rng.random(n)
        fallback = rng.random(n)
        out = ratio_update(
            numerator, denominator, smoothing=smoothing, fallback=fallback
        )
        assert np.isfinite(out).all()
        assert (out >= 0.0).all() and (out <= 1.0).all()
        empty = (denominator + smoothing) == 0
        np.testing.assert_array_equal(out[empty], fallback[empty])


class TestSufficientStatistics:
    @SETTINGS
    @given(shape=dims, seed=seeds)
    def test_partition_counts_are_nonnegative_and_conserve_mass(self, shape, seed):
        n_sources, n_assertions = shape
        problem = _problem(n_sources, n_assertions, seed)
        backend = DenseBackend(problem)
        posterior = np.random.default_rng(seed + 1).random(n_assertions)
        counts, z_counts = backend.partition_counts(posterior)
        stats = SufficientStatistics.zeros(n_sources)
        stats.add(counts, z_counts)
        for name in RATE_NAMES:
            assert (stats.numerators[name] >= 0).all()
            assert (stats.denominators[name] >= 0).all()
            assert (
                stats.numerators[name] <= stats.denominators[name] + 1e-12
            ).all()
        # Independent and dependent cells partition each source's row,
        # so the denominators conserve the posterior mass exactly.
        true_mass = float(posterior.sum())
        np.testing.assert_allclose(
            stats.denominators["a"] + stats.denominators["f"],
            np.full(n_sources, true_mass),
        )
        np.testing.assert_allclose(
            stats.denominators["b"] + stats.denominators["g"],
            np.full(n_sources, n_assertions - true_mass),
        )
        assert z_counts == (pytest.approx(true_mass), float(n_assertions))

    @SETTINGS
    @given(shape=dims, seed=seeds)
    def test_rates_are_probabilities(self, shape, seed):
        n_sources, n_assertions = shape
        problem = _problem(n_sources, n_assertions, seed)
        backend = DenseBackend(problem)
        posterior = np.random.default_rng(seed + 1).random(n_assertions)
        counts, z_counts = backend.partition_counts(posterior)
        stats = SufficientStatistics.zeros(n_sources)
        stats.add(counts, z_counts)
        params = stats.rates(backend.neutral())
        for name in RATE_NAMES:
            rate = getattr(params, name)
            assert (rate > 0.0).all() and (rate < 1.0).all()
        assert 0.0 < params.z < 1.0

    @SETTINGS
    @given(shape=dims, seed=seeds, factor=st.floats(0.1, 1.0))
    def test_decay_scales_counts_and_copy_isolates(self, shape, seed, factor):
        n_sources, n_assertions = shape
        backend = DenseBackend(_problem(n_sources, n_assertions, seed))
        posterior = np.random.default_rng(seed + 1).random(n_assertions)
        counts, z_counts = backend.partition_counts(posterior)
        stats = SufficientStatistics.zeros(n_sources)
        stats.add(counts, z_counts)
        before = {name: stats.denominators[name].copy() for name in RATE_NAMES}
        snapshot = stats.copy()
        stats.decay(factor)
        for name in RATE_NAMES:
            np.testing.assert_allclose(
                stats.numerators[name], snapshot.numerators[name] * factor
            )
            np.testing.assert_allclose(
                stats.denominators[name], snapshot.denominators[name] * factor
            )
        assert stats.z_numerator == pytest.approx(snapshot.z_numerator * factor)
        # The snapshot must be untouched by the in-place decay.
        for name in RATE_NAMES:
            np.testing.assert_array_equal(snapshot.denominators[name], before[name])


class TestBackendAgreement:
    @SETTINGS
    @given(shape=dims, seed=seeds)
    def test_dense_and_csr_backends_compute_the_same_step(self, shape, seed):
        pytest.importorskip("scipy")
        from repro.engine import CSRBackend
        from repro.sparse import SparseSensingProblem

        n_sources, n_assertions = shape
        problem = _problem(n_sources, n_assertions, seed)
        dense = DenseBackend(problem)
        csr = CSRBackend(SparseSensingProblem.from_dense(problem))
        posterior = np.random.default_rng(seed + 1).random(n_assertions)
        dense_params = dense.m_step(posterior, dense.neutral())
        csr_params = csr.m_step(posterior, csr.neutral())
        for name in RATE_NAMES:
            np.testing.assert_allclose(
                getattr(dense_params, name), getattr(csr_params, name), atol=1e-12
            )
        assert dense_params.z == pytest.approx(csr_params.z, abs=1e-12)
        dense_post, dense_ll = dense.e_step(dense_params)
        csr_post, csr_ll = csr.e_step(csr_params)
        np.testing.assert_allclose(dense_post, csr_post, atol=1e-10)
        assert dense_ll == pytest.approx(csr_ll, abs=1e-8)


class TestStablePosterior:
    @SETTINGS
    @given(
        seed=seeds,
        m=st.integers(1, 12),
        z=st.floats(0.01, 0.99),
        scale=st.floats(1.0, 300.0),
    )
    def test_output_is_a_probability_even_for_extreme_likelihoods(
        self, seed, m, z, scale
    ):
        rng = np.random.default_rng(seed)
        log_true = rng.normal(size=m) * scale
        log_false = rng.normal(size=m) * scale
        posterior = stable_posterior(log_true, log_false, z)
        assert np.isfinite(posterior).all()
        assert (posterior >= 0.0).all() and (posterior <= 1.0).all()


class TestLogTableProperties:
    """The cached log tables are *exactly* the direct log computation.

    The whole kernel layer rests on this: a gather from the tables must
    select the very float ``np.log`` / ``np.log1p`` would have produced,
    or the bit-for-bit engine parity guarantee collapses.
    """

    @SETTINGS
    @given(seed=seeds, n=st.integers(1, 12))
    def test_parameter_tables_match_direct_logs(self, seed, n):
        params = SourceParameters.random(n, seed)
        tables = LogParameterTables.build(params)
        for view, direct in (
            (tables.log_a, np.log(params.a)),
            (tables.log_1a, np.log1p(-params.a)),
            (tables.log_b, np.log(params.b)),
            (tables.log_1b, np.log1p(-params.b)),
            (tables.log_f, np.log(params.f)),
            (tables.log_1f, np.log1p(-params.f)),
            (tables.log_g, np.log(params.g)),
            (tables.log_1g, np.log1p(-params.g)),
        ):
            assert np.array_equal(view, direct, equal_nan=True)
        assert tables.log_z == float(np.log(params.z))
        assert tables.log_1z == float(np.log1p(-params.z))
        expected_finite = bool(
            np.isfinite(tables.table_true).all()
            and np.isfinite(tables.table_false).all()
        )
        assert tables.finite == expected_finite

    @SETTINGS
    @given(
        seed=seeds,
        n=st.integers(1, 12),
        degenerate=st.booleans(),
    )
    def test_independence_tables_match_direct_logs(self, seed, n, degenerate):
        rng = np.random.default_rng(seed)
        t_rate = rng.random(n)
        b_rate = rng.random(n)
        if degenerate:
            t_rate[rng.integers(n)] = float(rng.integers(2))
        tables = IndependenceLogTables.build(t_rate, b_rate)
        with np.errstate(divide="ignore"):
            for view, direct in (
                (tables.log_t, np.log(t_rate)),
                (tables.log_1t, np.log1p(-t_rate)),
                (tables.log_b, np.log(b_rate)),
                (tables.log_1b, np.log1p(-b_rate)),
            ):
                assert np.array_equal(view, direct, equal_nan=True)
        # Masked cells (codes 0 and 1) gather an exact additive zero.
        assert np.array_equal(tables.table_true[:, :2], np.zeros((n, 2)))
        assert np.array_equal(tables.table_false[:, :2], np.zeros((n, 2)))
        expected_finite = bool(
            np.isfinite(tables.table_true).all()
            and np.isfinite(tables.table_false).all()
        )
        assert tables.finite == expected_finite


class TestBoundProperties:
    @settings(max_examples=10, deadline=None)
    @given(shape=dims, seed=seeds)
    def test_exact_bound_is_a_valid_error_probability(self, shape, seed):
        n_sources, n_assertions = shape
        problem = _problem(n_sources, n_assertions, seed)
        params = SourceParameters.random(n_sources, seed).clamp(1e-3)
        result = exact_bound(problem.dependency.values, params)
        assert result.false_positive >= 0.0
        assert result.false_negative >= 0.0
        assert result.total == pytest.approx(
            result.false_positive + result.false_negative
        )
        # The Bayes risk can never beat always guessing the prior.
        assert result.total <= min(params.z, 1.0 - params.z) + 1e-9
        assert result.optimal_accuracy == pytest.approx(1.0 - result.total)

    @settings(max_examples=8, deadline=None)
    @given(shape=dims, seed=seeds)
    def test_gibbs_bound_is_a_valid_error_probability(self, shape, seed):
        n_sources, n_assertions = shape
        problem = _problem(n_sources, n_assertions, seed)
        params = SourceParameters.random(n_sources, seed).clamp(1e-3)
        config = GibbsConfig(
            burn_in=5, min_sweeps=30, max_sweeps=60, check_interval=10
        )
        result = gibbs_bound(
            problem.dependency.values, params, config=config, seed=seed
        )
        assert result.false_positive >= 0.0
        assert result.false_negative >= 0.0
        assert result.total == pytest.approx(
            result.false_positive + result.false_negative
        )
        assert result.total <= 0.5 + 1e-9
