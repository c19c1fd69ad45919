"""Property-based invariants of the estimation engine and the bounds.

Hypothesis generates the *shape* of each case (dimensions, seeds,
knobs); the actual matrices are drawn from a seeded generator so every
failing example is replayable.  The invariants pinned here are the ones
every backend and both bound estimators must satisfy on *any* input:

* sufficient statistics are non-negative and conserve posterior mass
  across the four cell partitions;
* every M-step output is a probability;
* relabelling true ↔ false maps every posterior ``p`` to ``1 − p``,
  keeps the log likelihood and swaps the M-step's rates;
* the Bayes-risk bound is a pair of non-negative error masses whose sum
  never exceeds the trivial ``min(z, 1-z) <= 0.5`` risk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import GibbsConfig, exact_bound, gibbs_bound
from repro.core import SensingProblem, SourceParameters
from repro.core.likelihood import posterior_and_log_likelihood
from repro.engine import (
    BatchedDenseBackend,
    BatchedSourceParameters,
    DenseBackend,
    MaskedDenseBackend,
    SufficientStatistics,
    ratio_update,
)
from repro.engine.backends import IndependentParameters
from repro.kernels.tables import pair_table

SETTINGS = settings(max_examples=25, deadline=None)

#: The dependency model's rates, in the rows of its ``(4, n)`` block.
RATE_NAMES = ("a", "b", "f", "g")

dims = st.tuples(st.integers(2, 6), st.integers(2, 8))
seeds = st.integers(0, 2**32 - 1)


def _prior_counts(posterior: np.ndarray) -> tuple:
    """Equation 14's counts: posterior mass and assertion count."""
    return float(posterior.sum()), float(posterior.size)


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
        counts = backend.partition_counts(posterior)
        assert counts[0].shape == counts[1].shape == (4, n_sources)
        stats = SufficientStatistics.zeros(n_sources)
        stats.add(counts, _prior_counts(posterior))
        assert (stats.numerators >= 0).all()
        assert (stats.denominators >= 0).all()
        assert (stats.numerators <= stats.denominators + 1e-12).all()
        # Independent and dependent cells partition each source's row,
        # so the denominators (rows a, b, f, g) conserve the posterior
        # mass exactly.
        true_mass = float(posterior.sum())
        np.testing.assert_allclose(
            stats.denominators[0] + stats.denominators[2],
            np.full(n_sources, true_mass),
        )
        np.testing.assert_allclose(
            stats.denominators[1] + stats.denominators[3],
            np.full(n_sources, n_assertions - true_mass),
        )
        assert stats.z_numerator == pytest.approx(true_mass)
        assert stats.z_denominator == float(n_assertions)

    @SETTINGS
    @given(shape=dims, seed=seeds)
    def test_rates_are_probabilities(self, shape, seed):
        n_sources, n_assertions = shape
        problem = _problem(n_sources, n_assertions, seed)
        backend = DenseBackend(problem)
        posterior = np.random.default_rng(seed + 1).random(n_assertions)
        stats = SufficientStatistics.zeros(n_sources)
        stats.add(backend.partition_counts(posterior), _prior_counts(posterior))
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
        stats = SufficientStatistics.zeros(n_sources)
        stats.add(backend.partition_counts(posterior), _prior_counts(posterior))
        before = stats.denominators.copy()
        snapshot = stats.copy()
        stats.decay(factor)
        np.testing.assert_allclose(stats.numerators, snapshot.numerators * factor)
        np.testing.assert_allclose(
            stats.denominators, snapshot.denominators * factor
        )
        assert stats.z_numerator == pytest.approx(snapshot.z_numerator * factor)
        # The snapshot must be untouched by the in-place decay.
        np.testing.assert_array_equal(snapshot.denominators, before)


class TestBackendAgreement:
    @SETTINGS
    @given(shape=dims, seed=seeds)
    def test_dense_and_csr_backends_compute_the_same_step(self, shape, seed):
        pytest.importorskip("scipy")
        from repro.data import SparseSensingProblem
        from repro.engine import CSRBackend

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


def _swap(params: SourceParameters) -> SourceParameters:
    """Relabel true ↔ false in the dependency model: a↔b, f↔g, z↔1−z."""
    return SourceParameters(
        a=params.b, b=params.a, f=params.g, g=params.f, z=1.0 - params.z
    )


def _swap_independent(params: IndependentParameters) -> IndependentParameters:
    """Relabel true ↔ false in the independence model: t↔b, z↔1−z."""
    return IndependentParameters(t=params.b, b=params.t, z=1.0 - params.z)


class TestLabelSwapSymmetry:
    """Relabelling true ↔ false is a symmetry of both models (Eqs. 7, 9–14).

    Under the swap every E-step posterior ``p`` becomes ``1 − p`` and the
    Equation 7 log likelihood stays put; the M-step run from ``1 − p``
    returns the swapped rates.  Only rounding separates the two sides.
    """

    TOLERANCE = 1e-12

    def _check(self, e_step, m_step, theta, swap, names):
        swapped = swap(theta)
        posterior, log_likelihood = e_step(theta)
        swapped_posterior, swapped_ll = e_step(swapped)
        np.testing.assert_allclose(
            swapped_posterior, 1.0 - posterior, rtol=0, atol=self.TOLERANCE
        )
        assert swapped_ll == pytest.approx(
            log_likelihood, rel=self.TOLERANCE, abs=self.TOLERANCE
        )
        expected = swap(m_step(posterior, theta))
        updated = m_step(1.0 - posterior, swapped)
        for name in names:
            np.testing.assert_allclose(
                getattr(updated, name),
                getattr(expected, name),
                rtol=0,
                atol=self.TOLERANCE,
            )
        assert updated.z == pytest.approx(expected.z, rel=0, abs=self.TOLERANCE)

    @SETTINGS
    @given(shape=dims, seed=seeds, smoothing=st.sampled_from((0.0, 0.5)))
    def test_dense_and_csr_backends(self, shape, seed, smoothing):
        pytest.importorskip("scipy")
        from repro.data import SparseSensingProblem
        from repro.engine import CSRBackend

        problem = _problem(*shape, seed)
        theta = SourceParameters.random(shape[0], seed, informative=False)
        for backend in (
            DenseBackend(problem, smoothing=smoothing),
            CSRBackend(SparseSensingProblem.from_dense(problem), smoothing=smoothing),
        ):
            self._check(backend.e_step, backend.m_step, theta, _swap, RATE_NAMES)

    @SETTINGS
    @given(shape=dims, seed=seeds, smoothing=st.sampled_from((0.0, 0.5)))
    def test_masked_backend(self, shape, seed, smoothing):
        problem = _problem(*shape, seed)
        sc = problem.claims.values.astype(np.float64)
        rng = np.random.default_rng(seed)
        theta = IndependentParameters(
            t=rng.random(shape[0]), b=rng.random(shape[0]), z=float(rng.random())
        )
        for mask in (np.ones_like(sc), 1.0 - problem.dependency.values):
            backend = MaskedDenseBackend(sc, mask, smoothing=smoothing)
            self._check(
                backend.e_step, backend.m_step, theta, _swap_independent, ("t", "b")
            )

    @SETTINGS
    @given(shape=dims, seed=seeds, smoothing=st.sampled_from((0.0, 0.5)))
    def test_batched_pack(self, shape, seed, smoothing):
        """A pack of three distinct problems, checked lane by lane."""
        lanes = BatchedDenseBackend.from_backends(
            [
                DenseBackend(_problem(*shape, seed + lane), smoothing=smoothing)
                for lane in range(3)
            ]
        )
        thetas = [
            SourceParameters.random(shape[0], (seed, lane), informative=False)
            for lane in range(3)
        ]
        stacked = BatchedSourceParameters.stack(thetas)
        swapped = BatchedSourceParameters.stack([_swap(t) for t in thetas])
        posterior, log_likelihoods = lanes.e_step(stacked)
        swapped_posterior, swapped_lls = lanes.e_step(swapped)
        np.testing.assert_allclose(
            swapped_posterior, 1.0 - posterior, rtol=0, atol=self.TOLERANCE
        )
        np.testing.assert_allclose(
            swapped_lls, log_likelihoods, rtol=self.TOLERANCE, atol=self.TOLERANCE
        )
        updated = lanes.m_step(1.0 - posterior, swapped)
        expected = lanes.m_step(posterior, stacked)
        for lane in range(3):
            got, want = updated.lane(lane), _swap(expected.lane(lane))
            for name in RATE_NAMES:
                np.testing.assert_allclose(
                    getattr(got, name), getattr(want, name), rtol=0, atol=self.TOLERANCE
                )
            assert got.z == pytest.approx(want.z, rel=0, abs=self.TOLERANCE)


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
        posterior, _ = posterior_and_log_likelihood(
            np.stack([log_true, log_false], axis=-1), z
        )
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
        # (source, code, truth) view: code 2·D + SC, truth 0 true, 1 false.
        table = pair_table(params._rate_block()).reshape(n, 4, 2)
        for view, direct in (
            (table[:, 1, 0], np.log(params.a)),
            (table[:, 0, 0], np.log1p(-params.a)),
            (table[:, 1, 1], np.log(params.b)),
            (table[:, 0, 1], np.log1p(-params.b)),
            (table[:, 3, 0], np.log(params.f)),
            (table[:, 2, 0], np.log1p(-params.f)),
            (table[:, 3, 1], np.log(params.g)),
            (table[:, 2, 1], np.log1p(-params.g)),
        ):
            assert np.array_equal(view, direct, equal_nan=True)

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
        table = pair_table(np.array((t_rate, b_rate))).reshape(n, 4, 2)
        with np.errstate(divide="ignore"):
            for view, direct in (
                (table[:, 1, 0], np.log(t_rate)),
                (table[:, 0, 0], np.log1p(-t_rate)),
                (table[:, 1, 1], np.log(b_rate)),
                (table[:, 0, 1], np.log1p(-b_rate)),
            ):
                assert np.array_equal(view, direct, equal_nan=True)
        # Missing cells (codes 2 and 3) gather an exact additive zero.
        assert np.array_equal(table[:, 2:], np.zeros((n, 2, 2)))


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
