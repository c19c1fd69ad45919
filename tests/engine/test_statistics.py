"""Unit tests for the engine's shared M-step kernel and accumulator."""

import numpy as np
import pytest

from repro.core import SourceParameters
from repro.engine import SufficientStatistics, ratio_update


class TestRatioUpdate:
    def test_plain_ratio(self):
        out = ratio_update(
            np.array([1.0, 3.0]),
            np.array([2.0, 4.0]),
            fallback=np.array([0.9, 0.9]),
        )
        np.testing.assert_allclose(out, [0.5, 0.75])

    def test_empty_partition_keeps_fallback(self):
        out = ratio_update(
            np.array([0.0, 3.0]),
            np.array([0.0, 4.0]),
            fallback=np.array([0.123, 0.9]),
        )
        assert out[0] == 0.123
        assert out[1] == 0.75

    def test_smoothing_shrinks_toward_pooled_rate(self):
        numerator = np.array([0.0, 10.0])
        denominator = np.array([10.0, 10.0])
        pooled = 0.5  # 10 claims over 20 cells
        out = ratio_update(
            numerator, denominator, smoothing=2.0, fallback=np.zeros(2)
        )
        np.testing.assert_allclose(
            out, [(0.0 + 2.0 * pooled) / 12.0, (10.0 + 2.0 * pooled) / 12.0]
        )

    def test_zero_smoothing_is_exact_identity(self):
        """s=0 must reproduce the unsmoothed ratio bit-for-bit."""
        rng = np.random.default_rng(5)
        numerator = rng.random(50)
        denominator = numerator + rng.random(50)
        plain = numerator / denominator
        out = ratio_update(numerator, denominator, fallback=np.zeros(50))
        np.testing.assert_array_equal(out, plain)

    def test_clip_ratio_bounds_overshoot(self):
        out = ratio_update(
            np.array([1.0 + 1e-12]),
            np.array([1.0]),
            fallback=np.array([0.5]),
            clip_ratio=True,
        )
        assert out[0] == 1.0


class TestSufficientStatistics:
    def _counts(self, n, value):
        """``(4, n)`` numerator and denominator blocks, rows ``[a, b, f, g]``."""
        return np.full((4, n), value), np.full((4, n), 2.0 * value)

    def test_zeros_shape(self):
        stats = SufficientStatistics.zeros(4)
        assert stats.numerators.shape == (4, 4)
        assert stats.denominators.shape == (4, 4)
        assert stats.z_denominator == 0.0

    def test_add_then_rates(self):
        stats = SufficientStatistics.zeros(3)
        stats.add(self._counts(3, 1.0), (1.5, 3.0))
        fallback = SourceParameters.from_scalars(3, a=0.9, b=0.9, f=0.9, g=0.9, z=0.9)
        params = stats.rates(fallback, epsilon=1e-6)
        np.testing.assert_allclose(params.a, 0.5)
        assert params.z == pytest.approx(0.5)

    def test_decay_discounts_history(self):
        stats = SufficientStatistics.zeros(2)
        stats.add(self._counts(2, 4.0), (4.0, 8.0))
        stats.decay(0.5)
        np.testing.assert_allclose(stats.numerators[0], 2.0)
        np.testing.assert_allclose(stats.denominators[2], 4.0)
        assert stats.z_numerator == pytest.approx(2.0)

    def test_merged_rates_does_not_mutate(self):
        stats = SufficientStatistics.zeros(2)
        stats.add(self._counts(2, 4.0), (4.0, 8.0))
        before = stats.numerators.copy()
        fallback = SourceParameters.from_scalars(2, a=0.5, b=0.5, f=0.5, g=0.5, z=0.5)
        merged = stats.merged_rates(
            self._counts(2, 1.0), (1.0, 2.0), 0.5, fallback, 1e-6
        )
        np.testing.assert_array_equal(stats.numerators, before)
        # (4·0.5 + 1) / (8·0.5 + 2) = 0.5
        np.testing.assert_allclose(merged.a, 0.5)

    def test_empty_accumulator_returns_fallback(self):
        stats = SufficientStatistics.zeros(2)
        fallback = SourceParameters.from_scalars(2, a=0.7, b=0.3, f=0.6, g=0.4, z=0.8)
        params = stats.rates(fallback, epsilon=1e-6)
        np.testing.assert_allclose(params.a, 0.7)
        assert params.z == pytest.approx(0.8)
