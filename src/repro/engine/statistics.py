"""Sufficient statistics and the single M-step ratio kernel.

Every M-step in the library — dense, sparse and lane EM-Ext, the
streaming estimator, the staged initialisation, the EM / EM-Social
baselines and the pooled ablation — is a ratio of posterior-weighted
counts over a cell partition (Equations 10–14), and every one of them
holds its counts in one layout: a ``(…, k, n)`` block with one row per
rate (``[a, b, f, g]``, or ``[t, b]`` for the independence model),
sources on the last axis and an optional leading lane axis.
:func:`ratio_update` is the one implementation of that ratio, applied
once per M-step to the whole block, including the two engineering
layers documented in DESIGN.md §5.5:

* hierarchical (empirical-Bayes) smoothing — shrink each source's rate
  toward the pooled population rate by ``s`` pseudo-counts;
* empty-partition fallback — a source with no cells in a partition
  keeps its previous value for the affected parameter.

:class:`SufficientStatistics` holds a ``(4, n)`` numerator and
denominator block.  The streaming estimator's decayed statistics are
exactly this accumulator plus an exponential forgetting factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.model import DEFAULT_EPSILON, SourceParameters


def ratio_update(
    numerator: np.ndarray,
    denominator: np.ndarray,
    *,
    smoothing: float = 0.0,
    fallback: np.ndarray,
    clip_ratio: bool = False,
) -> np.ndarray:
    """The Equations 10–14 M-step ratio, with smoothing and fallback.

    Parameters
    ----------
    numerator, denominator:
        Posterior-weighted counts over one cell partition (e.g. for
        Equation 10: claim mass and total mass over independent cells),
        one entry per source along the last axis.  Leading axes stack
        several rates (a ``(4, n)`` M-step block) or lanes; each row is
        pooled on its own, in the serial 1-D summation order.
    smoothing:
        Pseudo-count ``s`` of hierarchical shrinkage: the ratio becomes
        ``(num_i + s·pooled) / (den_i + s)`` where ``pooled`` is the
        row's population rate (its numerators over its denominators,
        0.5 when it has no mass).
    fallback:
        Per-source previous values, kept wherever the partition is
        empty (denominator zero).
    clip_ratio:
        Clip the raw ratio into ``[0, 1]`` before applying the
        fallback.  Sparse backends need this because their subtracted
        denominators can undershoot the numerator by float rounding.
    """
    if smoothing != 0.0:
        # The pooled rate only matters when it is actually blended in;
        # adding s=0 pseudo-counts is the identity (counts are
        # non-negative, so +0.0 cannot flip a signed zero), and the
        # reductions plus two array adds are pure overhead in the
        # common unsmoothed inner loops.
        pooled_den = denominator.sum(axis=-1, keepdims=True)
        pooled = np.full_like(pooled_den, 0.5)
        np.divide(
            numerator.sum(axis=-1, keepdims=True),
            pooled_den,
            out=pooled,
            where=pooled_den > 0,
        )
        numerator = numerator + smoothing * pooled
        denominator = denominator + smoothing
    # Masked divide: fallback cells are pre-filled and never touched by
    # the division, so empty partitions raise no warnings and need no
    # errstate round-trip.
    usable = denominator > 0
    ratio = np.where(usable, 0.0, fallback)
    np.divide(numerator, denominator, out=ratio, where=usable)
    if clip_ratio:
        # np.clip's definition without its dispatch overhead (NaN
        # propagates through maximum/minimum identically); masked so
        # fallback cells stay verbatim, as with the historical
        # clip-then-select.
        np.maximum(ratio, 0.0, out=ratio, where=usable)
        np.minimum(ratio, 1.0, out=ratio, where=usable)
    return ratio


def _parameters(
    numerators: np.ndarray,
    denominators: np.ndarray,
    z_numerator: float,
    z_denominator: float,
    fallback: SourceParameters,
    epsilon: float,
) -> SourceParameters:
    """Clamped parameters of ``(4, n)`` counts: one ratio, then the prior."""
    rates = ratio_update(numerators, denominators, fallback=fallback._rate_block())
    z = z_numerator / z_denominator if z_denominator > 0 else fallback.z
    return SourceParameters(
        a=rates[0], b=rates[1], f=rates[2], g=rates[3], z=float(z)
    ).clamp(epsilon)


@dataclass
class SufficientStatistics:
    """Posterior-weighted counts behind the M-step ratios.

    ``numerators`` and ``denominators`` are ``(4, n)`` blocks with rows
    ``[a, b, f, g]``, the layout of
    :meth:`~repro.engine.backends.DenseBackend.partition_counts`, plus
    the prior's scalar counters.  Supports exponential decay, which is
    all the streaming estimator adds on top of the batch M-step.
    """

    numerators: np.ndarray
    denominators: np.ndarray
    z_numerator: float = 0.0
    z_denominator: float = 0.0

    @classmethod
    def zeros(cls, n_sources: int) -> "SufficientStatistics":
        """An empty accumulator for ``n_sources`` sources."""
        return cls(np.zeros((4, n_sources)), np.zeros((4, n_sources)))

    def copy(self) -> "SufficientStatistics":
        """Deep copy (fresh count arrays) — used for rollback snapshots."""
        return SufficientStatistics(
            self.numerators.copy(),
            self.denominators.copy(),
            self.z_numerator,
            self.z_denominator,
        )

    def decay(self, factor: float) -> None:
        """Exponentially discount all accumulated counts in place."""
        self.numerators *= factor
        self.denominators *= factor
        self.z_numerator *= factor
        self.z_denominator *= factor

    def add(
        self,
        counts: Tuple[np.ndarray, np.ndarray],
        z_counts: Tuple[float, float],
    ) -> None:
        """Accumulate one batch's ``(numerators, denominators)`` count blocks."""
        self.numerators += counts[0]
        self.denominators += counts[1]
        self.z_numerator += z_counts[0]
        self.z_denominator += z_counts[1]

    def rates(
        self,
        fallback: SourceParameters,
        epsilon: float = DEFAULT_EPSILON,
    ) -> SourceParameters:
        """Parameters from the accumulated counts alone."""
        return _parameters(
            self.numerators,
            self.denominators,
            self.z_numerator,
            self.z_denominator,
            fallback,
            epsilon,
        )

    def merged_rates(
        self,
        counts: Tuple[np.ndarray, np.ndarray],
        z_counts: Tuple[float, float],
        decay: float,
        fallback: SourceParameters,
        epsilon: float = DEFAULT_EPSILON,
    ) -> SourceParameters:
        """Parameters from decayed history plus one batch's soft counts.

        The history is discounted by ``decay`` *without* mutating the
        accumulator — used for the streaming inner loop, which refines
        a batch posterior before committing its counts.
        """
        return _parameters(
            self.numerators * decay + counts[0],
            self.denominators * decay + counts[1],
            self.z_numerator * decay + z_counts[0],
            self.z_denominator * decay + z_counts[1],
            fallback,
            epsilon,
        )


__all__ = [
    "SufficientStatistics",
    "ratio_update",
]
