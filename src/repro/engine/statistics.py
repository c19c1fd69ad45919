"""Sufficient statistics and the single M-step ratio kernel.

Every M-step in the library — dense EM-Ext, sparse EM-Ext, the
streaming estimator and the masked independence baselines — is a ratio
of posterior-weighted counts over a cell partition (Equations 10–14).
:func:`ratio_update` is the one implementation of that ratio, including
the two engineering layers documented in DESIGN.md §5.5:

* hierarchical (empirical-Bayes) smoothing — shrink each source's rate
  toward the pooled population rate by ``s`` pseudo-counts;
* empty-partition fallback — a source with no cells in a partition
  keeps its previous value for the affected parameter.

:class:`SufficientStatistics` holds the numerator/denominator count
vectors themselves.  The streaming estimator's decayed statistics are
exactly this accumulator plus an exponential forgetting factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.model import DEFAULT_EPSILON, SourceParameters

#: The four per-source rates of the dependency-aware model, in the
#: order the M-step updates them.
RATE_NAMES: Tuple[str, str, str, str] = ("a", "b", "f", "g")

#: ``(numerator, denominator)`` count vectors per rate name.
CountMap = Mapping[str, Tuple[np.ndarray, np.ndarray]]


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


@dataclass
class SufficientStatistics:
    """Posterior-weighted counts behind the M-step ratios.

    One ``(numerator, denominator)`` vector pair per rate in
    :data:`RATE_NAMES` plus the prior's scalar counters.  Supports
    exponential decay, which is all the streaming estimator adds on top
    of the batch M-step.
    """

    numerators: Dict[str, np.ndarray]
    denominators: Dict[str, np.ndarray]
    z_numerator: float = 0.0
    z_denominator: float = 0.0

    @classmethod
    def zeros(cls, n_sources: int) -> "SufficientStatistics":
        """An empty accumulator for ``n_sources`` sources."""
        return cls(
            numerators={k: np.zeros(n_sources) for k in RATE_NAMES},
            denominators={k: np.zeros(n_sources) for k in RATE_NAMES},
        )

    def copy(self) -> "SufficientStatistics":
        """Deep copy (fresh count arrays) — used for rollback snapshots."""
        return SufficientStatistics(
            numerators={k: v.copy() for k, v in self.numerators.items()},
            denominators={k: v.copy() for k, v in self.denominators.items()},
            z_numerator=self.z_numerator,
            z_denominator=self.z_denominator,
        )

    def decay(self, factor: float) -> None:
        """Exponentially discount all accumulated counts in place."""
        for name in self.numerators:
            self.numerators[name] *= factor
            self.denominators[name] *= factor
        self.z_numerator *= factor
        self.z_denominator *= factor

    def add(self, counts: CountMap, z_counts: Tuple[float, float]) -> None:
        """Accumulate one batch's partition counts."""
        for name, (numerator, denominator) in counts.items():
            self.numerators[name] += numerator
            self.denominators[name] += denominator
        self.z_numerator += z_counts[0]
        self.z_denominator += z_counts[1]

    def rates(
        self,
        fallback: SourceParameters,
        epsilon: float = DEFAULT_EPSILON,
    ) -> SourceParameters:
        """Parameters from the accumulated counts alone."""
        rates = {}
        for name in RATE_NAMES:
            rates[name] = ratio_update(
                self.numerators[name],
                self.denominators[name],
                fallback=getattr(fallback, name),
            )
        z = (
            self.z_numerator / self.z_denominator
            if self.z_denominator > 0
            else fallback.z
        )
        return SourceParameters(
            a=rates["a"], b=rates["b"], f=rates["f"], g=rates["g"], z=float(z)
        ).clamp(epsilon)

    def merged_rates(
        self,
        counts: CountMap,
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
        rates = {}
        for name in RATE_NAMES:
            numerator, denominator = counts[name]
            rates[name] = ratio_update(
                self.numerators[name] * decay + numerator,
                self.denominators[name] * decay + denominator,
                fallback=getattr(fallback, name),
            )
        z_total_num = self.z_numerator * decay + z_counts[0]
        z_total_den = self.z_denominator * decay + z_counts[1]
        z = z_total_num / z_total_den if z_total_den > 0 else fallback.z
        return SourceParameters(
            a=rates["a"], b=rates["b"], f=rates["f"], g=rates["g"], z=float(z)
        ).clamp(epsilon)


__all__ = [
    "CountMap",
    "RATE_NAMES",
    "SufficientStatistics",
    "ratio_update",
]
