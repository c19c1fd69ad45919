"""Optimised single-core compute kernels (the hot inner loops).

``repro.kernels`` is the library's compute layer: the bounds, the
engine backends and :mod:`repro.core.likelihood` all route their inner
loops through it.  The modules are deliberately small and orthogonal:

=====================  ======================================================
:mod:`~repro.kernels.tables`       truth-pair log tables, built once per θ
                                   (dependency, independence and lane-stacked)
:mod:`~repro.kernels.dedup`        unique-column grouping for the exact,
                                   Gibbs and analytic bounds
:mod:`~repro.kernels.likelihood`   one-gather select-based column
                                   log-likelihoods for binary matrices
:mod:`~repro.kernels.enumeration`  meet-in-the-middle sum over the ``2^n``
                                   claim patterns (exact bound), from
                                   ``2^{n/2}`` half tables per column
:mod:`~repro.kernels.gibbs`        blocked, fully vectorised Gibbs sweeps
:mod:`~repro.kernels.reference`    frozen pre-optimisation implementations,
                                   kept for the benchmark-regression harness
=====================  ======================================================

Every kernel either reproduces the historical output bit-for-bit (the
deterministic E/M-step paths) or within a documented tolerance (the
exact bound's reordered sum, the resampled Gibbs chain); the contract
is pinned by ``tests/kernels`` against ``tests/data/kernel_reference.npz``
and timed by ``benchmarks/test_kernel_micro.py``.
"""

from repro.kernels.dedup import group_columns
from repro.kernels.enumeration import gray_pattern_masses
from repro.kernels.gibbs import BlockedGibbsChains, GibbsTables
from repro.kernels.likelihood import (
    flat_claim_codes,
    lane_offset_codes,
    pair_column_log_likelihoods,
)
from repro.kernels.tables import pair_table

__all__ = [
    "BlockedGibbsChains",
    "GibbsTables",
    "flat_claim_codes",
    "gray_pattern_masses",
    "group_columns",
    "lane_offset_codes",
    "pair_column_log_likelihoods",
    "pair_table",
]
