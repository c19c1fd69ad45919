"""Optimised single-core compute kernels (the hot inner loops).

``repro.kernels`` is the library's compute layer: the bounds, the
engine backends and :mod:`repro.core.likelihood` all route their inner
loops through it.  The modules are deliberately small and orthogonal:

=====================  ======================================================
:mod:`~repro.kernels.tables`       log-parameter tables, built once per θ
                                   (scalar, independence and lane-stacked)
:mod:`~repro.kernels.dedup`        unique-column grouping shared by the exact
                                   bound, the Gibbs bound and the E-step
:mod:`~repro.kernels.likelihood`   vectorised select-based column
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

from repro.kernels.dedup import ColumnGroups, group_columns, group_paired_columns
from repro.kernels.enumeration import gray_pattern_masses
from repro.kernels.gibbs import BlockedGibbsChains, GibbsTables
from repro.kernels.likelihood import (
    batched_dual_column_log_likelihoods,
    dense_column_log_likelihoods,
    dual_lane_codes,
    lane_offset_codes,
    masked_column_log_likelihoods,
)
from repro.kernels.tables import (
    BatchedLogParameterTables,
    IndependenceLogTables,
    LogParameterTables,
)

__all__ = [
    "BatchedLogParameterTables",
    "BlockedGibbsChains",
    "ColumnGroups",
    "GibbsTables",
    "IndependenceLogTables",
    "LogParameterTables",
    "batched_dual_column_log_likelihoods",
    "dense_column_log_likelihoods",
    "gray_pattern_masses",
    "group_columns",
    "group_paired_columns",
    "dual_lane_codes",
    "lane_offset_codes",
    "masked_column_log_likelihoods",
]
