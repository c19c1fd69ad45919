"""Table-gather column log-likelihood kernels for binary matrices.

Because ``SC`` and ``D`` are 0/1, every product in the textbook form

.. math::
    \\log P(SC_j|C_j) = \\sum_i SC_{ij}\\,\\log r_i + (1-SC_{ij})\\,\\log(1-r_i)

is an exact *selection*: one of the two addends is exactly zero.  Each
cell therefore picks one of four per-source log rates, indexed by the
2-bit code ``2·D + SC`` — so the whole likelihood pass collapses to a
single flat ``take`` from the row-major ``(n, 4)`` table followed by
the axis-0 sum.  The flat gather indices (``4·row + code``) depend only
on the (fixed) data matrices and are precomputed once per backend; the
tables are rebuilt per θ (see :mod:`repro.kernels.tables`).

The gathered cells carry bit-for-bit the values of the historical
multiply-add chains as long as every log is finite (the tables'
``finite`` flag; EM-clamped parameters always qualify), and the
summation keeps the same axis order — so the per-column totals are
bitwise identical to the legacy path while costing two array passes
instead of roughly ten.  ``take`` with precomputed flat indices beats
``table[rows, codes]`` fancy indexing by 2–4× at every problem size
(advanced indexing pays a fixed multi-microsecond setup per call).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.tables import (
    BatchedLogParameterTables,
    IndependenceLogTables,
    LogParameterTables,
)


def claim_codes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Per-cell 2-bit codes ``2·second + first`` for the gather kernels.

    ``first`` is the claim matrix ``SC``; ``second`` is the dependency
    matrix ``D`` (dense model) or the cell mask (masked model).  Any
    0/1-valued dtype is accepted.  The result is an ``(n, m)`` ``intp``
    array, the native indexing dtype.
    """
    first = np.asarray(first)
    second = np.asarray(second)
    codes = (second != 0).astype(np.intp)
    codes <<= 1
    codes |= first != 0
    return codes


def flat_claim_codes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Flat gather indices ``4·row + code`` into a row-major ``(n, 4)`` table.

    Precompute these once per fixed ``(SC, D)`` (or ``(SC, mask)``)
    pair; the ``coded_*`` kernels then reduce to two ``take`` + ``sum``
    pairs per θ.
    """
    codes = claim_codes(first, second)
    codes += np.arange(codes.shape[0], dtype=np.intp)[:, None] * 4
    return codes


def coded_dense_column_log_likelihoods(
    flat_codes: np.ndarray, tables: LogParameterTables
) -> Tuple[np.ndarray, np.ndarray]:
    """Equations (4)/(5) log-likelihoods per column from flat cell codes.

    ``flat_codes`` comes from :func:`flat_claim_codes` over ``(SC, D)``.
    Returns ``(log_true, log_false)``, each ``(m,)``.
    """
    return (
        tables.table_true.take(flat_codes).sum(axis=0),
        tables.table_false.take(flat_codes).sum(axis=0),
    )


def dense_column_log_likelihoods(
    sc: np.ndarray, dep: np.ndarray, tables: LogParameterTables
) -> Tuple[np.ndarray, np.ndarray]:
    """As :func:`coded_dense_column_log_likelihoods`, coding on the fly."""
    return coded_dense_column_log_likelihoods(flat_claim_codes(sc, dep), tables)


def batched_flat_claim_codes(
    first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """:func:`flat_claim_codes` for ``(L, n, m)`` stacks.

    The row offset ``4·row`` runs along the *source* axis (axis 1 of a
    stack), which the 2-D helper would mistake for the lane axis.
    Returns an ``(L, n, m)`` ``intp`` array of flat ``(n, 4)``-table
    indices, without lane offsets (see :func:`lane_offset_codes`).
    """
    codes = claim_codes(first, second)
    codes += np.arange(codes.shape[1], dtype=np.intp)[None, :, None] * 4
    return codes


def lane_offset_codes(
    base_codes: np.ndarray, n_sources: int, n_lanes: int
) -> np.ndarray:
    """Lift flat ``(n, 4)``-table codes into a ``(B·n, 4)``-table stack.

    ``base_codes`` are :func:`flat_claim_codes` indices, either shared
    across lanes (``(n, m)`` or ``(1, n, m)``) or per lane
    (``(B, n, m)``); adding lane ``b`` the offset ``b·4n`` makes them
    index lane ``b``'s block of the flattened C-contiguous ``(B, n, 4)``
    table.  Returns a ``(B, n, m)`` ``intp`` array.
    """
    offsets = np.arange(n_lanes, dtype=np.intp) * (4 * n_sources)
    if base_codes.ndim == 2:
        base_codes = base_codes[None]
    return base_codes + offsets[:, None, None]


def dual_lane_codes(
    lane_codes: np.ndarray, n_sources: int, n_lanes: int
) -> np.ndarray:
    """Stack true/false gather codes for the fused double-table take.

    ``lane_codes`` indexes one flattened ``(B, n, 4)`` table; both
    tables of a :class:`~repro.kernels.tables.BatchedLogParameterTables`
    live in a single ``(2, B, n, 4)`` buffer, so offsetting a second
    copy of the codes by one table's span (``B·n·4``) addresses the
    false table in the same flat gather.  Returns ``(2, B, n, m)``.
    """
    dual = np.empty((2,) + lane_codes.shape, dtype=np.intp)
    dual[0] = lane_codes
    np.add(lane_codes, 4 * n_sources * n_lanes, out=dual[1])
    return dual


def batched_dual_column_log_likelihoods(
    dual_codes: np.ndarray, tables: BatchedLogParameterTables
) -> Tuple[np.ndarray, np.ndarray]:
    """Both per-lane column log-likelihoods in one flat gather.

    ``dual_codes`` comes from :func:`dual_lane_codes`.  The single
    ``take`` over the fused ``(2, B, n, 4)`` buffer gathers every lane's
    true and false cells from the flattened tables in one pass, and the
    axis-2 sum reduces each (table, lane, column) triple in the serial
    axis-0 order — so lane ``b`` is bit-for-bit what
    :func:`coded_dense_column_log_likelihoods` returns for that lane
    alone.
    Returns ``(log_true, log_false)``, each ``(B, m)``.
    """
    columns = np.take(tables.tables.reshape(-1), dual_codes).sum(axis=2)
    return columns[0], columns[1]


def coded_masked_column_log_likelihoods(
    flat_codes: np.ndarray, tables: IndependenceLogTables
) -> Tuple[np.ndarray, np.ndarray]:
    """Independence-model log-likelihoods over unmasked cells only.

    ``flat_codes`` comes from :func:`flat_claim_codes` over
    ``(SC, mask)``; masked-out cells (codes 0/1) gather an exact
    ``0.0`` — they are *missing*, not non-claims.
    """
    return (
        tables.table_true.take(flat_codes).sum(axis=0),
        tables.table_false.take(flat_codes).sum(axis=0),
    )


def masked_column_log_likelihoods(
    sc: np.ndarray, mask: np.ndarray, tables: IndependenceLogTables
) -> Tuple[np.ndarray, np.ndarray]:
    """As :func:`coded_masked_column_log_likelihoods`, coding on the fly."""
    return coded_masked_column_log_likelihoods(flat_claim_codes(sc, mask), tables)


__all__ = [
    "batched_dual_column_log_likelihoods",
    "batched_flat_claim_codes",
    "claim_codes",
    "coded_dense_column_log_likelihoods",
    "coded_masked_column_log_likelihoods",
    "dense_column_log_likelihoods",
    "dual_lane_codes",
    "flat_claim_codes",
    "lane_offset_codes",
    "masked_column_log_likelihoods",
]
