"""Table-gather column log-likelihood kernels for binary matrices.

Because ``SC`` and ``D`` are 0/1, every product in the textbook form

.. math::
    \\log P(SC_j|C_j) = \\sum_i SC_{ij}\\,\\log r_i + (1-SC_{ij})\\,\\log(1-r_i)

is an exact *selection*: one of the two addends is exactly zero.  Each
cell therefore picks one row of its source's truth-pair log table (see
:mod:`repro.kernels.tables`), indexed by the 2-bit code ``2·D + SC`` —
so one likelihood pass is a single ``take`` of ``(true, false)`` pairs
followed by the sum over sources.  The flat row indices
(``4·source + code``) depend only on the fixed data matrices and are
computed once per backend; the table is rebuilt per θ.

Selection is also what makes rates of exactly 0 or 1 right: the cell
gathers ``log 1 = 0`` or ``-inf`` as Equations (4)/(5) say, where the
multiply-add form computes ``0·(-inf) = NaN``.  On finite logs the
gathered cells carry the multiply-add's bits, and the sum keeps its
order, so the per-column totals are bitwise the same.
"""

from __future__ import annotations

import numpy as np


def claim_codes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Per-cell 2-bit codes ``2·second + first`` for the gather kernels.

    ``first`` is the claim matrix ``SC``; ``second`` is the dependency
    matrix ``D`` (dependency model) or the missing-cell indicator
    ``1 - mask`` (independence model).  Any 0/1-valued dtype is
    accepted.  The result is an ``intp`` array of the input's shape,
    the native indexing dtype.
    """
    first = np.asarray(first)
    second = np.asarray(second)
    codes = (second != 0).astype(np.intp)
    codes <<= 1
    codes |= first != 0
    return codes


def flat_claim_codes(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Flat row indices ``4·row + code`` into an ``(n, m)`` problem's pair table.

    Compute these once per fixed ``(SC, D)`` pair; every E-step is then
    one :func:`pair_column_log_likelihoods` call.
    """
    codes = claim_codes(first, second)
    codes += np.arange(codes.shape[0], dtype=np.intp)[:, None] * 4
    return codes


def batched_flat_claim_codes(
    first: np.ndarray, second: np.ndarray
) -> np.ndarray:
    """:func:`flat_claim_codes` for ``(L, n, m)`` stacks.

    The row offset ``4·row`` runs along the *source* axis (axis 1 of a
    stack), which the 2-D helper would mistake for the lane axis.
    Returns an ``(L, n, m)`` ``intp`` array of rows of one lane's
    ``(4n, 2)`` table, without lane offsets (see
    :func:`lane_offset_codes`).
    """
    codes = claim_codes(first, second)
    codes += np.arange(codes.shape[1], dtype=np.intp)[None, :, None] * 4
    return codes


def lane_offset_codes(
    base_codes: np.ndarray, n_sources: int, n_lanes: int
) -> np.ndarray:
    """Lift one lane's row indices into a ``(B·4n, 2)`` lane-stacked table.

    ``base_codes`` are :func:`flat_claim_codes` indices, either shared
    across lanes (``(n, m)`` or ``(1, n, m)``) or per lane
    (``(B, n, m)``); adding lane ``b`` the offset ``b·4n`` makes them
    index lane ``b``'s rows of a :func:`~repro.kernels.tables.pair_table`
    built from ``(B, 4, n)`` rates.  Returns a ``(B, n, m)`` ``intp``
    array.
    """
    offsets = np.arange(n_lanes, dtype=np.intp) * (4 * n_sources)
    if base_codes.ndim == 2:
        base_codes = base_codes[None]
    return base_codes + offsets[:, None, None]


def pair_column_log_likelihoods(
    codes: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Equations (4)/(5) log-likelihoods of every column, true and false at once.

    ``codes`` are ``(…, n, m)`` row indices into the truth-pair
    ``table`` (:func:`flat_claim_codes`, lifted by
    :func:`lane_offset_codes` for lanes).  Returns ``(…, m, 2)``:
    ``[log P(SC_j | C_j = 1), log P(SC_j | C_j = 0)]`` per column.

    NumPy sums an ``(n, m ≥ 2)`` block row by row but an ``(n, 1)``
    block as one contiguous run, with its unrolled pairwise sum; for
    ``n ≥ 8`` the two orders give different bits.  A one-column problem
    therefore sums each truth value's gathered run contiguously, which
    keeps the bits of the per-table sums the pair gather replaced.
    """
    cells = table.take(codes, axis=0)
    if codes.shape[-1] == 1:
        runs = np.ascontiguousarray(np.swapaxes(cells[..., 0, :], -1, -2))
        return runs.sum(axis=-1)[..., None, :]
    return cells.sum(axis=-3)


__all__ = [
    "batched_flat_claim_codes",
    "claim_codes",
    "flat_claim_codes",
    "lane_offset_codes",
    "pair_column_log_likelihoods",
]
