"""Unique-column grouping for the error bounds.

Every assertion propagated through the same cascade shares a
dependency column, so a D matrix routinely repeats columns.  The
bounds of Section III depend on a column's content alone: the exact
bound (Equation 3) and the Gibbs bound (Algorithm 1) of a column are
functions of that column and θ.  So the bound of the whole matrix is
the mean of the per-column bounds, and each distinct column is
evaluated once and weighted by its multiplicity.  Grouping changes the
number of evaluations, not the result.

The EM backends do not group columns; see :mod:`repro.engine.backends`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.observability import count, observe_value


def group_columns(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct columns of a 2-D matrix and their multiplicities.

    Returns ``(unique, counts)``: ``unique`` is ``(K, n)``, its row
    ``k`` the ``k``-th distinct column in ``np.unique``'s lexicographic
    order, and ``counts`` is ``(K,)``.
    """
    transposed = np.ascontiguousarray(np.asarray(matrix).T)
    unique, counts = np.unique(transposed, axis=0, return_counts=True)
    n_columns = transposed.shape[0]
    count("kernels.dedup.columns_total", n_columns)
    count("kernels.dedup.columns_unique", unique.shape[0])
    if n_columns:
        observe_value("kernels.dedup.compression_ratio", unique.shape[0] / n_columns)
    return unique, counts


__all__ = ["group_columns"]
