"""Truth-pair log tables, built once per θ.

θ changes exactly once per EM iteration (at the M-step), while the
E-step's posterior and log likelihood both consume ``log θ``.  Each
E-step takes the rate logs once, into one table, and one gather over it
(:func:`repro.kernels.likelihood.pair_column_log_likelihoods`) feeds
both quantities.

The table of ``n`` sources is a C-contiguous ``(4n, 2)`` array.  Row
``4·i + code`` holds source ``i``'s log probability of a cell with that
2-bit code (:func:`repro.kernels.likelihood.claim_codes`) given a true
assertion (column 0) and a false one (column 1):

====  ======================  ==========================
code  dependency model        independence model
====  ======================  ==========================
0     log(1-a), log(1-b)      log(1-t), log(1-b)
1     log a, log b            log t, log b
2     log(1-f), log(1-g)      0, 0 (a missing cell)
3     log f, log g            0, 0 (a missing cell)
====  ======================  ==========================

The zeros make a masked-out cell an exact additive no-op: it is
missing, not a non-claim.  A rate of exactly 0 or 1 gives a ``-inf``
entry, which the gather selects like any other value.
"""

from __future__ import annotations

import numpy as np


def pair_table(rates: np.ndarray) -> np.ndarray:
    """The ``(L·4n, 2)`` truth-pair log table of a rate block.

    ``rates`` is a ``(…, 4, n)`` block with rows ``[a, b, f, g]``
    (dependency model) or a ``(…, 2, n)`` block with rows ``[t, b]``
    (independence model), in any strides.  Leading lane axes stack, so
    lane ``l``'s rows start at ``l·4n`` (see
    :func:`repro.kernels.likelihood.lane_offset_codes`).  Each log runs
    along the sources, written through a ``(code, truth, source)`` view
    of the table.
    """
    *lanes, width, n = rates.shape
    k = len(lanes)
    table = (np.empty if width == 4 else np.zeros)((*lanes, n, 4, 2))
    by_code = table.transpose(*range(k), k + 1, k + 2, k)
    pairs = rates.reshape(*lanes, width // 2, 2, n)  # (partition, truth, source)
    with np.errstate(divide="ignore"):
        np.log1p(np.negative(pairs), out=by_code[..., 0:width:2, :, :])
        np.log(pairs, out=by_code[..., 1:width:2, :, :])
    return table.reshape(-1, 2)


__all__ = ["pair_table"]
