"""Meet-in-the-middle evaluation of the exact bound's pattern sum.

The exact bound (Equation 3) sums ``min{P(SC | C=1)·z, P(SC | C=0)·(1−z)}``
over all ``2^n`` claim patterns of a dependency column.  Given the
column, the sources are independent, so a pattern's joint factorises
over any split of the sources and its log-likelihood ratio (LLR) is a
sum of per-source terms.  The sum therefore splits like Horowitz and
Sahni's subset-sum algorithm (JACM 1974):

* half A (the first ``⌊n/2⌋`` sources, plus the prior) and half B (the
  rest) each get a table of ``P(u | true)``, ``P(u | false)`` and
  ``LLR(u)`` over their own patterns, built by doubling — one source
  at a time, no pattern matrix;
* per column, half A is sorted by LLR.  A pattern ``(u, v)`` decides
  "true" exactly when ``LLR_A(u) > −LLR_B(v)``, so one ``searchsorted``
  per pattern ``v`` of half B splits half A into the patterns that
  decide "false" (a prefix, whose true mass is the FN side) and those
  that decide "true" (a suffix, whose false mass is the FP side).

The cost is ``O(2^{n/2} · (n + log 2^{n/2}))`` per column instead of
``O(2^n)``, and every column of every exact bound — degenerate 0/1
rates included — goes through the same code.

Ties
    Algorithm 1 decides "true" only on a strict ``>``, so an exact tie
    decides "false".  Rounding makes an exact tie land anywhere within
    the a-priori error bound of the LLR sums,
    ``(n+1)·ε·(Σ_i max(|δ_i|, |ε_i|) + |log(z/(1−z))|)`` over the finite
    per-source terms; an LLR inside it counts as a tie.

Degenerate rates
    A rate of exactly 0 or 1 gives ``±inf`` log terms, which flow
    through unchanged: an impossible pattern gets zero mass, and a
    pattern impossible under both truths gets a NaN LLR.  NaN sorts
    last and the pattern carries zero mass on both sides, so where it
    lands does not matter.  The prior is folded into half A's masses,
    so this also holds for ``z`` of exactly 0 or 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.observability import count, span

if TYPE_CHECKING:  # deferred: kernels must stay import-light
    from repro.resilience.supervisor import Deadline

_EPS = float(np.finfo(np.float64).eps)


def table_bytes_estimate(n: int, k: int) -> int:
    """Peak allocation of :func:`gray_pattern_masses` for ``n`` sources.

    Three ``(K, 2^h)`` float64 tables per half (true mass, false mass,
    LLR) plus at most 16 per-column work vectors of half-table length
    (the sort order, the prefix and suffix sums, the split indices).
    :func:`repro.bounds.cascade.bound_cascade` checks it against a
    deadline's memory budget before committing to the exact tier.
    """
    rows = (1 << (n // 2)) + (1 << (n - n // 2))
    return 8 * rows * (3 * max(k, 1) + 16)


def _half_tables(
    claim: np.ndarray,
    silence: np.ndarray,
    claim_llr: np.ndarray,
    silence_llr: np.ndarray,
    start_mass,
    start_llr,
) -> Tuple[np.ndarray, np.ndarray]:
    """Mass and LLR tables of one half of the sources, built by doubling.

    ``claim``/``silence`` are ``(2, h, K)`` per-source probabilities
    under (true, false) and ``claim_llr``/``silence_llr`` the ``(h, K)``
    per-source LLR terms.  Returns the ``(2, K, 2^h)`` table of
    ``P(u | true)``, ``P(u | false)`` and the ``(K, 2^h)`` table of
    ``LLR(u)``, where pattern ``u`` has bit ``i`` set when the half's
    ``i``-th source claims.  Adding source ``i`` doubles the tables: the
    existing entries become the patterns where it is silent, their
    copies the ones where it claims.
    """
    h, k = claim_llr.shape
    mass = np.empty((2, k, 1 << h))
    llr = np.empty((k, 1 << h))
    mass[:, :, 0] = start_mass
    llr[:, 0] = start_llr
    for i in range(h):
        old, new = slice(0, 1 << i), slice(1 << i, 2 << i)
        np.multiply(mass[:, :, old], claim[:, i, :, None], out=mass[:, :, new])
        mass[:, :, old] *= silence[:, i, :, None]
        np.add(llr[:, old], claim_llr[i, :, None], out=llr[:, new])
        llr[:, old] += silence_llr[i, :, None]
    return mass, llr


def _finite_abs(values: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(values), np.abs(values), 0.0)


def gray_pattern_masses(
    log_r1: np.ndarray,
    log_1r1: np.ndarray,
    log_r0: np.ndarray,
    log_1r0: np.ndarray,
    log_z: float,
    log_1z: float,
    *,
    deadline: Optional["Deadline"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column (false-positive, false-negative) mass of Equation (3).

    Inputs are ``(n, K)`` log-rate tables (``r1``/``r0`` are the claim
    rates given a true/false assertion); ``-inf`` entries (rates of
    exactly 0 or 1) are allowed.  For every one of the ``2^n`` claim
    patterns the optimal estimator decides by the larger joint (ties
    decide "false", matching Algorithm 1's strict ``>``), and the
    smaller joint's mass accumulates into the corresponding error side.
    Returns two ``(K,)`` arrays.  The sum is evaluated meet-in-the-middle
    (see the module docstring); the name predates that algorithm and
    stays because the benchmark's traced run (``bench/layers.py``)
    wraps this function by name.

    ``deadline`` is checked for its memory budget before the half tables
    are allocated and cooperatively before each column; on expiry
    :class:`~repro.utils.errors.DeadlineExceeded` carries the
    pattern·column terms completed so far.
    """
    n, k = log_r1.shape
    half = n // 2
    patterns_total = k << n
    if deadline is not None:
        deadline.check_memory(table_bytes_estimate(n, k), "exact bound half tables")

    with span(
        "kernels.enumeration", n_sources=n, n_columns=k, patterns=1 << n
    ), np.errstate(invalid="ignore"):
        claim_llr = log_r1 - log_r0
        silence_llr = log_1r1 - log_1r0
        prior_llr = log_z - log_1z
        tolerance = (n + 1) * _EPS * (
            np.maximum(_finite_abs(claim_llr), _finite_abs(silence_llr)).sum(axis=0)
            + (abs(prior_llr) if np.isfinite(prior_llr) else 0.0)
        )
        claim = np.exp(np.stack((log_r1, log_r0)))
        silence = np.exp(np.stack((log_1r1, log_1r0)))
        prior = np.exp([[log_z], [log_1z]])
        a, b = slice(0, half), slice(half, n)
        mass_a, llr_a = _half_tables(
            claim[:, a], silence[:, a], claim_llr[a], silence_llr[a], prior, prior_llr
        )
        mass_b, llr_b = _half_tables(
            claim[:, b], silence[:, b], claim_llr[b], silence_llr[b], 1.0, 0.0
        )

        fp_mass = np.empty(k)
        fn_mass = np.empty(k)
        for c in range(k):
            if deadline is not None:
                deadline.check(
                    "exact bound enumeration",
                    patterns_done=c << n,
                    patterns_total=patterns_total,
                    n_columns=k,
                )
            order = np.argsort(llr_a[c])
            true_a, false_a = mass_a[:, c, order]
            # fn_prefix[i]: true mass of the i lowest-LLR patterns of A;
            # fp_suffix[i]: false mass of the rest, summed from the top so
            # small masses do not cancel against the total.
            fn_prefix = np.concatenate(([0.0], np.cumsum(true_a)))
            fp_suffix = np.concatenate((np.cumsum(false_a[::-1])[::-1], [0.0]))
            split = np.searchsorted(llr_a[c, order], tolerance[c] - llr_b[c], side="right")
            fn_mass[c] = mass_b[0, c] @ fn_prefix[split]
            fp_mass[c] = mass_b[1, c] @ fp_suffix[split]
        count("kernels.enumeration.patterns", 1 << n)
    return fp_mass, fn_mass


__all__ = ["gray_pattern_masses", "table_bytes_estimate"]
