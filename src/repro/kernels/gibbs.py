"""Blocked Gibbs chains for the bound sampler, advanced a block of sweeps at a time.

The historical sampler ran a systematic scan: one Python-level loop
iteration per source per sweep, each resampling a single claim bit
conditioned on all others.  This kernel replaces the scan with a
*blocked* (data-augmented) sweep over the same stationary marginal:

1. compute each chain's log joints under both truth values from the
   current claim pattern;
2. draw the latent truth ``C`` from its exact conditional
   ``P(C = 1 | SC)``;
3. redraw **every** claim bit independently from the emission rates
   selected by ``C`` — given the truth value, sources are independent,
   so the whole ``(K, n)`` state block is one Bernoulli draw.

Each half-step samples from an exact conditional of the augmented
joint ``p(SC, C)``, whose marginal over ``SC`` is precisely the
mixture ``P(SC|C=1)z + P(SC|C=0)(1-z)`` that Algorithm 1 targets — so
the estimator is unchanged; only the transition kernel (and hence the
random stream) differs.

Only the truth draw depends on the previous sweep, so the chains
advance a *block* of ``s`` sweeps at a time (``K`` chains of ``n``
sources):

* one ``rng.random((s, K + K·n))`` call draws the whole block.  Row
  ``t`` holds sweep ``t``'s ``K`` truth uniforms, then its ``K·n`` claim
  uniforms: the same stream, in the same order, as drawing them sweep by
  sweep;
* the claim uniforms are compared with the true branch's and the false
  branch's emission rates, once each, so both candidate claim patterns
  of every chain and sweep exist before the recursion starts;
* per sweep, the truth is drawn, each chain's drawn-branch pattern is
  taken as one row, and its log rates under both truth values are
  gathered with one ``take`` from a flat ``(2, K, n, 2)`` table (truth
  value first, so the pattern broadcasts over it in one contiguous pass)
  and summed over the sources; the next ``P(C = 1 | SC)`` follows from
  those two sums;
* the block's joints are exponentiated in one call.

Every value comes from the same floating-point operations in the same
order as a sampler that advances one sweep at a time, so the samples are
bit for bit the same.  A block holds at most :data:`BLOCK_CELLS`
sweep·chain·source cells and :data:`BLOCK_SWEEPS` sweeps
(:func:`block_sweeps`), so its memory does not grow with the sweep count.

All per-chain constants — the rate clamp, the log-rate table and the
prior logs — are hoisted into :class:`GibbsTables`, built once per
sampler run, not per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro import observability

if TYPE_CHECKING:  # deferred: kernels must stay import-light
    from repro.resilience.supervisor import Deadline

#: Rate clamp keeping every chain irreducible for degenerate θ.
RATE_EPS = 1e-12

#: Most sweep·chain·source cells one block may hold, counting each
#: chain's truth draw as one more source.  A cell costs about 10 bytes
#: (its uniform and two comparisons), so this caps a block's draws near
#: 0.6 MB.
BLOCK_CELLS = 1 << 16

#: Most sweeps one block may hold, which bounds how much work runs
#: between two deadline checks.
BLOCK_SWEEPS = 256


def block_sweeps(n_chains: int, n_sources: int) -> int:
    """Sweeps per block for ``n_chains`` chains of ``n_sources`` sources.

    The largest count within both :data:`BLOCK_CELLS` and
    :data:`BLOCK_SWEEPS`, and at least one.
    """
    cells = n_chains * (n_sources + 1)
    if cells == 0:
        return BLOCK_SWEEPS
    return max(1, min(BLOCK_SWEEPS, BLOCK_CELLS // cells))


@dataclass(frozen=True)
class GibbsTables:
    """Clamped emission rates and their log-rate table for ``K`` chains.

    ``rate_true`` / ``rate_false`` are ``(K, n)``; one row per distinct
    dependency column.  ``log_rates[c, k, i, b]`` is the log probability
    that source ``i`` of chain ``k`` has claim bit ``b`` given truth
    value ``c`` (``c = 0`` for true, ``1`` for false), and ``log_prior``
    is ``(log z, log(1 - z))``.  Built once per sampler run so no clamp
    or log is ever taken inside the sweep loop.
    """

    rate_true: np.ndarray
    rate_false: np.ndarray
    log_rates: np.ndarray
    log_prior: np.ndarray

    @classmethod
    def build(
        cls, rate_true: np.ndarray, rate_false: np.ndarray, z: float
    ) -> "GibbsTables":
        rate_true = np.clip(np.atleast_2d(rate_true), RATE_EPS, 1 - RATE_EPS)
        rate_false = np.clip(np.atleast_2d(rate_false), RATE_EPS, 1 - RATE_EPS)
        z = float(np.clip(z, RATE_EPS, 1 - RATE_EPS))
        log_rates = np.stack(
            [
                np.stack([np.log1p(-rate), np.log(rate)], axis=-1)
                for rate in (rate_true, rate_false)
            ]
        )
        return cls(
            rate_true=rate_true,
            rate_false=rate_false,
            log_rates=log_rates,
            log_prior=np.array([np.log(z), np.log1p(-z)]),
        )

    @property
    def n_chains(self) -> int:
        return self.rate_true.shape[0]

    @property
    def n_sources(self) -> int:
        return self.rate_true.shape[1]


def _truth_probability(
    like_true: np.ndarray, like_false: np.ndarray, log_z: float, log_1z: float
) -> np.ndarray:
    """``P(C = 1 | SC)`` per chain from the claim pattern's log likelihoods."""
    joint_true = like_true + log_z
    joint_false = like_false + log_1z
    top = np.maximum(joint_true, joint_false)
    w_true = np.exp(joint_true - top)
    return w_true / (w_true + np.exp(joint_false - top))


class BlockedGibbsChains:
    """``K`` chains advanced together, a block of blocked sweeps at a time.

    :meth:`advance` runs one block.  Callers keep a block within
    :func:`block_sweeps` sweeps, which is what bounds its memory;
    :func:`repro.bounds.gibbs._accumulate_bound` does.

    ``deadline`` (a :class:`repro.resilience.supervisor.Deadline`) is
    checked cooperatively once per block, before the block draws; on
    expiry the raised :class:`~repro.utils.errors.DeadlineExceeded`
    carries the number of sweeps completed so the sampler's partial
    progress is diagnosable.  With blocks of at most
    :data:`BLOCK_SWEEPS` sweeps, a check comes at most that many sweeps
    after the deadline passes.  The check never perturbs the random
    stream, so a chain with a never-expiring deadline is bit-identical
    to one without.
    """

    def __init__(
        self,
        tables: GibbsTables,
        rng: np.random.Generator,
        *,
        deadline: Optional["Deadline"] = None,
    ):
        self.tables = tables
        self.n_chains = k = tables.n_chains
        self.n_sources = n = tables.n_sources
        self.rng = rng
        self.deadline = deadline
        self.n_sweeps = 0
        self._log_z, self._log_1z = (float(value) for value in tables.log_prior)
        self._table = tables.log_rates.ravel()
        # Flat offset of cell (c, k, i, bit 0); adding the claim bit picks
        # the cell.  A (K, n) claim pattern broadcasts over c.
        self._base = 2 * np.arange(2 * k * n).reshape(2, k, n)
        # Row k of a block's candidates is chain k's false-branch claim
        # pattern and row K + k its true-branch one.
        self._rows_false = np.arange(k)
        self._rows_true = self._rows_false + k
        state = rng.random((k, n)) < 0.5
        likes = self._table.take(self._base + state).sum(axis=-1)
        self._p_true = _truth_probability(likes[0], likes[1], self._log_z, self._log_1z)

    def advance(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Run ``count`` sweeps: draw ``C | SC`` then redraw ``SC | C``.

        Returns the per-sweep joint masses ``(P(s, C=1), P(s, C=0))``,
        each ``(count, K)``.
        """
        k, n = self.n_chains, self.n_sources
        if self.deadline is not None:
            self.deadline.check(
                "gibbs-sweep", n_sweeps=self.n_sweeps, n_chains=k, n_sources=n
            )
        self.n_sweeps += count
        observability.count("kernels.gibbs.sweeps", count)
        draws = self.rng.random((count, k + k * n))
        claim_draws = draws[:, k:]
        candidates = np.empty((count, 2, k * n), dtype=bool)
        np.less(claim_draws, self.tables.rate_false.ravel(), out=candidates[:, 0])
        np.less(claim_draws, self.tables.rate_true.ravel(), out=candidates[:, 1])
        likes = np.empty((count, 2, k))
        take, base = self._table.take, self._base
        rows_true, rows_false = self._rows_true, self._rows_false
        log_z, log_1z = self._log_z, self._log_1z
        p_true = self._p_true
        for truth_draw, candidate, like in zip(
            draws[:, :k], candidates.reshape(count, 2 * k, n), likes
        ):
            rows = np.where(truth_draw < p_true, rows_true, rows_false)
            # A contiguous row sum per (c, k): the same pairwise order
            # as summing one chain's sources on their own.
            np.add.reduce(take(base + candidate.take(rows, axis=0)), axis=-1, out=like)
            p_true = _truth_probability(like[0], like[1], log_z, log_1z)
        self._p_true = p_true
        joints = np.exp(likes + self.tables.log_prior[:, None])
        return joints[:, 0], joints[:, 1]


__all__ = [
    "BLOCK_CELLS",
    "BLOCK_SWEEPS",
    "BlockedGibbsChains",
    "GibbsTables",
    "RATE_EPS",
    "block_sweeps",
]
