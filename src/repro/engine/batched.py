"""Batched tensor execution: many EM lanes as one ``(B, n, m)`` pass.

The paper's evaluation fits the *same-shaped* EM-Ext problem dozens of
times — R restarts × T trials per sweep point — and at Fig. 7 sizes a
single fit is kernel-launch-bound, not FLOP-bound.  This module stacks
B independent fits ("lanes") into C-contiguous ``(B, n, m)`` claim and
dependency tensors plus one ``(B·4n, 2)`` truth-pair log table and runs
every E-step / M-step / column-log-likelihood over all lanes at once,
amortising the per-call NumPy dispatch across the whole batch.

Lane model
----------
A *lane* is one serial EM run: either one restart of a shared problem
or one trial's distinct problem.  :meth:`BatchedDenseBackend.from_backends`
takes one scalar backend per lane; when every lane names the same
backend object (restart lanes) the data stays a broadcast ``(1, n, m)``
view — no copies — and otherwise same-shape problems are stacked.
Lanes never interact: every batched kernel reduces along the source
axis or multiplies ``(·, n, m) @ (B, m, 1)`` stacked mat-vecs, both of
which NumPy evaluates lane-wise with exactly the serial kernel's
reduction order.  That is the *parity contract*: lane ``b`` of a
batched run is **bit-for-bit** the serial fit of that lane alone —
parameters, posterior, log-likelihood trace, iteration count and fault
messages — pinned by ``tests/engine/test_batched.py``.

Because these problems are launch-bound, the batched step keeps its
NumPy call count close to *one serial iteration's* rather than B of
them.  The tricks, each bitwise-neutral:

* the four rates live in one C-contiguous ``(B, 4, n)`` tensor, each
  lane a :meth:`~repro.core.model.SourceParameters._rate_block` with
  rows ``[a, b, f, g]``, so clamping, convergence deltas and the NaN
  fault probe are single fused calls (elementwise ops don't care about
  stacking; max and NaN-ness are order-insensitive);
* the M-step ratio is one :func:`~repro.engine.statistics.ratio_update`
  over C-contiguous ``(B, 4, n)`` count blocks (Equations 10–14 share
  the ratio form).  Smoothing's pooled sums run along each contiguous
  source row, the serial block's summation order; over a strided view
  of the same block they would change bits;
* every lane's log table is a block of one truth-pair table (see
  :mod:`repro.kernels.tables`), so the true and false column
  log-likelihoods of all lanes are a *single* ``take`` of the
  lane-offset cell codes;
* the E-step posterior and the Equation (7) totals come from the
  scalar backends' own log-sum-exp
  (:func:`~repro.core.likelihood.posterior_and_log_likelihood`), which
  takes one prior per lane.

Three formulations are deliberately avoided because they break bitwise
parity: ``(n, m) @ (m, B)`` GEMM and stacked ``(·, m, 2)`` multi-vector
products evaluate columns with a different accumulation pattern than
the serial GEMV, and ``np.einsum`` reorders the reduction.  Like the
scalar backends, the lanes do not group identical columns (see
:mod:`repro.engine.backends` for why).

Convergence masking
-------------------
Each pass computes every active lane; lanes that converge, diverge or
fault *retire* — their finished :class:`~repro.engine.driver.DriverOutcome`
is captured and the remaining stacks are compacted with a fancy-index
(bitwise-neutral) so later passes shrink instead of dragging finished
lanes along.  Faulted lanes (NaN-poisoned M-steps) retire with the
exact error string the serial loop would have raised, so the driver's
health ledger cannot tell the modes apart.

Observability (PR 8 transparency guarantee applies: everything below
is a no-op when no session is active and changes no numerics):

* ``engine.batched.lanes`` — lanes launched;
* ``engine.batched.lane_retirements`` — lanes retired before the
  iteration cap;
* ``engine.batched.occupancy`` — histogram of active lanes per pass
  (mean occupancy ≈ batch efficiency);
* ``em.iterations`` is counted per *lane* iteration, keeping counter
  totals identical to the serial loop.

Each lane records its own :class:`~repro.core.model.ParameterTrace`,
bit for bit the serial one; wall time is only measured per batch
(the ``engine.batched.run`` span), since lanes share every pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro import observability
from repro.core.likelihood import posterior_and_log_likelihood
from repro.core.model import (
    DEFAULT_EPSILON,
    ParameterTrace,
    SourceParameters,
    clip_rates,
)
from repro.engine.driver import DriverOutcome
from repro.engine.statistics import ratio_update
from repro.kernels.likelihood import (
    batched_flat_claim_codes,
    lane_offset_codes,
    pair_column_log_likelihoods,
)
from repro.kernels.tables import pair_table
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.backends import DenseBackend
    from repro.resilience.supervisor import Deadline

#: The serial M-step's fault messages, verbatim (`type(e).__name__: e`
#: formatting as in ``EMDriver._serial_candidates``), so a retired lane
#: is indistinguishable from a raised serial restart in the health
#: ledger.
_RATES_FAULT = (
    "ValidationError: M-step produced non-finite rates; the claim "
    "matrix likely contains NaN or infinite entries"
)
_Z_FAULT = "ValidationError: z must be a probability, got NaN"


@dataclass(frozen=True)
class BatchedSourceParameters:
    """B stacked :class:`~repro.core.model.SourceParameters` lanes.

    The four rates live in one C-contiguous ``(B, 4, n)`` tensor whose
    lane ``b`` is that lane's ``(4, n)`` ``[a, b, f, g]`` rate block;
    the prior ``z`` is ``(B,)``.  The single tensor lets clamping,
    convergence deltas and the fault probe run as one fused NumPy call
    each instead of four — the per-call dispatch is what dominates at
    paper sizes.  Immutable like its scalar twin; all update operations
    return new instances.
    """

    rates: np.ndarray
    z: np.ndarray

    @classmethod
    def stack(
        cls, params: Sequence[SourceParameters]
    ) -> "BatchedSourceParameters":
        """Stack validated scalar parameter sets into ``(B, 4, n)`` lanes."""
        if not params:
            raise ValidationError("cannot stack an empty parameter sequence")
        sizes = {p.n_sources for p in params}
        if len(sizes) != 1:
            raise ValidationError(
                f"cannot stack parameters over different source counts: {sorted(sizes)}"
            )
        rates = np.empty((len(params), 4, sizes.pop()))
        z = np.empty(len(params))
        for index, p in enumerate(params):
            rates[index] = p._rate_block()
            z[index] = p.z
        return cls(rates=rates, z=z)

    @property
    def n_lanes(self) -> int:
        return self.rates.shape[0]

    @property
    def n_sources(self) -> int:
        return self.rates.shape[2]

    def lane(self, index: int) -> SourceParameters:
        """Lane ``index`` as a scalar parameter set (a fresh rate block).

        The rows were produced by validated constructions or by a
        clamped M-step, so the no-revalidation constructor applies.
        """
        return SourceParameters._from_rates(
            self.rates[index].copy(), float(self.z[index])
        )

    def select(self, keep: np.ndarray) -> "BatchedSourceParameters":
        """The sub-batch of lanes ``keep`` (fancy-index compaction)."""
        return BatchedSourceParameters(rates=self.rates[keep], z=self.z[keep])

    def max_difference(self, other: "BatchedSourceParameters") -> np.ndarray:
        """Per-lane convergence deltas, ``(B,)``.

        Lane ``b`` equals ``lane(b).max_difference(other.lane(b))``
        bitwise: max is an exact, order-insensitive reduction, so the
        fused max over each lane's ``(4, n)`` rate block matches the
        serial max over the same block plus ``|z diff|``.
        """
        if self.n_sources:
            delta = np.abs(self.rates - other.rates).max(axis=(1, 2))
        else:
            delta = np.zeros(self.n_lanes)
        np.maximum(delta, np.abs(self.z - other.z), out=delta)
        return delta

    def lane_faults(self) -> Optional[List[Optional[str]]]:
        """Per-lane M-step fault messages, or ``None`` when all clean.

        Mirrors the serial guard order: the aggregate rates NaN probe
        of the dense M-step fires first, then the scalar ``z``
        probability check — each with the serial exception's message so
        health ledgers match string-for-string.  NaN-ness of a sum is
        summation-order-independent (rates are NaN or in ``[0, 1]``, so
        no infinities can cancel), hence one fused reduction suffices.
        """
        rates_nan = np.isnan(self.rates.sum(axis=(1, 2)))
        z_nan = np.isnan(self.z)
        if not (rates_nan.any() or z_nan.any()):
            return None
        faults: List[Optional[str]] = [None] * self.n_lanes
        for index in np.flatnonzero(rates_nan | z_nan):
            faults[index] = _RATES_FAULT if rates_nan[index] else _Z_FAULT
        return faults


class BatchedDenseBackend:
    """Dense backend running B same-shape lanes per kernel call.

    Build via :meth:`from_backends`, one scalar backend per lane.  The
    EM-step API
    mirrors :class:`~repro.engine.backends.DenseBackend` with a lane
    axis prepended; :meth:`compact` drops retired lanes.
    """

    def __init__(
        self,
        sc: np.ndarray,
        dep: np.ndarray,
        *,
        n_lanes: int,
        smoothing: float = 0.0,
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        if sc.ndim != 3 or dep.shape != sc.shape:
            raise ValidationError(
                f"expected matching (lanes, n, m) stacks, got {sc.shape} and {dep.shape}"
            )
        if sc.shape[0] not in (1, n_lanes):
            raise ValidationError(
                f"stack carries {sc.shape[0]} lanes but {n_lanes} were requested"
            )
        self.smoothing = smoothing
        self.epsilon = epsilon
        self.n_lanes = n_lanes
        self.sc = sc
        self.dep = dep
        self.indep = 1.0 - dep
        self.sc_indep = sc * self.indep
        self.sc_dep = sc * dep
        #: ``(1 | B, n, m)`` pair-table rows without lane offsets.
        self._base_codes = batched_flat_claim_codes(sc != 0, dep != 0)
        self._set_lane_codes()

    def _set_lane_codes(self) -> None:
        """(Re)derive the lane-offset gather codes from the base codes."""
        self._lane_codes = lane_offset_codes(
            self._base_codes, self.n_sources, self.n_lanes
        )

    @classmethod
    def from_backends(
        cls, backends: Sequence["DenseBackend"]
    ) -> "BatchedDenseBackend":
        """One lane per same-shape scalar backend.

        When every lane is the same backend object (the restarts of one
        problem) the lanes share its matrices as broadcast
        ``(1, n, m)`` views, which :meth:`compact` never copies;
        distinct backends (trial packs, serving batches) are stacked.
        """
        if not backends:
            raise ValidationError("cannot batch an empty backend sequence")
        shapes = {b.sc.shape for b in backends}
        if len(shapes) != 1:
            raise ValidationError(
                f"cannot batch backends over different shapes: {sorted(shapes)}"
            )
        settings = {(b.smoothing, b.epsilon) for b in backends}
        if len(settings) != 1:
            raise ValidationError(
                "cannot batch backends with different smoothing/epsilon settings"
            )
        first = backends[0]
        if all(b is first for b in backends):
            sc, dep = first.sc[None], first.dep[None]
        else:
            sc = np.stack([b.sc for b in backends])
            dep = np.stack([b.dep for b in backends])
        return cls(
            sc,
            dep,
            n_lanes=len(backends),
            smoothing=backends[0].smoothing,
            epsilon=backends[0].epsilon,
        )

    @property
    def n_sources(self) -> int:
        return self.sc.shape[1]

    @property
    def n_assertions(self) -> int:
        return self.sc.shape[2]

    def compact(self, keep: np.ndarray) -> "BatchedDenseBackend":
        """The sub-batch of lanes ``keep``.

        Shared-problem stacks (and their precomputed products and base
        codes) are reused as-is — only the lane-offset codes change;
        per-lane stacks are fancy-indexed, which copies values verbatim
        into fresh C-contiguous tensors.  Either way no product or code
        is *recomputed*, so compaction is bitwise-neutral and cheap.
        """
        cls = type(self)
        new = cls.__new__(cls)
        new.smoothing = self.smoothing
        new.epsilon = self.epsilon
        new.n_lanes = int(len(keep))
        if self.sc.shape[0] == 1:
            new.sc = self.sc
            new.dep = self.dep
            new.indep = self.indep
            new.sc_indep = self.sc_indep
            new.sc_dep = self.sc_dep
            new._base_codes = self._base_codes
        else:
            new.sc = self.sc[keep]
            new.dep = self.dep[keep]
            new.indep = self.indep[keep]
            new.sc_indep = self.sc_indep[keep]
            new.sc_dep = self.sc_dep[keep]
            new._base_codes = self._base_codes[keep]
        new._set_lane_codes()
        return new

    # -- EM steps ----------------------------------------------------------------

    def m_step(
        self, posterior: np.ndarray, previous: BatchedSourceParameters
    ) -> BatchedSourceParameters:
        """Equations (10)–(14) over all lanes at once.

        Every product is a stacked mat-vec
        ``(1|B, n, m) @ (B, m, 1)`` — NumPy dispatches these to the
        same per-lane GEMV the serial backend uses, so the counts (and
        hence the ratios) are bitwise lane-for-lane serial.  They land
        in C-contiguous ``(B, 4, n)`` count blocks, so one ratio update
        covers every lane and rate, smoothed or not, in the serial
        summation order.  No fault is raised here: poisoned lanes
        surface via :meth:`BatchedSourceParameters.lane_faults` and
        retire alone instead of aborting the batch.
        """
        z_post = posterior[:, :, None]  # (B, m, 1)
        y_post = 1.0 - z_post
        # Each stacked mat-vec is (B, n, 1); as (B, 1, n) rows they join
        # into C-contiguous (B, 4, n) numerator and denominator blocks.
        numerators, denominators = (
            np.concatenate(
                (
                    np.matmul(independent, z_post).transpose(0, 2, 1),
                    np.matmul(independent, y_post).transpose(0, 2, 1),
                    np.matmul(dependent, z_post).transpose(0, 2, 1),
                    np.matmul(dependent, y_post).transpose(0, 2, 1),
                ),
                axis=1,
            )
            for independent, dependent in (
                (self.sc_indep, self.sc_dep),
                (self.indep, self.dep),
            )
        )
        rates = ratio_update(
            numerators,
            denominators,
            smoothing=self.smoothing,
            fallback=previous.rates,
        )
        z = (
            posterior.sum(axis=1) / posterior.shape[1]
            if posterior.shape[1]
            else previous.z
        )
        # SourceParameters.clamp over the rate stack (in place: `rates`
        # is fresh).
        return BatchedSourceParameters(
            rates=clip_rates(rates, self.epsilon, out=rates),
            z=clip_rates(z, self.epsilon),
        )

    def _columns(self, params: BatchedSourceParameters) -> np.ndarray:
        """Per-lane column log-likelihoods, ``(B, m, 2)``."""
        return pair_column_log_likelihoods(self._lane_codes, pair_table(params.rates))

    def posterior(self, params: BatchedSourceParameters) -> np.ndarray:
        """Equation (9) truth posterior, ``(B, m)``."""
        return posterior_and_log_likelihood(self._columns(params), params.z)[0]

    def e_step(
        self, params: BatchedSourceParameters
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-lane posterior ``(B, m)`` plus log likelihood ``(B,)``."""
        return posterior_and_log_likelihood(self._columns(params), params.z)


@dataclass
class BatchedLaneResult:
    """What one lane of a batched run produced.

    Exactly one of ``outcome`` / ``error`` is set, matching the
    ``(index, candidate, error)`` triples the driver's candidate
    streams yield.
    """

    outcome: Optional[DriverOutcome]
    error: Optional[str]


def run_batched_lanes(
    backend: BatchedDenseBackend,
    initial_params: Sequence[SourceParameters],
    *,
    max_iterations: int,
    tolerance: float,
    deadline: Optional[float] = None,
    budget: Optional["Deadline"] = None,
) -> List[BatchedLaneResult]:
    """Run every lane to its own fixed point in shared batched passes.

    The per-lane loop semantics replicate ``EMDriver.run`` exactly —
    record the trace, then divergence check, then tolerance, then
    wall deadline, then cooperative budget — with one structural
    difference: a wall ``deadline`` or a supervision ``budget`` cuts
    the *whole batch* at a pass boundary (all still-active lanes are
    marked ``budget_exhausted`` / the ``DeadlineExceeded`` propagates),
    because lanes share each pass's wall clock.  Timing-dependent
    budgets were never bitwise-reproducible, serial or not.
    """
    n_lanes = len(initial_params)
    if n_lanes != backend.n_lanes:
        raise ValidationError(
            f"{n_lanes} initialisations for a {backend.n_lanes}-lane backend"
        )
    observability.count("engine.batched.lanes", n_lanes)
    params = BatchedSourceParameters.stack(initial_params)
    traces = [ParameterTrace() for _ in range(n_lanes)]
    results: List[Optional[BatchedLaneResult]] = [None] * n_lanes
    #: results index of each still-active lane, in lane order.
    active = np.arange(n_lanes)

    def _retire(lane: int, result: BatchedLaneResult) -> None:
        results[lane] = result
        observability.count("engine.batched.lane_retirements")

    def _finish(
        lane: int,
        position: int,
        current: BatchedSourceParameters,
        posterior: np.ndarray,
        *,
        converged: bool = False,
        diverged: bool = False,
        budget_exhausted: bool = False,
    ) -> BatchedLaneResult:
        outcome = DriverOutcome(
            parameters=current.lane(position),
            posterior=posterior[position].copy(),
            trace=traces[lane],
            converged=converged,
            diverged=diverged,
            budget_exhausted=budget_exhausted,
        )
        return BatchedLaneResult(outcome=outcome, error=None)

    with observability.span(
        "engine.batched.run", n_lanes=n_lanes, max_iterations=max_iterations
    ):
        posterior = backend.posterior(params)
        for iteration in range(max_iterations):
            if not active.size:
                break
            observability.observe_value("engine.batched.occupancy", active.size)
            observability.count("em.iterations", active.size)
            new_params = backend.m_step(posterior, params)
            faults = new_params.lane_faults()
            if faults is not None:
                # Serial parity: the faulted lane raised inside m_step,
                # before this iteration's trace record, and yields no
                # candidate.
                for position in np.flatnonzero(
                    [fault is not None for fault in faults]
                ):
                    _retire(
                        int(active[position]),
                        BatchedLaneResult(outcome=None, error=faults[position]),
                    )
                keep = np.flatnonzero([fault is None for fault in faults])
                active = active[keep]
                if not active.size:
                    break
                new_params = new_params.select(keep)
                params = params.select(keep)
                posterior = posterior[keep]
                backend = backend.compact(keep)
            deltas = new_params.max_difference(params)
            params = new_params
            posterior, log_likelihoods = backend.e_step(params)
            # Python-float views of the per-lane numbers: `tolist`
            # round-trips float64 exactly, and `math.isfinite` on the
            # result matches `np.isfinite` — this keeps the per-lane
            # bookkeeping below free of per-element NumPy dispatch.
            delta_list = deltas.tolist()
            ll_list = log_likelihoods.tolist()
            retire_positions: List[int] = []
            past_deadline = (
                deadline is not None and time.perf_counter() >= deadline
            )
            for position in range(active.size):
                lane = int(active[position])
                delta = delta_list[position]
                log_likelihood = ll_list[position]
                traces[lane].record(log_likelihood, delta)
                if not (math.isfinite(delta) and math.isfinite(log_likelihood)):
                    _retire(
                        lane,
                        _finish(lane, position, params, posterior, diverged=True),
                    )
                    retire_positions.append(position)
                elif delta < tolerance:
                    _retire(
                        lane,
                        _finish(lane, position, params, posterior, converged=True),
                    )
                    retire_positions.append(position)
                elif past_deadline:
                    _retire(
                        lane,
                        _finish(
                            lane, position, params, posterior,
                            budget_exhausted=True,
                        ),
                    )
                    retire_positions.append(position)
            if retire_positions:
                keep = np.setdiff1d(
                    np.arange(active.size), np.asarray(retire_positions)
                )
                active = active[keep]
                if active.size:
                    params = params.select(keep)
                    posterior = posterior[keep]
                    backend = backend.compact(keep)
            if budget is not None and active.size:
                budget.check(
                    "run_batched_lanes",
                    iteration=iteration,
                    active_lanes=int(active.size),
                )
        # Lanes still active hit the iteration cap: exhausted, like the
        # serial loop falling out of `range(max_iterations)`.
        for position in range(active.size):
            lane = int(active[position])
            results[lane] = _finish(lane, position, params, posterior)
    return [result for result in results if result is not None]


__all__ = [
    "BatchedDenseBackend",
    "BatchedLaneResult",
    "BatchedSourceParameters",
    "run_batched_lanes",
]
