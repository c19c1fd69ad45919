"""Tractable approximation of the error bound (Section III-B, Algorithm 1).

Exact enumeration of the bound is exponential in the number of sources.
The paper instead samples claim patterns with a Gibbs chain whose
stationary distribution is the marginal

.. math::
    p(SC_j) = P(SC_j | C_j = 1; D, θ)\\, z
            + P(SC_j | C_j = 0; D, θ)\\,(1 - z),

and averages a per-sample error statistic (Equation 6).

Two estimator modes are offered (DESIGN.md §5.1):

* ``"posterior-mean"`` (default) — averages the per-sample posterior
  error ``min(joint_1, joint_0) / (joint_1 + joint_0)``; this is the
  mathematically consistent reading of Equation 6 whose expectation is
  exactly the Bayes risk, because the sample's own probability cancels
  the sampling density.
* ``"ratio"`` — the literal accumulation of Algorithm 1's pseudocode,
  ``Σ min / Σ (joint_1 + joint_0)``.  Kept for fidelity and comparison;
  it is biased (its limit is ``E_p[min]/E_p[p]``, not ``Σ min``).

Implementation note: a problem has one bound per *distinct* dependency
column, so the sampler runs one chain per unique column.  Chains are
advanced by the blocked sweeps of
:class:`repro.kernels.gibbs.BlockedGibbsChains` — each sweep draws the
latent truth from its exact conditional and then redraws the whole
claim block at once — a block of sweeps at a time: one ``rng.random``
call and two comparisons per block, and per sweep only the truth draw,
one ``take`` of the drawn claim pattern's log rates and their sums.
Equation (6) is accumulated per block, in sweep order, and blocks end
where sampling may stop, so the result is bit for bit that of advancing
one sweep at a time.  All rate clamps, log tables and column weights are
hoisted into :class:`~repro.kernels.gibbs.GibbsTables`, built once per
run.  (The historical per-source scan sampler survives
as :mod:`repro.kernels.reference` for the benchmark harness; the two
kernels target the same marginal and agree within Monte-Carlo error,
but draw different random streams.)

Passing ``parallel`` (a :class:`~repro.parallel.ParallelConfig`)
switches to the *sharded* sampler: each distinct dependency column gets
its own chain with a ``SeedSequence``-spawned child seed, the chains
run independently (possibly in worker processes) and the per-column
bounds are merged by column multiplicity.  Because the shard
decomposition and child seeds depend only on the problem and the master
seed — never on ``n_jobs`` — a sharded run is bit-for-bit identical for
any worker count (the joint default sampler, which advances all chains
under one RNG, remains the byte-stable single-process path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # deferred to keep the bounds import-light
    from repro.resilience.supervisor import Deadline

from repro import observability
from repro.bounds.exact import BoundResult, _emission_rates
from repro.core.model import SourceParameters
from repro.data.coerce import as_dependency_array
from repro.kernels.dedup import group_columns
from repro.kernels.gibbs import RATE_EPS, BlockedGibbsChains, GibbsTables, block_sweeps
from repro.parallel.config import ParallelConfig
from repro.parallel.executor import parallel_map
from repro.utils.errors import ValidationError
from repro.utils.rng import RandomState, SeedLike, spawn_rngs
from repro.utils.validation import check_in_choices, check_positive_int

_MODES = ("posterior-mean", "ratio")

#: Re-exported for backwards compatibility; the clamp itself now lives
#: with the kernel (:data:`repro.kernels.gibbs.RATE_EPS`).
_RATE_EPS = RATE_EPS


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler hyper-parameters.

    The chains run at least ``min_sweeps`` and at most ``max_sweeps``
    full sweeps after ``burn_in``; every ``check_interval`` sweeps the
    running aggregate estimate is compared with its previous checkpoint
    and sampling stops once the change falls below ``tolerance``
    (Algorithm 1's "while Err not convergent").

    Field types are validated strictly at construction: the integer
    fields reject booleans (``True`` is a valid Python ``int`` but a
    sweep count of ``True`` is always a caller bug), ``tolerance`` must
    be a real number and ``collect_trace`` an actual bool.
    """

    burn_in: int = 100
    min_sweeps: int = 400
    max_sweeps: int = 20000
    check_interval: int = 200
    tolerance: float = 5e-4
    mode: str = "posterior-mean"
    collect_trace: bool = False

    def __post_init__(self) -> None:
        for name in ("burn_in", "min_sweeps", "max_sweeps", "check_interval"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(
                    f"{name} must be an integer, got {value!r} ({type(value).__name__})"
                )
        for name in ("min_sweeps", "max_sweeps", "check_interval"):
            check_positive_int(getattr(self, name), name)
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be non-negative, got {self.burn_in}")
        if self.min_sweeps > self.max_sweeps:
            raise ValidationError("min_sweeps must not exceed max_sweeps")
        if isinstance(self.tolerance, bool) or not isinstance(
            self.tolerance, (int, float, np.floating, np.integer)
        ):
            raise ValidationError(
                f"tolerance must be a number, got {self.tolerance!r} "
                f"({type(self.tolerance).__name__})"
            )
        if not self.tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        check_in_choices(self.mode, "mode", _MODES)
        if not isinstance(self.collect_trace, bool):
            raise ValidationError(
                f"collect_trace must be a bool, got {self.collect_trace!r}"
            )


def _accumulate_bound(chains, weights: np.ndarray, config: GibbsConfig) -> BoundResult:
    """Advance chains block by block, accumulate Equation (6), stop on convergence.

    ``chains`` is any object with ``n_chains``, ``n_sources`` and
    ``advance(count)``, which runs ``count`` sweeps and returns their
    joints ``(P(s, C=1), P(s, C=0))`` as two ``(count, K)`` arrays — the
    blocked kernel in production, the frozen scan sampler in the
    benchmark harness.  The accumulation (the estimator itself) is
    identical for both.

    A block holds at most :func:`~repro.kernels.gibbs.block_sweeps`
    sweeps and ends wherever sampling may stop: after the burn-in, at
    each convergence check and at ``max_sweeps``.  Sampling therefore
    stops at the same sweep, having drawn the same uniforms, as it would
    one sweep at a time.
    """
    k = chains.n_chains
    block = block_sweeps(k, chains.n_sources)
    for done in range(0, config.burn_in, block):
        chains.advance(min(block, config.burn_in - done))

    # Per chain: Σ min/(joint1+joint0), its FP and FN shares, and the
    # literal Algorithm 1 accumulators Σ min and Σ (joint1+joint0).
    sums = np.zeros((5, k))
    n_samples = 0
    previous_estimate = None
    trace = [] if config.collect_trace else None
    next_check = -(-config.min_sweeps // config.check_interval) * config.check_interval

    while n_samples < config.max_sweeps:
        count = min(block, min(next_check, config.max_sweeps) - n_samples)
        joint_true, joint_false = chains.advance(count)
        n_samples += count
        total_mass = joint_true + joint_false
        positive = total_mass > 0
        smaller = np.minimum(joint_true, joint_false)
        contribution = np.where(positive, smaller / np.where(positive, total_mass, 1.0), 0.0)
        if trace is not None:
            # The per-sweep statistic whose running mean is the bound:
            # weight-averaged posterior error of this sweep's samples.
            # A row sum adds in the same (pairwise) order as one sweep's.
            trace.extend(np.sum(weights * contribution, axis=1).tolist())
        decide_true = joint_true > joint_false
        terms = np.stack(
            [
                contribution,
                np.where(decide_true, contribution, 0.0),
                np.where(decide_true, 0.0, contribution),
                smaller,
                total_mass,
            ],
            axis=1,
        )
        # Add the block in sweep order, as per-sweep ``+=`` would: a
        # pairwise ``sum(axis=0)`` reorders the additions (it does for a
        # one-chain block), which changes the bits.
        sums = np.cumsum(np.concatenate([sums[None], terms]), axis=0)[-1]
        if n_samples == next_check:
            err_sum, _, _, ratio_min, ratio_total = sums
            estimate = _aggregate(
                config.mode, err_sum, ratio_min, ratio_total, n_samples, weights
            )
            if (
                previous_estimate is not None
                and abs(estimate - previous_estimate) < config.tolerance
            ):
                break
            previous_estimate = estimate
            next_check += config.check_interval

    err_sum, fp_sum, fn_sum, ratio_min, ratio_total = sums
    total = _aggregate(config.mode, err_sum, ratio_min, ratio_total, n_samples, weights)
    share = fp_sum + fn_sum
    safe_share = np.where(share > 0, share, 1.0)
    per_chain_total = _per_chain(
        config.mode, err_sum, ratio_min, ratio_total, n_samples
    )
    fp = float(np.sum(weights * per_chain_total * fp_sum / safe_share))
    fn = float(np.sum(weights * per_chain_total * fn_sum / safe_share))
    # Guard against the all-zero-share edge case: split evenly.
    degenerate = share <= 0
    if degenerate.any():
        leftover = float(np.sum(weights[degenerate] * per_chain_total[degenerate]))
        fp += leftover / 2.0
        fn += leftover / 2.0
    return BoundResult(
        total=fp + fn if config.mode == "posterior-mean" else total,
        false_positive=fp if config.mode == "posterior-mean" else total * _safe_frac(fp, fp + fn),
        false_negative=fn if config.mode == "posterior-mean" else total * _safe_frac(fn, fp + fn),
        method="gibbs",
        n_samples=n_samples,
        estimate_trace=tuple(trace) if trace is not None else None,
    )


def _run_sampler(
    tables: GibbsTables,
    weights: np.ndarray,
    config: GibbsConfig,
    rng: np.random.Generator,
    deadline: Optional["Deadline"] = None,
) -> BoundResult:
    """Run the blocked chains for prebuilt tables to convergence."""
    with observability.span(
        "bound.gibbs.sample",
        n_chains=tables.n_chains,
        n_sources=tables.n_sources,
    ):
        start = time.perf_counter() if observability.enabled() else None
        chains = BlockedGibbsChains(tables, rng, deadline=deadline)
        result = _accumulate_bound(chains, weights, config)
        if start is not None:
            elapsed = time.perf_counter() - start
            observability.count("bounds.gibbs.sampler_runs")
            observability.count("bounds.gibbs.samples", result.n_samples or 0)
            if elapsed > 0:
                observability.observe_value(
                    "bounds.gibbs.sweeps_per_second", chains.n_sweeps / elapsed
                )
    return result


def _safe_frac(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.5


def _per_chain(
    mode: str,
    err_sum: np.ndarray,
    ratio_min: np.ndarray,
    ratio_total: np.ndarray,
    n_samples: int,
) -> np.ndarray:
    if mode == "posterior-mean":
        return err_sum / max(n_samples, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = ratio_min / ratio_total
    return np.where(ratio_total > 0, ratio, 0.0)


def _aggregate(
    mode: str,
    err_sum: np.ndarray,
    ratio_min: np.ndarray,
    ratio_total: np.ndarray,
    n_samples: int,
    weights: np.ndarray,
) -> float:
    return float(
        np.sum(weights * _per_chain(mode, err_sum, ratio_min, ratio_total, n_samples))
    )


def _column_worker(payload):
    """Run one column's chain to convergence (pool entry point).

    The payload carries an already-built single-row
    :class:`~repro.kernels.gibbs.GibbsTables` — clamping and log-taking
    happened once in the parent, not per worker.  The parent's
    ``Deadline`` travels in the payload: its absolute start instant is
    meaningful across processes on one machine, so every shard honours
    the *remaining* budget, not a fresh one.

    With ``collect`` set (the parent had an observability session open)
    the shard runs under its own session and ships its span trees and
    metrics snapshot back for in-order replay — the parent's session is
    not shared with workers.  Returns ``(result, spans, metrics)``.
    """
    tables, config, rng, deadline, collect = payload
    if collect:
        with observability.observe() as session:
            result = _run_sampler(tables, np.ones(1), config, rng, deadline)
        return result, session.export_spans(), session.metrics.snapshot()
    return _run_sampler(tables, np.ones(1), config, rng, deadline), None, None


def merge_column_bounds(
    results: Sequence[BoundResult], weights: np.ndarray
) -> BoundResult:
    """Combine per-column Gibbs bounds by column multiplicity.

    Both estimator modes split each column's total into additive
    FP/FN shares, so the merged bound is the weighted sum of the
    shares.  ``n_samples`` reports the longest chain; per-column
    convergence traces do not concatenate meaningfully and are dropped
    (use the joint sampler for trace diagnostics).
    """
    if len(results) != len(weights):
        raise ValidationError(
            f"{len(results)} column results but {len(weights)} weights"
        )
    fp = float(sum(w * r.false_positive for w, r in zip(weights, results)))
    fn = float(sum(w * r.false_negative for w, r in zip(weights, results)))
    n_samples = max((r.n_samples or 0) for r in results)
    return BoundResult(
        total=fp + fn,
        false_positive=fp,
        false_negative=fn,
        method="gibbs",
        n_samples=n_samples,
    )


def _sharded_bound(
    tables: GibbsTables,
    weights: np.ndarray,
    config: GibbsConfig,
    seed: SeedLike,
    parallel: ParallelConfig,
    deadline: Optional["Deadline"] = None,
) -> BoundResult:
    """One independent chain per distinct column, fanned out and merged."""
    n_columns = tables.n_chains
    rngs = spawn_rngs(seed, n_columns)
    collect = observability.enabled()
    payloads: List[tuple] = [
        (tables.row(index), config, rngs[index], deadline, collect)
        for index in range(n_columns)
    ]
    with observability.span("bound.gibbs.sharded", n_columns=n_columns):
        outcomes = parallel_map(_column_worker, payloads, config=parallel)
        results = []
        for result, spans, metrics in outcomes:
            results.append(result)
            if spans:
                observability.graft(spans)
            observability.merge_metrics(metrics)
    return merge_column_bounds(results, weights)


def gibbs_bound(
    dependency: np.ndarray,
    params: SourceParameters,
    *,
    config: Optional[GibbsConfig] = None,
    seed: SeedLike = None,
    parallel: Optional[ParallelConfig] = None,
    deadline: Optional["Deadline"] = None,
) -> BoundResult:
    """Gibbs-approximated bound for a D matrix (or one column).

    As with :func:`repro.bounds.exact.exact_bound`, identical dependency
    columns share a chain.  By default all chains advance together under
    one RNG; with ``parallel`` each chain runs independently under a
    ``SeedSequence``-spawned child seed (possibly in worker processes),
    which makes the result invariant to ``n_jobs`` — see the module
    docstring.

    ``dependency`` may be a raw array or column, a
    ``DependencyMatrix``, a scipy sparse matrix, or a whole sensing
    problem in either format (its D matrix is used) — see
    :func:`repro.data.as_dependency_array`.

    ``deadline`` (a :class:`repro.resilience.supervisor.Deadline`) is
    checked cooperatively once per block of sweeps, so a check comes at
    most :data:`~repro.kernels.gibbs.BLOCK_SWEEPS` sweeps after the
    deadline passes; on expiry :class:`~repro.utils.errors.DeadlineExceeded`
    carries context ``"gibbs-sweep"`` and the sweeps, chains and sources
    in its progress.  The check never touches the random stream, so a
    run under a never-expiring deadline is bit-identical to a run
    without one.
    """
    config = config or GibbsConfig()
    dep = as_dependency_array(dependency)
    if dep.ndim == 1:
        columns = dep[None, :]
        weights = np.ones(1)
    elif dep.ndim == 2:
        unique_cols, counts = group_columns(dep)
        columns = unique_cols
        weights = counts / dep.shape[1]
    else:
        raise ValidationError(f"dependency must be 1-D or 2-D, got {dep.shape}")
    rate_true = np.empty((columns.shape[0], params.n_sources))
    rate_false = np.empty_like(rate_true)
    for index, column in enumerate(columns):
        rate_true[index], rate_false[index] = _emission_rates(column, params)
    tables = GibbsTables.build(rate_true, rate_false, params.z)
    if parallel is not None:
        return _sharded_bound(tables, weights, config, seed, parallel, deadline)
    return _run_sampler(tables, weights, config, RandomState(seed), deadline)


def gibbs_column_bound(
    d_column: np.ndarray,
    params: SourceParameters,
    *,
    config: Optional[GibbsConfig] = None,
    seed: SeedLike = None,
    deadline: Optional["Deadline"] = None,
) -> BoundResult:
    """Approximate the bound for a single dependency column."""
    column = np.asarray(d_column)
    if column.ndim != 1:
        raise ValidationError(f"d_column must be 1-D, got shape {column.shape}")
    return gibbs_bound(column, params, config=config, seed=seed, deadline=deadline)


__all__ = [
    "GibbsConfig",
    "gibbs_bound",
    "gibbs_column_bound",
    "merge_column_bounds",
]
