"""Repeated-trial simulation harness (Section V-B's experiment loop).

One *trial* = generate a synthetic dataset, run every algorithm on it
(without ground truth), score against ground truth, and optionally
compute the "Optimal" ceiling (``1 − Err`` from the error bound with
oracle parameters).  The harness repeats trials with independent seeds
and aggregates means and standard deviations — the paper uses 20 trials
for bound experiments and 300 for estimator experiments.

Fault tolerance
---------------
Long sweeps must survive individual failures.  Two orthogonal layers:

* a :class:`~repro.resilience.policy.FailurePolicy` decides what
  happens when one algorithm fails inside one trial (``fail_fast`` —
  historical behaviour and default — ``skip``, or ``retry`` with
  deterministic reseeding); every skip/retry lands in the result's
  :attr:`SimulationResult.failures` ledger instead of disappearing;
* ``checkpoint_path`` enables periodic *atomic* checkpointing, so an
  interrupted sweep resumes from the last completed trial and — because
  the harness replays the master RNG draws of completed trials — ends
  bit-for-bit identical to an uninterrupted run with the same seed.

Parallelism
-----------
Trials are independent given their seeds, so ``parallel`` (a
:class:`~repro.parallel.ParallelConfig`) fans the per-trial fitting and
scoring out across worker processes.  The parent performs *every*
master-RNG draw — dataset generation and trial/optimal seed derivation
— in trial order before dispatch, and consumes worker results in trial
order, so a parallel sweep is bit-for-bit identical to a serial one and
composes unchanged with the failure policy, the ledger, and
checkpoint/resume (the checkpoint loop sees the same ordered stream of
completed trials).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import observability
from repro.baselines import ALGORITHM_REGISTRY, make_fact_finder
from repro.bounds import (
    GibbsConfig,
    MAX_EXACT_SOURCES,
    bound_cascade,
    exact_bound,
    gibbs_bound,
)
from repro.core.em_ext import EMConfig
from repro.data.coerce import coerce_problem
from repro.data.protocol import FORMATS, FORMAT_DENSE
from repro.eval.metrics import ClassificationMetrics, score_result
from repro.parallel import ParallelConfig, parallel_imap
from repro.resilience.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    simulation_fingerprint,
)
from repro.resilience.policy import (
    ACTION_RETRIED,
    ACTION_SHORT_CIRCUITED,
    ACTION_SKIPPED,
    ACTION_TIMED_OUT,
    FAIL_FAST,
    FailurePolicy,
    TrialFailure,
    retry_seed,
)
from repro.resilience.supervisor import BreakerConfig, CircuitBreaker, Deadline
from repro.synthetic import GeneratorConfig, SyntheticGenerator, empirical_parameters
from repro.utils.errors import DataError, ValidationError
from repro.utils.rng import RandomState, SeedLike, derive_seed

#: Registry key used for the transformed error bound in result tables.
OPTIMAL_KEY = "optimal"


@dataclass
class AlgorithmSeries:
    """Per-trial metric series of one algorithm."""

    accuracy: List[float] = field(default_factory=list)
    false_positive_rate: List[float] = field(default_factory=list)
    false_negative_rate: List[float] = field(default_factory=list)

    def record(self, metrics: ClassificationMetrics) -> None:
        """Append one trial's metrics."""
        self.accuracy.append(metrics.accuracy)
        self.false_positive_rate.append(metrics.false_positive_rate)
        self.false_negative_rate.append(metrics.false_negative_rate)

    def mean(self, metric: str = "accuracy") -> float:
        """Mean of a metric series."""
        return float(np.mean(getattr(self, metric))) if getattr(self, metric) else float("nan")

    def std(self, metric: str = "accuracy") -> float:
        """Standard deviation of a metric series."""
        series = getattr(self, metric)
        return float(np.std(series)) if series else float("nan")


@dataclass
class SimulationResult:
    """Aggregated outcome of one repeated-trial experiment point.

    ``failures`` is the per-algorithm failure ledger: one
    :class:`~repro.resilience.policy.TrialFailure` per skipped or
    retried fit (empty for fault-free runs and under ``fail_fast``).
    """

    config: GeneratorConfig
    n_trials: int
    series: Dict[str, AlgorithmSeries]
    failures: List[TrialFailure] = field(default_factory=list)

    def mean_accuracy(self, algorithm: str) -> float:
        """Mean accuracy of one algorithm (or ``"optimal"``)."""
        return self.series[algorithm].mean("accuracy")

    def failure_counts(self) -> Dict[str, Dict[str, int]]:
        """Ledger digest: algorithm → action (``retried``/``skipped``) → count."""
        counts: Dict[str, Dict[str, int]] = {}
        for failure in self.failures:
            per_algorithm = counts.setdefault(failure.algorithm, {})
            per_algorithm[failure.action] = per_algorithm.get(failure.action, 0) + 1
        return counts

    def n_skipped(self, algorithm: str) -> int:
        """Trials whose metrics are missing for ``algorithm`` (skipped fits)."""
        return sum(
            1
            for failure in self.failures
            if failure.algorithm == algorithm and failure.action == ACTION_SKIPPED
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Nested dict: algorithm → metric → mean."""
        return {
            name: {
                "accuracy": s.mean("accuracy"),
                "false_positive_rate": s.mean("false_positive_rate"),
                "false_negative_rate": s.mean("false_negative_rate"),
            }
            for name, s in self.series.items()
        }


def _optimal_metrics(
    problem, bound_config, exact_limit, seed, deadline_seconds=None
) -> ClassificationMetrics:
    """The bound's accuracy ceiling expressed as pseudo-metrics.

    With ``deadline_seconds`` set the bound runs through
    :func:`repro.bounds.bound_cascade` under a fresh
    :class:`~repro.resilience.supervisor.Deadline` — a blown budget
    degrades to a cheaper tier instead of hanging the trial.
    """
    problem = coerce_problem(problem, needs=FORMAT_DENSE)
    params = empirical_parameters(problem).clamp(1e-4)
    dependency = problem.dependency.values
    if deadline_seconds is not None:
        outcome = bound_cascade(
            dependency,
            params,
            deadline=Deadline.after(deadline_seconds),
            config=bound_config,
            seed=seed,
        )
        bound = outcome.bound
    elif problem.n_sources <= exact_limit:
        bound = exact_bound(dependency, params)
    else:
        bound = gibbs_bound(dependency, params, config=bound_config, seed=seed)
    n_true = int(problem.truth.sum())
    n_false = problem.n_assertions - n_true
    z = params.z
    # Convert probability mass into the paper's per-class rates.
    fp_rate = bound.false_positive / (1.0 - z) if z < 1.0 else 0.0
    fn_rate = bound.false_negative / z if z > 0.0 else 0.0
    return ClassificationMetrics(
        accuracy=1.0 - bound.total,
        false_positive_rate=fp_rate,
        false_negative_rate=fn_rate,
        n_assertions=problem.n_assertions,
        n_true=n_true,
        n_false=n_false,
    )


@dataclass(frozen=True)
class _TrialTask:
    """One trial's parent-derived inputs (picklable worker payload)."""

    trial: int
    problem: object  # sensing problem (either storage format) with truth
    trial_seed: int
    optimal_seed: Optional[int]


@dataclass(frozen=True)
class _TrialSpec:
    """Trial-invariant fitting instructions shared by every task."""

    algorithms: Sequence[str]
    include_optimal: bool
    policy: FailurePolicy
    em_config: Optional[EMConfig]
    bound_config: GibbsConfig
    exact_limit: int
    bound_deadline_seconds: Optional[float] = None
    #: Set when the parent has an observability session open and the
    #: trials run in workers: each worker collects its own session and
    #: ships spans + metrics back for in-order replay.
    record_observability: bool = False


@dataclass
class _TrialOutcome:
    """What one trial produced: metrics and ledger entries."""

    trial: int
    metrics: List  # [(name, Optional[ClassificationMetrics]), ...]
    failures: List[TrialFailure]
    #: Worker-side observability payload (empty on the serial path,
    #: where records land in the parent's ambient session directly).
    spans: List = field(default_factory=list)
    obs_metrics: Optional[dict] = None


def _run_trial(
    task: _TrialTask, spec: _TrialSpec, breakers=None, prefit=None
) -> _TrialOutcome:
    """Fit and score every algorithm of one trial (runs in a worker).

    Failure handling is worker-local: under ``skip``/``retry`` the
    ledger entries come back inside the outcome; under ``fail_fast``
    the exception propagates (and, in a pool, is re-raised in the
    parent on this trial's turn).

    ``breakers`` (serial path only — breaker state spans trials and
    cannot live in a worker) maps algorithm names to
    :class:`~repro.resilience.supervisor.CircuitBreaker` instances; a
    fit whose breaker is open is short-circuited into the ledger
    without running.

    ``prefit`` (serial path only, set by ``trial_mode="batched"``) maps
    algorithm names to results computed ahead of time as batched
    lanes.  Because ``retry_seed(base, 0) == base``, attempt 0 of a
    prefit algorithm consumes the lane result — which is bit-for-bit
    the scalar fit; retry attempts reseed and fall through to the
    scalar path.
    """
    problem = task.problem
    blind = problem.without_truth()
    prefit = prefit or {}
    failures: List[TrialFailure] = []
    metrics_by_name = []

    def _supervised(name, base_seed, fit):
        with observability.span("harness.fit", algorithm=name):
            breaker = breakers.get(name) if breakers is not None else None
            if breaker is not None and not breaker.allow():
                failures.append(
                    TrialFailure(
                        trial=task.trial,
                        algorithm=name,
                        attempt=0,
                        error_type="CircuitOpenError",
                        message=str(breaker.call_refused_error(name))[:500],
                        action=ACTION_SHORT_CIRCUITED,
                    )
                )
                observability.count(f"harness.failures.{ACTION_SHORT_CIRCUITED}")
                return None
            metrics = _attempt(fit, task.trial, name, base_seed, spec.policy, failures)
            if breaker is not None:
                if metrics is not None:
                    breaker.record_success()
                else:
                    breaker.record_failure()
            return metrics

    with observability.span("harness.trial", trial=task.trial):
        observability.count("harness.trials")
        for name in spec.algorithms:

            def _fit_and_score(fit_seed: int, name: str = name) -> ClassificationMetrics:
                if name in prefit and fit_seed == task.trial_seed:
                    result = prefit[name]
                    observability.count("harness.batched.prefit_hits")
                else:
                    result = _make(name, fit_seed, spec.em_config).fit(blind)
                if not np.all(np.isfinite(result.scores)):
                    raise DataError(
                        f"{name} produced non-finite scores on trial {task.trial}"
                    )
                return score_result(result, problem.truth)

            metrics = _supervised(name, task.trial_seed, _fit_and_score)
            metrics_by_name.append((name, metrics))
        if spec.include_optimal:
            metrics = _supervised(
                OPTIMAL_KEY,
                task.optimal_seed,
                lambda s: _optimal_metrics(
                    problem,
                    spec.bound_config,
                    spec.exact_limit,
                    s,
                    spec.bound_deadline_seconds,
                ),
            )
            metrics_by_name.append((OPTIMAL_KEY, metrics))
    return _TrialOutcome(
        trial=task.trial, metrics=metrics_by_name, failures=failures
    )


def _trial_worker(payload) -> _TrialOutcome:
    """Pool entry point: unpack one ``(task, spec)`` payload.

    With ``spec.record_observability`` set the trial runs under its own
    worker session (never the forked copy of the parent's) and the
    outcome carries the session's span trees and metrics snapshot for
    in-order replay in the parent.
    """
    task, spec = payload
    if spec.record_observability:
        with observability.observe() as session:
            outcome = _run_trial(task, spec)
        outcome.spans = session.export_spans()
        outcome.obs_metrics = session.metrics.snapshot()
        return outcome
    return _run_trial(task, spec)


def _timed_out_outcome(index, payload, error) -> _TrialOutcome:
    """Substitute outcome for a trial lost to a wedged worker.

    Used as :func:`repro.parallel.parallel_imap`'s ``on_timeout`` hook
    when the failure policy is softer than ``fail_fast``: the wedge
    becomes one ``timed_out`` ledger entry per algorithm (carrying the
    trial's seed so the trial is reproducible in isolation) and the
    sweep keeps going.
    """
    task, spec = payload
    names = list(spec.algorithms)
    if spec.include_optimal:
        names.append(OPTIMAL_KEY)
    message = (
        f"trial {task.trial} (seed {task.trial_seed}) lost to a wedged "
        f"worker: {error}"
    )
    observability.count(f"harness.failures.{ACTION_TIMED_OUT}", len(names))
    return _TrialOutcome(
        trial=task.trial,
        metrics=[(name, None) for name in names],
        failures=[
            TrialFailure(
                trial=task.trial,
                algorithm=name,
                attempt=0,
                error_type=type(error).__name__,
                message=message[:500],
                action=ACTION_TIMED_OUT,
            )
            for name in names
        ],
    )


def run_simulation(
    config: GeneratorConfig,
    *,
    algorithms: Sequence[str] = ("em", "em-social", "em-ext"),
    n_trials: int = 20,
    seed: SeedLike = None,
    include_optimal: bool = True,
    bound_config: Optional[GibbsConfig] = None,
    em_config: Optional[EMConfig] = None,
    exact_limit: int = 20,
    failure_policy: Optional[FailurePolicy] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: int = 1,
    parallel: Optional[ParallelConfig] = None,
    problem_format: str = FORMAT_DENSE,
    breaker_config: Optional[BreakerConfig] = None,
    bound_deadline_seconds: Optional[float] = None,
    trial_mode: str = "serial",
    batch_size: Optional[int] = None,
) -> SimulationResult:
    """Run the Section V-B experiment loop at one parameter point.

    ``exact_limit`` selects the bound backend: exact enumeration up to
    that many sources, Gibbs above (both bounded by
    :data:`MAX_EXACT_SOURCES`).

    The result keeps per-trial metrics and the failure ledger, not
    per-fit iteration records.  An :func:`repro.observability.observe`
    session around the call counts every trial's EM iterations
    (``em.iterations``) and restarts (``em.restarts``), with the same
    totals whether trials run serially, in lane packs or in workers.

    ``failure_policy`` governs per-(trial, algorithm) failures; see
    :class:`~repro.resilience.policy.FailurePolicy`.  The default
    ``fail_fast`` reproduces the historical behaviour exactly.

    ``checkpoint_path`` enables atomic checkpointing every
    ``checkpoint_interval`` trials (requires an integer ``seed``, since
    resume must re-derive the trial seeds).  If the file already holds a
    checkpoint of *this* experiment, the run resumes after its last
    completed trial and produces results identical to an uninterrupted
    run; a checkpoint of a different experiment raises
    :class:`~repro.utils.errors.DataError`.

    ``parallel`` (a :class:`~repro.parallel.ParallelConfig`) fans the
    per-trial fits out across worker processes; results are bit-for-bit
    identical for any ``n_jobs`` (see the module docstring for the
    determinism contract) and compose with every option above.

    ``problem_format`` selects the storage format the generated
    problems are handed to the algorithms in (``"dense"`` — the
    historical default — or ``"csr"``); every registered algorithm
    coerces its input as needed, so this exercises the sparse path
    end-to-end without changing the experiment's statistics.

    ``breaker_config`` (a
    :class:`~repro.resilience.supervisor.BreakerConfig`) wraps every
    algorithm's per-trial fit in its own
    :class:`~repro.resilience.supervisor.CircuitBreaker`: an algorithm
    that keeps failing is short-circuited (``short_circuited`` ledger
    entries) instead of burning a full fit per trial, with half-open
    probes giving it a way back.  Breaker state spans trials, so it is
    supported only on the serial path (combining it with ``parallel``
    raises :class:`~repro.utils.errors.ValidationError`).

    ``bound_deadline_seconds`` budgets each trial's "optimal" bound
    evaluation: the bound runs through
    :func:`repro.bounds.bound_cascade`, degrading exact → gibbs →
    analytic rather than hanging the trial.

    When ``parallel`` sets ``timeout_seconds`` and the failure policy
    is softer than ``fail_fast``, a trial lost to a wedged worker
    surfaces as ``timed_out`` ledger entries (the executor resubmits
    wedged chunks up to ``parallel.max_resubmits`` first) and the sweep
    continues; under ``fail_fast`` the
    :class:`~repro.parallel.WorkerTimeoutError` propagates.

    ``trial_mode="batched"`` fits every trial's ``em-ext`` ahead of the
    trial loop as stacked lanes of shared tensor passes
    (:func:`repro.core.em_ext.fit_em_ext_batch`'s machinery), packing
    ``batch_size`` trials — default sized to keep packs near 64 lanes —
    per pass.  Results are bit-for-bit the serial ones: attempt 0 of
    each trial's ``em-ext`` consumes the lane result (exact because
    ``retry_seed(base, 0) == base``), while a lane whose fit faulted is
    *ejected* — absent from the prefit map — so the trial re-runs on
    the scalar path, deterministically reproducing the fault under the
    failure policy and recording the usual ledger entry.  Lane packs
    run in the parent and need the dense format, so ``parallel`` and
    ``problem_format="csr"`` are rejected.
    """
    if n_trials <= 0:
        raise ValidationError(f"n_trials must be positive, got {n_trials}")
    if problem_format not in FORMATS:
        raise ValidationError(
            f"problem_format must be one of {FORMATS}, got {problem_format!r}"
        )
    if checkpoint_interval <= 0:
        raise ValidationError(
            f"checkpoint_interval must be positive, got {checkpoint_interval}"
        )
    policy = failure_policy or FailurePolicy.fail_fast()
    if breaker_config is not None and parallel is not None:
        raise ValidationError(
            "circuit breakers keep state across trials and are supported "
            "only on the serial path; drop breaker_config or parallel"
        )
    if bound_deadline_seconds is not None and not bound_deadline_seconds > 0:
        raise ValidationError(
            "bound_deadline_seconds must be positive, got "
            f"{bound_deadline_seconds}"
        )
    if trial_mode not in ("serial", "batched"):
        raise ValidationError(
            f"trial_mode must be 'serial' or 'batched', got {trial_mode!r}"
        )
    if batch_size is not None and batch_size <= 0:
        raise ValidationError(f"batch_size must be positive, got {batch_size}")
    if trial_mode == "batched":
        if parallel is not None:
            raise ValidationError(
                "batched trial packs run in the parent process; drop "
                "trial_mode='batched' or parallel"
            )
        if problem_format != FORMAT_DENSE:
            raise ValidationError(
                "batched trial packs require the dense problem format, got "
                f"{problem_format!r}"
            )
    exact_limit = min(exact_limit, MAX_EXACT_SOURCES)
    bound_config = bound_config or GibbsConfig(min_sweeps=400, max_sweeps=4000)
    rng = RandomState(seed)
    generator = SyntheticGenerator(config, seed=derive_seed(rng))
    series: Dict[str, AlgorithmSeries] = {name: AlgorithmSeries() for name in algorithms}
    if include_optimal:
        series[OPTIMAL_KEY] = AlgorithmSeries()
    failures: List[TrialFailure] = []

    fingerprint = None
    start_trial = 0
    if checkpoint_path is not None:
        if not isinstance(seed, (int, np.integer)):
            raise ValidationError(
                "checkpointing requires an integer seed (resume must re-derive "
                f"trial seeds), got {type(seed).__name__}"
            )
        fingerprint = simulation_fingerprint(
            config,
            algorithms=algorithms,
            n_trials=n_trials,
            seed=int(seed),
            include_optimal=include_optimal,
            problem_format=problem_format,
        )
        if os.path.exists(checkpoint_path):
            state = load_checkpoint(checkpoint_path, fingerprint)
            start_trial = min(state.completed_trials, n_trials)
            for name, metrics in state.series.items():
                if name not in series:
                    raise DataError(
                        f"checkpoint holds series for unknown algorithm {name!r}"
                    )
                series[name] = AlgorithmSeries(
                    accuracy=list(metrics.get("accuracy", [])),
                    false_positive_rate=list(metrics.get("false_positive_rate", [])),
                    false_negative_rate=list(metrics.get("false_negative_rate", [])),
                )
            failures = list(state.failures)
            # Replay the completed trials' master-RNG draws (dataset
            # generation and seed derivations) without fitting, so the
            # remaining trials see exactly the stream an uninterrupted
            # run would have.
            for _ in range(start_trial):
                generator.generate()
                derive_seed(rng)
                if include_optimal:
                    derive_seed(rng)

    # Every master-RNG draw happens here, in trial order, regardless of
    # how the fitting work is executed afterwards — this is the whole
    # determinism contract of the parallel path.
    tasks: List[_TrialTask] = []
    for trial in range(start_trial, n_trials):
        dataset = generator.generate()
        problem = dataset.problem
        if problem_format != FORMAT_DENSE:
            problem = problem.csr_view()
        tasks.append(
            _TrialTask(
                trial=trial,
                problem=problem,
                trial_seed=derive_seed(rng),
                optimal_seed=derive_seed(rng) if include_optimal else None,
            )
        )
    spec = _TrialSpec(
        algorithms=tuple(algorithms),
        include_optimal=include_optimal,
        policy=policy,
        em_config=em_config,
        bound_config=bound_config,
        exact_limit=exact_limit,
        bound_deadline_seconds=bound_deadline_seconds,
        record_observability=parallel is not None and observability.enabled(),
    )
    prefit_by_trial: Dict[int, Dict[str, object]] = {}
    if trial_mode == "batched" and "em-ext" in spec.algorithms and tasks:
        prefit_by_trial = _prefit_em_ext_packs(
            tasks, em_config or EMConfig(), batch_size
        )
    if parallel is None:
        breakers = None
        if breaker_config is not None:
            names = list(algorithms) + ([OPTIMAL_KEY] if include_optimal else [])
            breakers = {name: CircuitBreaker(breaker_config) for name in names}
        outcomes = (
            _run_trial(task, spec, breakers, prefit_by_trial.get(task.trial))
            for task in tasks
        )
    else:
        on_timeout = (
            _timed_out_outcome
            if parallel.timeout_seconds is not None and policy.mode != FAIL_FAST
            else None
        )
        outcomes = parallel_imap(
            _trial_worker,
            [(task, spec) for task in tasks],
            config=parallel,
            on_timeout=on_timeout,
        )
    # The consumption loop drives the (lazy) serial generator or drains
    # the pool, so both paths' trial spans land under this one — worker
    # trees are grafted here, in trial order.
    with observability.span(
        "harness.run_simulation", n_trials=n_trials, n_tasks=len(tasks)
    ):
        for outcome in outcomes:
            if spec.record_observability:
                observability.graft(outcome.spans)
                observability.merge_metrics(outcome.obs_metrics)
            for name, metrics in outcome.metrics:
                if metrics is not None:
                    series[name].record(metrics)
            failures.extend(outcome.failures)
            trial = outcome.trial
            if checkpoint_path is not None and (
                (trial + 1) % checkpoint_interval == 0 or trial + 1 == n_trials
            ):
                save_checkpoint(
                    checkpoint_path,
                    fingerprint=fingerprint,
                    completed_trials=trial + 1,
                    series={
                        name: {
                            "accuracy": s.accuracy,
                            "false_positive_rate": s.false_positive_rate,
                            "false_negative_rate": s.false_negative_rate,
                        }
                        for name, s in series.items()
                    },
                    failures=failures,
                )
    return SimulationResult(
        config=config, n_trials=n_trials, series=series, failures=failures
    )


def _prefit_em_ext_packs(
    tasks: Sequence[_TrialTask],
    em_config: EMConfig,
    batch_size: Optional[int],
) -> Dict[int, Dict[str, object]]:
    """Fit every trial's ``em-ext`` as lanes of stacked tensor packs.

    Returns ``trial → {"em-ext": result}`` for the lanes that
    completed.  A faulted lane — or a pack whose setup failed outright —
    is simply absent: ``_run_trial`` then re-runs that trial on the
    scalar path, which deterministically reproduces the fault under the
    failure policy and records the usual ledger entry (the ejection
    contract).  Ejections are counted on ``harness.batched.ejections``.
    """
    from repro.core.em_ext import _batch_lane_outcomes

    if batch_size is None:
        # Default pack size targets ~64 lanes per tensor pass: enough
        # occupancy to amortise per-pass dispatch, small enough that
        # the (lanes, n, m) stacks stay cache- and memory-friendly.
        batch_size = max(1, 64 // max(1, em_config.n_restarts))
    prefit: Dict[int, Dict[str, object]] = {}
    with observability.span(
        "harness.batched_prefit", n_trials=len(tasks), batch_size=batch_size
    ):
        for start in range(0, len(tasks), batch_size):
            pack = tasks[start : start + batch_size]
            try:
                outcomes = _batch_lane_outcomes(
                    [task.problem.without_truth() for task in pack],
                    [task.trial_seed for task in pack],
                    em_config,
                )
            except Exception:
                # Pack-level fault (e.g. shape drift): eject every lane.
                observability.count("harness.batched.ejections", len(pack))
                continue
            for task, (result, error) in zip(pack, outcomes):
                if error is not None or result is None:
                    observability.count("harness.batched.ejections")
                    continue
                prefit[task.trial] = {"em-ext": result}
    return prefit


def _attempt(
    fit: Callable[[int], ClassificationMetrics],
    trial: int,
    name: str,
    base_seed: int,
    policy: FailurePolicy,
    failures: List[TrialFailure],
) -> Optional[ClassificationMetrics]:
    """Run one (trial, algorithm) fit under the failure policy.

    Returns the metrics, or ``None`` when every attempt failed and the
    policy said to skip.  Retry attempts are reseeded deterministically
    from ``base_seed`` alone, so they never perturb the master RNG —
    and pause first for the policy's (equally deterministic)
    exponential-backoff delay, when one is configured.
    """
    for attempt in range(policy.attempts):
        if attempt:
            delay = policy.delay_before(attempt, base_seed)
            if delay > 0:
                observability.count("harness.backoff.delays")
                observability.observe_value("harness.backoff.seconds", delay)
                time.sleep(delay)
        try:
            return fit(retry_seed(base_seed, attempt))
        except Exception as error:
            if policy.mode == FAIL_FAST:
                raise
            action = (
                ACTION_RETRIED if attempt + 1 < policy.attempts else ACTION_SKIPPED
            )
            failures.append(
                TrialFailure(
                    trial=trial,
                    algorithm=name,
                    attempt=attempt,
                    error_type=type(error).__name__,
                    message=str(error)[:500],
                    action=action,
                )
            )
            observability.count(f"harness.failures.{action}")
    return None


def _make(name: str, seed: int, em_config: Optional[EMConfig]):
    if name == "em-ext":
        return make_fact_finder(name, seed=seed, config=em_config)
    if name in ("em", "em-social"):
        kwargs = {"seed": seed}
        if em_config is not None:
            kwargs["smoothing"] = em_config.smoothing
        return make_fact_finder(name, **kwargs)
    cls = ALGORITHM_REGISTRY.get(name)
    if cls is not None and getattr(cls, "accepts_trial_seed", False):
        # Seed-aware algorithms outside the EM family (e.g. chaos
        # wrappers from the fault-injection toolkit) still get the
        # deterministic per-trial seed.
        return make_fact_finder(name, seed=seed)
    return make_fact_finder(name)


@dataclass
class SweepResult:
    """Results of a one-dimensional parameter sweep (one figure's x-axis)."""

    parameter: str
    values: List[float]
    points: List[SimulationResult]

    def curve(self, algorithm: str, metric: str = "accuracy") -> List[float]:
        """The mean-metric series of one algorithm along the sweep."""
        return [p.series[algorithm].mean(metric) for p in self.points]

    def algorithms(self) -> List[str]:
        """Algorithm keys present at every sweep point."""
        if not self.points:
            return []
        keys = set(self.points[0].series)
        for point in self.points[1:]:
            keys &= set(point.series)
        return sorted(keys)


def run_sweep(
    parameter: str,
    values: Sequence,
    config_factory,
    *,
    seed: SeedLike = None,
    **simulation_kwargs,
) -> SweepResult:
    """Sweep one knob: ``config_factory(value)`` builds each point's config."""
    rng = RandomState(seed)
    points = []
    for value in values:
        points.append(
            run_simulation(
                config_factory(value), seed=derive_seed(rng), **simulation_kwargs
            )
        )
    return SweepResult(
        parameter=parameter, values=[float(v) for v in values], points=points
    )


__all__ = [
    "AlgorithmSeries",
    "OPTIMAL_KEY",
    "SimulationResult",
    "SweepResult",
    "run_simulation",
    "run_sweep",
]
