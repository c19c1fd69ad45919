"""EM-Ext: the dependency-aware maximum-likelihood estimator (Section IV).

The estimator jointly infers the source parameter set
:math:`θ = \\{a_i, b_i, f_i, g_i, z\\}` and the truth posterior of every
assertion from the source-claim matrix ``SC`` and dependency indicators
``D`` alone, by expectation-maximisation:

* **E-step** (Equation 9): compute
  :math:`Z_j = P(C_j = 1 | SC_j; D, θ^{(t)})` for every assertion;
* **M-step** (Equations 10–14): closed-form parameter updates that
  partition each source's cells into the four sets
  :math:`S_iC_{0/1}^{D_{0/1}}` (claim / non-claim × dependent /
  independent) and reweight by the posteriors.

The numerical work lives in the shared estimation engine
(:mod:`repro.engine`): this class wires the
:class:`~repro.engine.backends.DenseBackend` into the generic
:class:`~repro.engine.driver.EMDriver` and the shared initialisation
strategies.  The sparse and streaming estimators reuse exactly the
same kernels through other backends.

Practical extensions beyond the pseudocode (all standard EM hygiene,
documented in DESIGN.md §5.5):

* parameters are clamped to ``[ε, 1-ε]`` after every M-step;
* sources with an empty partition (e.g. no dependent cells at all) keep
  their previous value for the affected parameter;
* optional multi-restart: run EM from several random initialisations
  and keep the fixed point with the highest observed-data likelihood;
* an informative default initialisation breaks the global label-swap
  symmetry of the likelihood (the mirrored solution where every "true"
  becomes "false" has identical likelihood).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import observability
from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.core.result import EstimationResult
from repro.data.coerce import coerce_problem
from repro.data.protocol import FORMAT_CSR, FORMAT_DENSE, Problem
from repro.engine.backends import CSRBackend, DenseBackend, make_backend
from repro.engine.driver import EMDriver
from repro.engine.initialisation import staged_initialisation, support_initialisation
from repro.utils.errors import ValidationError
from repro.utils.rng import RandomState, SeedLike, spawn_rngs
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.supervisor import Deadline


@dataclass(frozen=True)
class EMConfig:
    """Hyper-parameters of the EM loop.

    Attributes
    ----------
    max_iterations:
        Hard cap on EM iterations per restart.
    tolerance:
        Convergence threshold on the maximum absolute parameter change
        between consecutive iterations (the criterion of Algorithm 2's
        "while {θ} are not convergent").
    epsilon:
        Clamping width keeping probabilities inside ``[ε, 1-ε]``.
    n_restarts:
        Number of random restarts; the best fixed point by observed-data
        log-likelihood wins.  1 reproduces the paper's single run.
    smoothing:
        Hierarchical (empirical-Bayes) pseudo-count ``s``: each M-step
        ratio becomes ``(num_i + s·pooled) / (den_i + s)`` where
        ``pooled`` is the population-level rate (all sources' numerators
        over all denominators).  Sources with rich data keep their own
        estimates; sources with a handful of cells shrink toward the
        population — which is what makes the dependency signal usable on
        field data where most sources make a single claim.  ``0``
        reproduces the paper's plain maximum-likelihood updates.
    init_strategy:
        How the first restart is seeded (later restarts are always
        random):

        * ``"staged"`` (default) — fit the nested independence model on
          the *independent* cells first (dependent cells excluded, the
          EM-Social view), then enrich: one dependency-aware M-step on
          the staged posterior seeds the full model.  This breaks the
          chicken-and-egg between the truth posterior and the dependent
          emission rates ``f, g`` — they are learned from an
          already-calibrated posterior instead of amplifying the initial
          guess.
        * ``"support"`` — a dependency-discounted vote-count posterior
          (assertions with more independent supporters start more
          credible), the classic truth-discovery warm start.
        * ``"random"`` — random source parameters (the paper's
          "initialize parameter set with random probability").
    strict:
        Failure semantics when *every* restart diverges or raises: raise
        :class:`~repro.utils.errors.ConvergenceError` (``True``) or
        degrade gracefully, returning a best-effort result whose
        :class:`~repro.engine.health.RunHealth` records what failed
        (``False``, the default).
    max_wall_seconds:
        Optional wall-clock budget for the whole multi-restart fit; the
        driver stops after the first iteration past the budget instead
        of running to ``max_iterations``.  ``None`` (default) disables
        the budget.
    restart_mode:
        How multi-restart candidates are executed:

        * ``"serial"`` (default) — one full EM run per restart, in
          sequence; the historical reference path.
        * ``"batched"`` — run all restarts of a dense problem as the
          lanes of one :class:`~repro.engine.batched.BatchedDenseBackend`
          tensor program, on the same lane planner as
          :func:`fit_em_ext_batch`, retiring converged lanes as they
          finish.  Bit-for-bit the same selected fixed point, several
          times faster at Fig. 7 sizes once ``n_restarts`` reaches ~8.
          As in :func:`fit_em_ext_batch`, a wall budget cuts the whole
          batch at once.  A problem that stays CSR, or a single
          restart, runs serially.
    """

    max_iterations: int = 200
    tolerance: float = 1e-6
    epsilon: float = DEFAULT_EPSILON
    n_restarts: int = 1
    smoothing: float = 0.0
    init_strategy: str = "staged"
    strict: bool = False
    max_wall_seconds: Optional[float] = None
    restart_mode: str = "serial"

    def __post_init__(self) -> None:
        check_positive_int(self.max_iterations, "max_iterations")
        check_positive_int(self.n_restarts, "n_restarts")
        if not self.tolerance > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tolerance}")
        if not 0 < self.epsilon < 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5), got {self.epsilon}")
        if self.smoothing < 0:
            raise ValidationError(f"smoothing must be non-negative, got {self.smoothing}")
        if self.init_strategy not in ("staged", "support", "random"):
            raise ValidationError(
                f"init_strategy must be 'staged', 'support' or 'random', got "
                f"{self.init_strategy!r}"
            )
        if self.max_wall_seconds is not None and not self.max_wall_seconds > 0:
            raise ValidationError(
                f"max_wall_seconds must be positive, got {self.max_wall_seconds}"
            )
        if self.restart_mode not in ("serial", "batched"):
            raise ValidationError(
                f"restart_mode must be 'serial' or 'batched', got "
                f"{self.restart_mode!r}"
            )


class EMExtEstimator:
    """The paper's dependency-aware joint estimator (Algorithm 2).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import EMExtEstimator, SensingProblem
    >>> sc = np.array([[1, 0, 1], [1, 1, 0]])
    >>> d = np.array([[0, 0, 1], [0, 0, 0]])
    >>> result = EMExtEstimator(seed=0).fit(SensingProblem(sc, d))
    >>> result.scores.shape
    (3,)
    """

    algorithm_name = "em-ext"

    def __init__(
        self,
        config: Optional[EMConfig] = None,
        *,
        seed: SeedLike = None,
        initial_parameters: Optional[SourceParameters] = None,
    ):
        self.config = config or EMConfig()
        self._seed = seed
        self.initial_parameters = initial_parameters

    # -- public API ------------------------------------------------------------

    def fit(self, problem: Problem) -> EstimationResult:
        """Run EM on ``problem`` (dense or CSR) and return the richest result.

        Dense problems run on the dense backend, CSR problems on the
        sparse backend — same update equations, same fixed points.  The
        one capability gap is random initialisation (random restarts or
        ``init_strategy="random"`` without explicit starting
        parameters), which only the dense backend supports; CSR input
        is then densified under the memory budget.
        """
        # Usage errors surface here, eagerly; inside the restart loop the
        # driver would treat them as per-restart runtime faults.
        if (
            self.initial_parameters is not None
            and self.initial_parameters.n_sources != problem.n_sources
        ):
            raise ValidationError(
                "initial_parameters describe "
                f"{self.initial_parameters.n_sources} sources but the "
                f"problem has {problem.n_sources}"
            )
        needs_random_draws = self.initial_parameters is None and (
            self.config.init_strategy == "random" or self.config.n_restarts > 1
        )
        needs = (
            (FORMAT_DENSE,)
            if needs_random_draws
            else (FORMAT_DENSE, FORMAT_CSR)
        )
        problem = coerce_problem(problem, needs=needs)
        if self.config.restart_mode == "batched" and self.config.n_restarts > 1:
            if problem.format == FORMAT_DENSE:
                return self._fit_lanes(problem)
            # Lanes need dense data; a CSR problem runs serially, visibly.
            observability.count("engine.batched.fallbacks")
        backend = make_backend(
            problem,
            smoothing=self.config.smoothing,
            epsilon=self.config.epsilon,
        )
        driver = EMDriver.from_config(self.config)
        outcome = driver.fit(backend, self._initialiser(backend), self._seed)
        return EstimationResult(
            algorithm=self.algorithm_name,
            scores=outcome.posterior,
            decisions=outcome.decisions,
            parameters=outcome.parameters,
            log_likelihood=outcome.log_likelihood,
            converged=outcome.converged,
            n_iterations=outcome.n_iterations,
            trace=outcome.trace,
            health=outcome.health,
        )

    # -- internals ---------------------------------------------------------------

    def _fit_lanes(self, problem: Problem) -> EstimationResult:
        """All restarts as lanes of one batched pass (the shared planner)."""
        ((result, error),) = _batch_lane_outcomes(
            [problem],
            [self._seed],
            self.config,
            initial_parameters=[self.initial_parameters],
        )
        if error is not None:
            raise error
        return result

    def _initialiser(self, backend: "Union[DenseBackend, CSRBackend]"):
        """Restart ``index`` → starting parameters (driver protocol)."""

        def _init(index: int, rng: np.random.Generator) -> SourceParameters:
            strategy = self.config.init_strategy
            if index > 0 or self.initial_parameters is not None:
                return self._initial_parameters(backend, rng)
            if strategy == "staged":
                return staged_initialisation(
                    backend, tolerance=self.config.tolerance
                )
            if strategy == "support":
                return support_initialisation(backend)
            return self._initial_parameters(backend, rng)

        return _init

    def _initial_parameters(
        self, backend: "Union[DenseBackend, CSRBackend]", rng: np.random.Generator
    ) -> SourceParameters:
        if self.initial_parameters is not None:
            if self.initial_parameters.n_sources != backend.n_sources:
                raise ValidationError(
                    "initial_parameters describe "
                    f"{self.initial_parameters.n_sources} sources but the "
                    f"problem has {backend.n_sources}"
                )
            return self.initial_parameters.clamp(self.config.epsilon)
        return backend.random_params(rng)


def _prepare_restarts(
    initialiser: Callable[[int, np.random.Generator], object],
    rng: RandomState,
    n_restarts: int,
) -> Tuple[List[Tuple[int, object]], Dict[int, str]]:
    """Run all of a problem's restart initialisers up front, in serial order.

    Warm starts consume the spawned restart generators exactly as
    :meth:`EMDriver.fit`'s loop does, so lane starting points are
    bit-for-bit serial.  Initialiser exceptions become per-restart
    error strings, as in the driver's loop.
    """
    prepared: List[Tuple[int, object]] = []
    init_errors: Dict[int, str] = {}
    for index, restart_rng in enumerate(spawn_rngs(rng, n_restarts)):
        try:
            prepared.append((index, initialiser(index, restart_rng)))
        except Exception as error:
            init_errors[index] = f"{type(error).__name__}: {error}"
    return prepared, init_errors


def _batch_lane_outcomes(
    problems: Sequence[Problem],
    seeds: Sequence[SeedLike],
    config: EMConfig,
    *,
    initial_parameters: Optional[Sequence[Optional[SourceParameters]]] = None,
    budget: Optional["Deadline"] = None,
) -> List[Tuple[Optional[EstimationResult], Optional[Exception]]]:
    """One ``(result, error)`` pair per problem, lane-batched.

    The lane planner behind :func:`fit_em_ext_batch`,
    ``EMConfig(restart_mode="batched")``, the harness's
    ``trial_mode="batched"`` and the serving layer: every problem's
    restarts become lanes of one stacked tensor pass
    (:class:`~repro.engine.batched.BatchedDenseBackend`), and each
    problem's lanes are then fed through the driver's selection path
    (:meth:`~repro.engine.driver.EMDriver.consume_candidates`) — so the
    per-problem results are bit-for-bit what the scalar
    :meth:`EMExtEstimator.fit` would return with the same seed.  A
    problem whose setup or selection raises carries the exception in
    its own pair instead of poisoning the batch (the caller decides
    whether to re-raise or eject the lane to the scalar path).

    ``config.max_wall_seconds``, when set, budgets the *whole* batch —
    lanes share each pass's wall clock, so a per-problem budget is not
    separable (timing budgets were never bitwise-reproducible anyway).
    Its clock starts on entry, as in :meth:`EMDriver.fit`, so
    initialiser time counts against it.

    ``initial_parameters``, when given, supplies one optional warm
    start per problem: entry ``t`` plays the role of
    ``EMExtEstimator(..., initial_parameters=initial_parameters[t])``
    in the parity contract (``None`` entries keep the config's init
    strategy).  ``budget``, when given, is a cooperative
    :class:`~repro.resilience.supervisor.Deadline` checked between
    batched passes — the serving layer's per-drain admission budget,
    on top of (not instead of) ``max_wall_seconds``.
    """
    from repro.engine.batched import BatchedDenseBackend, run_batched_lanes

    if len(problems) != len(seeds):
        raise ValidationError(
            f"{len(problems)} problems but {len(seeds)} seeds"
        )
    if initial_parameters is not None and len(initial_parameters) != len(problems):
        raise ValidationError(
            f"{len(problems)} problems but {len(initial_parameters)} "
            "initial parameter sets"
        )
    deadline = (
        time.perf_counter() + config.max_wall_seconds
        if config.max_wall_seconds is not None
        else None
    )
    driver = EMDriver.from_config(config)
    lane_backends: List[DenseBackend] = []
    lane_params: List[SourceParameters] = []
    #: Per problem: (prepared restart indices, init errors, setup error).
    staged: List[Tuple[Sequence[int], dict, Optional[Exception]]] = []
    for position, (problem, seed) in enumerate(zip(problems, seeds)):
        warm = (
            initial_parameters[position]
            if initial_parameters is not None
            else None
        )
        try:
            # Mirror EMExtEstimator.fit's eager usage-error check so a
            # mismatched warm start surfaces as the same ValidationError
            # the scalar path raises (not a per-restart init fault).
            if warm is not None and warm.n_sources != problem.n_sources:
                raise ValidationError(
                    "initial_parameters describe "
                    f"{warm.n_sources} sources but the "
                    f"problem has {problem.n_sources}"
                )
            dense = coerce_problem(problem, needs=(FORMAT_DENSE,))
            backend = make_backend(
                dense, smoothing=config.smoothing, epsilon=config.epsilon
            )
            estimator = EMExtEstimator(
                config, seed=seed, initial_parameters=warm
            )
            # Warm starts consume the spawned restart generators in
            # serial order, exactly as EMDriver.fit would.
            prepared, init_errors = _prepare_restarts(
                estimator._initialiser(backend),
                RandomState(seed),
                config.n_restarts,
            )
        except Exception as error:
            staged.append(((), {}, error))
            continue
        staged.append(([index for index, _ in prepared], init_errors, None))
        for _, params in prepared:
            lane_backends.append(backend)
            lane_params.append(params)
    lanes = (
        run_batched_lanes(
            BatchedDenseBackend.from_backends(lane_backends),
            lane_params,
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
            deadline=deadline,
            budget=budget,
        )
        if lane_params
        else []
    )
    outcomes: List[Tuple[Optional[EstimationResult], Optional[Exception]]] = []
    cursor = 0
    for indices, init_errors, setup_error in staged:
        if setup_error is not None:
            outcomes.append((None, setup_error))
            continue
        lane_by_index = {}
        for index in indices:
            lane_by_index[index] = lanes[cursor]
            cursor += 1
        triples = []
        for index in range(config.n_restarts):
            if index in init_errors:
                triples.append((index, None, init_errors[index]))
                continue
            lane = lane_by_index[index]
            triples.append((index, lane.outcome, lane.error))
        try:
            outcome = driver.consume_candidates(iter(triples))
        except Exception as error:
            outcomes.append((None, error))
            continue
        outcomes.append(
            (
                EstimationResult(
                    algorithm=EMExtEstimator.algorithm_name,
                    scores=outcome.posterior,
                    decisions=outcome.decisions,
                    parameters=outcome.parameters,
                    log_likelihood=outcome.log_likelihood,
                    converged=outcome.converged,
                    n_iterations=outcome.n_iterations,
                    trace=outcome.trace,
                    health=outcome.health,
                ),
                None,
            )
        )
    return outcomes


def fit_em_ext_batch(
    problems: Sequence[Problem],
    *,
    seeds: Sequence[SeedLike],
    config: Optional[EMConfig] = None,
    initial_parameters: Optional[Sequence[Optional[SourceParameters]]] = None,
    budget: Optional["Deadline"] = None,
) -> List[EstimationResult]:
    """Fit EM-Ext on many same-shape problems as one batched tensor pass.

    Every problem's restarts become lanes of a single stacked
    ``(B, n, m)`` program (B = problems × restarts); result ``t`` is
    bit-for-bit what ``EMExtEstimator(config, seed=seeds[t],
    initial_parameters=initial_parameters[t]).fit(problems[t])``
    returns — same parameters, posterior, trace, health and restart
    selection (see the parity wall in
    ``tests/engine/test_batched.py``).  ``budget`` optionally bounds
    the whole batch with a cooperative
    :class:`~repro.resilience.supervisor.Deadline` (the serving
    layer's drain budget).  Requires same-shape problems
    (CSR input is densified); a problem whose fit would raise re-raises
    the same exception here.
    """
    config = config or EMConfig()
    outcomes = _batch_lane_outcomes(
        problems,
        seeds,
        config,
        initial_parameters=initial_parameters,
        budget=budget,
    )
    results: List[EstimationResult] = []
    for result, error in outcomes:
        if error is not None:
            raise error
        assert result is not None
        results.append(result)
    return results


def run_em_ext(
    problem: Problem,
    *,
    seed: SeedLike = None,
    max_iterations: int = 200,
    tolerance: float = 1e-6,
    n_restarts: int = 1,
    smoothing: float = 0.0,
    init_strategy: str = "staged",
) -> EstimationResult:
    """One-call convenience wrapper around :class:`EMExtEstimator`."""
    config = EMConfig(
        max_iterations=max_iterations,
        tolerance=tolerance,
        n_restarts=n_restarts,
        smoothing=smoothing,
        init_strategy=init_strategy,
    )
    return EMExtEstimator(config, seed=seed).fit(problem)


__all__ = ["EMConfig", "EMExtEstimator", "fit_em_ext_batch", "run_em_ext"]
