"""Named experiment definitions — one per table/figure of the paper.

Each function regenerates the data behind one exhibit and returns
structured rows; the benchmark suite prints and sanity-checks them, and
EXPERIMENTS.md records paper-vs-measured outcomes.

Trial counts default to CI-friendly values; set the environment
variable ``REPRO_FULL_TRIALS=1`` to use the paper's counts (20 for
bound experiments, 300 for estimator experiments).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import EMPIRICAL_ALGORITHMS, make_fact_finder
from repro.bounds import (
    MAX_EXACT_SOURCES,
    BoundResult,
    GibbsConfig,
    bound_from_pattern_table,
    exact_bound,
    gibbs_bound,
)
from repro.core.em_ext import EMConfig
from repro.datasets import DATASET_ORDER, get_spec, simulate_dataset
from repro.eval.harness import SweepResult, run_sweep
from repro.parallel import ParallelConfig
from repro.pipeline import SimulatedGrader, grade_top_k
from repro.synthetic import GeneratorConfig, SyntheticGenerator, empirical_parameters
from repro.utils.rng import RandomState, SeedLike, derive_seed

#: Table I of the paper: P(SC_j | C_j) for the 3-source walk-through,
#: patterns ordered 000, 001, 010, 011, 100, 101, 110, 111 (the paper
#: writes the pattern as S1 S2 S3).
TABLE1_P_GIVEN_TRUE = np.array(
    [
        0.18546216, 0.17606773, 0.00033244, 0.01971855,
        0.24427898, 0.19063986, 0.02321803, 0.16028224,
    ]
)
TABLE1_P_GIVEN_FALSE = np.array(
    [
        0.05851677, 0.05300123, 0.12803859, 0.16032756,
        0.14231588, 0.08222352, 0.18716734, 0.18840910,
    ]
)
#: The bound the paper derives from Table I.
TABLE1_EXPECTED_BOUND = 0.26980433


def full_trials() -> bool:
    """Whether the paper's full trial counts were requested."""
    return os.environ.get("REPRO_FULL_TRIALS", "0") not in ("0", "", "false")


def bound_trials(default: int = 4) -> int:
    """Trial count for bound experiments (paper: 20)."""
    return 20 if full_trials() else default


def estimator_trials(default: int = 6) -> int:
    """Trial count for estimator experiments (paper: 300)."""
    return 300 if full_trials() else default


def table1_walkthrough() -> BoundResult:
    """Reproduce Table I's walk-through bound (Section III-A)."""
    return bound_from_pattern_table(
        TABLE1_P_GIVEN_TRUE, TABLE1_P_GIVEN_FALSE, z=0.5
    )


@dataclass
class BoundComparisonRow:
    """One x-axis point of Figures 3–5."""

    value: float
    exact_total: float
    exact_false_positive: float
    exact_false_negative: float
    gibbs_total: float
    gibbs_false_positive: float
    gibbs_false_negative: float

    @property
    def absolute_difference(self) -> float:
        """|exact − approximate| — the quantity Figures 3–5 report."""
        return abs(self.exact_total - self.gibbs_total)


def bound_comparison_sweep(
    values: Sequence,
    config_factory: Callable[[float], GeneratorConfig],
    *,
    n_trials: Optional[int] = None,
    seed: SeedLike = 0,
    gibbs_config: Optional[GibbsConfig] = None,
) -> List[BoundComparisonRow]:
    """Shared engine of Figures 3–5: exact vs Gibbs bound along a sweep.

    For each x value, ``n_trials`` synthetic datasets are generated;
    both bounds are computed with oracle (empirically measured)
    parameters and averaged.
    """
    n_trials = n_trials if n_trials is not None else bound_trials()
    gibbs_config = gibbs_config or GibbsConfig(min_sweeps=600, max_sweeps=6000)
    rng = RandomState(seed)
    rows = []
    for value in values:
        config = config_factory(value)
        generator = SyntheticGenerator(config, seed=derive_seed(rng))
        exact_parts = np.zeros(3)
        gibbs_parts = np.zeros(3)
        for _ in range(n_trials):
            dataset = generator.generate()
            params = empirical_parameters(dataset.problem).clamp(1e-4)
            dependency = dataset.problem.dependency.values
            exact = exact_bound(dependency, params)
            approx = gibbs_bound(
                dependency, params, config=gibbs_config, seed=derive_seed(rng)
            )
            exact_parts += (
                exact.total, exact.false_positive, exact.false_negative
            )
            gibbs_parts += (
                approx.total, approx.false_positive, approx.false_negative
            )
        exact_parts /= n_trials
        gibbs_parts /= n_trials
        rows.append(
            BoundComparisonRow(
                value=float(value),
                exact_total=exact_parts[0],
                exact_false_positive=exact_parts[1],
                exact_false_negative=exact_parts[2],
                gibbs_total=gibbs_parts[0],
                gibbs_false_positive=gibbs_parts[1],
                gibbs_false_negative=gibbs_parts[2],
            )
        )
    return rows


def figure3_bound_vs_sources(**kwargs) -> List[BoundComparisonRow]:
    """Figure 3: bound precision as n = 5..25 step 5.

    The n = 25 point costs ~2^25 pattern evaluations per distinct
    dependency column and is only included with ``REPRO_FULL_TRIALS=1``
    (the CI-scale sweep stops at 20).
    """
    top = 30 if full_trials() else 25
    return bound_comparison_sweep(
        values=range(5, top, 5),
        config_factory=lambda n: GeneratorConfig.paper_defaults(
            n_sources=int(n), n_trees=(min(8, int(n)), min(10, int(n)))
        ),
        **kwargs,
    )


def figure4_bound_vs_trees(**kwargs) -> List[BoundComparisonRow]:
    """Figure 4: bound precision as τ = 1..11."""
    return bound_comparison_sweep(
        values=range(1, 12),
        config_factory=lambda tau: GeneratorConfig.paper_defaults(
            n_trees=(int(tau), int(tau))
        ),
        **kwargs,
    )


def figure5_bound_vs_odds(**kwargs) -> List[BoundComparisonRow]:
    """Figure 5: bound precision as dependent odds = 1.1..2.0 (indep odds 2)."""
    return bound_comparison_sweep(
        values=[round(1.1 + 0.1 * k, 1) for k in range(10)],
        config_factory=lambda odds: GeneratorConfig.paper_defaults()
        .with_independent_odds(2.0)
        .with_dependent_odds(float(odds)),
        **kwargs,
    )


@dataclass
class TimingRow:
    """One x-axis point of Figure 6 (seconds per bound computation)."""

    n_sources: int
    exact_seconds: Optional[float]
    gibbs_seconds: float


def figure6_bound_timing(
    n_values: Sequence[int] = None,
    *,
    exact_cutoff: int = None,
    seed: SeedLike = 0,
    gibbs_config: Optional[GibbsConfig] = None,
) -> List[TimingRow]:
    """Figure 6: computation time of exact vs approximate bound.

    Exact enumeration is skipped above ``exact_cutoff`` sources (the
    figure's whole point is that it becomes intractable).  The default
    cutoff is :data:`~repro.bounds.exact.MAX_EXACT_SOURCES`: the exact
    bound grows as ``2^{n/2}`` and passes the flat Gibbs cost between
    n = 26 and 28, so the grid runs to n = 30 and one size beyond.  Defaults
    scale with ``REPRO_FULL_TRIALS``.
    """
    if n_values is None:
        n_values = (
            (5, 10, 15, 20, 22, 24, 26, 28, 30, 32)
            if full_trials()
            else (5, 10, 15, 20, 25, 30, 32)
        )
    if exact_cutoff is None:
        exact_cutoff = MAX_EXACT_SOURCES
    gibbs_config = gibbs_config or GibbsConfig(min_sweeps=600, max_sweeps=6000)
    rng = RandomState(seed)
    rows = []
    for n in n_values:
        config = GeneratorConfig.paper_defaults(
            n_sources=int(n), n_trees=(min(8, int(n)), min(10, int(n)))
        )
        dataset = SyntheticGenerator(config, seed=derive_seed(rng)).generate()
        params = empirical_parameters(dataset.problem).clamp(1e-4)
        dependency = dataset.problem.dependency.values
        exact_seconds = None
        if n <= exact_cutoff:
            start = time.perf_counter()
            exact_bound(dependency, params)
            exact_seconds = time.perf_counter() - start
        start = time.perf_counter()
        gibbs_bound(dependency, params, config=gibbs_config, seed=derive_seed(rng))
        gibbs_seconds = time.perf_counter() - start
        rows.append(
            TimingRow(
                n_sources=int(n),
                exact_seconds=exact_seconds,
                gibbs_seconds=gibbs_seconds,
            )
        )
    return rows


def _estimator_sweep(
    parameter: str,
    values: Sequence,
    config_factory: Callable,
    *,
    n_trials: Optional[int] = None,
    seed: SeedLike = 0,
    include_optimal: bool = True,
    parallel: Optional[ParallelConfig] = None,
    trial_mode: str = "serial",
    batch_size: Optional[int] = None,
) -> SweepResult:
    bound_config = (
        GibbsConfig(min_sweeps=400, max_sweeps=4000)
        if full_trials()
        else GibbsConfig(min_sweeps=300, max_sweeps=1200)
    )
    return run_sweep(
        parameter,
        values,
        config_factory,
        seed=seed,
        algorithms=("em", "em-social", "em-ext"),
        n_trials=n_trials if n_trials is not None else estimator_trials(),
        include_optimal=include_optimal,
        bound_config=bound_config,
        parallel=parallel,
        trial_mode=trial_mode,
        batch_size=batch_size,
    )


def figure7_estimator_vs_sources(**kwargs) -> SweepResult:
    """Figure 7: estimator accuracy/FP/FN as n = 20..50 step 5."""
    return _estimator_sweep(
        "n_sources",
        range(20, 55, 5),
        lambda n: GeneratorConfig.estimator_defaults(n_sources=int(n)),
        **kwargs,
    )


def figure8_estimator_vs_assertions(**kwargs) -> SweepResult:
    """Figure 8: accuracy as m = 10..100 step 10, with n = 100.

    The CI-scale run subsamples the grid (step 20); the full grid runs
    with ``REPRO_FULL_TRIALS=1``.
    """
    step = 10 if full_trials() else 20
    return _estimator_sweep(
        "n_assertions",
        range(10, 110, step),
        lambda m: GeneratorConfig.estimator_defaults(
            n_sources=100, n_assertions=int(m)
        ),
        **kwargs,
    )


def figure9_estimator_vs_trees(**kwargs) -> SweepResult:
    """Figure 9: accuracy as τ = 1..11."""
    return _estimator_sweep(
        "n_trees",
        range(1, 12),
        lambda tau: GeneratorConfig.estimator_defaults(n_trees=(int(tau), int(tau))),
        **kwargs,
    )


def figure10_estimator_vs_odds(**kwargs) -> SweepResult:
    """Figure 10: accuracy as dependent odds = 1.1..2.0 (indep odds 2)."""
    return _estimator_sweep(
        "dependent_odds",
        [round(1.1 + 0.1 * k, 1) for k in range(10)],
        lambda odds: GeneratorConfig.estimator_defaults()
        .with_independent_odds(2.0)
        .with_dependent_odds(float(odds)),
        **kwargs,
    )


@dataclass
class EmpiricalCell:
    """One (dataset, algorithm) cell of Figure 11."""

    dataset: str
    algorithm: str
    true_ratio: float


def figure11_empirical(
    datasets: Sequence[str] = tuple(DATASET_ORDER),
    *,
    algorithms: Sequence[str] = tuple(EMPIRICAL_ALGORITHMS),
    n_seeds: int = 3,
    target_assertions: int = 1000,
    k: int = 100,
    smoothing: float = 1.0,
    seed: SeedLike = 0,
) -> List[EmpiricalCell]:
    """Figure 11: top-k grading accuracy of all algorithms per dataset.

    Each dataset is simulated ``n_seeds`` times at a scale that keeps
    about ``target_assertions`` assertion clusters; the reported ratio
    is the mean over seeds.  ``smoothing`` configures the EM family's
    hierarchical shrinkage, which field-data sparsity requires.
    """
    rng = RandomState(seed)
    cells = []
    for dataset_name in datasets:
        spec = get_spec(dataset_name)
        scale = min(1.0, target_assertions / spec.n_assertions)
        totals = {name: 0.0 for name in algorithms}
        for _ in range(n_seeds):
            sim_seed = derive_seed(rng)
            dataset = simulate_dataset(dataset_name, scale=scale, seed=sim_seed)
            evaluation = dataset.evaluation_slice()
            blind = evaluation.problem.without_truth()
            results = {}
            for name in algorithms:
                finder = _empirical_finder(name, smoothing, derive_seed(rng))
                results[name] = finder.fit(blind)
            grader = SimulatedGrader(evaluation.labels, seed=derive_seed(rng))
            reports = grade_top_k(results, grader, k=k, seed=derive_seed(rng))
            for name in algorithms:
                totals[name] += reports[name].true_ratio
        for name in algorithms:
            cells.append(
                EmpiricalCell(
                    dataset=dataset_name,
                    algorithm=name,
                    true_ratio=totals[name] / n_seeds,
                )
            )
    return cells


def _empirical_finder(name: str, smoothing: float, seed: int):
    if name == "em-ext":
        return make_fact_finder(name, seed=seed, config=EMConfig(smoothing=smoothing))
    if name in ("em", "em-social"):
        return make_fact_finder(name, seed=seed, smoothing=smoothing)
    return make_fact_finder(name)


def figure11_matrix(cells: List[EmpiricalCell]) -> Dict[str, Dict[str, float]]:
    """Pivot Figure 11 cells into algorithm → dataset → ratio."""
    matrix: Dict[str, Dict[str, float]] = {}
    for cell in cells:
        matrix.setdefault(cell.algorithm, {})[cell.dataset] = cell.true_ratio
    return matrix


__all__ = [
    "BoundComparisonRow",
    "EmpiricalCell",
    "TABLE1_EXPECTED_BOUND",
    "TABLE1_P_GIVEN_FALSE",
    "TABLE1_P_GIVEN_TRUE",
    "TimingRow",
    "bound_comparison_sweep",
    "bound_trials",
    "estimator_trials",
    "figure10_estimator_vs_odds",
    "figure11_empirical",
    "figure11_matrix",
    "figure3_bound_vs_sources",
    "figure4_bound_vs_trees",
    "figure5_bound_vs_odds",
    "figure6_bound_timing",
    "figure7_estimator_vs_sources",
    "figure8_estimator_vs_assertions",
    "figure9_estimator_vs_trees",
    "full_trials",
    "table1_walkthrough",
]
