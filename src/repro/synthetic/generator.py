"""The Section V-A synthetic workload generator.

Two generation modes are provided (``GeneratorConfig.mode``; rationale
in DESIGN.md §5.3): the default ``"cell"`` mode draws every
(source, assertion) cell as an independent Bernoulli with exactly the
rates the Section II-B channel model prescribes, while the ``"pool"``
mode follows the literal pool-sampling text below.

Pool-mode generation procedure (paper Section V-A):

1. draw the trial-level knobs: τ (tree count) and d (true-assertion
   ratio), then the per-source probabilities ``p_on``, ``p_dep``,
   ``p_indepT``, ``p_depT``;
2. split the assertion ids into a True pool (⌈d·m⌉ random ids) and a
   False pool;
3. build a forest of τ level-two trees: roots are independent, every
   leaf follows exactly one root;
4. roots claim first: at each of ``rounds`` opportunities a root
   participates w.p. ``p_on``; a participating root picks the True pool
   w.p. ``p_indepT`` (else False) and claims a uniformly random,
   not-yet-claimed-by-it assertion from that pool;
5. leaves claim afterwards: same participation gate; a participating
   leaf first chooses between its *dependent* candidate subset
   (assertions its root already claimed) w.p. ``p_dep`` and its
   *independent* subset otherwise, then applies the corresponding truth
   bias (``p_depT`` / ``p_indepT``) and claims uniformly within the
   selected sub-pool.  Opportunities whose selected sub-pool is empty
   are forfeited.

Both modes describe a timestamped :class:`EventLog` (roots in the
``[0, 1)`` time band, leaves in ``[1, 2)``).  Pool mode emits the log
and derives ``(SC, D)`` from it through the same
:func:`repro.network.dependency.extract_dependency` code path used for
field data.  Cell mode draws the cells as arrays instead, one
``rng.random`` call for all roots and one for all leaves, and writes
``(SC, D)`` directly: a leaf follows only its root, and roots post
before leaves, so a leaf's ``D`` row is its root's ``SC`` row and a
root's is zero — exactly what ``extract_dependency(…, policy="direct")``
derives from the log.  The log itself is built on first access
(:attr:`SyntheticDataset.log`).  ``tests/synthetic`` pins both
equalities against the per-source loop the arrays replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.data.dense import SensingProblem
from repro.network.dependency import extract_dependency
from repro.network.events import EventLog, Post
from repro.network.generators import LevelTwoForest, level_two_forest
from repro.synthetic.config import GeneratorConfig, RealizedParameters
from repro.utils.rng import RandomState, SeedLike, derive_seed


@dataclass
class SyntheticDataset:
    """Everything one generator run produced.

    ``problem.truth`` carries the ground-truth labels; ``realized``
    records the concrete parameter draws; ``forest`` and :attr:`log`
    expose the underlying social structure for substrate-level
    inspection.  A cell-mode dataset builds its log from ``problem``
    and ``forest`` on first access (:func:`_cell_log`), a log from
    which ``extract_dependency(…, policy="direct")`` recovers
    ``problem``.
    """

    problem: SensingProblem
    forest: LevelTwoForest
    realized: RealizedParameters
    config: GeneratorConfig
    _log: Optional[EventLog] = field(default=None, repr=False, compare=False)

    @property
    def log(self) -> EventLog:
        """The timestamped posts behind ``problem``."""
        if self._log is None:
            self._log = _cell_log(self.problem.claims.values, self.forest)
        return self._log

    @property
    def truth(self) -> np.ndarray:
        """Ground-truth labels (alias of ``problem.truth``)."""
        return self.problem.truth


def _cell_log(claims: np.ndarray, forest: LevelTwoForest) -> EventLog:
    """The cell-mode event log of a claim matrix.

    Roots post at time 0.5, in ``forest.roots`` order, then leaves at
    1.5, in ascending source order; each source's posts run in
    assertion order and post ids count up from 0.
    """
    posts: List[Post] = []
    for sources, time in ((forest.roots, 0.5), (sorted(forest.parent), 1.5)):
        for source in sources:
            for assertion in np.flatnonzero(claims[source]).tolist():
                posts.append(
                    Post(post_id=len(posts), source=source, assertion=assertion, time=time)
                )
    return EventLog(posts=posts)


class SyntheticGenerator:
    """Seeded generator of Section V-A workloads."""

    def __init__(self, config: Optional[GeneratorConfig] = None, seed: SeedLike = None):
        self.config = config or GeneratorConfig()
        self._rng = RandomState(seed)

    def generate(self) -> SyntheticDataset:
        """Produce one synthetic dataset (advance the generator's RNG)."""
        rng = RandomState(derive_seed(self._rng))
        config = self.config
        realized = self._draw_parameters(rng)
        truth = self._draw_truth(rng, realized.true_ratio)
        realized = RealizedParameters(
            n_trees=realized.n_trees,
            true_ratio=realized.true_ratio,
            p_on=realized.p_on,
            p_dep=realized.p_dep,
            p_indep_true=realized.p_indep_true,
            p_dep_true=realized.p_dep_true,
            n_true_assertions=int(truth.sum()),
        )
        forest = level_two_forest(
            config.n_sources, realized.n_trees, seed=derive_seed(rng)
        )
        if config.mode == "cell":
            log = None
            claims, dependency = self._draw_cells(rng, forest, realized, truth)
        else:
            log = self._simulate_claims_pool(rng, forest, realized, truth)
            claims, dependency = extract_dependency(
                log, forest.graph, n_assertions=config.n_assertions, policy="direct"
            )
        problem = SensingProblem(claims=claims, dependency=dependency, truth=truth)
        return SyntheticDataset(
            problem=problem,
            forest=forest,
            realized=realized,
            config=config,
            _log=log,
        )

    def generate_many(self, count: int) -> List[SyntheticDataset]:
        """Generate ``count`` independent datasets."""
        return [self.generate() for _ in range(count)]

    # -- internals ----------------------------------------------------------------

    def _draw_parameters(self, rng: np.random.Generator) -> RealizedParameters:
        config = self.config
        n = config.n_sources

        def _uniform(bounds: Tuple[float, float]) -> np.ndarray:
            low, high = bounds
            if low == high:
                return np.full(n, low)
            return rng.uniform(low, high, size=n)

        tree_low, tree_high = config.n_trees
        n_trees = int(rng.integers(tree_low, tree_high + 1))
        ratio_low, ratio_high = config.true_ratio
        true_ratio = (
            ratio_low
            if ratio_low == ratio_high
            else float(rng.uniform(ratio_low, ratio_high))
        )
        return RealizedParameters(
            n_trees=n_trees,
            true_ratio=true_ratio,
            p_on=_uniform(config.p_on),
            p_dep=_uniform(config.p_dep),
            p_indep_true=_uniform(config.p_indep_true),
            p_dep_true=_uniform(config.p_dep_true),
        )

    def _draw_truth(self, rng: np.random.Generator, true_ratio: float) -> np.ndarray:
        m = self.config.n_assertions
        n_true = int(np.ceil(true_ratio * m))
        n_true = min(max(n_true, 1), m)  # keep both pools meaningful when m > 1
        if m > 1:
            n_true = min(n_true, m - 1)
        truth = np.zeros(m, dtype=np.int8)
        true_ids = rng.choice(m, size=n_true, replace=False)
        truth[true_ids] = 1
        return truth

    def _draw_cells(
        self,
        rng: np.random.Generator,
        forest: LevelTwoForest,
        realized: RealizedParameters,
        truth: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Model-faithful generation: independent Bernoulli cells, as int8 ``(SC, D)``.

        Root cells (and leaf cells whose root stayed silent) fire with
        rate ``p_on · p_indepT`` on true assertions and
        ``p_on · (1 − p_indepT)`` on false ones; a leaf's
        dependent-capable cells (its ``D`` row: its root's claims) fire
        with ``p_dep · p_depT`` / ``p_dep · (1 − p_depT)``.  The roots'
        uniforms are drawn first, one ``(roots, m)`` block in
        ``forest.roots`` order, then the leaves' in ascending source
        order.
        """
        truth_f = truth.astype(np.float64)
        roots = np.array(forest.roots, dtype=np.intp)
        leaves = np.array(sorted(forest.parent), dtype=np.intp)
        parents = np.array([forest.parent[leaf] for leaf in leaves.tolist()], dtype=np.intp)

        def _rates(scale: np.ndarray, bias: np.ndarray) -> np.ndarray:
            """``(k, m)`` rates ``scale · (bias on true, 1 − bias on false)``."""
            bias = bias[:, None]
            return scale[:, None] * (truth_f * bias + (1.0 - truth_f) * (1.0 - bias))

        claims = np.zeros((self.config.n_sources, truth.size), dtype=np.int8)
        dependency = np.zeros_like(claims)
        claims[roots] = rng.random((roots.size, truth.size)) < _rates(
            realized.p_on[roots], realized.p_indep_true[roots]
        )
        dependency[leaves] = claims[parents]
        leaf_rates = np.where(
            dependency[leaves] == 1,
            _rates(realized.p_dep[leaves], realized.p_dep_true[leaves]),
            _rates(realized.p_on[leaves], realized.p_indep_true[leaves]),
        )
        claims[leaves] = rng.random(leaf_rates.shape) < leaf_rates
        return claims, dependency

    def _simulate_claims_pool(
        self,
        rng: np.random.Generator,
        forest: LevelTwoForest,
        realized: RealizedParameters,
        truth: np.ndarray,
    ) -> EventLog:
        config = self.config
        rounds = config.effective_rounds
        true_pool = set(np.flatnonzero(truth == 1).tolist())
        false_pool = set(np.flatnonzero(truth == 0).tolist())
        claimed: List[Set[int]] = [set() for _ in range(config.n_sources)]
        posts: List[Post] = []
        post_id = 0

        def _pick(pool: Set[int], already: Set[int]) -> Optional[int]:
            candidates = sorted(pool - already)
            if not candidates:
                return None
            return int(candidates[rng.integers(0, len(candidates))])

        # Phase 1: roots (independent claims) in the [0, 1) time band.
        root_set = set(forest.roots)
        for round_index in range(rounds):
            time_base = round_index / rounds
            for source in forest.roots:
                if rng.random() >= realized.p_on[source]:
                    continue
                pool = (
                    true_pool
                    if rng.random() < realized.p_indep_true[source]
                    else false_pool
                )
                assertion = _pick(pool, claimed[source])
                if assertion is None:
                    continue
                claimed[source].add(assertion)
                posts.append(
                    Post(
                        post_id=post_id,
                        source=source,
                        assertion=assertion,
                        time=time_base,
                    )
                )
                post_id += 1

        # Root claims per assertion, for the leaves' candidate split.
        root_claims: dict = {root: claimed[root] for root in root_set}

        # Phase 2: leaves in the [1, 2) time band.
        leaves = [s for s in range(config.n_sources) if s not in root_set]
        for round_index in range(rounds):
            time_base = 1.0 + round_index / rounds
            for source in leaves:
                if rng.random() >= realized.p_on[source]:
                    continue
                parent = forest.parent[source]
                dependent_candidates = root_claims[parent]
                use_dependent = bool(dependent_candidates) and (
                    rng.random() < realized.p_dep[source]
                )
                if use_dependent:
                    truth_bias = realized.p_dep_true[source]
                    candidate_true = true_pool & dependent_candidates
                    candidate_false = false_pool & dependent_candidates
                else:
                    truth_bias = realized.p_indep_true[source]
                    candidate_true = true_pool - dependent_candidates
                    candidate_false = false_pool - dependent_candidates
                pool = (
                    candidate_true
                    if rng.random() < truth_bias
                    else candidate_false
                )
                assertion = _pick(pool, claimed[source])
                if assertion is None:
                    continue
                claimed[source].add(assertion)
                posts.append(
                    Post(
                        post_id=post_id,
                        source=source,
                        assertion=assertion,
                        time=time_base,
                    )
                )
                post_id += 1
        return EventLog(posts=posts)


def generate_dataset(
    config: Optional[GeneratorConfig] = None, seed: SeedLike = None
) -> SyntheticDataset:
    """One-call convenience wrapper around :class:`SyntheticGenerator`."""
    return SyntheticGenerator(config, seed=seed).generate()


__all__ = ["SyntheticDataset", "SyntheticGenerator", "generate_dataset"]
