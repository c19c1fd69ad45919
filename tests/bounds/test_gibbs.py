"""Tests for the Gibbs-sampling bound approximation (Algorithm 1)."""

import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bounds import GibbsConfig, exact_bound, exact_column_bound, gibbs_bound, gibbs_column_bound
from repro.bounds.exact import BoundResult, _emission_rates
from repro.bounds.gibbs import _aggregate, _per_chain, _safe_frac
from repro.core import SourceParameters
from repro.kernels import gibbs as kernel_gibbs
from repro.kernels.dedup import group_columns
from repro.kernels.gibbs import BLOCK_CELLS, BLOCK_SWEEPS, RATE_EPS
from repro.utils.errors import ValidationError
from repro.utils.rng import RandomState


@pytest.fixture
def params10():
    return SourceParameters.random(10, seed=4, informative=True)


class TestGibbsConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burn_in": -1},
            {"min_sweeps": 0},
            {"min_sweeps": 100, "max_sweeps": 50},
            {"check_interval": 0},
            {"tolerance": 0.0},
            {"mode": "wrong"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            GibbsConfig(**kwargs)


class TestConvergenceToExact:
    def test_single_column(self, params10):
        d_column = np.array([0, 1, 0, 1, 0, 0, 1, 0, 0, 0])
        exact = exact_column_bound(d_column, params10)
        approx = gibbs_column_bound(
            d_column,
            params10,
            config=GibbsConfig(min_sweeps=3000, max_sweeps=8000, tolerance=1e-4),
            seed=0,
        )
        # The paper reports max deviation ~0.013; we allow similar slack.
        assert abs(approx.total - exact.total) < 0.02

    def test_matrix_bound(self, params10, rng):
        dependency = (rng.random((10, 30)) < 0.3).astype(int)
        exact = exact_bound(dependency, params10)
        approx = gibbs_bound(
            dependency,
            params10,
            config=GibbsConfig(min_sweeps=2000, max_sweeps=6000),
            seed=1,
        )
        assert abs(approx.total - exact.total) < 0.02

    def test_fp_fn_sum_to_total(self, params10):
        d_column = np.zeros(10, dtype=int)
        result = gibbs_column_bound(d_column, params10, seed=2)
        assert result.false_positive + result.false_negative == pytest.approx(
            result.total, abs=1e-9
        )

    def test_posterior_mean_beats_literal_ratio(self, params10):
        """The literal Algorithm 1 ratio is biased; the default is not."""
        d_column = np.array([0, 1, 0, 1, 0, 0, 1, 0, 0, 0])
        exact = exact_column_bound(d_column, params10).total
        config_kwargs = {"min_sweeps": 4000, "max_sweeps": 8000, "tolerance": 1e-5}
        consistent = gibbs_column_bound(
            d_column, params10,
            config=GibbsConfig(mode="posterior-mean", **config_kwargs), seed=3,
        ).total
        literal = gibbs_column_bound(
            d_column, params10,
            config=GibbsConfig(mode="ratio", **config_kwargs), seed=3,
        ).total
        assert abs(consistent - exact) <= abs(literal - exact) + 5e-3


class TestMechanics:
    def test_deterministic_given_seed(self, params10):
        d_column = np.zeros(10, dtype=int)
        config = GibbsConfig(min_sweeps=500, max_sweeps=500)
        a = gibbs_column_bound(d_column, params10, config=config, seed=9)
        b = gibbs_column_bound(d_column, params10, config=config, seed=9)
        assert a.total == b.total

    def test_reports_sample_count(self, params10):
        config = GibbsConfig(min_sweeps=400, max_sweeps=400)
        result = gibbs_column_bound(np.zeros(10, dtype=int), params10, config=config, seed=0)
        assert result.n_samples == 400
        assert result.method == "gibbs"

    def test_early_stop_on_convergence(self, params10):
        config = GibbsConfig(
            min_sweeps=200, max_sweeps=50_000, check_interval=100, tolerance=0.05
        )
        result = gibbs_column_bound(np.zeros(10, dtype=int), params10, config=config, seed=0)
        assert result.n_samples < 50_000

    def test_column_shape_validation(self, params10):
        with pytest.raises(ValidationError):
            gibbs_column_bound(np.zeros((2, 5)), params10)

    def test_three_dimensional_rejected(self, params10):
        with pytest.raises(ValidationError):
            gibbs_bound(np.zeros((2, 2, 2)), params10)

    def test_degenerate_parameters_survive(self):
        """Rates at exactly 0/1 must not break the chain."""
        params = SourceParameters.from_scalars(4, a=1.0, b=0.0, f=1.0, g=0.0, z=0.5)
        result = gibbs_column_bound(
            np.zeros(4, dtype=int), params,
            config=GibbsConfig(min_sweeps=300, max_sweeps=600), seed=0,
        )
        assert result.total == pytest.approx(0.0, abs=1e-6)


# -- the bitwise wall: block-at-a-time sampling == sweep-at-a-time sampling -------


class _PerSweepChains:
    """Test-only copy of the blocked chains as they advanced one sweep at a time."""

    def __init__(self, rate_true, rate_false, z, rng):
        self.rate_true = np.clip(rate_true, RATE_EPS, 1 - RATE_EPS)
        self.rate_false = np.clip(rate_false, RATE_EPS, 1 - RATE_EPS)
        z = float(np.clip(z, RATE_EPS, 1 - RATE_EPS))
        self.log_z, self.log_1z = float(np.log(z)), float(np.log1p(-z))
        self.n_chains = self.rate_true.shape[0]
        self.rng = rng
        self.state = rng.random(self.rate_true.shape) < 0.5
        self._refresh()

    def _refresh(self):
        rt, rf = self.rate_true, self.rate_false
        self.like_true = np.where(self.state, np.log(rt), np.log1p(-rt)).sum(axis=1)
        self.like_false = np.where(self.state, np.log(rf), np.log1p(-rf)).sum(axis=1)

    def sweep(self):
        joint_true = self.like_true + self.log_z
        joint_false = self.like_false + self.log_1z
        top = np.maximum(joint_true, joint_false)
        w_true = np.exp(joint_true - top)
        p_true = w_true / (w_true + np.exp(joint_false - top))
        truth = self.rng.random(self.n_chains) < p_true
        rates = np.where(truth[:, None], self.rate_true, self.rate_false)
        self.state = self.rng.random(self.rate_true.shape) < rates
        self._refresh()

    def joints(self):
        return (
            np.exp(self.like_true + self.log_z),
            np.exp(self.like_false + self.log_1z),
        )


def _per_sweep_bound(chains, weights, config):
    """Test-only copy of the per-sweep accumulation of Equation (6)."""
    for _ in range(config.burn_in):
        chains.sweep()
    k = chains.n_chains
    err_sum, fp_sum, fn_sum = np.zeros(k), np.zeros(k), np.zeros(k)
    ratio_min, ratio_total = np.zeros(k), np.zeros(k)
    n_samples = 0
    previous_estimate = None
    trace = [] if config.collect_trace else None
    while n_samples < config.max_sweeps:
        chains.sweep()
        joint_true, joint_false = chains.joints()
        total_mass = joint_true + joint_false
        n_samples += 1
        positive = total_mass > 0
        smaller = np.minimum(joint_true, joint_false)
        contribution = np.where(positive, smaller / np.where(positive, total_mass, 1.0), 0.0)
        err_sum += contribution
        if trace is not None:
            trace.append(float(np.sum(weights * contribution)))
        decide_true = joint_true > joint_false
        fp_sum += np.where(decide_true, contribution, 0.0)
        fn_sum += np.where(decide_true, 0.0, contribution)
        ratio_min += smaller
        ratio_total += total_mass
        if n_samples >= config.min_sweeps and n_samples % config.check_interval == 0:
            estimate = _aggregate(config.mode, err_sum, ratio_min, ratio_total, n_samples, weights)
            if previous_estimate is not None and abs(estimate - previous_estimate) < config.tolerance:
                break
            previous_estimate = estimate
    total = _aggregate(config.mode, err_sum, ratio_min, ratio_total, n_samples, weights)
    share = fp_sum + fn_sum
    safe_share = np.where(share > 0, share, 1.0)
    per_chain_total = _per_chain(config.mode, err_sum, ratio_min, ratio_total, n_samples)
    fp = float(np.sum(weights * per_chain_total * fp_sum / safe_share))
    fn = float(np.sum(weights * per_chain_total * fn_sum / safe_share))
    degenerate = share <= 0
    if degenerate.any():
        leftover = float(np.sum(weights[degenerate] * per_chain_total[degenerate]))
        fp += leftover / 2.0
        fn += leftover / 2.0
    if config.mode == "posterior-mean":
        total = fp + fn
    else:
        fp, fn = total * _safe_frac(fp, fp + fn), total * _safe_frac(fn, fp + fn)
    return BoundResult(
        total=total, false_positive=fp, false_negative=fn, method="gibbs",
        n_samples=n_samples,
        estimate_trace=tuple(trace) if trace is not None else None,
    )


def _reference_bound(dependency, params, config, seed):
    """:func:`gibbs_bound` on the per-sweep reference chains."""
    if dependency.ndim == 1:
        columns, weights = dependency[None, :], np.ones(1)
    else:
        columns, counts = group_columns(dependency)
        weights = counts / dependency.shape[1]
    rates = np.zeros((len(columns), 2, params.n_sources))
    for index, column in enumerate(columns):
        rates[index] = _emission_rates(column, params)
    chains = _PerSweepChains(rates[:, 0], rates[:, 1], params.z, RandomState(seed))
    return _per_sweep_bound(chains, weights, config)


@dataclass
class _Case:
    dependency: np.ndarray
    params: SourceParameters
    config: GibbsConfig
    seed: int
    #: "matrix", "column" (gibbs_column_bound) or "generator" (a
    #: caller-owned Generator as the seed).
    entry: str = "matrix"
    #: Block caps patched into the kernel, so blocks also end at the caps.
    block_sweeps: int = BLOCK_SWEEPS
    block_cells: int = BLOCK_CELLS


def _run(case, blocked):
    """One case through the library (``blocked``) or the reference."""
    seed = np.random.default_rng(case.seed) if case.entry == "generator" else case.seed
    dependency = case.dependency[:, 0] if case.entry == "column" else case.dependency
    if not blocked:
        result = _reference_bound(dependency, case.params, case.config, seed)
    elif case.entry == "column":
        result = gibbs_column_bound(dependency, case.params, config=case.config, seed=seed)
    else:
        result = gibbs_bound(dependency, case.params, config=case.config, seed=seed)
    return result, seed


@st.composite
def _gibbs_cases(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dependency = (rng.random((n, m)) < draw(st.sampled_from([0.0, 0.3, 0.7]))).astype(int)
    copies = draw(st.integers(0, m - 1))
    dependency[:, m - copies :] = dependency[:, :1]  # fewer chains than columns
    params = SourceParameters.random(n, seed=rng, informative=draw(st.booleans()))
    if draw(st.booleans()):  # rates of exactly 0 or 1
        rates = {}
        for name in "abfg":
            values = getattr(params, name).copy()
            pinned = rng.random(n) < 0.4
            values[pinned] = rng.integers(0, 2, int(pinned.sum()))
            rates[name] = values
        params = SourceParameters(z=params.z, **rates)
    min_sweeps = draw(st.integers(1, 150))
    config = GibbsConfig(
        burn_in=draw(st.sampled_from([0, 1, 17, 100])),
        min_sweeps=min_sweeps,
        max_sweeps=min_sweeps + draw(st.integers(0, 200)),
        check_interval=draw(st.integers(1, 60)),
        tolerance=draw(st.sampled_from([1e-1, 1e-3, 1e-6])),
        mode=draw(st.sampled_from(["posterior-mean", "ratio"])),
        collect_trace=draw(st.booleans()),
    )
    return _Case(
        dependency,
        params,
        config,
        draw(st.integers(0, 2**32 - 1)),
        entry=draw(st.sampled_from(["matrix", "column", "generator"])),
        block_sweeps=draw(st.sampled_from([1, 2, 5, 64, BLOCK_SWEEPS])),
        block_cells=draw(st.sampled_from([1, 40, BLOCK_CELLS])),
    )


_WALL_CONFIG = GibbsConfig(
    burn_in=3, min_sweeps=50, max_sweeps=230, check_interval=41, collect_trace=True
)


class TestBlockedSamplingBitwise:
    """Advancing a block of sweeps at a time draws exactly the per-sweep chains."""

    @settings(max_examples=80, deadline=None)
    @given(case=_gibbs_cases())
    @example(
        case=_Case(
            np.zeros((6, 0), dtype=int), SourceParameters.random(6, seed=1), _WALL_CONFIG, 1
        )
    )
    @example(
        case=_Case(
            np.array([[0], [1], [0], [1], [1]]),
            SourceParameters.random(5, seed=2),
            _WALL_CONFIG,
            2,
            entry="column",
        )
    )
    @example(
        case=_Case(
            np.array([[0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]]),
            SourceParameters.random(4, seed=4),
            GibbsConfig(burn_in=0, min_sweeps=1, max_sweeps=1),
            4,
            entry="generator",
        )
    )
    def test_matches_the_per_sweep_reference(self, case):
        with mock.patch.multiple(
            kernel_gibbs, BLOCK_SWEEPS=case.block_sweeps, BLOCK_CELLS=case.block_cells
        ):
            got, got_seed = _run(case, blocked=True)
        want, want_seed = _run(case, blocked=False)

        def fields(result):
            return repr((
                result.total, result.false_positive, result.false_negative,
                result.n_samples, result.estimate_trace,
            ))

        assert fields(got) == fields(want)
        if case.entry == "generator":
            # The caller's generator was advanced by exactly the same draws.
            assert np.array_equal(got_seed.random(3), want_seed.random(3))

    def test_block_memory_does_not_grow_with_the_sweeps(self):
        """K = 400 distinct columns of n = 24: the block caps bound the peak."""
        n, k = 24, 400
        rng = np.random.default_rng(0)
        dependency = (rng.random((n, k)) < 0.5).astype(int)
        assert group_columns(dependency)[0].shape[0] == k
        params = SourceParameters.random(n, seed=0)

        def peak(sweeps):
            config = GibbsConfig(burn_in=0, min_sweeps=sweeps, max_sweeps=sweeps)
            tracemalloc.start()
            try:
                gibbs_bound(dependency, params, config=config, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(500), peak(5000)
        assert long <= short + 64 * 1024
        assert long < 4 * 1024 * 1024


# -- a bound depends only on the multiset of D's columns ---------------------------


@st.composite
def _column_multiset_cases(draw):
    n = draw(st.integers(1, 13))
    m = draw(st.integers(1, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dependency = (rng.random((n, m)) < draw(st.sampled_from([0.2, 0.5, 0.8]))).astype(int)
    params = SourceParameters.random(n, seed=rng, informative=draw(st.booleans()))
    config = GibbsConfig(
        burn_in=draw(st.sampled_from([0, 10])),
        min_sweeps=40,
        max_sweeps=draw(st.integers(40, 160)),
        check_interval=draw(st.integers(1, 40)),
        mode=draw(st.sampled_from(["posterior-mean", "ratio"])),
        collect_trace=True,
    )
    copies = draw(st.integers(2, 3))
    return dependency, params, config, rng.permutation(m), copies, draw(st.integers(0, 2**32 - 1))


class TestColumnMultisetInvariance:
    """Permuting, tiling or repeating D's columns changes no bit of either bound."""

    @settings(max_examples=40, deadline=None)
    @given(case=_column_multiset_cases())
    def test_bounds_see_only_the_column_multiset(self, case):
        dependency, params, config, permutation, copies, seed = case
        variants = [
            dependency,
            dependency[:, permutation],
            np.tile(dependency, (1, copies)),
            np.repeat(dependency, copies, axis=1),
        ]
        gibbs = {
            repr((r.total, r.false_positive, r.false_negative, r.n_samples, r.estimate_trace))
            for r in (gibbs_bound(d, params, config=config, seed=seed) for d in variants)
        }
        exact = {
            repr((r.total, r.false_positive, r.false_negative))
            for r in (exact_bound(d, params) for d in variants)
        }
        assert len(gibbs) == 1, gibbs
        assert len(exact) == 1, exact
