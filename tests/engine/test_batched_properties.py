"""Property-based parity: batched lanes ≡ serial runs on ANY input.

Hypothesis drives the shapes, seeds and knobs; the invariant is always
the same — every lane of a batched run must be **bit-for-bit** the
serial computation of that lane alone.  The generated space includes
the corners the example-based wall can only sample: unclamped
degenerate θ lanes (0/1 rates routing through the legacy likelihood
path), all-dependent claim matrices (the independent partition is
empty, so Equations 10–11 hit their fallback), empty-partition
posteriors, and mixed-convergence batches whose lanes retire on
different passes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SensingProblem, SourceParameters
from repro.core.em_ext import EMConfig, EMExtEstimator
from repro.engine import EMDriver
from repro.engine.backends import DenseBackend
from repro.engine.batched import (
    BatchedDenseBackend,
    BatchedSourceParameters,
    run_batched_lanes,
)

SETTINGS = settings(max_examples=20, deadline=None)

dims = st.tuples(st.integers(2, 7), st.integers(2, 9))
seeds = st.integers(0, 2**32 - 1)
lane_counts = st.integers(2, 5)


def _problem(n_sources, n_assertions, seed, *, all_dependent=False):
    """A random valid sensing problem (dependency implies a claim)."""
    rng = np.random.default_rng(seed)
    sc = (rng.random((n_sources, n_assertions)) < 0.6).astype(np.int8)
    if all_dependent:
        dep = sc.copy()  # every claim is dependent: no independent cells
    else:
        dep = ((rng.random(sc.shape) < 0.3) & (sc == 1)).astype(np.int8)
    return SensingProblem(claims=sc, dependency=dep)


def _inits(n_sources, seed, count, *, degenerate=False):
    rng = np.random.default_rng(seed)
    params = []
    for _ in range(count):
        draw = SourceParameters.random(n_sources, rng).clamp(1e-4)
        if degenerate:
            # Pin one random rate of one random source to an exact 0/1:
            # its log tables go infinite and the lane must route through
            # the legacy likelihood path, bit-for-bit with serial.
            rates = np.stack([draw.a, draw.b, draw.f, draw.g], axis=1)
            rates[rng.integers(n_sources), rng.integers(4)] = float(
                rng.integers(2)
            )
            draw = SourceParameters(
                a=rates[:, 0], b=rates[:, 1], f=rates[:, 2], g=rates[:, 3],
                z=draw.z,
            )
        params.append(draw)
    return params


def _assert_lanes_match_serial(problem, inits, *, smoothing=0.0, tolerance=1e-5):
    backend = DenseBackend(problem, smoothing=smoothing)
    driver = EMDriver(max_iterations=25, tolerance=tolerance)
    with np.errstate(invalid="ignore", divide="ignore"):
        lanes = run_batched_lanes(
            BatchedDenseBackend.from_backends([backend] * len(inits)),
            inits,
            max_iterations=25,
            tolerance=tolerance,
        )
        for lane, init in zip(lanes, inits):
            serial = driver.run(backend, init)
            assert lane.error is None
            batched = lane.outcome
            assert np.array_equal(
                serial.posterior, batched.posterior, equal_nan=True
            )
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(
                    getattr(serial.parameters, name),
                    getattr(batched.parameters, name),
                    equal_nan=True,
                )
            assert serial.parameters.z == batched.parameters.z
            assert serial.converged == batched.converged
            assert serial.diverged == batched.diverged
            assert serial.n_iterations == batched.n_iterations
            assert len(serial.trace.log_likelihoods) == len(
                batched.trace.log_likelihoods
            )
            for left, right in zip(
                serial.trace.log_likelihoods, batched.trace.log_likelihoods
            ):
                assert left == right or (np.isnan(left) and np.isnan(right))


class TestLaneParityProperties:
    @SETTINGS
    @given(shape=dims, seed=seeds, n_lanes=lane_counts)
    def test_random_lanes_match_serial(self, shape, seed, n_lanes):
        problem = _problem(*shape, seed)
        inits = _inits(shape[0], seed + 1, n_lanes)
        _assert_lanes_match_serial(problem, inits)

    @SETTINGS
    @given(
        shape=dims,
        seed=seeds,
        n_lanes=lane_counts,
        smoothing=st.floats(0.1, 2.0),
    )
    def test_smoothed_lanes_match_serial(self, shape, seed, n_lanes, smoothing):
        problem = _problem(*shape, seed)
        inits = _inits(shape[0], seed + 1, n_lanes)
        _assert_lanes_match_serial(problem, inits, smoothing=smoothing)

    @SETTINGS
    @given(shape=dims, seed=seeds, n_lanes=lane_counts)
    def test_degenerate_theta_lanes_match_serial(self, shape, seed, n_lanes):
        problem = _problem(*shape, seed)
        inits = _inits(shape[0], seed + 1, n_lanes, degenerate=True)
        _assert_lanes_match_serial(problem, inits)

    @SETTINGS
    @given(shape=dims, seed=seeds, n_lanes=lane_counts)
    def test_all_dependent_lanes_match_serial(self, shape, seed, n_lanes):
        problem = _problem(*shape, seed, all_dependent=True)
        inits = _inits(shape[0], seed + 1, n_lanes)
        _assert_lanes_match_serial(problem, inits)


class TestEstimatorParityProperties:
    @settings(max_examples=10, deadline=None)
    @given(shape=dims, seed=seeds, n_restarts=st.integers(2, 4))
    def test_fit_matches_serial_fit(self, shape, seed, n_restarts):
        problem = _problem(*shape, seed)
        config = dict(
            n_restarts=n_restarts, init_strategy="random", max_iterations=25
        )
        serial = EMExtEstimator(
            EMConfig(restart_mode="serial", **config), seed=seed
        ).fit(problem)
        batched = EMExtEstimator(
            EMConfig(restart_mode="batched", **config), seed=seed
        ).fit(problem)
        assert np.array_equal(serial.scores, batched.scores)
        assert serial.log_likelihood == batched.log_likelihood
        assert serial.health.selected == batched.health.selected
        assert [
            (r.index, r.status, r.n_iterations)
            for r in serial.health.restarts
        ] == [
            (r.index, r.status, r.n_iterations)
            for r in batched.health.restarts
        ]


class TestBatchedContainerProperties:
    @SETTINGS
    @given(seed=seeds, n=st.integers(1, 8), n_lanes=lane_counts)
    def test_stack_select_lane_round_trip(self, seed, n, n_lanes):
        inits = _inits(n, seed, n_lanes)
        stacked = BatchedSourceParameters.stack(inits)
        keep = np.arange(n_lanes)[:: max(1, n_lanes - 1)]
        selected = stacked.select(keep)
        for position, lane_index in enumerate(keep):
            lane = selected.lane(position)
            original = inits[int(lane_index)]
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(original, name))
            assert lane.z == original.z

    @SETTINGS
    @given(shape=dims, seed=seeds, n_lanes=lane_counts)
    def test_compact_preserves_remaining_lanes(self, shape, seed, n_lanes):
        problems = [
            _problem(*shape, seed + index) for index in range(n_lanes)
        ]
        batched = BatchedDenseBackend.from_backends(
            [DenseBackend(p) for p in problems]
        )
        keep = np.arange(n_lanes)[:: max(1, n_lanes - 1)]
        compacted = batched.compact(keep)
        assert compacted.n_lanes == len(keep)
        params = _inits(shape[0], seed + 99, len(keep))
        stacked = BatchedSourceParameters.stack(params)
        posterior, lls = compacted.e_step(stacked)
        for position, lane_index in enumerate(keep):
            scalar = DenseBackend(problems[int(lane_index)])
            expected_posterior, expected_ll = scalar.e_step(params[position])
            assert np.array_equal(posterior[position], expected_posterior)
            assert lls[position] == expected_ll
