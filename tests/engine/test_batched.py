"""The batched engine's parity wall: lane ``b`` IS the serial run ``b``.

Everything the batched tensor path produces — parameters, posteriors,
log-likelihood traces, restart selection, health ledgers, even fault
message strings — must be **bit-for-bit** what the serial loop produces
for the same lane alone.  These tests pin that contract at every layer:
the stacked parameter container, ``run_batched_lanes`` against
``EMDriver.run``, ``restart_mode="batched"`` against the serial restart
loop, :func:`repro.core.fit_em_ext_batch` against per-problem
``EMExtEstimator.fit``, and ``run_simulation(trial_mode="batched")``
against the serial harness — plus the transparency guarantee that
observability being on or off changes no bits.
"""

import numpy as np
import pytest

from repro import observability
from repro.core import SourceParameters, fit_em_ext_batch
from repro.core.em_ext import EMConfig, EMExtEstimator, _prepare_restarts
from repro.core.likelihood import column_log_likelihoods
from repro.engine import EMDriver
from repro.engine.backends import DenseBackend, _check_rates_finite
from repro.engine.batched import (
    _RATES_FAULT,
    _Z_FAULT,
    BatchedDenseBackend,
    BatchedSourceParameters,
    run_batched_lanes,
)
from repro.eval import run_simulation
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import ConvergenceError, ValidationError
from repro.utils.rng import RandomState
from repro.utils.validation import check_probability

SEED = 20160627  # the paper's conference date; any fixed seed works


def _problem(n_sources=10, n_assertions=16, seed=SEED):
    config = GeneratorConfig(
        n_sources=n_sources, n_assertions=n_assertions, n_trees=(3, 4)
    )
    return generate_dataset(config, seed=seed).problem.without_truth()


def _random_params(n_sources, seed, count):
    rngs = [np.random.default_rng((seed, index)) for index in range(count)]
    return [SourceParameters.random(n_sources, rng).clamp(1e-4) for rng in rngs]


def _assert_outcomes_bitwise(serial, batched, label=""):
    assert np.array_equal(serial.posterior, batched.posterior), f"{label} posterior"
    for name in ("a", "b", "f", "g"):
        assert np.array_equal(
            getattr(serial.parameters, name), getattr(batched.parameters, name)
        ), f"{label} rate {name}"
    assert serial.parameters.z == batched.parameters.z, f"{label} z"
    assert serial.trace.log_likelihoods == batched.trace.log_likelihoods, (
        f"{label} trace lls"
    )
    assert serial.trace.parameter_deltas == batched.trace.parameter_deltas, (
        f"{label} trace deltas"
    )
    assert serial.converged == batched.converged, f"{label} converged"
    assert serial.diverged == batched.diverged, f"{label} diverged"


def _assert_results_bitwise(serial, batched, label=""):
    assert np.array_equal(serial.scores, batched.scores), f"{label} scores"
    assert np.array_equal(serial.decisions, batched.decisions), f"{label} decisions"
    assert serial.log_likelihood == batched.log_likelihood, f"{label} ll"
    for name in ("a", "b", "f", "g"):
        assert np.array_equal(
            getattr(serial.parameters, name), getattr(batched.parameters, name)
        ), f"{label} rate {name}"
    assert serial.parameters.z == batched.parameters.z, f"{label} z"
    assert serial.n_iterations == batched.n_iterations, f"{label} iterations"
    assert serial.trace.log_likelihoods == batched.trace.log_likelihoods, (
        f"{label} trace"
    )
    assert serial.trace.parameter_deltas == batched.trace.parameter_deltas, (
        f"{label} trace deltas"
    )
    assert serial.health.selected == batched.health.selected, f"{label} selection"
    assert [
        (r.index, r.status, r.n_iterations, r.error) for r in serial.health.restarts
    ] == [
        (r.index, r.status, r.n_iterations, r.error) for r in batched.health.restarts
    ], f"{label} health ledger"


class TestBatchedSourceParameters:
    def test_stack_and_lane_round_trip(self):
        params = _random_params(6, SEED, 4)
        stacked = BatchedSourceParameters.stack(params)
        assert stacked.n_lanes == 4 and stacked.n_sources == 6
        for index, original in enumerate(params):
            lane = stacked.lane(index)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(original, name))
            assert lane.z == original.z

    def test_max_difference_matches_scalar_lanes(self):
        left = _random_params(5, SEED, 3)
        right = _random_params(5, SEED + 1, 3)
        deltas = BatchedSourceParameters.stack(left).max_difference(
            BatchedSourceParameters.stack(right)
        )
        for index in range(3):
            assert deltas[index] == left[index].max_difference(right[index])

    def test_stack_validations(self):
        with pytest.raises(ValidationError):
            BatchedSourceParameters.stack([])
        mixed = [
            SourceParameters.random(4, SEED),
            SourceParameters.random(5, SEED),
        ]
        with pytest.raises(ValidationError):
            BatchedSourceParameters.stack(mixed)

    def test_lane_faults_messages_and_precedence(self):
        stacked = BatchedSourceParameters.stack(_random_params(4, SEED, 3))
        rates = stacked.rates.copy()
        z = stacked.z.copy()
        rates[1, 2, 0] = np.nan
        z[2] = np.nan
        faults = BatchedSourceParameters(rates=rates, z=z).lane_faults()
        assert faults == [None, _RATES_FAULT, _Z_FAULT]
        # A lane with both faults reports the rates fault, matching the
        # serial guard order (_check_rates_finite runs first).
        z[1] = np.nan
        faults = BatchedSourceParameters(rates=rates, z=z).lane_faults()
        assert faults[1] == _RATES_FAULT
        assert BatchedSourceParameters.stack(
            _random_params(4, SEED, 3)
        ).lane_faults() is None

    def test_fault_strings_are_the_serial_exceptions_verbatim(self):
        """The pinned constants ARE the serial raise sites' messages."""
        nan = np.array([np.nan])
        ok = np.array([0.5])
        with pytest.raises(ValidationError) as rates_exc:
            _check_rates_finite(nan, ok, ok, ok)
        assert _RATES_FAULT == f"ValidationError: {rates_exc.value}"
        with pytest.raises(ValidationError) as z_exc:
            check_probability(float("nan"), "z")
        assert _Z_FAULT == f"ValidationError: {z_exc.value}"


class TestBatchedKernelParity:
    def test_column_log_likelihoods_match_core_per_lane(self):
        """The lane-stacked pair-table gather selects the serial floats."""
        problems = [_problem(seed=SEED + k) for k in range(3)]
        backends = [DenseBackend(p) for p in problems]
        params = _random_params(problems[0].n_sources, SEED, 3)
        batched = BatchedDenseBackend.from_backends(backends)
        columns = batched._columns(BatchedSourceParameters.stack(params))
        log_true, log_false = columns[..., 0], columns[..., 1]
        for index, (backend, p) in enumerate(zip(backends, params)):
            expected_true, expected_false = column_log_likelihoods(
                backend.sc, backend.dep, p
            )
            assert np.array_equal(log_true[index], expected_true)
            assert np.array_equal(log_false[index], expected_false)

    def test_degenerate_lane_matches_serial_bitwise(self):
        """An unclamped 0/1 rate lane gives the serial Eq. 4/5 values, not NaN."""
        problem = _problem()
        backend = DenseBackend(problem)
        params = _random_params(problem.n_sources, SEED, 3)
        a = params[1].a.copy()
        f = params[1].f.copy()
        a[0] = 0.0  # one unclamped degenerate source: log(0) tables
        f[0] = 1.0
        degenerate = SourceParameters(a=a, b=params[1].b, f=f, g=params[1].g, z=0.5)
        lanes = [params[0], degenerate, params[2]]
        batched = BatchedDenseBackend.from_backends([backend] * 3)
        columns = batched._columns(BatchedSourceParameters.stack(lanes))
        log_true, log_false = columns[..., 0], columns[..., 1]
        expected = [column_log_likelihoods(backend.sc, backend.dep, p) for p in lanes]
        assert not np.isnan(columns).any()
        for index, (expected_true, expected_false) in enumerate(expected):
            assert np.array_equal(log_true[index], expected_true)
            assert np.array_equal(log_false[index], expected_false)

    def test_e_step_and_m_step_match_scalar_backend(self, same_column_problem):
        problems = [_problem(seed=SEED + k) for k in range(3)]
        problems.append(same_column_problem)
        backends = [DenseBackend(p) for p in problems]
        params = _random_params(problems[0].n_sources, SEED + 7, 3)
        params.append(
            SourceParameters.random(10, np.random.default_rng(0)).clamp(1e-4)
        )
        batched = BatchedDenseBackend.from_backends(backends)
        stacked = BatchedSourceParameters.stack(params)
        posterior, lls = batched.e_step(stacked)
        for index, (backend, p) in enumerate(zip(backends, params)):
            expected_posterior, expected_ll = backend.e_step(p)
            assert np.array_equal(posterior[index], expected_posterior)
            assert lls[index] == expected_ll
        new_params = batched.m_step(posterior, stacked)
        for index, (backend, p) in enumerate(zip(backends, params)):
            expected = backend.m_step(posterior[index], p)
            lane = new_params.lane(index)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(expected, name))
            assert lane.z == expected.z

    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_m_step_smoothing_paths_match(self, smoothing):
        problem = _problem()
        backend = DenseBackend(problem, smoothing=smoothing)
        params = _random_params(problem.n_sources, SEED, 2)
        batched = BatchedDenseBackend.from_backends([backend] * 2)
        stacked = BatchedSourceParameters.stack(params)
        posterior, _ = batched.e_step(stacked)
        new_params = batched.m_step(posterior, stacked)
        for index, p in enumerate(params):
            expected = backend.m_step(posterior[index], p)
            lane = new_params.lane(index)
            for name in ("a", "b", "f", "g"):
                assert np.array_equal(getattr(lane, name), getattr(expected, name))


class TestRunBatchedLanes:
    def test_every_lane_matches_its_serial_run(self):
        """Lanes retire at different passes; each is bitwise its solo run."""
        problem = _problem()
        backend = DenseBackend(problem)
        inits = _random_params(problem.n_sources, SEED, 5)
        driver = EMDriver(max_iterations=60, tolerance=1e-6)
        lanes = run_batched_lanes(
            BatchedDenseBackend.from_backends([backend] * 5),
            inits,
            max_iterations=60,
            tolerance=1e-6,
        )
        iteration_counts = set()
        for lane, init in zip(lanes, inits):
            assert lane.error is None
            serial = driver.run(backend, init)
            _assert_outcomes_bitwise(serial, lane.outcome)
            iteration_counts.add(lane.outcome.n_iterations)
        # The compaction path is only exercised when lanes actually
        # retire on different passes; 5 random starts guarantee it.
        assert len(iteration_counts) > 1

    def test_lane_count_mismatch_rejected(self):
        problem = _problem()
        backend = DenseBackend(problem)
        with pytest.raises(ValidationError):
            run_batched_lanes(
                BatchedDenseBackend.from_backends([backend] * 3),
                _random_params(problem.n_sources, SEED, 2),
                max_iterations=5,
                tolerance=1e-6,
            )

    def test_from_backends_validations(self):
        with pytest.raises(ValidationError):
            BatchedDenseBackend.from_backends([])
        small = DenseBackend(_problem(n_sources=6))
        large = DenseBackend(_problem(n_sources=8))
        with pytest.raises(ValidationError):
            BatchedDenseBackend.from_backends([small, large])
        plain = DenseBackend(_problem())
        smoothed = DenseBackend(_problem(), smoothing=1.0)
        with pytest.raises(ValidationError):
            BatchedDenseBackend.from_backends([plain, smoothed])


class TestFromBackends:
    def test_one_backend_for_every_lane_shares_a_broadcast_stack(self):
        backend = DenseBackend(_problem())
        batched = BatchedDenseBackend.from_backends([backend] * 4)
        n, m = backend.sc.shape
        assert batched.n_lanes == 4
        assert batched.sc.shape == batched.dep.shape == (1, n, m)
        assert np.shares_memory(batched.sc, backend.sc)
        assert np.shares_memory(batched.dep, backend.dep)
        # Compaction swaps lane codes only; the shared data is never copied.
        compacted = batched.compact(np.array([0, 2]))
        assert compacted.n_lanes == 2
        for name in ("sc", "dep", "indep", "sc_indep", "sc_dep", "_base_codes"):
            assert getattr(compacted, name) is getattr(batched, name), name

    def test_distinct_backends_still_stack(self):
        backends = [DenseBackend(_problem(seed=SEED + k)) for k in range(3)]
        batched = BatchedDenseBackend.from_backends(backends)
        n, m = backends[0].sc.shape
        assert batched.sc.shape == (3, n, m)
        for index, backend in enumerate(backends):
            assert np.array_equal(batched.sc[index], backend.sc)
            assert not np.shares_memory(batched.sc, backend.sc)
        # A repeated backend among distinct ones also stacks.
        mixed = BatchedDenseBackend.from_backends(backends[:1] * 2 + backends[1:2])
        assert mixed.sc.shape == (3, n, m)


class TestRestartModeParity:
    @pytest.mark.parametrize("n_restarts", [2, 5])
    def test_batched_restarts_match_serial(self, n_restarts):
        problem = _problem(n_sources=12, n_assertions=20)
        config = dict(n_restarts=n_restarts, init_strategy="random")
        serial = EMExtEstimator(
            EMConfig(restart_mode="serial", **config), seed=SEED
        ).fit(problem)
        batched = EMExtEstimator(
            EMConfig(restart_mode="batched", **config), seed=SEED
        ).fit(problem)
        _assert_results_bitwise(serial, batched)

    def test_smoothed_batched_restarts_match_serial(self):
        problem = _problem()
        config = dict(n_restarts=3, init_strategy="random", smoothing=1.0)
        serial = EMExtEstimator(
            EMConfig(restart_mode="serial", **config), seed=SEED
        ).fit(problem)
        batched = EMExtEstimator(
            EMConfig(restart_mode="batched", **config), seed=SEED
        ).fit(problem)
        _assert_results_bitwise(serial, batched)

    def test_fault_parity_on_poisoned_claims(self):
        """NaN claims fault every lane with the serial error, verbatim."""
        problem = _problem()
        estimator = EMExtEstimator(seed=SEED)
        config = EMConfig(n_restarts=3, init_strategy="random")
        driver = EMDriver.from_config(config)

        def poisoned_backend():
            backend = DenseBackend(problem)
            backend.sc[0, 0] = np.nan
            backend.sc_indep[0, 0] = np.nan
            return backend

        backend = poisoned_backend()
        with pytest.raises(ConvergenceError) as serial_exc:
            driver.fit(backend, estimator._initialiser(backend), SEED)

        # The lane path: initialisers up front, one batched pass, then
        # the driver's shared selection.
        backend = poisoned_backend()
        prepared, init_errors = _prepare_restarts(
            estimator._initialiser(backend), RandomState(SEED), config.n_restarts
        )
        lanes = run_batched_lanes(
            BatchedDenseBackend.from_backends([backend] * len(prepared)),
            [params for _, params in prepared],
            max_iterations=config.max_iterations,
            tolerance=config.tolerance,
        )
        by_index = {index: lane for (index, _), lane in zip(prepared, lanes)}
        candidates = (
            (index, None, init_errors[index])
            if index in init_errors
            else (index, by_index[index].outcome, by_index[index].error)
            for index in range(config.n_restarts)
        )
        with pytest.raises(ConvergenceError) as batched_exc:
            driver.consume_candidates(candidates)
        assert str(serial_exc.value) == str(batched_exc.value)
        assert "every EM restart failed" in str(batched_exc.value)

    def test_lane_fault_string_matches_the_serial_raise(self):
        """A poisoned lane retires with the serial m_step's message."""
        backend = DenseBackend(_problem())
        backend.sc[0, 0] = np.nan
        backend.sc_indep[0, 0] = np.nan
        inits = _random_params(backend.n_sources, SEED, 2)
        with pytest.raises(ValidationError) as exc:
            backend.m_step(backend.posterior(inits[0]), inits[0])
        serial_error = f"{type(exc.value).__name__}: {exc.value}"
        lanes = run_batched_lanes(
            BatchedDenseBackend.from_backends([backend] * 2),
            inits,
            max_iterations=10,
            tolerance=1e-6,
        )
        for lane in lanes:
            assert lane.outcome is None
            assert lane.error == serial_error == _RATES_FAULT

    def test_restart_mode_validation(self):
        with pytest.raises(ValidationError):
            EMConfig(restart_mode="vectorised")

    def test_csr_backend_falls_back_to_serial(self):
        pytest.importorskip("scipy")
        from repro.data.coerce import coerce_problem
        from repro.data.protocol import FORMAT_CSR

        problem = _problem()
        csr = coerce_problem(problem, needs=(FORMAT_CSR,))
        # Explicit warm starts keep the problem on the CSR backend
        # (random draws would densify it), which has no batched twin.
        warm = SourceParameters.random(problem.n_sources, SEED).clamp(1e-4)
        config = dict(n_restarts=3)
        serial = EMExtEstimator(
            EMConfig(restart_mode="serial", **config),
            seed=SEED,
            initial_parameters=warm,
        ).fit(csr)
        with observability.observe(root_name="test") as session:
            batched = EMExtEstimator(
                EMConfig(restart_mode="batched", **config),
                seed=SEED,
                initial_parameters=warm,
            ).fit(csr)
        _assert_results_bitwise(serial, batched)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("engine.batched.fallbacks") == 1
        assert "engine.batched.lanes" not in counters

    def test_random_init_csr_input_densifies_and_batches(self):
        """Random restarts densify CSR input, so lanes still run."""
        pytest.importorskip("scipy")
        from repro.data.coerce import coerce_problem
        from repro.data.protocol import FORMAT_CSR

        problem = _problem()
        csr = coerce_problem(problem, needs=(FORMAT_CSR,))
        config = dict(n_restarts=3, init_strategy="random")
        serial = EMExtEstimator(
            EMConfig(restart_mode="serial", **config), seed=SEED
        ).fit(csr)
        with observability.observe(root_name="test") as session:
            batched = EMExtEstimator(
                EMConfig(restart_mode="batched", **config), seed=SEED
            ).fit(csr)
        _assert_results_bitwise(serial, batched)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("engine.batched.lanes") == 3


class TestFitEmExtBatch:
    def test_each_result_matches_the_scalar_fit(self, same_column_problem):
        problems = [_problem(seed=SEED + k) for k in range(4)]
        seeds = [SEED + 100 + k for k in range(4)]
        problems.append(same_column_problem)
        seeds.append(0)
        config = EMConfig(n_restarts=2, init_strategy="random")
        batched = fit_em_ext_batch(problems, seeds=seeds, config=config)
        for problem, seed, result in zip(problems, seeds, batched):
            serial = EMExtEstimator(config, seed=seed).fit(problem)
            _assert_results_bitwise(serial, result)

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fit_em_ext_batch([_problem()], seeds=[1, 2])

    @pytest.mark.parametrize("front_end", ["fit_em_ext_batch", "batched_restarts"])
    def test_wall_budget_counts_initialiser_time(self, monkeypatch, front_end):
        """The max_wall_seconds clock starts on entry, as in EMDriver.fit."""
        import time

        from repro.core import em_ext

        staged = em_ext.staged_initialisation

        def slow_staged(*args, **kwargs):
            time.sleep(0.05)
            return staged(*args, **kwargs)

        monkeypatch.setattr(em_ext, "staged_initialisation", slow_staged)
        problem = _problem(n_sources=30, n_assertions=50)
        config = EMConfig(max_wall_seconds=0.01, n_restarts=2)
        serial = EMExtEstimator(config, seed=SEED).fit(problem)
        if front_end == "fit_em_ext_batch":
            (batched,) = fit_em_ext_batch([problem], seeds=[SEED], config=config)
        else:
            batched = EMExtEstimator(
                EMConfig(max_wall_seconds=0.01, n_restarts=2, restart_mode="batched"),
                seed=SEED,
            ).fit(problem)
        assert serial.n_iterations == batched.n_iterations == 1
        assert serial.health.budget_exhausted and batched.health.budget_exhausted


class TestHarnessTrialMode:
    CONFIG = GeneratorConfig(n_sources=10, n_assertions=16, n_trees=(3, 4))
    KWARGS = dict(
        algorithms=("em-ext",),
        n_trials=5,
        seed=SEED,
        include_optimal=False,
        em_config=EMConfig(n_restarts=2, init_strategy="random"),
    )

    @staticmethod
    def _series(result):
        return {
            name: (
                tuple(series.accuracy),
                tuple(series.false_positive_rate),
                tuple(series.false_negative_rate),
            )
            for name, series in result.series.items()
        }

    def test_batched_trials_match_serial(self):
        serial = run_simulation(self.CONFIG, **self.KWARGS)
        with observability.observe(root_name="test") as session:
            batched = run_simulation(
                self.CONFIG, trial_mode="batched", **self.KWARGS
            )
        assert self._series(serial) == self._series(batched)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("harness.batched.prefit_hits") == 5
        assert "harness.batched.ejections" not in counters

    def test_batched_trials_match_serial_with_mixed_algorithms(self):
        kwargs = dict(self.KWARGS, algorithms=("voting", "em-ext"))
        serial = run_simulation(self.CONFIG, **kwargs)
        batched = run_simulation(self.CONFIG, trial_mode="batched", **kwargs)
        assert self._series(serial) == self._series(batched)

    def test_ejected_pack_falls_back_to_the_scalar_path(self, monkeypatch):
        """A faulted prefit pack is absent; trials re-run serially."""
        from repro.core import em_ext

        def explode(*args, **kwargs):
            raise RuntimeError("lane pack lost")

        monkeypatch.setattr(em_ext, "_batch_lane_outcomes", explode)
        serial = run_simulation(self.CONFIG, **self.KWARGS)
        with observability.observe(root_name="test") as session:
            batched = run_simulation(
                self.CONFIG, trial_mode="batched", **self.KWARGS
            )
        assert self._series(serial) == self._series(batched)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("harness.batched.ejections") == 5
        assert "harness.batched.prefit_hits" not in counters

    def test_batched_mode_validations(self):
        with pytest.raises(ValidationError):
            run_simulation(self.CONFIG, trial_mode="stacked", **self.KWARGS)
        with pytest.raises(ValidationError):
            run_simulation(
                self.CONFIG, trial_mode="batched", batch_size=0, **self.KWARGS
            )
        from repro.parallel import ParallelConfig

        with pytest.raises(ValidationError):
            run_simulation(
                self.CONFIG,
                trial_mode="batched",
                parallel=ParallelConfig(n_jobs=2),
                **self.KWARGS,
            )

    def test_explicit_batch_size_packs_match_serial(self):
        serial = run_simulation(self.CONFIG, **self.KWARGS)
        batched = run_simulation(
            self.CONFIG, trial_mode="batched", batch_size=2, **self.KWARGS
        )
        assert self._series(serial) == self._series(batched)


class TestTransparency:
    """PR 8's guarantee extends to the batched engine: observability on
    or off, the numbers are bit-for-bit identical."""

    def test_observed_batched_fit_is_bitwise_unchanged(self):
        problem = _problem()
        config = EMConfig(n_restarts=3, init_strategy="random", restart_mode="batched")
        dark = EMExtEstimator(config, seed=SEED).fit(problem)
        with observability.observe(root_name="test") as session:
            observed = EMExtEstimator(config, seed=SEED).fit(problem)
        _assert_results_bitwise(dark, observed)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("engine.batched.lanes") == 3
        assert counters.get("engine.batched.lane_retirements", 0) >= 1
        histograms = session.metrics.snapshot()["histograms"]
        assert "engine.batched.occupancy" in histograms

    def test_em_iterations_counter_matches_serial_total(self):
        problem = _problem()
        config = dict(n_restarts=3, init_strategy="random")

        def iterations(restart_mode):
            with observability.observe(root_name="test") as session:
                EMExtEstimator(
                    EMConfig(restart_mode=restart_mode, **config), seed=SEED
                ).fit(problem)
            return session.metrics.snapshot()["counters"]["em.iterations"]

        assert iterations("serial") == iterations("batched")
