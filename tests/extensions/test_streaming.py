"""Tests for the streaming dependency-aware estimator."""

import numpy as np
import pytest

from repro.core import SourceParameters
from repro.engine.backends import DenseBackend
from repro.extensions import StreamingEMExt
from repro.synthetic import GeneratorConfig, SyntheticGenerator, generate_dataset
from repro.utils.errors import DataError, ValidationError


@pytest.fixture
def batch_stream():
    generator = SyntheticGenerator(GeneratorConfig(), seed=21)
    return generator.generate_many(8)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sources": 0},
            {"n_sources": 5, "decay": 0.0},
            {"n_sources": 5, "decay": 1.5},
            {"n_sources": 5, "inner_iterations": 0},
            {"n_sources": 5, "epsilon": 0.7},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            StreamingEMExt(**kwargs)

    def test_initial_parameters_size_checked(self):
        init = SourceParameters.from_scalars(3, a=0.6, b=0.3, f=0.5, g=0.4, z=0.5)
        with pytest.raises(ValidationError):
            StreamingEMExt(n_sources=5, initial_parameters=init)


class TestPartialFit:
    def test_batch_result_shape(self, batch_stream):
        stream = StreamingEMExt(n_sources=20)
        result = stream.partial_fit(batch_stream[0].problem.without_truth())
        assert result.algorithm == "streaming-em-ext"
        assert result.scores.shape == (50,)
        assert stream.n_batches == 1

    def test_source_count_mismatch(self, batch_stream):
        stream = StreamingEMExt(n_sources=7)
        with pytest.raises(ValidationError):
            stream.partial_fit(batch_stream[0].problem.without_truth())

    def test_parameters_move_toward_truth(self, batch_stream):
        """After several batches the learned rates approach the oracle."""
        from repro.synthetic import empirical_parameters

        stream = StreamingEMExt(n_sources=20, decay=1.0)
        for dataset in batch_stream:
            stream.partial_fit(dataset.problem.without_truth())
        oracle = empirical_parameters(batch_stream[-1].problem)
        # Pooled comparison: the learned independent rates separate in
        # the same direction as the oracle's (a above b).
        assert stream.parameters.a.mean() > stream.parameters.b.mean()
        assert oracle.a.mean() > oracle.b.mean()

    def test_accuracy_improves_with_history(self, batch_stream):
        """Later batches benefit from accumulated source statistics."""
        stream = StreamingEMExt(n_sources=20, decay=1.0)
        accuracies = []
        for dataset in batch_stream:
            result = stream.partial_fit(dataset.problem.without_truth())
            accuracies.append(
                float((result.decisions == dataset.problem.truth).mean())
            )
        early = np.mean(accuracies[:2])
        late = np.mean(accuracies[-3:])
        assert late >= early - 0.05

    def test_decay_forgets_history(self, batch_stream):
        """With decay << 1, old batches stop influencing the parameters."""
        fast_forget = StreamingEMExt(n_sources=20, decay=0.1)
        remember = StreamingEMExt(n_sources=20, decay=1.0)
        for dataset in batch_stream[:4]:
            blind = dataset.problem.without_truth()
            fast_forget.partial_fit(blind)
            remember.partial_fit(blind)
        # Same final batch, different histories → different parameters.
        difference = fast_forget.parameters.max_difference(remember.parameters)
        assert difference > 0.005

    def test_deterministic(self, batch_stream):
        a = StreamingEMExt(n_sources=20)
        b = StreamingEMExt(n_sources=20)
        blind = batch_stream[0].problem.without_truth()
        np.testing.assert_array_equal(
            a.partial_fit(blind).scores, b.partial_fit(blind).scores
        )


class TestNoDecay:
    @pytest.mark.parametrize("seed", [None, 7])
    def test_first_batch_is_one_dense_m_step(self, batch_stream, seed):
        """decay = 1: the committed θ is the dense M-step of the batch posterior."""
        batch = batch_stream[0].problem.without_truth()
        stream = StreamingEMExt(n_sources=batch.n_sources, decay=1.0, seed=seed)
        previous = stream.parameters
        result = stream.partial_fit(batch)
        expected = DenseBackend(batch, epsilon=stream.epsilon).m_step(
            result.scores, previous
        )
        for name in ("a", "b", "f", "g"):
            assert np.array_equal(
                getattr(stream.parameters, name), getattr(expected, name)
            ), name
        assert stream.parameters.z == expected.z


class TestSeed:
    """Regression wall for the seed that used to be silently ignored."""

    def test_same_seed_is_bitwise_deterministic(self, batch_stream):
        a = StreamingEMExt(n_sources=20, seed=7)
        b = StreamingEMExt(n_sources=20, seed=7)
        for dataset in batch_stream[:2]:
            blind = dataset.problem.without_truth()
            ours = a.partial_fit(blind)
            theirs = b.partial_fit(blind)
            assert ours.scores.tobytes() == theirs.scores.tobytes()
        assert a.parameters.max_difference(b.parameters) == 0.0

    def test_different_seeds_decorrelate_cold_starts(self, batch_stream):
        blind = batch_stream[0].problem.without_truth()
        first = StreamingEMExt(n_sources=20, seed=7).partial_fit(blind)
        second = StreamingEMExt(n_sources=20, seed=8).partial_fit(blind)
        assert not np.array_equal(first.scores, second.scores)

    def test_seed_none_preserves_the_historical_cold_start(self, batch_stream):
        blind = batch_stream[0].problem.without_truth()
        unseeded = StreamingEMExt(n_sources=20).partial_fit(blind)
        explicit_none = StreamingEMExt(n_sources=20, seed=None).partial_fit(
            blind
        )
        seeded = StreamingEMExt(n_sources=20, seed=7).partial_fit(blind)
        assert unseeded.scores.tobytes() == explicit_none.scores.tobytes()
        assert not np.array_equal(unseeded.scores, seeded.scores)

    def test_jitter_only_touches_the_first_batch(self, batch_stream):
        """From batch 2 on, the posterior comes from the learned
        parameters — the seed's influence flows only through state."""
        warm = StreamingEMExt(n_sources=20, seed=7)
        warm.partial_fit(batch_stream[0].problem.without_truth())
        parameters = warm.parameters
        continued = StreamingEMExt(
            n_sources=20, seed=12345, initial_parameters=parameters
        )
        continued._stats = warm._stats.copy()
        continued.n_batches = warm.n_batches
        reference = StreamingEMExt(
            n_sources=20, seed=7, initial_parameters=parameters
        )
        reference._stats = warm._stats.copy()
        reference.n_batches = warm.n_batches
        blind = batch_stream[1].problem.without_truth()
        assert (
            continued.partial_fit(blind).scores.tobytes()
            == reference.partial_fit(blind).scores.tobytes()
        )


class TestReporting:
    """``converged``/``n_iterations`` must describe what actually ran."""

    def test_tight_budget_reports_not_converged(self, batch_stream):
        stream = StreamingEMExt(n_sources=20, inner_iterations=3)
        result = stream.partial_fit(batch_stream[0].problem.without_truth())
        assert result.n_iterations == 3
        assert result.converged is False

    def test_ample_budget_reports_actual_iteration_count(self, batch_stream):
        stream = StreamingEMExt(n_sources=20, inner_iterations=300)
        result = stream.partial_fit(batch_stream[0].problem.without_truth())
        assert result.converged is True
        assert 1 <= result.n_iterations < 300

    def test_failed_batch_leaves_no_report_behind(self, batch_stream):
        stream = StreamingEMExt(n_sources=20)
        with pytest.raises(ValidationError):
            stream.partial_fit(
                generate_dataset(
                    GeneratorConfig(n_sources=5, n_assertions=10), seed=1
                ).problem.without_truth()
            )
        assert stream.n_batches == 0


class TestRollback:
    def _poisoned_partial_fit(self, stream, batch, monkeypatch):
        """Fail the update after the posterior loop, mid-commit."""
        monkeypatch.setattr(
            SourceParameters, "is_finite", lambda self: False
        )
        with pytest.raises(DataError, match="non-finite parameters"):
            stream.partial_fit(batch)

    def test_midcommit_failure_restores_the_stream(
        self, batch_stream, monkeypatch
    ):
        stream = StreamingEMExt(n_sources=20)
        stream.partial_fit(batch_stream[0].problem.without_truth())
        parameters_before = stream.parameters
        rates_before = stream._stats.rates(
            stream.parameters, stream.epsilon
        )
        self._poisoned_partial_fit(
            stream, batch_stream[1].problem.without_truth(), monkeypatch
        )
        monkeypatch.undo()
        assert stream.n_batches == 1
        assert stream.parameters is parameters_before
        rates_after = stream._stats.rates(stream.parameters, stream.epsilon)
        assert rates_before.max_difference(rates_after) == 0.0

    def test_stream_continues_identically_after_a_poisoned_batch(
        self, batch_stream, monkeypatch
    ):
        """A rolled-back batch must not perturb later estimates at all."""
        poisoned = StreamingEMExt(n_sources=20)
        clean = StreamingEMExt(n_sources=20)
        first = batch_stream[0].problem.without_truth()
        poisoned.partial_fit(first)
        clean.partial_fit(first)
        self._poisoned_partial_fit(
            poisoned, batch_stream[1].problem.without_truth(), monkeypatch
        )
        monkeypatch.undo()
        final = batch_stream[2].problem.without_truth()
        assert (
            poisoned.partial_fit(final).scores.tobytes()
            == clean.partial_fit(final).scores.tobytes()
        )


class TestDecayDrift:
    def test_fast_decay_tracks_a_regime_change(self):
        """Sources flip from reliable to unreliable mid-stream; the
        forgetting stream must follow the new regime more closely than
        the remember-everything stream."""

        def windows(p_indep_true, seeds):
            config = GeneratorConfig(
                n_sources=15, n_assertions=30, p_indep_true=p_indep_true
            )
            return [
                generate_dataset(config, seed=seed).problem.without_truth()
                for seed in seeds
            ]

        reliable = windows(0.9, [1, 2, 3])
        unreliable = windows(0.15, [4, 5, 6])
        fast = StreamingEMExt(n_sources=15, decay=0.3)
        slow = StreamingEMExt(n_sources=15, decay=1.0)
        for window in reliable + unreliable:
            fast.partial_fit(window)
            slow.partial_fit(window)

        def separation(stream):
            # a - b: positive when the stream still believes sources
            # assert true claims more readily than false ones.
            return float(
                stream.parameters.a.mean() - stream.parameters.b.mean()
            )

        # Both streams are fully deterministic, so a strict inequality
        # is a stable regression anchor: discounting the reliable phase
        # pulls the separation further toward the unreliable regime.
        assert separation(fast) < separation(slow)
