"""Streaming batch safety: validation, degenerate batches, and rollback."""

import numpy as np
import pytest

from repro.core import DependencyMatrix, SensingProblem, SourceClaimMatrix
from repro.extensions import StreamingEMExt
from repro.extensions import streaming as streaming_module
from repro.resilience import FaultInjector
from repro.synthetic import GeneratorConfig, generate_dataset
from repro.utils.errors import DataError, ValidationError

N_SOURCES = 12
CONFIG = GeneratorConfig(n_sources=N_SOURCES, n_assertions=30, n_trees=(5, 6))


def _batch(seed):
    return generate_dataset(CONFIG, seed=seed).problem.without_truth()


def _state(stream):
    """Deep snapshot of everything partial_fit may mutate."""
    return (
        stream._stats.numerators.copy(),
        stream._stats.denominators.copy(),
        stream._stats.z_numerator,
        stream._stats.z_denominator,
        stream.parameters,
        stream.n_batches,
    )


def _assert_state_equal(state, stream):
    numerators, denominators, z_num, z_den, parameters, n_batches = state
    np.testing.assert_array_equal(stream._stats.numerators, numerators)
    np.testing.assert_array_equal(stream._stats.denominators, denominators)
    assert stream._stats.z_numerator == z_num
    assert stream._stats.z_denominator == z_den
    assert stream.n_batches == n_batches
    np.testing.assert_array_equal(stream.parameters.a, parameters.a)
    np.testing.assert_array_equal(stream.parameters.b, parameters.b)
    np.testing.assert_array_equal(stream.parameters.f, parameters.f)
    np.testing.assert_array_equal(stream.parameters.g, parameters.g)
    assert stream.parameters.z == parameters.z


class TestDegenerateBatches:
    def test_empty_batch_rejected_and_state_unchanged(self):
        stream = StreamingEMExt(n_sources=N_SOURCES)
        stream.partial_fit(_batch(1))
        before = _state(stream)
        empty = SensingProblem(
            claims=SourceClaimMatrix(np.zeros((N_SOURCES, 0), dtype=np.int8)),
            dependency=DependencyMatrix(np.zeros((N_SOURCES, 0), dtype=np.int8)),
        )
        with pytest.raises(ValidationError, match="no assertions"):
            stream.partial_fit(empty)
        _assert_state_equal(before, stream)

    def test_all_zero_batch_is_absorbed_with_finite_parameters(self):
        stream = StreamingEMExt(n_sources=N_SOURCES)
        stream.partial_fit(_batch(1))
        silent = SensingProblem(
            claims=SourceClaimMatrix(np.zeros((N_SOURCES, 5), dtype=np.int8)),
            dependency=DependencyMatrix(np.zeros((N_SOURCES, 5), dtype=np.int8)),
        )
        result = stream.partial_fit(silent)
        assert stream.n_batches == 2
        assert stream.parameters.is_finite()
        assert np.all(np.isfinite(result.scores))

    def test_mismatched_source_count_rejected_and_state_unchanged(self):
        stream = StreamingEMExt(n_sources=N_SOURCES)
        stream.partial_fit(_batch(1))
        before = _state(stream)
        wrong = generate_dataset(
            GeneratorConfig(n_sources=N_SOURCES + 3, n_assertions=20, n_trees=(5, 6)),
            seed=2,
        ).problem.without_truth()
        with pytest.raises(ValidationError, match="sources"):
            stream.partial_fit(wrong)
        _assert_state_equal(before, stream)

    def test_nan_poisoned_batch_rejected_before_any_update(self):
        stream = StreamingEMExt(n_sources=N_SOURCES)
        stream.partial_fit(_batch(1))
        before = _state(stream)
        poisoned = FaultInjector(seed=0).poison_claims(_batch(2), rate=0.1)
        with pytest.raises(DataError, match="non-finite"):
            stream.partial_fit(poisoned)
        _assert_state_equal(before, stream)

    def test_nan_dependency_batch_rejected(self):
        stream = StreamingEMExt(n_sources=N_SOURCES)
        poisoned = FaultInjector(seed=0).poison_dependency(_batch(2), rate=0.1)
        with pytest.raises(DataError, match="non-finite"):
            stream.partial_fit(poisoned)
        assert stream.n_batches == 0


class TestRollback:
    def test_mid_update_failure_rolls_back_completely(self, monkeypatch):
        """A backend that dies *during* the update must leave no trace."""

        class ExplodingBackend(streaming_module.DenseBackend):
            def partition_counts(self, posterior):
                raise RuntimeError("disk on fire")

        stream = StreamingEMExt(n_sources=N_SOURCES)
        stream.partial_fit(_batch(1))
        before = _state(stream)
        monkeypatch.setattr(streaming_module, "DenseBackend", ExplodingBackend)
        with pytest.raises(RuntimeError, match="disk on fire"):
            stream.partial_fit(_batch(2))
        monkeypatch.undo()
        _assert_state_equal(before, stream)

    def test_stream_recovers_identically_after_a_failed_batch(self):
        """good → bad → good equals good → good, element for element."""
        clean = StreamingEMExt(n_sources=N_SOURCES, seed=0)
        dirty = StreamingEMExt(n_sources=N_SOURCES, seed=0)

        clean.partial_fit(_batch(1))
        dirty.partial_fit(_batch(1))

        poisoned = FaultInjector(seed=0).poison_claims(_batch(2), rate=0.1)
        with pytest.raises(DataError):
            dirty.partial_fit(poisoned)

        clean_result = clean.partial_fit(_batch(3))
        dirty_result = dirty.partial_fit(_batch(3))

        np.testing.assert_array_equal(clean_result.scores, dirty_result.scores)
        np.testing.assert_array_equal(
            clean.parameters.a, dirty.parameters.a
        )
        assert clean.n_batches == dirty.n_batches == 2
