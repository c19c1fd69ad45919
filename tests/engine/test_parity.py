"""Seeded parity against pre-refactor reference outputs.

``tests/data/parity_reference.npz`` was captured from the estimators
*before* they were rewired onto ``repro.engine``; these tests pin the
refactored code to those outputs within 1e-10 (in practice the match
is bit-for-bit, because the engine preserves the float operation order
of each original implementation).
"""

import numpy as np
import pytest

from repro.baselines import EMIndependent, EMSocial
from repro.core import EMConfig, EMExtEstimator
from repro.data import SparseSensingProblem
from repro.extensions import StreamingEMExt
from repro.synthetic import GeneratorConfig, SyntheticGenerator, generate_dataset

ATOL = 1e-10


@pytest.fixture(scope="module")
def reference():
    import pathlib

    path = pathlib.Path(__file__).parent.parent / "data" / "parity_reference.npz"
    return np.load(path)


@pytest.fixture(scope="module")
def blind():
    return generate_dataset(GeneratorConfig(), seed=1234).problem.without_truth()


def _close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=ATOL)


class TestDenseEMExtParity:
    def test_staged_default(self, reference, blind):
        result = EMExtEstimator(seed=0).fit(blind)
        _close(result.scores, reference["em_ext_staged_scores"])
        _close(result.parameters.a, reference["em_ext_staged_a"])
        _close(result.parameters.b, reference["em_ext_staged_b"])
        _close(result.parameters.f, reference["em_ext_staged_f"])
        _close(result.parameters.g, reference["em_ext_staged_g"])
        _close(result.parameters.z, reference["em_ext_staged_z"][0])
        _close(result.log_likelihood, reference["em_ext_staged_ll"][0])
        assert result.n_iterations == int(reference["em_ext_staged_iters"][0])

    def test_support_init_with_smoothing(self, reference, blind):
        config = EMConfig(init_strategy="support", smoothing=1.0)
        result = EMExtEstimator(config, seed=0).fit(blind)
        _close(result.scores, reference["em_ext_support_scores"])
        _close(result.parameters.a, reference["em_ext_support_a"])
        _close(result.parameters.z, reference["em_ext_support_z"][0])

    def test_random_restarts(self, reference, blind):
        config = EMConfig(init_strategy="random", n_restarts=3)
        result = EMExtEstimator(config, seed=3).fit(blind)
        _close(result.scores, reference["em_ext_random_scores"])
        _close(result.log_likelihood, reference["em_ext_random_ll"][0])


class TestIndependentParity:
    def test_em(self, reference, blind):
        result = EMIndependent(seed=0, smoothing=0.5).fit(blind)
        _close(result.scores, reference["em_indep_scores"])
        _close(result.extras["t"], reference["em_indep_t"])
        _close(result.extras["z"], reference["em_indep_z"][0])

    def test_em_social(self, reference, blind):
        result = EMSocial(seed=0).fit(blind)
        _close(result.scores, reference["em_social_scores"])
        _close(result.extras["t"], reference["em_social_t"])


class TestSparseParity:
    def test_smoothed_staged(self, reference):
        problem = SparseSensingProblem.from_dense(
            generate_dataset(GeneratorConfig(), seed=1234).problem
        ).without_truth()
        result = EMExtEstimator(EMConfig(smoothing=0.5)).fit(problem)
        _close(result.scores, reference["sparse_scores"])
        _close(result.parameters.a, reference["sparse_a"])
        _close(result.parameters.z, reference["sparse_z"][0])
        _close(result.log_likelihood, reference["sparse_ll"][0])


class TestStreamingParity:
    def test_three_decayed_batches(self, reference):
        generator = SyntheticGenerator(GeneratorConfig(), seed=21)
        stream = StreamingEMExt(n_sources=20, decay=0.9)
        for dataset in generator.generate_many(3):
            result = stream.partial_fit(dataset.problem.without_truth())
        _close(result.scores, reference["stream_scores"])
        _close(stream.parameters.a, reference["stream_a"])
        _close(stream.parameters.b, reference["stream_b"])
        _close(stream.parameters.f, reference["stream_f"])
        _close(stream.parameters.g, reference["stream_g"])
        _close(stream.parameters.z, reference["stream_z"][0])
