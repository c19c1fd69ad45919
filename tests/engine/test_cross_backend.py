"""Cross-backend agreement: dense vs CSR vs streaming on the same data.

The engine's backends reorganise the same equations differently (dense
masked matmuls, CSR base-plus-corrections, streaming decayed counts);
these tests pin them to each other so the representations cannot drift.
"""

import numpy as np
import pytest

from repro.core import EMConfig, EMExtEstimator
from repro.data import SparseSensingProblem
from repro.extensions import StreamingEMExt
from repro.synthetic import GeneratorConfig, generate_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(GeneratorConfig(), seed=77)


class TestDenseVsSparse:
    @pytest.mark.parametrize("init_strategy", ["support", "staged"])
    @pytest.mark.parametrize("smoothing", [0.0, 0.5])
    def test_posteriors_and_parameters_agree(self, dataset, init_strategy, smoothing):
        config = EMConfig(init_strategy=init_strategy, smoothing=smoothing)
        dense = EMExtEstimator(config, seed=0).fit(dataset.problem.without_truth())
        sparse = EMExtEstimator(config).fit(
            SparseSensingProblem.from_dense(dataset.problem).without_truth()
        )
        np.testing.assert_allclose(dense.scores, sparse.scores, atol=1e-12)
        for name in ("a", "b", "f", "g"):
            np.testing.assert_allclose(
                getattr(dense.parameters, name),
                getattr(sparse.parameters, name),
                atol=1e-12,
            )
        assert dense.parameters.z == pytest.approx(sparse.parameters.z, abs=1e-12)
        assert dense.n_iterations == sparse.n_iterations


class TestDenseVsStreaming:
    def test_single_batch_no_decay_matches_batch_em(self, dataset):
        """One batch with decay=1 is exactly batch support-init EM."""
        blind = dataset.problem.without_truth()
        config = EMConfig(
            init_strategy="support", max_iterations=400, tolerance=1e-12
        )
        dense = EMExtEstimator(config, seed=0).fit(blind)
        stream = StreamingEMExt(
            n_sources=blind.n_sources, decay=1.0, inner_iterations=400
        )
        result = stream.partial_fit(blind)
        # Both iterate the same fixed-point map to tight tolerances; they
        # agree to the residual of whichever loop stopped first.
        np.testing.assert_allclose(result.scores, dense.scores, atol=1e-6)
        for name in ("a", "b", "f", "g"):
            np.testing.assert_allclose(
                getattr(stream.parameters, name),
                getattr(dense.parameters, name),
                atol=1e-6,
            )
        assert stream.parameters.z == pytest.approx(dense.parameters.z, abs=1e-6)


class TestStagedDeterminism:
    def test_repeat_runs_are_identical(self, dataset):
        """Staged initialisation is deterministic for a fixed seed."""
        blind = dataset.problem.without_truth()
        first = EMExtEstimator(seed=0).fit(blind)
        second = EMExtEstimator(seed=0).fit(blind)
        np.testing.assert_array_equal(first.scores, second.scores)
        np.testing.assert_array_equal(first.parameters.a, second.parameters.a)
        np.testing.assert_array_equal(first.parameters.g, second.parameters.g)
        assert first.parameters.z == second.parameters.z
        assert first.n_iterations == second.n_iterations

    def test_sparse_staged_matches_itself(self, dataset):
        problem = SparseSensingProblem.from_dense(dataset.problem).without_truth()
        first = EMExtEstimator().fit(problem)
        second = EMExtEstimator().fit(problem)
        np.testing.assert_array_equal(first.scores, second.scores)


def _assert_masked_paths_match_the_equations(problem, t, b):
    """Both masked-model paths give the bits of Equations (4)/(5) by selection.

    Each independent cell contributes ``log r`` if it claims and
    ``log(1 - r)`` if it is silent; a dependent cell is missing.  On
    finite logs this is the multiply-add's value bit for bit; on a rate
    of exactly 0 or 1 it is the equations' ``0`` or ``-inf``, where the
    multiply-add computes ``0·(-inf) = NaN``.
    """
    from repro.baselines.em_independent import IndependentParameters
    from repro.engine.backends import DenseBackend, MaskedDenseBackend

    dense = DenseBackend(problem)
    masked = MaskedDenseBackend(dense.sc, dense.indep)
    theta = IndependentParameters(t=t, b=b, z=0.5)
    got = dense._independent_columns(theta).T
    twin = masked._cells._independent_columns(theta).T
    with np.errstate(divide="ignore"):
        expected = [
            np.where(
                dense.indep == 1,
                np.where(
                    dense.sc == 1, np.log(rate)[:, None], np.log1p(-rate)[:, None]
                ),
                0.0,
            ).sum(axis=0)
            for rate in (t, b)
        ]
    for dense_side, masked_side, reference in zip(got, twin, expected):
        assert not np.isnan(reference).any()
        assert np.array_equal(dense_side, reference)
        assert np.array_equal(masked_side, reference)


class TestMaskedLegacyFallback:
    def test_degenerate_rates_match_the_masked_backend_and_the_equations(
        self, dataset
    ):
        """Unclamped 0/1 rates give the Eq. 4/5 value on both backends."""
        problem = dataset.problem.without_truth()
        rng = np.random.default_rng(0)
        t = rng.uniform(0.1, 0.9, problem.n_sources)
        b = rng.uniform(0.1, 0.9, problem.n_sources)
        t[0], b[1] = 0.0, 1.0
        _assert_masked_paths_match_the_equations(problem, t, b)

    def test_same_column_problem_matches_the_equations(self, same_column_problem):
        """The gather path keeps the equations' bits on repeated columns."""
        _assert_masked_paths_match_the_equations(
            same_column_problem, np.linspace(0.2, 0.8, 10), np.linspace(0.1, 0.4, 10)
        )
