"""The EM and EM-Social baselines are special cases of the dependency-aware engine.

Two reductions, each pinned bit for bit on random problems:

* EM-Social is the independence model over the ``D = 0`` cells, which is
  what the staged initialisation's stage one fits on a
  :class:`~repro.engine.backends.DenseBackend`:
  ``MaskedDenseBackend(SC, 1 − D)``'s E-step and M-step equal the dense
  backend's independence-model columns and ``independent_m_step`` with
  the shared log-sum-exp, and one stage-one iteration.
* EM is the dependency-aware model on ``D = 0`` from the support start:
  the dependent partition is empty, so ``f`` and ``g`` never move and
  never enter a likelihood.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EMIndependent
from repro.baselines.em_independent import IndependentParameters
from repro.core import EMConfig, EMExtEstimator, SensingProblem
from repro.core.likelihood import posterior_and_log_likelihood
from repro.engine.backends import DenseBackend, MaskedDenseBackend
from repro.engine.initialisation import staged_stage_one

shapes = st.tuples(st.integers(1, 40), st.integers(1, 50))
seeds = st.integers(0, 2**32 - 1)


def _cells(shape, seed):
    """Random ``(SC, D)`` 0/1 matrices with both kinds of dependent cell."""
    rng = np.random.default_rng(seed)
    sc = (rng.random(shape) < rng.uniform(0.1, 0.7)).astype(np.int8)
    dep = (rng.random(shape) < rng.uniform(0.0, 0.5)).astype(np.int8)
    return sc, dep


@settings(max_examples=60, deadline=None)
@given(shape=shapes, seed=seeds, smoothing=st.sampled_from((0.0, 0.5)))
def test_em_social_steps_are_the_dense_backends_independent_cell_model(
    shape, seed, smoothing
):
    sc, dep = _cells(shape, seed)
    dense = DenseBackend(SensingProblem(sc, dep), smoothing=smoothing)
    masked = MaskedDenseBackend(dense.sc, 1.0 - dense.dep, smoothing=smoothing)
    rng = np.random.default_rng(seed + 1)
    t, b = rng.uniform(0.01, 0.99, (2, shape[0]))
    z = float(rng.uniform(0.05, 0.95))
    theta = IndependentParameters(t=t, b=b, z=z)

    # E-step: per-column log likelihoods, posterior, Eq. 7 total.
    columns = dense._independent_columns(theta)
    assert np.array_equal(masked._cells._independent_columns(theta), columns)
    posterior, log_likelihood = masked.e_step(theta)
    expected_posterior, expected_ll = posterior_and_log_likelihood(columns, z)
    assert np.array_equal(posterior, expected_posterior)
    assert log_likelihood == expected_ll

    # M-step: the two rates are the dense backend's independent-cell rates.
    updated = masked.m_step(posterior, theta)
    assert np.array_equal(updated.t, dense.independent_m_step(posterior, theta).t)
    assert np.array_equal(updated.b, dense.independent_m_step(posterior, theta).b)

    # One stage-one iteration from the neutral start is one EM-Social step.
    staged_posterior, staged = staged_stage_one(
        dense, posterior, tolerance=0.0, stage_iterations=1
    )
    step = masked.m_step(posterior, masked.neutral())
    assert np.array_equal(step.t, staged.a) and np.array_equal(step.b, staged.b)
    assert step.z == staged.z
    assert np.array_equal(masked.posterior(step), staged_posterior)


@settings(max_examples=40, deadline=None)
@given(shape=shapes, seed=seeds)
def test_em_is_the_dependency_aware_fit_without_dependencies(shape, seed):
    sc, _ = _cells(shape, seed)
    problem = SensingProblem.independent(sc)
    em = EMIndependent(seed=seed).fit(problem)
    em_ext = EMExtEstimator(EMConfig(init_strategy="support"), seed=seed).fit(problem)
    assert np.array_equal(em.scores, em_ext.scores)
    assert em.log_likelihood == em_ext.log_likelihood
    assert em.n_iterations == em_ext.n_iterations
    assert np.array_equal(em.extras["t"], em_ext.parameters.a)
    assert np.array_equal(em.extras["b"], em_ext.parameters.b)
    assert em.extras["z"] == em_ext.parameters.z
