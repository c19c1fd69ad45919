"""Optimised kernels vs the pinned pre-optimisation outputs.

``tests/data/kernel_reference.npz`` holds the outputs of the E-step,
M-step, exact bound and Gibbs bound as computed by the code *before*
the ``repro.kernels`` layer landed (see ``make_reference.py``).  The
tests here run the optimised paths over the identical cases and demand:

* **bit-for-bit** equality for the engine kernels (dense and CSR E/M
  steps) — the table-gather rewrite is an exact selection of the same
  float values with the same reduction order, so nothing may move;
* agreement within ``EXACT_TOLERANCE`` for the exact bound — Gray-code
  enumeration visits the identical pattern set in a different order, so
  only float summation error is allowed;
* agreement within ``GIBBS_TOLERANCE`` for the Gibbs bound — the
  blocked sampler draws a different (equally valid) chain than the
  historical scan sampler, so agreement is statistical.

The case grid covers generic parameters, degenerate rates at the
epsilon clamp, and all-dependent / all-independent dependency columns
(where dedup collapses the matrix to a single unique column).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.bounds import exact_bound, gibbs_bound
from repro.data import SparseSensingProblem
from repro.engine.backends import CSRBackend, DenseBackend

from kernels import cases

REFERENCE = pathlib.Path(__file__).parent.parent / "data" / "kernel_reference.npz"


@pytest.fixture(scope="module")
def pins():
    return np.load(REFERENCE)


@pytest.fixture(scope="module")
def problem():
    return cases.problem()


@pytest.fixture(scope="module")
def sparse_problem(problem):
    return SparseSensingProblem.from_dense(problem)


PARAM_CASES = ["mid", "degenerate"]


def _params(label):
    return cases.params_mid() if label == "mid" else cases.params_degenerate()


class TestEngineBitwiseParity:
    """Dense and CSR E/M steps must reproduce the pins bit for bit."""

    @pytest.mark.parametrize("params_label", PARAM_CASES)
    def test_dense_backend(self, pins, problem, params_label):
        backend = DenseBackend(problem)
        self._check(pins, f"dense_{params_label}", backend, _params(params_label))

    @pytest.mark.parametrize("params_label", PARAM_CASES)
    def test_csr_backend(self, pins, sparse_problem, params_label):
        backend = CSRBackend(sparse_problem)
        self._check(pins, f"csr_{params_label}", backend, _params(params_label))

    @staticmethod
    def _check(pins, label, backend, params):
        posterior, log_likelihood = backend.e_step(params)
        updated = backend.m_step(posterior, params)
        produced = {
            f"{label}_posterior": posterior,
            f"{label}_ll": np.array([log_likelihood]),
            f"{label}_m_a": updated.a,
            f"{label}_m_b": updated.b,
            f"{label}_m_f": updated.f,
            f"{label}_m_g": updated.g,
            f"{label}_m_z": np.array([updated.z]),
        }
        for key, value in produced.items():
            pinned = pins[key]
            assert value.shape == pinned.shape, key
            assert np.array_equal(value, pinned), (
                f"{key} drifted from the pre-optimisation pin "
                f"(max abs diff {np.max(np.abs(value - pinned))})"
            )

    def test_posterior_equals_e_step_posterior(self, problem):
        # posterior() and e_step() share one cached likelihood pass.
        backend = DenseBackend(problem)
        params = cases.params_mid()
        posterior, _ = backend.e_step(params)
        assert np.array_equal(backend.posterior(params), posterior)


class TestBoundToleranceParity:
    """Bound kernels agree with the pins within documented tolerances."""

    @pytest.mark.parametrize("dep_label", ["mixed", "all_dep", "all_indep"])
    @pytest.mark.parametrize("params_label", PARAM_CASES)
    def test_exact_bound(self, pins, dep_label, params_label):
        dependency = cases.dependency_cases()[dep_label]
        result = exact_bound(dependency, _params(params_label))
        pinned = pins[f"exact_{dep_label}_{params_label}"]
        produced = np.array(
            [result.total, result.false_positive, result.false_negative]
        )
        assert np.allclose(produced, pinned, atol=cases.EXACT_TOLERANCE, rtol=0)

    @pytest.mark.parametrize("dep_label", ["mixed", "all_dep", "all_indep"])
    @pytest.mark.parametrize("params_label", PARAM_CASES)
    def test_gibbs_bound(self, pins, dep_label, params_label):
        key = f"gibbs_{dep_label}_{params_label}"
        if key not in pins:
            pytest.skip(f"{key} not pinned (degenerate Gibbs cases vary)")
        dependency = cases.dependency_cases()[dep_label]
        result = gibbs_bound(
            dependency,
            _params(params_label),
            config=cases.GIBBS_PIN_CONFIG,
            seed=cases.GIBBS_PIN_SEED,
        )
        pinned = pins[key]
        produced = np.array(
            [result.total, result.false_positive, result.false_negative]
        )
        assert np.allclose(produced, pinned, atol=cases.GIBBS_TOLERANCE, rtol=0)
