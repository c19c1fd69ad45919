"""Buffer contracts of the scalar backends: E-steps and count blocks.

Staged initialisation runs the independence model's steps and then the
dependency model's on one :class:`~repro.engine.backends.DenseBackend`,
and restarts and warm starts run them again, so each E-step must give
the bits of a truth-pair table built fresh for its θ whatever ran
before it; a backend that reused a table across calls or models would
have to keep that.  Count blocks must be fresh on every call: the
streaming estimator keeps the blocks of one window while it computes
the next.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SensingProblem, SourceParameters
from repro.core.likelihood import posterior_and_log_likelihood
from repro.engine import DenseBackend, MaskedDenseBackend
from repro.engine.backends import IndependentParameters
from repro.kernels.likelihood import flat_claim_codes, pair_column_log_likelihoods
from repro.kernels.tables import pair_table

seeds = st.integers(0, 2**32 - 1)


def _problem(n_sources: int, n_assertions: int, rng: np.random.Generator) -> SensingProblem:
    """A random problem whose dependent cells include claims and silences."""
    sc = (rng.random((n_sources, n_assertions)) < 0.5).astype(np.int8)
    dep = (rng.random(sc.shape) < 0.4).astype(np.int8)
    dep[0, 0] = 1  # at least one missing cell for the independence model
    return SensingProblem(claims=sc, dependency=dep)


def _rates(rng: np.random.Generator, rows: int, n: int, degenerate: bool) -> np.ndarray:
    """A ``(rows, n)`` rate block, with entries of exactly 0 and 1 if ``degenerate``."""
    rates = rng.uniform(0.05, 0.95, size=(rows, n))
    if degenerate:
        picks = rng.integers(0, 3, size=rates.shape)
        rates[picks == 1] = 0.0
        rates[picks == 2] = 1.0
    return rates


def _fresh_e_step(problem: SensingProblem, rates: np.ndarray, z: float):
    """The E-step of ``rates`` through a freshly built pair table."""
    codes = flat_claim_codes(problem.claims.values, problem.dependency.values)
    return posterior_and_log_likelihood(
        pair_column_log_likelihoods(codes, pair_table(rates)), z
    )


def _assert_same_bits(got, expected) -> None:
    np.testing.assert_array_equal(got[0], expected[0])
    assert got[1] == expected[1] or (np.isnan(got[1]) and np.isnan(expected[1]))


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    n=st.integers(1, 9),
    m=st.integers(1, 9),
    rounds=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.booleans()),
        min_size=2,
        max_size=4,
    ),
)
def test_every_e_step_has_the_bits_of_a_fresh_table(seed, n, m, rounds):
    """Staged init's order, repeated: independence steps, then dependency steps.

    Each round runs some independence-model E-steps and then some
    dependency-model ones on the same backend, with θ drawn afresh for
    every step and every other step's rates including exact 0s and 1s.
    """
    rng = np.random.default_rng(seed)
    problem = _problem(n, m, rng)
    backend = DenseBackend(problem)
    step = 0
    for independent_steps, dependent_steps, degenerate_first in rounds:
        for _ in range(independent_steps):
            rates = _rates(rng, 2, n, degenerate_first ^ bool(step % 2))
            theta = IndependentParameters(t=rates[0], b=rates[1], z=0.4)
            _assert_same_bits(
                backend.independent_e_step(theta), _fresh_e_step(problem, rates, 0.4)
            )
            step += 1
        for _ in range(dependent_steps):
            rates = _rates(rng, 4, n, degenerate_first ^ bool(step % 2))
            params = SourceParameters(*rates, z=0.6)
            _assert_same_bits(backend.e_step(params), _fresh_e_step(problem, rates, 0.6))
            np.testing.assert_array_equal(
                backend.posterior(params), _fresh_e_step(problem, rates, 0.6)[0]
            )
            step += 1


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(1, 9), m=st.integers(1, 9))
def test_masked_e_steps_have_the_bits_of_a_fresh_table(seed, n, m):
    """Repeated masked E-steps, with exact 0s and 1s on every other one."""
    rng = np.random.default_rng(seed)
    problem = _problem(n, m, rng)
    sc, dep = problem.claims.values, problem.dependency.values
    backend = MaskedDenseBackend(sc.astype(np.float64), 1.0 - dep)
    for degenerate in (False, True, False, True):
        rates = _rates(rng, 2, n, degenerate)
        theta = IndependentParameters(t=rates[0], b=rates[1], z=0.3)
        _assert_same_bits(backend.e_step(theta), _fresh_e_step(problem, rates, 0.3))


def test_the_masked_backend_builds_only_the_independence_model():
    """No dependent partition: the masked model never reads one."""
    rng = np.random.default_rng(7)
    problem = _problem(5, 6, rng)
    cells = MaskedDenseBackend(
        problem.claims.values.astype(np.float64), 1.0 - problem.dependency.values
    )._cells
    for unread in ("dep", "sc_dep"):
        assert not hasattr(cells, unread)


def test_partition_counts_survive_the_next_call():
    """The streaming estimator keeps one window's blocks past the next call."""
    rng = np.random.default_rng(3)
    problem = _problem(6, 8, rng)
    backend = DenseBackend(problem)
    first = backend.partition_counts(rng.random(8))
    kept = [block.copy() for block in first]
    second = backend.partition_counts(rng.random(8))
    for block, copy, other in zip(first, kept, second):
        np.testing.assert_array_equal(block, copy)
        assert not np.shares_memory(block, other)
