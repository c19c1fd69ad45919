"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core import DependencyMatrix, SensingProblem, SourceClaimMatrix, SourceParameters
from repro.synthetic import GeneratorConfig, generate_dataset


@pytest.fixture
def tiny_problem() -> SensingProblem:
    """The Figure 1 example: John follows Sally; Heather independent.

    Sources: 0 = John, 1 = Sally, 2 = Heather.
    Assertions: 0 = Main St congested, 1 = University Ave congested.
    John repeats Sally's Main St report (dependent) and independently
    reports University Ave.
    """
    sc = np.array(
        [
            [1, 1],  # John reported both
            [1, 0],  # Sally reported Main St
            [0, 1],  # Heather reported University Ave
        ]
    )
    dep = np.array(
        [
            [1, 0],  # John's Main St claim is dependent
            [0, 0],
            [0, 0],
        ]
    )
    truth = np.array([1, 1])
    return SensingProblem(
        claims=SourceClaimMatrix(sc), dependency=DependencyMatrix(dep), truth=truth
    )


@pytest.fixture
def small_params() -> SourceParameters:
    """A hand-built 3-source parameter set with informative sources."""
    return SourceParameters(
        a=np.array([0.7, 0.6, 0.5]),
        b=np.array([0.2, 0.3, 0.1]),
        f=np.array([0.6, 0.5, 0.4]),
        g=np.array([0.3, 0.25, 0.2]),
        z=0.6,
    )


@pytest.fixture
def same_column_problem() -> SensingProblem:
    """A (10, 16) problem whose 16 (SC, D) columns are all the same.

    NumPy sums a one-column ``(n, 1)`` block contiguously (pairwise,
    unrolled), not row by row as it sums an ``(n, m >= 2)`` block.  An
    E-step that grouped identical columns down to one would therefore
    sum this problem in a different order from the lanes and the
    multiply-add, which the parity tests run it through to catch.
    """
    rng = np.random.default_rng(0)
    claims = rng.random(10) < 0.5
    dependency = rng.random(10) < 0.3
    return SensingProblem(
        claims=SourceClaimMatrix(np.repeat(claims[:, None], 16, axis=1).astype(int)),
        dependency=DependencyMatrix(
            np.repeat(dependency[:, None], 16, axis=1).astype(int)
        ),
    )


@pytest.fixture
def synthetic_dataset():
    """A medium synthetic dataset with fixed seed."""
    return generate_dataset(GeneratorConfig(), seed=1234)


@pytest.fixture
def estimator_dataset():
    """A Section V-B style dataset (n = 50)."""
    return generate_dataset(GeneratorConfig.estimator_defaults(), seed=99)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed RNG."""
    return np.random.default_rng(7)
