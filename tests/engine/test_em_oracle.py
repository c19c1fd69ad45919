"""The EM backends against a from-the-equations oracle for Eqs. 7 and 9–14.

The oracle is written from the paper alone and shares no code with
``repro``.  Table II gives the probability of one cell: given the
assertion's truth, a source claims with rate ``a_i`` (independent cell)
or ``f_i`` (dependent cell) when it is true, ``b_i`` or ``g_i`` when it
is false, and stays silent with one minus that rate.  Then, column by
column:

* Equation (9): ``Z_j = z·P(SC_j | C_j = 1) / (z·P(SC_j | C_j = 1) +
  (1 − z)·P(SC_j | C_j = 0))``, each likelihood a product over the
  sources;
* Equation (7): ``L = Σ_j log(z·P(SC_j | C_j = 1) + (1 − z)·P(SC_j | C_j = 0))``;
* Equations (10)–(14): each rate is the posterior mass of the claimed
  cells of its partition over the posterior mass of the whole
  partition (``Z`` for ``a, f``, ``Y = 1 − Z`` for ``b, g``), and
  ``z`` is the mean of ``Z``.

The library adds three rules the paper leaves implicit, and the oracle
states them the same way: a ratio with no posterior mass keeps the
previous rate, smoothing ``s`` gives ``(num_i + s·pooled)/(den_i + s)``
with ``pooled`` the rate of the whole population (0.5 when it has no
mass), and every rate and ``z`` is clamped to ``[ε, 1 − ε]``.

The independence model of the EM and EM-Social baselines has one rate
pair ``(t_i, b_i)`` for every observed cell and treats masked cells as
missing: EM observes every cell, EM-Social only the ``D = 0`` cells.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.em_independent import IndependentParameters
from repro.core import SensingProblem, SourceParameters
from repro.core.model import DEFAULT_EPSILON
from repro.data import SparseSensingProblem
from repro.engine.backends import CSRBackend, DenseBackend, MaskedDenseBackend
from repro.engine.batched import BatchedDenseBackend, BatchedSourceParameters

TOLERANCE = 1e-12


# -- the oracle -----------------------------------------------------------------


def dependency_cells(dep, a, b, f, g):
    """Per-cell ``(rate if true, rate if false)`` of the dependency model."""
    return [
        [(f[i], g[i]) if dep[i][j] else (a[i], b[i]) for j in range(len(dep[0]))]
        for i in range(len(dep))
    ]


def independence_cells(mask, t, b):
    """Per-cell rates of the independence model; ``None`` marks a missing cell."""
    return [
        [(t[i], b[i]) if mask[i][j] else None for j in range(len(mask[0]))]
        for i in range(len(mask))
    ]


def oracle_e_step(sc, cells, z):
    """Per-column log likelihoods, the Eq. 9 posterior and the Eq. 7 total."""
    log_true, log_false, posterior = [], [], []
    total = 0.0
    for j in range(len(sc[0])):
        p_true = p_false = 1.0
        for i in range(len(sc)):
            if cells[i][j] is None:
                continue
            rate_true, rate_false = cells[i][j]
            p_true *= rate_true if sc[i][j] else 1.0 - rate_true
            p_false *= rate_false if sc[i][j] else 1.0 - rate_false
        joint_true = z * p_true
        joint_false = (1.0 - z) * p_false
        log_true.append(math.log(p_true))
        log_false.append(math.log(p_false))
        posterior.append(joint_true / (joint_true + joint_false))
        total += math.log(joint_true + joint_false)
    return log_true, log_false, posterior, total


def clamp(value, epsilon=DEFAULT_EPSILON):
    return min(max(value, epsilon), 1.0 - epsilon)


def oracle_rate(sc, in_partition, weight, previous, smoothing):
    """One Equations 10–14 ratio per source over the cells ``in_partition``."""
    n, m = len(sc), len(sc[0])
    numerators = [
        sum(weight[j] for j in range(m) if in_partition[i][j] and sc[i][j])
        for i in range(n)
    ]
    denominators = [
        sum(weight[j] for j in range(m) if in_partition[i][j]) for i in range(n)
    ]
    if smoothing:
        mass = sum(denominators)
        pooled = sum(numerators) / mass if mass > 0 else 0.5
        numerators = [x + smoothing * pooled for x in numerators]
        denominators = [x + smoothing for x in denominators]
    return [
        clamp(numerators[i] / denominators[i] if denominators[i] > 0 else previous[i])
        for i in range(n)
    ]


def oracle_m_step(sc, dep, posterior, previous, smoothing):
    """Equations 10–14: ``{a, b, f, g, z}`` from the posterior ``Z``."""
    y = [1.0 - value for value in posterior]
    independent = [[not cell for cell in row] for row in dep]
    rates = {
        "a": oracle_rate(sc, independent, posterior, previous.a, smoothing),
        "b": oracle_rate(sc, independent, y, previous.b, smoothing),
        "f": oracle_rate(sc, dep, posterior, previous.f, smoothing),
        "g": oracle_rate(sc, dep, y, previous.g, smoothing),
    }
    return rates, clamp(sum(posterior) / len(posterior))


# -- draws ----------------------------------------------------------------------


def _cells(draw, n, m):
    values = draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m))
    return np.array(values, dtype=np.int64).reshape(n, m)


@st.composite
def problems(draw, min_columns=1):
    """Small ``(SC, D)`` problems, some with columns copied onto others."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(min_columns, 8))
    sc, dep = _cells(draw, n, m), _cells(draw, n, m)
    copies = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    for source, target in draw(st.lists(copies, max_size=m)):
        sc[:, target] = sc[:, source]
        dep[:, target] = dep[:, source]
    theta = SourceParameters.random(
        n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ).clamp(1e-4)
    return sc, dep, theta


def _close(actual, expected, label):
    error = np.max(np.abs(np.asarray(actual) - np.asarray(expected)), initial=0.0)
    assert error <= TOLERANCE, (label, actual, expected)


# -- the dependency-aware model ---------------------------------------------------


def _dependency_backends(sc, dep, smoothing):
    """``name -> (e_step(θ), m_step(Z, θ))`` for every dependency-aware backend."""
    problem = SensingProblem(sc, dep)
    dense = DenseBackend(problem, smoothing=smoothing)
    csr = CSRBackend(SparseSensingProblem.from_dense(problem), smoothing=smoothing)
    lanes = BatchedDenseBackend.from_backends([dense])

    def lane_e_step(theta):
        posterior, lls = lanes.e_step(BatchedSourceParameters.stack([theta]))
        return posterior[0], lls[0]

    def lane_m_step(posterior, theta):
        stacked = BatchedSourceParameters.stack([theta])
        return lanes.m_step(posterior[None, :], stacked).lane(0)

    return {
        "dense": (dense.e_step, dense.m_step),
        "csr": (csr.e_step, csr.m_step),
        "one-lane batched": (lane_e_step, lane_m_step),
    }


#: One source, every cell dependent, m = 8: its independent partition is
#: empty, so ``a`` and ``b`` keep their previous values.  The CSR
#: backend computes that partition's mass as ``Σ w − D·w``, and the two
#: sums run in different orders, so without care it is a rounding
#: residue instead of 0.
ALL_DEPENDENT_SOURCE = (
    np.array([[1, 1, 0, 0, 1, 1, 1, 1]]),
    np.ones((1, 8), dtype=np.int64),
    SourceParameters.random(1, np.random.default_rng(3)).clamp(1e-4),
)


@settings(max_examples=150, deadline=None)
@given(problems(), st.sampled_from((0.0, 0.5)))
@example(ALL_DEPENDENT_SOURCE, 0.0)
def test_dependency_model_matches_the_oracle(problem, smoothing):
    sc, dep, theta = problem
    cells = dependency_cells(dep, theta.a, theta.b, theta.f, theta.g)
    _, _, posterior, log_likelihood = oracle_e_step(sc, cells, theta.z)
    rates, z = oracle_m_step(sc, dep, posterior, theta, smoothing)

    for name, (e_step, m_step) in _dependency_backends(sc, dep, smoothing).items():
        got_posterior, got_ll = e_step(theta)
        _close(got_posterior, posterior, name)
        _close(got_ll, log_likelihood, name)
        updated = m_step(np.array(posterior), theta)
        for rate, expected in rates.items():
            _close(getattr(updated, rate), expected, (name, rate))
        _close(updated.z, z, name)


# -- the independence model -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(problems(), st.sampled_from((0.0, 0.5)))
@example(ALL_DEPENDENT_SOURCE, 0.0)
def test_independence_model_matches_the_oracle(problem, smoothing):
    sc, dep, theta = problem
    t, b = theta.a, theta.b
    previous = IndependentParameters(t=t, b=b, z=theta.z)
    masks = {"em": np.ones_like(dep), "em-social": 1 - dep}

    for name, mask in masks.items():
        cells = independence_cells(mask, t, b)
        log_true, log_false, posterior, log_likelihood = oracle_e_step(
            sc, cells, theta.z
        )
        y = [1.0 - value for value in posterior]
        expected_t = oracle_rate(sc, mask, posterior, t, smoothing)
        expected_b = oracle_rate(sc, mask, y, b, smoothing)

        backend = MaskedDenseBackend(
            sc.astype(np.float64), mask.astype(np.float64), smoothing=smoothing
        )
        got_posterior, got_ll = backend.e_step(previous)
        _close(got_posterior, posterior, name)
        _close(got_ll, log_likelihood, name)
        updated = backend.m_step(np.array(posterior), previous)
        _close(updated.t, expected_t, name)
        _close(updated.b, expected_b, name)
        _close(updated.z, clamp(sum(posterior) / len(posterior)), name)

        if name == "em-social":
            # The staged initialisation's stage one runs the same model
            # on the dependency-aware backends, over their independent cells.
            dense_problem = SensingProblem(sc, dep)
            for stage_one in (
                DenseBackend(dense_problem, smoothing=smoothing),
                CSRBackend(
                    SparseSensingProblem.from_dense(dense_problem),
                    smoothing=smoothing,
                ),
            ):
                label = type(stage_one).__name__
                got_true, got_false = stage_one.masked_log_likelihoods(t, b)
                _close(got_true, log_true, label)
                _close(got_false, log_false, label)
                _close(stage_one.masked_rate(np.array(posterior), t), expected_t, label)
                _close(stage_one.masked_rate(np.array(y), b), expected_b, label)


# -- a metamorphic check: repeated columns ------------------------------------------


def _posteriors(sc, dep, theta):
    """``name -> per-column posterior (or log likelihoods)`` of every backend."""
    results = {
        name: e_step(theta)[0]
        for name, (e_step, _) in _dependency_backends(sc, dep, 0.0).items()
    }
    independent = IndependentParameters(t=theta.a, b=theta.b, z=theta.z)
    for name, mask in (("em", np.ones_like(dep)), ("em-social", 1 - dep)):
        backend = MaskedDenseBackend(sc.astype(np.float64), mask.astype(np.float64))
        results[name] = backend.e_step(independent)[0]
    stage_one = DenseBackend(SensingProblem(sc, dep)).masked_log_likelihoods(
        theta.a, theta.b
    )
    results["stage-one log true"], results["stage-one log false"] = stage_one
    return results


@settings(max_examples=100, deadline=None)
@given(problems(min_columns=2), st.data())
def test_permuted_and_copied_columns_come_back_bitwise(problem, data):
    """Each column's posterior depends on that column alone, to the bit.

    Both problems keep ``m >= 2`` columns on purpose.  NumPy sums a
    one-column ``(n, 1)`` block contiguously, with its unrolled pairwise
    sum, but an ``(n, m >= 2)`` block row by row; for ``n >= 8`` sources
    the two orders give different bits, so a column's value is only a
    function of the column while every block stays at least two wide.
    """
    sc, dep, theta = problem
    m = sc.shape[1]
    index = data.draw(st.permutations(range(m))) + data.draw(
        st.lists(st.integers(0, m - 1), max_size=m)
    )
    before = _posteriors(sc, dep, theta)
    after = _posteriors(sc[:, index], dep[:, index], theta)
    for name, values in before.items():
        assert np.array_equal(after[name], np.asarray(values)[index]), name
