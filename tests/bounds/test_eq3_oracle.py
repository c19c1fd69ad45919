"""The exact bound against a from-the-equations oracle for Equation (3).

The oracle is written from the paper alone and shares no code with
``repro``: Table II gives the probability of each cell of a claim
pattern — a source claims with rate ``a_i`` (independent) or ``f_i``
(dependent) when the assertion is true, ``b_i`` or ``g_i`` when it is
false, and stays silent with one minus that rate — and Equation (3)
sums ``min{P(SC | C=1)·z, P(SC | C=0)·(1−z)}`` over all ``2^n``
patterns.  The optimal estimator decides "true" only when the true
joint is strictly larger, so the false joints of those patterns are the
false-positive share and the true joints of the rest the false-negative
share.

Rates exactly 0 or 1 are drawn on purpose: they make patterns
impossible under one truth or both, which the library handles with the
same code as every other rate.
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bounds import exact_bound, exact_column_bound
from repro.core import SourceParameters


def oracle_column(d_column, a, b, f, g, z):
    """Equation (3) for one dependency column by a loop over every pattern.

    Returns ``(total, false_positive, false_negative, smallest |LLR|)``,
    the last over the patterns possible under both truths.
    """
    total = fp = fn = 0.0
    closest = math.inf
    for pattern in itertools.product((0, 1), repeat=len(d_column)):
        p_true = z
        p_false = 1.0 - z
        for i, claimed in enumerate(pattern):
            rate_true = f[i] if d_column[i] else a[i]
            rate_false = g[i] if d_column[i] else b[i]
            p_true *= rate_true if claimed else 1.0 - rate_true
            p_false *= rate_false if claimed else 1.0 - rate_false
        total += min(p_true, p_false)
        if p_true > p_false:
            fp += p_false
        else:
            fn += p_true
        if p_true > 0.0 and p_false > 0.0:
            closest = min(closest, abs(math.log(p_true) - math.log(p_false)))
    return total, fp, fn, closest


#: Open-interval rates, with exact 0s and 1s about a quarter of the time.
RATE = st.one_of(
    st.floats(0.02, 0.98),
    st.floats(0.02, 0.98),
    st.floats(0.02, 0.98),
    st.sampled_from((0.0, 1.0)),
)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 4))
    rates = [draw(st.lists(RATE, min_size=n, max_size=n)) for _ in range(4)]
    z = draw(st.floats(0.01, 0.99))
    cells = draw(st.lists(st.integers(0, 1), min_size=n * k, max_size=n * k))
    return np.array(cells).reshape(n, k), rates, z


@settings(max_examples=150, deadline=None)
@given(problems())
def test_exact_bound_matches_the_equation_3_oracle(problem):
    dependency, (a, b, f, g), z = problem
    params = SourceParameters(a=a, b=b, f=f, g=g, z=z)
    columns = [dependency[:, j] for j in range(dependency.shape[1])]
    oracles = [oracle_column(column, a, b, f, g, z) for column in columns]
    singles = [exact_column_bound(column, params) for column in columns]
    expected = np.mean([oracle[:3] for oracle in oracles], axis=0)
    result = exact_bound(dependency, params)

    for single, oracle in zip(singles, oracles):
        assert abs(single.total - oracle[0]) <= 1e-12
    assert abs(result.total - expected[0]) <= 1e-12

    # The split is only defined up to ties, which rounding may break
    # either way in the oracle's own products.
    assume(min(oracle[3] for oracle in oracles) >= 1e-9)
    for single, oracle in zip(singles, oracles):
        assert abs(single.false_positive - oracle[1]) <= 1e-12
        assert abs(single.false_negative - oracle[2]) <= 1e-12
    assert abs(result.false_positive - expected[1]) <= 1e-12
    assert abs(result.false_negative - expected[2]) <= 1e-12
