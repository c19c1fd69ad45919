"""EM ascent: no iteration lowers the Equation (7) log likelihood.

Every EM iteration maximises the expected complete-data log likelihood,
so the observed-data log likelihood it reports never falls (Dempster,
Laird & Rubin 1977).  ``result.trace.log_likelihoods`` is the one
per-iteration record of a fit, and this wall checks it on every EM
family and front end: EM, EM-Social, em-pooled, and EM-Ext with staged,
support and random initialisation, CSR input and lane restarts.

The property is stated at smoothing 0 only.  With a pseudo-count the
M-step maximises a smoothed objective instead, and the plain log
likelihood can fall.  The slack of ``1e-12 · max(1, |ℓ|)`` admits
rounding at convergence, where EM-Ext's steps move ℓ by a few ulps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_fact_finder
from repro.core.em_ext import EMConfig, EMExtEstimator
from repro.synthetic import GeneratorConfig, generate_dataset

SETTINGS = settings(max_examples=15, deadline=None)

problems = st.tuples(
    st.sampled_from((8, 20, 35, 50)),
    st.sampled_from(("cell", "pool")),
    st.integers(0, 2**16),
)


def _ext(init_strategy, **kwargs):
    config = EMConfig(init_strategy=init_strategy, smoothing=0.0, **kwargs)
    return lambda problem, seed: EMExtEstimator(config, seed=seed).fit(problem)


def _baseline(name, **kwargs):
    return lambda problem, seed: make_fact_finder(name, seed=seed, **kwargs).fit(
        problem
    )


FITS = {
    "em": _baseline("em", smoothing=0.0),
    "em-social": _baseline("em-social", smoothing=0.0),
    "em-pooled": _baseline("em-pooled"),
    "em-ext-staged": _ext("staged"),
    "em-ext-support": _ext("support"),
    "em-ext-random": _ext("random"),
    "em-ext-csr": lambda problem, seed: _ext("staged")(problem.csr_view(), seed),
    "em-ext-lanes": _ext("random", n_restarts=3, restart_mode="batched"),
}


def _problem(n_sources, mode, seed):
    config = GeneratorConfig(
        n_sources=n_sources,
        n_assertions=50,
        n_trees=(3, 5) if n_sources < 10 else (8, 10),
        mode=mode,
    )
    return generate_dataset(config, seed=seed).problem.without_truth()


def _assert_ascent(log_likelihoods):
    """No step of the trace falls by more than the rounding slack."""
    ll = np.asarray(log_likelihoods, dtype=np.float64)
    assert ll.size and np.isfinite(ll).all()
    falls = ll[:-1] - ll[1:]
    bad = np.flatnonzero(falls > 1e-12 * np.maximum(1.0, np.abs(ll[:-1])))
    assert not bad.size, (
        f"log likelihood fell by {falls[bad[0]]!r} at iteration {bad[0] + 1}"
    )


@pytest.mark.parametrize("name", sorted(FITS))
@SETTINGS
@given(drawn=problems)
def test_log_likelihood_never_falls(name, drawn):
    n_sources, mode, seed = drawn
    result = FITS[name](_problem(n_sources, mode, seed), seed)
    _assert_ascent(result.trace.log_likelihoods)
