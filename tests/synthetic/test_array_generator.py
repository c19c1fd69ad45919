"""Cell-mode generation draws arrays; this pins it to the per-source loop.

Cell mode used to post one :class:`Post` per claim, source by source,
and derive ``(SC, D)`` from the log through
:func:`repro.network.dependency.extract_dependency`.  It now draws all
roots' uniforms in one call and all leaves' in another and writes the
matrices directly.  The loop is kept here as the reference: on random
configurations and seeds both must give the same problem, parameters,
log and random stream.
"""

from typing import List

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import EventLog, Post, extract_dependency
from repro.synthetic import GeneratorConfig, SyntheticGenerator
from repro.synthetic.config import RealizedParameters


def _loop_cells(config, rng, forest, realized, truth) -> EventLog:
    """Cell mode's per-source loop: roots at 0.5, then leaves at 1.5."""
    m = config.n_assertions
    truth_f = truth.astype(np.float64)
    posts: List[Post] = []
    post_id = 0
    root_set = set(forest.roots)
    root_claimed: dict = {}
    for source in forest.roots:
        bias = realized.p_indep_true[source]
        rates = realized.p_on[source] * (
            truth_f * bias + (1.0 - truth_f) * (1.0 - bias)
        )
        fired = np.flatnonzero(rng.random(m) < rates)
        root_claimed[source] = set(fired.tolist())
        for assertion in fired:
            posts.append(
                Post(post_id=post_id, source=source, assertion=int(assertion), time=0.5)
            )
            post_id += 1
    for source in range(config.n_sources):
        if source in root_set:
            continue
        parent_claims = root_claimed[forest.parent[source]]
        dep_mask = np.zeros(m)
        if parent_claims:
            dep_mask[sorted(parent_claims)] = 1.0
        indep_bias = realized.p_indep_true[source]
        dep_bias = realized.p_dep_true[source]
        indep_rates = realized.p_on[source] * (
            truth_f * indep_bias + (1.0 - truth_f) * (1.0 - indep_bias)
        )
        dep_rates = realized.p_dep[source] * (
            truth_f * dep_bias + (1.0 - truth_f) * (1.0 - dep_bias)
        )
        rates = dep_mask * dep_rates + (1.0 - dep_mask) * indep_rates
        fired = np.flatnonzero(rng.random(m) < rates)
        for assertion in fired:
            posts.append(
                Post(post_id=post_id, source=source, assertion=int(assertion), time=1.5)
            )
            post_id += 1
    return EventLog(posts=posts)


class _LoopGenerator(SyntheticGenerator):
    """The generator with cell mode's loop and ``extract_dependency`` put back."""

    def _draw_cells(self, rng, forest, realized, truth):
        self.loop_log = _loop_cells(self.config, rng, forest, realized, truth)
        claims, dependency = extract_dependency(
            self.loop_log, forest.graph, n_assertions=self.config.n_assertions, policy="direct"
        )
        return claims.values, dependency.values


def _posts(log: EventLog) -> list:
    """Every field of every post, in log order, with the id types."""
    return [
        (
            post.post_id, post.source, post.assertion, post.time, post.retweet_of, post.text,
            type(post.post_id), type(post.source), type(post.assertion),
        )
        for post in log
    ]


def _assert_same_realized(got: RealizedParameters, expected: RealizedParameters) -> None:
    for name in ("n_trees", "true_ratio", "n_true_assertions"):
        assert getattr(got, name) == getattr(expected, name)
    for name in ("p_on", "p_dep", "p_indep_true", "p_dep_true"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


@st.composite
def _configs(draw) -> GeneratorConfig:
    n = draw(st.integers(1, 12))
    low = draw(st.integers(1, n))
    high = draw(st.integers(low, n))

    def _range():
        return tuple(sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))))

    return GeneratorConfig(
        n_sources=n,
        n_assertions=draw(st.integers(1, 12)),
        n_trees=(low, high),
        true_ratio=_range(),
        p_on=_range(),
        p_dep=_range(),
        p_indep_true=_range(),
        p_dep_true=_range(),
    )


@settings(max_examples=80, deadline=None)
@given(config=_configs(), seed=st.integers(0, 2**32 - 1))
@example(config=GeneratorConfig(n_sources=7, n_assertions=9, n_trees=7), seed=3)
@example(config=GeneratorConfig(n_sources=9, n_assertions=1, n_trees=(1, 3)), seed=4)
@example(config=GeneratorConfig(n_sources=1, n_assertions=1, n_trees=1), seed=5)
@example(config=GeneratorConfig.estimator_defaults(), seed=2016)
def test_array_cells_match_the_per_source_loop(config, seed):
    arrays, loop = SyntheticGenerator(config, seed=seed), _LoopGenerator(config, seed=seed)
    for _ in range(2):
        got, expected = arrays.generate(), loop.generate()
        for name in ("claims", "dependency"):
            matrix = getattr(got.problem, name).values
            reference = getattr(expected.problem, name).values
            assert matrix.dtype == reference.dtype == np.int8
            np.testing.assert_array_equal(matrix, reference)
        np.testing.assert_array_equal(got.truth, expected.truth)
        assert got.truth.dtype == expected.truth.dtype
        _assert_same_realized(got.realized, expected.realized)
        assert got.forest.roots == expected.forest.roots
        assert got.forest.parent == expected.forest.parent
        assert _posts(got.log) == _posts(loop.loop_log)
        claims, dependency = extract_dependency(
            got.log, got.forest.graph, n_assertions=config.n_assertions, policy="direct"
        )
        np.testing.assert_array_equal(claims.values, got.problem.claims.values)
        np.testing.assert_array_equal(dependency.values, got.problem.dependency.values)

        # Both draw the same uniforms, so the stream's next draw agrees.
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        arrays._draw_cells(rngs[0], got.forest, got.realized, got.truth)
        _loop_cells(config, rngs[1], got.forest, got.realized, got.truth)
        assert rngs[0].random() == rngs[1].random()
    assert arrays._rng.random() == loop._rng.random()
