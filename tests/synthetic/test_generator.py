"""Tests for the Section V-A synthetic workload generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthetic import GeneratorConfig, SyntheticGenerator, generate_dataset


class TestShapes:
    def test_matrix_shapes(self, synthetic_dataset):
        problem = synthetic_dataset.problem
        assert problem.claims.shape == (20, 50)
        assert problem.dependency.shape == (20, 50)
        assert problem.truth.shape == (50,)

    def test_realized_parameters_recorded(self, synthetic_dataset):
        realized = synthetic_dataset.realized
        assert realized.n_sources == 20
        assert 8 <= realized.n_trees <= 10
        assert 0.55 <= realized.true_ratio <= 0.75
        assert realized.n_true_assertions == int(synthetic_dataset.truth.sum())

    def test_parameter_ranges_respected(self, synthetic_dataset):
        realized = synthetic_dataset.realized
        assert (realized.p_on >= 0.5).all() and (realized.p_on <= 0.7).all()
        assert (realized.p_dep >= 0.4).all() and (realized.p_dep <= 0.6).all()

    def test_truth_ratio_matches_draw(self, synthetic_dataset):
        realized = synthetic_dataset.realized
        expected = int(np.ceil(realized.true_ratio * 50))
        assert int(synthetic_dataset.truth.sum()) == min(expected, 49)


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = generate_dataset(GeneratorConfig(), seed=5)
        b = generate_dataset(GeneratorConfig(), seed=5)
        np.testing.assert_array_equal(a.problem.claims.values, b.problem.claims.values)
        np.testing.assert_array_equal(a.problem.truth, b.problem.truth)

    def test_different_seeds_differ(self):
        a = generate_dataset(GeneratorConfig(), seed=5)
        b = generate_dataset(GeneratorConfig(), seed=6)
        assert not np.array_equal(a.problem.claims.values, b.problem.claims.values)

    def test_generate_many_are_independent(self):
        generator = SyntheticGenerator(GeneratorConfig(), seed=0)
        datasets = generator.generate_many(3)
        assert len(datasets) == 3
        assert not np.array_equal(
            datasets[0].problem.claims.values, datasets[1].problem.claims.values
        )


class TestDependencyStructure:
    def test_roots_never_dependent(self, synthetic_dataset):
        dependency = synthetic_dataset.problem.dependency.values
        for root in synthetic_dataset.forest.roots:
            assert dependency[root].sum() == 0

    def test_dependent_cells_match_parent_claims(self, synthetic_dataset):
        """A leaf's dependent cells are exactly its root's claimed columns."""
        problem = synthetic_dataset.problem
        sc = problem.claims.values
        dependency = problem.dependency.values
        for leaf, parent in synthetic_dataset.forest.parent.items():
            parent_claims = sc[parent] == 1
            np.testing.assert_array_equal(dependency[leaf], parent_claims.astype(int))

    def test_fully_independent_config(self):
        dataset = generate_dataset(GeneratorConfig(n_trees=20), seed=1)
        assert dataset.problem.dependency.dependent_fraction == 0.0

    def test_single_tree_maximises_dependency(self):
        single = generate_dataset(GeneratorConfig(n_trees=1), seed=1)
        many = generate_dataset(GeneratorConfig(n_trees=15), seed=1)
        assert (
            single.problem.dependency.dependent_fraction
            > many.problem.dependency.dependent_fraction
        )


class TestCellModeStatistics:
    def test_cell_rates_match_model(self):
        """Empirical root claim rates converge to p_on · bias."""
        config = GeneratorConfig(
            n_sources=10,
            n_assertions=4000,
            n_trees=10,  # all roots
            p_on=0.6,
            p_indep_true=(2 / 3, 2 / 3),
            true_ratio=0.5,
        )
        dataset = generate_dataset(config, seed=0)
        sc = dataset.problem.claims.values
        truth = dataset.problem.truth
        a_hat = sc[:, truth == 1].mean()
        b_hat = sc[:, truth == 0].mean()
        assert a_hat == pytest.approx(0.6 * 2 / 3, abs=0.02)
        assert b_hat == pytest.approx(0.6 * 1 / 3, abs=0.02)

    def test_leaf_dependent_rates_match_model(self):
        config = GeneratorConfig(
            n_sources=30,
            n_assertions=2000,
            n_trees=1,
            p_on=0.6,
            p_dep=0.5,
            p_dep_true=(0.8, 0.8),
            p_indep_true=(2 / 3, 2 / 3),
            true_ratio=0.5,
        )
        dataset = generate_dataset(config, seed=0)
        problem = dataset.problem
        sc = problem.claims.values
        dep = problem.dependency.values
        truth = problem.truth
        dep_true = (dep == 1) & (truth[None, :] == 1)
        dep_false = (dep == 1) & (truth[None, :] == 0)
        f_hat = sc[dep_true].mean()
        g_hat = sc[dep_false].mean()
        assert f_hat == pytest.approx(0.5 * 0.8, abs=0.03)
        assert g_hat == pytest.approx(0.5 * 0.2, abs=0.03)


class TestPoolMode:
    def test_pool_mode_runs(self):
        dataset = generate_dataset(GeneratorConfig(mode="pool", rounds=10), seed=2)
        assert dataset.problem.claims.n_claims > 0

    def test_pool_mode_no_duplicate_claims(self):
        """A source claims each assertion at most once (matrix is 0/1)."""
        dataset = generate_dataset(GeneratorConfig(mode="pool"), seed=2)
        log = dataset.log
        pairs = [(p.source, p.assertion) for p in log]
        assert len(pairs) == len(set(pairs))

    def test_pool_mode_rounds_bound_claims(self):
        dataset = generate_dataset(GeneratorConfig(mode="pool", rounds=3), seed=2)
        per_source = dataset.problem.claims.claims_per_source()
        assert per_source.max() <= 3


class TestEventLogConsistency:
    def test_log_matches_matrix(self, synthetic_dataset):
        """The claim matrix holds exactly the log's (source, assertion) pairs."""
        pairs = {(p.source, p.assertion) for p in synthetic_dataset.log}
        rows, cols = np.nonzero(synthetic_dataset.problem.claims.values)
        assert pairs == set(zip(rows.tolist(), cols.tolist()))

    def test_roots_post_before_leaves(self, synthetic_dataset):
        roots = set(synthetic_dataset.forest.roots)
        for post in synthetic_dataset.log:
            if post.source in roots:
                assert post.time < 1.0
            else:
                assert post.time >= 1.0


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generator_invariants(seed):
    """Property: labels are binary, matrices align, D only on leaf rows."""
    dataset = generate_dataset(GeneratorConfig(n_sources=12, n_assertions=20), seed=seed)
    problem = dataset.problem
    assert set(np.unique(problem.truth)) <= {0, 1}
    assert problem.claims.shape == problem.dependency.shape
    roots = set(dataset.forest.roots)
    dependency = problem.dependency.values
    for source in roots:
        assert dependency[source].sum() == 0
