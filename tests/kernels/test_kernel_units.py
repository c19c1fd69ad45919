"""Unit-level behaviour of the ``repro.kernels`` building blocks.

The parity suite (``test_parity.py``) checks end-to-end agreement with
the pre-optimisation pins; the tests here check the pieces in
isolation — cell codes, table-gather kernels, log tables, dedup —
plus the strict ``GibbsConfig`` field validation.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.bounds import exact_bound
from repro.bounds.gibbs import GibbsConfig
from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.kernels.dedup import group_columns, group_paired_columns, unique_columns
from repro.kernels.enumeration import gray_pattern_masses, table_bytes_estimate
from repro.kernels.likelihood import (
    claim_codes,
    dense_column_log_likelihoods,
    flat_claim_codes,
    masked_column_log_likelihoods,
)
from repro.kernels.tables import IndependenceLogTables, LogParameterTables
from repro.resilience import Deadline
from repro.utils.errors import (
    DeadlineExceeded,
    MemoryBudgetError,
    ValidationError,
)


def _random_binary(shape, seed, density=0.5):
    return (np.random.default_rng(seed).random(shape) < density).astype(np.int8)


class TestClaimCodes:
    def test_codes_enumerate_the_four_cells(self):
        sc = np.array([[0, 1, 0, 1]])
        dep = np.array([[0, 0, 1, 1]])
        assert claim_codes(sc, dep).tolist() == [[0, 1, 2, 3]]

    def test_flat_codes_offset_rows_into_the_table(self):
        sc = np.zeros((3, 2), dtype=np.int8)
        dep = np.ones((3, 2), dtype=np.int8)
        # code 2 in rows 0..2 -> flat 2, 6, 10 of the (3, 4) table.
        assert flat_claim_codes(sc, dep).tolist() == [[2, 2], [6, 6], [10, 10]]

    def test_any_binary_dtype_accepted(self):
        sc = np.array([[0.0, 1.0]])
        dep = np.array([[True, False]])
        assert claim_codes(sc, dep).tolist() == [[2, 1]]


class TestLogParameterTables:
    def test_views_alias_the_gather_tables(self):
        params = SourceParameters.random(7, seed=0).clamp(DEFAULT_EPSILON)
        tables = LogParameterTables.build(params)
        assert np.array_equal(tables.log_a, tables.table_true[:, 1])
        assert np.array_equal(tables.log_1f, tables.table_true[:, 2])
        assert np.array_equal(tables.log_g, tables.table_false[:, 3])
        assert tables.finite

    def test_logs_match_direct_computation(self):
        params = SourceParameters.random(5, seed=1).clamp(DEFAULT_EPSILON)
        tables = LogParameterTables.build(params)
        assert np.array_equal(tables.log_a, np.log(params.a))
        assert np.array_equal(tables.log_1a, np.log1p(-params.a))
        assert tables.log_z == float(np.log(params.z))

    def test_degenerate_rates_flagged_not_finite(self):
        params = SourceParameters.from_scalars(4, a=1.0, b=0.0, f=0.5, g=0.5, z=0.5)
        tables = LogParameterTables.build(params)
        assert not tables.finite

    def test_independence_tables_masked_cells_gather_zero(self):
        tables = IndependenceLogTables.build(np.array([0.7]), np.array([0.2]))
        assert tables.table_true[0, 0] == 0.0
        assert tables.table_true[0, 1] == 0.0
        assert tables.table_true[0, 3] == np.log(0.7)
        assert tables.finite


class TestGatherKernels:
    def test_dense_kernel_matches_multiply_add_bitwise(self):
        n, m = 13, 29
        sc = _random_binary((n, m), seed=2, density=0.6)
        dep = (_random_binary((n, m), seed=3, density=0.4) & sc).astype(np.int8)
        params = SourceParameters.random(n, seed=4).clamp(DEFAULT_EPSILON)
        tables = LogParameterTables.build(params)
        log_true, log_false = dense_column_log_likelihoods(sc, dep, tables)

        scf, depf = sc.astype(float), dep.astype(float)
        p1_t = depf * tables.log_f[:, None] + (1 - depf) * tables.log_a[:, None]
        p0_t = depf * tables.log_1f[:, None] + (1 - depf) * tables.log_1a[:, None]
        p1_f = depf * tables.log_g[:, None] + (1 - depf) * tables.log_b[:, None]
        p0_f = depf * tables.log_1g[:, None] + (1 - depf) * tables.log_1b[:, None]
        expect_true = (scf * p1_t + (1 - scf) * p0_t).sum(axis=0)
        expect_false = (scf * p1_f + (1 - scf) * p0_f).sum(axis=0)
        assert np.array_equal(log_true, expect_true)
        assert np.array_equal(log_false, expect_false)

    def test_masked_kernel_treats_masked_cells_as_missing(self):
        n, m = 9, 17
        sc = _random_binary((n, m), seed=5)
        mask = _random_binary((n, m), seed=6, density=0.7)
        t_rate = np.linspace(0.2, 0.8, n)
        b_rate = np.linspace(0.1, 0.4, n)
        tables = IndependenceLogTables.build(t_rate, b_rate)
        log_true, log_false = masked_column_log_likelihoods(sc, mask, tables)

        scf, maskf = sc.astype(float), mask.astype(float)
        expect_true = (
            maskf
            * (scf * np.log(t_rate)[:, None] + (1 - scf) * np.log1p(-t_rate)[:, None])
        ).sum(axis=0)
        assert np.allclose(log_true, expect_true, atol=0, rtol=0)
        # Fully masked column contributes exactly zero.
        sc1 = np.ones((n, 1), dtype=np.int8)
        zero_mask = np.zeros((n, 1), dtype=np.int8)
        lt, lf = masked_column_log_likelihoods(sc1, zero_mask, tables)
        assert lt[0] == 0.0 and lf[0] == 0.0


class TestDedup:
    def test_group_columns_roundtrip(self):
        matrix = np.array([[1, 0, 1, 1], [0, 1, 0, 0]])
        groups = group_columns(matrix)
        assert groups.n_unique == 2
        assert groups.collapsed
        assert groups.counts.sum() == 4
        # expand() scatters exactly: per-unique values land on every
        # original column of the group.
        per_unique = np.array([10.0, 20.0])
        expanded = groups.expand(per_unique)
        rebuilt = groups.unique[groups.inverse].T
        assert np.array_equal(rebuilt, matrix)
        assert expanded.shape == (4,)
        assert set(expanded.tolist()) <= {10.0, 20.0}

    def test_paired_grouping_keeps_pairs_distinct(self):
        top = np.array([[1, 1], [0, 0]])
        bottom = np.array([[0, 1], [0, 0]])
        groups, unique_top, unique_bottom = group_paired_columns(top, bottom)
        # Same top halves, different bottom halves: no collapse.
        assert groups.n_unique == 2
        assert unique_top.shape == (2, 2)
        assert unique_bottom.shape == (2, 2)

    def test_unique_columns_matches_group_columns(self):
        matrix = _random_binary((6, 40), seed=7, density=0.3)
        unique, counts = unique_columns(matrix)
        groups = group_columns(matrix)
        assert np.array_equal(unique, groups.unique)
        assert np.array_equal(counts, groups.counts)
        assert counts.sum() == 40

    def test_weights_are_column_shares(self):
        matrix = np.array([[1, 1, 0]])
        groups = group_columns(matrix)
        assert groups.weights().sum() == pytest.approx(1.0)


class TestGibbsConfigValidation:
    def test_defaults_valid(self):
        GibbsConfig()

    @pytest.mark.parametrize(
        "field", ["burn_in", "min_sweeps", "max_sweeps", "check_interval"]
    )
    def test_integer_fields_reject_bools(self, field):
        with pytest.raises(ValidationError):
            GibbsConfig(**{field: True})

    @pytest.mark.parametrize(
        "field", ["burn_in", "min_sweeps", "max_sweeps", "check_interval"]
    )
    def test_integer_fields_reject_floats_and_strings(self, field):
        with pytest.raises(ValidationError):
            GibbsConfig(**{field: 10.0})
        with pytest.raises(ValidationError):
            GibbsConfig(**{field: "10"})

    def test_numpy_integers_accepted(self):
        config = GibbsConfig(min_sweeps=np.int64(5), max_sweeps=np.int64(10))
        assert config.min_sweeps == 5

    def test_tolerance_rejects_bool_and_non_numbers(self):
        with pytest.raises(ValidationError):
            GibbsConfig(tolerance=True)
        with pytest.raises(ValidationError):
            GibbsConfig(tolerance="tight")
        with pytest.raises(ValidationError):
            GibbsConfig(tolerance=0.0)

    def test_collect_trace_requires_actual_bool(self):
        with pytest.raises(ValidationError):
            GibbsConfig(collect_trace=1)

    def test_sweep_ordering_enforced(self):
        with pytest.raises(ValidationError):
            GibbsConfig(min_sweeps=100, max_sweeps=50)


class TestEnumerationBudgets:
    """Deadline/memory supervision of the exact bound's enumeration kernel."""

    def _case(self, n=8, k=3, seed=42):
        dependency = _random_binary((n, k), seed=seed, density=0.4)
        params = SourceParameters.random(n, seed=seed, informative=True).clamp(
            1e-4
        )
        return dependency, params

    def test_generous_deadline_is_bit_transparent(self):
        dependency, params = self._case()
        plain = exact_bound(dependency, params)
        budgeted = exact_bound(dependency, params, deadline=Deadline.after(3600))
        assert budgeted.total == plain.total
        assert budgeted.false_positive == plain.false_positive
        assert budgeted.false_negative == plain.false_negative

    def test_expired_deadline_raises_with_pattern_progress(self):
        dependency, params = self._case()
        deadline = Deadline.after(1e-4)
        while not deadline.expired():
            pass
        with pytest.raises(DeadlineExceeded) as excinfo:
            exact_bound(dependency, params, deadline=deadline)
        assert "patterns_total" in excinfo.value.progress

    def test_memory_budget_guards_the_low_table_upfront(self):
        dependency, params = self._case()
        with pytest.raises(MemoryBudgetError) as excinfo:
            exact_bound(
                dependency,
                params,
                deadline=Deadline.unlimited(memory_bytes=64),
            )
        assert excinfo.value.budget_bytes == 64
        # A budget covering the estimate succeeds.
        roomy = table_bytes_estimate(dependency.shape[0], dependency.shape[1])
        result = exact_bound(
            dependency,
            params,
            deadline=Deadline.unlimited(memory_bytes=2 * roomy),
        )
        assert result.total == exact_bound(dependency, params).total

    def test_table_bytes_estimate_grows_with_the_problem(self):
        assert table_bytes_estimate(8, 1) > 0
        assert table_bytes_estimate(20, 4) >= table_bytes_estimate(20, 1)
        assert table_bytes_estimate(24, 2) >= table_bytes_estimate(20, 2)

    @pytest.mark.parametrize("n, k", [(20, 31), (28, 31)])
    def test_table_bytes_estimate_covers_the_traced_peak(self, n, k):
        rng = np.random.default_rng(n)
        r1 = rng.uniform(0.01, 0.99, (n, k))
        r0 = rng.uniform(0.01, 0.99, (n, k))
        logs = (np.log(r1), np.log1p(-r1), np.log(r0), np.log1p(-r0))
        tracemalloc.start()
        try:
            gray_pattern_masses(*logs, np.log(0.3), np.log1p(-0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        estimate = table_bytes_estimate(n, k)
        # An upper bound, and a tight one: the half tables are the peak.
        assert peak <= estimate <= 1.5 * peak
