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

from repro import observability
from repro.bounds import exact_bound
from repro.bounds.gibbs import GibbsConfig, gibbs_bound
from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.kernels.dedup import group_columns
from repro.kernels.enumeration import gray_pattern_masses, table_bytes_estimate
from repro.kernels.likelihood import (
    claim_codes,
    flat_claim_codes,
    pair_column_log_likelihoods,
)
from repro.kernels.tables import pair_table
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


def _table(params):
    """``(source, code, truth)`` view of a parameter set's pair table."""
    return pair_table(params._rate_block()).reshape(params.n_sources, 4, 2)


class TestLogParameterTables:
    def test_clamped_rates_share_one_block(self):
        params = SourceParameters.random(7, seed=0).clamp(DEFAULT_EPSILON)
        block = params._rate_block()
        assert block.shape == (4, 7)
        for row, name in enumerate("abfg"):
            assert np.shares_memory(getattr(params, name), block)
            assert np.array_equal(getattr(params, name), block[row])
        table = _table(params)
        assert np.array_equal(table[:, 1, 0], np.log(params.a))
        assert np.array_equal(table[:, 2, 0], np.log1p(-params.f))
        assert np.array_equal(table[:, 3, 1], np.log(params.g))

    def test_logs_match_direct_computation(self):
        params = SourceParameters.random(5, seed=1).clamp(DEFAULT_EPSILON)
        table = _table(params)
        assert np.array_equal(table[:, 1, 0], np.log(params.a))
        assert np.array_equal(table[:, 0, 0], np.log1p(-params.a))
        assert np.array_equal(table[:, 1, 1], np.log(params.b))

    def test_degenerate_rates_give_infinite_entries(self):
        params = SourceParameters.from_scalars(4, a=1.0, b=0.0, f=0.5, g=0.5, z=0.5)
        table = _table(params)
        assert (table[:, 0, 0] == -np.inf).all()  # log(1 - a)
        assert (table[:, 1, 0] == 0.0).all()  # log a
        assert (table[:, 1, 1] == -np.inf).all()  # log b
        assert np.isfinite(table[:, 2:]).all()

    def test_independence_tables_masked_cells_gather_zero(self):
        table = pair_table(np.array([[0.7], [0.2]])).reshape(1, 4, 2)
        assert table[0, 2, 0] == 0.0
        assert table[0, 3, 0] == 0.0
        assert table[0, 1, 0] == np.log(0.7)
        assert table[0, 0, 1] == np.log1p(-0.2)


class TestGatherKernels:
    def test_dense_kernel_matches_multiply_add_bitwise(self):
        n, m = 13, 29
        sc = _random_binary((n, m), seed=2, density=0.6)
        dep = (_random_binary((n, m), seed=3, density=0.4) & sc).astype(np.int8)
        params = SourceParameters.random(n, seed=4).clamp(DEFAULT_EPSILON)
        columns = pair_column_log_likelihoods(
            flat_claim_codes(sc, dep), pair_table(params._rate_block())
        )

        scf, depf = sc.astype(float), dep.astype(float)
        log_a, log_1a = np.log(params.a)[:, None], np.log1p(-params.a)[:, None]
        log_b, log_1b = np.log(params.b)[:, None], np.log1p(-params.b)[:, None]
        log_f, log_1f = np.log(params.f)[:, None], np.log1p(-params.f)[:, None]
        log_g, log_1g = np.log(params.g)[:, None], np.log1p(-params.g)[:, None]
        p1_t = depf * log_f + (1 - depf) * log_a
        p0_t = depf * log_1f + (1 - depf) * log_1a
        p1_f = depf * log_g + (1 - depf) * log_b
        p0_f = depf * log_1g + (1 - depf) * log_1b
        expect_true = (scf * p1_t + (1 - scf) * p0_t).sum(axis=0)
        expect_false = (scf * p1_f + (1 - scf) * p0_f).sum(axis=0)
        assert np.array_equal(columns[:, 0], expect_true)
        assert np.array_equal(columns[:, 1], expect_false)

    def test_masked_kernel_treats_masked_cells_as_missing(self):
        n, m = 9, 17
        sc = _random_binary((n, m), seed=5)
        mask = _random_binary((n, m), seed=6, density=0.7)
        t_rate = np.linspace(0.2, 0.8, n)
        b_rate = np.linspace(0.1, 0.4, n)
        table = pair_table(np.array((t_rate, b_rate)))
        columns = pair_column_log_likelihoods(flat_claim_codes(sc, mask == 0), table)

        scf, maskf = sc.astype(float), mask.astype(float)
        expect_true = (
            maskf
            * (scf * np.log(t_rate)[:, None] + (1 - scf) * np.log1p(-t_rate)[:, None])
        ).sum(axis=0)
        assert np.allclose(columns[:, 0], expect_true, atol=0, rtol=0)
        # Fully masked column contributes exactly zero.
        sc1 = np.ones((n, 1), dtype=np.int8)
        all_missing = np.ones((n, 1), dtype=np.int8)
        single = pair_column_log_likelihoods(flat_claim_codes(sc1, all_missing), table)
        assert single[0, 0] == 0.0 and single[0, 1] == 0.0


class TestDedup:
    def test_group_columns_roundtrip(self):
        matrix = np.array([[1, 0, 1, 1], [0, 1, 0, 0]])
        unique, counts = group_columns(matrix)
        # Distinct columns come back as rows, in lexicographic order.
        assert np.array_equal(unique, [[0, 1], [1, 0]])
        assert counts.tolist() == [1, 3]
        # Repeating each distinct column by its count rebuilds the
        # matrix's columns up to order.
        rebuilt = np.repeat(unique, counts, axis=0)
        assert sorted(map(tuple, rebuilt)) == sorted(map(tuple, matrix.T))

    def test_group_columns_counts_its_columns(self):
        """The benchmark reads these counters for its compression ratio."""
        matrix = _random_binary((6, 40), seed=7, density=0.3)
        matrix[:, 20:] = matrix[:, :20]
        with observability.observe() as session:
            unique, counts = group_columns(matrix)
        metrics = session.metrics
        assert counts.sum() == 40
        assert unique.shape[0] <= 20
        assert metrics.counter("kernels.dedup.columns_total") == 40
        assert metrics.counter("kernels.dedup.columns_unique") == unique.shape[0]
        ratio = metrics.histograms["kernels.dedup.compression_ratio"]
        assert ratio["count"] == 1
        assert ratio["sum"] == unique.shape[0] / 40


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


class TestGibbsDeadline:
    """Deadline supervision of the Gibbs bound's blocked chains."""

    CONFIG = GibbsConfig(burn_in=20, min_sweeps=300, max_sweeps=600, collect_trace=True)

    def _case(self, n=10, m=12, seed=7):
        dependency = _random_binary((n, m), seed=seed, density=0.3)
        return dependency, SourceParameters.random(n, seed=seed)

    def test_generous_deadline_is_bit_transparent(self):
        dependency, params = self._case()
        plain = gibbs_bound(dependency, params, config=self.CONFIG, seed=3)
        budgeted = gibbs_bound(
            dependency, params, config=self.CONFIG, seed=3,
            deadline=Deadline.after(3600),
        )
        assert repr(budgeted) == repr(plain)

    def test_expired_deadline_raises_with_sweep_progress(self):
        dependency, params = self._case()
        deadline = Deadline.after(1e-4)
        while not deadline.expired():
            pass
        with pytest.raises(DeadlineExceeded) as excinfo:
            gibbs_bound(dependency, params, config=self.CONFIG, seed=3, deadline=deadline)
        error = excinfo.value
        assert error.context == "gibbs-sweep"
        assert error.progress["n_sweeps"] == 0
        assert error.progress["n_chains"] == group_columns(dependency)[0].shape[0]
        assert error.progress["n_sources"] == dependency.shape[0]
