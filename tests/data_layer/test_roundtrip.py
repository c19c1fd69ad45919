"""Property tests: format conversions and serialisation are lossless.

``dense_view(csr_view(p)) == p`` must hold *exactly* — values, ids and
truth — for every valid problem, and both io modules must round-trip a
problem through disk without losing the ids (the historical sparse
container dropped them).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DenseProblem
from repro.io.serialization import load_problem, save_problem
from repro.io.sparse_io import load_sparse_problem, save_sparse_problem

SETTINGS = settings(max_examples=25, deadline=None)

dims = st.tuples(st.integers(1, 7), st.integers(1, 9))
seeds = st.integers(0, 2**32 - 1)
flags = st.booleans()


def _problem(n, m, seed, with_truth, with_ids) -> DenseProblem:
    rng = np.random.default_rng(seed)
    sc = (rng.random((n, m)) < 0.5).astype(np.int8)
    dep = ((rng.random((n, m)) < 0.4) & (sc == 1)).astype(np.int8)
    truth = (rng.random(m) < 0.5).astype(np.int8) if with_truth else None
    if with_ids:
        return DenseProblem.from_arrays(
            sc,
            dep,
            truth=truth,
            source_ids=[f"user-{seed % 97}-{i}" for i in range(n)],
            assertion_ids=[f"claim-{j}" for j in range(m)],
        )
    return DenseProblem(claims=sc, dependency=dep, truth=truth)


class TestFormatRoundTrip:
    @SETTINGS
    @given(dims=dims, seed=seeds, with_truth=flags, with_ids=flags)
    def test_dense_csr_dense_is_identity(self, dims, seed, with_truth, with_ids):
        problem = _problem(*dims, seed, with_truth, with_ids)
        assert problem.csr_view().dense_view() == problem

    @SETTINGS
    @given(dims=dims, seed=seeds, with_truth=flags, with_ids=flags)
    def test_csr_dense_csr_is_identity(self, dims, seed, with_truth, with_ids):
        csr = _problem(*dims, seed, with_truth, with_ids).csr_view()
        assert csr.dense_view().csr_view() == csr

    @SETTINGS
    @given(dims=dims, seed=seeds)
    def test_truth_and_ids_survive_exactly(self, dims, seed):
        problem = _problem(*dims, seed, with_truth=True, with_ids=True)
        back = problem.csr_view().dense_view()
        assert np.array_equal(back.truth, problem.truth)
        assert back.source_ids == problem.source_ids
        assert back.assertion_ids == problem.assertion_ids
        assert np.array_equal(back.claims.values, problem.claims.values)
        assert np.array_equal(back.dependency.values, problem.dependency.values)


class TestSerialisationRoundTrip:
    @SETTINGS
    @given(dims=dims, seed=seeds, with_truth=flags, with_ids=flags)
    def test_json_roundtrip(self, tmp_path_factory, dims, seed, with_truth, with_ids):
        problem = _problem(*dims, seed, with_truth, with_ids)
        path = tmp_path_factory.mktemp("json") / "problem.json"
        save_problem(problem, path)
        assert load_problem(path) == problem

    @SETTINGS
    @given(dims=dims, seed=seeds, with_truth=flags, with_ids=flags)
    def test_npz_roundtrip(self, tmp_path_factory, dims, seed, with_truth, with_ids):
        csr = _problem(*dims, seed, with_truth, with_ids).csr_view()
        path = tmp_path_factory.mktemp("npz") / "problem.npz"
        save_sparse_problem(csr, path)
        loaded = load_sparse_problem(path)
        assert loaded == csr
        assert loaded.claims.data.dtype == np.int8

    @SETTINGS
    @given(dims=dims, seed=seeds, with_truth=flags)
    def test_cross_format_io(self, tmp_path_factory, dims, seed, with_truth):
        """Dense problems can be written through the sparse writer and back."""
        problem = _problem(*dims, seed, with_truth, with_ids=True)
        path = tmp_path_factory.mktemp("cross") / "problem.npz"
        save_sparse_problem(problem, path)  # coerced to CSR internally
        assert load_sparse_problem(path).dense_view() == problem


class TestLegacyArchives:
    def test_archive_without_ids_loads_with_defaults(self, tmp_path):
        """Pre-data-layer archives carry no id arrays; load still works."""
        problem = _problem(3, 4, seed=5, with_truth=True, with_ids=False).csr_view()
        path = tmp_path / "legacy.npz"
        claims = problem.claims
        dependency = problem.dependency
        np.savez_compressed(
            path,
            magic=np.array("repro-sparse-problem-v1"),
            shape=np.array(claims.shape, dtype=np.int64),
            claims_indptr=claims.indptr,
            claims_indices=claims.indices,
            dependency_indptr=dependency.indptr,
            dependency_indices=dependency.indices,
            has_truth=np.array(True),
            truth=problem.truth,
        )
        loaded = load_sparse_problem(path)
        assert loaded == problem
        assert loaded.source_ids == ["S0", "S1", "S2"]
