"""CSR (scipy sparse) adapter of the sensing-problem protocol.

A dense ``(n, m)`` cell matrix for the paper's Paris Attack crawl
(38 844 × 23 513) needs ~1.8 GB even as int8; the actual content is
~41k claims and a few hundred thousand dependent cells.
:class:`CsrProblem` stores both matrices as CSR with **int8 data**
(satellite of DESIGN.md §9: the float64 data arrays of the original
sparse container were pure waste — values are 0/1 by validation, and
the numeric backends cast to float64 exactly once, at the BLAS
boundary).

Unlike the historical ``SparseSensingProblem`` it also carries
``source_ids`` / ``assertion_ids``, so converting dense → CSR → dense
is lossless (metadata included).

scipy is an optional dependency, imported lazily with a clear error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from repro.data.dense import DenseProblem
from repro.data.memory import check_densify
from repro.data.protocol import FORMAT_CSR
from repro.utils.errors import ValidationError
from repro.utils.validation import check_binary, check_id_list


def _sparse_module() -> Any:
    try:
        from scipy import sparse
    except ImportError as error:  # pragma: no cover - environment-specific
        raise ImportError(
            "sparse problems require scipy; install repro[sparse]"
        ) from error
    return sparse


@dataclass
class CsrProblem:
    """CSR-backed adapter of the :class:`~repro.data.protocol.Problem` protocol.

    ``claims`` and ``dependency`` are ``scipy.sparse.csr_matrix`` with
    int8 0/1 data and identical shape; ``truth`` is optional
    per-assertion labels, exactly as in the dense adapter.  Inputs of
    any numeric dtype are accepted and validated as 0/1 before being
    compacted to int8.

    The historical name ``SparseSensingProblem`` remains as an alias.
    """

    claims: Any
    dependency: Any
    truth: Optional[np.ndarray] = None
    source_ids: Optional[List[str]] = field(default=None)
    assertion_ids: Optional[List[str]] = field(default=None)

    def __post_init__(self) -> None:
        sparse = _sparse_module()
        self.claims = self._as_int8_csr(sparse, self.claims, "claims")
        self.dependency = self._as_int8_csr(sparse, self.dependency, "dependency")
        if self.claims.shape != self.dependency.shape:
            raise ValidationError(
                f"claims {self.claims.shape} and dependency "
                f"{self.dependency.shape} must share a shape"
            )
        n, m = self.claims.shape
        self.source_ids = check_id_list(self.source_ids, n, "source_ids", prefix="S")
        self.assertion_ids = check_id_list(
            self.assertion_ids, m, "assertion_ids", prefix="C"
        )
        if self.truth is not None:
            truth = np.asarray(self.truth)
            if truth.shape != (m,):
                raise ValidationError(
                    f"truth must have shape ({m},), got {truth.shape}"
                )
            check_binary(truth, "truth", what="labels")
            self.truth = truth.astype(np.int8)

    @staticmethod
    def _as_int8_csr(sparse: Any, matrix: Any, name: str) -> Any:
        """Validate 0/1 content and compact the data array to int8."""
        csr = sparse.csr_matrix(matrix)
        check_binary(csr.data, name)
        csr = csr.astype(np.int8)
        csr.eliminate_zeros()
        return csr

    # -- protocol surface ---------------------------------------------------

    @property
    def format(self) -> str:
        """Storage-format tag (always ``"csr"`` here)."""
        return FORMAT_CSR

    @property
    def n_sources(self) -> int:
        """Number of sources (rows)."""
        return int(self.claims.shape[0])

    @property
    def n_assertions(self) -> int:
        """Number of assertions (columns)."""
        return int(self.claims.shape[1])

    @property
    def n_claims(self) -> int:
        """Total number of claims."""
        return int(self.claims.nnz)

    @property
    def has_truth(self) -> bool:
        """Whether ground-truth labels are attached."""
        return self.truth is not None

    def without_truth(self) -> "CsrProblem":
        """A copy without ground truth (what an estimator may see)."""
        return CsrProblem(
            claims=self.claims,
            dependency=self.dependency,
            source_ids=list(self.source_ids or []),
            assertion_ids=list(self.assertion_ids or []),
        )

    @classmethod
    def from_dense(cls, problem: DenseProblem) -> "CsrProblem":
        """Convert a dense problem, carrying ids and truth along."""
        return cls(
            claims=problem.claims.values,
            dependency=problem.dependency.values,
            truth=problem.truth,
            source_ids=list(problem.source_ids),
            assertion_ids=list(problem.assertion_ids),
        )

    def dense_view(self, *, budget: Optional[int] = None) -> DenseProblem:
        """Materialise as a dense problem, guarded by the memory budget.

        Raises :class:`~repro.utils.errors.MemoryBudgetError` when the
        estimated allocation exceeds the effective budget (global
        default 1 GiB; override via ``budget=`` or
        :func:`repro.data.set_dense_budget`).
        """
        check_densify(self.n_sources, self.n_assertions, budget)
        return DenseProblem.from_arrays(
            np.asarray(self.claims.todense(), dtype=np.int8),
            np.asarray(self.dependency.todense(), dtype=np.int8),
            truth=self.truth,
            source_ids=list(self.source_ids or []),
            assertion_ids=list(self.assertion_ids or []),
        )

    def csr_view(self) -> "CsrProblem":
        """Identity: a CSR problem is its own CSR view."""
        return self

    def to_dense(self) -> DenseProblem:
        """Historical spelling of :meth:`dense_view` (same guard)."""
        return self.dense_view()

    def dependent_claim_fraction(self) -> float:
        """Fraction of claims that are dependent."""
        if self.claims.nnz == 0:
            return 0.0
        overlap = self.claims.multiply(self.dependency)
        return float(overlap.nnz / self.claims.nnz)

    def __eq__(self, other: object) -> bool:
        """Exact identity: stored values, ids, and truth all match."""
        if not isinstance(other, CsrProblem):
            return False
        if self.claims.shape != other.claims.shape:
            return False
        if self.truth is None or other.truth is None:
            truth_equal = self.truth is None and other.truth is None
        else:
            truth_equal = bool(np.array_equal(self.truth, other.truth))
        return (
            truth_equal
            and self.source_ids == other.source_ids
            and self.assertion_ids == other.assertion_ids
            and (self.claims != other.claims).nnz == 0
            and (self.dependency != other.dependency).nnz == 0
        )


#: Historical name of :class:`CsrProblem`, kept for compatibility.
SparseSensingProblem = CsrProblem


__all__ = ["CsrProblem", "SparseSensingProblem"]
