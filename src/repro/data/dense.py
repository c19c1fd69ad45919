"""Dense (ndarray) adapter of the sensing-problem protocol.

Terminology from Section II-A of the paper:

* an **assertion** :math:`C_j` is any statement that evaluates to true
  or false;
* a **claim** :math:`S_iC_j = 1` is the act of source :math:`S_i`
  reporting assertion :math:`C_j`;
* the **source-claim matrix** ``SC`` collects all claims
  (``SC[i, j] = 1`` iff source ``i`` asserted ``j``);
* the **dependency indicator** ``D[i, j] = 1`` marks cells where an
  ancestor of source ``i`` (someone ``i`` follows, directly or
  transitively, depending on the extraction policy) made assertion
  ``j`` before source ``i`` would have.

The paper only defines ``D`` on cells where a claim exists; the EM
M-step however partitions *non*-claims by dependency too (the sets
:math:`S_iC_0^{D_0}` and :math:`S_iC_0^{D_1}`), so this library defines
``D`` on every cell: a non-claim cell is dependent when the source *had
the opportunity* to repeat the assertion from an ancestor.  See
DESIGN.md §5.2.

:class:`DenseProblem` (historically exported as ``SensingProblem``) is
the dense adapter of the :class:`~repro.data.protocol.Problem`
protocol; :meth:`DenseProblem.csr_view` converts to the CSR adapter
without touching the stored values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.protocol import FORMAT_DENSE
from repro.utils.errors import ValidationError
from repro.utils.validation import (
    check_binary,
    check_binary_matrix,
    check_id_list,
    check_same_shape,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.data.csr import CsrProblem


class SourceClaimMatrix:
    """An ``n_sources × n_assertions`` binary claim matrix.

    Thin, validated wrapper over an int8 numpy array with the counting
    helpers the estimators and reports need.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        source_ids: Optional[Sequence[str]] = None,
        assertion_ids: Optional[Sequence[str]] = None,
    ) -> None:
        self._matrix = check_binary_matrix(matrix, "source-claim matrix")
        n, m = self._matrix.shape
        self.source_ids = check_id_list(source_ids, n, "source_ids", prefix="S")
        self.assertion_ids = check_id_list(
            assertion_ids, m, "assertion_ids", prefix="C"
        )

    @staticmethod
    def _check_ids(
        ids: Optional[Sequence[str]], expected: int, name: str
    ) -> List[str]:
        prefix = "S" if name == "source_ids" else "C"
        return check_id_list(ids, expected, name, prefix=prefix)

    @classmethod
    def from_claims(
        cls,
        claims: Iterable[Tuple[int, int]],
        n_sources: int,
        n_assertions: int,
        **kwargs: Any,
    ) -> "SourceClaimMatrix":
        """Build a matrix from an iterable of ``(source, assertion)`` pairs."""
        matrix = np.zeros((n_sources, n_assertions), dtype=np.int8)
        for i, j in claims:
            if not (0 <= i < n_sources and 0 <= j < n_assertions):
                raise ValidationError(
                    f"claim ({i}, {j}) outside matrix of shape "
                    f"({n_sources}, {n_assertions})"
                )
            matrix[i, j] = 1
        return cls(matrix, **kwargs)

    # -- array-ish interface -------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """The underlying int8 array (not a copy; treat as read-only)."""
        return self._matrix

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_sources, n_assertions)``."""
        return self._matrix.shape

    @property
    def n_sources(self) -> int:
        """Number of sources (rows)."""
        return self._matrix.shape[0]

    @property
    def n_assertions(self) -> int:
        """Number of assertions (columns)."""
        return self._matrix.shape[1]

    def __getitem__(self, key: Any) -> Any:
        return self._matrix[key]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceClaimMatrix)
            and self.shape == other.shape
            and bool(np.array_equal(self._matrix, other._matrix))
        )

    def __repr__(self) -> str:
        return (
            f"SourceClaimMatrix(n_sources={self.n_sources}, "
            f"n_assertions={self.n_assertions}, n_claims={self.n_claims})"
        )

    # -- statistics -----------------------------------------------------------

    @property
    def n_claims(self) -> int:
        """Total number of claims (ones) in the matrix."""
        return int(self._matrix.sum())

    @property
    def density(self) -> float:
        """Fraction of cells that are claims."""
        if self._matrix.size == 0:
            return 0.0
        return self.n_claims / self._matrix.size

    def claims_per_source(self) -> np.ndarray:
        """Row sums: how many assertions each source reported."""
        return self._matrix.sum(axis=1)

    def claims_per_assertion(self) -> np.ndarray:
        """Column sums: how many sources reported each assertion."""
        return self._matrix.sum(axis=0)

    def supporters(self, assertion: int) -> np.ndarray:
        """Indices of sources that reported ``assertion``."""
        return np.flatnonzero(self._matrix[:, assertion])

    def silent_assertions(self) -> np.ndarray:
        """Indices of assertions nobody reported."""
        return np.flatnonzero(self.claims_per_assertion() == 0)


class DependencyMatrix:
    """Binary dependency indicators ``D`` with the same shape as ``SC``."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = check_binary_matrix(matrix, "dependency matrix")

    @classmethod
    def independent(cls, n_sources: int, n_assertions: int) -> "DependencyMatrix":
        """All-zero indicators: every claim is independent (the IPSN'12 world)."""
        return cls(np.zeros((n_sources, n_assertions), dtype=np.int8))

    @property
    def values(self) -> np.ndarray:
        """The underlying int8 array (not a copy; treat as read-only)."""
        return self._matrix

    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_sources, n_assertions)``."""
        return self._matrix.shape

    def __getitem__(self, key: Any) -> Any:
        return self._matrix[key]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DependencyMatrix)
            and self.shape == other.shape
            and bool(np.array_equal(self._matrix, other._matrix))
        )

    def __repr__(self) -> str:
        n_dep = int(self._matrix.sum())
        return f"DependencyMatrix(shape={self.shape}, n_dependent_cells={n_dep})"

    @property
    def dependent_fraction(self) -> float:
        """Fraction of cells flagged as dependent."""
        if self._matrix.size == 0:
            return 0.0
        return float(self._matrix.mean())


@dataclass
class DenseProblem:
    """A complete fact-finding input: claims, dependencies, and metadata.

    ``truth`` (the per-assertion ground-truth labels) is optional — it
    is present for synthetic data, absent for field data — and is never
    consulted by estimators; only the evaluation harness reads it.

    This is the dense adapter of the
    :class:`~repro.data.protocol.Problem` protocol; the historical name
    ``SensingProblem`` remains as an alias.
    """

    claims: SourceClaimMatrix
    dependency: DependencyMatrix
    truth: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if isinstance(self.claims, np.ndarray):
            self.claims = SourceClaimMatrix(self.claims)
        if isinstance(self.dependency, np.ndarray):
            self.dependency = DependencyMatrix(self.dependency)
        check_same_shape(
            self.claims.values, self.dependency.values, ("claims", "dependency")
        )
        if self.truth is not None:
            truth = np.asarray(self.truth)
            if truth.shape != (self.claims.n_assertions,):
                raise ValidationError(
                    f"truth must have shape ({self.claims.n_assertions},), "
                    f"got {truth.shape}"
                )
            check_binary(truth, "truth", what="labels")
            self.truth = truth.astype(np.int8)

    @classmethod
    def independent(
        cls, claims: np.ndarray, truth: Optional[np.ndarray] = None
    ) -> "DenseProblem":
        """Wrap a raw claim matrix with all-independent indicators."""
        matrix = SourceClaimMatrix(claims)
        return cls(
            claims=matrix,
            dependency=DependencyMatrix.independent(*matrix.shape),
            truth=truth,
        )

    @classmethod
    def from_arrays(
        cls,
        claims: np.ndarray,
        dependency: np.ndarray,
        *,
        truth: Optional[np.ndarray] = None,
        source_ids: Optional[Sequence[str]] = None,
        assertion_ids: Optional[Sequence[str]] = None,
    ) -> "DenseProblem":
        """Build from raw arrays, attaching identifiers in one call."""
        return cls(
            claims=SourceClaimMatrix(
                np.asarray(claims),
                source_ids=source_ids,
                assertion_ids=assertion_ids,
            ),
            dependency=DependencyMatrix(np.asarray(dependency)),
            truth=truth,
        )

    # -- protocol surface ---------------------------------------------------

    @property
    def format(self) -> str:
        """Storage-format tag (always ``"dense"`` here)."""
        return FORMAT_DENSE

    @property
    def n_sources(self) -> int:
        """Number of sources."""
        return self.claims.n_sources

    @property
    def n_assertions(self) -> int:
        """Number of assertions."""
        return self.claims.n_assertions

    @property
    def n_claims(self) -> int:
        """Total number of claims (ones in ``SC``)."""
        return self.claims.n_claims

    @property
    def source_ids(self) -> List[str]:
        """Per-row source identifiers (held by the claim matrix)."""
        return self.claims.source_ids

    @property
    def assertion_ids(self) -> List[str]:
        """Per-column assertion identifiers (held by the claim matrix)."""
        return self.claims.assertion_ids

    @property
    def has_truth(self) -> bool:
        """Whether ground-truth labels are attached."""
        return self.truth is not None

    def dense_view(self, *, budget: Optional[int] = None) -> "DenseProblem":
        """Identity: a dense problem is its own dense view."""
        return self

    def csr_view(self) -> "CsrProblem":
        """This problem as a CSR adapter sharing ids and truth.

        Requires scipy (the ``repro[sparse]`` extra).  The conversion
        compresses the int8 arrays to CSR; values, ids and truth
        round-trip exactly (``csr_view().dense_view() == problem``).
        """
        from repro.data.csr import CsrProblem

        return CsrProblem.from_dense(self)

    def without_truth(self) -> "DenseProblem":
        """A copy with ground truth stripped (what an estimator may see)."""
        return DenseProblem(claims=self.claims, dependency=self.dependency)

    def dependent_claim_fraction(self) -> float:
        """Fraction of *claims* (ones in SC) that are dependent."""
        sc = self.claims.values
        n_claims = sc.sum()
        if n_claims == 0:
            return 0.0
        return float((sc & self.dependency.values).sum() / n_claims)

    def __eq__(self, other: object) -> bool:
        """Exact identity: values, ids, and truth all match."""
        if not isinstance(other, DenseProblem):
            return False
        if self.truth is None or other.truth is None:
            truth_equal = self.truth is None and other.truth is None
        else:
            truth_equal = bool(np.array_equal(self.truth, other.truth))
        return (
            self.claims == other.claims
            and self.source_ids == other.source_ids
            and self.assertion_ids == other.assertion_ids
            and self.dependency == other.dependency
            and truth_equal
        )


#: Historical name of :class:`DenseProblem`, kept for compatibility
#: (and because the paper-facing docs say "sensing problem").
SensingProblem = DenseProblem


__all__ = [
    "DenseProblem",
    "DependencyMatrix",
    "SensingProblem",
    "SourceClaimMatrix",
]
