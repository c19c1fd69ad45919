"""Sparse substrate for full-scale field data (requires scipy)."""

from repro.sparse.extract import extract_dependency_sparse
from repro.sparse.problem import CsrProblem, SparseSensingProblem

__all__ = [
    "CsrProblem",
    "SparseSensingProblem",
    "extract_dependency_sparse",
]
