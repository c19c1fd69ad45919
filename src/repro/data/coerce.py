"""Capability negotiation between problems and their consumers.

A consumer declares the storage formats it accepts (``needs``) and
:func:`coerce_problem` either hands the problem back unchanged, converts
it through the zero-copy views (densification guarded by the memory
budget of :mod:`repro.data.memory`), or refuses with an actionable
error.  This is the single choke point that lets every estimator,
bound, and harness in the library accept *any*
:class:`~repro.data.protocol.Problem` while computing on the one layout
it supports.

:func:`as_dependency_array` is the same negotiation for the bound
functions, which take a bare dependency matrix rather than a problem.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.memory import check_densify
from repro.data.protocol import FORMAT_DENSE, FORMATS, Problem
from repro.utils.errors import ValidationError

#: A consumer's format requirement: one tag or an ordered preference list.
Needs = Union[str, Sequence[str]]


def _normalise_needs(needs: Needs) -> Tuple[str, ...]:
    tags = (needs,) if isinstance(needs, str) else tuple(needs)
    if not tags:
        raise ValidationError("needs must name at least one problem format")
    for tag in tags:
        if tag not in FORMATS:
            raise ValidationError(
                f"unknown problem format {tag!r}; expected one of {FORMATS}"
            )
    return tags


def coerce_problem(
    problem: Problem,
    *,
    needs: Needs,
    budget: Optional[int] = None,
) -> Problem:
    """Return ``problem`` in a format the consumer accepts.

    Parameters
    ----------
    problem:
        Any object satisfying the :class:`~repro.data.protocol.Problem`
        protocol (``DenseProblem`` or ``CsrProblem``).
    needs:
        One format tag (``"dense"`` / ``"csr"``) or an ordered
        preference sequence.  If the problem's own format is listed it
        is returned unchanged; otherwise it is converted to the first
        listed format.
    budget:
        Optional per-call densification budget in bytes, overriding the
        global one when a dense conversion is required.

    Raises
    ------
    ValidationError
        If ``problem`` does not implement the protocol or ``needs``
        names an unknown format.
    MemoryBudgetError
        If a required densification would blow the memory budget.
    """
    tags = _normalise_needs(needs)
    if not _is_problem(problem):
        raise ValidationError(
            "expected a sensing problem (DenseProblem or CsrProblem), got "
            f"{type(problem).__name__}; wrap raw matrices with "
            "repro.data.DenseProblem or repro.data.CsrProblem first"
        )
    fmt = problem.format
    if fmt in tags:
        return problem
    target = tags[0]
    if target == FORMAT_DENSE:
        return problem.dense_view(budget=budget)
    return problem.csr_view()


def _is_problem(obj: Any) -> bool:
    """Duck-typed protocol check.

    A scipy CSR matrix also carries ``.format == "csr"``, so the tag
    alone cannot identify a problem — the conversion surface can.
    """
    return (
        getattr(obj, "format", None) in FORMATS
        and hasattr(obj, "dense_view")
        and hasattr(obj, "csr_view")
    )


def _is_scipy_sparse(obj: Any) -> bool:
    """Duck-typed scipy-sparse check that never imports scipy."""
    return hasattr(obj, "toarray") and hasattr(obj, "nnz") and hasattr(obj, "shape")


def as_dependency_array(
    dependency: Any,
    *,
    budget: Optional[int] = None,
) -> np.ndarray:
    """A dense ndarray of dependency indicators from any spelling.

    Accepts a :class:`~repro.data.protocol.Problem` (its dependency
    matrix is extracted), a ``DependencyMatrix``, a scipy sparse
    matrix, or anything ``np.asarray`` understands.  Sparse inputs are
    densified under the memory budget — the bound computations
    (:mod:`repro.bounds`) enumerate dependency *columns* and are dense
    by nature, so this is the honest conversion point.
    """
    if _is_problem(dependency):
        dependency = dependency.dependency  # Problem → its D matrix
    values = getattr(dependency, "values", None)
    if isinstance(values, np.ndarray):  # DependencyMatrix / SourceClaimMatrix
        return values
    if _is_scipy_sparse(dependency):
        n, m = dependency.shape
        check_densify(n, m, budget)
        return np.asarray(dependency.todense())
    return np.asarray(dependency)


__all__ = ["Needs", "as_dependency_array", "coerce_problem"]
