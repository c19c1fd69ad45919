"""Exact fundamental error bound (Section III, Equation 3).

The bound is the Bayes risk of the *optimal* estimator that knows the
true parameter set θ and the dependency indicators D: for every one of
the :math:`2^n` possible claim patterns the optimal estimator picks the
truth value with the larger joint probability, and the expected error is
the total probability mass of the smaller joints,

.. math::
    E^{opt}(error) = \\sum_{SC_j \\in A}
        \\min\\{P(SC_j | C_j = 1; D, θ) z,\\;
               P(SC_j | C_j = 0; D, θ) (1 - z)\\}.

Every exact bound — one column or a whole D matrix, degenerate 0/1
rates included — evaluates the :math:`2^n`-pattern sum with the
meet-in-the-middle kernel of :mod:`repro.kernels.enumeration`, which
costs ``O(2^{n/2} · n)`` per distinct dependency column.  Beyond
:data:`MAX_EXACT_SOURCES` the call is refused — use the Gibbs
approximation in :mod:`repro.bounds.gibbs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.model import SourceParameters
from repro.data.coerce import as_dependency_array
from repro.kernels.dedup import group_columns
from repro.kernels.enumeration import gray_pattern_masses
from repro.observability import span
from repro.utils.errors import ValidationError

if TYPE_CHECKING:  # deferred to keep the bounds import-light
    from repro.resilience.supervisor import Deadline

#: Refuse exact enumeration above this source count (2^30 patterns).
MAX_EXACT_SOURCES = 30


@dataclass(frozen=True)
class BoundResult:
    """An error bound with its false-positive / false-negative split.

    Attributes
    ----------
    total:
        The expected misclassification probability of the optimal
        estimator.
    false_positive:
        The portion of ``total`` caused by *false* assertions being
        judged true.
    false_negative:
        The portion caused by *true* assertions being judged false.
    method:
        ``"exact"`` or ``"gibbs"``.
    n_samples:
        Number of Gibbs samples consumed (``None`` for the exact bound).
    estimate_trace:
        Per-sweep error statistic of the Gibbs run (only when the
        sampler was configured with ``collect_trace=True``); feed it to
        :mod:`repro.eval.diagnostics` for ESS/autocorrelation checks.
    """

    total: float
    false_positive: float
    false_negative: float
    method: str
    n_samples: Optional[int] = None
    estimate_trace: Optional[tuple] = None

    def __post_init__(self) -> None:
        recomposed = self.false_positive + self.false_negative
        if not np.isclose(recomposed, self.total, atol=1e-9):
            raise ValidationError(
                "false_positive + false_negative must equal total: "
                f"{self.false_positive} + {self.false_negative} != {self.total}"
            )

    @property
    def optimal_accuracy(self) -> float:
        """``1 - total``: the accuracy ceiling no fact-finder can beat."""
        return 1.0 - self.total


def _emission_rates(
    d_column: np.ndarray, params: SourceParameters
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-source claim rates ``(rate_if_true, rate_if_false)`` for a column."""
    d = np.asarray(d_column, dtype=np.float64)
    if d.ndim != 1:
        raise ValidationError(f"d_column must be 1-D, got shape {d.shape}")
    if d.size != params.n_sources:
        raise ValidationError(
            f"d_column has {d.size} entries but parameters describe "
            f"{params.n_sources} sources"
        )
    if d.size and not np.isin(d, (0, 1)).all():
        raise ValidationError("d_column must contain only 0/1 entries")
    rate_true = d * params.f + (1.0 - d) * params.a
    rate_false = d * params.g + (1.0 - d) * params.b
    return rate_true, rate_false


def _exact_bound(
    columns,
    weights: np.ndarray,
    params: SourceParameters,
    deadline: Optional["Deadline"],
) -> BoundResult:
    """Equation (3) averaged over dependency ``columns`` with ``weights``.

    One kernel call covers every column; ``-inf`` logs of rates exactly
    at 0/1 go to the kernel as they are.
    """
    n, k = params.n_sources, len(columns)
    if n > MAX_EXACT_SOURCES:
        raise ValidationError(
            f"exact bound needs 2^{n} pattern evaluations; refusing n > "
            f"{MAX_EXACT_SOURCES}. Use the Gibbs bound instead."
        )
    rate_true = np.empty((n, k))
    rate_false = np.empty((n, k))
    for index, column in enumerate(columns):
        rate_true[:, index], rate_false[:, index] = _emission_rates(column, params)
    with np.errstate(divide="ignore"):
        fp_mass, fn_mass = gray_pattern_masses(
            np.log(rate_true),
            np.log1p(-rate_true),
            np.log(rate_false),
            np.log1p(-rate_false),
            float(np.log(params.z)),
            float(np.log1p(-params.z)),
            deadline=deadline,
        )
    fp = float(np.sum(weights * fp_mass))
    fn = float(np.sum(weights * fn_mass))
    return BoundResult(total=fp + fn, false_positive=fp, false_negative=fn, method="exact")


def exact_column_bound(
    d_column: np.ndarray,
    params: SourceParameters,
    *,
    deadline: Optional["Deadline"] = None,
) -> BoundResult:
    """Exact Bayes-risk bound for a single assertion column.

    Sums over all :math:`2^n` claim patterns.  Errors where the optimal
    estimator decides "true" contribute to the false-positive share
    (the assertion was actually false), and vice versa; ties are decided
    as "false", matching the strict ``>`` comparison of Algorithm 1.
    This is the one-column case of :func:`exact_bound`.

    ``deadline`` (a :class:`repro.resilience.supervisor.Deadline`) is
    checked cooperatively inside the enumeration; on expiry the raised
    :class:`~repro.utils.errors.DeadlineExceeded` records how many
    patterns were swept.
    """
    with span("bound.exact_column", n_sources=params.n_sources):
        return _exact_bound([d_column], np.ones(1), params, deadline)


def exact_bound(
    dependency: np.ndarray,
    params: SourceParameters,
    *,
    deadline: Optional["Deadline"] = None,
) -> BoundResult:
    """Exact bound averaged over all assertion columns of a D matrix.

    Columns with identical dependency patterns share a bound, so the
    computation groups unique columns first and evaluates them all in
    one call of the meet-in-the-middle kernel, weighted by multiplicity.

    ``dependency`` may be a raw array or column, a
    ``DependencyMatrix``, a scipy sparse matrix, or a whole sensing
    problem in either format (its D matrix is used) — see
    :func:`repro.data.as_dependency_array`.
    """
    dep = as_dependency_array(dependency)
    if dep.ndim == 1:
        return exact_column_bound(dep, params, deadline=deadline)
    if dep.ndim != 2:
        raise ValidationError(f"dependency must be 1-D or 2-D, got {dep.shape}")
    unique_cols, counts = group_columns(dep)
    with span(
        "bound.exact",
        n_sources=params.n_sources,
        n_columns=int(dep.shape[1]),
        n_unique=unique_cols.shape[0],
    ):
        return _exact_bound(unique_cols, counts / dep.shape[1], params, deadline)


def bound_from_pattern_table(
    p_given_true: np.ndarray,
    p_given_false: np.ndarray,
    z: float = 0.5,
) -> BoundResult:
    """Equation (3) evaluated directly on a per-pattern likelihood table.

    This is the paper's Table I walk-through form: the caller supplies
    :math:`P(SC_j | C_j = 1)` and :math:`P(SC_j | C_j = 0)` for every
    claim pattern (any joint, factorised or not), plus the prior ``z``.
    """
    p_true = np.asarray(p_given_true, dtype=np.float64)
    p_false = np.asarray(p_given_false, dtype=np.float64)
    if p_true.shape != p_false.shape or p_true.ndim != 1:
        raise ValidationError(
            "pattern tables must be 1-D arrays of equal length, got "
            f"{p_true.shape} vs {p_false.shape}"
        )
    for name, table in (("p_given_true", p_true), ("p_given_false", p_false)):
        if table.size and (table.min() < 0 or not np.isclose(table.sum(), 1.0, atol=1e-6)):
            raise ValidationError(f"{name} must be a probability distribution")
    joint_true = p_true * z
    joint_false = p_false * (1.0 - z)
    decide_true = joint_true > joint_false
    fp = float(joint_false[decide_true].sum())
    fn = float(joint_true[~decide_true].sum())
    return BoundResult(
        total=fp + fn, false_positive=fp, false_negative=fn, method="exact"
    )


__all__ = [
    "BoundResult",
    "MAX_EXACT_SOURCES",
    "bound_from_pattern_table",
    "exact_bound",
    "exact_column_bound",
]
