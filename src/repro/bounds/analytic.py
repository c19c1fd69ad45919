"""Closed-form analytic bounds on the Bayes risk.

The exact bound (Equation 3) costs :math:`2^n` evaluations and the
Gibbs approximation costs a sampling run.  Two textbook closed forms
bracket the same quantity in microseconds and are exact companions to
the paper's machinery:

* the **Bhattacharyya upper bound**: from
  :math:`\\min(x, y) \\le \\sqrt{xy}`,

  .. math::
      E^{opt}(error) \\le \\sqrt{z (1-z)} \\prod_i
          \\Big( \\sqrt{p_i q_i} + \\sqrt{(1-p_i)(1-q_i)} \\Big)

  where :math:`p_i, q_i` are source *i*'s claim rates given a true /
  false assertion (``a``/``b`` or ``f``/``g`` depending on the cell's
  dependency flag) — the product is the per-column Bhattacharyya
  coefficient of the two class-conditional claim distributions;
* a **lower bound** from :math:`\\min(x,y) \\ge
  \\tfrac12\\,(x+y)(1 - |x-y|/(x+y))` aggregated with the same
  coefficient via the standard inequality
  :math:`E \\ge \\tfrac12 (1 - \\sqrt{1 - 4 z (1-z) \\rho^2})` with ρ the
  Bhattacharyya coefficient.

Both collapse to 0 for perfectly informative sources and to
``min(z, 1-z)`` for useless ones, and they sandwich the exact bound for
every parameter setting (property-tested).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.bounds.exact import _emission_rates
from repro.core.model import SourceParameters
from repro.data.coerce import as_dependency_array
from repro.kernels.dedup import group_columns
from repro.utils.errors import ValidationError


def bhattacharyya_coefficient(
    d_column: np.ndarray, params: SourceParameters
) -> float:
    """Bhattacharyya coefficient ρ of the two class-conditional claim
    distributions for one dependency column.

    ρ = 1 means the distributions coincide (useless sources); ρ = 0
    means they are disjoint (perfect discrimination).
    """
    rate_true, rate_false = _emission_rates(d_column, params)
    per_source = np.sqrt(rate_true * rate_false) + np.sqrt(
        (1.0 - rate_true) * (1.0 - rate_false)
    )
    return float(np.prod(per_source))


def bhattacharyya_bounds(
    dependency: np.ndarray, params: SourceParameters
) -> Tuple[float, float]:
    """Closed-form ``(lower, upper)`` bracket of the exact Bayes risk.

    Accepts one column or a full D matrix (averaged over columns, as
    :func:`repro.bounds.exact.exact_bound` does), in any spelling
    :func:`repro.data.as_dependency_array` understands — including a
    whole sensing problem in either storage format.
    """
    dep = as_dependency_array(dependency)
    if dep.ndim == 1:
        columns = dep[None, :]
        weights = np.ones(1)
    elif dep.ndim == 2:
        unique_cols, counts = group_columns(dep)
        columns = unique_cols
        weights = counts / dep.shape[1]
    else:
        raise ValidationError(f"dependency must be 1-D or 2-D, got {dep.shape}")
    z = params.z
    prior_product = z * (1.0 - z)
    lower = 0.0
    upper = 0.0
    for column, weight in zip(columns, weights):
        rho = bhattacharyya_coefficient(column, params)
        upper += weight * np.sqrt(prior_product) * rho
        inner = max(0.0, 1.0 - 4.0 * prior_product * rho**2)
        lower += weight * 0.5 * (1.0 - np.sqrt(inner))
    return float(lower), float(min(upper, min(z, 1.0 - z)))


__all__ = ["bhattacharyya_bounds", "bhattacharyya_coefficient"]
