"""Likelihood computations for the dependency-aware source model.

Implements Table II and Equations (4), (5), (9) of the paper in
vectorised log-space form.  Every estimator and bound in the library
funnels through these functions, so they are the numerical backbone of
the reproduction.

Conventions
-----------
* ``sc`` — an ``(n, m)`` 0/1 claim matrix (or an ``(n,)`` column);
* ``d``  — dependency indicators of the same shape;
* log-probabilities use natural log; impossible events yield ``-inf``
  only if parameters are exactly 0/1 (callers clamp first).
"""

from __future__ import annotations

import math
from typing import Any, Tuple, Union

import numpy as np

from repro.core.matrix import SensingProblem
from repro.core.model import SourceParameters
from repro.kernels.likelihood import flat_claim_codes, pair_column_log_likelihoods
from repro.kernels.tables import pair_table
from repro.utils.errors import ValidationError

ArrayLike = Union[np.ndarray, list]


def _is_binary(values: np.ndarray) -> bool:
    return bool(((values == 0) | (values == 1)).all())


def emission_probability(
    sc: int, d: int, c: int, params: SourceParameters, source: int
) -> float:
    """Scalar :math:`P(S_iC_j = sc \\mid C_j = c; D_{ij} = d)` per Table II."""
    if sc not in (0, 1) or d not in (0, 1) or c not in (0, 1):
        raise ValidationError("sc, d and c must all be 0 or 1")
    if c == 1:
        rate = params.f[source] if d == 1 else params.a[source]
    else:
        rate = params.g[source] if d == 1 else params.b[source]
    return float(rate if sc == 1 else 1.0 - rate)


def _multiply_add_columns(
    sc: np.ndarray, d: np.ndarray, params: SourceParameters
) -> np.ndarray:
    """Equations (4)/(5) in multiply-add form, for non-binary ``SC`` or ``D``.

    Fractional entries weight the two log rates of each cell; on 0/1
    input the selection in :func:`pair_column_log_likelihoods` is the
    defining form.  Returns ``(…, 2)`` like the gather.
    """
    def mix(dep_rate: np.ndarray, ind_rate: np.ndarray) -> np.ndarray:
        if d.ndim == 2:
            dep_rate, ind_rate = dep_rate[:, None], ind_rate[:, None]
        return d * dep_rate + (1.0 - d) * ind_rate

    with np.errstate(divide="ignore", invalid="ignore"):
        columns = [
            (
                sc * mix(np.log(dep_rate), np.log(ind_rate))
                + (1.0 - sc) * mix(np.log1p(-dep_rate), np.log1p(-ind_rate))
            ).sum(axis=0)
            for dep_rate, ind_rate in ((params.f, params.a), (params.g, params.b))
        ]
    return np.stack(columns, axis=-1)


def _pair_columns(sc: ArrayLike, d: ArrayLike, params: SourceParameters) -> np.ndarray:
    """Validated per-column ``[log P(SC_j | C_j = 1), log P(SC_j | C_j = 0)]``.

    ``(m, 2)`` for ``(n, m)`` input, ``(2,)`` for one ``(n,)`` column.
    """
    sc = np.asarray(sc, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if sc.shape != d.shape:
        raise ValidationError(f"sc and d shapes differ: {sc.shape} vs {d.shape}")
    n = sc.shape[0]
    if n != params.n_sources:
        raise ValidationError(
            f"matrix has {n} sources but parameters describe {params.n_sources}"
        )
    if not (_is_binary(sc) and _is_binary(d)):
        return _multiply_add_columns(sc, d, params)
    # A single column is an (n, 1) problem; the gather sums it in the
    # same contiguous order as a 1-D sum over the sources.
    matrix_sc, matrix_d = (sc, d) if sc.ndim == 2 else (sc[:, None], d[:, None])
    columns = pair_column_log_likelihoods(
        flat_claim_codes(matrix_sc, matrix_d), pair_table(params._rate_block())
    )
    return columns if sc.ndim == 2 else columns[0]


def column_log_likelihoods(
    sc: ArrayLike, d: ArrayLike, params: SourceParameters
) -> Tuple[np.ndarray, np.ndarray]:
    """Log of Equations (4) and (5) for every assertion column.

    Parameters
    ----------
    sc, d : ``(n, m)`` arrays (or ``(n,)`` single columns).

    Returns
    -------
    ``(log_p_true, log_p_false)`` — each ``(m,)`` (or scalars for a
    single column): :math:`\\log P(SC_j \\mid C_j = 1; D, θ)` and
    :math:`\\log P(SC_j \\mid C_j = 0; D, θ)`.  On 0/1 input every
    cell *selects* its log rate, so a rate of exactly 0 or 1 gives the
    Equation (4)/(5) value (``0`` or ``-inf``) rather than ``0·(-inf)``.
    """
    columns = _pair_columns(sc, d, params)
    return columns[..., 0], columns[..., 1]


def pattern_log_joint(
    pattern: np.ndarray, d_column: np.ndarray, params: SourceParameters
) -> Tuple[float, float]:
    """Log joints ``(log P(pattern, C=1), log P(pattern, C=0))`` for one column.

    ``pattern`` is an ``(n,)`` 0/1 vector of hypothetical claims.  Used
    by the error-bound machinery, which reasons about *possible* claim
    patterns rather than observed ones.
    """
    log_true, log_false = column_log_likelihoods(pattern, d_column, params)
    with np.errstate(divide="ignore"):
        return (
            float(log_true + np.log(params.z)),
            float(log_false + np.log1p(-params.z)),
        )


def posterior_truth(
    problem: SensingProblem, params: SourceParameters
) -> np.ndarray:
    """Equation (9): :math:`P(C_j = 1 \\mid SC_j; D, θ)` for every assertion.

    Computed in log space with a stable log-sum-exp normalisation.
    """
    columns = _pair_columns(problem.claims.values, problem.dependency.values, params)
    return posterior_and_log_likelihood(columns, params.z)[0]


def data_log_likelihood(problem: SensingProblem, params: SourceParameters) -> float:
    """Observed-data log likelihood :math:`\\mathcal{L}` (Equation 7).

    The sum over assertions of
    :math:`\\log \\sum_{C_j∈\\{0,1\\}} P(SC_j|C_j; D, θ) P(C_j; θ)`.
    """
    columns = _pair_columns(problem.claims.values, problem.dependency.values, params)
    return posterior_and_log_likelihood(columns, params.z)[1]


def _log_prior(z: Union[float, np.ndarray]) -> Tuple[Any, Any]:
    """``(log z, log(1 - z))`` to add to ``(…, m)`` per-column log likelihoods.

    ``z`` is one prior, or an ``(L,)`` array of one prior per lane (the
    logs then come back as ``(L, 1)`` columns).  ``log1p(-z)`` keeps the
    complement exact (``log(1 - z)`` would round ``1 - z`` first), and
    both logs are NumPy's, whose bits the ``math`` module does not
    always match.
    """
    if isinstance(z, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(z)[:, None], np.log1p(np.negative(z))[:, None]
    return (
        np.log(z) if z != 0.0 else -np.inf,
        np.log1p(-z) if z != 1.0 else -np.inf,
    )


def posterior_and_log_likelihood(
    columns: np.ndarray, z: Union[float, np.ndarray]
) -> Tuple[np.ndarray, Union[float, np.ndarray]]:
    """Equation (9) posterior and Equation (7) log likelihood in one pass.

    ``columns`` holds ``[log P(SC_j | C_j = 1), log P(SC_j | C_j = 0)]``
    per column, ``(m, 2)`` or ``(L, m, 2)`` for ``L`` lanes with one
    prior each in ``z``.  Both quantities share the peak-normalised
    exponentials of one log-sum-exp.  Returns the ``(…, m)`` posterior
    and the log likelihood: a float, or ``(L,)`` per lane.

    A column whose two joints are both ``-inf`` (``z`` of 0 or 1 meeting
    a pattern of probability 0) or NaN gets the uninformative posterior
    0.5 and adds ``-inf`` (or NaN) to the log likelihood.
    """
    log_z, log_1z = _log_prior(z)
    joint_true = columns[..., 0] + log_z
    joint_false = columns[..., 1] + log_1z
    top = np.maximum(joint_true, joint_false)
    if math.isfinite(top.sum()):
        # Hot path (every EM iteration lands here): each column has a
        # finite joint, so the log-sum-exp needs no guard.
        joint_true -= top
        joint_false -= top
        exp_true = np.exp(joint_true, out=joint_true)
        total = exp_true + np.exp(joint_false, out=joint_false)
        posterior = exp_true / total
        column_ll = np.log(total, out=total)
        column_ll += top
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            finite = np.isfinite(top)
            top = np.where(finite, top, 0.0)
            exp_true = np.exp(joint_true - top)
            total = exp_true + np.exp(joint_false - top)
            posterior = np.where(finite, exp_true / total, 0.5)
            column_ll = top + np.log(total)
    log_likelihood = column_ll.sum(axis=-1)
    if log_likelihood.ndim:
        return posterior, log_likelihood
    return posterior, float(log_likelihood)


__all__ = [
    "column_log_likelihoods",
    "data_log_likelihood",
    "emission_probability",
    "pattern_log_joint",
    "posterior_and_log_likelihood",
    "posterior_truth",
]
