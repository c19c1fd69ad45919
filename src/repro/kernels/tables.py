"""Log-parameter tables, built once per θ.

θ changes exactly once per EM iteration (at the M-step) while the
E-step's posterior and log likelihood both consume ``log θ`` terms; the
backends build the tables once per E-step and feed both quantities from
one likelihood pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogParameterTables:
    """Per-source log-rate vectors of the dependency-aware model.

    ``finite`` records whether every rate log is finite, i.e. the
    parameters sit strictly inside ``(0, 1)``; the select-based fast
    kernels require that (EM-clamped parameters always satisfy it) and
    callers fall back to the careful legacy path otherwise.
    """

    log_a: np.ndarray
    log_1a: np.ndarray
    log_b: np.ndarray
    log_1b: np.ndarray
    log_f: np.ndarray
    log_1f: np.ndarray
    log_g: np.ndarray
    log_1g: np.ndarray
    log_z: float
    log_1z: float
    #: ``(n, 4)`` gather tables indexed by the cell code ``2·D + SC``
    #: (see :func:`repro.kernels.likelihood.claim_codes`).
    table_true: np.ndarray
    table_false: np.ndarray
    finite: bool

    @classmethod
    def build(cls, params) -> "LogParameterTables":
        """Take all logs of a :class:`~repro.core.model.SourceParameters`.

        The logs are written straight into the ``(n, 4)`` gather tables
        (the per-rate vectors are column views of them) — this build
        runs once per θ but θ changes every EM iteration, so its fixed
        cost is visible on small problems.
        """
        n = params.a.shape[0]
        table_true = np.empty((n, 4))
        table_false = np.empty((n, 4))
        with np.errstate(divide="ignore"):
            np.log1p(np.negative(params.a), out=table_true[:, 0])
            np.log(params.a, out=table_true[:, 1])
            np.log1p(np.negative(params.f), out=table_true[:, 2])
            np.log(params.f, out=table_true[:, 3])
            np.log1p(np.negative(params.b), out=table_false[:, 0])
            np.log(params.b, out=table_false[:, 1])
            np.log1p(np.negative(params.g), out=table_false[:, 2])
            np.log(params.g, out=table_false[:, 3])
            log_z, log_1z = float(np.log(params.z)), float(np.log1p(-params.z))
        # Every entry is the log of a probability, hence in [-inf, 0]:
        # the sums cannot overflow or cancel, so a single non-finite
        # entry (or a NaN) makes the combined sum non-finite.
        finite = bool(np.isfinite(table_true.sum() + table_false.sum()))
        return cls(
            log_a=table_true[:, 1],
            log_1a=table_true[:, 0],
            log_b=table_false[:, 1],
            log_1b=table_false[:, 0],
            log_f=table_true[:, 3],
            log_1f=table_true[:, 2],
            log_g=table_false[:, 3],
            log_1g=table_false[:, 2],
            log_z=log_z,
            log_1z=log_1z,
            table_true=table_true,
            table_false=table_false,
            finite=finite,
        )


@dataclass(frozen=True)
class IndependenceLogTables:
    """Log-rate vectors of the two-parameter independence model."""

    log_t: np.ndarray
    log_1t: np.ndarray
    log_b: np.ndarray
    log_1b: np.ndarray
    #: ``(n, 4)`` gather tables indexed by the cell code ``2·mask + SC``;
    #: masked-out cells (codes 0/1) gather an exact ``0.0``.
    table_true: np.ndarray
    table_false: np.ndarray
    finite: bool

    @classmethod
    def build(cls, t_rate: np.ndarray, b_rate: np.ndarray) -> "IndependenceLogTables":
        n = np.asarray(t_rate).shape[0]
        table_true = np.zeros((n, 4))
        table_false = np.zeros((n, 4))
        with np.errstate(divide="ignore"):
            np.log1p(np.negative(t_rate), out=table_true[:, 2])
            np.log(t_rate, out=table_true[:, 3])
            np.log1p(np.negative(b_rate), out=table_false[:, 2])
            np.log(b_rate, out=table_false[:, 3])
        # Same [-inf, 0] sum probe as LogParameterTables.build.
        finite = bool(np.isfinite(table_true.sum() + table_false.sum()))
        return cls(
            log_t=table_true[:, 3],
            log_1t=table_true[:, 2],
            log_b=table_false[:, 3],
            log_1b=table_false[:, 2],
            table_true=table_true,
            table_false=table_false,
            finite=finite,
        )


@dataclass(frozen=True)
class BatchedLogParameterTables:
    """Per-lane gather tables for stacked parameter lanes.

    The batched twin of :class:`LogParameterTables`: lane ``b``'s
    ``table_true[b] / table_false[b]`` hold bit-for-bit the values
    ``LogParameterTables.build(params.lane(b))`` would produce (the log
    ufuncs are elementwise, so stacking and strided views change
    nothing), and ``finite`` records the per-lane validity of the
    select-based fast kernels so a single degenerate lane sends only
    *itself* down the careful legacy path.

    Both tables share one C-contiguous ``(2, B, n, 4)`` buffer so the
    true and false column log-likelihoods can be gathered by a *single*
    flat ``take`` (see
    :func:`repro.kernels.likelihood.batched_dual_column_log_likelihoods`).
    """

    #: ``(2, B, n, 4)`` C-contiguous buffer: ``[0]`` true, ``[1]`` false.
    tables: np.ndarray
    #: ``(B,)`` per-lane log z / log(1-z).
    log_z: np.ndarray
    log_1z: np.ndarray
    #: ``(B,)`` bool: lane's logs are all finite.
    finite: np.ndarray

    @property
    def table_true(self) -> np.ndarray:
        return self.tables[0]

    @property
    def table_false(self) -> np.ndarray:
        return self.tables[1]

    @classmethod
    def build(cls, params) -> "BatchedLogParameterTables":
        """Take all logs of a stacked parameter set.

        ``params`` needs ``rates`` as a ``(B, n, 4)`` stack with column
        layout ``[a, b, f, g]`` and ``z`` as ``(B,)`` (duck-typed, see
        :class:`repro.engine.batched.BatchedSourceParameters`).  The
        interleaved layout means each gather table is filled by two
        strided ufunc calls over ``(B, n, 2)`` rate slabs instead of
        eight contiguous ones — same elementwise values, a quarter of
        the dispatch.
        """
        rates = params.rates
        n_lanes, n = rates.shape[0], rates.shape[1]
        tables = np.empty((2, n_lanes, n, 4))
        true_rates = rates[:, :, 0::2]  # [a, f]
        false_rates = rates[:, :, 1::2]  # [b, g]
        with np.errstate(divide="ignore"):
            np.log1p(np.negative(true_rates), out=tables[0, :, :, 0::2])
            np.log(true_rates, out=tables[0, :, :, 1::2])
            np.log1p(np.negative(false_rates), out=tables[1, :, :, 0::2])
            np.log(false_rates, out=tables[1, :, :, 1::2])
            log_z = np.log(params.z)
            log_1z = np.log1p(np.negative(params.z))
        # Same [-inf, 0] sum probe as LogParameterTables.build, reduced
        # per lane (finiteness is all that matters, not the sum value).
        finite = np.isfinite(tables.sum(axis=(0, 2, 3)))
        return cls(
            tables=tables,
            log_z=log_z,
            log_1z=log_1z,
            finite=finite,
        )


__all__ = [
    "BatchedLogParameterTables",
    "IndependenceLogTables",
    "LogParameterTables",
]
