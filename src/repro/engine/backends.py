"""Interchangeable computation backends for the estimation engine.

A backend owns one representation of the source-claim data and exposes
the operations the :class:`~repro.engine.driver.EMDriver` and the
initialisation strategies need:

======================  ===================================================
``m_step``              Equations 10–14 via :func:`~repro.engine.statistics.ratio_update`
``e_step``              Equation 9 posterior + observed-data log likelihood
``posterior``           Equation 9 posterior only
``support_counts``      per-assertion independent-claim support
``independent_m_step``  the nested independence model over the
``independent_e_step``  independent cells (staged initialisation, EM and
                        EM-Social)
``neutral`` /           parameter construction for warm starts and
``random_params``       random restarts
======================  ===================================================

Two backends cover the storage formats: :class:`DenseBackend` (ndarray)
and :class:`CSRBackend` (scipy sparse, touching only stored entries).
Dense and CSR produce the same fixed points; they differ only in float
summation order.  :class:`MaskedDenseBackend` is a thin adapter that
runs the dense independence model for the EM / EM-Social baselines.

Every M-step takes its rates from one count block: each storage format
has one count method, which builds a ``(k, n)`` numerator and
denominator block with one row per rate (``[a, b, f, g]``, or the first
two rows ``[t, b]`` for the independence model).  One
:func:`~repro.engine.statistics.ratio_update`, one in-place clamp and,
in the driver, one convergence delta cover every rate
(:meth:`SourceParameters._from_rates`).  An EM iteration at paper sizes
costs NumPy call overhead, not arithmetic, so the dense backend builds
its masked claim products (``SC⊙(1-D)``, ``SC⊙D``) once at construction
instead of once per M-step.

An E-step takes the rate logs once into a truth-pair table (see
:mod:`repro.kernels.tables`), gathers both truth values of every cell
with one ``take`` of the backend's ``(n, m)`` cell codes, and derives
the posterior and the log likelihood from one log-sum-exp
(:func:`~repro.core.likelihood.posterior_and_log_likelihood`).  The
dense model and the independence model share the codes ``2·D + SC``:
the independence table gives the ``D = 1`` (missing) cells an exact
``0.0``.  Unlike the bounds, the backends do not group identical
columns: EM problems almost never repeat an ``(SC, D)`` column, and
NumPy sums a one-column ``(n, 1)`` block in a different order from an
``(n, m)`` one, so a grouped E-step would not keep the lanes' bits.

Every step is an exact selection or an elementwise reuse of the same
floating-point operations in the same order, so the backends stay bit
for bit with the pre-kernel implementations (pinned by the parity
suites).  Selection also covers unclamped rates of exactly 0 or 1,
which give the Equation (4)/(5) value with no fallback path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

import numpy as np

from repro.core.likelihood import posterior_and_log_likelihood
from repro.core.model import (
    DEFAULT_EPSILON,
    SourceParameters,
    clip_probability,
    clip_rates,
)
from repro.engine.statistics import ratio_update
from repro.kernels.likelihood import flat_claim_codes, pair_column_log_likelihoods
from repro.kernels.tables import pair_table
from repro.utils.errors import ValidationError
from repro.utils.validation import check_binary, check_probability

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.data.csr import CsrProblem
    from repro.data.dense import DenseProblem
    from repro.data.protocol import Problem

#: A ``(numerators, denominators)`` pair of ``(k, n)`` count blocks.
_Counts = Tuple[np.ndarray, np.ndarray]


def _matvec(matrix: Any, vector: np.ndarray) -> np.ndarray:
    """A sparse (or dense) matrix–vector product as a 1-D array."""
    return np.asarray(matrix @ vector).ravel()


def _prior_update(posterior: np.ndarray, previous: Any) -> float:
    """Equation 14's ``z``: the posterior mean (sum/size, minus ``np.mean``'s dispatch)."""
    return float(posterior.sum()) / posterior.size if posterior.size else previous.z


def _check_rates_finite(*rates: np.ndarray) -> None:
    """Reject NaN rate updates (poisoned inputs) with one aggregate probe.

    M-step ratios are posterior-mass fractions in ``[0, 1]``, so a NaN
    can only come from NaN claims; summing every rate and testing once
    is an order of magnitude cheaper than per-array validation on this
    per-iteration path.
    """
    total = 0.0
    for rate in rates:
        total += float(rate.sum())
    if math.isnan(total):
        raise ValidationError(
            "M-step produced non-finite rates; the claim matrix "
            "likely contains NaN or infinite entries"
        )


def _dependency_parameters(
    rates: np.ndarray, z: float, epsilon: float
) -> SourceParameters:
    """Guard and clamp a dependency-model M-step's ``(4, n)`` rate block in place.

    One NaN probe over the block plus the scalar ``z`` check replace
    per-array validation; the clamp then re-clips everything anyway.
    """
    _check_rates_finite(rates)
    check_probability(z, "z")
    return SourceParameters._from_rates(
        clip_rates(rates, epsilon, out=rates), clip_probability(z, epsilon)
    )


@dataclass(frozen=True)
class IndependentParameters:
    """θ of the two-parameter independence model: per-source (t, b) and prior z."""

    t: np.ndarray
    b: np.ndarray
    z: float

    @classmethod
    def _from_rates(cls, rates: np.ndarray, z: float) -> "IndependentParameters":
        """Adopt a fresh ``(2, n)`` ``[t, b]`` rate block (rows become ``t``, ``b``)."""
        self = object.__new__(cls)
        self.__dict__.update(t=rates[0], b=rates[1], z=z, _rates=rates)
        return self

    def _rate_block(self) -> np.ndarray:
        """The ``(2, n)`` ``[t, b]`` block, stacked if not built from one."""
        rates = self.__dict__.get("_rates")
        return np.array((self.t, self.b)) if rates is None else rates

    def clamp(self, epsilon: float = DEFAULT_EPSILON) -> "IndependentParameters":
        """Push every probability into ``[ε, 1-ε]``."""
        return IndependentParameters._from_rates(
            clip_rates(self._rate_block(), epsilon),
            clip_probability(self.z, epsilon),
        )

    def max_difference(self, other: "IndependentParameters") -> float:
        """Largest absolute parameter change (convergence criterion)."""
        delta = abs(self.z - other.z)
        if not self.t.size:
            return delta
        rates = float(np.abs(self._rate_block() - other._rate_block()).max())
        return max(delta, rates)


class _PartitionBackend:
    """The steps both storage formats share, over their one count method.

    A subclass supplies ``_counts`` (the ``(k, n)`` count blocks of the
    first ``k`` rates of ``[a, b, f, g]``), ``_columns`` and
    ``_independent_columns`` (``(m, 2)`` column log likelihoods of the
    two models), ``sc_indep`` (the independent claims, of the problem's
    shape) and the smoothing and epsilon settings.
    """

    smoothing: float
    epsilon: float
    sc_indep: Any
    #: Clip each dependency-model ratio into ``[0, 1]`` before the clamp.
    _clip_ratio = False

    def _counts(self, posterior: np.ndarray, rows: int) -> _Counts:
        raise NotImplementedError

    def _columns(self, params: SourceParameters) -> np.ndarray:
        raise NotImplementedError

    def _independent_columns(self, params: IndependentParameters) -> np.ndarray:
        raise NotImplementedError

    @property
    def n_sources(self) -> int:
        return int(self.sc_indep.shape[0])

    @property
    def n_assertions(self) -> int:
        return int(self.sc_indep.shape[1])

    # -- parameter construction --------------------------------------------------

    def neutral(self) -> SourceParameters:
        """The symmetry-breaking neutral start shared by all warm starts."""
        return SourceParameters.from_scalars(
            self.n_sources, a=0.55, b=0.45, f=0.55, g=0.45, z=0.5
        )

    # -- EM steps ----------------------------------------------------------------

    def m_step(
        self, posterior: np.ndarray, previous: SourceParameters
    ) -> SourceParameters:
        """Equations (10)–(14), vectorised.

        For each source ``i`` the updates are ratios of posterior mass
        over the four cell partitions; e.g. Equation (10):

        .. math::
            a_i = \\frac{\\sum_{j: SC_{ij}=1, D_{ij}=0} Z_j}
                        {\\sum_{j: D_{ij}=0} Z_j}

        The denominator runs over the union
        :math:`S_iC_1^{D_0} \\cup S_iC_0^{D_0}` — all independent cells.
        The four ratios are one ``(4, n)`` ``[a, b, f, g]`` block.
        """
        rates = ratio_update(
            *self._counts(posterior, 4),
            smoothing=self.smoothing,
            fallback=previous._rate_block(),
            clip_ratio=self._clip_ratio,
        )
        return _dependency_parameters(
            rates, _prior_update(posterior, previous), self.epsilon
        )

    def posterior(self, params: SourceParameters) -> np.ndarray:
        """Equation (9) truth posterior for every assertion."""
        return posterior_and_log_likelihood(self._columns(params), params.z)[0]

    def e_step(
        self, params: SourceParameters
    ) -> Tuple[np.ndarray, float]:
        """Posterior plus the observed-data log likelihood (Equation 7)."""
        return posterior_and_log_likelihood(self._columns(params), params.z)

    # -- nested independence model over independent cells ---------------------------

    def independent_m_step(
        self, posterior: np.ndarray, previous: IndependentParameters
    ) -> IndependentParameters:
        """Equations (10)/(11) of the independence model over the independent cells.

        The counts are the first two rows of the dependency model's
        block, so ``t`` and ``b`` are its ``a`` and ``b`` ratios: one
        ``(2, n)`` ``[t, b]`` block, clamped in place.
        """
        rates = ratio_update(
            *self._counts(posterior, 2),
            smoothing=self.smoothing,
            fallback=previous._rate_block(),
        )
        return IndependentParameters._from_rates(
            clip_rates(rates, self.epsilon, out=rates),
            clip_probability(_prior_update(posterior, previous), self.epsilon),
        )

    def independent_e_step(
        self, params: IndependentParameters
    ) -> Tuple[np.ndarray, float]:
        """Posterior and Equation (7) total of the independence model.

        The dependent cells are missing: they add nothing to either
        column log likelihood.
        """
        return posterior_and_log_likelihood(
            self._independent_columns(params), params.z
        )


class DenseBackend(_PartitionBackend):
    """Dense ndarray backend: the dependency-aware model and, over the same
    cells, the independence model of its independent cells."""

    def __init__(
        self,
        problem: "DenseProblem",
        *,
        smoothing: float = 0.0,
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        self.problem: Optional["DenseProblem"] = problem
        dep = np.asarray(problem.dependency.values, dtype=np.float64)
        self._set_cells(problem.claims.values, 1.0 - dep, smoothing, epsilon)
        # The dependent partition, which only the dependency model reads.
        self.dep = dep
        self.sc_dep = self.sc * dep

    @classmethod
    def _independent_model(
        cls, sc: np.ndarray, kept: np.ndarray, *, smoothing: float, epsilon: float
    ) -> "DenseBackend":
        """The independence model alone, over the cells a 0/1 ``kept`` mask marks.

        A backend with no problem container and no dependent partition:
        only the independence model's steps and :meth:`support_counts`
        run on it.
        """
        backend = cls.__new__(cls)
        backend.problem = None
        backend._set_cells(sc, np.array(kept, dtype=np.float64), smoothing, epsilon)
        return backend

    def _set_cells(
        self, sc: np.ndarray, indep: np.ndarray, smoothing: float, epsilon: float
    ) -> None:
        """Adopt float64 ``SC`` and ``indep``, the independent cells' 0/1
        mask, and build what both models read."""
        self.smoothing = smoothing
        self.epsilon = epsilon
        self.sc = np.asarray(sc, dtype=np.float64)
        self.indep = indep
        # Masked claim product, built once instead of once per M-step.
        self.sc_indep = self.sc * indep
        # Flat pair-table rows (4·source + 2·D + SC): both models' gathers.
        self._codes = flat_claim_codes(self.sc != 0, indep == 0)

    # -- parameter construction --------------------------------------------------

    def random_params(self, rng: np.random.Generator) -> SourceParameters:
        """A random informative draw (the paper's random initialisation)."""
        return SourceParameters.random(self.n_sources, rng).clamp(self.epsilon)

    # -- EM steps ----------------------------------------------------------------

    def support_counts(self) -> np.ndarray:
        """Per-assertion count of *independent* supporting claims."""
        return self.sc_indep.sum(axis=0)

    def _counts(self, posterior: np.ndarray, rows: int) -> _Counts:
        """``(rows, n)`` claim-mass and cell-mass blocks, rows ``[a, b, f, g][:rows]``."""
        y_post = 1.0 - posterior  # Y_j = P(C_j = 0 | ·); posterior is Z_j
        claims = [self.sc_indep @ posterior, self.sc_indep @ y_post]
        cells = [self.indep @ posterior, self.indep @ y_post]
        if rows == 4:
            claims += (self.sc_dep @ posterior, self.sc_dep @ y_post)
            cells += (self.dep @ posterior, self.dep @ y_post)
        return np.array(claims), np.array(cells)

    def partition_counts(self, posterior: np.ndarray) -> _Counts:
        """The ``(4, n)`` numerator and denominator blocks :meth:`m_step` divides.

        The streaming estimator accumulates these into its decayed
        :class:`~repro.engine.statistics.SufficientStatistics`.
        """
        return self._counts(posterior, 4)

    def _columns(self, params: Any) -> np.ndarray:
        """``(m, 2)`` Equations (4)/(5) log likelihoods of every column.

        ``params`` carries a ``(4, n)`` or an independence ``(2, n)``
        rate block: the latter's table gathers ``0.0`` for the
        dependent cells, so one gather serves both models.
        """
        return pair_column_log_likelihoods(
            self._codes, pair_table(params._rate_block())
        )

    _independent_columns = _columns


class CSRBackend(_PartitionBackend):
    """Sparse (CSR) backend: every E- and M-step quantity is a sparse mat-vec.

    E-step decomposition (per assertion column ``j``, truth value true):

    .. math::
        \\log P(SC_j | C_j = 1) = \\underbrace{\\sum_i \\log(1 - a_i)}_{base}
            + \\sum_{i: D_{ij}=1} \\big(\\log(1-f_i) - \\log(1-a_i)\\big)
            + \\sum_{i: SC_{ij}=1, D_{ij}=0} \\big(\\log a_i - \\log(1-a_i)\\big)
            + \\sum_{i: SC_{ij}=1, D_{ij}=1} \\big(\\log f_i - \\log(1-f_i)\\big)

    i.e. one scalar plus three sparse-matrix transpose products.  The
    false-branch term is identical with ``(b, g)``.  M-step ratios
    become, e.g.

    .. math::
        a_i = \\frac{(SC \\odot (1-D))\\, Z}{(\\mathbf{1} - D)\\, Z}
            = \\frac{(SC - SC \\odot D)\\, Z}{\\sum_j Z_j - D\\, Z}

    which again touch only stored entries.  The two ``D @ weight``
    products are computed once per M-step (they feed two ratios each)
    and the log table once per θ.
    """

    _clip_ratio = True

    def __init__(
        self,
        problem: "CsrProblem",
        *,
        smoothing: float = 0.0,
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        self.problem = problem
        self.smoothing = smoothing
        self.epsilon = epsilon
        # The problem stores int8 data; the BLAS boundary is here — all
        # mat-vec products below run in float64, exactly as they did
        # when the container itself stored float64 (values are 0/1, so
        # the cast is exact and the fixed points bit-identical).
        sc = problem.claims.astype(np.float64)
        self.dep = problem.dependency.astype(np.float64)
        self.sc_dep = sc.multiply(self.dep).tocsr()  # dependent claims
        self.sc_indep = (sc - self.sc_dep).tocsr()  # independent claims
        # Sources whose every cell is dependent: their subtracted
        # independent-cell mass is a rounding residue, not 0.
        self._all_dependent = (
            np.asarray(self.dep.sum(axis=1)).ravel() == self.dep.shape[1]
        )

    # -- parameter construction --------------------------------------------------

    def random_params(self, rng: np.random.Generator) -> SourceParameters:
        raise ValidationError(
            "the CSR backend does not support random initialisation"
        )

    # -- EM steps ----------------------------------------------------------------

    def support_counts(self) -> np.ndarray:
        return np.asarray(self.sc_indep.sum(axis=0)).ravel()

    def _independent_mass(self, total: float, dependent: np.ndarray) -> np.ndarray:
        """Each source's weight over its independent cells, ``Σ_j w_j − (D w)_i``.

        Exactly 0 for a source with no independent cell, so its ratio
        keeps the fallback as the dense backend's does.
        """
        mass = total - dependent
        mass[self._all_dependent] = 0.0
        return mass

    def _counts(self, posterior: np.ndarray, rows: int) -> _Counts:
        """``(rows, n)`` count blocks; each ``D @ weight`` feeds two rows."""
        weights = (posterior, 1.0 - posterior)
        dependent = [_matvec(self.dep, w) for w in weights]
        numerators = [_matvec(self.sc_indep, w) for w in weights]
        denominators = [
            self._independent_mass(float(w.sum()), mass)
            for w, mass in zip(weights, dependent)
        ]
        if rows == 4:
            numerators += [_matvec(self.sc_dep, w) for w in weights]
            denominators += dependent
        return np.array(numerators), np.array(denominators)

    def _columns(self, params: SourceParameters) -> np.ndarray:
        """``(m, 2)`` column log likelihoods: a base plus three corrections each."""
        # (n, code, truth) view of the pair table: code 0 silent
        # independent, 1 independent claim, 2 silent dependent, 3
        # dependent claim.
        logs = pair_table(params._rate_block()).reshape(-1, 4, 2)
        dep_t = self.dep.T
        indep_t = self.sc_indep.T
        dep_claims_t = self.sc_dep.T
        return np.stack(
            [
                float(logs[:, 0, truth].sum())
                + _matvec(dep_t, logs[:, 2, truth] - logs[:, 0, truth])
                + _matvec(indep_t, logs[:, 1, truth] - logs[:, 0, truth])
                + _matvec(dep_claims_t, logs[:, 3, truth] - logs[:, 2, truth])
                for truth in (0, 1)
            ],
            axis=-1,
        )

    def _independent_columns(self, params: IndependentParameters) -> np.ndarray:
        """``(m, 2)``: the base over all sources, less the dependent cells, plus claims."""
        logs = pair_table(params._rate_block()).reshape(-1, 4, 2)
        dep_t = self.dep.T
        sc_t = self.sc_indep.T
        return np.stack(
            [
                float(logs[:, 0, truth].sum())
                - _matvec(dep_t, logs[:, 0, truth])
                + _matvec(sc_t, logs[:, 1, truth] - logs[:, 0, truth])
                for truth in (0, 1)
            ],
            axis=-1,
        )


class MaskedDenseBackend:
    """The two-parameter independence model over the cells a 0/1 mask keeps.

    Masked cells contribute to neither the likelihood nor the M-step
    counts — they are treated as *missing*, not as non-claims.  This is
    :class:`DenseBackend`'s independence model over the cells of
    ``(SC, D′ = 1 − mask)``: the EM (IPSN 2012) baseline passes an
    all-ones mask and EM-Social (IPSN 2014) passes ``1 − D``.  The
    dense backend builds only what that model reads: the kept claims
    and cells and the codes.  It stays a class of its own because
    ``bench/layers.py`` times its two steps as the ``engine.masked.step``
    layer.

    Parameters are :class:`IndependentParameters` (per-source ``t, b``
    plus the prior ``z``), not the full
    :class:`~repro.core.model.SourceParameters`.
    """

    def __init__(
        self,
        sc: np.ndarray,
        mask: np.ndarray,
        *,
        smoothing: float = 0.0,
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        if np.shape(mask) != np.shape(sc):
            raise ValidationError(
                f"mask shape {np.shape(mask)} does not match claims {np.shape(sc)}"
            )
        self.epsilon = epsilon
        self._cells = DenseBackend._independent_model(
            sc, check_binary(mask, "mask"), smoothing=smoothing, epsilon=epsilon
        )

    @property
    def n_sources(self) -> int:
        return self._cells.n_sources

    @property
    def n_assertions(self) -> int:
        return self._cells.n_assertions

    # -- parameter construction --------------------------------------------------

    def neutral(self) -> IndependentParameters:
        return IndependentParameters(
            t=np.full(self.n_sources, 0.55),
            b=np.full(self.n_sources, 0.45),
            z=0.5,
        )

    def random_params(self, rng: np.random.Generator) -> IndependentParameters:
        return IndependentParameters(
            t=rng.uniform(0.4, 0.8, size=self.n_sources),
            b=rng.uniform(0.05, 0.35, size=self.n_sources),
            z=float(rng.uniform(0.3, 0.7)),
        ).clamp(self.epsilon)

    # -- EM steps ----------------------------------------------------------------

    def support_counts(self) -> np.ndarray:
        return self._cells.support_counts()

    def m_step(
        self, posterior: np.ndarray, previous: IndependentParameters
    ) -> IndependentParameters:
        return self._cells.independent_m_step(posterior, previous)

    def posterior(self, params: IndependentParameters) -> np.ndarray:
        return self._cells.independent_e_step(params)[0]

    def e_step(self, params: IndependentParameters) -> Tuple[np.ndarray, float]:
        return self._cells.independent_e_step(params)


def make_backend(
    problem: "Problem",
    *,
    smoothing: float = 0.0,
    epsilon: float = DEFAULT_EPSILON,
) -> Union[DenseBackend, CSRBackend]:
    """The backend matching ``problem``'s storage format.

    The input's format — not the caller's class choice — picks the
    computation backend: a :class:`~repro.data.DenseProblem` gets
    :class:`DenseBackend`, a :class:`~repro.data.CsrProblem` gets
    :class:`CSRBackend`.  Anything else is rejected the same way
    :func:`repro.data.coerce_problem` rejects it.
    """
    from repro.data.coerce import _is_problem
    from repro.data.protocol import FORMAT_CSR

    if not _is_problem(problem):
        raise ValidationError(
            "expected a sensing problem (DenseProblem or CsrProblem), got "
            f"{type(problem).__name__}"
        )
    if problem.format == FORMAT_CSR:
        return CSRBackend(problem, smoothing=smoothing, epsilon=epsilon)  # type: ignore[arg-type]
    return DenseBackend(problem, smoothing=smoothing, epsilon=epsilon)  # type: ignore[arg-type]


__all__ = [
    "CSRBackend",
    "DenseBackend",
    "IndependentParameters",
    "MaskedDenseBackend",
    "make_backend",
]
