"""Interchangeable computation backends for the estimation engine.

A backend owns one representation of the source-claim data and exposes
the operations the :class:`~repro.engine.driver.EMDriver` and the
initialisation strategies need:

=====================  ====================================================
``m_step``             Equations 10–14 via :func:`~repro.engine.statistics.ratio_update`
``e_step``             Equation 9 posterior + observed-data log likelihood
``posterior``          Equation 9 posterior only
``support_counts``     per-assertion independent-claim support
``masked_rate`` /      the nested independence model over unmasked cells
``masked_log_likelihoods``  (stage one of the staged initialisation)
``neutral`` /          parameter construction for warm starts and
``random_params``      random restarts
=====================  ====================================================

Three backends cover the library: :class:`DenseBackend` (ndarray),
:class:`CSRBackend` (scipy sparse, touching only stored entries) and
:class:`MaskedDenseBackend` (the two-parameter independence model used
by the EM / EM-Social baselines).  Dense and CSR produce the same
fixed points; they differ only in float summation order.

An EM iteration at paper sizes costs NumPy call overhead, not
arithmetic, so the dense backends keep their call count low:

* masked claim products (``SC⊙(1-D)``, ``SC⊙D``, ``SC⊙mask``) are
  precomputed once at construction instead of once per M-step;
* an M-step stacks its rates in one ``(4, n)`` (or ``(2, n)``) block:
  one masked divide, one clamp and, in the driver, one convergence
  delta cover every rate (:meth:`SourceParameters._from_rates`);
* an E-step takes the rate logs once into a truth-pair table (see
  :mod:`repro.kernels.tables`), gathers both truth values of every cell
  with one ``take`` of the backend's ``(n, m)`` cell codes, and derives
  the posterior and the log likelihood from one log-sum-exp
  (:func:`~repro.core.likelihood.posterior_and_log_likelihood`).  The
  dense model and the independence model share the codes ``2·D + SC``:
  the independence table gives the ``D = 1`` (missing) cells an exact
  ``0.0``.  Unlike the bounds, the backends do not group identical
  columns: EM problems almost never repeat an ``(SC, D)`` column, and
  NumPy sums a one-column ``(n, 1)`` block in a different order from
  an ``(n, m)`` one, so a grouped E-step would not keep the lanes'
  bits.

Every step is an exact selection or an elementwise reuse of the same
floating-point operations in the same order, so the backends stay bit
for bit with the pre-kernel implementations (pinned by the parity
suites).  Selection also covers unclamped rates of exactly 0 or 1,
which give the Equation (4)/(5) value with no fallback path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Tuple, Union

import numpy as np

from repro.core.likelihood import posterior_and_log_likelihood
from repro.core.matrix import SensingProblem
from repro.core.model import (
    DEFAULT_EPSILON,
    SourceParameters,
    clip_probability,
    clip_rates,
)
from repro.engine.statistics import CountMap, ratio_update
from repro.kernels.likelihood import flat_claim_codes, pair_column_log_likelihoods
from repro.kernels.tables import pair_table
from repro.utils.errors import ValidationError
from repro.utils.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.data.csr import CsrProblem
    from repro.data.protocol import Problem


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


class DenseBackend:
    """Dense ndarray backend for the dependency-aware model."""

    def __init__(
        self,
        problem: SensingProblem,
        *,
        smoothing: float = 0.0,
        epsilon: float = DEFAULT_EPSILON,
    ) -> None:
        self.problem = problem
        self.smoothing = smoothing
        self.epsilon = epsilon
        self.sc = problem.claims.values.astype(np.float64)
        self.dep = problem.dependency.values.astype(np.float64)
        self.indep = 1.0 - self.dep
        # Masked claim products, built once instead of once per M-step.
        self.sc_indep = self.sc * self.indep
        self.sc_dep = self.sc * self.dep
        # Flat pair-table rows (4·source + 2·D + SC): both models' gathers.
        self._codes = flat_claim_codes(self.sc != 0, self.dep != 0)

    @property
    def n_sources(self) -> int:
        return self.sc.shape[0]

    @property
    def n_assertions(self) -> int:
        return self.sc.shape[1]

    # -- parameter construction --------------------------------------------------

    def neutral(self) -> SourceParameters:
        """The symmetry-breaking neutral start shared by all warm starts."""
        return SourceParameters.from_scalars(
            self.n_sources, a=0.55, b=0.45, f=0.55, g=0.45, z=0.5
        )

    def random_params(self, rng: np.random.Generator) -> SourceParameters:
        """A random informative draw (the paper's random initialisation)."""
        return SourceParameters.random(self.n_sources, rng).clamp(self.epsilon)

    # -- EM steps ----------------------------------------------------------------

    def support_counts(self) -> np.ndarray:
        """Per-assertion count of *independent* supporting claims."""
        return self.sc_indep.sum(axis=0)

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
        z_post = posterior  # Z_j = P(C_j = 1 | ·)
        y_post = 1.0 - posterior  # Y_j = P(C_j = 0 | ·)
        rates = ratio_update(
            np.array(
                (
                    self.sc_indep @ z_post,
                    self.sc_indep @ y_post,
                    self.sc_dep @ z_post,
                    self.sc_dep @ y_post,
                )
            ),
            np.array(
                (
                    self.indep @ z_post,
                    self.indep @ y_post,
                    self.dep @ z_post,
                    self.dep @ y_post,
                )
            ),
            smoothing=self.smoothing,
            fallback=previous._rate_block(),
        )
        return _dependency_parameters(
            rates, _prior_update(posterior, previous), self.epsilon
        )

    def _columns(self, params: SourceParameters) -> np.ndarray:
        """``(m, 2)`` Equations (4)/(5) log likelihoods of every column."""
        return pair_column_log_likelihoods(
            self._codes, pair_table(params._rate_block())
        )

    def posterior(self, params: SourceParameters) -> np.ndarray:
        """Equation (9) truth posterior for every assertion."""
        return posterior_and_log_likelihood(self._columns(params), params.z)[0]

    def e_step(
        self, params: SourceParameters
    ) -> Tuple[np.ndarray, float]:
        """Posterior plus the observed-data log likelihood (Equation 7)."""
        return posterior_and_log_likelihood(self._columns(params), params.z)

    def partition_counts(
        self, posterior: np.ndarray
    ) -> Tuple[CountMap, Tuple[float, float]]:
        """Raw (numerator, denominator) counts of the four M-step ratios.

        The streaming estimator accumulates these into its decayed
        :class:`~repro.engine.statistics.SufficientStatistics`.
        """
        y_posterior = 1.0 - posterior
        counts = {
            "a": (self.sc_indep @ posterior, self.indep @ posterior),
            "f": (self.sc_dep @ posterior, self.dep @ posterior),
            "b": (self.sc_indep @ y_posterior, self.indep @ y_posterior),
            "g": (self.sc_dep @ y_posterior, self.dep @ y_posterior),
        }
        return counts, (float(posterior.sum()), float(posterior.size))

    # -- nested independence model over independent cells (staged init) ----------

    def masked_rate(self, weight: np.ndarray, previous: np.ndarray) -> np.ndarray:
        """One independence-model rate over independent cells only."""
        ratio = ratio_update(
            self.sc_indep @ weight,
            self.indep @ weight,
            smoothing=self.smoothing,
            fallback=previous,
        )
        return clip_rates(ratio, self.epsilon, out=ratio)

    def masked_log_likelihoods(
        self, t_rate: np.ndarray, b_rate: np.ndarray
    ) -> np.ndarray:
        """Independence-model column log likelihoods over independent cells.

        Returns ``(2, m)``: row 0 given a true assertion, row 1 given a
        false one.  The dependent cells are missing: the independence
        table gathers an exact ``0.0`` for codes 2 and 3.
        """
        return pair_column_log_likelihoods(
            self._codes, pair_table(np.array((t_rate, b_rate)))
        ).T


class CSRBackend:
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

    @property
    def n_sources(self) -> int:
        return self.dep.shape[0]

    @property
    def n_assertions(self) -> int:
        return self.dep.shape[1]

    # -- parameter construction --------------------------------------------------

    def neutral(self) -> SourceParameters:
        return SourceParameters.from_scalars(
            self.n_sources, a=0.55, b=0.45, f=0.55, g=0.45, z=0.5
        )

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

    def m_step(
        self, posterior: np.ndarray, previous: SourceParameters
    ) -> SourceParameters:
        z_mass = posterior
        y_mass = 1.0 - posterior
        # Each D @ weight feeds two ratios; compute them once.
        dep_z = _matvec(self.dep, z_mass)
        dep_y = _matvec(self.dep, y_mass)
        rates = ratio_update(
            np.array(
                (
                    _matvec(self.sc_indep, z_mass),
                    _matvec(self.sc_indep, y_mass),
                    _matvec(self.sc_dep, z_mass),
                    _matvec(self.sc_dep, y_mass),
                )
            ),
            np.array(
                (
                    self._independent_mass(float(z_mass.sum()), dep_z),
                    self._independent_mass(float(y_mass.sum()), dep_y),
                    dep_z,
                    dep_y,
                )
            ),
            smoothing=self.smoothing,
            fallback=previous._rate_block(),
            clip_ratio=True,
        )
        return _dependency_parameters(
            rates, _prior_update(posterior, previous), self.epsilon
        )

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

    def posterior(self, params: SourceParameters) -> np.ndarray:
        return posterior_and_log_likelihood(self._columns(params), params.z)[0]

    def e_step(
        self, params: SourceParameters
    ) -> Tuple[np.ndarray, float]:
        return posterior_and_log_likelihood(self._columns(params), params.z)

    # -- nested independence model over independent cells (staged init) ----------

    def masked_rate(self, weight: np.ndarray, previous: np.ndarray) -> np.ndarray:
        ratio = ratio_update(
            _matvec(self.sc_indep, weight),
            self._independent_mass(float(weight.sum()), _matvec(self.dep, weight)),
            smoothing=self.smoothing,
            fallback=previous,
        )
        return clip_rates(ratio, self.epsilon, out=ratio)

    def masked_log_likelihoods(
        self, t_rate: np.ndarray, b_rate: np.ndarray
    ) -> np.ndarray:
        """``(2, m)``: the base over all sources, less the dependent cells, plus claims."""
        logs = pair_table(np.array((t_rate, b_rate))).reshape(-1, 4, 2)
        dep_t = self.dep.T
        sc_t = self.sc_indep.T
        return np.array(
            [
                float(logs[:, 0, truth].sum())
                - _matvec(dep_t, logs[:, 0, truth])
                + _matvec(sc_t, logs[:, 1, truth] - logs[:, 0, truth])
                for truth in (0, 1)
            ]
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


class MaskedDenseBackend:
    """Dense backend for the two-parameter independence model.

    Masked cells contribute to neither the likelihood nor the M-step
    counts — they are treated as *missing*, not as non-claims.  The
    EM (IPSN 2012) baseline is the special case of an all-ones mask;
    EM-Social (IPSN 2014) masks out every dependent cell, and then its
    cell codes ``2·(1 - mask) + SC`` are :class:`DenseBackend`'s.

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
        if mask.shape != sc.shape:
            raise ValidationError(
                f"mask shape {mask.shape} does not match claims {sc.shape}"
            )
        self.sc = sc
        self.mask = mask
        self.smoothing = smoothing
        self.epsilon = epsilon
        self.sc_mask = sc * mask
        self._codes = flat_claim_codes(np.asarray(sc) != 0, np.asarray(mask) == 0)

    @property
    def n_sources(self) -> int:
        return self.sc.shape[0]

    @property
    def n_assertions(self) -> int:
        return self.sc.shape[1]

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
        return self.sc_mask.sum(axis=0)

    def m_step(
        self, posterior: np.ndarray, previous: IndependentParameters
    ) -> IndependentParameters:
        """The two rates as one ``(2, n)`` ``[t, b]`` block, clamped in place."""
        z_post = posterior
        y_post = 1.0 - posterior
        rates = ratio_update(
            np.array((self.sc_mask @ z_post, self.sc_mask @ y_post)),
            np.array((self.mask @ z_post, self.mask @ y_post)),
            smoothing=self.smoothing,
            fallback=previous._rate_block(),
        )
        return IndependentParameters._from_rates(
            clip_rates(rates, self.epsilon, out=rates),
            clip_probability(_prior_update(posterior, previous), self.epsilon),
        )

    def _columns(self, params: IndependentParameters) -> np.ndarray:
        """``(m, 2)`` log likelihoods of every column over its unmasked cells."""
        return pair_column_log_likelihoods(
            self._codes, pair_table(params._rate_block())
        )

    def posterior(self, params: IndependentParameters) -> np.ndarray:
        return posterior_and_log_likelihood(self._columns(params), params.z)[0]

    def e_step(self, params: IndependentParameters) -> Tuple[np.ndarray, float]:
        return posterior_and_log_likelihood(self._columns(params), params.z)


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
