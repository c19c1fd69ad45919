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

All three route their hot paths through :mod:`repro.kernels`:

* masked claim products (``SC⊙(1-D)``, ``SC⊙D``, ``SC⊙mask``) are
  precomputed once at construction instead of once per M-step;
* log-parameter tables are built once per θ (see
  :mod:`repro.kernels.tables`) and one likelihood pass feeds both the
  posterior and the log likelihood of an ``e_step``;
* per-column log-likelihoods are computed by the select-based kernels
  of :mod:`repro.kernels.likelihood` over every column.  Unlike the
  bounds, the backends do not group identical columns: EM problems
  almost never repeat an ``(SC, D)`` column, and NumPy sums a
  one-column ``(n, 1)`` block in a different order from an ``(n, m)``
  one, so a grouped E-step would not keep the lanes' bits.

Every transformation is an exact selection or a reordering-free reuse
on the 0/1 matrices, so the backends remain bit-for-bit compatible
with the pre-kernel implementations (pinned by the parity suites).
Degenerate, unclamped parameters (rates exactly 0/1) fall back to the
careful legacy paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple, Union

import numpy as np

from repro.core.likelihood import (
    column_log_likelihoods,
    log_likelihood_from_log_columns,
    posterior_from_log_likelihoods,
)
from repro.core.matrix import SensingProblem
from repro.core.model import DEFAULT_EPSILON, SourceParameters
from repro.engine.statistics import (
    CountMap,
    log_likelihood_from_columns,
    ratio_update,
    stable_posterior,
)
from repro.kernels.likelihood import (
    coded_dense_column_log_likelihoods,
    coded_masked_column_log_likelihoods,
    flat_claim_codes,
)
from repro.kernels.tables import IndependenceLogTables, LogParameterTables
from repro.utils.errors import ValidationError
from repro.utils.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.baselines.em_independent import IndependentParameters
    from repro.data.csr import CsrProblem
    from repro.data.protocol import Problem


def _check_rates_finite(
    a: np.ndarray, b: np.ndarray, f: np.ndarray, g: np.ndarray
) -> None:
    """Reject NaN rate updates (poisoned inputs) with one aggregate probe.

    M-step ratios are finite by construction, so a NaN in any of the
    four vectors can only come from NaN claims; summing all four and
    testing once is an order of magnitude cheaper than per-array
    validation on this per-iteration path.
    """
    if np.isnan(float(a.sum()) + float(b.sum()) + float(f.sum()) + float(g.sum())):
        raise ValidationError(
            "M-step produced non-finite rates; the claim matrix "
            "likely contains NaN or infinite entries"
        )


def _dense_partition_ratio(
    claims: np.ndarray,
    weight: np.ndarray,
    mask: np.ndarray,
    smoothing: float,
    fallback: np.ndarray,
) -> np.ndarray:
    """One dense Equations 10–14 ratio: posterior mass over a cell partition.

    Module-level (rather than a closure in ``m_step``) so the
    per-iteration path does not rebuild four function objects per call;
    the computation is verbatim the historical closure body.  The
    independence model's two ratios over its unmasked cells are the
    same computation, so :class:`MaskedDenseBackend` uses it too.
    """
    return ratio_update(
        claims @ weight,
        mask @ weight,
        smoothing=smoothing,
        fallback=fallback,
    )


def _csr_partition_ratio(
    matrix: Any,
    weight: np.ndarray,
    denominator: np.ndarray,
    smoothing: float,
    fallback: np.ndarray,
) -> np.ndarray:
    """One sparse M-step ratio over a precomputed subtracted denominator.

    The subtracted denominator can undershoot the numerator by float
    rounding; ``clip_ratio`` keeps the update a rate.  Hoisted from
    ``CSRBackend.m_step`` for the same reason as
    :func:`_dense_partition_ratio`.
    """
    numerator = np.asarray(matrix @ weight).ravel()
    return ratio_update(
        numerator,
        denominator,
        smoothing=smoothing,
        fallback=fallback,
        clip_ratio=True,
    )


def _masked_legacy_log_likelihoods(
    sc: np.ndarray, mask: np.ndarray, tables: IndependenceLogTables
) -> Tuple[np.ndarray, np.ndarray]:
    """Independence-model column log likelihoods by multiply-add.

    The careful fallback for non-finite tables (unclamped rates exactly
    0 or 1), where the select-based gather cannot stand in for the
    products: ``mask * (SC·log r + (1-SC)·log(1-r))`` summed per column.
    """
    log_true = mask * (
        sc * tables.log_t[:, None] + (1 - sc) * tables.log_1t[:, None]
    )
    log_false = mask * (
        sc * tables.log_b[:, None] + (1 - sc) * tables.log_1b[:, None]
    )
    return log_true.sum(axis=0), log_false.sum(axis=0)


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
        # Flat gather indices driving the take kernels.
        sc_bool = self.sc != 0
        dep_bool = self.dep != 0
        self._codes = flat_claim_codes(sc_bool, dep_bool)
        self._masked_codes = flat_claim_codes(sc_bool, ~dep_bool)

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
        """
        z_post = posterior  # Z_j = P(C_j = 1 | ·)
        y_post = 1.0 - posterior  # Y_j = P(C_j = 0 | ·)

        s = self.smoothing
        a = _dense_partition_ratio(self.sc_indep, z_post, self.indep, s, previous.a)
        f = _dense_partition_ratio(self.sc_dep, z_post, self.dep, s, previous.f)
        b = _dense_partition_ratio(self.sc_indep, y_post, self.indep, s, previous.b)
        g = _dense_partition_ratio(self.sc_dep, y_post, self.dep, s, previous.g)
        z = (  # sum/size is np.mean's own definition, minus dispatch
            float(z_post.sum()) / z_post.size if z_post.size else previous.z
        )
        # The ratios are posterior-mass fractions in [0, 1] unless the
        # posterior itself was poisoned (NaN claims), so full per-array
        # re-validation is replaced by one aggregate NaN probe plus the
        # scalar z check; clamp re-clips everything anyway.
        _check_rates_finite(a, b, f, g)
        check_probability(z, "z")
        return SourceParameters._trusted(a=a, b=b, f=f, g=g, z=z).clamp(self.epsilon)

    def _column_log_likelihoods(
        self, params: SourceParameters
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-column log likelihoods of the dependency-aware model."""
        tables = LogParameterTables.build(params)
        if not tables.finite:
            # Unclamped degenerate θ: careful legacy path.
            return column_log_likelihoods(self.sc, self.dep, params)
        return coded_dense_column_log_likelihoods(self._codes, tables)

    def posterior(self, params: SourceParameters) -> np.ndarray:
        """Equation (9) truth posterior for every assertion."""
        log_true, log_false = self._column_log_likelihoods(params)
        return posterior_from_log_likelihoods(log_true, log_false, params.z)

    def e_step(
        self, params: SourceParameters
    ) -> Tuple[np.ndarray, float]:
        """Posterior plus the observed-data log likelihood (Equation 7).

        One shared likelihood pass feeds both quantities (historically
        this ran the full pass twice).
        """
        log_true, log_false = self._column_log_likelihoods(params)
        return (
            posterior_from_log_likelihoods(log_true, log_false, params.z),
            log_likelihood_from_log_columns(log_true, log_false, params.z),
        )

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
        # minimum(maximum(·)) is np.clip's own definition without the
        # dispatch overhead — this runs twice per stage-one iteration.
        return np.minimum(np.maximum(ratio, self.epsilon), 1.0 - self.epsilon)

    def masked_log_likelihoods(
        self, t_rate: np.ndarray, b_rate: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Column log likelihoods of the independence model, masked to independent cells."""
        tables = IndependenceLogTables.build(t_rate, b_rate)
        if not tables.finite:
            return _masked_legacy_log_likelihoods(self.sc, self.indep, tables)
        return coded_masked_column_log_likelihoods(self._masked_codes, tables)


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
    and log-parameter tables once per θ.
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
        z_total = float(z_mass.sum())
        y_total = float(y_mass.sum())
        # Each D @ weight feeds two ratios; compute them once.
        dep_z = np.asarray(self.dep @ z_mass).ravel()
        dep_y = np.asarray(self.dep @ y_mass).ravel()

        s = self.smoothing
        indep_z = self._independent_mass(z_total, dep_z)
        indep_y = self._independent_mass(y_total, dep_y)
        a = _csr_partition_ratio(self.sc_indep, z_mass, indep_z, s, previous.a)
        f = _csr_partition_ratio(self.sc_dep, z_mass, dep_z, s, previous.f)
        b = _csr_partition_ratio(self.sc_indep, y_mass, indep_y, s, previous.b)
        g = _csr_partition_ratio(self.sc_dep, y_mass, dep_y, s, previous.g)
        z = (
            float(posterior.sum()) / posterior.size
            if posterior.size
            else previous.z
        )
        # clip_ratio above already forced the updates into [0, 1];
        # as in the dense backend, guard against poisoned posteriors
        # without the full per-array re-validation.
        _check_rates_finite(a, b, f, g)
        check_probability(z, "z")
        return SourceParameters._trusted(a=a, b=b, f=f, g=g, z=z).clamp(self.epsilon)

    def _column_log_likelihoods(
        self, params: SourceParameters
    ) -> Tuple[np.ndarray, np.ndarray]:
        t = LogParameterTables.build(params)
        dep_t = self.dep.T
        indep_t = self.sc_indep.T
        dep_claims_t = self.sc_dep.T
        log_true = (
            float(t.log_1a.sum())
            + np.asarray(dep_t @ (t.log_1f - t.log_1a)).ravel()
            + np.asarray(indep_t @ (t.log_a - t.log_1a)).ravel()
            + np.asarray(dep_claims_t @ (t.log_f - t.log_1f)).ravel()
        )
        log_false = (
            float(t.log_1b.sum())
            + np.asarray(dep_t @ (t.log_1g - t.log_1b)).ravel()
            + np.asarray(indep_t @ (t.log_b - t.log_1b)).ravel()
            + np.asarray(dep_claims_t @ (t.log_g - t.log_1g)).ravel()
        )
        return log_true, log_false

    def posterior(self, params: SourceParameters) -> np.ndarray:
        log_true, log_false = self._column_log_likelihoods(params)
        return stable_posterior(log_true, log_false, params.z)

    def e_step(
        self, params: SourceParameters
    ) -> Tuple[np.ndarray, float]:
        log_true, log_false = self._column_log_likelihoods(params)
        posterior = stable_posterior(log_true, log_false, params.z)
        log_likelihood = log_likelihood_from_columns(log_true, log_false, params.z)
        return posterior, log_likelihood

    # -- nested independence model over independent cells (staged init) ----------

    def masked_rate(self, weight: np.ndarray, previous: np.ndarray) -> np.ndarray:
        numerator = np.asarray(self.sc_indep @ weight).ravel()
        denominator = self._independent_mass(
            float(weight.sum()), np.asarray(self.dep @ weight).ravel()
        )
        ratio = ratio_update(
            numerator,
            denominator,
            smoothing=self.smoothing,
            fallback=previous,
        )
        return np.minimum(np.maximum(ratio, self.epsilon), 1.0 - self.epsilon)

    def masked_log_likelihoods(
        self, t_rate: np.ndarray, b_rate: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        log_t, log_1t = np.log(t_rate), np.log1p(-t_rate)
        log_b, log_1b = np.log(b_rate), np.log1p(-b_rate)
        base_true = float(log_1t.sum())
        base_false = float(log_1b.sum())
        # Remove dependent (masked) cells from the base, add claims.
        dep_t = self.dep.T
        sc_t = self.sc_indep.T
        log_true = base_true - np.asarray(dep_t @ log_1t).ravel() + np.asarray(
            sc_t @ (log_t - log_1t)
        ).ravel()
        log_false = base_false - np.asarray(dep_t @ log_1b).ravel() + np.asarray(
            sc_t @ (log_b - log_1b)
        ).ravel()
        return log_true, log_false


class MaskedDenseBackend:
    """Dense backend for the two-parameter independence model.

    Masked cells contribute to neither the likelihood nor the M-step
    counts — they are treated as *missing*, not as non-claims.  The
    EM (IPSN 2012) baseline is the special case of an all-ones mask;
    EM-Social (IPSN 2014) masks out every dependent cell.

    Parameters are :class:`~repro.baselines.em_independent.IndependentParameters`
    (per-source ``t, b`` plus the prior ``z``), not the full
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
        self._codes = flat_claim_codes(np.asarray(sc) != 0, np.asarray(mask) != 0)

    @property
    def n_sources(self) -> int:
        return self.sc.shape[0]

    @property
    def n_assertions(self) -> int:
        return self.sc.shape[1]

    # -- parameter construction --------------------------------------------------

    def neutral(self) -> IndependentParameters:
        from repro.baselines.em_independent import IndependentParameters

        return IndependentParameters(
            t=np.full(self.n_sources, 0.55),
            b=np.full(self.n_sources, 0.45),
            z=0.5,
        )

    def random_params(self, rng: np.random.Generator) -> IndependentParameters:
        from repro.baselines.em_independent import IndependentParameters

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
        from repro.baselines.em_independent import IndependentParameters

        z_post = posterior
        y_post = 1.0 - posterior

        s = self.smoothing
        t = _dense_partition_ratio(self.sc_mask, z_post, self.mask, s, previous.t)
        b = _dense_partition_ratio(self.sc_mask, y_post, self.mask, s, previous.b)
        z = (  # sum/size is np.mean's own definition, minus dispatch
            float(z_post.sum()) / z_post.size if z_post.size else previous.z
        )
        return IndependentParameters(t=t, b=b, z=z).clamp(self.epsilon)

    def _column_log_likelihoods(
        self, params: IndependentParameters
    ) -> Tuple[np.ndarray, np.ndarray]:
        tables = IndependenceLogTables.build(params.t, params.b)
        if not tables.finite:
            return _masked_legacy_log_likelihoods(self.sc, self.mask, tables)
        return coded_masked_column_log_likelihoods(self._codes, tables)

    def posterior(self, params: IndependentParameters) -> np.ndarray:
        log_true, log_false = self._column_log_likelihoods(params)
        return stable_posterior(log_true, log_false, params.z)

    def e_step(self, params: IndependentParameters) -> Tuple[np.ndarray, float]:
        log_true, log_false = self._column_log_likelihoods(params)
        posterior = stable_posterior(log_true, log_false, params.z)
        log_likelihood = log_likelihood_from_columns(log_true, log_false, params.z)
        return posterior, log_likelihood


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


__all__ = ["CSRBackend", "DenseBackend", "MaskedDenseBackend", "make_backend"]
