"""Frozen pre-optimisation kernels (the benchmark-regression baseline).

These are verbatim copies of the hot paths as they existed before
``repro.kernels`` landed: the per-source scan Gibbs sampler, the
chunked matrix-product pattern enumeration, and the multiply-add dense
likelihood/E/M steps.  ``benchmarks/test_kernel_micro.py`` times the
optimised kernels against them on identical inputs and asserts the
documented agreement, so this module must stay a faithful snapshot —
do not "optimise" or refactor it, and do not route it through the new
kernel layer.

Nothing here is part of the public API and nothing in the library
proper may import it (the benchmark and parity suites are the only
consumers).
"""

from __future__ import annotations

import numpy as np

from repro.bounds.exact import BoundResult, _emission_rates
from repro.core.likelihood import posterior_and_log_likelihood
from repro.core.model import SourceParameters, clip_probability
from repro.engine.backends import DenseBackend, IndependentParameters
from repro.engine.statistics import ratio_update
from repro.kernels.dedup import group_columns
from repro.utils.rng import RandomState, SeedLike

_RATE_EPS = 1e-12
_CHUNK = 1 << 16


# -- historical dense likelihood / E-step / M-step -------------------------------


def reference_emission_log_rates(d: np.ndarray, params: SourceParameters):
    """The historical multiply-add per-cell log emission rates."""
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_a, log_1a = np.log(params.a), np.log1p(-params.a)
        log_b, log_1b = np.log(params.b), np.log1p(-params.b)
        log_f, log_1f = np.log(params.f), np.log1p(-params.f)
        log_g, log_1g = np.log(params.g), np.log1p(-params.g)

    def _mix(dep_rate: np.ndarray, ind_rate: np.ndarray) -> np.ndarray:
        return d * dep_rate[..., None] + (1.0 - d) * ind_rate[..., None]

    return (
        _mix(log_f, log_a),
        _mix(log_1f, log_1a),
        _mix(log_g, log_b),
        _mix(log_1g, log_1b),
    )


def reference_column_log_likelihoods(
    sc: np.ndarray, d: np.ndarray, params: SourceParameters
):
    """The historical (4)/(5) column log-likelihoods, multiply-add form."""
    sc = np.asarray(sc, dtype=np.float64)
    log_p1_t, log_p0_t, log_p1_f, log_p0_f = reference_emission_log_rates(d, params)
    log_true = sc * log_p1_t + (1.0 - sc) * log_p0_t
    log_false = sc * log_p1_f + (1.0 - sc) * log_p0_f
    return log_true.sum(axis=0), log_false.sum(axis=0)


def _reference_joints(log_true, log_false, z):
    log_z = float(np.log(z)) if z != 0.0 else float("-inf")
    log_1z = float(np.log1p(-z)) if z != 1.0 else float("-inf")
    return (
        np.asarray(log_true, dtype=np.float64) + log_z,
        np.asarray(log_false, dtype=np.float64) + log_1z,
    )


def reference_posterior(log_true, log_false, z):
    """The historical stable Bayes posterior (two-branch log-sum-exp)."""
    joint_true, joint_false = _reference_joints(log_true, log_false, z)
    top = np.maximum(joint_true, joint_false)
    if np.isfinite(top).all():
        num = np.exp(joint_true - top)
        return num / (num + np.exp(joint_false - top))
    with np.errstate(invalid="ignore"):
        num = np.exp(joint_true - top)
        den = num + np.exp(joint_false - top)
        return np.where(np.isfinite(top), num / den, 0.5)


def reference_log_likelihood(log_true, log_false, z):
    """The historical Equation (7) tail, a separate log-sum-exp."""
    joint_true, joint_false = _reference_joints(log_true, log_false, z)
    top = np.maximum(joint_true, joint_false)
    safe_top = np.where(np.isfinite(top), top, 0.0)
    column_ll = safe_top + np.log(
        np.exp(joint_true - safe_top) + np.exp(joint_false - safe_top)
    )
    return float(column_ll.sum())


class ReferenceDenseBackend(DenseBackend):
    """`DenseBackend` with every optimised method swapped back to the
    pre-``repro.kernels`` implementation (two full likelihood passes per
    E-step, per-call mask products in the M-step and no table
    caching)."""

    def m_step(self, posterior, previous):
        z_post = posterior
        y_post = 1.0 - posterior

        def _ratio(weight, mask, fallback):
            return ratio_update(
                (self.sc * mask) @ weight,
                mask @ weight,
                smoothing=self.smoothing,
                fallback=fallback,
            )

        a = _ratio(z_post, self.indep, previous.a)
        f = _ratio(z_post, self.dep, previous.f)
        b = _ratio(y_post, self.indep, previous.b)
        g = _ratio(y_post, self.dep, previous.g)
        z = float(z_post.mean()) if z_post.size else previous.z
        return SourceParameters(a=a, b=b, f=f, g=g, z=z).clamp(self.epsilon)

    def _reference_columns(self, params):
        return reference_column_log_likelihoods(self.sc, self.dep, params)

    def posterior(self, params):
        log_true, log_false = self._reference_columns(params)
        return reference_posterior(log_true, log_false, params.z)

    def e_step(self, params):
        log_true, log_false = self._reference_columns(params)
        posterior = reference_posterior(log_true, log_false, params.z)
        # The historical E-step ran the whole likelihood pass twice —
        # once for the posterior, once for the data log likelihood.
        log_true2, log_false2 = self._reference_columns(params)
        log_likelihood = reference_log_likelihood(log_true2, log_false2, params.z)
        return posterior, log_likelihood

    def independent_m_step(self, posterior, previous):
        def _rate(weight, fallback):
            ratio = ratio_update(
                (self.sc * self.indep) @ weight,
                self.indep @ weight,
                smoothing=self.smoothing,
                fallback=fallback,
            )
            return np.clip(ratio, self.epsilon, 1.0 - self.epsilon)

        t_rate = _rate(posterior, previous.t)
        b_rate = _rate(1.0 - posterior, previous.b)
        z = (
            clip_probability(float(posterior.sum()) / posterior.size, self.epsilon)
            if posterior.size
            else previous.z
        )
        return IndependentParameters(t=t_rate, b=b_rate, z=z)

    def independent_e_step(self, params):
        t_rate, b_rate = params.t, params.b
        log_true = (
            self.indep
            * (
                self.sc * np.log(t_rate)[:, None]
                + (1 - self.sc) * np.log1p(-t_rate)[:, None]
            )
        ).sum(axis=0)
        log_false = (
            self.indep
            * (
                self.sc * np.log(b_rate)[:, None]
                + (1 - self.sc) * np.log1p(-b_rate)[:, None]
            )
        ).sum(axis=0)
        return posterior_and_log_likelihood(
            np.array((log_true, log_false)).T, params.z
        )


# -- historical chunked exact enumeration ----------------------------------------


def _pattern_chunk(start: int, stop: int, n: int) -> np.ndarray:
    codes = np.arange(start, stop, dtype=np.int64)[:, None]
    return ((codes >> np.arange(n, dtype=np.int64)) & 1).astype(np.float64)


def reference_exact_bound(
    dependency: np.ndarray, params: SourceParameters
) -> BoundResult:
    """The historical chunked matrix-product exact bound.

    Non-degenerate rates only (strictly inside ``(0, 1)``) — the
    benchmark inputs always are.  Rates of exactly 0/1 are checked
    against a from-the-equations oracle in ``tests/bounds`` instead.
    """
    dep = np.asarray(dependency)
    if dep.ndim == 1:
        dep = dep[:, None]
    unique_cols, counts = group_columns(dep)
    n = params.n_sources
    k = unique_cols.shape[0]
    rate_true = np.empty((n, k))
    rate_false = np.empty((n, k))
    for index, column in enumerate(unique_cols):
        rate_true[:, index], rate_false[:, index] = _emission_rates(column, params)
    with np.errstate(divide="ignore"):
        log_r1, log_1r1 = np.log(rate_true), np.log1p(-rate_true)
        log_r0, log_1r0 = np.log(rate_false), np.log1p(-rate_false)
        log_z, log_1z = np.log(params.z), np.log1p(-params.z)
    fp_mass = np.zeros(k)
    fn_mass = np.zeros(k)
    total_patterns = 1 << n
    for start in range(0, total_patterns, _CHUNK):
        stop = min(start + _CHUNK, total_patterns)
        patterns = _pattern_chunk(start, stop, n)
        complement = 1.0 - patterns
        log_joint_true = patterns @ log_r1 + complement @ log_1r1
        log_joint_false = patterns @ log_r0 + complement @ log_1r0
        joint_true = np.exp(log_joint_true + log_z)
        joint_false = np.exp(log_joint_false + log_1z)
        decide_true = joint_true > joint_false
        fp_mass += np.where(decide_true, joint_false, 0.0).sum(axis=0)
        fn_mass += np.where(decide_true, 0.0, joint_true).sum(axis=0)
    weights = counts / dep.shape[1]
    fp = float(np.sum(weights * fp_mass))
    fn = float(np.sum(weights * fn_mass))
    return BoundResult(
        total=fp + fn, false_positive=fp, false_negative=fn, method="exact"
    )


# -- historical per-source scan Gibbs sampler ------------------------------------


class ScanGibbsChains:
    """The pre-optimisation systematic-scan chains (one Python loop
    iteration per source per sweep)."""

    def __init__(self, rate_true, rate_false, z, rng):
        self.rate_true = np.clip(rate_true, _RATE_EPS, 1 - _RATE_EPS)
        self.rate_false = np.clip(rate_false, _RATE_EPS, 1 - _RATE_EPS)
        z = float(np.clip(z, _RATE_EPS, 1 - _RATE_EPS))
        self.log_z = float(np.log(z))
        self.log_1z = float(np.log1p(-z))
        self.n_chains, self.n_sources = self.rate_true.shape
        self.rng = rng
        self.state = (rng.random(self.rate_true.shape) < 0.5).astype(bool)
        self._log_r1 = np.log(self.rate_true)
        self._log_1r1 = np.log1p(-self.rate_true)
        self._log_r0 = np.log(self.rate_false)
        self._log_1r0 = np.log1p(-self.rate_false)
        self._refresh_likelihoods()

    def _refresh_likelihoods(self):
        self._like_true = np.where(self.state, self._log_r1, self._log_1r1).sum(axis=1)
        self._like_false = np.where(self.state, self._log_r0, self._log_1r0).sum(axis=1)

    def sweep(self):
        self._refresh_likelihoods()
        uniforms = self.rng.random((self.n_sources, self.n_chains))
        for i in range(self.n_sources):
            bit = self.state[:, i]
            cell_true = np.where(bit, self._log_r1[:, i], self._log_1r1[:, i])
            cell_false = np.where(bit, self._log_r0[:, i], self._log_1r0[:, i])
            rest_true = self._like_true - cell_true + self.log_z
            rest_false = self._like_false - cell_false + self.log_1z
            top = np.maximum(rest_true, rest_false)
            w_true = np.exp(rest_true - top)
            w_false = np.exp(rest_false - top)
            r1 = self.rate_true[:, i]
            r0 = self.rate_false[:, i]
            mass_one = w_true * r1 + w_false * r0
            mass_zero = w_true * (1 - r1) + w_false * (1 - r0)
            new_bit = uniforms[i] < mass_one / (mass_one + mass_zero)
            new_cell_true = np.where(new_bit, self._log_r1[:, i], self._log_1r1[:, i])
            new_cell_false = np.where(new_bit, self._log_r0[:, i], self._log_1r0[:, i])
            self._like_true += new_cell_true - cell_true
            self._like_false += new_cell_false - cell_false
            self.state[:, i] = new_bit

    def joints(self):
        return (
            np.exp(self._like_true + self.log_z),
            np.exp(self._like_false + self.log_1z),
        )

    def advance(self, count):
        """``count`` sweeps and their joints: the protocol of the shared accumulator."""
        joints = np.empty((2, count, self.n_chains))
        for row in range(count):
            self.sweep()
            joints[:, row] = self.joints()
        return joints[0], joints[1]


def reference_gibbs_bound(
    dependency: np.ndarray,
    params: SourceParameters,
    *,
    config,
    seed: SeedLike = None,
) -> BoundResult:
    """The historical joint Gibbs bound (scan sampler, all chains, one RNG)."""
    from repro.bounds.gibbs import _accumulate_bound

    dep = np.asarray(dependency)
    if dep.ndim == 1:
        columns = dep[None, :]
        weights = np.ones(1)
    else:
        unique_cols, counts = group_columns(dep)
        columns = unique_cols
        weights = counts / dep.shape[1]
    rate_true = np.empty((columns.shape[0], params.n_sources))
    rate_false = np.empty_like(rate_true)
    for index, column in enumerate(columns):
        rate_true[index], rate_false[index] = _emission_rates(column, params)
    chains = ScanGibbsChains(rate_true, rate_false, params.z, RandomState(seed))
    return _accumulate_bound(chains, weights, config)


__all__ = [
    "ReferenceDenseBackend",
    "ScanGibbsChains",
    "reference_column_log_likelihoods",
    "reference_exact_bound",
    "reference_gibbs_bound",
    "reference_log_likelihood",
    "reference_posterior",
]
