"""Source behaviour model of Section II-B.

Each source :math:`S_i` is described by four emission probabilities and
the population shares one prior:

* ``a[i]`` — :math:`P(S_iC_j = 1 \\mid C_j = 1, D_{ij} = 0)`: the
  probability of making an *independent* claim about a *true* assertion;
* ``b[i]`` — :math:`P(S_iC_j = 1 \\mid C_j = 0, D_{ij} = 0)`: independent
  claim about a *false* assertion;
* ``f[i]`` — :math:`P(S_iC_j = 1 \\mid C_j = 1, D_{ij} = 1)`: *dependent*
  claim about a true assertion;
* ``g[i]`` — :math:`P(S_iC_j = 1 \\mid C_j = 0, D_{ij} = 1)`: dependent
  claim about a false assertion;
* ``z`` — :math:`P(C_j = 1)`: prior probability that an assertion is true.

The set :math:`\\theta = \\{a_i, b_i, f_i, g_i\\}_{i=1..n} \\cup \\{z\\}` is
what both the error bound (which assumes it known) and the EM-Ext
estimator (which infers it) operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.utils.errors import ValidationError
from repro.utils.rng import RandomState, SeedLike
from repro.utils.validation import check_probability, check_probability_array

#: Default clamping width used to keep parameters away from {0, 1} so
#: log-likelihoods stay finite.
DEFAULT_EPSILON = 1e-6


def clip_rates(
    rates: np.ndarray, epsilon: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Clip rates into ``[ε, 1-ε]``: ``np.clip``'s definition, minus its dispatch.

    NaN propagates as through ``np.clip``.  Pass ``out=rates`` to clip a
    fresh array in place.
    """
    clipped = np.maximum(rates, epsilon, out=out)
    return np.minimum(clipped, 1.0 - epsilon, out=clipped)


def clip_probability(value: float, epsilon: float) -> float:
    """Clip one probability into ``[ε, 1-ε]``, as :func:`clip_rates` would.

    A NaN fails both comparisons and comes back unchanged.
    """
    if value < epsilon:
        return epsilon
    if value > 1.0 - epsilon:
        return 1.0 - epsilon
    return float(value)


@dataclass(frozen=True)
class SourceParameters:
    """The full parameter set :math:`\\theta` of the social channel.

    Immutable; all update operations return new instances.  Arrays are
    one entry per source and are defensively copied and validated at
    construction.
    """

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray
    g: np.ndarray
    z: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "f", "g"):
            array = check_probability_array(getattr(self, name), name)
            if array.ndim != 1:
                raise ValidationError(f"{name} must be 1-D, got shape {array.shape}")
            object.__setattr__(self, name, array)
        lengths = {self.a.size, self.b.size, self.f.size, self.g.size}
        if len(lengths) != 1:
            raise ValidationError(
                "a, b, f, g must have the same length, got "
                f"{(self.a.size, self.b.size, self.f.size, self.g.size)}"
            )
        object.__setattr__(self, "z", check_probability(self.z, "z"))

    @classmethod
    def _from_rates(cls, rates: np.ndarray, z: float) -> "SourceParameters":
        """Adopt a ``(4, n)`` ``[a, b, f, g]`` rate block without re-validation.

        Only for internal call sites whose block is a fresh float64
        array already known to lie in ``[0, 1]`` (e.g. the output of
        :meth:`clamp` or an M-step).  The rates become row views of the
        block, which :meth:`max_difference` and the engine's log tables
        then read in one call instead of four.
        """
        self = object.__new__(cls)
        self.__dict__.update(
            a=rates[0], b=rates[1], f=rates[2], g=rates[3], z=z, _rates=rates
        )
        return self

    def _rate_block(self) -> np.ndarray:
        """The ``(4, n)`` ``[a, b, f, g]`` block, stacked if not built from one."""
        rates = self.__dict__.get("_rates")
        if rates is None:
            return np.array((self.a, self.b, self.f, self.g))
        return rates

    @property
    def n_sources(self) -> int:
        """Number of sources described by this parameter set."""
        return self.a.size

    @classmethod
    def from_scalars(
        cls, n_sources: int, a: float, b: float, f: float, g: float, z: float
    ) -> "SourceParameters":
        """Build a homogeneous population where every source shares θ_i."""
        if n_sources <= 0:
            raise ValidationError(f"n_sources must be positive, got {n_sources}")
        ones = np.ones(n_sources)
        return cls(a=a * ones, b=b * ones, f=f * ones, g=g * ones, z=z)

    @classmethod
    def random(
        cls,
        n_sources: int,
        seed: SeedLike = None,
        *,
        informative: bool = True,
    ) -> "SourceParameters":
        """Draw a random parameter set, e.g. for EM initialisation.

        With ``informative=True`` (the default) true-emission rates are
        biased above false-emission rates, which is the standard EM
        initialisation that breaks the label-swap symmetry of the
        likelihood (otherwise EM may converge to the mirrored solution
        where "true" and "false" are exchanged).
        """
        rng = RandomState(seed)
        if informative:
            a = rng.uniform(0.4, 0.8, size=n_sources)
            b = rng.uniform(0.05, 0.35, size=n_sources)
            f = rng.uniform(0.4, 0.8, size=n_sources)
            g = rng.uniform(0.05, 0.35, size=n_sources)
        else:
            a, b, f, g = rng.uniform(0.05, 0.95, size=(4, n_sources))
        z = float(rng.uniform(0.3, 0.7))
        return cls(a=a, b=b, f=f, g=g, z=z)

    def clamp(self, epsilon: float = DEFAULT_EPSILON) -> "SourceParameters":
        """Return a copy with every probability pushed into ``[ε, 1-ε]``."""
        if not 0.0 < epsilon < 0.5:
            raise ValidationError(f"epsilon must be in (0, 0.5), got {epsilon}")
        # The clipped block is fresh and inside [ε, 1-ε] by construction
        # (self was validated at its own construction), so the usual
        # __post_init__ re-validation would be redundant work.
        return SourceParameters._from_rates(
            clip_rates(self._rate_block(), epsilon),
            clip_probability(self.z, epsilon),
        )

    def is_finite(self) -> bool:
        """``True`` when every rate and the prior are finite numbers."""
        return bool(
            np.isfinite(self.a).all()
            and np.isfinite(self.b).all()
            and np.isfinite(self.f).all()
            and np.isfinite(self.g).all()
            and np.isfinite(self.z)
        )

    def restrict(self, indices: np.ndarray) -> "SourceParameters":
        """Return the parameter set of the source subset ``indices``."""
        idx = np.asarray(indices)
        return SourceParameters(
            a=self.a[idx], b=self.b[idx], f=self.f[idx], g=self.g[idx], z=self.z
        )

    def max_difference(self, other: "SourceParameters") -> float:
        """Largest absolute difference across all parameters.

        Used as the EM convergence criterion.
        """
        if self.n_sources != other.n_sources:
            raise ValidationError(
                "cannot compare parameter sets for different source counts: "
                f"{self.n_sources} vs {other.n_sources}"
            )
        delta = abs(self.z - other.z)
        if not self.n_sources:
            return delta
        rates = float(np.abs(self._rate_block() - other._rate_block()).max())
        return max(rates, delta)

    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain Python types (JSON-compatible)."""
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "f": self.f.tolist(),
            "g": self.g.tolist(),
            "z": self.z,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SourceParameters":
        """Inverse of :meth:`to_dict`."""
        return cls(
            a=np.asarray(payload["a"], dtype=np.float64),
            b=np.asarray(payload["b"], dtype=np.float64),
            f=np.asarray(payload["f"], dtype=np.float64),
            g=np.asarray(payload["g"], dtype=np.float64),
            z=float(payload["z"]),
        )

    def independent_odds(self) -> np.ndarray:
        """Per-source discrimination odds ``a_i / b_i`` for independent claims."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.b > 0, self.a / self.b, np.inf)

    def dependent_odds(self) -> np.ndarray:
        """Per-source discrimination odds ``f_i / g_i`` for dependent claims."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.g > 0, self.f / self.g, np.inf)


@dataclass
class ParameterTrace:
    """Per-iteration history recorded by iterative estimators."""

    log_likelihoods: list = field(default_factory=list)
    parameter_deltas: list = field(default_factory=list)

    def record(self, log_likelihood: float, delta: float) -> None:
        """Append one iteration's diagnostics."""
        self.log_likelihoods.append(float(log_likelihood))
        self.parameter_deltas.append(float(delta))

    @property
    def n_iterations(self) -> int:
        """How many iterations were recorded."""
        return len(self.log_likelihoods)


__all__ = ["DEFAULT_EPSILON", "ParameterTrace", "SourceParameters"]
