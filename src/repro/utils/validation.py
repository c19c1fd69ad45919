"""Input validation helpers shared across the library.

These functions raise :class:`~repro.utils.errors.ValidationError` with
actionable messages.  They are used at every public API boundary so that
malformed inputs fail fast instead of producing silently wrong
estimates.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.errors import ValidationError


def check_probability(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``.

    With ``inclusive=False`` the open interval ``(0, 1)`` is required,
    which is what iterative estimators need to avoid log(0).
    """
    value = float(value)
    if math.isnan(value):
        raise ValidationError(f"{name} must be a probability, got NaN")
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value


def check_probability_array(values: np.ndarray, name: str) -> np.ndarray:
    """Validate an array of probabilities; returns a float64 copy."""
    array = np.asarray(values, dtype=np.float64)
    if array.size and (np.isnan(array).any() or array.min() < 0.0 or array.max() > 1.0):
        raise ValidationError(f"{name} must contain probabilities in [0, 1]")
    return array


def check_binary(values: Any, name: str, *, what: str = "entries") -> np.ndarray:
    """Validate that every entry of an array of any shape is 0 or 1.

    Any dtype whose entries equal 0 or 1 passes (integers, bools,
    floats including ``-0.0``, objects); 2, 0.5, NaN and strings do not.
    Returns ``values`` as an array (not a copy); the refusal reads
    "``name`` must contain only 0/1 ``what``".
    """
    array = np.asarray(values)
    if array.size and not ((array == 0) | (array == 1)).all():
        raise ValidationError(f"{name} must contain only 0/1 {what}")
    return array


def check_binary_matrix(matrix: np.ndarray, name: str) -> np.ndarray:
    """Validate a 2-D 0/1 matrix (see :func:`check_binary`); returns an int8 copy."""
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {array.shape}")
    return check_binary(array, name).astype(np.int8)


def check_same_shape(a: np.ndarray, b: np.ndarray, names: Tuple[str, str]) -> None:
    """Validate that two arrays share a shape."""
    if a.shape != b.shape:
        raise ValidationError(
            f"{names[0]} and {names[1]} must have the same shape; "
            f"got {a.shape} vs {b.shape}"
        )


def check_positive_int(value: int, name: str) -> int:
    """Validate a strictly positive integer.

    Booleans are rejected even though ``bool`` is an ``int`` subtype —
    ``n_iterations=True`` is always a caller bug, not a count of 1.
    NumPy booleans (``np.True_``) are rejected for the same reason:
    they are *not* ``bool`` subclasses, so an ``isinstance(value, bool)``
    check alone lets them slip through as a count of 1.
    """
    if (
        isinstance(value, (bool, np.bool_))
        or int(value) != value
        or value <= 0
    ):
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_nonnegative_int(value: int, name: str) -> int:
    """Validate a non-negative integer (booleans rejected, as above)."""
    if (
        isinstance(value, (bool, np.bool_))
        or int(value) != value
        or value < 0
    ):
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def check_id_list(
    ids: Optional[Sequence[str]],
    expected: int,
    name: str,
    *,
    prefix: str,
) -> List[str]:
    """Validate (or default) an identifier list for one matrix axis.

    ``None`` produces the canonical synthetic ids ``f"{prefix}{k}"``;
    explicit ids must match the axis length and be unique.
    """
    if ids is None:
        return [f"{prefix}{k}" for k in range(expected)]
    id_list = list(ids)
    if len(id_list) != expected:
        raise ValidationError(
            f"{name} has {len(id_list)} entries but the matrix implies {expected}"
        )
    if len(set(id_list)) != len(id_list):
        raise ValidationError(f"{name} contains duplicates")
    return id_list


def check_in_choices(value: str, name: str, choices: Iterable[str]) -> str:
    """Validate a string option against a closed set of choices."""
    options = tuple(choices)
    if value not in options:
        raise ValidationError(f"{name} must be one of {options}, got {value!r}")
    return value


__all__ = [
    "check_binary",
    "check_binary_matrix",
    "check_id_list",
    "check_in_choices",
    "check_nonnegative_int",
    "check_positive_int",
    "check_probability",
    "check_probability_array",
    "check_same_shape",
]
