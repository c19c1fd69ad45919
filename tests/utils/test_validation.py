"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.errors import ValidationError
from repro.utils.validation import (
    check_binary_matrix,
    check_in_choices,
    check_nonnegative_int,
    check_positive_int,
    check_probability,
    check_probability_array,
    check_same_shape,
)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_valid_inclusive(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_invalid(self, value):
        with pytest.raises(ValidationError):
            check_probability(value, "p")

    def test_exclusive_rejects_bounds(self):
        with pytest.raises(ValidationError):
            check_probability(0.0, "p", inclusive=False)
        with pytest.raises(ValidationError):
            check_probability(1.0, "p", inclusive=False)

    def test_exclusive_accepts_interior(self):
        assert check_probability(0.5, "p", inclusive=False) == 0.5


class TestCheckProbabilityArray:
    def test_valid(self):
        out = check_probability_array([0.1, 0.9], "p")
        assert out.dtype == np.float64

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_probability_array([0.5, 1.5], "p")

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            check_probability_array([0.5, float("nan")], "p")

    def test_empty_allowed(self):
        assert check_probability_array([], "p").size == 0


class TestCheckBinaryMatrix:
    def test_valid(self):
        out = check_binary_matrix(np.array([[0, 1], [1, 0]]), "m")
        assert out.dtype == np.int8

    def test_non_binary(self):
        with pytest.raises(ValidationError):
            check_binary_matrix(np.array([[0, 2]]), "m")

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[0, 1]], dtype=np.int8),
            np.array([[1, 0]], dtype=np.uint8),
            np.array([[0, 1]], dtype=np.int64),
            np.array([[True, False]]),
            np.array([[0, 1]], dtype=object),
            np.array([[True, 0]], dtype=object),
            np.array([[0.0, 1.0]]),
            np.array([[-0.0, 1.0]]),
            np.array([[0.0, 1.0]], dtype=np.float32),
        ],
        ids=["int8", "uint8", "int64", "bool", "object", "object-bool", "float",
             "negative-zero", "float32"],
    )
    def test_zero_one_accepted_in_any_dtype(self, matrix):
        out = check_binary_matrix(matrix, "m")
        assert out.dtype == np.int8
        assert np.array_equal(out, np.asarray(matrix, dtype=np.float64))

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[0, 2]]),
            np.array([[-1, 0]]),
            np.array([[0.5, 1.0]]),
            np.array([[np.nan, 1.0]]),
            np.array([[np.inf, 0.0]]),
            np.array([["0", "1"]]),
            np.array([["0", 1]], dtype=object),
        ],
        ids=["two", "minus-one", "half", "nan", "inf", "strings", "object-string"],
    )
    def test_other_values_refused(self, matrix):
        with pytest.raises(ValidationError):
            check_binary_matrix(matrix, "m")

    def test_wrong_ndim(self):
        with pytest.raises(ValidationError):
            check_binary_matrix(np.array([0, 1]), "m")


class TestShapesAndInts:
    def test_same_shape_ok(self):
        check_same_shape(np.zeros((2, 3)), np.ones((2, 3)), ("a", "b"))

    def test_same_shape_mismatch(self):
        with pytest.raises(ValidationError):
            check_same_shape(np.zeros((2, 3)), np.ones((3, 2)), ("a", "b"))

    def test_positive_int(self):
        assert check_positive_int(3, "k") == 3
        with pytest.raises(ValidationError):
            check_positive_int(0, "k")
        with pytest.raises(ValidationError):
            check_positive_int(2.5, "k")

    def test_nonnegative_int(self):
        assert check_nonnegative_int(0, "k") == 0
        with pytest.raises(ValidationError):
            check_nonnegative_int(-1, "k")

    def test_in_choices(self):
        assert check_in_choices("a", "opt", ("a", "b")) == "a"
        with pytest.raises(ValidationError):
            check_in_choices("c", "opt", ("a", "b"))
