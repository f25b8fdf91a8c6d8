import math

import numpy as np
import pytest

from sparseobs.errors import (
    DomainError,
    ShapeError,
    check_array,
    check_count,
    check_matrix,
    check_real,
    check_weights,
)


@pytest.mark.parametrize("value", [3, np.int64(3), 3.0, np.float64(3.0)])
def test_count_accepts_integers_and_integral_floats(value):
    got = check_count(value, "k")
    assert got == 3 and type(got) is int


@pytest.mark.parametrize("value", [2.5, True, np.bool_(True), "3", None, math.nan, math.inf])
def test_count_refuses_bools_fractions_and_non_numbers(value):
    with pytest.raises(DomainError, match="k must be an integer"):
        check_count(value, "k")


def test_count_bounds():
    assert check_count(0, "k", 0) == 0
    assert check_count(2e5, "k") == 200000
    with pytest.raises(DomainError, match=r"^k must be >= 1, got 0$"):
        check_count(0, "k")
    with pytest.raises(DomainError, match=r"^k must lie in \[1, 4\], got 5$"):
        check_count(5, "k", 1, 4)


def test_real_sign_and_finiteness():
    assert check_real(0.0, "x") == 0.0
    assert check_real(2, "x", positive=True) == 2.0
    for bad in (-1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="x must be nonnegative and finite"):
            check_real(bad, "x")
    with pytest.raises(DomainError, match="x must be positive and finite"):
        check_real(0.0, "x", positive=True)


@pytest.mark.parametrize("value", [2, 0.5, np.float64(0.5), np.int64(2), np.array(0.5)])
def test_real_accepts_python_and_numpy_numbers(value):
    got = check_real(value, "x")
    assert got == float(value) and type(got) is float


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), "0.5", b"0.5", np.array(True), np.array("0.5")]
)
def test_real_refuses_bools_strings_and_bytes(value):
    with pytest.raises(DomainError, match="x must be a real number"):
        check_real(value, "x")


@pytest.mark.parametrize("value", [None, [0.5], (0.5,), np.array([0.5]), np.ones((1, 1)), 1j])
def test_real_refuses_none_sequences_and_arrays(value):
    with pytest.raises(DomainError, match="x must be a real number"):
        check_real(value, "x")


@pytest.mark.parametrize(
    "value", [[[1.0, 2.0], [3.0]], [["x", 1.0]], ["1.0", "2.0"], [None, 1.0], {"a": 1.0}, None]
)
def test_arrays_refuse_ragged_and_non_numeric_input(value):
    with pytest.raises(ShapeError, match="A must be a numeric array"):
        check_matrix(value, "A")
    with pytest.raises(ShapeError, match="a must be a numeric array"):
        check_array(value, (2,), "a")


@pytest.mark.parametrize(
    "value",
    [[True, True], np.array([True, False]), [True, 1.0], [1.0, np.bool_(False)]],
)
def test_arrays_refuse_booleans(value):
    # numpy reads a list mixing booleans with numbers as numbers
    with pytest.raises(ShapeError, match="A must be a numeric array"):
        check_matrix([value], "A")
    with pytest.raises(ShapeError, match="a must be a numeric array"):
        check_array(value, (2,), "a")
    with pytest.raises(ShapeError, match="weights must be a numeric array"):
        check_weights(value, (2,))


def test_matrix_shape_and_finiteness():
    A = check_matrix([[1, 2], [3, 4]], "A")
    assert A.dtype == float and A.flags.c_contiguous
    for bad in (np.ones(3), np.ones((0, 3)), np.ones((3, 0)), np.ones((2, 2, 2))):
        with pytest.raises(ShapeError):
            check_matrix(bad, "A")
    with pytest.raises(DomainError, match="A must be finite"):
        check_matrix([[1.0, np.nan]], "A")


def test_weights_shape_sign_and_finiteness():
    np.testing.assert_array_equal(check_weights([1, 2], (2,)), [1.0, 2.0])
    with pytest.raises(ShapeError):
        check_weights(np.ones(3), (2,))
    for bad in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(DomainError):
            check_weights(bad, (2,))
