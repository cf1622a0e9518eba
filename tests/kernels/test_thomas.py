"""Unit and property tests for the sequential Thomas solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.thomas import (
    ZeroPivot,
    build_tridiagonal_dense,
    thomas_factor_count,
    thomas_solve,
)
from repro.util.errors import ValidationError


def dominant_system(n, rng):
    b = rng.uniform(-1, 1, n)
    c = rng.uniform(-1, 1, n)
    a = np.abs(b) + np.abs(c) + rng.uniform(1.0, 2.0, n)
    f = rng.uniform(-5, 5, n)
    return b, a, c, f


def test_identity_system():
    n = 5
    x = thomas_solve(np.zeros(n), np.ones(n), np.zeros(n), np.arange(5.0))
    np.testing.assert_allclose(x, np.arange(5.0))


def test_known_small_system():
    # [[2,1,0],[1,2,1],[0,1,2]] x = [4,8,8] -> x = [1,2,3]
    b = np.array([0.0, 1.0, 1.0])
    a = np.array([2.0, 2.0, 2.0])
    c = np.array([1.0, 1.0, 0.0])
    f = np.array([4.0, 8.0, 8.0])
    np.testing.assert_allclose(thomas_solve(b, a, c, f), [1.0, 2.0, 3.0])


def test_matches_dense_solve():
    rng = np.random.default_rng(1)
    b, a, c, f = dominant_system(40, rng)
    A = build_tridiagonal_dense(b, a, c)
    np.testing.assert_allclose(thomas_solve(b, a, c, f), np.linalg.solve(A, f), rtol=1e-10)


def test_many_rhs_matches_single():
    rng = np.random.default_rng(2)
    b, a, c, _ = dominant_system(20, rng)
    F = rng.uniform(-1, 1, (20, 7))
    X = thomas_solve(b, a, c, F)
    for j in range(7):
        assert X[:, j].tobytes() == thomas_solve(b, a, c, F[:, j]).tobytes()


def test_single_row():
    assert thomas_solve([0.0], [4.0], [0.0], [8.0])[0] == 2.0


def test_empty_system():
    assert thomas_solve([], [], [], []).size == 0


def test_zero_pivot_raises():
    with pytest.raises(ValidationError):
        thomas_solve([0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0])


def test_zero_pivot_of_a_shared_matrix_raises_zero_pivot():
    """A shared matrix against many right-hand sides names the row, not
    a line: the pivot is one scalar for every column."""
    with pytest.raises(ZeroPivot, match="row 1$"):
        thomas_solve([0.0, 1.0], [1.0, 0.0], [0.0, 0.0], np.ones((2, 3)))


def test_length_mismatch_raises():
    with pytest.raises(ValidationError):
        thomas_solve([0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])


def test_flop_count_monotone():
    assert thomas_factor_count(0) == 0
    assert thomas_factor_count(1) == 1
    assert thomas_factor_count(10) == 73
    assert thomas_factor_count(20) > thomas_factor_count(10)


@settings(max_examples=40)
@given(n=st.integers(min_value=1, max_value=60), seed=st.integers(0, 2**31))
def test_property_residual_small(n, seed):
    """Ax - f is tiny for random diagonally dominant systems."""
    rng = np.random.default_rng(seed)
    b, a, c, f = dominant_system(n, rng)
    x = thomas_solve(b, a, c, f)
    A = build_tridiagonal_dense(b, a, c)
    np.testing.assert_allclose(A @ x, f, rtol=1e-8, atol=1e-8)
