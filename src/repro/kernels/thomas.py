"""Sequential Thomas algorithm for tridiagonal systems.

The system is given by three diagonals ``b`` (lower), ``a`` (main),
``c`` (upper) and right-hand side ``f``; row i reads

    b[i] * x[i-1] + a[i] * x[i] + c[i] * x[i+1] = f[i]

with ``b[0]`` and ``c[n-1]`` ignored.  The paper assumes the matrix can
be factored without pivoting (e.g. diagonally dominant); we validate
against zero pivots.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError


class ZeroPivot(ValidationError):
    """A zero pivot at ``where``; ``line`` is its column when the
    diagonals carry a trailing lines axis (one system per column), else
    None."""

    def __init__(self, where: str, line: int | None = None):
        super().__init__(where if line is None else f"{where}, line {line}")
        self.where, self.line = where, line


def check_pivot(pivot, where: str, row: int) -> None:
    """Raise :class:`ZeroPivot` (``where`` formatted with ``row``) if
    ``pivot`` -- a scalar, or one pivot per line -- is zero, naming the
    first zero line."""
    zero = pivot == 0.0
    if zero.any():
        line = int(zero.argmax()) if zero.ndim else None
        raise ZeroPivot(where.format(row), line)


def thomas_solve(
    b: np.ndarray, a: np.ndarray, c: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Solve one tridiagonal system by LU without pivoting.

    All inputs are 1-D arrays of equal length n; returns x of length n.
    Inputs with a trailing lines axis, shaped (n, L), solve L
    independent systems, one per column, with the same arithmetic per
    column.  1-D diagonals against an (n, L) right-hand side are one
    matrix shared by every column, factored once.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    f = np.asarray(f, dtype=float)
    n = a.shape[0]
    if not (b.shape[0] == c.shape[0] == f.shape[0] == n):
        raise ValidationError("diagonals and rhs must have equal length")
    lines = max(b.shape, a.shape, c.shape, key=len)  # (n,): one shared matrix
    x = np.empty(max(lines, f.shape, key=len))
    if n == 0:
        return x
    cp = np.empty(lines)
    fp = np.empty(x.shape)
    denom = a[0]
    check_pivot(denom, "zero pivot in Thomas algorithm at row {}", 0)
    cp[0] = c[0] / denom
    fp[0] = f[0] / denom
    for i in range(1, n):
        denom = a[i] - b[i] * cp[i - 1]
        check_pivot(denom, "zero pivot in Thomas algorithm at row {}", i)
        cp[i] = c[i] / denom
        fp[i] = (f[i] - b[i] * fp[i - 1]) / denom
    x[-1] = fp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = fp[i] - cp[i] * x[i + 1]
    return x


def thomas_factor_count(n: int) -> int:
    """Flop count of one Thomas solve of size n (8n-7 for n >= 1)."""
    if n <= 0:
        return 0
    return max(8 * n - 7, 1)


def build_tridiagonal_dense(
    b: np.ndarray, a: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Dense matrix from the three diagonals (testing helper)."""
    n = len(a)
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = a
    A[np.arange(1, n), np.arange(n - 1)] = b[1:]
    A[np.arange(n - 1), np.arange(1, n)] = c[:-1]
    return A
