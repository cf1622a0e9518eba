"""Kronecker-product operators and axis-wise application.

A "tensor product computation" in the paper's sense manipulates a
multidimensional array by applying 1-D operations along its slices;
algebraically that is the action of ``A_1 (x) A_2 (x) ... (x) A_d`` on a
vectorized d-dimensional array, computed mode-by-mode without ever
forming the Kronecker product.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.util.errors import ValidationError


def apply_along_axis(A: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """Mode product: apply matrix ``A`` along one axis of ``x``.

    Equivalent to ``np.tensordot`` + transpose but kept explicit: this is
    the sequential heart of every tensor product algorithm in the paper.
    """
    x = np.asarray(x)
    if not 0 <= axis < x.ndim:
        raise ValidationError(f"axis {axis} out of range for ndim {x.ndim}")
    if A.shape[1] != x.shape[axis]:
        raise ValidationError(
            f"operator of width {A.shape[1]} applied to extent {x.shape[axis]}"
        )
    moved = np.moveaxis(x, axis, 0)
    out = np.tensordot(A, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def kron_matvec(mats: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Action of ``kron(mats[0], ..., mats[-1])`` on the tensor ``x``.

    ``x`` must have ndim == len(mats) with ``x.shape[k] == mats[k].shape[1]``.
    Returns a tensor shaped by the operators' row counts.  Cost is
    O(n^{d+1}) instead of the O(n^{2d}) dense product.
    """
    x = np.asarray(x)
    if x.ndim != len(mats):
        raise ValidationError(
            f"{len(mats)} operators require a {len(mats)}-d tensor, got ndim {x.ndim}"
        )
    out = x
    for axis, A in enumerate(mats):
        out = apply_along_axis(np.asarray(A), out, axis)
    return out


def kron_matmat(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Explicit Kronecker product of several matrices (testing helper)."""
    out = np.asarray(mats[0])
    for A in mats[1:]:
        out = np.kron(out, np.asarray(A))
    return out


def solve_along_axis(
    solver: Callable[[np.ndarray], np.ndarray], x: np.ndarray, axis: int
) -> np.ndarray:
    """Apply a 1-D solver to every line of ``x`` along ``axis``.

    ``solver`` maps a (n, m) right-hand-side stack to a (n, m) solution
    stack, so implementations can vectorize over lines (as
    :func:`repro.kernels.thomas.thomas_solve` does for a shared matrix).
    """
    x = np.asarray(x, dtype=float)
    moved = np.moveaxis(x, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    out = solver(flat)
    if out.shape != flat.shape:
        raise ValidationError("solver changed the stack shape")
    return np.moveaxis(out.reshape(moved.shape), 0, axis)
