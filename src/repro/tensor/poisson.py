"""Model problems: discrete operators and manufactured solutions.

All the paper's examples solve constant-coefficient elliptic problems

    a*Uxx + b*Uyy (+ g*Uzz) + c*U = F

on the unit square/cube with homogeneous Dirichlet boundaries, on grids
of (n+1) points per dimension (indices 0..n, boundaries at 0 and n).
This module provides the discrete operators, right-hand sides with
known exact solutions, and residual/error norms shared by algorithms,
tests, and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ValidationError


@dataclass(frozen=True)
class Coeffs2D:
    """PDE coefficients of ``a Uxx + b Uyy + c U = F``."""

    a: float = 1.0
    b: float = 1.0
    c: float = 0.0


@dataclass(frozen=True)
class Coeffs3D:
    """PDE coefficients of ``a Uxx + b Uyy + g Uzz + c U = F``."""

    a: float = 1.0
    b: float = 1.0
    g: float = 1.0
    c: float = 0.0


def check_pow2(n: int, what: str, least: int = 2) -> None:
    """Refuse ``n`` unless it is a power of two >= ``least``."""
    if n < least or (n & (n - 1)):
        raise ValidationError(f"{what} must be a power of two >= {least}, got {n}")


def laplacian_2d(u: np.ndarray, coeffs: Coeffs2D = Coeffs2D()) -> np.ndarray:
    """Apply the 5-point operator on interior points (boundary rows zero)."""
    nx, ny = u.shape[0] - 1, u.shape[1] - 1
    hx2, hy2 = (1.0 / nx) ** 2, (1.0 / ny) ** 2
    out = np.zeros_like(u)
    out[1:-1, 1:-1] = (
        coeffs.a * (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / hx2
        + coeffs.b * (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / hy2
        + coeffs.c * u[1:-1, 1:-1]
    )
    return out


def laplacian_3d(u: np.ndarray, coeffs: Coeffs3D = Coeffs3D()) -> np.ndarray:
    """Apply the 7-point operator on interior points (boundary planes zero)."""
    nx, ny, nz = u.shape[0] - 1, u.shape[1] - 1, u.shape[2] - 1
    hx2, hy2, hz2 = (1.0 / nx) ** 2, (1.0 / ny) ** 2, (1.0 / nz) ** 2
    out = np.zeros_like(u)
    core = u[1:-1, 1:-1, 1:-1]
    out[1:-1, 1:-1, 1:-1] = (
        coeffs.a * (u[2:, 1:-1, 1:-1] - 2 * core + u[:-2, 1:-1, 1:-1]) / hx2
        + coeffs.b * (u[1:-1, 2:, 1:-1] - 2 * core + u[1:-1, :-2, 1:-1]) / hy2
        + coeffs.g * (u[1:-1, 1:-1, 2:] - 2 * core + u[1:-1, 1:-1, :-2]) / hz2
        + coeffs.c * core
    )
    return out


def manufactured_2d(n: int, coeffs: Coeffs2D = Coeffs2D()):
    """Exact solution sin(pi x) sin(2 pi y) and its discrete-friendly rhs.

    Returns (u_exact, f) on the (n+1)x(n+1) grid; ``f`` is the *discrete*
    operator applied to u_exact, so the discrete solve should reproduce
    u_exact to solver tolerance (no discretization error in tests).
    """
    if n < 2:
        raise ValidationError("need n >= 2")
    x = np.linspace(0.0, 1.0, n + 1)
    y = np.linspace(0.0, 1.0, n + 1)
    u = np.sin(np.pi * x)[:, None] * np.sin(2 * np.pi * y)[None, :]
    u[0, :] = u[-1, :] = 0.0
    u[:, 0] = u[:, -1] = 0.0
    f = laplacian_2d(u, coeffs)
    return u, f


def manufactured_3d(n: int, coeffs: Coeffs3D = Coeffs3D()):
    """3-D analogue of :func:`manufactured_2d`."""
    if n < 2:
        raise ValidationError("need n >= 2")
    x = np.linspace(0.0, 1.0, n + 1)
    u = (
        np.sin(np.pi * x)[:, None, None]
        * np.sin(2 * np.pi * x)[None, :, None]
        * np.sin(np.pi * x)[None, None, :]
    )
    u[0], u[-1] = 0.0, 0.0
    u[:, 0], u[:, -1] = 0.0, 0.0
    u[:, :, 0], u[:, :, -1] = 0.0, 0.0
    f = laplacian_3d(u, coeffs)
    return u, f


def residual_norm_2d(u, f, coeffs: Coeffs2D = Coeffs2D()) -> float:
    """Max-norm of f - L u on interior points."""
    r = f - laplacian_2d(u, coeffs)
    return float(np.max(np.abs(r[1:-1, 1:-1]))) if u.shape[0] > 2 else 0.0


def residual_norm_3d(u, f, coeffs: Coeffs3D = Coeffs3D()) -> float:
    r = f - laplacian_3d(u, coeffs)
    return float(np.max(np.abs(r[1:-1, 1:-1, 1:-1]))) if u.shape[0] > 2 else 0.0
