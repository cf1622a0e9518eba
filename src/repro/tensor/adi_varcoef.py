"""Variable-coefficient ADI (paper section 4's closing remark).

"Programming ADI with variable coefficients is not much different,
except that there are a number of additional details not germane to
this paper."  This module supplies those details: the PDE

    a(x,y) Uxx + b(x,y) Uyy + c(x,y) U = F

with coefficient *fields* held in distributed arrays.  Two things
change relative to :mod:`repro.tensor.adi`:

* the residual doall multiplies stencil differences by coefficient
  array references (the expression AST supports Ref * Ref products, so
  the loop body is still a single Assign);
* every grid line carries its own tridiagonal system, assembled from
  the processor's local coefficient block -- which is exactly the
  multi-system shape the pipelined solver of Listing 6 exists for.

Everything else -- validation, arrays, the cached line plans, the line
solves and the update -- is :mod:`repro.tensor.adi`'s.  The iteration
is the same defect-correction Peaceman-Rachford scheme;
for smooth positive a, b (and c <= 0) the split operators remain
negative definite and the sweep contracts.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.thomas import thomas_solve
from repro.lang import Assign, Doall, Owner, ProcessorGrid, loopvars
from repro.machine.simulator import Machine
from repro.tensor.adi import _adi_run, _check_adi
from repro.util.errors import ValidationError


def default_tau_varcoef(n: int, a: np.ndarray, b: np.ndarray) -> float:
    """PR tau from coefficient-field extremes."""
    amin = float(min(a.min(), b.min()))
    amax = float(max(a.max(), b.max()))
    if amin <= 0:
        raise ValidationError("diffusion coefficients must be positive")
    lam_min = np.pi**2 * amin
    lam_max = 4.0 * n * n * amax
    return 1.0 / np.sqrt(lam_min * lam_max)


def _apply_L(u, a, b, c, n):
    """Variable-coefficient operator on interior points."""
    h2 = (1.0 / n) ** 2
    out = np.zeros_like(u)
    out[1:-1, 1:-1] = (
        a[1:-1, 1:-1] * (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h2
        + b[1:-1, 1:-1] * (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h2
        + c[1:-1, 1:-1] * u[1:-1, 1:-1]
    )
    return out


def _line_diags(coef_line: np.ndarray, c_line: np.ndarray, n: int, tau: float):
    """Per-line diagonals of (I - tau (coef d2 + c/2)), identity boundaries."""
    h2 = (1.0 / n) ** 2
    lo = np.zeros(n + 1)
    di = np.ones(n + 1)
    up = np.zeros(n + 1)
    t = tau * coef_line[1:-1] / h2
    lo[1:-1] = -t
    up[1:-1] = -t
    di[1:-1] = 1.0 + 2.0 * t - tau * c_line[1:-1] / 2.0
    return lo, di, up


def adi_varcoef_reference(
    f: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    iters: int,
    tau: float | None = None,
) -> np.ndarray:
    """Sequential variable-coefficient PR-ADI."""
    if not (f.shape == a.shape == b.shape == c.shape):
        raise ValidationError("f, a, b, c must share a shape")
    _check_adi(f)
    n = f.shape[0] - 1
    if tau is None:
        tau = default_tau_varcoef(n, a, b)
    u = np.zeros_like(f)
    for _ in range(iters):
        r = f - _apply_L(u, a, b, c, n)
        r[0, :] = r[-1, :] = 0.0
        r[:, 0] = r[:, -1] = 0.0
        w = np.zeros_like(f)
        for j in range(n + 1):
            lo, di, up = _line_diags(a[:, j], c[:, j], n, tau)
            w[:, j] = thomas_solve(lo, di, up, r[:, j])
        v = np.zeros_like(f)
        for i in range(n + 1):
            lo, di, up = _line_diags(b[i, :], c[i, :], n, tau)
            v[i, :] = thomas_solve(lo, di, up, w[i, :])
        u = u - 2.0 * tau * v
    return u


# ----------------------------------------------------------------------
# Distributed version
# ----------------------------------------------------------------------


def _build_residual_loop(r, u, F, A, B, C, n, grid):
    i, j = loopvars("i j")
    h2inv = float(n * n)
    lap = (
        A[i, j] * (h2inv * (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j]))
        + B[i, j] * (h2inv * (u[i, j + 1] - 2.0 * u[i, j] + u[i, j - 1]))
        + C[i, j] * u[i, j]
    )
    return Doall(
        vars=(i, j),
        ranges=[(1, n - 1), (1, n - 1)],
        on=Owner(r, (i, j)),
        body=[Assign(r[i, j], F[i, j] - lap)],
        grid=grid,
    )


def adi_varcoef_solve(
    machine: Machine,
    grid: ProcessorGrid,
    f: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    iters: int,
    tau: float | None = None,
    pipelined: bool = True,
    session=None,
):
    """Distributed variable-coefficient ADI; returns (u_global, trace).

    Runs in ``session`` (a fresh one per call when omitted).
    """
    if not (f.shape == a.shape == b.shape == c.shape):
        raise ValidationError("f, a, b, c must share a shape")
    _check_adi(f, grid)
    n = f.shape[0] - 1
    if tau is None:
        tau = default_tau_varcoef(n, a, b)
    h2 = (1.0 / n) ** 2

    def line_diags(arr, line_dim, rank, A):
        # _line_diags' arithmetic over the local coefficient blocks, which
        # cover the held rows of every held line (one column per line)
        coef, cc = (
            np.moveaxis(A[name].local(rank), line_dim, 0)
            for name in ("ab"[line_dim], "c")
        )
        t = tau * coef / h2
        low = -t
        dia = 1.0 + 2.0 * t - tau * cc / 2.0
        upp = -t
        # identity boundary rows live on the first/last processor blocks
        rows = arr.owned_lists(rank)[line_dim]
        for row, held in ((0, rows[0] == 0), (-1, rows[-1] == n)):
            if held:
                low[row], dia[row], upp[row] = 0.0, 1.0, 0.0
        return low, dia, upp

    return _adi_run(
        machine, grid, session, {"F": f, "a": a, "b": b, "c": c}, iters, tau,
        pipelined,
        lambda A: _build_residual_loop(
            A["r"], A["u"], A["F"], A["a"], A["b"], A["c"], n, grid
        ),
        line_diags,
    )
