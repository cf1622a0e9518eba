"""Tests for variable-coefficient ADI (section 4's closing remark)."""

import numpy as np
import pytest

from repro.lang import ProcessorGrid
from repro.machine import Machine
from repro.tensor.adi_varcoef import (
    adi_varcoef_reference,
    adi_varcoef_solve,
    default_tau_varcoef,
    _apply_L,
)
from repro.util.errors import ValidationError


def problem(n, seed=0):
    """Smoothly varying coefficients and a manufactured solution."""
    x = np.linspace(0, 1, n + 1)
    X, Y = np.meshgrid(x, x, indexing="ij")
    a = 1.0 + 0.5 * np.sin(np.pi * X) * np.cos(np.pi * Y)
    b = 1.5 + 0.5 * X * Y
    c = -2.0 * np.ones_like(X)
    u_exact = np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    u_exact[0] = u_exact[-1] = 0.0
    u_exact[:, 0] = u_exact[:, -1] = 0.0
    f = _apply_L(u_exact, a, b, c, n)
    return u_exact, f, a, b, c


def test_reference_converges():
    n = 16
    u_exact, f, a, b, c = problem(n)
    u = adi_varcoef_reference(f, a, b, c, iters=120)
    assert np.max(np.abs(u - u_exact)) < 1e-6


def test_reference_reduces_residual_fast():
    n = 16
    u_exact, f, a, b, c = problem(n)
    r0 = np.max(np.abs(f))
    u = adi_varcoef_reference(f, a, b, c, iters=15)
    r = np.max(np.abs((f - _apply_L(u, a, b, c, n))[1:-1, 1:-1]))
    assert r < 0.2 * r0


def test_constant_coefficients_match_plain_adi():
    from repro.tensor.adi import adi_reference

    n = 16
    rng = np.random.default_rng(5)
    f = 1e-2 * rng.standard_normal((n + 1, n + 1))
    f[0] = f[-1] = 0.0
    f[:, 0] = f[:, -1] = 0.0
    ones = np.ones_like(f)
    tau = 0.01
    u_var = adi_varcoef_reference(f, ones, ones, 0.0 * ones, iters=5, tau=tau)
    u_plain = adi_reference(f, iters=5, tau=tau)
    np.testing.assert_allclose(u_var, u_plain, rtol=1e-11, atol=1e-13)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2)])
@pytest.mark.parametrize("pipelined", [False, True])
def test_distributed_matches_reference(shape, pipelined):
    n = 16
    _, f, a, b, c = problem(n)
    m = Machine(n_procs=int(np.prod(shape)))
    g = ProcessorGrid(shape)
    u, _ = adi_varcoef_solve(m, g, f, a, b, c, iters=3, pipelined=pipelined)
    ref = adi_varcoef_reference(f, a, b, c, iters=3)
    np.testing.assert_allclose(u, ref, rtol=1e-10, atol=1e-12)


def test_distributed_converges():
    n = 16
    u_exact, f, a, b, c = problem(n)
    m = Machine(n_procs=4)
    u, _ = adi_varcoef_solve(m, ProcessorGrid((2, 2)), f, a, b, c, iters=80)
    assert np.max(np.abs(u - u_exact)) < 1e-5


def test_validation():
    n = 8
    _, f, a, b, c = problem(n)
    with pytest.raises(ValidationError):
        default_tau_varcoef(n, -a, b)
    with pytest.raises(ValidationError):
        adi_varcoef_reference(f, a[:4], b, c, iters=1)
    m = Machine(n_procs=2)
    with pytest.raises(ValidationError):
        adi_varcoef_solve(m, ProcessorGrid((2,)), f, a, b, c, iters=1)
    # both ADI front ends and the reference refuse the same inputs up
    # front, before any simulated rank runs
    from repro.tensor.adi import adi_solve

    rect = np.ones((9, 5))
    with pytest.raises(ValidationError, match="square"):
        adi_varcoef_reference(rect, rect, rect, -rect, iters=1)
    _, f4, a4, b4, c4 = problem(4)
    cases = {
        "square": (ProcessorGrid((2, 2)), rect, (rect, rect, -rect)),
        "too coarse": (ProcessorGrid((4, 4)), f4, (a4, b4, c4)),
        "power of two": (ProcessorGrid((3, 2)), f, (a, b, c)),
    }
    for match, (grid, rhs, coefs) in cases.items():
        for solve, args in ((adi_varcoef_solve, (rhs, *coefs)), (adi_solve, (rhs,))):
            with pytest.raises(ValidationError, match=match):
                solve(Machine(n_procs=16), grid, *args, iters=1)
