"""Tests for the ADI iteration (Listings 7-8)."""

import numpy as np
import pytest

from repro.lang import ProcessorGrid
from repro.machine import CostModel, Machine
from repro.tensor.adi import adi_reference, adi_solve, default_tau
from repro.tensor.poisson import Coeffs2D, manufactured_2d, residual_norm_2d


def test_reference_converges_to_manufactured():
    n = 16
    u_exact, f = manufactured_2d(n)
    u = adi_reference(f, iters=60)
    assert np.max(np.abs(u - u_exact)) < 1e-6


def test_reference_residual_monotone_drop():
    n = 16
    _, f = manufactured_2d(n)
    r0 = residual_norm_2d(np.zeros_like(f), f)
    u = adi_reference(f, iters=10)
    r10 = residual_norm_2d(u, f)
    assert r10 < 0.2 * r0


def test_reference_helmholtz_coefficients():
    coeffs = Coeffs2D(a=2.0, b=0.5, c=-10.0)
    n = 16
    u_exact, f = manufactured_2d(n, coeffs)
    u = adi_reference(f, iters=80, coeffs=coeffs)
    assert np.max(np.abs(u - u_exact)) < 1e-5


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 2)])
@pytest.mark.parametrize("pipelined", [False, True])
def test_distributed_matches_reference(shape, pipelined):
    n = 16
    _, f = manufactured_2d(n)
    m = Machine(n_procs=int(np.prod(shape)))
    g = ProcessorGrid(shape)
    u, _ = adi_solve(m, g, f, iters=4, pipelined=pipelined)
    ref = adi_reference(f, iters=4)
    np.testing.assert_allclose(u, ref, rtol=1e-10, atol=1e-12)


def test_distributed_converges():
    n = 16
    u_exact, f = manufactured_2d(n)
    m = Machine(n_procs=4)
    g = ProcessorGrid((2, 2))
    u, _ = adi_solve(m, g, f, iters=50)
    assert np.max(np.abs(u - u_exact)) < 1e-5


def test_pipelined_adi_is_faster():
    """Listing 8's claim: 'One can get better speed-ups with the pipelined
    version of the tridiagonal solver.'"""
    n = 32
    _, f = manufactured_2d(n)
    cost = CostModel.balanced()
    m1 = Machine(n_procs=16, cost=cost)
    _, t_plain = adi_solve(m1, ProcessorGrid((4, 4)), f, iters=2, pipelined=False)
    m2 = Machine(n_procs=16, cost=cost)
    _, t_pipe = adi_solve(m2, ProcessorGrid((4, 4)), f, iters=2, pipelined=True)
    assert t_pipe.makespan() < t_plain.makespan()


def test_tau_default_positive():
    assert default_tau(16) > 0.0
    assert default_tau(64) < default_tau(16)
