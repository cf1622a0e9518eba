"""Tests for 2-D multigrid with zebra line relaxation (Listing 11)."""

import numpy as np
import pytest

from repro.lang import ProcessorGrid
from repro.machine import Machine
from repro.tensor.multigrid2d import mg2_reference, mg2_solve
from repro.tensor.poisson import Coeffs2D, manufactured_2d, residual_norm_2d
from repro.session import Session


def test_reference_residual_reduction_per_cycle():
    n = 32
    _, f = manufactured_2d(n)
    r_prev = residual_norm_2d(np.zeros_like(f), f)
    u = np.zeros_like(f)
    from repro.tensor.multigrid2d import mg2_vcycle_ref

    factors = []
    for _ in range(4):
        mg2_vcycle_ref(u, f, Coeffs2D())
        r = residual_norm_2d(u, f)
        factors.append(r / r_prev)
        r_prev = r
    # zebra + semicoarsening: healthy convergence factor
    assert max(factors) < 0.35


def test_reference_converges_to_manufactured():
    n = 32
    u_exact, f = manufactured_2d(n)
    u = mg2_reference(f, cycles=8)
    assert np.max(np.abs(u - u_exact)) < 1e-8


def test_reference_helmholtz_shifted():
    coeffs = Coeffs2D(a=1.0, b=1.0, c=-50.0)
    n = 16
    u_exact, f = manufactured_2d(n, coeffs)
    u = mg2_reference(f, cycles=8, coeffs=coeffs)
    assert np.max(np.abs(u - u_exact)) < 1e-8


@pytest.mark.parametrize("p", [1, 2, 4])
def test_distributed_matches_reference(p):
    n = 16
    _, f = manufactured_2d(n)
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    u, trace = mg2_solve(m, g, f, cycles=3)
    ref = mg2_reference(f, cycles=3)
    np.testing.assert_allclose(u, ref, rtol=1e-11, atol=1e-13)


def test_distributed_communicates_only_for_p_gt_1():
    n = 16
    _, f = manufactured_2d(n)
    m1 = Machine(n_procs=1)
    _, t1 = mg2_solve(m1, ProcessorGrid((1,)), f, cycles=1)
    assert t1.message_count() == 0
    m2 = Machine(n_procs=4)
    _, t2 = mg2_solve(m2, ProcessorGrid((4,)), f, cycles=1)
    assert t2.message_count() > 0


def test_distributed_converges():
    n = 16
    u_exact, f = manufactured_2d(n)
    m = Machine(n_procs=2)
    u, _ = mg2_solve(m, ProcessorGrid((2,)), f, cycles=8)
    assert np.max(np.abs(u - u_exact)) < 1e-8


def test_level_marks_record_hierarchy():
    n = 16
    _, f = manufactured_2d(n)
    m = Machine(n_procs=2)
    _, trace = mg2_solve(m, ProcessorGrid((2,)), f, cycles=1)
    levels = {payload for payload, _ in trace.active_procs_by_payload("mg2/level").items()}
    assert (0, 16) in levels
    assert (1, 8) in levels
    assert (3, 2) in levels


def test_mg2_distributed_x_dimension():
    """MG2 with dist (block, block): line solves use the parallel kernel."""
    from repro.lang import DistArray
    from repro.tensor.multigrid2d import MG2

    n = 16
    _, f = manufactured_2d(n)
    m = Machine(n_procs=4)
    g = ProcessorGrid((2, 2))
    u = DistArray(f.shape, g, dist=("block", "block"), name="u")
    F = DistArray(f.shape, g, dist=("block", "block"), name="F")
    F.from_global(f)
    mg = MG2(u, F, g)

    def prog(ctx):
        yield from mg.solve(ctx, 3)

    Session(m, g).run(prog)
    ref = mg2_reference(f, cycles=3)
    np.testing.assert_allclose(u.to_global(), ref, rtol=1e-10, atol=1e-12)
