"""Tests for Listing 3's Jacobi on the DSL."""

import numpy as np
import pytest

from repro.lang import ProcessorGrid
from repro.machine import CostModel, Machine
from repro.tensor.jacobi import jacobi_kf1, jacobi_reference


def poisson_f(n, scale=0.001, seed=0):
    rng = np.random.default_rng(seed)
    f = scale * rng.standard_normal((n + 1, n + 1))
    f[0] = f[-1] = 0.0
    f[:, 0] = f[:, -1] = 0.0
    return f


def test_reference_fixed_zero_for_zero_f():
    f = np.zeros((9, 9))
    np.testing.assert_array_equal(jacobi_reference(f, 5), 0.0)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 1)])
def test_kf1_matches_reference(shape):
    m = Machine(n_procs=int(np.prod(shape)))
    g = ProcessorGrid(shape)
    f = poisson_f(12)
    X, trace = jacobi_kf1(m, g, f, iters=7)
    np.testing.assert_allclose(X, jacobi_reference(f, 7), rtol=1e-12, atol=1e-14)


def test_distribution_change_is_one_line(capsys=None):
    """The paper's tuning claim: swap dist, same program, same numbers."""
    f = poisson_f(12, seed=1)
    results = {}
    for dist in [("block", "block"), ("cyclic", "cyclic"), ("block", "cyclic")]:
        m = Machine(n_procs=4)
        g = ProcessorGrid((2, 2))
        X, _ = jacobi_kf1(m, g, f, iters=4, dist=dist)
        results[dist] = X
    base = results[("block", "block")]
    for dist, X in results.items():
        np.testing.assert_allclose(X, base, rtol=1e-12)


def test_block_jacobi_message_pattern_is_ghost_exchange():
    """Each interior processor exchanges with its 4 neighbors per sweep."""
    m = Machine(n_procs=4, cost=CostModel.balanced())
    g = ProcessorGrid((2, 2))
    f = poisson_f(8, seed=2)
    _, trace = jacobi_kf1(m, g, f, iters=1)
    # 2x2 grid: 8 edge-neighbor strips plus 4 one-element corner
    # transfers (the compiler's needed regions are per-dimension box
    # products, so corners are exchanged, as in many halo compilers)
    assert trace.message_count() == 12
    strips = [msg for msg in trace.messages if msg.nbytes > 8]
    corners = [msg for msg in trace.messages if msg.nbytes == 8]
    assert len(strips) == 8
    assert len(corners) == 4


def test_cyclic_jacobi_communicates_more():
    """The estimator's lesson: cyclic is terrible for stencils."""
    f = poisson_f(12, seed=3)
    m1 = Machine(n_procs=4)
    _, t_block = jacobi_kf1(m1, ProcessorGrid((2, 2)), f, 1, dist=("block", "block"))
    m2 = Machine(n_procs=4)
    _, t_cyc = jacobi_kf1(m2, ProcessorGrid((2, 2)), f, 1, dist=("cyclic", "cyclic"))
    assert t_cyc.total_bytes() > 4 * t_block.total_bytes()
