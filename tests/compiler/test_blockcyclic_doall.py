"""End-to-end doall execution under block-cyclic distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import (
    Assign,
    BlockCyclic,
    DistArray,
    Doall,
    Owner,
    ProcessorGrid,
    loopvars,
)
from repro.machine import Machine
from repro.session import Session


def run_loop(m, grid, loop):
    def prog(ctx):
        yield from ctx.doall(loop)

    return Session(m, grid).run(prog)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_blockcyclic_stencil(block):
    n, p = 20, 3
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=(BlockCyclic(block),), name="A")
    a0 = np.arange(float(n))
    A.from_global(a0)
    (i,) = loopvars("i")
    loop = Doall(
        (i,), [(1, n - 2)], Owner(A, (i,)),
        [Assign(A[i], 0.5 * (A[i - 1] + A[i + 1]))], g,
    )
    run_loop(m, g, loop)
    expected = a0.copy()
    expected[1:-1] = 0.5 * (a0[:-2] + a0[2:])
    np.testing.assert_allclose(A.to_global(), expected, rtol=1e-13)


def test_blockcyclic_2d_mixed_with_block():
    n = 12
    m = Machine(n_procs=4)
    g = ProcessorGrid((2, 2))
    X = DistArray((n, n), g, dist=(BlockCyclic(2), "block"), name="X")
    x0 = np.arange(float(n * n)).reshape(n, n)
    X.from_global(x0)
    i, j = loopvars("i j")
    loop = Doall(
        (i, j), [(1, n - 2), (1, n - 2)], Owner(X, (i, j)),
        [Assign(X[i, j], X[i - 1, j] + X[i, j + 1])], g,
    )
    run_loop(m, g, loop)
    expected = x0.copy()
    ii = np.arange(1, n - 1)
    expected[np.ix_(ii, ii)] = x0[np.ix_(ii - 1, ii)] + x0[np.ix_(ii, ii + 1)]
    np.testing.assert_allclose(X.to_global(), expected, rtol=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=30),
    p=st.integers(min_value=1, max_value=4),
    block=st.integers(min_value=1, max_value=4),
    off=st.integers(min_value=-2, max_value=2),
    seed=st.integers(0, 2**31),
)
def test_property_blockcyclic_shift(n, p, block, off, seed):
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(n)
    lo, hi = max(0, -off), min(n - 1, n - 1 - off)
    if hi < lo:
        return
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=(BlockCyclic(block),), name="A")
    B = DistArray((n,), g, dist=(BlockCyclic(block),), name="B")
    A.from_global(a0)
    (i,) = loopvars("i")
    loop = Doall((i,), [(lo, hi)], Owner(A, (i,)), [Assign(B[i], A[i + off])], g)
    run_loop(m, g, loop)
    idx = np.arange(lo, hi + 1)
    expected = np.zeros(n)
    expected[idx] = a0[idx + off]
    np.testing.assert_allclose(B.to_global(), expected, rtol=1e-13)
