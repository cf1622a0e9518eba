"""Property-based tests: compiled doall loops vs a sequential oracle.

For randomly generated affine stencil loops -- random distributions,
grid shapes, ranges, strides, offsets and coefficient structure -- the
distributed execution must match a straightforward numpy evaluation
with copy-in/copy-out semantics.  This is the compiler's end-to-end
correctness property: strip-mining + communication generation +
copy-in/copy-out == sequential semantics, for every distribution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import (
    Assign,
    DistArray,
    Doall,
    OnProc,
    Owner,
    ProcessorGrid,
    loopvars,
)
from repro.machine import Machine
from repro.session import Session


def run_loop(machine, grid, loop):
    def prog(ctx):
        yield from ctx.doall(loop)

    return Session(machine, grid).run(prog)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=40),
    p=st.integers(min_value=1, max_value=5),
    dist=st.sampled_from(["block", "cyclic"]),
    off1=st.integers(min_value=-2, max_value=2),
    off2=st.integers(min_value=-2, max_value=2),
    step=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 2**31),
)
def test_property_1d_stencil(n, p, dist, off1, off2, step, seed):
    """A[i] = c1*A[i+off1] + c2*B[i+off2] over a strided interior range."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(n)
    b0 = rng.standard_normal(n)
    lo = max(0, -off1, -off2)
    hi = min(n - 1, n - 1 - off1, n - 1 - off2)
    if hi < lo:
        return
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=(dist,), name="A")
    B = DistArray((n,), g, dist=(dist,), name="B")
    A.from_global(a0)
    B.from_global(b0)
    (i,) = loopvars("i")
    loop = Doall(
        (i,), [(lo, hi, step)], Owner(A, (i,)),
        [Assign(A[i], 0.5 * A[i + off1] + 2.0 * B[i + off2])],
        g,
    )
    run_loop(m, g, loop)
    expected = a0.copy()
    idx = np.arange(lo, hi + 1, step)
    expected[idx] = 0.5 * a0[idx + off1] + 2.0 * b0[idx + off2]
    np.testing.assert_allclose(A.to_global(), expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=24),
    pshape=st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 2)]),
    d0=st.sampled_from(["block", "cyclic"]),
    d1=st.sampled_from(["block", "cyclic"]),
    oi=st.integers(min_value=-1, max_value=1),
    oj=st.integers(min_value=-1, max_value=1),
    seed=st.integers(0, 2**31),
)
def test_property_2d_stencil(n, pshape, d0, d1, oi, oj, seed):
    """X[i,j] = X[i+oi,j] - X[i,j+oj] + F[i,j] on the interior."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n, n))
    f0 = rng.standard_normal((n, n))
    m = Machine(n_procs=int(np.prod(pshape)))
    g = ProcessorGrid(pshape)
    X = DistArray((n, n), g, dist=(d0, d1), name="X")
    F = DistArray((n, n), g, dist=(d0, d1), name="F")
    X.from_global(x0)
    F.from_global(f0)
    i, j = loopvars("i j")
    loop = Doall(
        (i, j), [(1, n - 2), (1, n - 2)], Owner(X, (i, j)),
        [Assign(X[i, j], X[i + oi, j] - X[i, j + oj] + F[i, j])],
        g,
    )
    run_loop(m, g, loop)
    expected = x0.copy()
    ii = np.arange(1, n - 1)
    expected[np.ix_(ii, ii)] = (
        x0[np.ix_(ii + oi, ii)] - x0[np.ix_(ii, ii + oj)] + f0[np.ix_(ii, ii)]
    )
    np.testing.assert_allclose(X.to_global(), expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=32),
    p=st.integers(min_value=1, max_value=4),
    coeff=st.integers(min_value=2, max_value=3),
    seed=st.integers(0, 2**31),
)
def test_property_coarsening_index(n, p, coeff, seed):
    """u[k] += v[k/coeff] over k = 0, coeff, 2*coeff, ... (semi-coarsening)."""
    rng = np.random.default_rng(seed)
    nc = (n - 1) // coeff + 1
    u0 = rng.standard_normal(n)
    v0 = rng.standard_normal(nc)
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    U = DistArray((n,), g, dist=("block",), name="U")
    V = DistArray((nc,), g, dist=("block",), name="V")
    U.from_global(u0)
    V.from_global(v0)
    (k,) = loopvars("k")
    hi = (nc - 1) * coeff
    loop = Doall(
        (k,), [(0, hi, coeff)], Owner(U, (k,)),
        [Assign(U[k], U[k] + V[k / coeff])],
        g,
    )
    run_loop(m, g, loop)
    expected = u0.copy()
    idx = np.arange(0, hi + 1, coeff)
    expected[idx] += v0[idx // coeff]
    np.testing.assert_allclose(U.to_global(), expected, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=24),
    p=st.integers(min_value=2, max_value=4),
    dist=st.sampled_from(["block", "cyclic"]),
    seed=st.integers(0, 2**31),
)
def test_property_permutation_remote_writes(n, p, dist, seed):
    """B[i] = A[n-1-i] under OnProc placement: exercises write scatter."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(n)
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=(dist,), name="A")
    B = DistArray((n,), g, dist=(dist,), name="B")
    A.from_global(a0)
    (i,) = loopvars("i")
    loop = Doall(
        (i,), [(0, n - 1)], Owner(A, (i,)),
        [Assign(B[i], A[(n - 1) - i])],
        g,
    )
    run_loop(m, g, loop)
    np.testing.assert_allclose(B.to_global(), a0[::-1], rtol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=20),
    p=st.integers(min_value=2, max_value=4),
    seed=st.integers(0, 2**31),
)
def test_property_onproc_blocks(n, p, seed):
    """OnProc loops writing per-processor slots (Listing 4's tmp arrays)."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(4 * p)
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    T = DistArray((4 * p,), g, dist=("block",), name="T")
    T.from_global(a0)
    (ip,) = loopvars("ip")
    loop = Doall(
        (ip,), [(0, p - 1)], OnProc(g, (ip,)),
        [Assign(T[4 * ip], T[4 * ip + 3] * 2.0)],
        g,
    )
    run_loop(m, g, loop)
    expected = a0.copy()
    expected[0 :: 4] = a0[3 :: 4] * 2.0
    np.testing.assert_allclose(T.to_global(), expected, rtol=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=30),
    p=st.integers(min_value=1, max_value=4),
    seed=st.integers(0, 2**31),
)
def test_property_multi_statement_copy_in(n, p, seed):
    """Several statements all read pre-loop values (copy-in/copy-out)."""
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(n)
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    B = DistArray((n,), g, dist=("block",), name="B")
    A.from_global(a0)
    (i,) = loopvars("i")
    loop = Doall(
        (i,), [(1, n - 2)], Owner(A, (i,)),
        [
            Assign(B[i], A[i - 1] + A[i + 1]),
            Assign(A[i], A[i] * 3.0),
            Assign(B[i], B[i] + A[i]),   # reads OLD B and OLD A
        ],
        g,
    )
    run_loop(m, g, loop)
    idx = np.arange(1, n - 1)
    expected_a = a0.copy()
    expected_a[idx] = a0[idx] * 3.0
    expected_b = np.zeros(n)
    expected_b[idx] = 0.0 + a0[idx]  # old B was zero; then B[i]=oldB+oldA
    np.testing.assert_allclose(A.to_global(), expected_a, rtol=1e-12)
    np.testing.assert_allclose(B.to_global(), expected_b, rtol=1e-12, atol=1e-12)
