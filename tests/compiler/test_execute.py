"""End-to-end tests: compiled doall loops running on the simulated machine."""

import numpy as np
import pytest

from repro.compiler import estimate_doall
from repro.lang import (
    Assign,
    DistArray,
    Doall,
    Owner,
    ProcessorGrid,
    loopvars,
)
from repro.machine import CostModel, Machine
from repro.util.errors import CompileError
from repro.session import Session


def machine(n):
    return Machine(n_procs=n, cost=CostModel.balanced())


def run_loop(m, grid, loop, sweeps=1):
    def prog(ctx):
        for _ in range(sweeps):
            yield from ctx.doall(loop)

    return Session(m, grid).run(prog)


def test_pointwise_no_comm():
    m = machine(4)
    g = ProcessorGrid((4,))
    X = DistArray((16,), g, dist=("block",), name="X")
    X.from_global(np.arange(16.0))
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 15)], Owner(X, (i,)), [Assign(X[i], X[i] * 2.0)], g)
    trace = run_loop(m, g, loop)
    np.testing.assert_array_equal(X.to_global(), np.arange(16.0) * 2)
    assert trace.message_count() == 0


def test_shift_left_matches_copy_in_semantics():
    """Paper's example: A(i) = A(i+1) must read old values (copy-in)."""
    m = machine(4)
    g = ProcessorGrid((4,))
    A = DistArray((16,), g, dist=("block",), name="A")
    A.from_global(np.arange(16.0))
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 14)], Owner(A, (i,)), [Assign(A[i], A[i + 1])], g)
    run_loop(m, g, loop)
    expected = np.arange(16.0)
    expected[:15] = expected[1:16].copy()
    np.testing.assert_array_equal(A.to_global(), expected)


def test_shift_needs_one_ghost_message_per_boundary():
    m = machine(4)
    g = ProcessorGrid((4,))
    A = DistArray((16,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 14)], Owner(A, (i,)), [Assign(A[i], A[i + 1])], g)
    trace = run_loop(m, g, loop)
    # procs 0..2 each receive one element from their right neighbor
    assert trace.message_count() == 3
    assert all(msg.nbytes == 8 for msg in trace.messages)


def test_jacobi_2d_step_matches_numpy():
    m = machine(4)
    g = ProcessorGrid((2, 2))
    n = 10
    X = DistArray((n, n), g, dist=("block", "block"), name="X")
    F = DistArray((n, n), g, dist=("block", "block"), name="F")
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((n, n))
    f0 = rng.standard_normal((n, n))
    X.from_global(x0)
    F.from_global(f0)
    i, j = loopvars("i j")
    stencil = 0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1]) - F[i, j]
    loop = Doall(
        (i, j), [(1, n - 2), (1, n - 2)], Owner(X, (i, j)), [Assign(X[i, j], stencil)], g
    )
    run_loop(m, g, loop)
    expected = x0.copy()
    expected[1:-1, 1:-1] = (
        0.25 * (x0[2:, 1:-1] + x0[:-2, 1:-1] + x0[1:-1, 2:] + x0[1:-1, :-2])
        - f0[1:-1, 1:-1]
    )
    np.testing.assert_allclose(X.to_global(), expected, rtol=1e-14)


def test_jacobi_multiple_sweeps_match_reference():
    m = machine(4)
    g = ProcessorGrid((2, 2))
    n = 8
    X = DistArray((n, n), g, dist=("block", "block"), name="X")
    F = DistArray((n, n), g, dist=("block", "block"), name="F")
    x0 = np.linspace(0, 1, n * n).reshape(n, n)
    f0 = np.full((n, n), 0.01)
    X.from_global(x0)
    F.from_global(f0)
    i, j = loopvars("i j")
    stencil = 0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1]) - F[i, j]
    loop = Doall(
        (i, j), [(1, n - 2), (1, n - 2)], Owner(X, (i, j)), [Assign(X[i, j], stencil)], g
    )
    run_loop(m, g, loop, sweeps=5)
    ref = x0.copy()
    for _ in range(5):
        new = ref.copy()
        new[1:-1, 1:-1] = (
            0.25 * (ref[2:, 1:-1] + ref[:-2, 1:-1] + ref[1:-1, 2:] + ref[1:-1, :-2])
            - f0[1:-1, 1:-1]
        )
        ref = new
    np.testing.assert_allclose(X.to_global(), ref, rtol=1e-13)


def test_cyclic_distribution_same_numerics():
    """Distribution changes must not change results (paper's tuning claim)."""
    n = 12
    results = {}
    for dist in ["block", "cyclic"]:
        m = machine(3)
        g = ProcessorGrid((3,))
        A = DistArray((n,), g, dist=(dist,), name="A")
        A.from_global(np.arange(float(n)))
        (i,) = loopvars("i")
        loop = Doall(
            (i,), [(1, n - 2)], Owner(A, (i,)),
            [Assign(A[i], 0.5 * (A[i - 1] + A[i + 1]))], g,
        )
        run_loop(m, g, loop)
        results[dist] = A.to_global()
    np.testing.assert_allclose(results["block"], results["cyclic"])


def test_remote_writes_via_onproc():
    """unshuffle-style permutation: writes land on other processors."""
    m = machine(4)
    g = ProcessorGrid((4,))
    A = DistArray((8,), g, dist=("block",), name="A")
    B = DistArray((8,), g, dist=("block",), name="B")
    A.from_global(np.arange(8.0))
    (i,) = loopvars("i")
    # B[i] = A[7 - i]: reversal; B writes happen on owner of A[7-i]
    loop = Doall(
        (i,), [(0, 7)], Owner(A, (7 - i,)), [Assign(B[i], A[7 - i])], g
    )
    run_loop(m, g, loop)
    np.testing.assert_array_equal(B.to_global(), np.arange(8.0)[::-1])


def test_semicoarsening_rational_index():
    """intrp3-style k/2 subscript on a strided loop."""
    m = machine(2)
    g = ProcessorGrid((2,))
    u = DistArray((9,), g, dist=("block",), name="u")
    v = DistArray((5,), g, dist=("block",), name="v")
    v.from_global(np.array([0.0, 10.0, 20.0, 30.0, 40.0]))
    (k,) = loopvars("k")
    loop = Doall((k,), [(2, 8, 2)], Owner(u, (k,)), [Assign(u[k], u[k] + v[k / 2])], g)
    run_loop(m, g, loop)
    out = u.to_global()
    np.testing.assert_array_equal(out[2::2], [10.0, 20.0, 30.0, 40.0])
    np.testing.assert_array_equal(out[1::2], 0.0)


def test_two_statement_body_copy_in():
    """Both statements read pre-loop values."""
    m = machine(2)
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    B = DistArray((8,), g, dist=("block",), name="B")
    A.from_global(np.arange(8.0))
    (i,) = loopvars("i")
    loop = Doall(
        (i,), [(0, 7)], Owner(A, (i,)),
        [Assign(B[i], A[i] * 2.0), Assign(A[i], A[i] + 100.0)],
        g,
    )
    run_loop(m, g, loop)
    np.testing.assert_array_equal(B.to_global(), np.arange(8.0) * 2)
    np.testing.assert_array_equal(A.to_global(), np.arange(8.0) + 100.0)


def test_replicated_read_no_comm():
    m = machine(2)
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    C = DistArray((8,), g, name="C")  # replicated
    C.from_global(np.arange(8.0))
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 7)], Owner(A, (i,)), [Assign(A[i], C[i] * 3.0)], g)
    trace = run_loop(m, g, loop)
    np.testing.assert_array_equal(A.to_global(), np.arange(8.0) * 3)
    assert trace.message_count() == 0


def test_replicated_write_rejected():
    m = machine(2)
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    C = DistArray((8,), g, name="C")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 7)], Owner(A, (i,)), [Assign(C[i], A[i])], g)
    with pytest.raises(CompileError):
        run_loop(m, g, loop)


def test_out_of_bounds_read_rejected():
    m = machine(2)
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 7)], Owner(A, (i,)), [Assign(A[i], A[i + 1])], g)
    with pytest.raises(CompileError):
        run_loop(m, g, loop)


def test_section_loop_on_subgrid():
    """Plane solve: a doall over a section runs on the section's grid."""
    m = machine(4)
    g = ProcessorGrid((2, 2))
    u = DistArray((6, 8, 8), g, dist=("*", "block", "block"), name="u")
    ref = np.arange(6 * 8 * 8, dtype=float).reshape(6, 8, 8)
    u.from_global(ref)
    plane = u[:, :, 3]  # owned by grid column 0 (dim2 block: 3 < 4)
    sub = plane.grid
    i, j = loopvars("i j")
    loop = Doall(
        (i, j), [(0, 5), (0, 7)], Owner(plane, (None, j)),
        [Assign(plane[i, j], plane[i, j] * 2.0)], sub,
    )

    def prog(ctx):
        if sub.contains(ctx.rank):
            yield from ctx.doall(loop)

    Session(m, g).run(prog)
    expected = ref.copy()
    expected[:, :, 3] *= 2.0
    np.testing.assert_array_equal(u.to_global(), expected)


def test_estimator_matches_trace_for_jacobi():
    """Static estimate message/byte counts equal the executed trace's."""
    m = machine(4)
    g = ProcessorGrid((2, 2))
    n = 12
    X = DistArray((n, n), g, dist=("block", "block"), name="X")
    i, j = loopvars("i j")
    stencil = 0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1])
    loop = Doall(
        (i, j), [(1, n - 2), (1, n - 2)], Owner(X, (i, j)), [Assign(X[i, j], stencil)], g
    )
    est = estimate_doall(loop)
    trace = run_loop(m, g, loop)
    assert est.total_messages() == trace.message_count()
    assert est.total_bytes() == trace.total_bytes()
    assert est.load_imbalance() == 1.0


def test_estimator_report_renders():
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 6)], Owner(A, (i,)), [Assign(A[i], A[i + 1])], g)
    est = estimate_doall(loop)
    text = est.report(CostModel.balanced())
    assert "predicted time" in text
    assert "efficiency" in text
