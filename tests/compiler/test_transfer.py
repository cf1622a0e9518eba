"""Tests for the frozen TransferSchedules of doall loops: the scatter
(doall remote-write) direction and the shared trace vocabulary.

Irregular gathers are covered by test_commsched.py; the repartition
direction by tests/lang/test_redistribute.py.  Here: frozen scatter
schedules replay bit-identically to a fresh compile, remote-write
messages carry values only (no index lists on the wire), and the trace
reports gather and scatter directions separately.
"""

import numpy as np
import pytest

from repro.compiler import TransferSchedule, estimate_doall
from repro.compiler.schedule import PlanCache
from repro.lang import (
    Assign,
    DistArray,
    Doall,
    Owner,
    ProcessorGrid,
    loopvars,
)
from repro.machine import Machine
from repro.util.errors import ValidationError
from repro.session import Session


def _reversal_loop(g, n=8):
    """B[i] = A[n-1-i]: every interior write lands on another rank."""
    A = DistArray((n,), g, dist=("block",), name="A")
    B = DistArray((n,), g, dist=("block",), name="B")
    A.from_global(np.arange(float(n)))
    (i,) = loopvars("i")
    loop = Doall(
        (i,), [(0, n - 1)], Owner(A, (n - 1 - i,)), [Assign(B[i], A[n - 1 - i])], g
    )
    return A, B, loop


def test_unknown_direction_rejected():
    with pytest.raises(ValidationError, match="unknown transfer direction"):
        TransferSchedule("sideways")


def test_write_plans_are_frozen_scatter_schedules():
    g = ProcessorGrid((4,))
    _A, B, loop = _reversal_loop(g)
    analysis, _ = PlanCache().analysis(loop)
    assert analysis.has_remote_writes
    for rank in g.linear:
        ts = analysis.write_plans[0][rank].transfer
        assert ts is not None and ts.direction == "scatter"
        # sends select into the flat value vector; recvs carry frozen
        # local-block coordinates
        for _dst, sel in ts.sends:
            assert sel.dtype == np.int64 and sel.ndim == 1
        for _src, locs in ts.recvs:
            assert len(locs) == B.ndim and locs[0].dtype == np.int64


def test_scatter_replay_bit_identical_to_rebuild():
    """Re-executing a cached loop replays the frozen scatter schedule;
    the result must be bit-identical to a fresh compile of the same
    loop, and the wire traffic must be byte-identical too."""
    n, p, sweeps = 8, 4, 3

    def run(n_sweeps):
        g = ProcessorGrid((p,))
        A, B, loop = _reversal_loop(g, n)

        def prog(ctx):
            for _ in range(n_sweeps):
                yield from ctx.doall(loop)

        trace = Session(Machine(n_procs=p), g).run(prog)
        return B.to_global(), trace

    fresh, t1 = run(1)
    replayed, t3 = run(sweeps)
    np.testing.assert_array_equal(fresh, replayed)
    np.testing.assert_array_equal(fresh, np.arange(float(n))[::-1])
    # every sweep (compile or replay) moves exactly the same messages
    assert t3.message_count() == sweeps * t1.message_count()
    assert t3.total_bytes() == sweeps * t1.total_bytes()
    per_sweep = sorted((m.src, m.dst, m.nbytes) for m in t1.messages)
    replay_last = sorted(
        (m.src, m.dst, m.nbytes) for m in t3.messages[-t1.message_count():]
    )
    assert per_sweep == replay_last


def test_remote_write_messages_carry_values_only():
    """The frozen schedule removes index lists from the wire: each
    remote-write message is exactly its values' bytes."""
    n, p = 8, 4
    g = ProcessorGrid((p,))
    _A, _B, loop = _reversal_loop(g, n)

    def prog(ctx):
        yield from ctx.doall(loop)

    trace = Session(Machine(n_procs=p), g).run(prog)
    # reversal on block layout: every rank ships its 2 iterations' writes
    # (2 elements) to the mirror rank, plus ghost reads of 2 elements
    assert all(m.nbytes % 8 == 0 for m in trace.messages)
    write_msgs = [m for m in trace.messages if m.tag[1].startswith("wr")]
    assert len(write_msgs) == p  # one coalesced value message per rank
    assert all(m.nbytes == 2 * 8 for m in write_msgs)  # 2 float64 values, no lists


def test_scatter_direction_reported_separately():
    n, p, sweeps = 8, 2, 3
    g = ProcessorGrid((p,))
    A, _B, loop = _reversal_loop(g, n)
    idx = {0: np.array([[n - 1]]), 1: np.array([[0]])}

    def prog(ctx):
        for _ in range(sweeps):
            yield from ctx.doall(loop)
            yield from ctx.cached_gather(g, A, idx[ctx.rank])

    trace = Session(Machine(n_procs=p), g).run(prog)
    directions = trace.schedule_directions()
    assert set(directions) == {"doall", "scatter", "gather"}
    # gather: first sweep misses on both ranks, later sweeps hit
    assert trace.schedule_counts("gather") == {
        "miss": p, "hit": p * (sweeps - 1)
    }
    # scatter rides the doall plan: one compile, every other execution hits
    assert trace.schedule_counts("scatter") == {
        "build": 1, "hit": p * sweeps - 1
    }
    assert trace.schedule_hit_rate("scatter") > trace.schedule_hit_rate("gather")
    # unfiltered reporting still aggregates everything
    total = sum(sum(v.values()) for v in directions.values())
    assert sum(trace.schedule_counts().values()) == total


def test_local_write_loops_emit_no_scatter_marks():
    n, p = 12, 3
    g = ProcessorGrid((p,))
    u = DistArray((n,), g, dist=("block",), name="u")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, n - 1)], Owner(u, (i,)), [Assign(u[i], u[i] + 1.0)], g)

    def prog(ctx):
        yield from ctx.doall(loop)

    trace = Session(Machine(n_procs=p), g).run(prog)
    assert trace.schedule_counts("scatter") == {}
    assert trace.schedule_counts("doall") == {"build": 1, "hit": p - 1}


def test_estimator_exact_for_remote_writes():
    """Value-only write messages make the write side exactly predictable."""
    n, p = 8, 4
    g = ProcessorGrid((p,))
    _A, _B, loop = _reversal_loop(g, n)
    est = estimate_doall(loop)

    def prog(ctx):
        yield from ctx.doall(loop)

    trace = Session(Machine(n_procs=p), g).run(prog)
    assert est.total_messages() == trace.message_count()
    assert est.total_bytes() == trace.total_bytes()


def test_local_box_store_is_open_mesh_not_per_point():
    """The all-local store freezes O(extent-per-dim) open-mesh boxes,
    not O(points) coordinate arrays (memory regression guard)."""
    n, p = 16, 4
    g = ProcessorGrid((2, 2))
    X = DistArray((n, n), g, dist=("block", "block"), name="X")
    i, j = loopvars("i j")
    loop = Doall(
        (i, j), [(1, n - 2), (1, n - 2)], Owner(X, (i, j)),
        [Assign(X[i, j], X[i, j] * 2.0)], g,
    )
    analysis, _ = PlanCache().analysis(loop)
    for rank in g.linear:
        wplan = analysis.write_plans[0][rank]
        assert wplan.transfer is None  # no messages on the write side
        locs, perm, shape = wplan.local_box
        n_points = analysis.iters[rank].count()
        coords_stored = sum(int(np.asarray(d).size) for d in locs)
        assert coords_stored < n_points  # box, not per-point
        assert shape[0] * shape[1] == n_points
        assert perm == (0, 1)


def test_transposed_lhs_box_store_numerics():
    """A transposing lhs (X[j, i]) must map the iteration box through
    the frozen permutation correctly."""
    n = 8
    g = ProcessorGrid((2, 2))
    X = DistArray((n, n), g, dist=("block", "block"), name="X")
    Y = DistArray((n, n), g, dist=("block", "block"), name="Y")
    ref = np.arange(float(n * n)).reshape(n, n)
    Y.from_global(ref)
    i, j = loopvars("i j")
    loop = Doall(
        (i, j), [(0, n - 1), (0, n - 1)], Owner(X, (j, i)),
        [Assign(X[j, i], Y[i, j])], g,
    )

    def prog(ctx):
        yield from ctx.doall(loop)

    Session(Machine(n_procs=4), g).run(prog)
    np.testing.assert_array_equal(X.to_global(), ref.T)


def test_non_box_lhs_falls_back_to_flat_store():
    """An iteration axis absent from the lhs (colliding writes) cannot
    box-decompose; the per-sweep flat fallback must still be correct."""
    n, p = 8, 2
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    B = DistArray((n,), g, dist=("block",), name="B")
    B.from_global(np.arange(float(n)))
    i, j = loopvars("i j")
    # j never appears on the lhs: each A[i] is written |j| times with
    # the same value
    loop = Doall(
        (i, j), [(0, n - 1), (0, 2)], Owner(A, (i,)),
        [Assign(A[i], B[i] + 1.0)], g,
    )
    analysis, _ = PlanCache().analysis(loop)
    for rank in g.linear:
        if not analysis.iters[rank].empty:
            assert analysis.write_plans[0][rank].local_box is None

    def prog(ctx):
        yield from ctx.doall(loop)

    Session(Machine(n_procs=p), g).run(prog)
    np.testing.assert_array_equal(A.to_global(), np.arange(float(n)) + 1.0)


def test_empty_rank_still_receives_remote_writes():
    """A rank with no iterations must still consume writes into its block."""
    n, p = 8, 2
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    B = DistArray((n,), g, dist=("block",), name="B")
    A.from_global(np.arange(float(n)))
    (i,) = loopvars("i")
    # all iterations owned by rank 0 (A[0..3] block), writes go to B[i+4]
    loop = Doall((i,), [(0, 3)], Owner(A, (i,)), [Assign(B[i + 4], A[i])], g)

    def prog(ctx):
        yield from ctx.doall(loop)

    Session(Machine(n_procs=p), g).run(prog)
    np.testing.assert_array_equal(B.to_global()[4:], np.arange(4.0))
