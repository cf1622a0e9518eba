"""Golden-trace regression tests for the simulator's communication volume.

Each scenario runs a fixed, fully deterministic workload and pins the
*exact* message counts, byte volumes, and Mark records.  Purpose: the
vectorized schedule executor (and any future rewrite of the
communication layers) must not silently change what goes over the wire.
If one of these numbers moves, the change is either a bug or a
deliberate protocol change that must update the golden values here --
with a commit message explaining the delta.
"""

from collections import Counter

import numpy as np
import pytest

import repro
from repro.kernels.substructured import (
    ShuffleMapping,
    substructured_tri_solve,
)
from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
from repro.machine import Compute, Machine
from repro.session import Session
from repro.tensor.adi import adi_solve
from repro.tensor.adi_varcoef import adi_varcoef_solve
from repro.tensor.multigrid3d import mg3_solve
from repro.tensor.poisson import manufactured_2d, manufactured_3d


def _dominant_system(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1, 1, n)
    c = rng.uniform(-1, 1, n)
    a = np.abs(b) + np.abs(c) + rng.uniform(1.0, 2.0, n)
    f = rng.uniform(-5, 5, n)
    return b, a, c, f


def test_golden_substructured_tri_solve():
    """n=16, p=4, shuffle mapping: 10 messages, 400 bytes, fixed marks."""
    b, a, c, f = _dominant_system(16, seed=3)
    x, trace = substructured_tri_solve(b, a, c, f, p=4, mapping_cls=ShuffleMapping)

    # numerics first: the trace only matters for a correct solve
    A = np.diag(a) + np.diag(b[1:], -1) + np.diag(c[:-1], 1)
    np.testing.assert_allclose(A @ x, f, atol=1e-9)

    assert trace.message_count() == 10
    assert trace.total_bytes() == 400
    labels = Counter(m.label for m in trace.marks)
    assert labels == Counter(
        {
            "tri/reduce": 6,
            "tri/subst": 6,
            "tri/apex": 1,
            "commsched/build": 1,  # first rank builds the tree routing
            "commsched/hit": 3,  # the other three ranks reuse it
        }
    )
    # the reduction marks reconstruct the data-flow graph levels exactly
    by_level = trace.active_procs_by_payload("tri/reduce")
    assert by_level == {(0, 0): [0, 1, 2, 3], (0, 1): [2, 3]}


def test_golden_doall_stencil_sweeps():
    """3 sweeps of a 3-point stencil on p=3: 12 messages of 8 bytes."""
    n, p, sweeps = 12, 3, 3
    g = ProcessorGrid((p,))
    u = DistArray((n,), g, dist=("block",), name="u")
    v = DistArray((n,), g, dist=("block",), name="v")
    u.from_global(np.arange(float(n)))
    (i,) = loopvars("i")
    loop = Doall(
        vars=(i,),
        ranges=[(1, n - 2)],
        on=Owner(v, (i,)),
        body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))],
        grid=g,
    )

    def prog(ctx):
        for _ in range(sweeps):
            yield from ctx.doall(loop)

    trace = Session(Machine(n_procs=p), g).run(prog)
    expect = np.arange(float(n))
    expect[0] = expect[-1] = 0.0
    np.testing.assert_array_equal(v.to_global(), expect)

    # 2 interior block boundaries x 2 directions x 3 sweeps, one
    # 8-byte ghost value each: the frozen executor must not coalesce,
    # split, or pad differently than the original per-sweep derivation.
    assert trace.message_count() == 12
    assert trace.total_bytes() == 96
    # one plan compile (first rank to execute), every other execution
    # replays; each execution announces the plan ("doall") and its frozen
    # gather schedules ("gather") -- the read path's unified direction mark
    assert trace.schedule_counts() == {"build": 2, "hit": 2 * (p * sweeps - 1)}
    assert trace.schedule_counts("gather") == {"build": 1, "hit": p * sweeps - 1}
    sched_marks = [(m.label, m.payload) for m in trace.schedule_events()]
    assert sched_marks[0] == ("commsched/build", ("doall", "i"))
    assert sched_marks[1] == ("commsched/build", ("gather", "u"))
    assert all(
        mark in (("commsched/hit", ("doall", "i")), ("commsched/hit", ("gather", "u")))
        for mark in sched_marks[2:]
    )


def test_golden_cached_gather_sweeps():
    """Build + 2 replays on p=2: exactly 8 messages, 64 bytes."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    idx = {0: np.array([[7]]), 1: np.array([[0]])}
    got = {0: [], 1: []}

    def prog(ctx):
        for _ in range(3):
            vals = yield from ctx.cached_gather(g, A, idx[ctx.rank])
            got[ctx.rank].append(float(vals[0]))

    trace = Session(Machine(n_procs=2), g).run(prog)
    assert got == {0: [7.0, 7.0, 7.0], 1: [0.0, 0.0, 0.0]}
    # build sweep: 2 requests + 2 replies; each replay: 2 value messages
    assert trace.message_count() == 8
    assert trace.total_bytes() == 64
    assert trace.schedule_counts() == {"miss": 2, "hit": 4}
    # per-message golden: every wire payload is one 8-byte element/index row
    assert sorted({m.nbytes for m in trace.messages}) == [8]


def _adi_trace(solver, pipelined):
    n = 16
    _, f = manufactured_2d(n)
    args = ()
    if solver is adi_varcoef_solve:
        x = np.linspace(0.0, 1.0, n + 1)
        X, Y = np.meshgrid(x, x, indexing="ij")
        args = (1.0 + X * Y, 2.0 - X * Y, -np.ones_like(X))
    _, trace = solver(
        Machine(n_procs=4), ProcessorGrid((2, 2)), f, *args, iters=2,
        pipelined=pipelined,
    )
    return trace


@pytest.mark.parametrize(
    "solver, pipelined, makespan",
    [
        (adi_solve, False, 0.018633000000000014),
        (adi_solve, True, 0.009993999999999996),
        (adi_varcoef_solve, False, 0.018857000000000013),
        (adi_varcoef_solve, True, 0.010249999999999995),
    ],
    ids=["adi-per-line", "adi-pipelined", "varcoef-per-line", "varcoef-pipelined"],
)
def test_golden_adi_line_solves(solver, pipelined, makespan):
    """(2, 2) grid, n=16, 2 iterations: the wire cost of both ADI front
    ends through the shared line solver.  Both variants move the
    same 160 messages; pipelining only reorders them, which the makespan
    shows."""
    trace = _adi_trace(solver, pipelined)
    assert trace.message_count() == 160
    assert trace.total_bytes() == 6592
    assert trace.makespan() == pytest.approx(makespan, rel=1e-12)


def test_golden_mg3_block_cubed():
    """(2, 2, 2) grid, (block, block, block), n=8, one V-cycle: the plane
    solves' zebra lines run through the distributed line solver."""
    _, f = manufactured_3d(8)
    _, trace = mg3_solve(
        Machine(n_procs=8), ProcessorGrid((2, 2, 2)), f, cycles=1,
        dist=("block", "block", "block"),
    )
    assert trace.message_count() == 2432
    assert trace.total_bytes() == 95488
    assert trace.makespan() == pytest.approx(0.10099200000000012, rel=1e-12)


# ----------------------------------------------------------------------
# Doall op streams first anchored by the interpreted executor
# ----------------------------------------------------------------------
#
# Recorded at commit c45162e from its interpreted reference executor
# (its compiled replay agreed): message counts, byte totals, makespans
# and compute labels.  That executor is gone; these pins hold the op
# streams it used to anchor.


def _stencil_overlap_loop():
    n = 12
    g = ProcessorGrid((2, 2))
    X = DistArray((n, n), g, dist=("block", "block"), name="X")
    F = DistArray((n, n), g, dist=("block", "block"), name="F")
    F.from_global(np.random.default_rng(5).standard_normal((n, n)))
    i, j = loopvars("i j")
    return Doall(
        vars=(i, j), ranges=[(1, n - 2), (1, n - 2)], on=Owner(X, (i, j)),
        body=[Assign(X[i, j], 0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1]
                                      + X[i, j - 1]) - F[i, j])],
        grid=g,
    ), dict(iters=2, overlap=True)


def _remote_write_overlap_loop():
    g = ProcessorGrid((4,))
    A = DistArray((17,), g, dist=("block",), name="A")
    B = DistArray((17,), g, dist=("cyclic",), name="B")
    A.from_global(np.arange(17.0))
    (i,) = loopvars("i")
    return Doall(vars=(i,), ranges=[(1, 15)], on=Owner(A, (i,)),
                 body=[Assign(B[i], A[i - 1] + 2.0 * A[i + 1])],
                 grid=g), dict(iters=3, overlap=True)


def _diagonal_idle_rank_loop():
    g = ProcessorGrid((3,))
    A = DistArray((9, 9), g, dist=("block", "*"), name="A")
    B = DistArray((9, 9), g, dist=("block", "*"), name="B")
    B.from_global(np.random.default_rng(1).standard_normal((9, 9)))
    (i,) = loopvars("i")
    # rows 0..4 of 9 over 3 ranks: rank 2 owns no iteration point
    return Doall(vars=(i,), ranges=[(0, 4)], on=Owner(A, (i, 0)),
                 body=[Assign(A[i, i], B[i, i] * 3.0 - 1.0)],
                 grid=g), dict(iters=2)


def _stride2_cyclic_loop():
    g = ProcessorGrid((2,))
    u = DistArray((16,), g, dist=("cyclic",), name="u")
    v = DistArray((16,), g, dist=("cyclic",), name="v")
    u.from_global(np.arange(16.0))
    (i,) = loopvars("i")
    return Doall(vars=(i,), ranges=[(1, 14, 2)], on=Owner(v, (i,)),
                 body=[Assign(v[i], u[i - 1] + u[i + 1])],
                 grid=g), dict(iters=3)


def _assert_pin(trace, messages, nbytes, makespan, labels):
    assert trace.message_count() == messages
    assert trace.total_bytes() == nbytes
    assert trace.makespan() == pytest.approx(makespan, rel=1e-12)
    assert Counter(c.label for c in trace.computes) == Counter(labels)


@pytest.mark.parametrize("build, messages, nbytes, makespan, labels", [
    pytest.param(_stencil_overlap_loop, 24, 832, 0.0006240000000000001,
                 {"doall[i,j]/interior": 8, "doall[i,j]/boundary": 8},
                 id="stencil-2x2-overlap"),
    pytest.param(_remote_write_overlap_loop, 51, 408, 0.0010760000000000004,
                 {"doall[i]/interior": 12, "doall[i]/boundary": 12},
                 id="block-to-cyclic-remote-write-overlap"),
    pytest.param(_diagonal_idle_rank_loop, 0, 0, 1.8e-05, {"doall[i]": 4},
                 id="diagonal-flat-store-idle-rank"),
    pytest.param(_stride2_cyclic_loop, 3, 192, 0.000288, {"doall[i]": 3},
                 id="stride-2-cyclic"),
])
def test_golden_doall_program(build, messages, nbytes, makespan, labels):
    """Pinned at c45162e from the interpreted executor: a loop
    ``Program.run`` keeps its wire volume, makespan and compute labels."""
    loop, run = build()
    sess = Session(Machine(n_procs=loop.grid.size), loop.grid)
    trace = repro.compile(loop, session=sess).run(**run)
    _assert_pin(trace, messages, nbytes, makespan, labels)


def test_golden_parsub_redistributes_mid_run():
    """Pinned at c45162e from the interpreted executor: three doall
    sweeps with a block -> cyclic -> block repartition between them,
    launched as one parsub."""
    g = ProcessorGrid((2,))
    u = DistArray((12,), g, dist=("block",), name="u")
    v = DistArray((12,), g, dist=("block",), name="v")
    u.from_global(np.arange(12.0))
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, 10)], on=Owner(v, (i,)),
                 body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))], grid=g)

    def program(ctx):
        yield from ctx.doall(loop)
        yield from ctx.redistribute(u, ("cyclic",))
        yield from ctx.doall(loop)
        yield from ctx.redistribute(u, ("block",))
        yield from ctx.doall(loop)

    trace = Session(Machine(n_procs=2), g).run(program)
    _assert_pin(trace, 10, 176, 0.000683, {"doall[i]": 6})


# ----------------------------------------------------------------------
# A parsub whose ranks reach a doall at different clocks
# ----------------------------------------------------------------------


@pytest.mark.parametrize("overlap, finish, messages", [
    pytest.param(False, {0: 0.000507, 1: 0.000507, 2: 0.000557}, [
        (0.0, 0.000118, 0.000318), (0.0001, 0.000218, 0.00025),
        (0.00015, 0.000268, 0.000268), (0.0002, 0.000318, 0.000318),
        (0.000259, 0.000377, 0.00048), (0.000377, 0.000495, 0.000495),
        (0.00038, 0.000498, 0.000498), (0.00043, 0.000548, 0.000548),
    ], id="serialized"),
    pytest.param(True, {0: 0.000495, 1: 0.000495, 2: 0.000545}, [
        (0.0, 0.000118, 0.000318), (0.0001, 0.000218, 0.000256),
        (0.00015, 0.000268, 0.000268), (0.0002, 0.000318, 0.000318),
        (0.000259, 0.000377, 0.00048), (0.000371, 0.000489, 0.000489),
        (0.000374, 0.000492, 0.000492), (0.000424, 0.000542, 0.000542),
    ], id="overlap"),
])
def test_golden_parsub_ranks_reach_doall_at_different_clocks(overlap, finish,
                                                             messages):
    """Pinned at commit 0655af1, before a parsub's doalls met at a grid
    rendezvous: the ranks compute for rank-dependent times, then run a
    ghost-exchanging stencil doall twice.  The rendezvous charges no
    time -- every rank resumes at its own clock -- so each rank's finish
    time and every message's ``(t_send, t_arrive, t_recv)`` are those of
    ranks that never wait for each other at a doall; a rendezvous that
    released at the latest arrival, like a Barrier, would move both."""
    g = ProcessorGrid((3,))
    u = DistArray((12,), g, dist=("block",), name="u")
    v = DistArray((12,), g, dist=("block",), name="v")
    u.from_global(np.arange(12.0) ** 2)
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, 10)], on=Owner(v, (i,)),
                 body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))], grid=g)

    def program(ctx):
        yield Compute(seconds=1e-4 * (2 - ctx.rank))
        yield from ctx.doall(loop, overlap=overlap)
        yield Compute(seconds=5e-5 * ctx.rank)
        yield from ctx.doall(loop, overlap=overlap)

    trace = Session(Machine(n_procs=3), g).run(program)
    assert trace.finish_times == pytest.approx(finish, rel=1e-12)
    timings = sorted((m.t_send, m.t_arrive, m.t_recv) for m in trace.messages)
    np.testing.assert_allclose(timings, messages, rtol=1e-12)
    u0 = np.arange(12.0) ** 2
    assert v.to_global()[1:11].tolist() == (0.5 * (u0[:-2] + u0[2:])).tolist()
