"""Rhs evaluation in plan-owned scratch, and the elided workspaces.

A :class:`~repro.compiler.commgen.StepPlan` evaluates each statement's
rhs into buffers it allocated at freeze, and reads an array straight
from the rank's block -- no workspace copy -- when the loop never
writes it, the rank receives nothing for it, and every reference is a
slice box.  These tests pin how many buffers a plan owns, which arrays
keep their workspaces, and that both launch forms stay bit-identical
to the sequential reference (:func:`repro.baselines.doall_reference`)
whatever the plan decided.
"""

import numpy as np
import pytest

import repro
from repro import Machine, ProcessorGrid, Session
from repro.baselines import doall_reference
from repro.lang import Assign, DistArray, Doall, OnProc, Owner, loopvars


def plan_of(session, loop, rank=0, nbatch=None):
    analysis, _ = session.plans.analysis(loop, count=False)
    return analysis.step_plan(rank, nbatch=nbatch)


def workspaces(plan) -> set:
    """Names of the read arrays this rank copies into a workspace."""
    return {array.name for _, array, _, buf in plan.reads if buf is not None}


def run_checked(build, *, iters=3, form="program"):
    """``build() -> (loop, outputs, grid)``: run the loop in ``form``
    ("program": ``Program.run``; "parsub": ``ctx.doall``), check every
    array against the sequential reference and the message and byte
    counts against the static estimate; returns the session and loop."""
    loop, _, grid = build()
    state = {a: a.to_global() for a in loop.arrays()}
    sess = Session(Machine(n_procs=grid.size), grid)
    prog = repro.compile(loop, session=sess)
    if form == "program":
        trace = prog.run(iters=iters)
    else:
        def parsub(ctx):
            for _ in range(iters):
                yield from ctx.doall(loop)
        trace = sess.run(parsub)
    doall_reference([loop], state, iters)
    for array, want in state.items():
        assert array.to_global().tobytes() == want.tobytes(), array.name
    (est,) = prog.loop_estimates()
    assert trace.message_count() == iters * est.total_messages()
    assert trace.total_bytes() == iters * est.total_bytes()
    return sess, loop


def jacobi(n=12, p=(2, 2)):
    g = ProcessorGrid(p)
    X = DistArray((n, n), g, dist=("block", "block"), name="X")
    F = DistArray((n, n), g, dist=("block", "block"), name="F")
    F.from_global(np.random.default_rng(3).standard_normal((n, n)))
    i, j = loopvars("i j")
    loop = Doall(
        vars=(i, j), ranges=[(1, n - 2), (1, n - 2)], on=Owner(X, (i, j)),
        body=[Assign(X[i, j], 0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1]
                                      + X[i, j - 1]) - F[i, j])],
        grid=g,
    )
    return loop, [X], g


# ----------------------------------------------------------------------
# Scratch: one buffer per statement, plus one per operator pair
# ----------------------------------------------------------------------


@pytest.mark.parametrize("nbatch", [None, 4])
def test_jacobi_plan_owns_one_buffer_per_statement(nbatch):
    loop, _, g = jacobi()
    sess = Session(Machine(n_procs=4), g)
    plan = plan_of(sess, loop, nbatch=nbatch)
    lead = () if nbatch is None else (nbatch,)
    assert [len(bufs) for bufs in plan.scratch] == [1]
    (buf,) = plan.scratch[0]
    assert buf.shape == lead + plan.shape
    assert buf.flags.c_contiguous and buf.dtype == np.float64


def test_two_operator_children_take_a_second_buffer():
    g = ProcessorGrid((2,))
    a, b, c, d, out = (DistArray((10,), g, dist=("block",), name=k)
                       for k in "abcdo")
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(0, 9)], on=Owner(out, (i,)),
                 body=[Assign(out[i], (a[i] + b[i]) * (c[i] + d[i])),
                       Assign(out[i], (a[i] * 2.0 - b[i]) / c[i] + d[i]),
                       Assign(out[i], a[i] * 2.0 - b[i] / c[i])],
                 grid=g)
    plan = plan_of(Session(Machine(n_procs=2), g), loop)
    assert [len(bufs) for bufs in plan.scratch] == [2, 1, 2]


def test_idle_rank_owns_no_scratch():
    g = ProcessorGrid((3,))
    A = DistArray((9,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(0, 4)], on=Owner(A, (i,)),
                 body=[Assign(A[i], A[i] * 3.0 - 1.0)], grid=g)
    plan = plan_of(Session(Machine(n_procs=3), g), loop, rank=2)
    assert plan.n_points == 0 and plan.scratch == [[]] and plan.evals == [None]


@pytest.mark.parametrize("form", ["program", "parsub"])
def test_float32_lhs_over_mixed_operands_bit_identical(form):
    """A float32 lhs fed by float32 and float64 arrays: every subtree
    keeps the dtype numpy gives it, the cast happens in the store."""
    def build():
        g = ProcessorGrid((2,))
        rng = np.random.default_rng(8)
        u = DistArray((16,), g, dist=("block",), dtype=np.float32, name="u")
        w = DistArray((16,), g, dist=("block",), name="w")
        v = DistArray((16,), g, dist=("cyclic",), dtype=np.float32, name="v")
        u.from_global(rng.standard_normal(16))
        w.from_global(rng.standard_normal(16))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 14)], on=Owner(u, (i,)),
                     body=[Assign(v[i], 0.1 * u[i - 1] * 0.3
                                  + (w[i + 1] - 0.3) * u[i])],
                     grid=g)
        return loop, [v], g

    run_checked(build, form=form)


# ----------------------------------------------------------------------
# Workspace elision: where it applies, and where it must not
# ----------------------------------------------------------------------


@pytest.mark.parametrize("form", ["program", "parsub"])
def test_jacobi_reads_f_from_its_block(form):
    sess, loop = run_checked(jacobi, form=form)
    for rank in range(4):
        plan = plan_of(sess, loop, rank)
        assert workspaces(plan) == {"X"}
        # F neither sends nor receives here: it has no read record at all
        assert [a.name for _, a, _, _ in plan.reads] == ["X"]


def test_halo_reference_keeps_the_workspace():
    """F(i+1, j) on a row-block grid: rank 0 receives F's ghost row and
    must keep F's workspace; the last rank receives nothing and reads
    its block."""
    def build():
        g = ProcessorGrid((2, 1))
        X = DistArray((10, 10), g, dist=("block", "block"), name="X")
        F = DistArray((10, 10), g, dist=("block", "block"), name="F")
        F.from_global(np.random.default_rng(4).standard_normal((10, 10)))
        i, j = loopvars("i j")
        loop = Doall(vars=(i, j), ranges=[(1, 8), (1, 8)], on=Owner(X, (i, j)),
                     body=[Assign(X[i, j], X[i, j] * 0.5 + F[i + 1, j] - F[i, j])],
                     grid=g)
        return loop, [X], g

    sess, loop = run_checked(build)
    assert "F" in workspaces(plan_of(sess, loop, 0))
    assert "F" not in workspaces(plan_of(sess, loop, 1))


@pytest.mark.parametrize("form", ["program", "parsub"])
def test_diagonal_reference_keeps_the_workspace(form):
    """D(i, j) alone would read the block; D(i, i) beside it is a gather
    of the workspace, so the workspace stays -- for both references."""
    def build():
        g = ProcessorGrid((2,))
        X = DistArray((8, 8), g, dist=("block", "*"), name="X")
        D = DistArray((8, 8), g, dist=("block", "*"), name="D")
        D.from_global(np.random.default_rng(5).standard_normal((8, 8)))
        i, j = loopvars("i j")
        loop = Doall(vars=(i, j), ranges=[(0, 7), (0, 7)], on=Owner(X, (i, j)),
                     body=[Assign(X[i, j], D[i, j] + D[i, i])], grid=g)
        return loop, [X], g

    sess, loop = run_checked(build, form=form)
    for rank in range(2):
        assert "D" in workspaces(plan_of(sess, loop, rank))


@pytest.mark.parametrize("form", ["program", "parsub"])
def test_strided_reference_keeps_the_workspace(form):
    """A zebra sweep: G(i) over every other point is a strided gather of
    G's workspace, which therefore stays."""
    def build():
        g = ProcessorGrid((2,))
        X = DistArray((16,), g, dist=("block",), name="X")
        G = DistArray((16,), g, dist=("block",), name="G")
        G.from_global(np.arange(16.0) ** 2)
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 13, 2)], on=Owner(X, (i,)),
                     body=[Assign(X[i], G[i] + G[i + 1])], grid=g)
        return loop, [X], g

    sess, loop = run_checked(build, form=form)
    for rank in range(2):
        assert "G" in workspaces(plan_of(sess, loop, rank))


@pytest.mark.parametrize("form", ["program", "parsub"])
def test_array_written_by_another_statement_keeps_the_workspace(form):
    """F is ghost-free and slice-referenced, but the loop's second
    statement writes it: the first must still read F's pre-loop values."""
    def build():
        g = ProcessorGrid((2,))
        X = DistArray((12,), g, dist=("block",), name="X")
        F = DistArray((12,), g, dist=("block",), name="F")
        F.from_global(np.arange(12.0))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(0, 11)], on=Owner(X, (i,)),
                     body=[Assign(X[i], F[i] * 2.0),
                           Assign(F[i], X[i] + F[i] + 1.0)],
                     grid=g)
        return loop, [X, F], g

    sess, loop = run_checked(build, form=form)
    for rank in range(2):
        assert workspaces(plan_of(sess, loop, rank)) == {"X", "F"}


def test_flip_parsub_reads_f_from_its_new_block():
    """flip_churn's shape: f is read from the block, never a captured one,
    so after ``ctx.redistribute`` (new blocks) and a local edit of them,
    each doall sees the values f holds now."""
    g = ProcessorGrid((4,))
    n = 12
    u = DistArray((n, n), g, dist=("*", "block"), name="u")
    f = DistArray((n, n), g, dist=("*", "block"), name="f")
    f.from_global(np.random.default_rng(6).standard_normal((n, n)))
    i, j = loopvars("i j")
    loop = Doall(vars=(i, j), ranges=[(1, n - 2), (1, n - 2)],
                 on=Owner(u, (i, j)),
                 body=[Assign(u[i, j], 0.5 * (u[i, j - 1] + u[i, j + 1])
                              - f[i, j])],
                 grid=g)
    state = {u: u.to_global(), f: f.to_global()}
    sess = Session(Machine(n_procs=4), g)

    def parsub(ctx):
        for dist in (("*", "cyclic"), ("*", "block"), ("*", "cyclic")):
            yield from ctx.doall(loop)
            yield from ctx.redistribute(u, dist)
            yield from ctx.redistribute(f, dist)
            f.local(ctx.rank)[...] *= 1.5
        yield from ctx.doall(loop)

    sess.run(parsub)
    for _ in range(3):
        doall_reference([loop], state, 1)
        state[f] *= 1.5
    doall_reference([loop], state, 1)
    assert u.to_global().tobytes() == state[u].tobytes()
    assert f.to_global().tobytes() == state[f].tobytes()
    assert "f" not in workspaces(plan_of(sess, loop, 1))


# ----------------------------------------------------------------------
# Hazard guard: the scratch never becomes a message payload
# ----------------------------------------------------------------------


@pytest.mark.parametrize("form", ["program", "parsub"])
def test_remote_write_scratch_survives_repeated_sweeps(form):
    """Rank ip computes row 3 - ip of B and ships it to that row's owner.
    If a scatter payload were the scratch itself, freezing it for the
    wire would make the next sweep's ``out=`` raise; five sweeps here."""
    def build():
        g = ProcessorGrid((4,))
        A = DistArray((4, 5), g, dist=("block", "*"), name="A")
        B = DistArray((4, 5), g, dist=("block", "*"), name="B")
        A.from_global(np.random.default_rng(7).standard_normal((4, 5)))
        B.from_global(np.arange(20.0).reshape(4, 5))
        ip, k = loopvars("ip k")
        loop = Doall(vars=(ip, k), ranges=[(0, 3), (0, 4)], on=OnProc(g, (ip,)),
                     body=[Assign(B[3 - ip, k],
                                  0.5 * A[ip, k] + B[3 - ip, k] * 0.25 + 1.0)],
                     grid=g)
        return loop, [B], g

    sess, loop = run_checked(build, iters=5, form=form)
    analysis, _ = sess.plans.analysis(loop, count=False)
    assert analysis.has_remote_writes
    for rank in range(4):
        plan = plan_of(sess, loop, rank)
        assert workspaces(plan) == {"B"}  # A: own row, read from the block
        assert all(buf.flags.writeable for buf in plan.scratch[0])
