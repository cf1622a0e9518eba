"""The multiprocessing backend and the simulator-fidelity fixes it exposed.

Building a second backend that must match the simulator bit-for-bit
turned several latent simulator behaviors into contracts:

* published trace records are immutable -- consume times are stamped by
  rebuilding, never mutating;
* ``_snapshot`` accepts read-only views whose whole base chain is
  frozen, without weakening copy semantics for views of live storage;
* :class:`~repro.util.errors.DeadlockError` reports what every stuck
  rank waits on -- a receive, a barrier or a doall's grid rendezvous --
  and its undelivered mailbox keys, so cross-backend protocol drift is
  diagnosable from the exception alone.

Bit-identity of the backend itself (results, traces, accounting) is
pinned in ``tests/compiler/test_stepplan.py``, parametrized over
backends; this file covers the backend's machinery and those contracts.
"""

import numpy as np
import pytest

import repro
from repro import (
    DistArray,
    Machine,
    MultiprocessingBackend,
    ProcessorGrid,
    Session,
)
from repro.lang import Assign, Doall, Owner, loopvars
from repro.machine.ops import Barrier, Recv, Send, frozen_by_value
from repro.machine.simulator import _snapshot
from repro.machine.trace import Trace
from repro.util.errors import DeadlockError, ValidationError


def jacobi_program(n, w, backend=None, session_kw=()):
    grid = ProcessorGrid((w, 1))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    F.from_global(np.random.default_rng(7).standard_normal((n, n)))
    i, j = loopvars("i j")
    loop = Doall(
        vars=(i, j), ranges=[(1, n - 2), (1, n - 2)], on=Owner(X, (i, j)),
        body=[Assign(
            X[i, j],
            0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1])
            - F[i, j],
        )],
        grid=grid,
    )
    sess = Session(Machine(n_procs=w), grid, backend=backend,
                   **dict(session_kw))
    return repro.compile(loop, session=sess), X


# ----------------------------------------------------------------------
# Backend selection and lifecycle
# ----------------------------------------------------------------------


def test_backend_validation():
    with pytest.raises(ValidationError, match="unknown backend"):
        Session(backend="threads")
    sess = Session(Machine(n_procs=2), ProcessorGrid((2,)))
    with pytest.raises(ValidationError, match="unknown backend"):
        sess.run(lambda ctx: iter(()), backend="threads")
    with pytest.raises(ValidationError, match="not both"):
        MultiprocessingBackend(Machine(n_procs=2), n_procs=2)


def test_backend_instance_supplies_machine():
    """An explicit Backend instance stands in for the machine it wraps."""
    with MultiprocessingBackend(n_procs=2) as backend:
        assert backend.n_procs == 2
        grid = ProcessorGrid((2,))
        X = DistArray((10,), grid, dist=("block",), name="X")
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 8)], on=Owner(X, (i,)),
                     body=[Assign(X[i], X[i - 1] + 1.0)], grid=grid)
        sess = Session(grid=grid, backend=backend)
        prog = repro.compile(loop, session=sess)
        trace = prog.run()
        assert trace.message_count() > 0
        assert sess.runs == 1


def test_pool_persists_across_runs_and_close_restores_blocks():
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    prog.run(iters=2)
    backend = prog.session._mp_backend
    pool = backend._pool
    assert pool is not None and pool.alive()
    prog.run(iters=2)
    assert backend._pool is pool, "steady-state reruns must reuse the pool"
    result = X.to_global().copy()
    backend.close()
    assert backend._pool is None
    # blocks were un-adopted: data survives, and further runs respawn
    np.testing.assert_array_equal(X.to_global(), result)
    prog.run(iters=1)
    assert backend._pool is not None and backend._pool is not pool
    backend.close()


def test_mp_accounting_matches_simulator():
    pa, _ = jacobi_program(12, 2, backend=None)
    pb, _ = jacobi_program(12, 2, backend="multiprocessing")
    for iters in (3, 1, 4):
        pa.run(iters=iters)
        pb.run(iters=iters)
    pb.session._mp_backend.close()
    assert pa.session.stats() == pb.session.stats()
    assert pa.session.hit_rates() == pb.session.hit_rates()


def test_mp_generic_run_delegates_to_inner_machine():
    backend = MultiprocessingBackend(n_procs=2)

    def sender():
        yield Send(1, np.arange(3.0), tag="t")

    def receiver():
        got = yield Recv(src=0, tag="t")
        np.testing.assert_array_equal(got, np.arange(3.0))

    trace = backend.run({0: sender(), 1: receiver()})
    assert trace.message_count() == 1
    backend.close()


# ----------------------------------------------------------------------
# Fault injection: workers dying mid-sweep fail loudly and recover
# ----------------------------------------------------------------------


@pytest.fixture
def inject_fault():
    """Arm the backend's test-only fault hook; always disarmed after.

    Workers inherit the spec at *fork* time, so arm before the first
    run (or close the pool so it respawns armed).
    """
    from repro.machine import mpbackend

    def arm(**spec):
        mpbackend._FAULT_INJECTION = spec

    yield arm
    mpbackend._FAULT_INJECTION = None


def test_worker_exception_reports_per_rank_traceback(inject_fault):
    """A worker raising mid-sweep: MachineError with that rank's full
    traceback, peers broken out of the barrier, nothing hangs."""
    from repro.util.errors import MachineError

    inject_fault(rank=1, sweep=1, action="raise")
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    with pytest.raises(MachineError) as exc_info:
        prog.run(iters=3)
    msg = str(exc_info.value)
    assert "-- rank 1 --" in msg
    assert "injected fault on rank 1 at sweep 1" in msg
    assert "RuntimeError" in msg, "per-rank sections carry the traceback"


def test_worker_killed_outright_fails_loudly_not_hangs(inject_fault):
    """A worker dying without a goodbye (os._exit, as the OOM killer
    would): the parent must detect the death, break the surviving
    ranks out of the sweep barrier, and raise -- never deadlock."""
    from repro.util.errors import MachineError

    inject_fault(rank=1, sweep=0, action="exit")
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    with pytest.raises(MachineError) as exc_info:
        prog.run(iters=2)
    msg = str(exc_info.value)
    assert "-- rank 1 --" in msg
    assert "died" in msg


def test_pool_respawns_cleanly_after_worker_failure(inject_fault):
    """After a failure closed the pool, the next run respawns workers
    and produces correct results (matching the simulator)."""
    from repro.machine import mpbackend
    from repro.util.errors import MachineError

    inject_fault(rank=0, sweep=0, action="raise")
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    with pytest.raises(MachineError):
        prog.run(iters=2)
    backend = prog.session._mp_backend
    failed_pool = backend._pool
    assert failed_pool is None or not failed_pool.alive(), \
        "a failed pool must be torn down"
    mpbackend._FAULT_INJECTION = None

    ref, Xr = jacobi_program(12, 2, backend=None)
    ref.run(iters=2)
    prog.run(iters=2)
    assert backend._pool is not None and backend._pool.alive()
    assert backend._pool is not failed_pool
    np.testing.assert_array_equal(X.to_global(), Xr.to_global())
    backend.close()


def test_fault_hook_inert_when_disarmed():
    """The hook's disarmed state is the hot path: no behavior change."""
    from repro.machine.mpbackend import _maybe_inject_fault

    _maybe_inject_fault(0, 0)  # no spec: returns without effect
    pa, Xa = jacobi_program(12, 2, backend=None)
    pb, Xb = jacobi_program(12, 2, backend="multiprocessing")
    pa.run(iters=2)
    pb.run(iters=2)
    pb.session._mp_backend.close()
    np.testing.assert_array_equal(Xa.to_global(), Xb.to_global())


# ----------------------------------------------------------------------
# One barrier per sweep: parity slots instead of a slot-reuse fence
# ----------------------------------------------------------------------


def trace_sig(trace):
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


def test_single_barrier_survives_rank_skew():
    """One rank dawdles in its eval on alternating sweeps, so its peer
    is a whole fill ahead of it half the time: with one barrier per
    sweep the peer's next fill must land in the other slot half, never
    in the one the slow rank has yet to drain."""
    import time

    ref, Xr = jacobi_program(12, 2, backend=None)
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    analysis, _ = prog.session.plans.analysis(prog.loops[0], count=False)
    evals = analysis.step_plan(1).evals  # inherited by rank 1's worker at fork
    fn, calls = evals[0], [0]

    def slow_every_other_sweep(block_of):
        calls[0] += 1
        if calls[0] % 2:
            time.sleep(0.002)
        return fn(block_of)

    evals[0] = slow_every_other_sweep
    want, got = ref.run(iters=60), prog.run(iters=60)
    prog.session._mp_backend.close()
    np.testing.assert_array_equal(X.to_global(), Xr.to_global())
    assert trace_sig(got) == trace_sig(want)


@pytest.mark.parametrize("remote,per_sweep", [(False, 1), (True, 3)])
def test_run_step_barrier_count(remote, per_sweep):
    """replay_direct fences once per sweep for a loop without remote
    writes and three times with: counted on the real plans, one thread
    per rank, against the simulator's result."""
    import threading

    from repro.compiler.schedule import outgoing, replay_direct

    def program():
        g = ProcessorGrid((4,))
        A = DistArray((17,), g, dist=("block",), name="A")
        B = DistArray((17,), g, dist=("cyclic" if remote else "block",), name="B")
        A.from_global(np.arange(17.0))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 15)], on=Owner(A, (i,)),
                     body=[Assign(B[i], A[i - 1] + 2.0 * A[i + 1])], grid=g)
        sess = Session(Machine(n_procs=4), g)
        return repro.compile(loop, session=sess), B, g

    (prog, B, g), (ref, Br, _) = program(), program()
    ref.run(iters=3)

    analysis, _ = prog.session.plans.analysis(prog.loops[0], count=False)
    assert analysis.has_remote_writes == remote
    slots = {
        (wire, rank, dst): np.zeros((2,) + shape, dtype)
        for rank in g.linear
        for wire, dst, shape, dtype in outgoing(analysis.step_plan(rank))
    }

    waits = {r: 0 for r in g.linear}
    barrier = threading.Barrier(g.size)

    def worker(rank):
        def fence():
            waits[rank] += 1
            barrier.wait(timeout=30)

        for sweep in range(3):
            replay_direct(analysis.step_plan(rank), slots, remote, fence, sweep & 1)

    threads = [threading.Thread(target=worker, args=(r,)) for r in g.linear]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert waits == {r: 3 * per_sweep for r in g.linear}
    np.testing.assert_array_equal(B.to_global(), Br.to_global())


def test_mpbackend_names_no_plan_record():
    """Tier-1 guard: the StepPlan record layout and the sweep's phase
    order are known to compiler/schedule.py alone (outgoing / the phase
    walk); the backends own the pool, the shm and the event loop."""
    import pathlib
    import re

    from repro.machine import mpbackend, simulator

    records = re.compile(r"\.(reads|stores|evals|sends|recvs|self_src|self_dst)\b")
    offenders = [
        f"{path}:{lineno}: {line.strip()}"
        for path in (pathlib.Path(m.__file__) for m in (mpbackend, simulator))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if records.search(line)
    ]
    assert not offenders, (
        "a backend reads a plan record (walk it in compiler/schedule.py):\n"
        + "\n".join(offenders)
    )


def test_generator_walk_is_single_run_and_drivers_are_gone():
    """Tier-1 guard: the generator knows nothing of the batch prefix
    and moves no data (the direct phase walk owns both), the sweep
    drivers the shared frozen-loop driver replaced stay deleted, and so
    do the value-carrying repartition executor and its staging hooks,
    and the value-carrying gather executor with its schedule cache and
    the run ids that scoped it, and the rank translation that drove one
    line-solve generator per line, and the process-global memos and
    value-carrying drives of the grid collectives and Fourier-Poisson."""
    import inspect

    from repro.compiler import schedule

    source = inspect.getsource(schedule._replay)
    assert "lead" not in source and ".flat" not in source
    assert not hasattr(schedule, "replay_batch_analysis")
    assert not hasattr(schedule, "replay_sweeps")
    # the generator moves no data: every doall's values come from the
    # direct phase walk
    for name in ("block_of", ".evals", "freeze_payload"):
        assert name not in source, name
    assert not hasattr(schedule, "replay_analysis")
    # nor does a redistribution's: its plan moves the values at the
    # rendezvous, and the gather cache knows nothing of repartitions
    from repro.compiler import commsched
    from repro.lang import DistArray

    assert not hasattr(commsched, "execute_repartition")
    assert not hasattr(DistArray, "_stage_repartition")
    assert commsched.DIRECTIONS == ("gather", "scatter")
    # an irregular gather's plan moves its values at the rendezvous too
    for name in ("ScheduleCache", "_CallDecision", "build_gather_schedule",
                 "execute_gather", "execute_transfer", "freeze_payload",
                 "schedule_key"):
        assert not hasattr(commsched, name), name
    from repro.lang import context

    assert not hasattr(context, "next_run_id")
    assert "run_id" not in inspect.signature(context.KaliCtx).parameters
    assert not hasattr(Session(), "cache")
    # a line solve's plan moves its values at the rendezvous too
    import importlib.util

    from repro import machine
    from repro.kernels.pipelined import pipelined_node_program

    assert importlib.util.find_spec("repro.machine.translate") is None
    assert not hasattr(machine, "translate_ranks")
    assert "sys_ids" not in inspect.signature(pipelined_node_program).parameters
    # the grid collectives and Fourier-Poisson move their values at a
    # rendezvous too: no tree-table cache, no value-carrying scatter,
    # allgather or message barrier, no per-column FFT drive, and no
    # process-global routing memo behind the reference kernels
    from repro.kernels import substructured, thomas
    from repro.machine import collectives
    from repro.tensor import fourier_poisson

    for name in ("get_tree_table", "tree_table_stats", "clear_tree_tables",
                 "scatter", "allgather", "barrier_via_messages"):
        assert not hasattr(collectives, name), name
    for name in ("_ROUTING_CACHE", "clear_routing_cache"):
        assert not hasattr(substructured, name), name
    assert "_fft_column" not in inspect.getsource(fourier_poisson)
    assert not hasattr(thomas, "thomas_solve_many")


# ----------------------------------------------------------------------
# The trace oracle pins no analysis the plan cache let go of
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", [None, "multiprocessing"])
def test_oracle_pins_no_superseded_analysis(backend):
    """A loop's analysis (its per-rank StepPlans and their workspaces
    with it) belongs to its plan-cache entry alone; the oracle keys on
    stable facts and holds a Trace template and the Machine.  So an
    analysis must die by refcount -- no collection -- the moment the
    plan cache lets go: evicted by LRU (a one-entry cache, so every flip
    to the other layout evicts the one left behind) or purged by a
    manual ``invalidate_schedules()``.  The mp row keeps one explicit
    backend alive throughout."""
    import gc
    import weakref

    n = 33
    grid = ProcessorGrid((2,))
    u = DistArray((n, n), grid, dist=("*", "block"), name="u")
    f = DistArray((n, n), grid, dist=("*", "block"), name="f")
    f.from_global(np.random.default_rng(3).standard_normal((n, n)))
    i, j = loopvars("i j")
    loop = Doall(
        vars=(i, j), ranges=[(1, n - 2), (1, n - 2)], on=Owner(u, (i, j)),
        body=[Assign(u[i, j], 0.5 * (u[i, j - 1] + u[i, j + 1]) - f[i, j])],
        grid=grid,
    )
    mp = MultiprocessingBackend(n_procs=2) if backend else None
    sess = Session(Machine(n_procs=2) if mp is None else None, grid,
                   backend=mp, max_plan_entries=1)
    prog = repro.compile(loop, session=sess)
    dead = []

    def run_and_watch():
        prog.run(iters=2)
        analysis, _ = sess.plans.analysis(loop, count=False)
        dead.append(weakref.ref(analysis))
        sess.close_backend()

    gc.disable()
    try:
        for flip in range(6):
            run_and_watch()
            layout = ("*", "cyclic") if flip % 2 == 0 else ("*", "block")
            u.redistribute(layout)
            f.redistribute(layout)
        run_and_watch()
        evicted = sum(ref() is None for ref in dead[:-1])
        assert dead[-1]() is not None and len(sess.plans) == 1
        u.invalidate_schedules()
        purged = dead[-1]() is None
    finally:
        gc.enable()
        sess.close_backend()
    assert evicted == 6, f"{6 - evicted} of 6 LRU-evicted analyses still referenced"
    assert purged and len(sess.plans) == 0, "manual invalidation left the analysis alive"


# ----------------------------------------------------------------------
# Trace records: stamped by rebuilding, never by mutation
# ----------------------------------------------------------------------


def test_stamp_recv_rebuilds_record_never_mutates():
    """A caller observing the trace mid-run holds the published record;
    stamping the consume time must replace the list entry, leaving the
    observed object (and its hash) untouched."""
    trace = Trace(n_procs=2)
    captured = {}

    def sender():
        yield Send(1, np.arange(3.0), tag="t")
        # the send is published (and the receiver has not run yet):
        # grab the record exactly as a mid-run observer would
        captured["rec"] = trace.messages[0]
        captured["hash"] = hash(captured["rec"])

    def receiver():
        yield Recv(src=0, tag="t")

    Machine(n_procs=2).run({0: sender(), 1: receiver()}, trace=trace)
    old = captured["rec"]
    assert old.t_recv is None, "published record was mutated in place"
    assert hash(old) == captured["hash"]
    new = trace.messages[0]
    assert new is not old
    assert new.t_recv is not None
    assert (new.src, new.dst, new.tag, new.nbytes, new.hops,
            new.t_send, new.t_arrive) == (
        old.src, old.dst, old.tag, old.nbytes, old.hops,
        old.t_send, old.t_arrive)


# ----------------------------------------------------------------------
# Snapshot: frozen base chains pass through, live views copy
# ----------------------------------------------------------------------


def test_snapshot_accepts_views_of_frozen_base():
    """A read-only view of a frozen owning array is by-value already:
    no surviving reference can mutate it, so _snapshot may not copy
    it."""
    frozen = np.arange(10.0)
    frozen.flags.writeable = False
    view = frozen[2:6]
    assert not view.flags.writeable and view.base is frozen
    assert frozen_by_value(view)
    assert _snapshot(view) is view
    # chains of views resolve through to the owning array
    deeper = view[1:3]
    assert frozen_by_value(deeper)
    assert _snapshot(deeper) is deeper


def test_snapshot_still_copies_readonly_views_of_live_storage():
    """The other half of the contract, unweakened: read-only is not
    by-value when anything up the base chain is writable."""
    live = np.zeros(6)
    readonly = live[1:5].view()
    readonly.flags.writeable = False
    assert not frozen_by_value(readonly)
    snap = _snapshot(readonly)
    live[:] = 9.0
    np.testing.assert_array_equal(snap, np.zeros(4))


# ----------------------------------------------------------------------
# Deadlock diagnostics: pending mailbox keys
# ----------------------------------------------------------------------


def test_deadlock_error_lists_pending_mailbox_keys():
    """A tag near-miss hangs the receiver; the exception must show the
    message sitting undelivered in its mailbox."""
    def sender():
        yield Send(1, np.zeros(2), tag="right")

    def receiver():
        yield Recv(src=0, tag="wrong")

    with pytest.raises(DeadlockError) as exc_info:
        Machine(n_procs=2).run({0: sender(), 1: receiver()})
    err = exc_info.value
    assert err.blocked[1] == (0, "wrong")
    assert err.pending[1] == [(0, "right")]
    message = str(err)
    assert "undelivered mailbox" in message
    assert "'right'" in message


def test_deadlock_error_empty_mailbox_reported():
    def receiver():
        yield Recv(src=1, tag="never")

    def other():
        yield Recv(src=0, tag="never")

    with pytest.raises(DeadlockError) as exc_info:
        Machine(n_procs=2).run({0: receiver(), 1: other()})
    err = exc_info.value
    assert err.pending == {0: [], 1: []}
    assert "undelivered mailbox: empty" in str(err)


def test_deadlock_error_names_barrier_and_receive_waits():
    """A hang with one rank in a barrier and one on a receive names
    both, each with what it waits on."""
    def in_barrier():
        yield Barrier(group=(0, 1), tag="sync")

    def receiver():
        yield Recv(src=0, tag="never")

    with pytest.raises(DeadlockError) as exc_info:
        Machine(n_procs=2).run({0: in_barrier(), 1: receiver()})
    err = exc_info.value
    assert err.blocked == {0: ("barrier", "sync", (0, 1)), 1: (0, "never")}
    message = str(err)
    assert "proc 0: waiting in barrier(tag='sync', group=(0, 1))" in message
    assert "proc 1: waiting on recv(src=0, tag='never')" in message


def test_parsub_needing_a_message_sent_after_the_peers_doall_deadlocks():
    """The rendezvous rule: every rank of a loop's grid reaches the
    doall before any rank leaves it.  Rank 1 waits, before its doall,
    for a message rank 0 sends only after its own doall -- rank 0 is
    parked at the doall's rendezvous, and the error names it there."""
    g = ProcessorGrid((2,))
    u = DistArray((8,), g, dist=("block",), name="u")
    v = DistArray((8,), g, dist=("block",), name="v")
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(0, 7)], on=Owner(u, (i,)),
                 body=[Assign(u[i], 2.0 * v[i])], grid=g)

    def program(ctx):
        if ctx.rank == 1:
            yield Recv(0, "late")
        yield from ctx.doall(loop)
        if ctx.rank == 0:
            yield Send(1, None, "late")

    with pytest.raises(DeadlockError) as exc_info:
        Session(Machine(n_procs=2), g).run(program)
    err = exc_info.value
    assert err.blocked == {
        0: ("rendezvous", (("kali", (0, 1), 0), "doall"), (0, 1)),
        1: (0, "late"),
    }
    assert "proc 0: waiting in rendezvous(tag=(('kali', (0, 1), 0), 'doall'), " \
        "group=(0, 1))" in str(err)
