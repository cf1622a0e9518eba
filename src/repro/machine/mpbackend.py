"""Shared-memory multiprocessing backend: real parallel replay of
compiled loop programs.

The simulator executes N ranks inside one Python process; this backend
executes them as N *real* forked worker processes, one per grid rank,
and keeps everything else -- results, schedule accounting, and the
cost-model-stamped trace -- bit-identical to the simulator.  This
module owns the worker pool and the shared memory; it never looks
inside a plan, and the run driver and the trace oracle are the ones the
simulator backend uses.  The design executes exactly the frozen
artifacts the compiler already produces:

* **plan shipping**: each rank's frozen
  :class:`~repro.compiler.commgen.StepPlan` (closures, workspaces,
  store coordinates, schedule index arrays) is materialized in the
  parent and inherited by the workers at ``fork`` time -- shipped once
  per plan freeze, never per sweep, and not re-lowered: a worker's
  script is its StepPlans plus the slot table.  The record layout is
  read in one module, :mod:`repro.compiler.schedule`:
  :func:`~repro.compiler.schedule.outgoing` tells the pool which slots
  to allocate and :func:`~repro.compiler.schedule.replay_direct` is the
  sweep the workers run, so wire names, message order and store layout
  are whatever the StepPlan says.  Fork is mandatory: plans contain
  compiled closures that cannot (and should never need to) be pickled.
* **shared-memory array storage**: every distributed array block the
  program touches is *adopted* into a
  :mod:`multiprocessing.shared_memory` segment before the workers fork,
  so worker stores are immediately visible to the parent (``to_global``
  and bindings keep working unchanged) and gather/scatter value vectors
  move through preallocated shared slots -- no pickling, no payload
  copies through a queue, per sweep.
* **steady-state replay as real execution**: a sweep
  (``replay_direct``, fenced by the pool's barrier) is two (three with
  remote writes) phases per loop -- fill the gather slots and do local
  moves; drain slots into workspaces, evaluate the prebound statement
  closures, store; apply incoming scatter values -- separated by one
  barrier (three with remote writes); slots are double-buffered on the
  sweep parity, so no barrier is needed just to reuse them.
  The phase structure realizes the same copy-in/copy-out semantics the
  event-driven simulator enforces through virtual time, so the floats
  are bit-identical.
* **the simulator as trace oracle**: trace *timings* are statements of
  the cost model, not of the host machine, so a frozen loop run takes
  its trace from the oracle both backends share
  (:func:`repro.compiler.schedule.oracle_trace`): the inner reference
  :class:`Machine` runs the compiled replay walk with no data attached
  -- same marks, flops, tags, and byte counts by construction -- once
  per run shape, memoized on the Session.  Cache accounting and the
  call into the oracle are the shared driver's
  (:func:`repro.compiler.schedule.run_frozen_loops`); this backend
  contributes the data plane.

Generic (non-loop) node programs -- parsub routines, hand-written
message passing -- are delegated to the inner simulator unchanged:
generators close over arbitrary shared state and are exactly what the
reference backend exists to execute.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import traceback
import weakref
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable

import numpy as np

from repro.compiler.schedule import outgoing, replay_direct, run_frozen_loops
from repro.lang.array import storage_of
from repro.machine.backend import Backend, NodeProgram
from repro.machine.costmodel import CostModel
from repro.machine.simulator import Machine
from repro.machine.topology import Topology
from repro.machine.trace import Trace
from repro.util.errors import MachineError, ValidationError

#: Live worker pools, closed at interpreter exit as a safety net (the
#: backend closes its pool deterministically; this catches abandoned
#: backends so shared-memory segments never outlive the parent).
_ALL_POOLS: "weakref.WeakSet[_WorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_all_pools() -> None:  # pragma: no cover - interpreter exit
    for pool in list(_ALL_POOLS):
        pool.close()


#: Fault injection: ``{"rank": r, "sweep": s, "action": a}`` makes
#: worker ``r`` fail at the start of its ``s``-th sweep (counted across
#: runs within one pool's life) -- ``"raise"`` raises inside the sweep
#: driver (the worker reports a traceback), ``"exit"`` kills the
#: process outright (``os._exit``, no goodbye on the pipe).  An
#: optional ``"delay_s"`` sleeps before failing (a slow death: peers
#: block in the barrier for that long, modeling delayed recovery).
#: Workers inherit the value at fork time, so set it *before* the pool
#: spawns and clear it after; ``None`` (the default) is dead code on
#: the hot path.  The supported way to drive this is the
#: :mod:`repro.faults` chaos API, which also arms :data:`_FAULT_OBSERVER`
#: to count firings and disarm transient faults.
_FAULT_INJECTION: dict | None = None

#: Parent-side hook called with the sorted failed-rank tuple whenever a
#: pool run fails, *before* the MachineError is raised.  Installed by
#: :mod:`repro.faults` to implement fault budgets (``times=``); ``None``
#: means no observer.
_FAULT_OBSERVER = None


def _maybe_inject_fault(rank: int, sweeps_done: int) -> None:
    spec = _FAULT_INJECTION
    if not spec:
        return
    target = spec.get("rank")
    if rank != target and not (
        not isinstance(target, int) and rank in target
    ):
        return
    if sweeps_done != spec.get("sweep", 0):
        return
    delay = spec.get("delay_s", 0.0)
    if delay:
        time.sleep(delay)
    if spec.get("action") == "exit":
        os._exit(1)
    raise RuntimeError(
        f"injected fault on rank {rank} at sweep {sweeps_done}"
    )


class MultiprocessingBackend(Backend):
    """Execute compiled loop programs on real shared-memory workers.

    Wraps an inner reference :class:`~repro.machine.simulator.Machine`
    that defines the modeled hardware (topology, cost model) and serves
    as the trace oracle.  ``run`` on arbitrary node programs delegates
    to it; the parallel fast path (:meth:`run_loops`) engages for
    frozen loop :class:`~repro.session.Program` replays, which
    ``Program.run(backend=...)`` routes here.

    One persistent worker pool is kept per backend, keyed on the plan
    identities, array layout epochs, and grid of the last program run;
    running a different program (or redistributing an array) tears the
    pool down and respawns against the new frozen plans.  Call
    :meth:`close` (or use the backend as a context manager) to release
    the workers and shared-memory segments deterministically.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        *,
        n_procs: int | None = None,
        topology: Topology | None = None,
        cost: CostModel | None = None,
    ):
        if machine is None:
            machine = Machine(n_procs=n_procs, topology=topology, cost=cost)
        elif n_procs is not None or topology is not None or cost is not None:
            raise ValidationError(
                "pass either a machine or its parameters, not both"
            )
        #: the inner reference simulator: defines topology/cost, runs
        #: generic node programs, and produces the oracle traces
        self.machine = machine
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise ValidationError(
                "the multiprocessing backend requires the 'fork' start "
                "method (compiled plans hold closures that cannot be "
                "pickled); this platform does not provide it"
            ) from None
        self._pool: _WorkerPool | None = None

    # -- Backend surface ---------------------------------------------------

    @property
    def topology(self) -> Topology:  # type: ignore[override]
        return self.machine.topology

    @property
    def cost(self) -> CostModel:  # type: ignore[override]
        return self.machine.cost

    def run(
        self,
        programs: dict[int, NodeProgram] | Callable[[int], NodeProgram],
        ranks: Iterable[int] | None = None,
        trace: Trace | None = None,
    ) -> Trace:
        """Run arbitrary node programs on the inner reference machine.

        Generator node programs close over shared in-process state
        (arrays, caches, rendezvous actions), so the reference
        semantics *is* their parallel semantics; only frozen loop
        replays (:meth:`run_loops`) have the data-flow structure that
        lowers onto real processes.
        """
        return self.machine.run(programs, ranks=ranks, trace=trace)

    # -- the parallel fast path --------------------------------------------

    def run_loops(
        self,
        session,
        loops,
        grid,
        *,
        iters: int = 1,
        overlap: bool = False,
        marks: str | None = None,
    ) -> Trace:
        """Replay a frozen loop program with real parallel workers.

        The driver is the one the simulator backend uses
        (:func:`~repro.compiler.schedule.run_frozen_loops`: cache
        accounting, then the oracle trace of the inner machine); only
        the data plane differs -- the worker pool executes ``iters``
        sweeps.  The caller (``Program.run``) records the trace in the
        session history.
        """
        return run_frozen_loops(
            session, self.machine, loops, grid,
            lambda analyses: self._ensure_pool(analyses, grid).run_sweeps(iters),
            iters=iters, overlap=overlap, marks=marks,
        )

    # -- worker pool management --------------------------------------------

    def _ensure_pool(self, analyses, grid) -> "_WorkerPool":
        key = _pool_key(analyses, grid)
        pool = self._pool
        if pool is not None:
            if pool.key == key and pool.alive():
                return pool
            pool.close()
            self._pool = None
        pool = _WorkerPool(self._mp, analyses, grid, key)
        self._pool = pool
        return pool

    def close(self) -> None:
        """Release the worker pool and its shared-memory segments.

        Array blocks adopted into shared memory are copied back into
        private storage first, so the arrays stay fully usable.  The
        backend itself remains usable: the next ``run_loops`` respawns
        a pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "MultiprocessingBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiprocessingBackend({self.machine!r}, "
            f"pool={'up' if self._pool is not None else 'down'})"
        )


# ----------------------------------------------------------------------
# Worker pool: shared-memory adoption, slot table, forked rank workers
# ----------------------------------------------------------------------


def _pool_key(analyses, grid) -> tuple:
    """Identity of the frozen state a pool was built against.

    Embeds the analysis identities (the plans shipped at fork time) and
    every touched array's storage identity + layout epoch, so a
    redistribution -- or a different program -- forces a respawn
    against fresh plans and fresh block adoption.
    """
    arrays = []
    seen: set[int] = set()
    for analysis in analyses:
        for arr in analysis.loop.arrays():
            base = storage_of(arr)
            if id(base) not in seen:
                seen.add(id(base))
                arrays.append(base)
    return (
        grid.key(),
        tuple(id(a) for a in analyses),
        tuple((id(arr), arr.comm_epoch) for arr in arrays),
    )


def _worker_main(rank: int, conn, barrier, script: list[tuple]) -> None:
    """Persistent rank worker: drive sweeps on command until told to exit.

    ``script`` is the rank's ``(StepPlan, slots of that loop, loop has
    remote writes)`` per loop, inherited at fork; the sweep itself is
    :func:`repro.compiler.schedule.replay_direct`, fenced by the pool's
    barrier and alternating slot halves on the sweep parity.
    """
    sweeps_done = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "exit":
            return
        if msg[0] != "run":  # pragma: no cover - defensive
            conn.send(("err", rank, f"unknown command {msg!r}"))
            continue
        try:
            for _ in range(msg[1]):
                _maybe_inject_fault(rank, sweeps_done)
                for plan, slots, has_remote in script:
                    replay_direct(
                        plan, slots, has_remote, barrier.wait, sweeps_done & 1
                    )
                sweeps_done += 1
            conn.send(("ok", rank))
        except Exception:
            # break the other ranks out of their barriers, then report
            try:
                barrier.abort()
            except Exception:  # pragma: no cover - defensive
                pass
            conn.send(("err", rank, traceback.format_exc()))


class _WorkerPool:
    """Forked rank workers + the shared-memory state they execute on."""

    def __init__(self, mp, analyses, grid, key: tuple):
        self.key = key
        self.ranks = list(grid.linear)
        self._closed = False
        self._segments: list[shared_memory.SharedMemory] = []
        # (storage array, rank, shm view, original private block)
        self._adopted: list[tuple] = []
        # per loop: (wire, src, dst) -> shm slot, parity axis first
        self._slots: list[dict[tuple, np.ndarray]] = []
        self._procs: dict[int, Any] = {}
        self._pipes: dict[int, Any] = {}
        self._barrier = mp.Barrier(len(self.ranks))
        _ALL_POOLS.add(self)
        try:
            self._adopt_arrays(analyses)
            self._build_slots(analyses)
            # materialize every rank's script *before* the first fork so
            # all workers inherit identical frozen state
            scripts = {
                rank: [
                    (analysis.step_plan(rank), slots, analysis.has_remote_writes)
                    for analysis, slots in zip(analyses, self._slots)
                ]
                for rank in self.ranks
            }
            for rank in self.ranks:
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=_worker_main,
                    args=(rank, child_conn, self._barrier, scripts[rank]),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs[rank] = proc
                self._pipes[rank] = parent_conn
        except BaseException:
            self.close()
            raise

    # -- shared-memory adoption -------------------------------------------

    def _shm_ndarray(self, shape, dtype) -> np.ndarray:
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        seg = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._segments.append(seg)
        return np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    def _adopt_arrays(self, analyses) -> None:
        """Move every touched array's blocks into shared memory.

        The shm-backed view *replaces* the private block in the array's
        own ``_blocks`` dict, so the parent's bindings (``from_global``)
        and reads (``to_global``) flow through shared memory untouched
        -- and the forked workers observe binding writes made between
        runs.  ``close`` copies the contents back and restores the
        private blocks.
        """
        seen: set[int] = set()
        for analysis in analyses:
            for arr in analysis.loop.arrays():
                storage = storage_of(arr)
                if id(storage) in seen:
                    continue
                seen.add(id(storage))
                for rank, block in list(storage._blocks.items()):
                    view = self._shm_ndarray(block.shape, block.dtype)
                    view[...] = block
                    storage._blocks[rank] = view
                    self._adopted.append((storage, rank, view, block))

    def _build_slots(self, analyses) -> None:
        """One shared slot per frozen message: the wire, minus the wire.

        One dict per loop, keyed ``(wire_kind, src, dst)`` from what each
        sender's plan reports through
        :func:`~repro.compiler.schedule.outgoing` -- the same records
        ``replay_direct`` walks, so wire names are defined once, by the
        plan.  Each schedule sends at most one message per (destination,
        wire) per sweep, so a slot half is written exactly once between
        barriers.  The leading axis of extent 2 is the sweep parity the
        workers alternate between.
        """
        for analysis in analyses:
            slots = {}
            for rank in self.ranks:
                for wire, dst, shape, dtype in outgoing(analysis.step_plan(rank)):
                    slots[wire, rank, dst] = self._shm_ndarray((2,) + shape, dtype)
            self._slots.append(slots)

    # -- driving ----------------------------------------------------------

    def alive(self) -> bool:
        return (
            not self._closed
            and bool(self._procs)
            and all(p.is_alive() for p in self._procs.values())
        )

    def run_sweeps(self, iters: int) -> None:
        """Execute ``iters`` full sweeps (all loops, in order) on all ranks.

        Completions are collected round-robin over every outstanding
        rank, never blocking on one: a rank killed outright (e.g. by
        the OOM killer, or the fault-injection tests' ``os._exit``)
        leaves its *peers* stuck in the sweep barrier, so waiting on
        ranks in order would deadlock on the first stuck peer and never
        reach the dead one.  The first death detected aborts the
        barrier, which breaks the peers out (they report
        BrokenBarrierError tracebacks); every failure is then raised as
        one MachineError with per-rank sections.
        """
        if self._closed:
            raise MachineError("worker pool is closed")
        for conn in self._pipes.values():
            conn.send(("run", iters))
        failures: list[tuple[int, str]] = []
        pending = dict(self._pipes)
        while pending:
            for rank in list(pending):
                conn = pending[rank]
                if conn.poll(0.05):
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        # poll() also returns True on EOF: the worker
                        # died between finishing a send and our read,
                        # or without sending at all
                        failures.append(
                            (rank, "worker process died (pipe closed)")
                        )
                        self._abort_barrier()
                    else:
                        if msg[0] == "err":
                            failures.append((rank, msg[2]))
                    del pending[rank]
                elif not self._procs[rank].is_alive():
                    failures.append((rank, "worker process died"))
                    # release peers stuck waiting for the dead rank
                    self._abort_barrier()
                    del pending[rank]
        if failures:
            self.close()
            failed_ranks = tuple(sorted(rank for rank, _ in failures))
            observer = _FAULT_OBSERVER
            if observer is not None:
                try:
                    observer(failed_ranks)
                except Exception:  # pragma: no cover - defensive
                    pass
            detail = "\n".join(
                f"-- rank {rank} --\n{tb}" for rank, tb in failures
            )
            err = MachineError(
                "multiprocessing backend worker failure:\n" + detail
            )
            #: consumed by the Supervisor's RecoveryLog
            err.failed_ranks = failed_ranks
            raise err

    def _abort_barrier(self) -> None:
        try:
            self._barrier.abort()
        except Exception:  # pragma: no cover - defensive
            pass

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Stop workers, un-adopt arrays, release shared memory."""
        if self._closed:
            return
        self._closed = True
        for conn in self._pipes.values():
            try:
                conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._pipes.values():
            conn.close()
        # drop every parent-side reference into the segments (Process
        # objects hold the scripts via their args) before closing them
        self._procs = {}
        self._pipes = {}
        self._slots = []
        for storage, rank, view, block in self._adopted:
            if storage._blocks.get(rank) is view:
                block[...] = view
                storage._blocks[rank] = block
        self._adopted = []
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
