"""Deterministic event-driven simulator for the multicomputer.

Each processor runs a node program (a generator of ops).  The simulator
keeps a priority queue of resume/arrival events keyed on
``(time, sequence)`` so runs are exactly reproducible.  When every live
processor is blocked -- on a receive, in a barrier, or at a doall's
rendezvous -- and no message is in flight, a
:class:`~repro.util.errors.DeadlockError` is raised naming each stuck
processor and what it was waiting for -- the failure mode the paper
calls out as endemic to hand-written message passing code.

A :class:`~repro.machine.ops.Rendezvous` parks each rank of its group
until the last one arrives, runs its action once over every rank's
payload, and resumes every rank at its own clock with the value the
action returned for it.  A rank released at a clock earlier than events
already processed sends into mailboxes that may hold later arrivals, so
a wildcard receive whose candidates straddle a rendezvous can match in
another order than it would without one.

Sends are asynchronous: the sender pays only its injection overhead and
the message flies while the sender keeps executing.  Communication/
computation overlap therefore falls out of op ordering alone -- a node
program that yields a Compute op between posting its sends and blocking
on its receives (the overlap-aware doall executor's split interior/
boundary Compute ops) advances its clock during the flight time, and a
later Recv of an already-arrived message costs nothing.  The simulator
needs no special overlap mode; :meth:`Trace.overlap_fraction` measures
how much compute the schedule actually hid.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Hashable, Iterable

import numpy as np

from repro.machine.backend import Backend
from repro.machine.costmodel import CostModel
from repro.machine.ops import (
    ANY,
    Barrier,
    Compute,
    Mark,
    Now,
    Recv,
    Rendezvous,
    Send,
    frozen_by_value,
)
from repro.machine.topology import Complete, Topology
from repro.machine.trace import ComputeRecord, MarkRecord, MessageRecord, Trace
from repro.util.errors import DeadlockError, MachineError

NodeProgram = Generator[Any, Any, Any]


def _snapshot(data: Any) -> Any:
    """Copy mutable payloads at send time (message has by-value semantics).

    Arrays already by-value -- a frozen owning array *or* a read-only
    view whose whole base chain is frozen down to a read-only owner
    (:func:`repro.machine.ops.frozen_by_value`) -- ship without a copy;
    the op streams of the collectives send no data at all (their values
    move at the grid rendezvous, where the grid collectives copy with
    this same function).  A read-only view of live (writable) storage --
    ``np.broadcast_to`` of a mutable buffer, say -- is not by-value,
    since the sender can still mutate it through the base, so it is
    copied like any other mutable payload.  Ad-hoc sends of live
    buffers keep their exact historical semantics.
    """
    if isinstance(data, np.ndarray):
        if frozen_by_value(data):
            return data
        return data.copy()
    if isinstance(data, list):
        return [_snapshot(x) for x in data]
    if isinstance(data, tuple):
        return tuple(_snapshot(x) for x in data)
    if isinstance(data, dict):
        return {k: _snapshot(v) for k, v in data.items()}
    return data


@dataclass
class _Proc:
    rank: int
    gen: NodeProgram
    clock: float = 0.0
    blocked_on: tuple[Any, Any] | None = None  # (src, tag) when waiting on recv
    # (kind, tag, group) while parked in a barrier or rendezvous
    parked: tuple[str, Hashable, tuple[int, ...]] | None = None
    done: bool = False
    # messages that arrived but were not yet consumed: (src, tag) -> deque
    mailbox: dict[tuple[int, Hashable], deque] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.mailbox = {}


class Machine(Backend):
    """A simulated distributed-memory machine.

    This is the reference :class:`~repro.machine.backend.Backend`: its
    event-driven execution defines the semantics (and the cost-model
    timings) every other backend must reproduce bit-for-bit.

    Parameters
    ----------
    n_procs:
        Number of processors; ignored if ``topology`` is given.
    topology:
        Interconnect; defaults to :class:`Complete` over ``n_procs``.
    cost:
        Timing model; defaults to :meth:`CostModel.balanced`.
    """

    def __init__(
        self,
        n_procs: int | None = None,
        topology: Topology | None = None,
        cost: CostModel | None = None,
    ):
        if topology is None:
            if n_procs is None:
                raise MachineError("Machine requires n_procs or topology")
            topology = Complete(n_procs)
        elif n_procs is not None and n_procs != topology.n_procs:
            raise MachineError(
                f"n_procs={n_procs} disagrees with topology ({topology.n_procs})"
            )
        self.topology = topology
        self.cost = cost if cost is not None else CostModel.balanced()

    @property
    def n_procs(self) -> int:
        return self.topology.n_procs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        programs: dict[int, NodeProgram] | Callable[[int], NodeProgram],
        ranks: Iterable[int] | None = None,
        trace: Trace | None = None,
    ) -> Trace:
        """Run node programs to completion and return the trace.

        ``programs`` is either a dict mapping rank -> generator, or a
        factory called with each rank in ``ranks`` (default: all ranks).
        ``trace`` lets a caller supply the (empty) Trace to fill, so the
        records are observable while the run is still in progress --
        records are immutable once published there (consume times are
        stamped by *rebuilding* the record, never by mutating it).
        """
        if callable(programs) and not isinstance(programs, dict):
            use_ranks = list(ranks) if ranks is not None else list(range(self.n_procs))
            progs = {r: programs(r) for r in use_ranks}
        else:
            progs = dict(programs)
        for r in progs:
            self.topology.check_rank(r)

        procs = {r: _Proc(r, g) for r, g in progs.items()}
        if trace is None:
            trace = Trace(n_procs=self.n_procs)
        seq = itertools.count()
        # event heap entries: (time, seqno, kind, payload)
        #   kind "resume": payload = (rank, value_to_send)
        #   kind "arrive": payload = MessageRecord-in-progress tuple
        heap: list[tuple[float, int, str, Any]] = []
        in_flight = 0
        # (kind, tag, group) -> {rank: rendezvous payload} of the ranks
        # parked in that barrier/rendezvous, in arrival order
        parked: dict[tuple[str, Hashable, tuple[int, ...]], dict[int, Any]] = {}

        def push(time: float, kind: str, payload: Any) -> None:
            heapq.heappush(heap, (time, next(seq), kind, payload))

        for r in procs:
            push(0.0, "resume", (r, None))

        def try_match(proc: _Proc) -> tuple[Any, float] | None:
            """Find the earliest-arrived mailbox message matching the block."""
            src, tag = proc.blocked_on  # type: ignore[misc]
            best_key = None
            best_time = None
            for (msrc, mtag), q in proc.mailbox.items():
                if not q:
                    continue
                if src is not ANY and msrc != src:
                    continue
                if tag is not ANY and mtag != tag:
                    continue
                t = q[0][0]
                if best_time is None or t < best_time:
                    best_time = t
                    best_key = (msrc, mtag)
            if best_key is None:
                return None
            arrive_t, data, rec_idx = procs_mail_pop(proc, best_key)
            return (data, arrive_t, rec_idx)

        def procs_mail_pop(proc: _Proc, key: tuple[int, Hashable]):
            arrive_t, data, rec_idx = proc.mailbox[key].popleft()
            if not proc.mailbox[key]:
                del proc.mailbox[key]
            return arrive_t, data, rec_idx

        def advance(proc: _Proc, send_value: Any) -> None:
            """Drive one processor until it blocks, sleeps, or finishes."""
            nonlocal in_flight
            value = send_value
            while True:
                try:
                    op = proc.gen.send(value)
                except StopIteration:
                    proc.done = True
                    trace.finish_times[proc.rank] = proc.clock
                    return
                value = None
                if isinstance(op, Compute):
                    dt = (
                        op.seconds
                        if op.seconds is not None
                        else self.cost.compute_time(op.flops)  # type: ignore[arg-type]
                    )
                    start = proc.clock
                    proc.clock += dt
                    trace.computes.append(
                        ComputeRecord(proc.rank, start, proc.clock, op.label)
                    )
                    if dt > 0.0:
                        push(proc.clock, "resume", (proc.rank, None))
                        return
                    continue
                if isinstance(op, Send):
                    self.topology.check_rank(op.dst)
                    if op.dst not in procs:
                        raise MachineError(
                            f"proc {proc.rank} sends to rank {op.dst} "
                            "which runs no program"
                        )
                    nbytes = op.size()
                    hops = self.topology.hops(proc.rank, op.dst)
                    t_send = proc.clock
                    proc.clock += self.cost.send_overhead
                    t_arrive = t_send + self.cost.message_time(nbytes, hops)
                    rec = MessageRecord(
                        src=proc.rank,
                        dst=op.dst,
                        tag=op.tag,
                        nbytes=nbytes,
                        hops=hops,
                        t_send=t_send,
                        t_arrive=t_arrive,
                    )
                    trace.messages.append(rec)
                    rec_idx = len(trace.messages) - 1
                    in_flight += 1
                    push(
                        t_arrive,
                        "arrive",
                        (op.dst, proc.rank, op.tag, _snapshot(op.data), rec_idx),
                    )
                    if self.cost.send_overhead > 0.0:
                        push(proc.clock, "resume", (proc.rank, None))
                        return
                    continue
                if isinstance(op, Recv):
                    proc.blocked_on = (op.src, op.tag)
                    match = try_match(proc)
                    if match is not None:
                        data, arrive_t, rec_idx = match
                        proc.clock = max(proc.clock, arrive_t)
                        proc.blocked_on = None
                        _stamp_recv(rec_idx, proc.clock)
                        value = data
                        continue
                    return  # stay blocked; arrival will resume us
                if isinstance(op, (Barrier, Rendezvous)):
                    kind = "barrier" if isinstance(op, Barrier) else "rendezvous"
                    group = tuple(sorted(op.group))
                    if proc.rank not in group:
                        raise MachineError(
                            f"proc {proc.rank} entered {kind} {op.tag!r} "
                            "it does not belong to"
                        )
                    key = (kind, op.tag, group)
                    waiting = parked.setdefault(key, {})
                    waiting[proc.rank] = getattr(op, "payload", None)
                    proc.parked = key
                    if len(waiting) == len(group):
                        del parked[key]
                        values = None
                        if kind == "barrier":
                            release = max(procs[r].clock for r in waiting)
                            for r in waiting:
                                procs[r].clock = release
                        elif op.action is not None:
                            values = op.action(waiting)
                        for r in waiting:
                            procs[r].parked = None
                            push(procs[r].clock, "resume",
                                 (r, values[r] if values else None))
                    return
                if isinstance(op, Mark):
                    trace.marks.append(
                        MarkRecord(proc.rank, proc.clock, op.label, op.payload)
                    )
                    continue
                if isinstance(op, Now):
                    value = proc.clock
                    continue
                raise MachineError(
                    f"proc {proc.rank} yielded unknown op {op!r}"
                )

        def _stamp_recv(rec_idx: int, t_recv: float) -> None:
            # message records are frozen dataclasses and may already
            # have been hashed, pickled, or merged by an observer (the
            # multiprocessing backend shares traces across processes),
            # so the consume time is stamped by *rebuilding* the record
            # -- published records are never mutated in place
            old = trace.messages[rec_idx]
            trace.messages[rec_idx] = MessageRecord(
                src=old.src,
                dst=old.dst,
                tag=old.tag,
                nbytes=old.nbytes,
                hops=old.hops,
                t_send=old.t_send,
                t_arrive=old.t_arrive,
                t_recv=t_recv,
            )

        while heap:
            _time, _s, kind, payload = heapq.heappop(heap)
            if kind == "resume":
                rank, val = payload
                proc = procs[rank]
                if proc.done:
                    continue
                advance(proc, val)
            elif kind == "arrive":
                dst, src, tag, data, rec_idx = payload
                in_flight -= 1
                proc = procs[dst]
                if proc.done:
                    raise MachineError(
                        f"message {tag!r} from {src} arrived at finished proc {dst}"
                    )
                proc.mailbox.setdefault((src, tag), deque()).append(
                    (_time, data, rec_idx)
                )
                if proc.blocked_on is not None:
                    match = try_match(proc)
                    if match is not None:
                        mdata, arrive_t, midx = match
                        proc.clock = max(proc.clock, arrive_t)
                        proc.blocked_on = None
                        _stamp_recv(midx, proc.clock)
                        advance(proc, mdata)
            else:  # pragma: no cover - defensive
                raise MachineError(f"unknown event kind {kind!r}")

        # every stuck rank and what it waits on: (src, tag) of a
        # receive, or (kind, tag, group) of a barrier or rendezvous
        blocked = {
            r: p.blocked_on or p.parked
            for r, p in procs.items()
            if not p.done and (p.blocked_on or p.parked)
        }
        if blocked:
            # each stuck rank's undelivered mailbox keys: the near-miss
            # messages that arrived but matched nothing, which is
            # usually the whole diagnosis of a mismatched send/recv pair
            pending = {
                r: sorted((k for k, q in p.mailbox.items() if q), key=repr)
                for r, p in procs.items()
                if not p.done
            }
            raise DeadlockError(blocked, pending=pending)
        unfinished = [r for r, p in procs.items() if not p.done]
        if unfinished:  # pragma: no cover - defensive
            raise MachineError(f"procs {unfinished} never finished")
        leftovers = [
            (r, key)
            for r, p in procs.items()
            for key, q in p.mailbox.items()
            if q
        ]
        if leftovers:
            raise MachineError(f"unconsumed messages at exit: {leftovers}")
        return trace

    def run_loops(self, session, loops, grid, *, iters: int = 1,
                  overlap: bool = False, marks: str | None = None,
                  nbatch: int | None = None, blocks: dict | None = None) -> Trace:
        """Execute a frozen loop program (``Program.run`` /
        ``Program.run_batch`` route here) without the event loop.

        The floats move by the in-process direct phase walk; the Trace
        is what :meth:`run` would have recorded for the same run,
        simulated data-free once per run shape and re-materialized from
        ``session.oracle`` afterwards -- see
        :func:`repro.compiler.schedule.run_frozen_loops`.  ``nbatch`` /
        ``blocks`` run an ensemble over the batch driver's shadow blocks.
        """
        # the compiler imports this package, never the other way at load
        from repro.compiler.schedule import replay_in_process, run_frozen_loops

        return run_frozen_loops(
            session, self, loops, grid,
            lambda analyses: replay_in_process(analyses, grid, iters, nbatch, blocks),
            iters=iters, overlap=overlap, marks=marks, nbatch=nbatch,
        )
