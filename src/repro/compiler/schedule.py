"""Per-processor execution of compiled doall loops.

``execute_doall(ctx, loop)`` is a generator of machine ops implementing
one rank's share of the loop:

1. replay the send half of each read array's frozen gather
   :class:`~repro.compiler.commsched.TransferSchedule` (payload
   snapshotted -> the receiver observes pre-loop values: copy-in) and
   perform its local move into the workspace;
2. replay the receive half: ghost regions land in the workspace through
   the schedule's precomputed scatter positions;
3. evaluate all statement right-hand sides vectorized over the local
   iteration box (one Compute op charges the flop count);
4. replay each statement's frozen scatter TransferSchedule: local
   stores and outgoing remote-write messages read the flat value vector
   through precomputed selection arrays, incoming messages (values
   only, no index lists on the wire) land through precomputed
   local-block coordinates.

With ``overlap=True`` the executor models communication/computation
overlap: since the gather sends of phase 1 are asynchronous, the
iteration points whose reads are all locally owned (the *interior*,
derived by ``LoopAnalysis.interior_count``) are charged as a Compute op
*between* phases 1 and 2, so that work proceeds while ghost values are
in flight; only the remaining boundary points are charged after the
receives.  The wire content is identical in both modes -- overlap
changes when time is charged, never what is sent.

Analyses are cached by structural loop key, so loops re-executed every
iteration (the common case) compile once; the read-side gather
schedules and the write-side scatter schedules both replay from the
cached analysis without re-deriving any index list.

Two executors drive the phases.  The default compiled path
(``Session(compiled=True)``) replays the rank's frozen
:class:`~repro.compiler.commgen.StepPlan`: statement right-hand sides
lowered once into closures over pre-bound numpy ufuncs, array
references pre-resolved to workspace positions (slice views for box
patterns), store coordinates frozen, workspaces persistent -- the
steady-state sweep never walks an expression AST or evaluates an
affine index.  The StepPlan record layout and the phase order of a sweep
are known to this module only, in two walks kept apart on purpose.
:func:`_replay` is the generator the simulator drives (ops out, trace
recorded), and :func:`replay_analysis` (a single run),
:func:`replay_batch_analysis` (``Program.run_batch``: B bindings behind
a leading batch axis) and :func:`shadow_replay_analysis` (the
multiprocessing backend's data-free trace oracle) are thin entry points
that differ only in where they say the rank's blocks live.
:func:`replay_direct` is the same sweep for a forked multiprocessing
worker -- plain calls, preallocated slots for the wire, a fence between
phases -- with :func:`outgoing` telling the pool which slots that takes;
a worker must not pay for a generator and the simulator needs one, so
neither walk branches on its caller.  Around them,
:func:`replay_sweeps` is the one sweep driver -- resolve each loop's
analysis at its first execution of a run, count later sweeps as
replays -- that every run loop iterates.  The interpreted path
(``Session(compiled=False)``) re-derives positions and walks the ASTs
per sweep and is kept as the reference semantics; both produce
bit-identical results, traces, and cache accounting (see
docs/performance.md).
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from operator import methodcaller
from typing import Any, Callable

import numpy as np

from repro.compiler import access as acc
from repro.compiler.commgen import LoopAnalysis
from repro.compiler.commsched import (
    execute_transfer,
    freeze_payload,
    transfer_local_move,
    transfer_recvs,
    transfer_sends,
    uid_chain,
)
from repro.lang.doall import Doall
from repro.lang.expr import BinOp, Const, Ref
from repro.machine.ops import Compute, Mark, Recv, Send
from repro.util.errors import CompileError, ValidationError
from repro.util.indexing import mesh_shape

#: Every live PlanCache (including session-owned ones), so that
#: layout-invalidation hooks (``drop_plans_for_array``) reach plans no
#: matter which Session compiled them.  Weak: a Session's caches die
#: with the Session.
_ALL_PLAN_CACHES: "weakref.WeakSet[PlanCache]" = weakref.WeakSet()


def _loop_uids(loop: Doall) -> tuple:
    """uids of every array (and section base) the loop touches."""
    out: set[int] = set()
    for arr in loop.arrays():
        out.update(uid_chain(arr))
    return tuple(out)


class PlanCache:
    """Keyed store of compiled plans with per-kind hit/miss accounting.

    Holds every *locally derivable* compiled artifact: doall loop
    analyses (kind ``"doall"`` -- these carry the frozen gather/scatter
    :class:`~repro.compiler.commsched.TransferSchedule` objects) and the
    ADI line-solve plans (kind ``"adi-line"``,
    :mod:`repro.tensor.adi`).  Wire schedules that need a collective
    build protocol live in the companion
    :class:`~repro.compiler.commsched.ScheduleCache` instead.

    Entries are LRU-bounded: plan keys embed each array's ``comm_epoch``
    (and uid), so a redistribution orphans the old entries; they are
    purged eagerly by :func:`drop_plans_for_array` and, as a backstop,
    evicted once the cache exceeds the cap.  Eviction is always safe --
    plans are derived deterministically and locally, so a rank
    recompiling what another rank still has cached produces identical
    communication.

    The cache is **thread-safe** and may be shared by many Sessions (the
    serving layer, :mod:`repro.serve`, does exactly that): every probe,
    store, LRU touch, counter bump, and purge happens under one
    re-entrant lock, and a miss holds the lock *across* ``build()`` so
    one compile serves every concurrent requester of the same key --
    compile once, serve everyone.  That is sound because the cached
    artifacts are immutable once published: a
    :class:`~repro.compiler.commgen.LoopAnalysis` and its frozen
    :class:`~repro.compiler.commsched.TransferSchedule` objects are
    never mutated after construction, and the analysis's two lazy
    memoizations (per-rank StepPlans, the overlap interior split) are
    guarded by the analysis's own lock -- so replaying a shared plan
    from many threads needs no further synchronization.  See
    "Thread safety and the immutability contract" in ``docs/api.md``.

    >>> cache = PlanCache(max_entries=8)
    >>> cache.get("demo", ("k",), lambda: 42)
    (42, False)
    >>> cache.get("demo", ("k",), lambda: 43)   # replays the cached plan
    (42, True)
    >>> cache.kind_stats()
    {'demo': {'hits': 1, 'misses': 1}}
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValidationError("PlanCache needs max_entries >= 1")
        self.max_entries = max_entries
        # (kind, key) -> (plan, uids of the arrays the plan was built on)
        self._entries: OrderedDict[tuple, tuple[Any, tuple]] = OrderedDict()
        #: per-kind hit/miss counters, e.g. ``{"doall": {"hits": 9,
        #: "misses": 1}}``
        self.by_kind: dict[str, dict[str, int]] = {}
        # guards entries, LRU order, and counters; re-entrant because a
        # build() may consult the cache it is being stored into
        self._lock = threading.RLock()
        _ALL_PLAN_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, kind: str, outcome: str) -> None:
        d = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        d[outcome] += 1

    def get(self, kind: str, key, build: Callable[[], Any], uids=(),
            count: bool = True) -> tuple[Any, bool]:
        """Cached plan under ``(kind, key)``; returns ``(plan, was_cached)``.

        On a miss ``build()`` derives the plan, which is stored tagged
        with ``uids`` (the arrays it depends on) so
        :meth:`drop_for_array` can purge it on redistribution; pass a
        zero-argument callable to defer that derivation to the miss
        path and keep hits walk-free.  ``count=False`` makes a
        read-only peek: the hit counter stays untouched, so
        static-analysis lookups (estimates, explain) do not inflate the
        replay statistics.  A miss always counts -- it did the compile
        work.

        The lock is held across ``build()``: concurrent requesters of
        one uncompiled key serialize on the single compile and all
        receive the same plan object, instead of racing N redundant
        compiles whose last store wins.
        """
        k = (kind, key)
        with self._lock:
            entry = self._entries.get(k)
            if entry is not None:
                self._entries.move_to_end(k)
                if count:
                    self._count(kind, "hits")
                return entry[0], True
            plan = build()
            self._count(kind, "misses")
            self._entries[k] = (plan, tuple(uids() if callable(uids) else uids))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return plan, False

    def analysis(self, loop: Doall, count: bool = True) -> tuple[LoopAnalysis, bool]:
        """Cached :class:`LoopAnalysis` of ``loop``; ``(analysis, was_cached)``.

        The structural key is computed once here -- it walks the whole
        loop body, so the replay path must not derive it twice per
        execution.
        """
        # uids deferred to the miss path: a replay must pay for one
        # loop-body walk (the key), never two
        return self.get(
            "doall", loop.key(), lambda: LoopAnalysis(loop),
            uids=lambda: _loop_uids(loop), count=count,
        )

    def count_replay(self, kind: str) -> None:
        """Record an as-if hit for a plan the caller already holds.

        The compiled replay driver (``Program.run``) resolves each
        loop's analysis once per run and replays it every sweep; the
        interpreted path probes the cache per sweep instead.  Counting
        the replays here keeps the hit/miss accounting identical between
        the two executors without paying for the structural key walk.
        """
        with self._lock:
            self._count(kind, "hits")

    def drop(self, kind: str, key) -> None:
        with self._lock:
            self._entries.pop((kind, key), None)

    def drop_loop(self, loop: Doall) -> None:
        self.drop("doall", loop.key())

    def drop_for_array(self, array) -> int:
        """Purge every plan built against ``array`` (or a section of
        it); returns the count.  Called on redistribution so orphaned
        plans (their keys embed the old comm epoch) do not accumulate.
        """
        uid = array.uid
        with self._lock:
            doomed = [k for k, (_, uids) in self._entries.items() if uid in uids]
            for k in doomed:
                del self._entries[k]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.by_kind = {}

    def stats(self) -> dict[str, int]:
        with self._lock:
            hits = sum(d["hits"] for d in self.by_kind.values())
            misses = sum(d["misses"] for d in self.by_kind.values())
            return {
                "entries": len(self._entries), "hits": hits, "misses": misses,
            }

    def kind_stats(self) -> dict[str, dict[str, int]]:
        """Per-kind hit/miss counters (kinds seen so far)."""
        with self._lock:
            return {k: dict(v) for k, v in self.by_kind.items()}


def drop_plan(loop: Doall) -> None:
    """Forget one loop's cached analysis in *every* live plan cache
    (``Doall.invalidate_plan`` hook)."""
    for cache in list(_ALL_PLAN_CACHES):
        cache.drop_loop(loop)


def drop_plans_for_array(array) -> int:
    """Purge plans referencing ``array`` from every live plan cache."""
    return sum(cache.drop_for_array(array) for cache in list(_ALL_PLAN_CACHES))


class _Workspace:
    """Gathered read data for one array on one rank."""

    __slots__ = ("needed", "data")

    def __init__(self, needed: list[np.ndarray], dtype):
        self.needed = needed
        self.data = np.empty([n.size for n in needed], dtype=dtype)

    def put_at(self, pos: tuple, values: np.ndarray) -> None:
        """Scatter a box of values through precomputed positions."""
        self.data[pos] = values

    def fetch(self, idx_arrays: list[np.ndarray]) -> np.ndarray:
        pos = tuple(
            acc.positions_in(n, np.asarray(g)) for n, g in zip(self.needed, idx_arrays)
        )
        return self.data[pos]


def _eval_expr(expr, workspaces: dict[int, _Workspace], iters) -> np.ndarray | float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        ws = workspaces[id(expr.array)]
        idx = [acc.eval_index(e, iters) for e in expr.idx]
        return ws.fetch(idx)
    if isinstance(expr, BinOp):
        left = _eval_expr(expr.left, workspaces, iters)
        right = _eval_expr(expr.right, workspaces, iters)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    raise CompileError(f"cannot evaluate expression {expr!r}")


def execute_doall(ctx, loop: Doall, overlap: bool = False):
    """Yield the machine ops realizing this rank's share of ``loop``.

    With ``overlap=True`` the interior iteration points (reads all
    locally owned) are charged before the ghost receives, modeling
    computation proceeding while remote values are in flight; the wire
    content is unchanged.

    The context's Session selects the executor (``Session(compiled=)``):
    by default the rank's frozen
    :class:`~repro.compiler.commgen.StepPlan` replays -- prebound numpy
    calls, no per-sweep expression interpretation; ``compiled=False``
    Sessions run the interpreted reference path.  Both produce
    bit-identical results, traces, and cache accounting.
    """
    me = ctx.rank
    if not loop.grid.contains(me):
        raise CompileError(f"rank {me} executing doall outside its grid")
    analysis, reused = ctx.session.plans.analysis(loop)
    yield from replay_analysis(ctx, analysis, overlap=overlap, reused=reused)


def replay_sweeps(plans: PlanCache, loops, iters: int):
    """Yield ``(analysis, reused)`` per loop execution of ``iters`` sweeps.

    The steady-state discipline every compiled run loop shares
    (``Program.run``, ``Program.run_batch``, the multiprocessing
    backend's accounting and its oracle stream): each loop's analysis is
    resolved at its first execution -- one cache probe per loop per rank
    per *run*, whose outcome is the ``reused`` of the first sweep -- and
    later sweeps replay the pinned analysis, skipping the structural-key
    walk and counting as-if hits (:meth:`PlanCache.count_replay`) so the
    accounting matches the interpreted path's per-sweep probes.  Loop
    programs contain no redistribution, so a pinned analysis cannot go
    stale within a run; between runs the probe picks up any layout
    change.
    """
    resolved = []
    for loop in loops:
        analysis, reused = plans.analysis(loop)
        resolved.append(analysis)
        yield analysis, reused
    for _ in range(iters - 1):
        for analysis in resolved:
            plans.count_replay("doall")
            yield analysis, True


def replay_analysis(
    ctx, analysis: LoopAnalysis, overlap: bool = False, reused: bool = True,
):
    """Drive one rank's share of an already-resolved doall analysis.

    The replay half of :func:`execute_doall`, split out so a caller
    holding the analysis (:func:`replay_sweeps` resolves each loop's
    plan once per run) can skip the per-sweep cache probe -- the
    structural key walk -- entirely.  ``reused`` feeds the
    ``commsched/hit`` vs ``commsched/build`` mark, mirroring what a
    probe would have reported.
    """
    if ctx.session.compiled:
        yield from _replay(
            ctx, analysis, overlap, reused, methodcaller("local", ctx.rank)
        )
    else:
        tag = ctx.next_tag(analysis.loop.grid)
        yield from announce_replay(ctx, analysis, reused)
        yield from _interpret_doall(ctx, analysis, overlap, tag)


def replay_batch_analysis(
    ctx, analysis: LoopAnalysis, blocks: dict, nbatch: int,
    overlap: bool = False, reused: bool = True,
):
    """Drive one rank's share of a doall over ``nbatch`` bindings at once.

    The batched entry point behind ``Program.run_batch``: the same
    frozen schedules replay once per sweep, but every fetch, closure,
    and store carries a leading batch axis, so one pass advances all
    ensemble members together.  ``blocks`` maps ``array.uid`` to this
    rank's batched local block -- shape ``(nbatch,) + local shape`` --
    which the walk reads ghosts from and stores results into (the live
    arrays are never touched; the caller owns the batched copies and the
    write-back).

    Wire discipline: message *counts* and tags are identical to one
    single-binding sweep -- each payload slot just widens by the batch
    factor.  Compute charges scale by ``nbatch`` (the ensemble honestly
    does that many members' flops).
    """
    return _replay(
        ctx, analysis, overlap, reused, lambda array: blocks[array.uid], nbatch
    )


def shadow_replay_analysis(
    ctx, analysis: LoopAnalysis, overlap: bool = False, reused: bool = True,
):
    """The compiled replay's op stream with no data moved.

    Yields the *exact* op stream a compiled replay of ``analysis``
    produces -- same Marks, same Compute flops and labels, same Sends
    (tag and byte count) and Recvs in the same order -- but sends carry
    ``data=None`` with the frozen payload's byte count, receives
    discard, and neither closures nor stores run.  This is how the
    multiprocessing backend derives its cost-model-stamped trace: the
    floats are computed by real parallel workers, while the inner
    simulator runs this stream to produce a trace bit-identical to what
    the simulator backend would have recorded.

    Deliberately takes the analysis (never probing the plan cache):
    cache accounting for a shadowed run is done once by the parent, not
    once per shadow rank.
    """
    return _replay(ctx, analysis, overlap, reused, None)


def _replay(ctx, analysis: LoopAnalysis, overlap: bool, reused: bool,
            block_of, nbatch: int | None = None):
    """The one compiled walk of a frozen :class:`~repro.compiler.commgen.StepPlan`.

    Every index array, closure, label, and flop charge was frozen at
    plan-build time; a sweep is, in this fixed order: gather sends +
    local moves, [interior Compute], gather receives, Compute, rhs
    closures, box/flat stores, scatter sends / self move / receives.
    The op stream is bit-identical to :func:`_interpret_doall`.

    The three entry points above differ only in ``block_of``, *where
    this rank's blocks live*: ``array -> block`` for the live arrays
    (``array.local(rank)``) or the batch driver's shadow blocks, or
    ``None`` to move no data at all.  Blocks are resolved through it at
    the moment of each read or store, never captured: a block swapped
    by redistribution must not be written through a stale buffer, and a
    rank that only *sends* a scatter owns no lhs block to ask for.
    Payloads go through :func:`freeze_payload` (copy-in, by value, no
    simulator-side snapshot copy).
    """
    me = ctx.rank
    tag = ctx.next_tag(analysis.loop.grid)
    yield from announce_replay(ctx, analysis, reused)
    plan = analysis.step_plan(me, nbatch=nbatch)
    lead = plan.lead
    live = block_of is not None

    # Sends for *all* read arrays go out before any receive, so they are
    # in flight together.
    pending: list[tuple] = []
    for wire, array, sched, buf in plan.reads:
        if sched is None:
            continue
        if not live:
            itemsize = array.dtype.itemsize
            for dst, idx in sched.sends:
                yield Send(dst, None, (tag, wire, me), _index_nbytes(idx, itemsize))
        elif sched.sends or sched.self_src is not None:
            block = block_of(array)
            for dst, idx in sched.sends:
                yield Send(dst, freeze_payload(block[lead + idx]), (tag, wire, me))
            if buf is not None and sched.self_src is not None:
                buf[lead + sched.self_dst] = block[lead + sched.self_src]
        if sched.recvs:
            pending.append((wire, sched.recvs, buf))

    interior, interior_flops, remaining, remaining_flops = plan.charges(overlap)
    if interior:
        yield Compute(flops=interior_flops, label=plan.label_interior)

    for wire, recvs, buf in pending:
        for src, idx in recvs:
            values = yield Recv(src, (tag, wire, src))
            if live:
                buf[lead + idx] = values

    if remaining:
        yield Compute(
            flops=remaining_flops,
            label=plan.label_boundary if interior else plan.label,
        )

    stmt_vals = [None if fn is None or not live else fn() for fn in plan.evals]

    for values, store in zip(stmt_vals, plan.stores):
        if store is None:
            continue
        op, array = store[0], store[1]
        if op == "transfer":  # remote-write scatter replay
            sched, wire = store[2], store[3]
            flat = None if values is None else values.reshape(plan.flat)
            if live:
                for dst, sel in sched.sends:
                    yield Send(dst, freeze_payload(flat[lead + (sel,)]), (tag, wire, me))
                if sched.self_src is not None:
                    block_of(array)[lead + sched.self_dst] = \
                        flat[lead + (sched.self_src,)]
            else:
                itemsize = array.dtype.itemsize
                for dst, sel in sched.sends:
                    yield Send(dst, None, (tag, wire, me), _index_nbytes(sel, itemsize))
            for src, piece in sched.recvs:
                incoming = yield Recv(src, (tag, wire, src))
                if live:
                    block_of(array)[lead + piece] = incoming
        elif not live:
            continue
        elif op == "box":
            _, _, locs, perm, boxshape = store
            block_of(array)[locs] = values.transpose(perm).reshape(boxshape)
        else:  # "flat"
            block_of(array)[store[2]] = values.reshape(plan.flat)


def outgoing(plan):
    """Yield ``(wire, dst, payload shape, dtype)`` per message the
    plan's rank sends in one sweep -- gather sends first, then scatter
    sends: what a transport must provision for :func:`replay_direct`.
    A gather payload keeps the sender's open-mesh shape (the receiver
    froze the same per-dimension global index lists, so its workspace
    positions have that shape too); a scatter payload is a flat value run.
    """
    for wire, array, sched, _buf in plan.reads:
        if sched is not None:
            for dst, idx in sched.sends:
                yield wire, dst, _payload_shape(idx), array.dtype
    for store in plan.stores:
        if store is not None and store[0] == "transfer":
            _, array, sched, wire = store
            for dst, sel in sched.sends:
                yield wire, dst, _payload_shape(sel), array.dtype


def replay_direct(plan, slots: dict, has_remote: bool, fence, parity: int) -> None:
    """One sweep of a single-run StepPlan with preallocated slots as the wire.

    The multiprocessing workers' walk: the records and the phase order
    of :func:`_replay`, with no generator, no ops and no trace (the
    oracle stream accounts for the sweep).  ``slots`` maps
    ``(wire, src, dst)`` to a buffer shaped ``(2,) +`` the payload shape
    :func:`outgoing` reports, visible to both ranks; ``fence()`` returns
    once every rank of the loop has called it.

    Phase A fills this rank's outgoing gather slots from its (pre-store)
    blocks and copies owned data into the plan workspaces -- the fence
    then guarantees every rank's copy-in snapshot is complete before any
    rank stores, which is exactly the ordering the simulator enforces by
    sending pre-store payloads.  Phase B drains incoming slots into the
    workspaces, evaluates the prebound closures, and stores (filling
    scatter slots for remote writes).  A loop without remote writes ends
    there, one fence per sweep: every slot has two halves and a sweep
    uses the half of its ``parity`` (the rank's sweep count & 1), so a
    fast rank filling the next sweep's slots never touches what a slow
    peer is still draining -- it cannot come back to the same half
    without first passing the next sweep's fence, which that peer
    reaches only after its drain.  Phase C -- only when the loop
    scatters at all (``has_remote``) -- applies incoming scatter values
    after a second fence, and keeps a closing third one (the parity
    halves would cover it too; scatter steps are on no measured path, so
    their fence stays conservative).  Every rank executes the same fence
    count per sweep (the phase structure depends only on loop-level
    facts), so the ranks can never split-brain.

    Blocks are resolved through ``array.local(rank)`` per sweep, never
    captured, for the reason :func:`_replay` gives.
    """
    me = plan.rank
    for wire, array, sched, buf in plan.reads:
        if sched is None or not (sched.sends or sched.self_src is not None):
            continue
        block = array.local(me)
        for dst, idx in sched.sends:
            slots[wire, me, dst][parity] = block[idx]
        if buf is not None and sched.self_src is not None:
            buf[sched.self_dst] = block[sched.self_src]
    fence()
    for wire, _array, sched, buf in plan.reads:
        if sched is not None:
            for src, idx in sched.recvs:
                buf[idx] = slots[wire, src, me][parity]

    stmt_vals = [None if fn is None else fn() for fn in plan.evals]

    for values, store in zip(stmt_vals, plan.stores):
        if store is None:
            continue
        op, array = store[0], store[1]
        if op == "transfer":
            sched, wire = store[2], store[3]
            flat = None if values is None else values.reshape(-1)
            for dst, sel in sched.sends:
                slots[wire, me, dst][parity] = flat[sel]
            if sched.self_src is not None:
                array.local(me)[sched.self_dst] = flat[sched.self_src]
        elif op == "box":
            _, _, locs, perm, boxshape = store
            array.local(me)[locs] = values.transpose(perm).reshape(boxshape)
        else:  # "flat"
            array.local(me)[store[2]] = values.reshape(-1)
    if has_remote:
        fence()
        for store in plan.stores:
            if store is not None and store[0] == "transfer":
                _, array, sched, wire = store
                for src, piece in sched.recvs:
                    array.local(me)[piece] = slots[wire, src, me][parity]
        fence()


def announce_replay(ctx, analysis: LoopAnalysis, reused: bool):
    """Announce one doall replay (or compile) to the trace.

    Yields the ``commsched/hit`` / ``commsched/build`` Marks -- or, in
    cheap-marks mode, aggregates counters on the context and yields
    nothing (the Session folds the counts into ``Trace.mark_counts``
    after the run).  Shared by the live executors *and* the
    multiprocessing backend's shadow replay, so the two op streams can
    never drift on mark content.
    """
    kind = "commsched/hit" if reused else "commsched/build"
    if getattr(ctx, "marks", "full") == "cheap":
        note = ctx.count_mark
        note(kind, "doall")
        if analysis.has_read_transfers:
            note(kind, "gather")
        if analysis.has_remote_writes:
            note(kind, "scatter")
        return
    yield Mark(kind, payload=("doall", analysis.var_label))
    if analysis.has_read_transfers:
        # the loop's gather schedules replay (or compile) together
        # with the plan; announce them under their own direction so
        # per-direction reuse reporting sees the read side
        yield Mark(kind, payload=("gather", analysis.read_names))
    if analysis.has_remote_writes:
        # likewise for the write-side scatter schedules
        yield Mark(kind, payload=("scatter", analysis.scatter_names))


def _interpret_doall(ctx, analysis: LoopAnalysis, overlap: bool, tag):
    """The interpreted reference executor (``compiled=False``).

    Re-derives workspace positions and walks the expression ASTs every
    sweep; kept as the semantics the compiled fast path must match
    bit-for-bit (the equivalence tests diff the two op streams).
    """
    me = ctx.rank
    iters = analysis.iters[me]
    label = f"doall[{analysis.var_label}]"

    # ---- phase 1: gather-schedule sends + local moves --------------------
    # Each read array's frozen gather TransferSchedule replays through
    # the shared transfer executor: the send half posts pre-write
    # snapshots (copy-in), the local move copies own data into the
    # workspace.  Sends for *all* arrays go out before any receive, so
    # they are in flight together.
    workspaces: dict[int, _Workspace] = {}
    readers: list[tuple] = []  # (arr_idx, sched, workspace) pending recv halves
    for arr_idx, plans in enumerate(analysis.read_plans):
        plan = plans[me]
        array = plan.array
        if plan.needed is not None:
            workspaces[id(array)] = _Workspace(plan.needed, array.dtype)
        sched = plan.transfer
        if sched is None:
            continue
        ws = workspaces.get(id(array))
        if sched.sends or sched.self_src is not None:
            block = array.local(me)
            read = block.__getitem__
        else:
            read = None
        yield from transfer_sends(ctx, sched, read, tag=tag, kind=f"gh{arr_idx}")
        if ws is not None:
            transfer_local_move(sched, read, ws.put_at)
        if sched.recvs:
            # recvs are only frozen for ranks with needed data, so a
            # workspace always exists here
            readers.append((arr_idx, sched, ws))

    # ---- phase 1b (overlap): interior compute while ghosts fly -----------
    n_points = iters.count()
    interior = analysis.interior_count(me) if overlap else 0
    remaining = n_points - interior
    if interior:
        yield Compute(
            flops=interior * analysis.flops_per_point(),
            label=f"{label}/interior",
        )

    # ---- phase 2: gather-schedule receives -------------------------------
    for arr_idx, sched, ws in readers:
        yield from transfer_recvs(ctx, sched, ws.put_at, tag=tag, kind=f"gh{arr_idx}")

    # ---- phase 3: evaluate (boundary points under overlap) ---------------
    if remaining:
        yield Compute(
            flops=remaining * analysis.flops_per_point(),
            label=f"{label}/boundary" if interior else label,
        )

    stmt_vals: list[np.ndarray | None] = []
    for sa in analysis.stmts:
        if n_points:
            values = _eval_expr(sa.stmt.rhs, workspaces, iters)
            stmt_vals.append(
                np.broadcast_to(
                    np.asarray(values, dtype=sa.lhs_array.dtype), iters.shape()
                )
            )
        else:
            stmt_vals.append(None)

    # ---- phase 4: scatter-schedule replay ---------------------------------
    # All-local statements store through their frozen open-mesh box (or
    # per-sweep flat coordinates when not box-decomposable); statements
    # with remote writes replay their frozen scatter TransferSchedule:
    # local stores and outgoing messages read the flat value vector
    # through precomputed selection arrays, incoming messages (values
    # only, no index lists) land through precomputed local-block
    # coordinates.
    for stmt_idx, sa in enumerate(analysis.stmts):
        wplan = analysis.write_plans[stmt_idx][me]
        values = stmt_vals[stmt_idx]
        if analysis.writes_local:
            if values is None:
                continue
            if wplan.local_box is not None:
                locs, perm, shape = wplan.local_box
                sa.lhs_array.local(me)[locs] = values.transpose(perm).reshape(shape)
            else:
                _flat_local_store(sa, iters, me, values)
            continue
        sched = wplan.transfer
        if sched is None:
            continue
        yield from execute_transfer(
            ctx,
            sched,
            read=_reader(None if values is None else values.reshape(-1)),
            write=_writer(sa.lhs_array, me),
            tag=tag,
            kind=f"wr{stmt_idx}",
        )


def _flat_local_store(sa, iters, rank: int, values: np.ndarray) -> None:
    """Per-sweep fallback for non-box-decomposable all-local writes."""
    array = sa.lhs_array
    idx_arrays = sa.lhs_index_arrays(iters)
    full_idx = [
        np.broadcast_to(np.asarray(a), values.shape).reshape(-1)
        for a in idx_arrays
    ]
    locs = tuple(
        np.asarray(array.dim(k).local_index(full_idx[k]), dtype=np.int64)
        for k in range(array.ndim)
    )
    array.local(rank)[locs] = values.reshape(-1)


def _payload_shape(idx) -> tuple:
    """Shape of the payload a source-side index selection reads.

    Covers the two frozen send-index forms: an
    :func:`~repro.util.indexing.open_mesh` box (gather sends) and a flat
    selection array (scatter sends into the value vector).
    """
    if isinstance(idx, tuple):
        return mesh_shape(idx)
    return (int(np.asarray(idx).size),)


def _index_nbytes(idx, itemsize: int) -> int:
    """Byte count of that payload: matches ``read(idx).nbytes``."""
    return math.prod(_payload_shape(idx)) * int(itemsize)


def _reader(flat: np.ndarray | None):
    """Selection reads from one statement's flat value vector."""
    def read(sel):
        assert flat is not None, "schedule sends values on an empty rank"
        return flat[sel]
    return read


def _writer(array, rank: int):
    """Stores through frozen local-block coordinates."""
    def write(locs, values):
        array.local(rank)[locs] = values
    return write
