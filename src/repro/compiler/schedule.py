"""Per-processor execution of compiled doall loops.

One rank's share of a doall sweep is, in this order:

1. the send half of each read array's frozen gather
   :class:`~repro.compiler.commsched.TransferSchedule` (the sender's
   pre-loop values: copy-in) and its local move into the workspace;
2. the receive half: ghost regions land in the workspace through the
   schedule's precomputed scatter positions;
3. all statement right-hand sides, evaluated vectorized over the local
   iteration box (one Compute op charges the flop count);
4. each statement's frozen scatter TransferSchedule: local stores and
   outgoing remote-write values read the flat value vector through
   precomputed selection arrays, incoming values (no index lists on the
   wire) land through precomputed local-block coordinates.

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

Every sweep replays the rank's frozen
:class:`~repro.compiler.commgen.StepPlan`: statement right-hand sides
lowered once into closures over pre-bound numpy ufuncs that evaluate
in place into plan-owned scratch, array references pre-resolved to
workspace positions (slice views for box patterns) or, for read-only
ghost-free arrays, to boxes of the block itself, store coordinates
frozen, workspaces persistent -- the steady-state sweep never walks an
expression AST, evaluates an affine index or allocates an operator's
result.  The StepPlan record layout and the phase order of a sweep
are known to this module only, in two walks: one moves the values,
the other only the time.  The *direct* walk is the sweep as three
plain phase functions -- fill outgoing slots and do local moves /
drain, evaluate, store / store the scatter statements in order -- with
preallocated slots for the wire and :func:`outgoing` telling a
transport which slots that takes: :func:`replay_direct` puts a fence
between them for a forked multiprocessing worker, and
:func:`replay_in_process` walks every rank of the grid phase by phase,
the phase boundary being the fence.  It moves the values of every
doall, on every launch form.  :func:`_replay` is the generator the
simulator drives: the sweep's op stream with no data in it (Marks,
Compute charges, Sends that carry only a byte count, Recvs that
discard), which is what the trace records.

``ctx.doall`` inside a parsub (:func:`execute_doall`) joins the two at a
grid rendezvous: its stream opens with a
:class:`~repro.machine.ops.Rendezvous`, at which the simulator parks
each rank of the loop's grid until the last one arrives, runs one
:func:`replay_in_process` sweep of the whole grid, and resumes every
rank at its own clock -- no time is charged.  So every rank of a loop's
grid must reach the doall before any rank leaves it: a parsub in which
a rank waits, before its doall, for a message that a grid peer sends
only after its own doall deadlocks (the ``DeadlockError`` names the
rendezvous), and a ``Recv(src=ANY)`` whose candidates straddle a doall
may match in another order than it would without the rendezvous.

A frozen loop ``Program`` executes the same way on both first-class
backends (:func:`run_frozen_loops`): accounting by arithmetic (one cache
probe per loop per rank per run, later sweeps counted in bulk), floats
by the direct walk, and the sim-clock ``Trace`` from
:func:`oracle_trace` -- the same stream with an action-less rendezvous,
simulated once per distinct run shape, memoized on the Session and
re-materialized per run.  So a parsub and a ``Program.run`` record the
same trace, and the values of every launch form are checked against
the sequential evaluator :func:`repro.baselines.doall.doall_reference`
(see docs/performance.md).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from operator import methodcaller
from typing import Any, Callable

import numpy as np

from repro.compiler.commgen import LoopAnalysis
from repro.compiler.commsched import uid_chain
from repro.lang.doall import Doall
from repro.machine.ops import Compute, Mark, Recv, Rendezvous, Send
from repro.machine.trace import Trace
from repro.util.errors import CompileError, ValidationError
from repro.util.indexing import payload_shape

#: Every live PlanCache (including session-owned ones), so that the
#: manual invalidation hook (``array.invalidate_schedules()``) reaches
#: plans no matter which Session compiled them.  Redistribution does
#: not come through here.  Weak: a Session's caches die with the
#: Session.
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
    :class:`~repro.compiler.commsched.TransferSchedule` objects), the
    line-solve plans (kind ``"adi-line"``, keyed ``(array.layout_key(),
    line_dim, pipelined)``; :mod:`repro.tensor.adi`) that ADI,
    variable-coefficient ADI and MG2's distributed-x zebra lines share,
    the grid-wide repartition plans of ``ctx.redistribute`` (kind
    ``"repartition"``, keyed on the layout transition by
    :func:`~repro.compiler.commsched.repartition_key` and stored with no
    uids, so a manual invalidation leaves them for the next flip), and
    the grid-wide irregular-gather plans of ``ctx.cached_gather`` (kind
    ``"gather"``, keyed by :func:`~repro.compiler.commsched.gather_key`).
    A Session keeps a second, smaller
    instance for the trace-oracle templates of its frozen loop runs
    (kind ``"oracle"``, :func:`oracle_trace`), whose counters stay out
    of the plan statistics.

    One keying rule for every kind: a key names its arrays by
    :meth:`~repro.lang.array.BaseDistArray.layout_key` -- uid plus the
    *value* of the layout (dist spec, grid shape and ranks) -- never by
    the monotone ``comm_epoch``.  A redistribution therefore moves the
    probe to another entry and leaves the old one where it is: an array
    that returns to a layout (ADI's ``(block, *)`` <-> ``(*, block)``, a
    morph there and back) replays the plans of its first visit.  That is
    safe by construction, not by bookkeeping: plans capture arrays and
    resolve blocks through ``array.local(rank)`` per sweep, workspaces
    belong to the plan, and every frozen selection is a pure function of
    the key.  Layouts that never come back are reclaimed by the LRU
    bound alone; an explicit ``array.invalidate_schedules()`` (for
    out-of-band layout edits) purges eagerly through
    :func:`drop_plans_for_array`.  Eviction is always safe -- plans are
    derived deterministically and locally, so a rank recompiling what
    another rank still has cached produces identical communication.

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

    def _count(self, kind: str, outcome: str, n: int = 1) -> None:
        d = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        d[outcome] += n

    def get(self, kind: str, key, build: Callable[[], Any], uids=(),
            count: bool = True) -> tuple[Any, bool]:
        """Cached plan under ``(kind, key)``; returns ``(plan, was_cached)``.

        On a miss ``build()`` derives the plan, which is stored tagged
        with ``uids`` (the arrays it depends on) so
        :meth:`drop_for_array` can purge it on a manual invalidation;
        pass a zero-argument callable to defer that derivation to the
        miss path and keep hits walk-free.  ``count=False`` makes a
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

        A hit costs the loop's memoized structure plus one layout key
        per referenced array; the uid walk is deferred to the miss path.
        """
        return self.get(
            "doall", loop.key(), lambda: LoopAnalysis(loop),
            uids=lambda: _loop_uids(loop), count=count,
        )

    def count_replay(self, kind: str, n: int = 1) -> None:
        """Record ``n`` as-if hits for plans the caller already holds.

        The frozen-loop driver (:func:`run_frozen_loops`) resolves each
        loop's analysis once per rank per run and replays it every
        sweep; ``ctx.doall`` in a parsub probes the cache per sweep
        instead.  Counting the replays here, in one call, keeps the
        hit/miss accounting identical between the two launch forms
        without paying for the structural key walk.
        """
        with self._lock:
            self._count(kind, "hits", n)

    def drop_for_array(self, array) -> int:
        """Purge every plan built against ``array`` (or a section of
        it), in whatever layout; returns the count.  The purge half of
        ``array.invalidate_schedules()``.
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


def drop_plans_for_array(array) -> int:
    """Purge plans referencing ``array`` from every live plan cache."""
    return sum(cache.drop_for_array(array) for cache in list(_ALL_PLAN_CACHES))


def execute_doall(ctx, loop: Doall, overlap: bool = False):
    """Yield the machine ops realizing this rank's share of ``loop``.

    With ``overlap=True`` the interior iteration points (reads all
    locally owned) are charged before the ghost receives, modeling
    computation proceeding while remote values are in flight; the wire
    content is unchanged.

    The values move by the direct phase walk, not by the ops: once
    every rank of the loop's grid has reached the doall, the stream's
    leading :class:`~repro.machine.ops.Rendezvous` runs one
    :func:`replay_in_process` sweep of the whole grid, and each rank
    then goes on through the data-free stream that charges the sweep's
    time and records its messages.  So a rank leaves a doall only after
    every rank of the grid has entered it.
    """
    me = ctx.rank
    if not loop.grid.contains(me):
        raise CompileError(f"rank {me} executing doall outside its grid")
    analysis, reused = ctx.session.plans.analysis(loop)
    yield from _replay(
        ctx, analysis, overlap, reused,
        action=lambda _payloads: replay_in_process([analysis], loop.grid, 1),
    )


def _replay(ctx, analysis: LoopAnalysis, overlap: bool = False,
            reused: bool = True, nbatch: int | None = None, action=None):
    """The op stream of one rank's sweep of a frozen
    :class:`~repro.compiler.commgen.StepPlan`, with no data moved.

    In this fixed order: the grid :class:`~repro.machine.ops.Rendezvous`
    (carrying ``action``, the sweep's data plane, for ``ctx.doall``;
    ``None`` for the trace oracle), the ``commsched`` Marks, gather
    sends, [interior Compute], gather receives, Compute, scatter sends
    and receives.  Sends carry ``data=None`` with the frozen payload's
    byte count, receives discard, and no closure or store runs.  This is
    also how a frozen loop run gets its cost-model-stamped trace
    (:func:`oracle_trace`).  ``nbatch`` scales the flop charges and the
    byte counts to an ensemble of that many members
    (``Program.run_batch``): message counts and tags are those of one
    single-binding sweep, each payload widens by the batch factor.

    Takes the analysis, never probing the plan cache: the caller
    accounts for the probe and passes ``reused`` for the
    ``commsched/hit`` vs ``commsched/build`` mark.
    """
    me = ctx.rank
    grid = analysis.loop.grid
    tag = ctx.next_tag(grid)
    yield Rendezvous(grid.key(), (tag, "doall"), action)
    # announce the replay (or compile) of the plan and of its gather and
    # scatter schedules, per direction; cheap-marks mode only counts, and
    # the Session folds the counts into ``Trace.mark_counts``
    kind = "commsched/hit" if reused else "commsched/build"
    if getattr(ctx, "marks", "full") == "cheap":
        ctx.count_mark(kind, "doall")
        if analysis.has_read_transfers:
            ctx.count_mark(kind, "gather")
        if analysis.has_remote_writes:
            ctx.count_mark(kind, "scatter")
    else:
        yield Mark(kind, payload=("doall", analysis.var_label))
        if analysis.has_read_transfers:
            yield Mark(kind, payload=("gather", analysis.read_names))
        if analysis.has_remote_writes:
            yield Mark(kind, payload=("scatter", analysis.scatter_names))
    plan = analysis.step_plan(me, nbatch=nbatch)
    nbytes = plan.send_nbytes

    # Sends for *all* read arrays go out before any receive, so they are
    # in flight together.
    pending: list[tuple] = []
    for wire, _array, sched, _buf in plan.reads:
        if sched is None:
            continue
        for dst, _idx in sched.sends:
            yield Send(dst, None, (tag, wire, me), nbytes[wire, dst])
        if sched.recvs:
            pending.append((wire, sched.recvs))

    interior, interior_flops, remaining, remaining_flops = plan.charges(overlap)
    if interior:
        yield Compute(flops=interior_flops, label=plan.label_interior)

    for wire, recvs in pending:
        for src, _idx in recvs:
            yield Recv(src, (tag, wire, src))

    if remaining:
        yield Compute(
            flops=remaining_flops,
            label=plan.label_boundary if interior else plan.label,
        )

    for store in plan.stores:
        if store is None or store[0] != "transfer":
            continue
        _, _array, sched, wire = store
        for dst, _sel in sched.sends:
            yield Send(dst, None, (tag, wire, me), nbytes[wire, dst])
        for src, _piece in sched.recvs:
            yield Recv(src, (tag, wire, src))


# ----------------------------------------------------------------------
# The direct walk: the same sweep as plain calls over preallocated slots
# ----------------------------------------------------------------------


def outgoing(plan):
    """Yield ``(wire, dst, payload shape, dtype)`` per message the
    plan's rank sends in one sweep -- gather sends first, then scatter
    sends: what a transport must provision for the direct walk.
    A gather payload keeps the sender's open-mesh shape (the receiver
    froze the same per-dimension global index lists, so its workspace
    positions have that shape too); a scatter payload is a flat value
    run; a batched plan's payloads carry its batch axis in front.
    """
    batch = () if plan.nbatch is None else (plan.nbatch,)
    for wire, array, sched, _buf in plan.reads:
        if sched is not None:
            for dst, idx in sched.sends:
                yield wire, dst, batch + payload_shape(idx), array.dtype
    for store in plan.stores:
        if store is not None and store[0] == "transfer":
            _, array, sched, wire = store
            for dst, sel in sched.sends:
                yield wire, dst, batch + payload_shape(sel), array.dtype


# The three phases of a direct sweep.  ``slots`` maps ``(wire, src,
# dst)`` to the buffer standing in for that message; ``half`` indexes
# the part of each slot this sweep uses (the sweep parity of a
# double-buffered slot, ``()`` for a whole one); ``block_of`` says where
# the rank's blocks live, resolved at each read or store, never captured
# (a block swapped by redistribution must not be written through a stale
# buffer, and a rank that only *sends* a scatter owns no lhs block to
# ask for).  A batched plan prefixes every
# frozen selection with its batch axis (``plan.lead``) and keeps its
# value vectors ``(B, -1)`` (``plan.flat``).


def _fill(plan, slots: dict, block_of, half) -> None:
    """Phase A: outgoing gather slots from the rank's pre-store blocks,
    and owned data into the plan workspaces (the copy-in snapshot)."""
    me, lead = plan.rank, plan.lead
    for wire, array, sched, buf in plan.reads:
        if sched is None or not (sched.sends or sched.self_src is not None):
            continue
        block = block_of(array)
        for dst, idx in sched.sends:
            slots[wire, me, dst][half] = block[lead + idx]
        if buf is not None and sched.self_src is not None:
            buf[lead + sched.self_dst] = block[lead + sched.self_src]


def _drain_eval_store(plan, slots: dict, block_of, half) -> list:
    """Phase B: incoming gather slots into the workspaces, the prebound
    closures, then the stores (only filling scatter slots for remote
    writes); returns the statement values for phase C."""
    me, lead = plan.rank, plan.lead
    for wire, _array, sched, buf in plan.reads:
        if sched is not None:
            for src, idx in sched.recvs:
                buf[lead + idx] = slots[wire, src, me][half]

    stmt_vals = [None if fn is None else fn(block_of) for fn in plan.evals]

    for values, store in zip(stmt_vals, plan.stores):
        if store is None:
            continue
        op, array = store[0], store[1]
        if op == "transfer":
            sched, wire = store[2], store[3]
            flat = None if values is None else values.reshape(plan.flat)
            for dst, sel in sched.sends:
                slots[wire, me, dst][half] = flat[lead + (sel,)]
        elif op == "box":
            _, _, locs, perm, boxshape = store
            block_of(array)[locs] = values.transpose(perm).reshape(boxshape)
        else:  # "flat"
            block_of(array)[store[2]] = values.reshape(plan.flat)
    return stmt_vals


def _apply_scatter(plan, slots: dict, block_of, half, stmt_vals) -> None:
    """Phase C (loops whose stores go through scatter schedules):
    statement by statement, the rank's own values and then the incoming
    scatter values into its lhs blocks, so the later statement wins an
    element two statements write."""
    me, lead = plan.rank, plan.lead
    for values, store in zip(stmt_vals, plan.stores):
        if store is None or store[0] != "transfer":
            continue
        _, array, sched, wire = store
        if sched.self_src is not None:
            block_of(array)[lead + sched.self_dst] = \
                values.reshape(plan.flat)[lead + (sched.self_src,)]
        for src, piece in sched.recvs:
            block_of(array)[lead + piece] = slots[wire, src, me][half]


def replay_direct(plan, slots: dict, has_remote: bool, fence, parity: int) -> None:
    """One sweep of a single-run StepPlan with preallocated slots as the wire.

    The multiprocessing workers' walk: the phases
    :func:`replay_in_process` walks, with no generator, no ops and no
    trace (the oracle stream accounts for the sweep).  ``slots`` maps
    ``(wire, src, dst)`` to a buffer shaped ``(2,) +`` the payload shape
    :func:`outgoing` reports, visible to both ranks; ``fence()`` returns
    once every rank of the loop has called it.

    Phase A fills this rank's outgoing gather slots from its (pre-store)
    blocks and copies owned data into the plan workspaces -- the fence
    then guarantees every rank's copy-in snapshot is complete before any
    rank stores, which is exactly the ordering the phase boundary gives
    :func:`replay_in_process`.  Phase B drains incoming slots into the
    workspaces, evaluates the prebound closures, and stores (only
    filling scatter slots for statements that store through a scatter
    schedule).  Phase C stores those statements, in order: the rank's
    own values, then the incoming ones.  A loop without remote writes
    has one fence per sweep: every slot has two halves and a sweep
    uses the half of its ``parity`` (the rank's sweep count & 1), so a
    fast rank filling the next sweep's slots never touches what a slow
    peer is still draining -- it cannot come back to the same half
    without first passing the next sweep's fence, which that peer
    reaches only after its drain.  When the loop sends scatter messages
    at all (``has_remote``), phase C runs after a second fence, and
    keeps a closing third one (the parity
    halves would cover it too; scatter steps are on no measured path, so
    their fence stays conservative).  Every rank executes the same fence
    count per sweep (the phase structure depends only on loop-level
    facts), so the ranks can never split-brain.
    """
    block_of = methodcaller("local", plan.rank)
    _fill(plan, slots, block_of, parity)
    fence()
    stmt_vals = _drain_eval_store(plan, slots, block_of, parity)
    if has_remote:
        fence()
    _apply_scatter(plan, slots, block_of, parity, stmt_vals)
    if has_remote:
        fence()


def replay_in_process(analyses, grid, iters: int, nbatch: int | None = None,
                      blocks: dict | None = None) -> None:
    """``iters`` sweeps of the loops on every rank of ``grid``, in this
    process: the simulator backend's data plane, for a frozen loop run
    and, one sweep at a grid rendezvous, for ``ctx.doall``.

    The same three phases the forked workers run, walked rank by rank --
    fill all, drain/eval/store all, [apply all] -- so the phase boundary
    *is* the fence: every rank's copy-in snapshot is complete before any
    rank stores, with no barrier, and a slot is drained before the next
    sweep refills it, with no parity.  Slots are plain arrays sized by
    :func:`outgoing`, allocated once per analysis for the live arrays
    (``LoopAnalysis.grid_walk``).  ``blocks`` (with ``nbatch``) redirects
    every block access to the batch driver's ``(uid, rank) -> (B,) +
    local`` shadow blocks, with slots of its own.
    """
    script = []
    for analysis in analyses:
        if blocks is not None:
            script.append(_grid_walk(analysis, grid, nbatch, blocks))
            continue
        if analysis.grid_walk is None:
            analysis.grid_walk = _grid_walk(analysis, grid, None, None)
        script.append(analysis.grid_walk)
    for _ in range(iters):
        for ranks, slots, scatters in script:
            for plan, block_of in ranks:
                _fill(plan, slots, block_of, ())
            vals = [_drain_eval_store(plan, slots, block_of, ())
                    for plan, block_of in ranks]
            if scatters:
                for (plan, block_of), stmt_vals in zip(ranks, vals):
                    _apply_scatter(plan, slots, block_of, (), stmt_vals)


def _grid_walk(analysis, grid, nbatch, blocks) -> tuple:
    """``([(plan, block_of)] per rank, slots, has scatter phase)``."""
    ranks, slots = [], {}
    for rank in grid.linear:
        plan = analysis.step_plan(rank, nbatch=nbatch)
        for wire, dst, shape, dtype in outgoing(plan):
            slots[wire, rank, dst] = np.empty(shape, dtype)
        if blocks is None:
            block_of = methodcaller("local", rank)
        else:
            def block_of(array, rank=rank):
                return blocks[array.uid, rank]
        ranks.append((plan, block_of))
    return ranks, slots, not analysis.writes_local


# ----------------------------------------------------------------------
# A frozen loop run: accounting by arithmetic, trace from the oracle
# ----------------------------------------------------------------------


def run_frozen_loops(session, machine, loops, grid, move, *, iters: int,
                     overlap: bool, marks: str | None,
                     nbatch: int | None = None) -> Trace:
    """Execute a frozen loop program: the driver both backends' ``run_loops``
    share.

    ``machine`` is the modeled machine (the simulator itself, or the one
    a backend wraps); ``move(analyses)`` is the backend's data plane --
    :func:`replay_in_process` here, the worker pool's sweeps there.  The
    rest is the same everywhere: each rank probes the plan cache once
    per loop per run (the outcome is the ``reused`` of its first sweep),
    the remaining sweeps are counted as as-if hits in one call
    (:meth:`PlanCache.count_replay`) so the accounting matches the
    per-sweep probes of ``ctx.doall``, and the trace comes from
    :func:`oracle_trace`.  Loop programs contain no redistribution, so
    the layout cannot move within a run; between runs the probes follow
    it to that layout's analyses.  The oracle is consulted before the
    data moves, so a rejected argument leaves the arrays untouched.
    """
    ranks = grid.linear
    if len(ranks) > machine.n_procs:
        raise ValidationError(
            f"grid of {len(ranks)} procs exceeds machine size {machine.n_procs}"
        )
    plans = session.plans
    probes = [[plans.analysis(loop) for loop in loops] for _ in ranks]
    plans.count_replay("doall", (iters - 1) * len(loops) * len(ranks))
    analyses = [analysis for analysis, _ in probes[0]]
    first = tuple(tuple(reused for _, reused in row) for row in probes)
    trace = oracle_trace(
        session, machine, loops, analyses, grid, first,
        iters=iters, overlap=overlap, marks=marks, nbatch=nbatch,
    )
    move(analyses)
    return trace


#: bound of a trace-oracle cache (a Session's, or a pool's shared one):
#: entries hold whole Trace templates, so far fewer than plans
ORACLE_ENTRIES = 32


def oracle_trace(session, machine, loops, analyses, grid, first, *,
                 iters: int, overlap: bool, marks: str | None,
                 nbatch: int | None) -> Trace:
    """The sim-clock Trace of one frozen loop run, from the memoized oracle.

    Trace *timings* are statements of the cost model, not of the host,
    and for a frozen loop program they are as frozen as the schedules:
    the same messages, tags, byte counts, flop charges and marks every
    run.  So the trace is simulated once -- ``machine`` runs the
    data-free :func:`_replay` stream of every rank --
    and kept as a template in ``session.oracle`` (a :class:`PlanCache`:
    LRU, one build serves every concurrent requester, one template per
    layout the arrays visit).  ``first`` holds each rank's per-loop
    ``reused`` flags of the first sweep -- only a loop's first execution
    can be a build.

    The key is stable facts only: the loops' keys (structure and array
    layouts, by value), the cost model by value, the run shape,
    and the identity of the machine, which the entry pins so the id
    cannot be recycled.  An entry holds the template and the machine --
    never a :class:`LoopAnalysis`, whose lifetime stays its plan-cache
    entry's.
    """
    mode = marks if marks is not None else session.marks
    key = (
        tuple(loop.key() for loop in loops), id(machine), machine.cost,
        iters, overlap, mode, nbatch, first,
    )

    def build():
        first_of = dict(zip(grid.linear, first))

        def shadow(ctx):
            for sweep in range(iters):
                for analysis, was_cached in zip(analyses, first_of[ctx.rank]):
                    yield from _replay(
                        ctx, analysis, overlap, was_cached or sweep > 0, nbatch
                    )

        return session._execute(machine, grid, shadow, mode), machine

    (template, _), _ = session.oracle.get(
        "oracle", key, build,
        uids=lambda: {uid for loop in loops for uid in _loop_uids(loop)},
    )
    # a fresh Trace per run: records are immutable once a run finishes,
    # so materializations share them while the lists and dicts stay
    # caller-owned
    return Trace(
        n_procs=template.n_procs,
        computes=list(template.computes),
        messages=list(template.messages),
        marks=list(template.marks),
        finish_times=dict(template.finish_times),
        level=template.level,
        mark_counts=dict(template.mark_counts),
    )
