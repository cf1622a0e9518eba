"""The bidirectional TransferSchedule subsystem: cached communication
schedules for gathers and scatters, and the repartition plans of
redistribution.

The inspector/executor protocol of :mod:`repro.compiler.inspector` pays
for *two* message rounds on every call: one to tell the owners what is
needed, one for the owners to reply.  When the index pattern is
loop-invariant across ``doall`` sweeps -- the common case for irregular
solvers and the exact amortization the PARTI lineage exploits -- the
first round only ever needs to run once.  PR 1 turned the *read* side of
that observation into a first-class object; this module generalizes it
into one bidirectional abstraction used by every communication layer:

* :class:`TransferSchedule` -- one rank's compiled share of a collective
  data transfer.  A schedule is a set of precomputed *moves*: outgoing
  coalesced messages (peer + source-side index arrays), incoming ones
  (peer + destination-side index arrays), and an optional local move.
  The ``direction`` field says how the index arrays are interpreted:

  - ``"gather"``: sources are local-block coordinates on the owners,
    destinations are positions in the requester's output vector;
  - ``"scatter"``: sources are positions in the writer's flat value
    vector, destinations are local-block coordinates on the owners
    (the write side of a doall loop, see :mod:`repro.compiler.commgen`);

* :func:`execute_transfer` -- the one vectorized executor both
  directions replay through: post the precomputed coalesced sends, do
  the local move, scatter incoming messages through the precomputed
  index arrays.  No request round, no index lists on the wire.  (The
  doall replay in :mod:`repro.compiler.schedule` walks a loop's frozen
  schedules itself, so it can charge interior computation between
  posting the sends and draining the receives);

* :func:`build_gather_schedule` -- the one-time inspection phase for
  gathers.  It runs the same two-round protocol as ``inspector_gather``
  (so the build sweep costs no more than an uncached sweep) while
  recording the schedule, and returns ``(schedule, values)``;

* :class:`ScheduleCache` -- a keyed store of gather schedules with
  hit/miss accounting, keyed on the array's layout key (identity +
  layout by value) + index-pattern fingerprint, so repeated layout
  flips (ADI's row/column sweeps) replay the same schedules forever;

* :class:`RepartitionPlan` -- one layout transition of one array for
  the whole grid.  Owner-to-owner moves are fully derivable from the
  two layouts (no inspection round at all): each rank sends only the
  intersections of its old block with the new owners' blocks.  The
  plan moves the values in process; :func:`repartition`, behind
  ``ctx.redistribute``, caches it in the Session's plan cache under the
  (from-layout, to-layout) pair and yields the matching data-free
  message stream.

Cached transfers are **collective**: every rank of the grid must call
them, and all ranks must keep or change their patterns together (SPMD
discipline).  If ranks diverge -- some replaying, some rebuilding -- the
simulator detects the mismatched protocols (deadlock or unconsumed
messages) rather than computing wrong answers silently.

Replays are announced to the trace with ``Mark("commsched/hit")`` /
``Mark("commsched/miss")`` events whose payload leads with the transfer
direction; see :meth:`repro.machine.trace.Trace.schedule_counts` for
per-direction reuse reporting.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from repro.compiler.inspector import (
    local_locations,
    normalize_indices,
    partition_requests,
)
from repro.lang.array import BaseDistArray, DistArray
from repro.lang.procs import ProcessorGrid
from repro.machine.ops import Barrier, Mark, Recv, Rendezvous, Send, frozen_by_value
from repro.util.errors import ValidationError
from repro.util.indexing import mesh_shape, open_mesh

#: Transfer directions understood by the subsystem.
DIRECTIONS = ("gather", "scatter")


def _mark(ctx, label: str, payload: tuple):
    """Yield a schedule Mark, or aggregate it in cheap-marks mode.

    Contexts running with ``marks="cheap"`` (steady-state replay) count
    the event on the context instead of constructing a per-op
    :class:`~repro.machine.ops.Mark`; the Session folds the counters
    into ``Trace.mark_counts`` after the run, so
    :meth:`~repro.machine.trace.Trace.schedule_counts` and the hit-rate
    reporting see identical numbers either way.
    """
    if getattr(ctx, "marks", "full") == "cheap":
        ctx.count_mark(label, payload[0])
        return
    yield Mark(label, payload=payload)


def index_fingerprint(indices: np.ndarray) -> str:
    """Stable fingerprint of an index pattern (shape + contents)."""
    h = hashlib.sha1()
    h.update(repr(indices.shape).encode())
    h.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def schedule_key(
    grid: ProcessorGrid, array: BaseDistArray, indices: np.ndarray, rank: int,
    fingerprint: str | None = None,
) -> tuple:
    """Cache key of one rank's share of a collective gather.

    Keyed on the array's layout key -- its identity *and* its layout by
    value -- so a redistributed array probes for the new layout's
    schedules, and finds the old ones again when it returns.  The rank
    is part of the key because two
    ranks with identical request patterns still play different roles as
    senders.  Pass ``fingerprint`` when the caller already hashed the
    index pattern -- the fingerprint walks the whole index array, so a
    replay must pay for it exactly once per call, not once per use.
    """
    return (
        "gather",
        array.layout_key(),
        grid.key(),
        rank,
        fingerprint if fingerprint is not None else index_fingerprint(indices),
    )


class TransferSchedule:
    """One rank's compiled communication schedule for a collective
    transfer (gather or scatter).

    ``sends`` pairs a destination rank with *source-side* index arrays
    (what to read before sending); ``recvs`` pairs a source rank with
    *destination-side* index arrays (where to store the incoming
    values); ``self_src``/``self_dst`` describe the message-free local
    move.  :func:`execute_transfer` replays any direction against
    caller-supplied ``read``/``write`` functions.

    The doall compiler freezes one gather-direction schedule per read
    array (``ReadPlan.transfer``) and one scatter-direction schedule per
    statement with remote writes (``WritePlan.transfer``), so every byte
    a doall moves -- reads and writes alike -- replays through the same
    object.

    **Immutability contract.**  A schedule is mutable only while its
    builder assembles it; once published (stored in a
    :class:`ScheduleCache`, frozen onto a plan, or returned from a
    builder) every field is read-only forever.  Replay never writes to
    the schedule -- it reads the frozen index arrays and writes only
    caller-owned buffers -- which is exactly what lets one schedule
    object be replayed concurrently from many serving threads
    (:mod:`repro.serve`) with no per-schedule lock.  Code that wants a
    different schedule must build a new one, never edit a published one.

    >>> s = TransferSchedule("scatter", rank=1)
    >>> s.sends.append((0, [0, 1]))       # send value-vector picks 0,1 to rank 0
    >>> s.replay_message_count()
    1
    >>> TransferSchedule("sideways")
    Traceback (most recent call last):
        ...
    repro.util.errors.ValidationError: unknown transfer direction 'sideways'
    """

    __slots__ = (
        "direction",
        "key",
        "group",
        "uid_chain",
        "rank",
        "grid",
        "n_out",
        "layout",
        "fingerprint",
        "self_src",
        "self_dst",
        "sends",
        "recvs",
    )

    def __init__(self, direction: str, key=None, rank: int = -1, grid=None,
                 n_out: int = 0, layout: tuple | None = None, fingerprint: str = "",
                 group=None, uid_chain=()):
        if direction not in DIRECTIONS:
            raise ValidationError(f"unknown transfer direction {direction!r}")
        self.direction = direction
        self.key = key
        #: identity of the collective build this schedule came from; all
        #: ranks of one build share it (the build tag is SPMD-identical),
        #: which lets the cache evict a collective's entries atomically.
        self.group = group
        #: uids of the array and, for sections, every base beneath it --
        #: so invalidating a base array also reaches section schedules.
        self.uid_chain = uid_chain
        self.rank = rank
        self.grid = grid
        self.n_out = n_out
        #: layout key of the array the schedule was built against; None
        #: when the builder owns the schedule's lifetime (doall plans).
        self.layout = layout
        self.fingerprint = fingerprint
        #: local move: source-side and destination-side index arrays.
        self.self_src = None
        self.self_dst = None
        #: (dst rank, source-side index arrays) per outgoing message.
        self.sends: list[tuple[int, object]] = []
        #: (src rank, destination-side index arrays) per incoming message.
        self.recvs: list[tuple[int, object]] = []

    def replay_message_count(self) -> int:
        """Messages this rank sends+receives per replay sweep."""
        return len(self.sends) + len(self.recvs)

    def check_replayable(self, array: BaseDistArray) -> None:
        """Refuse to replay against an array whose layout moved on."""
        if self.layout is not None and self.layout != array.layout_key():
            raise ValidationError(
                f"stale {self.direction} schedule: the array was "
                f"redistributed (schedule layout {self.layout}, array "
                f"layout {array.layout_key()}); rebuild via the builder "
                "or a ScheduleCache"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransferSchedule({self.direction}, rank={self.rank}, "
            f"n_out={self.n_out}, sends={len(self.sends)}, "
            f"recvs={len(self.recvs)})"
        )


def freeze_payload(values) -> np.ndarray:
    """Make a message payload by-value without a simulator-side copy.

    Schedule replays build every outgoing payload fresh (a fancy-index
    read of the source block or value vector), so the simulator's
    send-time deep copy -- there to give mutable ad-hoc payloads
    by-value semantics -- is pure waste on the hot path.  Freezing the
    array (``writeable=False``) marks it as already-by-value: the
    simulator ships it as-is.  A payload that is already by-value --
    frozen and owning, or a read-only view whose whole base chain is
    frozen (:func:`repro.machine.ops.frozen_by_value`), e.g. a slice of
    a frozen value vector -- passes through untouched, so replaying a
    schedule against frozen inputs never degenerates into a per-sweep
    copy.  Anything else that is not a fresh owning writable array (a
    live view, shared storage) is copied first, so copy-in semantics
    can never be broken by a read callable that hands out live storage.
    """
    values = np.asarray(values)
    if frozen_by_value(values):
        return values
    if values.base is not None or not values.flags.owndata \
            or not values.flags.writeable:
        values = values.copy()
    values.flags.writeable = False
    return values


def execute_transfer(ctx, sched: TransferSchedule, read, write,
                     tag=None, kind: str = "val"):
    """Replay any transfer schedule through ``read``/``write`` callables.

    ``read(idx)`` must return the values at source-side index arrays
    ``idx``; ``write(idx, values)`` must store values at destination-side
    index arrays.  The executor posts all precomputed coalesced sends --
    payloads frozen (:func:`freeze_payload`), so the simulator skips its
    send-time snapshot copy -- performs the local move, then consumes
    incoming messages in schedule order, blocking (in simulated time)
    until each has arrived.  Collective over the schedule's peer set;
    yields machine ops.

    A schedule whose moves are all local yields no ops at all:

    >>> import numpy as np
    >>> from types import SimpleNamespace
    >>> sched = TransferSchedule("gather", rank=0)
    >>> sched.self_src = np.array([2, 0])   # read source positions 2, 0 ...
    >>> sched.self_dst = np.array([0, 1])   # ... into output positions 0, 1
    >>> src = np.array([10.0, 20.0, 30.0])
    >>> out = np.zeros(2)
    >>> list(execute_transfer(SimpleNamespace(rank=0), sched,
    ...                       src.__getitem__, out.__setitem__))
    []
    >>> out
    array([30., 10.])
    """
    me = ctx.rank
    for dst, src_idx in sched.sends:
        yield Send(dst, freeze_payload(read(src_idx)), tag=(tag, kind, me))
    if sched.self_src is not None:
        write(sched.self_dst, read(sched.self_src))
    for src, dst_idx in sched.recvs:
        values = yield Recv(src=src, tag=(tag, kind, src))
        write(dst_idx, values)


# ----------------------------------------------------------------------
# Gather direction: inspector -> schedule -> executor
# ----------------------------------------------------------------------


def build_gather_schedule(
    ctx,
    grid: ProcessorGrid,
    array: BaseDistArray,
    indices: np.ndarray | None,
    tag=None,
    fingerprint: str | None = None,
):
    """One-time inspection: build this rank's gather TransferSchedule.

    Runs the same collective two-round protocol as ``inspector_gather``
    (every rank must call this), recording who-needs-what-from-whom.
    Yields machine ops; evaluates to ``(schedule, values)`` where
    ``values`` are the gathered elements of this first sweep -- so the
    build doubles as an uncached gather and costs no extra messages.
    ``fingerprint`` lets a caller that already hashed ``indices`` (the
    cache probe) pass the digest down instead of recomputing it; it is
    stored on the schedule, which replays key off it from then on.
    """
    if not array.grid.is_subset_of(grid):
        raise ValidationError("array owners must participate in a gather schedule")
    me = ctx.rank
    if tag is None:
        tag = ctx.next_tag(grid)
    members = grid.linear

    indices = normalize_indices(array, indices)
    if fingerprint is None:
        fingerprint = index_fingerprint(indices)
    sched = TransferSchedule(
        "gather",
        key=schedule_key(grid, array, indices, me, fingerprint=fingerprint),
        rank=me,
        grid=grid,
        n_out=indices.shape[0],
        layout=array.layout_key(),
        fingerprint=fingerprint,
        # the run id disambiguates builds from different launches, whose
        # per-grid tag counters restart and would otherwise collide
        group=(array.uid, array.comm_epoch, grid.key(),
               getattr(ctx, "run_id", None), tag),
        uid_chain=uid_chain(array),
    )

    # --- round 1: send requests to owners -------------------------------
    requests, order = partition_requests(members, array, indices)
    for q in members:
        if q == me:
            continue
        yield Send(q, requests[q], tag=(tag, "req", me))

    # --- round 1b: receive all requests, record the send schedule -------
    incoming: dict[int, np.ndarray] = {}
    for q in members:
        if q == me:
            incoming[q] = requests[me]
            continue
        incoming[q] = yield Recv(src=q, tag=(tag, "req", q))

    i_own = array.grid.contains(me)
    for q in members:
        req = incoming[q]
        if q == me:
            continue
        if req.shape[0] and not i_own:
            raise ValidationError(
                f"rank {q} requested elements of {array.name!r} from "
                f"rank {me}, which owns no part of it"
            )
        if req.shape[0]:
            locs = local_locations(array, req)
            sched.sends.append((q, locs))
            values = np.asarray(array.local(me)[locs])
        else:
            values = np.empty(0, dtype=array.dtype)
        yield Send(q, values, tag=(tag, "rep", me))

    # --- round 2: receive replies, record the permutation arrays --------
    out = np.empty(indices.shape[0], dtype=array.dtype)
    if requests[me].shape[0]:
        sched.self_src = local_locations(array, requests[me])
        sched.self_dst = order[me]
        out[sched.self_dst] = np.asarray(array.local(me)[sched.self_src])
    for q in members:
        if q == me:
            continue
        values = yield Recv(src=q, tag=(tag, "rep", q))
        if order[q].size:
            sched.recvs.append((q, order[q]))
            out[order[q]] = values
    return sched, out


def uid_chain(array: BaseDistArray) -> tuple:
    """uids of ``array`` and every base beneath it (section chains)."""
    chain = []
    a = array
    while a is not None:
        chain.append(a.uid)
        a = getattr(a, "base", None)
    return tuple(chain)


def execute_gather(ctx, sched: TransferSchedule, array: BaseDistArray, tag=None):
    """Replay a gather schedule against the array's *current* values.

    The fast path: owners bulk-gather their precomputed local locations
    (one vectorized fancy-index read and one coalesced message per
    requester) and requesters scatter replies through the precomputed
    permutation arrays.  No request round.  Collective over the grid the
    schedule was built on.  Yields machine ops; evaluates to the same
    values a fresh ``inspector_gather`` with the original indices would
    return.
    """
    sched.check_replayable(array)
    me = ctx.rank
    if me != sched.rank:
        raise ValidationError(
            f"rank {me} replaying a schedule built for rank {sched.rank}"
        )
    if tag is None:
        tag = ctx.next_tag(sched.grid)

    out = np.empty(sched.n_out, dtype=array.dtype)
    yield from execute_transfer(
        ctx,
        sched,
        read=lambda locs: np.asarray(array.local(me)[locs]),
        write=out.__setitem__,
        tag=tag,
    )
    return out


# ----------------------------------------------------------------------
# Repartition: owner-to-owner relayout, one grid-wide plan per transition
# ----------------------------------------------------------------------


def repartition_pieces(array, new_dist, new_grid=None):
    """Owner-to-owner moves realizing a relayout of ``array``.

    Yields ``(src, dst, src_locs, dst_locs)`` tuples: the values at
    old-layout local box ``src_locs`` of rank ``src`` land at new-layout
    local box ``dst_locs`` of rank ``dst``.  The moves partition the
    whole array (every element moves exactly once per destination), so
    no global materialization is ever needed -- each rank sends only the
    intersections of its old block with the new owners' blocks.

    ``new_grid`` makes the relayout *inter-grid*: sources are the ranks
    of ``array.grid``, destinations the ranks of ``new_grid`` -- the
    rank sets may grow, shrink, or be disjoint.  A rank in only one of
    the two grids plays only that side's role.  Defaults to the array's
    own grid (the classic same-grid relayout).

    Because per-dimension ownership is independent, every intersection
    is a box product of per-dimension index-list intersections -- the
    same machinery the doall read analysis uses.
    """
    from repro.compiler.access import intersect_lists
    from repro.compiler.commgen import local_positions

    grid = array.grid
    to_grid = new_grid if new_grid is not None else grid
    old = array.dist
    src_ranks = grid.linear

    owned_cache: dict[tuple, list] = {}

    def owned(dist, g, r):
        key = (id(dist), id(g), r)
        if key not in owned_cache:
            owned_cache[key] = dist.owned_lists(g.coords_of(r))
        return owned_cache[key]

    def locs(dist, lists):
        return open_mesh(local_positions(dist, lists))

    if old.replicated:
        # every rank of the old grid already stores the full array: a
        # destination that is also a source re-slices locally; a
        # destination new to the array is fed by one canonical source
        # (the first old rank), so each element still moves exactly
        # once per destination
        for dst in to_grid.linear:
            src = dst if grid.contains(dst) else src_ranks[0]
            box = owned(new_dist, to_grid, dst)
            yield src, dst, locs(old, box), locs(new_dist, box)
        return

    for dst in to_grid.linear:
        for src in src_ranks:
            inter = intersect_lists(
                owned(new_dist, to_grid, dst), owned(old, grid, src)
            )
            if inter is None:
                continue
            yield src, dst, locs(old, inter), locs(new_dist, inter)


def _check_repartitionable(array) -> None:
    """Repartition needs a whole DistArray, the owner of a layout and of
    blocks.  Sections inherit their base array's layout -- redistribute
    the base and take a fresh slice instead."""
    if not isinstance(array, DistArray):
        raise ValidationError(
            f"cannot repartition {array.name!r}: only whole DistArrays "
            "carry a redistributable layout (redistribute the base array "
            "and re-slice any sections of it)"
        )


def repartition_key(array, new_dist, new_grid: ProcessorGrid | None = None) -> tuple:
    """Cache key of the repartition plan moving ``array`` to ``new_dist``.

    Deliberately keyed on the *(from-layout, to-layout)* pair -- source
    grid + specs, destination grid + specs, each grid named by shape
    *and* ranks (a ``(2,2)`` -> ``(4,1)`` move and its return share ranks
    and specs) -- instead of the comm epoch:
    a repartition plan describes a layout transition, so it stays
    valid every time the array is again in the ``from`` layout -- which
    is exactly what makes repeated layout flips (block -> cyclic ->
    block -> ...) and repeated grid morphs (shrink -> grow -> shrink)
    pure cache hits.  ``new_grid`` defaults to the array's own grid
    (the classic same-grid relayout).  Raises ``ValidationError`` for
    anything but a whole DistArray -- the one check both redistribution
    forms go through.
    """
    _check_repartitionable(array)
    to_grid = new_grid if new_grid is not None else array.grid
    return (
        array.uid,
        (array.grid.shape, array.grid.key()),
        array.dist.spec_key(),
        (to_grid.shape, to_grid.key()),
        new_dist.spec_key(),
    )


class RepartitionPlan:
    """One layout transition of one array, for the whole grid.

    Built once from :func:`repartition_pieces` (no inspection round:
    both layouts are globally known) and immutable from then on.  Holds
    the ``(src, dst, src_locs, dst_locs)`` pieces, which :meth:`apply`
    moves in process, and each rank's share of the equivalent message
    exchange -- ``sends[rank]`` as ``(dst, nbytes)`` pairs,
    ``recvs[rank]`` as source ranks -- which ``ctx.redistribute`` yields
    as a data-free op stream.  ``DistArray.redistribute`` builds one and
    applies it; ``ctx.redistribute`` caches it in the Session's
    :class:`~repro.compiler.schedule.PlanCache` (kind ``"repartition"``)
    under :func:`repartition_key`, so every later flip between the same
    two layouts replays it.

    >>> from repro.lang import DistArray, ProcessorGrid
    >>> from repro.lang.dist import Distribution
    >>> g = ProcessorGrid((2,))
    >>> A = DistArray((4,), g, dist=("block",), name="A")
    >>> plan = RepartitionPlan(A, Distribution(("cyclic",), A.shape, g.shape))
    >>> plan.sends[0], plan.recvs[1]      # rank 0 ships element 1 to rank 1
    (((1, 8),), (0,))
    >>> plan.label
    "(('block',),)->(('cyclic',),)"
    """

    __slots__ = ("src_grid", "src_spec", "dist", "grid", "label", "pieces",
                 "sends", "recvs")

    def __init__(self, array, new_dist, new_grid: ProcessorGrid | None = None):
        _check_repartitionable(array)
        to_grid = new_grid if new_grid is not None else array.grid
        self.src_grid = array.grid
        self.src_spec = array.dist.spec_key()
        self.dist = new_dist
        self.grid = to_grid
        self.label = f"{self.src_spec}->{new_dist.spec_key()}"
        if to_grid != array.grid:
            self.label += f" @grid{array.grid.shape}->{to_grid.shape}"
        self.pieces = tuple(repartition_pieces(array, new_dist, new_grid=to_grid))
        itemsize = array.dtype.itemsize
        sends: dict[int, list] = {}
        recvs: dict[int, list] = {}
        for src, dst, src_locs, _ in self.pieces:
            if src != dst:
                nbytes = int(np.prod(mesh_shape(src_locs))) * itemsize
                sends.setdefault(src, []).append((dst, nbytes))
                recvs.setdefault(dst, []).append(src)
        self.sends = {r: tuple(v) for r, v in sends.items()}
        self.recvs = {r: tuple(v) for r, v in recvs.items()}

    def apply(self, array) -> None:
        """Assemble the new blocks from the old ones and install them.

        Refuses an array that left the plan's source layout (a plan
        pinned before a grid move or a relayout describes moves from
        blocks that are gone).
        """
        if array.grid != self.src_grid:
            raise ValidationError(
                f"stale repartition plan: the array moved to a different "
                f"grid (plan source grid {self.src_grid!r}, array grid "
                f"{array.grid!r}); build a new plan"
            )
        if array.dist.spec_key() != self.src_spec:
            raise ValidationError(
                f"stale repartition plan: the array is no longer in the "
                f"plan's source layout {self.src_spec!r}"
            )
        blocks = {
            r: np.zeros(self.dist.local_shape(self.grid.coords_of(r)), dtype=array.dtype)
            for r in self.grid.linear
        }
        for src, dst, src_locs, dst_locs in self.pieces:
            blocks[dst][dst_locs] = array.local(src)[src_locs]
        array._install(self.grid, self.dist, blocks)


def repartition(ctx, array, dist, new_grid: ProcessorGrid | None = None):
    """One rank's share of a collective repartition (generator; use
    ``yield from``).

    Probes the Session's plan cache -- the first rank to arrive builds
    the :class:`RepartitionPlan`, the rest hit -- and yields the grid
    :class:`~repro.machine.ops.Rendezvous` whose action applies it once
    every rank of the union of the old and new grids has arrived.  A
    data-free stream follows: the ``commsched/hit``/``miss`` mark, one
    ``Send`` (no payload, the piece's byte count) per outgoing piece, a
    discarding ``Recv`` per incoming one, and the commit barrier over
    the union -- so the trace holds the messages, bytes and time of the
    owner-to-owner exchange.
    """
    from repro.lang.dist import Distribution

    to_grid = new_grid if new_grid is not None else array.grid
    new_dist = Distribution(dist, array.shape, to_grid.shape)
    plan, reused = ctx.session.plans.get(
        "repartition", repartition_key(array, new_dist, to_grid),
        lambda: RepartitionPlan(array, new_dist, to_grid),
    )
    union = array.grid.union(to_grid)
    tag = ctx.next_tag(union)
    yield Rendezvous(union.key(), tag, action=lambda: plan.apply(array))
    yield from _mark(
        ctx, "commsched/hit" if reused else "commsched/miss",
        ("repartition", array.name, plan.label),
    )
    me = ctx.rank
    for dst, nbytes in plan.sends.get(me, ()):
        yield Send(dst, None, (tag, "val", me), nbytes)
    for src in plan.recvs.get(me, ()):
        yield Recv(src, (tag, "val", src))
    yield Barrier(group=tuple(union.linear), tag=(tag, "commit"))


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------


class _CallDecision:
    """Shared hit/miss verdict for one collective gather call.

    Simulated ranks reach the same collective call at different event
    times while sharing one cache object, so per-rank lookups against
    live cache state can disagree (an eviction or store between two
    ranks' lookups would make one replay while the other rebuilds -- a
    protocol mismatch).  The first rank to arrive fixes the verdict for
    everyone; schedules evicted while a hit verdict is outstanding are
    retained here until every rank has consumed it.
    """

    __slots__ = ("kind", "group", "retained", "consumed", "expect")

    def __init__(self, kind: str, group, expect: int):
        self.kind = kind  # "hit" | "miss"
        self.group = group
        self.retained: dict[int, TransferSchedule] = {}
        self.consumed = 0
        self.expect = expect


class ScheduleCache:
    """Keyed store of gather schedules with per-direction accounting.

    One cache is shared by all simulated ranks (the schedules themselves
    are per-rank; the key includes the rank).  Beyond ``max_entries``
    the least-recently-used entries are evicted -- in whole
    per-collective *groups* (every rank's schedule from one build goes
    together), never one rank at a time.  Whether a given collective
    gather call replays or rebuilds is decided once, by the first rank
    to reach the call, and applied to every rank of that call (see
    :class:`_CallDecision`), so cache mutations between two ranks'
    lookups can never split a collective into mixed replay/rebuild.
    Entries key on the array's layout key, so they survive
    redistribution by design (that is their reuse story): the gather
    schedules of a layout the array has left wait for its return, or
    for the LRU bound.  :meth:`invalidate_array` is the manual purge.

    The cache is also **thread-safe**, so one instance can be shared by
    many Sessions serving concurrent runs (:mod:`repro.serve`).  All
    bookkeeping -- probes, verdicts, counters, LRU touches, stores,
    evictions -- happens under one re-entrant lock, and the lock is
    never held across a ``yield``: replay and build run unlocked, which
    is sound because a stored :class:`TransferSchedule` is *immutable*
    -- its index arrays, peer lists, and local move are frozen at build
    time and never mutated afterwards, so any number of threads may
    replay one schedule object concurrently (each replay reads the
    schedule and writes only caller-owned buffers).  Do not mutate a
    schedule after :meth:`store`; rebuild instead.  Per-call verdicts
    are scoped by run id (concurrent runs interleave their collective
    calls, so the single "current run" slot of the single-threaded
    design would thrash); finished or aborted runs' verdicts are pruned
    LRU-style once :data:`MAX_RUN_SCOPES` distinct runs have been seen.

    >>> cache = ScheduleCache(max_entries=4)
    >>> cache.stats()
    {'entries': 0, 'hits': 0, 'misses': 0, 'evictions': 0}
    >>> cache.direction_stats()
    {}
    >>> ScheduleCache(max_entries=0)
    Traceback (most recent call last):
        ...
    repro.util.errors.ValidationError: ScheduleCache needs max_entries >= 1
    """

    #: distinct run ids whose call verdicts are kept live; beyond this
    #: the least-recently-seen run's verdicts are pruned (an aborted
    #: run's leftovers must not accumulate forever, and a finished
    #: run's tags can never be probed again)
    MAX_RUN_SCOPES = 64

    #: evicted-group tombstones kept live; a tombstone only matters
    #: while its collective's build is still in flight, so an LRU bound
    #: far above any realistic rank count is safe
    MAX_TOMBSTONES = 4096

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise ValidationError("ScheduleCache needs max_entries >= 1")
        self.max_entries = max_entries
        # guards every mutable field below; re-entrant so locked paths
        # may call locked helpers (store -> eviction).  Never held
        # across a yield: builds and replays run unlocked against
        # immutable schedules.
        self._lock = threading.RLock()
        self._entries: dict[tuple, TransferSchedule] = {}
        # group id -> keys of that collective build, LRU-ordered by the
        # group's most recent touch (hits refresh the whole group)
        self._groups: OrderedDict[tuple, set] = OrderedDict()
        # open per-call verdicts, keyed by (run id, (array uid, epoch,
        # call tag)): per-grid tag counters restart every run, so a
        # verdict left behind by an aborted run must not be matched by
        # a later run's identical tags -- and concurrent runs must each
        # see their own verdicts, not trample a shared slot
        self._decisions: dict[tuple, _CallDecision] = {}
        # run ids seen by _decide, LRU-ordered; pruning one drops its
        # leftover verdicts (see MAX_RUN_SCOPES)
        self._run_scopes: OrderedDict = OrderedDict()
        # groups evicted while their build might still be in flight: a
        # straggler rank's late store must not re-create the group with
        # a subset of its ranks (a later identical call would then split
        # into hit-on-some / miss-on-others).  LRU-bounded; group ids
        # embed run id + tag, so stale tombstones can never match a new
        # build.
        self._tombstones: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: per-direction hit/miss counters, e.g. ``{"gather": {"hits": 3,
        #: "misses": 1}}``
        self.by_direction: dict[str, dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, direction: str, outcome: str) -> None:
        d = self.by_direction.setdefault(direction, {"hits": 0, "misses": 0})
        d[outcome] += 1

    def store(self, sched: TransferSchedule) -> None:
        with self._lock:
            if sched.group in self._tombstones:
                return  # group already evicted; a partial re-insert diverges
            old = self._entries.get(sched.key)
            if old is not None:
                self._discard_from_group(old)
            self._entries[sched.key] = sched
            self._groups.setdefault(sched.group, set()).add(sched.key)
            self._groups.move_to_end(sched.group)
            while len(self._entries) > self.max_entries:
                # never evict the collective currently being stored: its
                # remaining ranks have yet to add their entries, and a
                # half-present group is exactly the divergence hazard
                victim = next(
                    (g for g in self._groups if g != sched.group), None
                )
                if victim is None:
                    break  # one in-flight collective larger than the cache
                self._evict_group(victim)

    def _evict_group(self, group) -> None:
        self._tombstones[group] = None
        self._tombstones.move_to_end(group)
        while len(self._tombstones) > self.MAX_TOMBSTONES:
            self._tombstones.popitem(last=False)
        for k in self._groups.pop(group):
            sched = self._entries.pop(k)
            self.evictions += 1
            # ranks that have not yet consumed an outstanding hit
            # verdict on this group still need their schedule
            for decision in self._decisions.values():
                if decision.kind == "hit" and decision.group == group:
                    decision.retained[sched.rank] = sched

    def _discard_from_group(self, sched: TransferSchedule) -> None:
        members = self._groups.get(sched.group)
        if members is not None:
            members.discard(sched.key)
            if not members:
                del self._groups[sched.group]

    def invalidate_array(self, array: BaseDistArray) -> int:
        """Drop every layout-dependent schedule built for ``array`` --
        including schedules built on sections of it -- and return the
        count.
        """
        with self._lock:
            doomed = [k for k, s in self._entries.items() if array.uid in s.uid_chain]
            for k in doomed:
                self._discard_from_group(self._entries.pop(k))
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._groups.clear()
            self._decisions.clear()
            self._run_scopes.clear()
            self._tombstones.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.by_direction = {}

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def direction_stats(self) -> dict[str, dict[str, int]]:
        """Per-direction hit/miss counters (directions seen so far)."""
        with self._lock:
            return {d: dict(v) for d, v in self.by_direction.items()}

    # ------------------------------------------------------------------

    def _touch_run(self, run_id) -> None:
        """Mark ``run_id`` live; prune the oldest runs' leftover verdicts.

        Verdicts are normally deleted when every rank consumes them; a
        run that errors out mid-collective leaks its open ones.  The
        single-threaded design cleared everything whenever the run id
        changed, which breaks once concurrent runs interleave -- so
        scopes age out LRU-style instead.
        """
        scopes = self._run_scopes
        scopes[run_id] = None
        scopes.move_to_end(run_id)
        while len(scopes) > self.MAX_RUN_SCOPES:
            dead, _ = scopes.popitem(last=False)
            doomed = [k for k in self._decisions if k[0] == dead]
            for k in doomed:
                del self._decisions[k]

    def _decide(self, call_id, key, grid: ProcessorGrid, run_id) -> _CallDecision:
        self._touch_run(run_id)
        dkey = (run_id, call_id)
        decision = self._decisions.get(dkey)
        if decision is None:
            sched = self._entries.get(key)
            decision = _CallDecision(
                kind="hit" if sched is not None else "miss",
                group=sched.group if sched is not None else None,
                expect=grid.size,
            )
            self._decisions[dkey] = decision
        return decision

    def _consume(self, dkey, decision: _CallDecision) -> None:
        decision.consumed += 1
        if decision.consumed >= decision.expect:
            self._decisions.pop(dkey, None)

    def gather(self, ctx, grid: ProcessorGrid, array: BaseDistArray, indices):
        """Collective cached gather (generator; use ``yield from``).

        On a miss the full inspection runs and the schedule is stored;
        on a hit the schedule is replayed.  Either way the gathered
        values are returned and a ``commsched/hit``/``commsched/miss``
        Mark is recorded for reuse reporting.  The verdict is collective:
        all ranks of one call replay, or all rebuild -- so, stricter
        than the uncached ``inspector_gather``, all ranks must keep or
        change their index patterns *together*.  A workload where one
        rank's requests vary per sweep while others' stay fixed (e.g.
        adaptive refinement) raises a ``divergent index pattern`` error
        here; keep such gathers uncached.
        """
        indices = normalize_indices(array, indices)
        me = ctx.rank
        tag = ctx.next_tag(grid)
        call_id = (array.uid, array.comm_epoch, tag)
        # hash the index pattern exactly once per call: the same digest
        # keys the probe, stamps the miss mark, and lands on the built
        # schedule (whose stored fingerprint serves every later replay)
        fingerprint = index_fingerprint(indices)
        key = schedule_key(grid, array, indices, me, fingerprint=fingerprint)
        run_id = getattr(ctx, "run_id", None)
        # verdict + accounting under the lock, in one critical section
        # (a concurrent store/eviction between a probe and its counter
        # bump must not split them); the replay/build below runs
        # unlocked -- schedules are immutable once stored
        with self._lock:
            decision = self._decide(call_id, key, grid, run_id)
            if decision.kind == "hit":
                sched = self._entries.get(key)
                if sched is not None and sched.group != decision.group:
                    sched = None  # same fingerprint, different collective
                if sched is None:
                    sched = decision.retained.get(me)
                if sched is None:
                    raise ValidationError(
                        f"divergent index pattern: rank {me} brought a "
                        "request set that does not belong to the schedule "
                        "the rest of the grid is replaying (all ranks of a "
                        "cached gather must keep or change their patterns "
                        "together)"
                    )
                self.hits += 1
                self._count("gather", "hits")
                if sched.group in self._groups:
                    self._groups.move_to_end(sched.group)
            else:
                sched = None
                self.misses += 1
                self._count("gather", "misses")
            self._consume((run_id, call_id), decision)

        if sched is not None:
            yield from _mark(
                ctx, "commsched/hit",
                ("gather", array.name, sched.fingerprint[:8]),
            )
            result = yield from execute_gather(ctx, sched, array, tag=tag)
            return result

        yield from _mark(
            ctx, "commsched/miss",
            ("gather", array.name, fingerprint[:8]),
        )
        sched, values = yield from build_gather_schedule(
            ctx, grid, array, indices, tag=tag, fingerprint=fingerprint
        )
        self.store(sched)
        return values
