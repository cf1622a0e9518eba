"""Compiled communication: frozen transfer schedules, and the grid-wide
plans of redistributions and irregular gathers.

The paper derives the messages of an affine ``doall`` from the
distribution clauses at compile time and hands data-dependent
subscripts to a runtime inspector/executor (its reference [17], the
PARTI lineage).  This module holds the compiled artifacts of both,
each immutable once built:

* :class:`TransferSchedule` -- one rank's frozen share of a doall's
  data transfer: outgoing coalesced messages (peer + source-side index
  arrays), incoming ones (peer + destination-side index arrays), and an
  optional local move.  The ``direction`` field says how the index
  arrays are interpreted:

  - ``"gather"``: sources are local-block coordinates on the owners,
    destinations are positions in the reader's workspace (the ghost
    exchange of a doall's read arrays);
  - ``"scatter"``: sources are positions in the writer's flat value
    vector, destinations are local-block coordinates on the owners
    (the write side of a doall loop, see :mod:`repro.compiler.commgen`);

* :class:`RepartitionPlan` -- one layout transition of one array for
  the whole grid.  Owner-to-owner moves are fully derivable from the
  two layouts (no inspection round at all): each rank sends only the
  intersections of its old block with the new owners' blocks.  The
  plan moves the values in process; :func:`repartition`, behind
  ``ctx.redistribute``, caches it in the Session's plan cache under the
  (from-layout, to-layout) pair and yields the matching data-free
  message stream;

* :class:`GatherPlan` -- one irregular gather of one array for the
  whole grid, built from every rank's index rows: per (requester,
  owner) pair, the owner-local locations and the requester's output
  positions.  :func:`gather`, behind ``inspector_gather`` and
  ``ctx.cached_gather``, builds it at a grid rendezvous (cached in the
  plan cache under :func:`gather_key` for ``ctx.cached_gather``),
  moves the values in process, and yields the message stream of the
  inspector/executor protocol with no data in it: the two rounds of
  requests and replies on a build, one round of coalesced value
  messages on a replay.

The plan collectives are grid **rendezvous**: every rank of the grid
must reach the call, and the values move once the last one has.  A rank
that skips it leaves the others in a ``DeadlockError`` naming the
rendezvous, with nothing moved and nothing cached.

Cached collectives are announced to the trace with
``Mark("commsched/hit")`` / ``Mark("commsched/miss")`` events whose
payload leads with the transfer direction; see
:meth:`repro.machine.trace.Trace.schedule_counts` for per-direction
reuse reporting.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.compiler.inspector import (
    local_locations,
    normalize_indices,
    partition_requests,
)
from repro.lang.array import BaseDistArray, DistArray
from repro.lang.procs import ProcessorGrid
from repro.machine.ops import Barrier, Mark, Recv, Rendezvous, Send
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


class TransferSchedule:
    """One rank's frozen communication schedule for its share of a
    doall's transfer (gather or scatter).

    ``sends`` pairs a destination rank with *source-side* index arrays
    (what to read before sending); ``recvs`` pairs a source rank with
    *destination-side* index arrays (where to store the incoming
    values); ``self_src``/``self_dst`` describe the message-free local
    move.

    The doall compiler freezes one gather-direction schedule per read
    array (``ReadPlan.transfer``) and one scatter-direction schedule per
    statement with remote writes (``WritePlan.transfer``), so every byte
    a doall moves -- reads and writes alike -- is described by the same
    object.

    **Immutability contract.**  A schedule is mutable only while its
    builder assembles it; once published (frozen onto a plan) every
    field is read-only forever.  Replay never writes to the schedule --
    it reads the frozen index arrays and writes only caller-owned
    buffers -- which is exactly what lets one schedule object be
    replayed concurrently from many serving threads (:mod:`repro.serve`)
    with no per-schedule lock.  Code that wants a different schedule
    must build a new one, never edit a published one.

    >>> s = TransferSchedule("scatter", rank=1)
    >>> s.sends.append((0, [0, 1]))       # send value-vector picks 0,1 to rank 0
    >>> s.replay_message_count()
    1
    >>> TransferSchedule("sideways")
    Traceback (most recent call last):
        ...
    repro.util.errors.ValidationError: unknown transfer direction 'sideways'
    """

    __slots__ = ("direction", "rank", "self_src", "self_dst", "sends", "recvs")

    def __init__(self, direction: str, rank: int = -1):
        if direction not in DIRECTIONS:
            raise ValidationError(f"unknown transfer direction {direction!r}")
        self.direction = direction
        self.rank = rank
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransferSchedule({self.direction}, rank={self.rank}, "
            f"sends={len(self.sends)}, recvs={len(self.recvs)})"
        )


def uid_chain(array: BaseDistArray) -> tuple:
    """uids of ``array`` and every base beneath it (section chains)."""
    chain = []
    a = array
    while a is not None:
        chain.append(a.uid)
        a = getattr(a, "base", None)
    return tuple(chain)


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
    yield Rendezvous(
        union.key(), (tag, "repartition"), action=lambda _payloads: plan.apply(array)
    )
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
# Irregular gather: one grid-wide plan per index pattern
# ----------------------------------------------------------------------


def gather_key(array: BaseDistArray, grid: ProcessorGrid, fingerprints: dict) -> tuple:
    """Cache key of the gather plan of one collective call.

    The array's layout key -- so a redistributed array probes for the
    new layout's plan, and finds the old one again when it returns --
    the gathering grid, and every rank's index fingerprint in grid
    order: two ranks with identical request patterns still play
    different roles, and one rank changing its pattern alone moves the
    key of the whole grid.
    """
    return (
        array.layout_key(),
        grid.key(),
        tuple(fingerprints[r] for r in grid.linear),
    )


class GatherPlan:
    """One irregular gather of one array, for the whole grid.

    Built once from every rank's normalized index rows and immutable
    from then on.  ``moves`` holds, per (requester, owner) pair with
    requests, the owner-local locations and the requester's output
    positions, which :meth:`apply` moves in process.  ``build[rank]``
    is the rank's share of the two-round inspection exchange -- one
    request and one reply per peer, as ``(peer, nbytes)`` pairs, empty
    ones included -- and ``replay[rank]`` that of the one-round replay:
    ``(peer, nbytes)`` per non-empty value message it sends, and the
    peers it receives one from.

    >>> import numpy as np
    >>> from repro.lang import DistArray, ProcessorGrid
    >>> g = ProcessorGrid((2,))
    >>> A = DistArray((4,), g, dist=("block",), name="A")
    >>> A.from_global(np.arange(4.0))
    >>> plan = GatherPlan(A, g, {0: np.array([[3]]), 1: np.empty((0, 1), int)})
    >>> plan.build[0]      # one index row to rank 1, an empty reply back
    (((1, 8),), ((1, 0),))
    >>> plan.replay[1]     # each replay: rank 1 sends element 3 to rank 0
    (((0, 8),), ())
    >>> plan.apply(A)[0]
    array([3.])
    """

    __slots__ = ("layout", "n_out", "moves", "build", "replay")

    def __init__(self, array: BaseDistArray, grid: ProcessorGrid, rows: dict):
        members = grid.linear
        self.layout = array.layout_key()
        self.n_out = {r: rows[r].shape[0] for r in members}
        moves = []
        count = {}  # (requester, owner) -> elements requested
        for r in members:
            requests, order = partition_requests(members, array, rows[r])
            for q in members:
                count[r, q] = order[q].size
                if order[q].size:
                    moves.append((r, q, local_locations(array, requests[q]), order[q]))
        self.moves = tuple(moves)
        row_bytes = array.ndim * np.dtype(np.int64).itemsize
        itemsize = array.dtype.itemsize
        self.build, self.replay = {}, {}
        for r in members:
            peers = [q for q in members if q != r]
            self.build[r] = (
                tuple((q, count[r, q] * row_bytes) for q in peers),
                tuple((q, count[q, r] * itemsize) for q in peers),
            )
            self.replay[r] = (
                tuple((q, count[q, r] * itemsize) for q in peers if count[q, r]),
                tuple(q for q in peers if count[r, q]),
            )

    def apply(self, array: BaseDistArray) -> dict:
        """Every rank's gathered values, read from the current blocks,
        as ``{rank: vector}``; refuses an array whose layout moved on."""
        if array.layout_key() != self.layout:
            raise ValidationError(
                f"stale gather plan: {array.name!r} was redistributed "
                f"(plan layout {self.layout}, array layout "
                f"{array.layout_key()}); build a new plan"
            )
        out = {r: np.empty(n, dtype=array.dtype) for r, n in self.n_out.items()}
        for r, q, locs, pos in self.moves:
            out[r][pos] = array.local(q)[locs]
        return out


def gather(ctx, grid: ProcessorGrid, array: BaseDistArray, indices, cached: bool,
           tag=None):
    """One rank's share of a collective irregular gather (generator; use
    ``yield from``); evaluates to the values at ``indices``, in order.

    Yields the grid :class:`~repro.machine.ops.Rendezvous` carrying the
    rank's index rows; once every rank of ``grid`` has arrived, its
    action builds the :class:`GatherPlan` -- through the Session's plan
    cache under :func:`gather_key` (kind ``"gather"``) when ``cached``,
    uncached otherwise -- applies it, and resumes each rank with its own
    fresh output vector.  A data-free stream follows: the cached form's
    ``commsched/hit``/``miss`` mark, then ``Send`` ops carrying only a
    byte count and discarding ``Recv`` ops -- the request and reply
    rounds on a build, the value round on a replay.  Index rows are
    validated here, before any op is yielded.
    """
    if not array.grid.is_subset_of(grid):
        raise ValidationError("array owners must participate in a gather")
    rows = normalize_indices(array, indices)
    fingerprint = index_fingerprint(rows) if cached else None
    if tag is None:
        tag = ctx.next_tag(grid)

    def action(payloads):
        def build():
            return GatherPlan(array, grid, {r: p[0] for r, p in payloads.items()})

        if cached:
            key = gather_key(array, grid, {r: p[1] for r, p in payloads.items()})
            plan, reused = ctx.session.plans.get(
                "gather", key, build, uids=lambda: uid_chain(array)
            )
        else:
            plan, reused = build(), False
        out = plan.apply(array)
        return {r: (out[r], plan, reused) for r in payloads}

    # the kind in the tag keeps a peer that diverged into another
    # collective at the same tag (a doall, or the other gather form) out
    # of this rendezvous
    values, plan, reused = yield Rendezvous(
        grid.key(), (tag, "gather", cached), action, payload=(rows, fingerprint)
    )
    if cached:
        yield from _mark(
            ctx, "commsched/hit" if reused else "commsched/miss",
            ("gather", array.name, fingerprint[:8]),
        )
    me = ctx.rank
    if reused:
        sends, srcs = plan.replay[me]
        for dst, nbytes in sends:
            yield Send(dst, None, (tag, "val", me), nbytes)
        for src in srcs:
            yield Recv(src, (tag, "val", src))
        return values
    requests, replies = plan.build[me]
    for dst, nbytes in requests:
        yield Send(dst, None, (tag, "req", me), nbytes)
    for src, _ in requests:
        yield Recv(src, (tag, "req", src))
    for dst, nbytes in replies:
        yield Send(dst, None, (tag, "rep", me), nbytes)
    for src, _ in requests:
        yield Recv(src, (tag, "rep", src))
    return values
