"""SPMD execution context.

A parallel subroutine (the paper's ``parsub``) is a Python generator
function ``def routine(ctx, ...)`` executed by every rank of a processor
grid; ``yield from`` composes nested parsubs and compiled doall
segments.  :class:`KaliCtx` carries the rank plus per-grid tag counters
so that implicitly generated messages match across ranks, mirroring the
compiler-assigned channel identities of real KF1.

Every context belongs to a :class:`~repro.session.Session`, which owns
the plan cache its collective operations consult (compiled doall
plans, repartition plans, gather plans); :meth:`Session.run` builds one
per rank.  A context built *without* a session can still allocate tags
and run the collectives that need no cache (the grid collectives and
``inspector_gather``); ``doall``, ``redistribute`` and
``cached_gather`` are rejected -- there is no process-global cache to
fall back to.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable

from repro.lang.procs import ProcessorGrid
from repro.machine import collectives
from repro.util.errors import ValidationError


class KaliCtx:
    """Per-rank execution context for SPMD parallel subroutines.

    ``session`` is the :class:`~repro.session.Session` whose plan cache
    the context's collective operations (``doall``, ``cached_gather``,
    ``redistribute``) consult; :meth:`Session.run` wires it
    automatically.  A session-less context serves only what needs no
    cache: tags, the grid collectives, and ``inspector_gather``.
    """

    def __init__(
        self,
        rank: int,
        grid: ProcessorGrid,
        session=None,
        marks: str | None = None,
    ):
        if not grid.contains(rank):
            raise ValidationError(f"rank {rank} not in grid {grid.shape}")
        self.rank = rank
        self.grid = grid
        self.session = session
        #: "full" records every schedule Mark; "cheap" aggregates them
        #: into :attr:`mark_counts` (no per-op mark objects on the hot
        #: path; the Session folds the counts into the trace).
        self.marks = (
            marks if marks is not None else getattr(session, "marks", "full")
        )
        if self.marks not in ("full", "cheap"):
            raise ValidationError(
                f"marks must be 'full' or 'cheap', got {self.marks!r}"
            )
        #: (label, direction) -> count, filled in cheap-marks mode.
        self.mark_counts: dict[tuple, int] = {}
        #: per-grid tag allocators; ``itertools.count`` objects, so
        #: allocation is atomic (see :meth:`next_tag`).
        self._counters: dict[tuple, itertools.count] = {}

    def count_mark(self, label: str, direction: str) -> None:
        """Aggregate one schedule event (cheap-marks mode)."""
        key = (label, direction)
        counts = self.mark_counts
        counts[key] = counts.get(key, 0) + 1

    # -- tag discipline --------------------------------------------------

    def next_tag(self, grid: ProcessorGrid) -> tuple:
        """Deterministic tag shared by all ranks of ``grid``.

        Every rank of ``grid`` executes the same sequence of collective
        operations on it (SPMD discipline), so a per-grid counter yields
        identical tags on all members without communication.

        Allocation is atomic: the bare ``c = get(); put(c + 1)``
        read-modify-write would hand two threads the same tag if a
        context were ever driven concurrently (``dict.setdefault`` plus
        ``next()`` on an ``itertools.count`` never lose an increment),
        so the serving layer cannot silently alias two collectives'
        message streams.
        """
        k = grid.key()
        counter = self._counters.get(k)
        if counter is None:
            counter = self._counters.setdefault(k, itertools.count())
        return ("kali", k, next(counter))

    # -- session plumbing --------------------------------------------------

    def _need_session(self, op: str) -> None:
        """Refuse a cached collective on a session-less context."""
        if self.session is None:
            raise ValidationError(
                f"KaliCtx.{op} needs a Session: launch via "
                "repro.Session(...).run(...) or repro.compile(...).run()"
            )

    # -- compiled loops ---------------------------------------------------

    def doall(self, loop, overlap: bool = False):
        """Execute a doall loop; yields machine ops (use ``yield from``).

        With ``overlap=True`` the executor charges the loop's interior
        iteration points (whose reads are all locally owned) *before*
        blocking on ghost receives, modeling computation overlapping
        with in-flight communication; the messages themselves are
        byte-identical to the serialized mode.  See
        :func:`repro.compiler.schedule.execute_doall`.

        A doall is a grid rendezvous: the loop's values move once every
        rank of ``loop.grid`` has reached it, so no rank leaves it
        before all have entered (a rank waiting, before its doall, on a
        message a grid peer sends only after its own doall deadlocks).
        No simulated time is charged for the wait.

        The loop's compiled plan (and its frozen TransferSchedules)
        lives in this context's Session plan cache; compile loops ahead
        of time with :func:`repro.compile` to warm it explicitly.  A
        session-less context has no plan cache and raises
        ``ValidationError`` here, before any op is yielded.
        """
        from repro.compiler.schedule import execute_doall

        self._need_session("doall")
        return execute_doall(self, loop, overlap=overlap)

    # -- irregular gathers ------------------------------------------------

    def cached_gather(self, grid: ProcessorGrid, array, indices):
        """Collective irregular gather with plan caching.

        Like ``inspector_gather``, a grid rendezvous: once every rank of
        ``grid`` has brought its index rows, one grid-wide
        :class:`~repro.compiler.commsched.GatherPlan` moves the values.
        The plan is cached in this context's Session plan cache (kind
        ``"gather"``, keyed on the array's layout and every rank's index
        pattern), so the first call with a pattern is charged the full
        two-round inspection and every repeat one round of coalesced
        value messages.  One rank changing its pattern alone changes the
        key: the whole grid rebuilds.  Index rows outside the array and
        a session-less context raise ``ValidationError`` before any op
        is yielded.  Yields machine ops (use ``yield from``); evaluates
        to the gathered values.
        """
        from repro.compiler.commsched import gather

        self._need_session("cached_gather")
        return gather(self, grid, array, indices, cached=True)

    # -- redistribution ----------------------------------------------------

    def redistribute(self, array, dist, grid=None):
        """Collective owner-to-owner repartition of ``array`` to ``dist``.

        Every rank of ``array.grid`` must call this (SPMD discipline).
        Each rank sends only the intersections of its old block with the
        new owners' blocks -- the full array is never materialized --
        and the :class:`~repro.compiler.commsched.RepartitionPlan` is
        cached in this context's Session plan cache (kind
        ``"repartition"``, keyed on the layout pair), so repeated flips
        between two layouts replay without re-deriving the moves.  A
        session-less context raises ``ValidationError`` here, before any
        op is yielded.  Yields machine ops (use ``yield from``).

        Like a doall, a redistribution is a grid rendezvous: the values
        move, and the new layout is installed, once every rank of the
        call has reached it, so no rank leaves it before all have
        entered (a rank that skips the call leaves the others in a
        ``DeadlockError`` naming the rendezvous, with the array
        untouched).  The messages, bytes and time of the exchange are
        then charged by a data-free op stream.

        ``grid`` additionally moves the array to a *different*
        processor grid (grow or shrink the rank set -- the elastic
        morphing primitive, see :mod:`repro.elastic`); the call is then
        collective over the union of the old and new rank sets, and the
        cached plan keys on the (from-grid+specs, to-grid+specs) pair so
        morphing back is a replay.

        >>> import numpy as np
        >>> from repro import DistArray, ProcessorGrid, Session
        >>> from repro.machine import Machine
        >>> grid = ProcessorGrid((2,))
        >>> A = DistArray((4,), grid, dist=("block",), name="A")
        >>> A.from_global(np.arange(4.0))
        >>> def prog(ctx):
        ...     yield from ctx.redistribute(A, ("cyclic",))
        >>> trace = Session(Machine(n_procs=2), grid).run(prog)
        >>> A.dist.spec_key()
        (('cyclic',),)
        >>> A.to_global()                      # values survive the relayout
        array([0., 1., 2., 3.])
        >>> sorted(trace.schedule_directions())
        ['repartition']
        """
        from repro.compiler.commsched import repartition

        self._need_session("redistribute")
        return repartition(self, array, dist, new_grid=grid)

    # -- collectives over grids -------------------------------------------

    def allreduce(self, grid: ProcessorGrid, value: Any, op: Callable = operator.add):
        tag = self.next_tag(grid)
        return collectives.allreduce(self.rank, grid.linear, value, tag=tag, op=op)

    def bcast(self, grid: ProcessorGrid, value: Any, *, root: int):
        tag = self.next_tag(grid)
        return collectives.bcast(self.rank, grid.linear, value, root=root, tag=tag)

    def gather(self, grid: ProcessorGrid, value: Any, *, root: int):
        tag = self.next_tag(grid)
        return collectives.gather(self.rank, grid.linear, value, root=root, tag=tag)
