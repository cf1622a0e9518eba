"""Elastic processor-set morphing and durable session state.

The paper's claim is that one program runs unchanged across machine
layouts because communication is compiled from the distribution clauses;
this module extends the claim to layouts that change *mid-run* -- the
Varuna-style elasticity a long-lived deployment needs when capacity
appears or vanishes.  Three primitives, all built on machinery that
already existed:

* :func:`checkpoint` / :func:`restore` -- serialize a Session's run
  state (array contents, layouts, grids, comm epochs, run history) into
  a :class:`Checkpoint` and load it back, into the same Session or a
  freshly compiled twin.  A restore that lands on the current layout is
  a pure value write -- caches stay warm, so replay after restore is
  bit-identical to the uninterrupted run; a restore onto a different
  layout re-lays the arrays out and re-freezes the loop plans, the same
  recompile-or-replay contract every run already honors.

* :func:`morph` -- move a Session's live programs onto a *different*
  processor grid (grow or shrink the rank set).  In-flight work is
  drained (every program's run lock is held), multiprocessing worker
  pools are quiesced so shared-memory blocks return to private storage,
  every live array is repartitioned old-grid -> new-grid through the
  cached inter-grid repartition path (one SPMD launch over the union of
  the rank sets -- morphing back replays the same plans), the loops
  are rebuilt on the new grid, and their plans are re-frozen so the
  first post-morph run is already a replay.  Worker pools respawn
  lazily on the new rank set at the next multiprocessing run.

Invariants, lifecycle, and failure modes are documented in
``docs/elasticity.md``; the morph drill and the checkpoint round-trip
property tests live in ``tests/elastic/``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import zlib
from contextlib import ExitStack

import numpy as np

from repro.lang.array import storage_of
from repro.lang.doall import Doall, OnProc
from repro.lang.procs import ProcessorGrid
from repro.util.errors import ValidationError

#: Checkpoint wire-format version; bump on incompatible layout changes.
CHECKPOINT_VERSION = 1

#: ``to_bytes`` envelope: magic + crc32 + payload length, then pickle.
#: Bytes without the magic are rejected unread.
_MAGIC = b"RPCKPT1\x00"
_HEADER = struct.Struct("<IQ")

#: process-local checkpoint identities (incremental deltas name their
#: base by id, so a merge against the wrong base fails loudly)
_CKPT_IDS = itertools.count(1)


def _new_ckpt_id() -> str:
    return f"{os.getpid()}-{next(_CKPT_IDS)}"


class Checkpoint:
    """A Session's serialized run state.

    Produced by :func:`checkpoint` / :meth:`repro.Session.checkpoint`;
    consumed by :func:`restore`.  Holds, per live program, one snapshot
    per storage array -- global values, per-dimension distribution
    specs, owning grid, comm epoch -- plus the session's run counter
    and trace history.  The whole object round-trips through
    :meth:`to_bytes` / :meth:`from_bytes` (pickle: numpy blocks, dist
    specs, grids, and traces are all plain data).

    A checkpoint matches programs *structurally*: restore pairs the
    target session's live programs with the snapshot's, in compile
    order, and each program's arrays in loop-traversal order -- so a
    checkpoint also restores into a fresh process that compiled the
    same program (names and shapes are verified, not assumed).
    """

    def __init__(self, runs: int, history: list, programs: list,
                 calibration=None, *, sweep: int = 0, kind: str = "full",
                 base_id: str | None = None):
        self.version = CHECKPOINT_VERSION
        #: session launch counter at capture time
        self.runs = runs
        #: traces of the session's launch history at capture time
        self.history = history
        #: one dict per live program: grid + ordered array snapshots
        self.programs = programs
        #: the session's host calibration
        #: (:class:`~repro.machine.calibrate.CalibratedCostModel`) at
        #: capture time, or None -- restoring carries it over, so a
        #: restored session keeps autotuning without re-profiling.
        self.calibration = calibration
        #: sweep cursor: sweeps completed (within the checkpointed run
        #: span) when this snapshot was taken -- recovery resumes here
        self.sweep = int(sweep)
        #: ``"full"`` (every array's values present) or ``"incremental"``
        #: (values elided for arrays unchanged since the base snapshot)
        self.kind = kind
        #: identity of this snapshot / of an incremental delta's base
        self.ckpt_id = _new_ckpt_id()
        self.base_id = base_id

    def to_bytes(self) -> bytes:
        """Serialize; inverse of :meth:`from_bytes`.

        The pickle payload is wrapped in a checksummed envelope (magic,
        CRC-32, payload length) so truncated or bit-flipped bytes fail
        with a clear :class:`ValidationError` at load time instead of
        an opaque unpickling error -- or, worse, silently wrong state.
        """
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        return _MAGIC + _HEADER.pack(crc, len(payload)) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        data = bytes(data)
        if data[:len(_MAGIC)] != _MAGIC:
            raise ValidationError(
                "not a checkpoint: bytes do not start with the to_bytes() "
                "envelope magic (foreign data, or damage to the first "
                f"{len(_MAGIC)} bytes); refusing to unpickle unchecked bytes"
            )
        head_end = len(_MAGIC) + _HEADER.size
        if len(data) < head_end:
            raise ValidationError(
                f"truncated checkpoint: {len(data)} bytes is shorter "
                "than the envelope header"
            )
        crc, n = _HEADER.unpack(data[len(_MAGIC):head_end])
        payload = data[head_end:]
        if len(payload) != n:
            raise ValidationError(
                f"truncated checkpoint: envelope declares {n} payload "
                f"bytes but {len(payload)} are present"
            )
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ValidationError(
                "corrupted checkpoint: CRC-32 mismatch (bytes were "
                "altered after to_bytes(); refusing to load state "
                "that could be silently wrong)"
            )
        try:
            ckpt = pickle.loads(payload)
        except ValidationError:
            raise
        except Exception as exc:
            raise ValidationError(
                f"corrupted checkpoint: payload does not unpickle ({exc})"
            ) from exc
        if not isinstance(ckpt, cls):
            raise ValidationError(
                f"not a Checkpoint: deserialized {type(ckpt).__name__}"
            )
        if ckpt.version != CHECKPOINT_VERSION:
            raise ValidationError(
                f"checkpoint version {ckpt.version} is not supported "
                f"(this library writes version {CHECKPOINT_VERSION})"
            )
        return ckpt

    def merged(self, base: "Checkpoint") -> "Checkpoint":
        """Hydrate an incremental delta against its ``base`` full snapshot.

        Returns a new *full* :class:`Checkpoint` at this delta's sweep
        cursor: arrays whose values were elided as clean take them from
        ``base``; everything else (layouts, counters, history) comes
        from the delta, which always captures it.  Raises unless
        ``base`` is the full snapshot this delta was diffed against.
        """
        if self.kind != "incremental":
            raise ValidationError(
                f"merged() applies to incremental checkpoints, not {self.kind!r}"
            )
        if base.kind != "full":
            raise ValidationError("merge base must be a full checkpoint")
        if base.ckpt_id != self.base_id:
            raise ValidationError(
                f"incremental checkpoint was diffed against base "
                f"{self.base_id!r}, not {base.ckpt_id!r} "
                "-- merging against the wrong base would mix states"
            )
        states = []
        for state, bstate in zip(self.programs, base.programs):
            snaps = []
            for snap, bsnap in zip(state["arrays"], bstate["arrays"]):
                if snap["data"] is None:
                    snap = dict(snap, data=bsnap["data"])
                snaps.append(snap)
            states.append(dict(state, arrays=snaps))
        return Checkpoint(
            runs=self.runs, history=self.history, programs=states,
            calibration=self.calibration,
            sweep=self.sweep, kind="full",
        )

    def describe(self) -> dict:
        """Summary for logs/benchmarks: counts, grids, total bytes."""
        nbytes = sum(
            snap["data"].nbytes
            for state in self.programs for snap in state["arrays"]
            if snap["data"] is not None
        )
        return {
            "version": self.version,
            "runs": self.runs,
            "programs": len(self.programs),
            "arrays": sum(len(s["arrays"]) for s in self.programs),
            "grids": [s["grid_shape"] for s in self.programs],
            "nbytes": nbytes,
            "kind": self.kind,
            "sweep": self.sweep,
            "calibrated": self.calibration is not None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        d = self.describe()
        return (
            f"Checkpoint(programs={d['programs']}, arrays={d['arrays']}, "
            f"runs={d['runs']}, nbytes={d['nbytes']})"
        )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _loop_programs(session) -> list:
    """The session's live programs, compile order; all must be loop
    programs (parsub routines are opaque: no static arrays to capture,
    no loops to retarget)."""
    programs = session.live_programs()
    for p in programs:
        if p.routine is not None:
            raise ValidationError(
                "elastic operations need compiled loop programs; this "
                "session holds an opaque parsub Program (wrap the state "
                "it touches in a loop program, or checkpoint/morph a "
                "session without it)"
            )
    return programs


def _storage_arrays(program) -> list:
    """Unique storage arrays of a loop program, loop-traversal order.

    Deterministic by construction (loops and their array scans are
    ordered), which is what lets a checkpoint restore into a different
    process: both sides enumerate the same program the same way.
    """
    out, seen = [], set()
    for loop in program.loops:
        for arr in loop.arrays():
            storage = storage_of(arr)
            if storage.uid not in seen:
                seen.add(storage.uid)
                out.append(storage)
    return out


def _refuse_sections(program) -> None:
    for loop in program.loops:
        for arr in loop.arrays():
            if getattr(arr, "base", None) is not None:
                raise ValidationError(
                    f"cannot morph a program over array Sections "
                    f"({arr.name!r} views another array's storage): a "
                    "section snapshots its base's layout, which the morph "
                    "replaces -- run on the base arrays and re-slice after"
                )


def _all_locks(programs) -> ExitStack:
    """Drain in-flight work: hold every program's run lock at once.

    Runs of one Program serialize on its lock, so acquiring all of them
    guarantees no sweep is mid-flight while state is captured or moved.
    Acquisition is in compile order (every caller uses the same order,
    so two concurrent elastic operations cannot deadlock each other).
    """
    stack = ExitStack()
    for p in programs:
        stack.enter_context(p.lock)
    return stack


def _grid_of(state: dict) -> ProcessorGrid:
    return ProcessorGrid(state["grid_shape"], ranks=state["grid_ranks"])


def _same_grid(a: ProcessorGrid, b: ProcessorGrid) -> bool:
    return a.shape == b.shape and a.key() == b.key()


def _retarget_loop(loop: Doall, new_grid: ProcessorGrid) -> Doall:
    """Rebuild one loop on a new grid (ranges/body/on reused).

    ``Doall.ranges`` are normalized inclusive ``(lo, hi, step)`` triples
    -- re-passable as-is.  An ``Owner`` clause follows its array (which
    has already been repartitioned onto the new grid); an ``OnProc``
    clause is re-pinned to the new grid, which requires matching ndim.
    """
    on = loop.on
    if isinstance(on, OnProc):
        on = OnProc(new_grid, on.coord_exprs)
    return Doall(loop.vars, loop.ranges, on, loop.body, new_grid)


def _refreeze(session, program, new_grid: ProcessorGrid | None = None) -> None:
    """Re-derive a program's frozen plans (the "recompile" step).

    With ``new_grid``, the loops are first rebuilt on it.  Freezing at
    retarget time mirrors what ``repro.compile`` does at compile time,
    so the first run after a morph/restore is already an all-hit replay
    -- trace-identical to any later run.
    """
    if new_grid is not None and not _same_grid(program.grid, new_grid):
        program.loops = [_retarget_loop(lp, new_grid) for lp in program.loops]
        program.grid = new_grid
    for loop in program.loops:
        session.plans.analysis(loop)


# ----------------------------------------------------------------------
# Checkpoint / restore
# ----------------------------------------------------------------------


def _snap_clean(snap: dict, bsnap: dict) -> bool:
    """True when ``snap`` is value- and layout-identical to ``bsnap``
    (its base-snapshot counterpart) and may elide its data."""
    return (
        snap["name"] == bsnap["name"]
        and snap["spec_key"] == bsnap["spec_key"]
        and snap["grid_shape"] == bsnap["grid_shape"]
        and np.array_equal(snap["grid_ranks"], bsnap["grid_ranks"])
        and snap["comm_epoch"] == bsnap["comm_epoch"]
        and np.array_equal(snap["data"], bsnap["data"])
    )


def checkpoint(session, *, sweep: int = 0, base: Checkpoint | None = None,
               programs: list | None = None) -> Checkpoint:
    """Capture ``session``'s run state into a :class:`Checkpoint`.

    Collective over nothing -- this is a host-side snapshot taken with
    every captured program's run lock held (no sweep can be mid-flight).
    Array values are captured as global numpy arrays, layouts as
    (grid, per-dimension specs, comm epoch); bindings are state the
    arrays already hold, so they are captured with the values.

    ``sweep`` stamps the checkpoint's sweep cursor (how many sweeps of
    the current run span it reflects); recovery resumes there instead
    of sweep 0.  ``programs`` scopes capture to an explicit program
    list (default: every live loop program) -- mid-run checkpoints
    scope to the running program so they never have to wait on another
    program's in-flight sweep.  With ``base`` (a prior *full* snapshot
    of the same scope), the result is an *incremental* checkpoint:
    arrays whose values and layout are unchanged since ``base`` elide
    their data (``data=None``) and are re-hydrated by
    :meth:`Checkpoint.merged` -- the cheap per-sweep-boundary snapshot
    that makes ``checkpoint_every=`` affordable.  ``base`` may itself
    be a hydrated ``merged()`` result: the checkpointed-run drivers
    chain each boundary's delta against the *previous* boundary's
    snapshot (not the sweep-0 base), so an array that changed once and
    then went quiescent elides its data again at later boundaries.
    """
    if programs is None:
        programs = _loop_programs(session)
    if base is not None and base.kind != "full":
        raise ValidationError(
            "incremental checkpoints diff against a *full* base snapshot"
        )
    with _all_locks(programs):
        states = []
        for p in programs:
            snaps = []
            for arr in _storage_arrays(p):
                snaps.append({
                    "name": arr.name,
                    "shape": arr.shape,
                    "dtype": str(arr.dtype),
                    "specs": arr.dist.specs,
                    "spec_key": arr.dist.spec_key(),
                    "grid_shape": arr.grid.shape,
                    "grid_ranks": np.asarray(arr.grid.ranks),
                    "comm_epoch": arr.comm_epoch,
                    "data": arr.to_global(),
                })
            states.append({
                "grid_shape": p.grid.shape,
                "grid_ranks": np.asarray(p.grid.ranks),
                "arrays": snaps,
            })
        if base is not None:
            if len(states) != len(base.programs):
                raise ValidationError(
                    f"incremental checkpoint scope ({len(states)} program(s)) "
                    f"does not match its base ({len(base.programs)})"
                )
            for state, bstate in zip(states, base.programs):
                if len(state["arrays"]) != len(bstate["arrays"]):
                    raise ValidationError(
                        "incremental checkpoint array count does not match "
                        "its base"
                    )
                state["arrays"] = [
                    dict(snap, data=None) if _snap_clean(snap, bsnap) else snap
                    for snap, bsnap in zip(state["arrays"], bstate["arrays"])
                ]
        return Checkpoint(
            runs=session.runs, history=list(session.history), programs=states,
            calibration=session.calibration,
            sweep=sweep,
            kind="full" if base is None else "incremental",
            base_id=None if base is None else base.ckpt_id,
        )


def restore(session, ckpt: Checkpoint, *, base: Checkpoint | None = None,
            programs: list | None = None, counters: bool = True) -> None:
    """Load a :class:`Checkpoint` back into ``session``.

    Programs pair up in compile order, arrays in loop-traversal order;
    names and shapes are verified.  Arrays whose live layout already
    matches the snapshot get a pure value write -- no epoch bump, so
    every warm schedule and plan keeps replaying and the next run is
    bit-identical to the uninterrupted one.  Arrays on a different
    layout (or grid) are re-laid out to the snapshot's first, and the
    owning program's plans are re-frozen against the restored layout --
    the recompile half of recompile-or-replay.  The session's run
    counter and trace history are restored too (pass
    ``counters=False`` to restore array state only -- what supervised
    mid-run recovery wants, since the retried sweeps *do* happen and
    the run ledger should say so).

    An *incremental* checkpoint needs its ``base`` full snapshot to
    re-hydrate (or hydrate explicitly with :meth:`Checkpoint.merged`);
    ``programs`` restricts restore to an explicit scope matching the
    one the checkpoint captured.
    """
    if not isinstance(ckpt, Checkpoint):
        raise ValidationError(f"restore() needs a Checkpoint, got {type(ckpt).__name__}")
    if ckpt.kind == "incremental":
        if base is None:
            raise ValidationError(
                "restoring an incremental checkpoint needs base= (the full "
                "snapshot it was diffed against), or hydrate it first with "
                "Checkpoint.merged(base)"
            )
        ckpt = ckpt.merged(base)
    if programs is None:
        programs = _loop_programs(session)
    if len(programs) != len(ckpt.programs):
        raise ValidationError(
            f"checkpoint holds {len(ckpt.programs)} program(s) but the "
            f"session has {len(programs)} live one(s); restore needs a "
            "structurally matching session"
        )
    with _all_locks(programs):
        for p, state in zip(programs, ckpt.programs):
            arrays = _storage_arrays(p)
            if len(arrays) != len(state["arrays"]):
                raise ValidationError(
                    f"program array count mismatch: checkpoint has "
                    f"{len(state['arrays'])}, live program has {len(arrays)}"
                )
            changed = False
            for arr, snap in zip(arrays, state["arrays"]):
                if arr.name != snap["name"] or arr.shape != tuple(snap["shape"]):
                    raise ValidationError(
                        f"array mismatch: checkpoint snapshot "
                        f"{snap['name']!r}{tuple(snap['shape'])} does not "
                        f"match live array {arr.name!r}{arr.shape}"
                    )
                agrid = _grid_of(snap)
                if not _same_grid(arr.grid, agrid) \
                        or arr.dist.spec_key() != snap["spec_key"]:
                    arr.redistribute(snap["specs"], grid=agrid)
                    changed = True
                arr.from_global(snap["data"])
            target = _grid_of(state)
            if changed or not _same_grid(p.grid, target):
                _refreeze(session, p, target)
        if counters:
            with session._lock:
                session.runs = ckpt.runs
                session.history = list(ckpt.history)[-session.max_history:]
                # an uncalibrated checkpoint leaves the session's own
                # calibration alone rather than clearing it
                if ckpt.calibration is not None:
                    session.calibration = ckpt.calibration


# ----------------------------------------------------------------------
# Morph
# ----------------------------------------------------------------------


def morph(session, new_grid: ProcessorGrid, *, machine=None):
    """Move ``session``'s live programs onto ``new_grid``, preserving state.

    The elastic drill: (1) drain -- every live program's run lock is
    taken, so no sweep is in flight; (2) quiesce -- multiprocessing
    worker pools are closed, returning adopted shared-memory blocks to
    private storage (pools respawn lazily on the new rank set at the
    next run); (3) repartition -- every live storage array moves
    old-grid -> new-grid keeping its per-dimension specs, as one SPMD
    launch over the union of the rank sets through the cached
    inter-grid repartition path (morphing back replays the same
    plans); (4) retarget -- loops are rebuilt on ``new_grid`` and
    their plans re-frozen, so the first post-morph run is an all-hit
    replay, bit-identical in results and trace to an uninterrupted run
    on ``new_grid``.

    Returns the repartition launch's trace (``None`` when every array
    was already on ``new_grid``).  Arrays keep their per-dimension
    distribution kinds; a grid whose ndim differs from the old one
    raises (per-dim specs cannot be re-bound), as does a program over
    array sections -- see ``docs/elasticity.md`` for the failure modes.
    """
    programs = _loop_programs(session)
    for p in programs:
        _refuse_sections(p)
    mach = machine if machine is not None else session.machine
    if mach is None:
        mach = getattr(session.backend, "machine", None)
    if mach is None:
        raise ValidationError(
            "no machine: give the Session one or pass machine= to morph()"
        )

    with _all_locks(programs):
        session.close_backend()

        moves, seen = [], set()
        for p in programs:
            for arr in _storage_arrays(p):
                if arr.uid in seen:
                    continue
                seen.add(arr.uid)
                if _same_grid(arr.grid, new_grid):
                    continue
                moves.append((arr, arr.dist.specs, arr.grid.union(new_grid)))

        trace = None
        if moves:
            launch_grid = new_grid
            for _arr, _specs, scope in moves:
                launch_grid = launch_grid.union(scope)

            def _relayout(ctx):
                for arr, specs, scope in moves:
                    if scope.contains(ctx.rank):
                        yield from ctx.redistribute(arr, specs, grid=new_grid)

            trace = session.run(
                _relayout, machine=mach, grid=launch_grid, backend="simulator"
            )

        for p in programs:
            _refreeze(session, p, new_grid)
        with session._lock:
            if session.grid is not None:
                session.grid = new_grid
    return trace


__all__ = ["Checkpoint", "checkpoint", "restore", "morph", "CHECKPOINT_VERSION"]
