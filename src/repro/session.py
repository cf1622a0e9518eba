"""First-class compile-and-run API: :class:`Session` and :class:`Program`.

The paper's whole pitch is that communication is *compiled once* from
the distribution clauses and then replayed.  This module makes that
lifecycle explicit:

* a :class:`Session` owns everything that used to be process-global
  mutable state -- the compiled-plan
  :class:`~repro.compiler.schedule.PlanCache`, the trace-oracle
  templates, and the trace history.  Two Sessions never share plans,
  so concurrent workloads (or test cases) are isolated by
  construction;
* :func:`compile` lowers a program -- a :class:`~repro.lang.doall.Doall`
  (or list of them), KF1 source text, a parsed
  :class:`~repro.lang.kf1.KF1Program`, or a parsub generator function --
  into a :class:`Program` whose communication schedules are frozen at
  compile time;
* ``Program.run(**bindings)`` launches the program on the simulated
  machine, replaying the cached schedules on every run -- a loop
  program's floats move by the direct phase walk and its ``Trace`` is
  re-materialized from the Session's memoized trace oracle
  (:func:`repro.compiler.schedule.run_frozen_loops`), so only the first
  run of a shape pays for the event simulation;
  ``Program.estimate`` predicts its critical path without executing,
  ``Program.schedules``/``Program.stats`` expose the frozen transfer
  schedules and per-kind reuse rates, and ``Program.explain``
  renders the message pattern the compiler derived.

A Session is the *only* home of that state: there is no implicit
default Session and no module-level cache, so nothing compiles or
replays a doall without one (``KaliCtx.doall`` on a session-less context
raises ``ValidationError``).

>>> import numpy as np
>>> from repro import Machine, ProcessorGrid, Session
>>> import repro
>>> src = '''
... processors procs(2)
... real x(0:7) dist (block)
... real y(0:7) dist (block)
... doall (i) = [1, 6] on owner(y(i))
...   y(i) = x(i-1) + x(i+1)
... end doall
... '''
>>> sess = Session(Machine(n_procs=2))
>>> prog = repro.compile(src, session=sess)   # schedules frozen here
>>> t1 = prog.run(x=np.arange(8.0))           # bindings load the arrays
>>> prog.arrays["y"].to_global()[1:7]
array([ 2.,  4.,  6.,  8., 10., 12.])
>>> t2 = prog.run()                           # replays the frozen schedules
>>> t2.schedule_hit_rate("gather") == 1.0
True
>>> sorted(prog.stats()["plans"])             # the session saw the compiles
['doall']
"""

from __future__ import annotations

import functools
import threading
import warnings
import weakref
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.compiler.estimate import LoopEstimate, estimate_doall
from repro.compiler.schedule import ORACLE_ENTRIES, PlanCache
from repro.lang.context import KaliCtx
from repro.lang.doall import Doall
from repro.lang.kf1 import KF1Program, parse_program
from repro.lang.procs import ProcessorGrid
from repro.machine.backend import Backend
from repro.machine.costmodel import CostModel
from repro.machine.simulator import Machine
from repro.machine.trace import Trace
from repro.util.errors import MachineError, ValidationError


def _check_backend(backend) -> None:
    if backend is None or isinstance(backend, Backend):
        return
    if backend in ("simulator", "multiprocessing"):
        return
    raise ValidationError(
        f"unknown backend {backend!r}: expected 'simulator', "
        "'multiprocessing', or a Backend instance"
    )


def _cache_stats(plans: PlanCache) -> dict:
    """The cache-accounting part of ``stats()`` for one plan cache -- a
    Session's own, or a pool's shared one.  ``schedules`` is the
    ``"gather"`` kind's counters (the irregular-gather plans)."""
    kinds = plans.kind_stats()
    return {
        "schedules": dict(kinds.get("gather", {"hits": 0, "misses": 0})),
        "plans": kinds,
    }


def _hit_rates(plans: PlanCache) -> dict[str, float]:
    """hits / (hits + misses) per plan kind."""
    out: dict[str, float] = {}
    for name, v in plans.kind_stats().items():
        total = v["hits"] + v["misses"]
        out[name] = v["hits"] / total if total else 0.0
    return out


class Session:
    """Owns one workload's compile-and-run state.

    Parameters
    ----------
    machine:
        Default simulated machine for :meth:`run`/:meth:`launch` (each
        call may override it).
    grid:
        Default processor grid for :meth:`run`.
    cost:
        Cost model used by ``Program.estimate`` when none is passed;
        defaults to the machine's.
    backend:
        Default execution backend for launches: ``None``/``"simulator"``
        runs on the machine's event-driven simulator (reference
        semantics), ``"multiprocessing"`` executes compiled loop
        programs on real shared-memory worker processes (results,
        accounting, and cost-model traces bit-identical to the
        simulator), and a :class:`~repro.machine.backend.Backend`
        instance is used as-is.  Each run may override it.

    A Session owns its :class:`~repro.compiler.schedule.PlanCache`
    (compiled doall analyses with their frozen gather/scatter
    schedules, line-solve plans, repartition plans, irregular-gather
    plans) and ``history`` -- the traces of every launch.  No state
    leaks between Sessions: caches warmed in one are invisible to
    another.

    >>> s = Session()
    >>> s.stats()["schedules"]["hits"], s.stats()["runs"]
    (0, 0)
    """

    def __init__(
        self,
        machine: Machine | None = None,
        grid: ProcessorGrid | None = None,
        cost: CostModel | None = None,
        *,
        backend: "str | Backend | None" = None,
        marks: str = "full",
        max_plan_entries: int = 4096,
        max_history: int = 256,
    ):
        if max_history <= 0:
            raise ValidationError("Session needs max_history >= 1")
        if marks not in ("full", "cheap"):
            raise ValidationError(f"marks must be 'full' or 'cheap', got {marks!r}")
        _check_backend(backend)
        self.machine = machine
        self.grid = grid
        self.cost = cost if cost is not None else getattr(machine, "cost", None)
        #: default execution backend (see the class docstring); the
        #: ``"multiprocessing"`` string form lazily builds (and caches)
        #: one MultiprocessingBackend around the resolved machine
        self.backend = backend
        self._mp_backend = None
        #: default mark mode: "full" records every schedule Mark,
        #: "cheap" aggregates steady-state schedule events into
        #: ``Trace.mark_counts`` (identical hit-rate reporting, no
        #: per-op mark objects).
        self.marks = marks
        #: compiled-plan cache (doall analyses, line-solver plans, ...)
        self.plans = PlanCache(max_entries=max_plan_entries)
        #: traces of recent launches, oldest first; bounded at
        #: ``max_history`` (traces hold full per-message event lists, so
        #: an unbounded log would leak across long sweeps).  ``runs``
        #: counts every launch ever, trimmed or not.
        self.history: list[Trace] = []
        self.max_history = max_history
        self.runs = 0
        # guards the run counter, the history append/trim, and the lazy
        # multiprocessing-backend construction: traces hold full
        # per-message event lists, so a torn append/trim under
        # concurrent launches (the serving layer runs one Session per
        # worker thread, but a Session is also safe to share) would
        # corrupt the log
        self._lock = threading.RLock()
        #: weak refs to every Program compiled into this Session, in
        #: compile order -- the program set the elastic operations
        #: (checkpoint/restore/morph) act on.  Weak so a discarded
        #: Program doesn't pin its arrays for the Session's lifetime.
        self._programs: list = []
        #: host calibration (:class:`~repro.machine.calibrate.
        #: CalibratedCostModel`) the tuner prefers over :attr:`cost`
        #: when set; captured into checkpoints and restored with them
        self.calibration = None
        #: the :class:`~repro.tune.TuneResult` behind the most recent
        #: ``morph("auto")`` grid choice (None until one runs)
        self.last_tune = None
        #: the :class:`~repro.supervise.RecoveryLog` of the Supervisor
        #: watching this Session (None until one adopts it); surfaced
        #: through :meth:`stats` so operators see recovery events where
        #: they already look for cache accounting
        self.recovery = None

    @functools.cached_property
    def oracle(self) -> PlanCache:
        """Trace-oracle templates of frozen loop runs
        (:func:`~repro.compiler.schedule.oracle_trace`): one data-free
        simulation per distinct run shape.  A second PlanCache, for its
        LRU, its locking and its purge on redistribution, created at the
        first frozen run (a Session that only launches parsubs never
        pays for one) and assignable (a pool swaps in its shared one).
        Its counters are the oracle's own, never part of
        ``stats()["plans"]``."""
        return PlanCache(max_entries=ORACLE_ENTRIES)

    # -- launching ---------------------------------------------------------

    def _resolve(self, machine: Machine | None, grid: ProcessorGrid | None):
        machine = machine if machine is not None else self.machine
        grid = grid if grid is not None else self.grid
        if machine is None:
            raise ValidationError(
                "no machine: pass one to the Session or to this call"
            )
        if grid is None:
            raise ValidationError("no grid: pass one to the Session or to this call")
        if grid.size > machine.n_procs:
            raise ValidationError(
                f"grid of {grid.size} procs exceeds machine size {machine.n_procs}"
            )
        return machine, grid

    def _resolve_backend(self, backend, machine) -> Backend:
        """The Backend a launch executes on (the machine itself, by default).

        ``backend`` overrides the Session default; the
        ``"multiprocessing"`` string form wraps ``machine`` in one
        cached :class:`~repro.machine.mpbackend.MultiprocessingBackend`
        per Session (so its worker pool persists across runs).
        """
        if backend is None:
            backend = self.backend
        _check_backend(backend)
        if backend is None or backend == "simulator":
            return machine
        if backend == "multiprocessing":
            with self._lock:
                cached = self._mp_backend
                if cached is None or cached.machine is not machine:
                    from repro.machine.mpbackend import MultiprocessingBackend

                    if cached is not None:
                        cached.close()
                    cached = MultiprocessingBackend(machine)
                    self._mp_backend = cached
                return cached
        return backend

    def run(
        self,
        routine: Callable,
        *args: Any,
        machine: Machine | None = None,
        grid: ProcessorGrid | None = None,
        backend: "str | Backend | None" = None,
        marks: str | None = None,
        **kwargs: Any,
    ) -> Trace:
        """Run ``routine(ctx, *args, **kwargs)`` on every rank of the grid.

        The launch of the paper's main program: the "real" processor
        array is ``grid`` and the top-level parsub is ``routine``.  Each
        rank's :class:`~repro.lang.context.KaliCtx` is bound to this
        Session, so every collective inside consults this Session's
        caches.  The trace is appended to :attr:`history` and returned.
        ``machine``/``grid``/``backend`` override the Session defaults
        and ``marks`` its mark mode for this launch; a routine parameter
        with any of these names must be bound via ``functools.partial``.
        """
        runner, grid = self._target(machine, grid, backend)
        return self._record(self._execute(
            runner, grid, lambda ctx: routine(ctx, *args, **kwargs), marks
        ))

    def _target(self, machine, grid, backend) -> tuple[Backend, ProcessorGrid]:
        """Where a launch executes: ``(Backend, grid)``, call-site
        overrides resolved against the Session defaults."""
        if machine is None and self.machine is None:
            # a Backend instance can stand in for the machine it wraps
            resolved = backend if backend is not None else self.backend
            machine = getattr(resolved, "machine", None)
        machine, grid = self._resolve(machine, grid)
        return self._resolve_backend(backend, machine), grid

    def _execute(self, runner: Backend, grid, routine, marks) -> Trace:
        """Run ``routine(ctx)`` per rank of ``grid`` on ``runner``,
        unrecorded (:meth:`run` records; the trace oracle's data-free
        stream must not)."""
        ctxs = [KaliCtx(rank, grid, session=self, marks=marks) for rank in grid.linear]
        trace = runner.run({ctx.rank: routine(ctx) for ctx in ctxs})
        # aggregate cheap-marks counters from the ranks into the trace
        merged: dict[tuple, int] = trace.mark_counts
        for ctx in ctxs:
            for key, n in ctx.mark_counts.items():
                merged[key] = merged.get(key, 0) + n
        if any(ctx.marks == "cheap" for ctx in ctxs):
            trace.level = "cheap"
        return trace

    def launch(self, programs: dict, machine: Machine | None = None) -> Trace:
        """Run pre-built per-rank node programs (no contexts involved).

        The hand-message-passing escape hatch used by the 1-D kernel
        drivers and baselines: ``programs`` maps rank to a generator of
        machine ops.  The trace still lands in :attr:`history`, so a
        Session sees every launch of its workload, not just doalls.
        """
        machine = machine if machine is not None else self.machine
        if machine is None:
            raise ValidationError(
                "no machine: pass one to the Session or to this call"
            )
        return self._record(machine.run(programs))

    def _record(self, trace: Trace) -> Trace:
        with self._lock:
            self.runs += 1
            self.history.append(trace)
            if len(self.history) > self.max_history:
                del self.history[: -self.max_history]
        return trace

    # -- compilation -------------------------------------------------------

    def compile(
        self,
        obj,
        *,
        grid: ProcessorGrid | None = None,
        tune: bool = False,
        tune_budget: int | None = None,
        tune_space=None,
    ) -> "Program":
        """Compile ``obj`` into a :class:`Program` bound to this Session.

        See the module-level :func:`compile` for the accepted forms and
        the ``tune`` knobs.
        """
        return compile(
            obj, session=self, grid=grid,
            tune=tune, tune_budget=tune_budget, tune_space=tune_space,
        )

    # -- elasticity --------------------------------------------------------

    def _register_program(self, program: "Program") -> None:
        with self._lock:
            self._programs.append(weakref.ref(program))

    def live_programs(self) -> list:
        """Programs compiled into this Session that are still alive,
        compile order (dead weak refs are pruned as a side effect)."""
        with self._lock:
            out, refs = [], []
            for ref in self._programs:
                p = ref()
                if p is not None:
                    refs.append(ref)
                    out.append(p)
            self._programs = refs
            return out

    def close_backend(self) -> None:
        """Shut down this Session's multiprocessing worker pools.

        Closing un-adopts every shared-memory block back into private
        array storage, so array layouts may change safely afterwards;
        pools respawn lazily at the next multiprocessing run.  Also
        closes an explicitly-passed MultiprocessingBackend default.
        """
        from repro.machine.mpbackend import MultiprocessingBackend

        with self._lock:
            if self._mp_backend is not None:
                self._mp_backend.close()
                self._mp_backend = None
            if isinstance(self.backend, MultiprocessingBackend):
                self.backend.close()

    def checkpoint(self) -> "Any":
        """Snapshot this Session's run state; see :func:`repro.checkpoint`."""
        from repro.elastic import checkpoint

        return checkpoint(self)

    def restore(self, ckpt, **kwargs) -> None:
        """Load a :class:`~repro.elastic.Checkpoint` back; see
        :func:`repro.restore` (``base=``/``programs=``/``counters=``
        pass through)."""
        from repro.elastic import restore

        restore(self, ckpt, **kwargs)

    def morph(
        self,
        new_grid: "ProcessorGrid | str",
        *,
        machine: Machine | None = None,
        cost: CostModel | None = None,
    ):
        """Move this Session's live programs onto ``new_grid``; see
        :func:`repro.morph`.

        ``new_grid="auto"`` asks the autotuner for the target: every
        grid shape of the current rank-count that fits the machine is
        scored with the exact estimator (arrays keep their distribution
        kinds -- exactly the layouts a morph can reach) under ``cost``
        (default: this Session's :attr:`calibration`, then its
        :attr:`cost`), and the predicted-best grid wins.  The
        :class:`~repro.tune.TuneResult` behind the choice lands on
        :attr:`last_tune`; the morph itself is then the ordinary
        explicit morph, bit-identical to calling it with that grid.
        """
        from repro.elastic import morph

        if isinstance(new_grid, str):
            if new_grid != "auto":
                raise ValidationError(
                    f"morph grid must be a ProcessorGrid or 'auto', "
                    f"got {new_grid!r}"
                )
            from repro.tune import auto_grid

            new_grid, self.last_tune = auto_grid(
                self, machine=machine, cost=cost,
            )
        return morph(self, new_grid, machine=machine)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Aggregate cache accounting: per-kind plan hit/miss counts
        (``plans``), the irregular-gather kind's alone (``schedules``),
        the launch count, and --
        when a :class:`~repro.supervise.Supervisor` watches this Session
        -- its :class:`~repro.supervise.RecoveryLog` summary."""
        return {
            "runs": self.runs,
            **_cache_stats(self.plans),
            "recovery": None if self.recovery is None else self.recovery.summary(),
        }

    def hit_rates(self) -> dict[str, float]:
        """Replay rates per plan kind: ``doall``, ``adi-line``,
        ``repartition`` (``ctx.redistribute``) and ``gather``
        (``ctx.cached_gather``, one probe per collective call), so a
        pure-doall program reports its compile-once/replay-forever ratio
        here, e.g. ``{"doall": 0.99}``.
        """
        return _hit_rates(self.plans)

    def clear(self) -> None:
        """Drop every cached plan and oracle template (the traces stay)."""
        self.plans.clear()
        self.oracle.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(machine={self.machine!r}, grid="
            f"{None if self.grid is None else self.grid.shape}, "
            f"runs={self.runs}, plans={len(self.plans)})"
        )


class Program:
    """A compiled program: loops with frozen communication schedules,
    bound to the :class:`Session` that compiled them.

    Build one with :func:`repro.compile` / :meth:`Session.compile`; the
    doall analyses (and their gather/scatter
    :class:`~repro.compiler.commsched.TransferSchedule` objects) are
    derived eagerly at compile time, so every :meth:`run` -- including
    the first -- replays them.
    """

    def __init__(
        self,
        session: Session,
        *,
        loops: Sequence[Doall] = (),
        arrays: dict[str, Any] | None = None,
        routine: Callable | None = None,
        grid: ProcessorGrid | None = None,
    ):
        self.session = session
        self.loops = list(loops)
        #: name -> DistArray for binding inputs / reading results
        self.arrays = dict(arrays or {})
        #: names shared by several distinct arrays: unbindable by name
        self.ambiguous_names: set[str] = set()
        self.routine = routine
        self.grid = grid
        #: the :class:`~repro.tune.TuneResult` of a ``compile(...,
        #: tune=True)`` search (None when compiled without tuning)
        self.tune_result = None
        #: mid-run checkpoint slots written by ``run(checkpoint_every=k)``:
        #: the full (hydrated) snapshot the latest delta was diffed
        #: against -- deltas chain boundary-to-boundary -- and the
        #: latest (possibly incremental) one; read back hydrated via
        #: :meth:`latest_checkpoint`, which is what supervised recovery
        #: restores from
        self.ckpt_base = None
        self.ckpt_latest = None
        #: serializes runs of *this* Program: its arrays (and the
        #: StepPlan workspaces and scratch of its analyses) are the
        #: mutable state a run reads and writes, so two concurrent
        #: ``run``/``run_batch`` calls on one Program execute
        #: one-after-the-other.  Distinct Programs -- even ones sharing
        #: a Session or its caches -- run concurrently; the serving
        #: layer (:mod:`repro.serve`) relies on exactly this split.
        self.lock = threading.RLock()

    # -- execution ---------------------------------------------------------

    def run(
        self,
        *args: Any,
        iters: int = 1,
        overlap: bool = False,
        marks: str | None = None,
        machine: Machine | None = None,
        backend: "str | Backend | None" = None,
        bindings: dict[str, np.ndarray] | None = None,
        session: Session | None = None,
        checkpoint_every: int | None = None,
        **kwargs: Any,
    ) -> Trace:
        """Execute the program; returns the :class:`~repro.machine.trace.Trace`.

        For loop programs, keyword arguments (or the explicit
        ``bindings`` dict) name arrays to load from global numpy values
        before running, ``iters`` repeats the whole loop sequence, and
        ``overlap=True`` runs the overlap-aware executor.  For parsub
        programs, ``*args``/``**kwargs`` are forwarded to the routine.
        Each run replays the schedules frozen at compile time --
        re-running never re-derives communication.

        A loop run resolves each loop's cached analysis once per run
        and replays its frozen per-rank
        :class:`~repro.compiler.commgen.StepPlan` every sweep -- no
        per-sweep cache probe, no expression interpretation, and no
        event simulation either: the floats move by the direct phase
        walk and the returned Trace is re-materialized from the
        Session's memoized trace oracle (simulated once per run shape;
        the lists are the caller's, the records shared and immutable).
        Results, traces, and cache accounting equal those of the same
        loops launched through ``ctx.doall`` in a parsub, and the values
        equal :func:`repro.baselines.doall_reference`'s.
        ``marks="cheap"`` additionally aggregates steady-state schedule
        marks into ``Trace.mark_counts`` instead of per-op records
        (default "full" is unchanged behavior).

        ``backend`` (default from the Session) picks the execution
        backend.  With ``"multiprocessing"`` (or a
        :class:`~repro.machine.mpbackend.MultiprocessingBackend`
        instance) the compiled loop path executes on real shared-memory
        worker processes -- results, schedule accounting, and the
        cost-model-stamped trace stay bit-identical to the simulator;
        parsub routines fall back to the backend's inner reference
        machine.

        ``session`` overrides the Session the launch executes in (the
        serving layer checks out pooled Sessions whose caches are
        shared, so a Program compiled anywhere replays its frozen
        schedules there).  Runs of one Program are serialized on
        :attr:`lock` -- its arrays and plan workspaces and scratch are the
        mutable state -- while distinct Programs run concurrently.

        ``checkpoint_every=k`` (loop programs only) snapshots array
        state at every k-th sweep boundary: a full
        :class:`~repro.elastic.Checkpoint` of this program before the
        first sweep, then a cheap *incremental* one after each k-sweep
        leg (per-array dirty deltas against the *previous* boundary's
        snapshot, chained so an array that stops changing elides its
        data again), landing on :attr:`ckpt_base`/:attr:`ckpt_latest`.  The run executes as
        ``ceil(iters/k)`` chunked legs -- results are identical to one
        un-chunked run (the split-iters invariant the elastic tests
        pin), though each leg records its own trace in the session
        history and the returned trace covers the final leg only.
        Recovery (:class:`repro.supervise.Supervisor`) restores
        :meth:`latest_checkpoint` and resumes from its sweep cursor
        instead of sweep 0.
        """
        with self.lock:
            if checkpoint_every is not None:
                return self._run_checkpointed(
                    args, kwargs, checkpoint_every=checkpoint_every,
                    iters=iters, overlap=overlap,
                    marks=marks, machine=machine, backend=backend,
                    bindings=bindings, session=session,
                )
            return self._run(
                args, kwargs, iters=iters, overlap=overlap,
                marks=marks, machine=machine,
                backend=backend, bindings=bindings, session=session,
            )

    def _run(
        self, args, kwargs, *, iters, overlap, marks,
        machine, backend, bindings, session,
    ) -> Trace:
        sess = session if session is not None else self.session
        if iters < 1:
            raise ValidationError(f"iters must be >= 1, got {iters}")
        if self.routine is not None:
            if bindings is not None:
                raise ValidationError("bindings apply to loop programs only")
            if overlap:
                raise ValidationError(
                    "overlap applies to loop programs only; a parsub "
                    "routine chooses per call via ctx.doall(loop, "
                    "overlap=True)"
                )
            routine, niters = self.routine, iters

            def _program(ctx):
                for _ in range(niters):
                    yield from routine(ctx, *args, **kwargs)

            return sess.run(
                _program, machine=machine, grid=self.grid,
                backend=backend, marks=marks,
            )

        if args:
            raise ValidationError(
                "positional arguments apply to parsub programs only; "
                "pass loop-program inputs as name=array bindings"
            )
        merged = dict(bindings or {})
        merged.update(kwargs)
        self._apply_bindings(merged)
        loops, niters = self.loops, iters

        runner, grid = sess._target(machine, self.grid, backend)
        if loops and hasattr(runner, "run_loops"):
            # Both first-class backends take a frozen loop run whole:
            # accounting by arithmetic, floats by the direct walk, the
            # Trace from the oracle (schedule.run_frozen_loops).
            return sess._record(runner.run_loops(
                sess, loops, grid, iters=niters, overlap=overlap, marks=marks,
            ))

        # Backends that only run node programs: each sweep is a
        # ctx.doall -- one cache probe, the data-free op stream, and the
        # values moved by the direct walk at the grid rendezvous.
        def _program(ctx):
            for _ in range(niters):
                for loop in loops:
                    yield from ctx.doall(loop, overlap=overlap)

        return sess._record(sess._execute(runner, grid, _program, marks))

    def _check_bindings(self, names) -> None:
        """Reject binding names this program cannot load by name."""
        for name in names:
            if name in self.ambiguous_names:
                raise ValidationError(
                    f"binding {name!r} is ambiguous: several distinct "
                    "arrays share that name; give them unique names"
                )
            if name not in self.arrays:
                raise ValidationError(
                    f"unknown binding {name!r}: this program's arrays are "
                    f"{sorted(self.arrays)}"
                )

    def _apply_bindings(self, merged: dict) -> None:
        """Load ``{name: global array}`` bindings into the live arrays."""
        self._check_bindings(merged)
        for name, value in merged.items():
            self.arrays[name].from_global(np.asarray(value))

    def _run_checkpointed(
        self, args, kwargs, *, checkpoint_every, iters, overlap,
        marks, machine, backend, bindings, session, recover=None,
    ) -> Trace:
        """The one checkpointed-leg loop: ``run(checkpoint_every=k)`` and
        :meth:`repro.supervise.Supervisor.run` both drive it.

        Relies on the split-iters invariant -- ``run(iters=a)`` then
        ``run(iters=b)`` leaves the same state as ``run(iters=a+b)`` --
        so sweeping in legs with a snapshot between them changes no
        result.  Bindings apply once, before the sweep-0 base snapshot,
        so a restore of *any* checkpoint of this run already has them.

        ``recover`` is the Supervisor's failure handling: a leg's
        ``MachineError`` goes to ``recover(exc, resume, done, backend)``
        -- ``resume`` being *this call's* hydrated latest snapshot,
        threaded explicitly, never :meth:`latest_checkpoint` (an earlier
        checkpointed run may have left that stale) -- which restores it
        and returns the backend to retry the leg on, or re-raises.
        Without one the error propagates.
        """
        from repro.elastic import checkpoint as _checkpoint

        self._require_loops("checkpoint_every=")
        if args:
            raise ValidationError(
                "positional arguments apply to parsub programs only; "
                "pass loop-program inputs as name=array bindings"
            )
        if checkpoint_every < 1:
            raise ValidationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if iters < 1:
            raise ValidationError(f"iters must be >= 1, got {iters}")
        sess = session if session is not None else self.session
        merged = dict(bindings or {})
        merged.update(kwargs)
        self._apply_bindings(merged)
        # the hydrated latest snapshot: what a recovery restores and what
        # the next boundary's delta diffs against (chained, so an array
        # that stops changing elides again)
        resume = _checkpoint(sess, sweep=0, programs=[self])
        self.ckpt_base = self.ckpt_latest = resume
        trace, done = None, 0
        while done < iters:
            leg = min(checkpoint_every, iters - done)
            try:
                trace = self._run(
                    (), {}, iters=leg, overlap=overlap,
                    marks=marks, machine=machine, backend=backend,
                    bindings=None, session=session,
                )
            except MachineError as exc:
                if recover is None:
                    raise
                backend = recover(exc, resume, done, backend)
                continue
            done += leg
            inc = _checkpoint(sess, sweep=done, base=resume, programs=[self])
            self.ckpt_base, self.ckpt_latest = resume, inc
            resume = inc.merged(resume)
        return trace

    def latest_checkpoint(self):
        """The most recent mid-run checkpoint, hydrated to a full
        :class:`~repro.elastic.Checkpoint` (None until a
        ``run(checkpoint_every=k)`` takes one).  Its ``sweep`` cursor
        says how many sweeps of that run it reflects -- restore it and
        run ``iters - sweep`` more to finish the interrupted run.
        """
        ck = self.ckpt_latest
        if ck is None:
            return None
        if ck.kind == "incremental":
            return ck.merged(self.ckpt_base)
        return ck

    def run_batch(
        self,
        bindings: Sequence[dict],
        *,
        iters: int = 1,
        overlap: bool = False,
        marks: str | None = None,
        machine: Machine | None = None,
        backend: "str | Backend | None" = None,
        session: Session | None = None,
    ) -> "BatchResult":
        """Execute this loop program over many bindings as one batched sweep.

        ``bindings`` is a sequence of ``{name: global array}`` dicts --
        the same keyword bindings :meth:`run` takes -- one per ensemble
        member.  Instead of looping ``run`` per member, the whole
        ensemble executes as a *single vectorized run*: every array
        block gains a leading batch axis, the frozen schedules replay
        once per sweep with each payload slot widened by the batch
        factor, and the compiled rhs closures evaluate all members in
        one numpy call.  Wire message **counts** are identical to one
        single-binding run; compute and bytes honestly scale by the
        batch size.  The walk is the one :meth:`run` uses
        (:func:`repro.compiler.schedule.replay_in_process`, over batched
        plans), and so is the trace oracle.

        Each member starts from the program's pre-call array state with
        its own bindings applied -- exactly what a fresh ``run`` per
        member would see -- and results are **bit-identical** to that
        looped reference (the property tests assert it).  After the
        call, the live arrays hold the *last* member's final state, again
        matching the loop; per-member results come back stacked on
        :class:`BatchResult`.

        ``session`` overrides the launch Session (pooled serving);
        ``marks``/``machine`` are as in :meth:`run`.  The batched
        executor runs on the **simulator backend only**: passing
        any other ``backend`` raises :class:`ValidationError` (it used
        to be silently ignored), and a Session whose *default* backend
        is non-simulator is routed to the simulator with an explicit
        ``UserWarning`` -- see "run_batch limitations" in
        ``docs/api.md``.
        """
        with self.lock:
            return self._run_batch(
                bindings, iters=iters, overlap=overlap, marks=marks,
                machine=machine, backend=backend, session=session,
            )

    def _run_batch(
        self, bindings, *, iters, overlap, marks, machine, session,
        backend=None,
    ) -> "BatchResult":
        sess = session if session is not None else self.session
        self._require_loops("run_batch()")
        # Batched replay has no multiprocessing twin yet (ROADMAP item):
        # an explicitly requested non-simulator backend is an error, not
        # a silent simulator run; a non-simulator *session default* is
        # routed to the simulator with a warning, since the caller never
        # named a backend for this call.
        if backend is not None and backend != "simulator" \
                and not isinstance(backend, Machine):
            raise ValidationError(
                "run_batch() executes on the simulator backend only "
                f"(got backend={backend!r}); batched execution on the "
                "multiprocessing backend is not implemented -- run it "
                "without backend=, or loop Program.run per binding"
            )
        if backend is None and sess.backend is not None \
                and sess.backend != "simulator":
            warnings.warn(
                "run_batch() executes on the simulator backend; the "
                f"session's default backend ({sess.backend!r}) is "
                "ignored for this call",
                UserWarning,
                stacklevel=3,
            )
        bindings = [dict(b) for b in bindings]
        if not bindings:
            raise ValidationError("run_batch() needs at least one binding")
        if iters < 1:
            raise ValidationError(f"iters must be >= 1, got {iters}")
        for b in bindings:
            self._check_bindings(b)
        nbatch = len(bindings)
        loops, niters = self.loops, iters
        grid = self.grid

        arrays: dict[int, Any] = {}
        for loop in loops:
            for arr in loop.arrays():
                if getattr(arr, "base", None) is not None:
                    raise ValidationError(
                        "run_batch() cannot batch a program over array "
                        f"Sections ({arr.name!r} views another array's "
                        "storage); run the base arrays directly"
                    )
                arrays[arr.uid] = arr

        # Stage the batched shadow blocks: member b's initial state is
        # the pre-call array contents with bindings[b] applied, staged
        # through the live arrays (from_global owns the scatter logic)
        # and restored between members so bindings never leak across.
        snap = {
            (uid, r): arr.local(r).copy()
            for uid, arr in arrays.items() for r in grid.linear
        }
        blocks = {
            (uid, r): np.empty((nbatch,) + arr.local(r).shape, dtype=arr.dtype)
            for uid, arr in arrays.items() for r in grid.linear
        }
        for b, binding in enumerate(bindings):
            for (uid, r), saved in snap.items():
                arrays[uid].local(r)[...] = saved
            for name, value in binding.items():
                self.arrays[name].from_global(np.asarray(value))
            for (uid, r), batched in blocks.items():
                batched[b] = arrays[uid].local(r)

        runner, grid = sess._target(
            machine, grid, backend if isinstance(backend, Machine) else "simulator"
        )
        trace = sess._record(runner.run_loops(
            sess, loops, grid, iters=niters, overlap=overlap, marks=marks,
            nbatch=nbatch, blocks=blocks,
        ))

        # Write back member by member, collecting each one's global
        # view; member order leaves the live arrays holding the last
        # member's final state -- what a run-per-binding loop leaves.
        named = {
            name: arr for name, arr in self.arrays.items()
            if getattr(arr, "uid", None) in arrays
        }
        results = {
            name: np.empty((nbatch,) + arr.shape, dtype=arr.dtype)
            for name, arr in named.items()
        }
        for b in range(nbatch):
            for (uid, r), batched in blocks.items():
                arrays[uid].local(r)[...] = batched[b]
            for name, arr in named.items():
                results[name][b] = arr.to_global()
        return BatchResult(trace, nbatch, results)

    # -- static analysis ---------------------------------------------------

    def _require_loops(self, what: str) -> None:
        if not self.loops:
            raise ValidationError(
                f"{what} needs compiled loops; this Program wraps an opaque "
                "parsub routine"
            )

    def loop_estimates(self) -> list[LoopEstimate]:
        """One :class:`~repro.compiler.estimate.LoopEstimate` per loop."""
        self._require_loops("loop_estimates()")
        # count=False: static lookups must not inflate the replay stats
        return [
            estimate_doall(loop, plans=self.session.plans, count=False)
            for loop in self.loops
        ]

    def estimate(self, cost: CostModel | None = None, overlap: bool = False) -> float:
        """Predicted critical-path time of one sweep (all loops, in order).

        Wraps :meth:`LoopEstimate.predicted_time` per loop and sums --
        loops execute back to back.  ``cost`` defaults to the Session's.
        """
        cost = cost if cost is not None else self.session.cost
        if cost is None:
            raise ValidationError(
                "no cost model: pass one or give the Session a machine/cost"
            )
        return sum(
            est.predicted_time(cost, overlap=overlap)
            for est in self.loop_estimates()
        )

    def schedules(self) -> dict[str, list]:
        """The frozen per-rank TransferSchedules, by direction.

        ``{"gather": [...], "scatter": [...]}`` -- exactly the schedules
        every :meth:`run` replays; derived at compile time from the
        distribution clauses alone.
        """
        self._require_loops("schedules()")
        out: dict[str, list] = {"gather": [], "scatter": []}
        for analysis in self._analyses():
            for plans in analysis.read_plans:
                for rank in analysis.ranks:
                    ts = plans[rank].transfer
                    if ts is not None:
                        out["gather"].append(ts)
            for stmt_idx in range(len(analysis.stmts)):
                for rank in analysis.ranks:
                    ts = analysis.write_plans[stmt_idx][rank].transfer
                    if ts is not None:
                        out["scatter"].append(ts)
        return out

    def _analyses(self):
        # count=False: static lookups must not inflate the replay stats
        return [
            self.session.plans.analysis(loop, count=False)[0]
            for loop in self.loops
        ]

    def stats(self) -> dict:
        """Session-level reuse accounting: per-kind plan hit rates and
        hit/miss counts, and the launch count."""
        s = self.session.stats()
        return {
            "runs": s["runs"],
            "hit_rates": self.session.hit_rates(),
            "plans": s["plans"],
        }

    def explain(self) -> str:
        """The message pattern derived at compile time, human-readable.

        One block per loop: per-rank iteration counts, flops, and the
        exact messages/bytes each rank sends and receives every sweep --
        read off the frozen schedules, so what it says is what replays.
        """
        self._require_loops("explain()")
        lines: list[str] = []
        for n, (loop, est) in enumerate(zip(self.loops, self.loop_estimates())):
            head = ",".join(v.name for v in loop.vars)
            total_msgs = sum(r.msgs_out for r in est.per_rank)
            total_bytes = sum(r.bytes_out for r in est.per_rank)
            lines.append(
                f"loop {n}: doall[{head}] over grid {loop.grid.shape} -- "
                f"{total_msgs} msgs / {total_bytes} bytes per sweep"
            )
            for r in est.per_rank:
                lines.append(
                    f"  rank {r.rank}: {r.iterations} points, "
                    f"{r.flops:.0f} flops, out {r.msgs_out} msgs/"
                    f"{r.bytes_out}B, in {r.msgs_in} msgs/{r.bytes_in}B"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.routine is not None:
            return f"Program(parsub {getattr(self.routine, '__name__', '?')})"
        return (
            f"Program({len(self.loops)} loop(s), arrays="
            f"{sorted(self.arrays)}, grid="
            f"{None if self.grid is None else self.grid.shape})"
        )


class BatchResult:
    """Stacked per-member results of one :meth:`Program.run_batch`.

    ``result[name]`` is a ``(nbatch,) + array shape`` numpy array whose
    slice ``[b]`` is bit-identical to what ``Program.run`` with
    ``bindings[b]`` would have left in ``Program.arrays[name]``.
    ``trace`` is the single batched run's trace (one sweep's message
    count, batch-scaled compute).
    """

    def __init__(self, trace: Trace, nbatch: int, results: dict[str, np.ndarray]):
        self.trace = trace
        self.nbatch = nbatch
        self.results = results

    def __getitem__(self, name: str) -> np.ndarray:
        return self.results[name]

    def __contains__(self, name: str) -> bool:
        return name in self.results

    def keys(self):
        return self.results.keys()

    def __len__(self) -> int:
        return self.nbatch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchResult(nbatch={self.nbatch}, "
            f"arrays={sorted(self.results)})"
        )


def run_batch(program: Program, bindings: Sequence[dict], **kwargs) -> BatchResult:
    """Run ``program`` over many bindings as one batched ensemble sweep.

    Module-level convenience for :meth:`Program.run_batch`; see there
    for semantics (bit-identical to a run-per-binding loop, one
    schedule replay for the whole ensemble).
    """
    return program.run_batch(bindings, **kwargs)


def compile(
    obj,
    session: Session | None = None,
    *,
    machine: Machine | None = None,
    grid: ProcessorGrid | None = None,
    tune: bool = False,
    tune_budget: int | None = None,
    tune_space=None,
) -> Program:
    """Compile a program into a :class:`Program` artifact.

    ``obj`` may be:

    * a :class:`~repro.lang.doall.Doall` loop, or a sequence of them
      (executed in order per sweep);
    * KF1 source text, or a parsed :class:`~repro.lang.kf1.KF1Program`
      -- this is what makes KF1 listings executable without hand-wiring:
      the parsed arrays are exposed on ``Program.arrays`` for bindings
      and results;
    * a parsub generator function ``def routine(ctx, ...)`` (opaque: it
      runs under the Session but has no static loop analyses).

    Communication analysis runs *now*: each loop's plan -- including the
    frozen gather/scatter TransferSchedules -- is derived into the
    Session's plan cache, so every subsequent ``Program.run`` replays
    it.  With no ``session``, a fresh one is created around ``machine``
    (isolation by default); pass an explicit Session to share warmed
    schedules between programs.

    ``tune=True`` runs a budgeted :func:`repro.tune.tune` search over
    layouts before returning (loop programs only) and applies the
    winner, so the returned Program is already frozen on the chosen
    layout; the :class:`~repro.tune.TuneResult` lands on
    ``Program.tune_result``.  ``tune_budget`` caps how many candidates
    execute (default: one quarter of the enumeration) and
    ``tune_space`` overrides the derived :class:`~repro.tune.TuneSpace`.
    The search prefers the Session's host calibration
    (``Session.calibration``) over its simulated cost model.
    """
    if session is None:
        session = Session(machine=machine, grid=grid)
    elif machine is not None:
        # never mutate or second-guess a caller's Session: the machine
        # belongs to the Session (or to run()), not to compilation
        raise ValidationError(
            "pass machine to the Session or to run(), not to "
            "compile(session=...)"
        )

    if isinstance(obj, str):
        obj = parse_program(obj)
    if isinstance(obj, KF1Program):
        program = Program(
            session,
            loops=obj.loops,
            arrays=dict(obj.arrays),
            grid=obj.grid,
        )
    elif isinstance(obj, Doall):
        arrays, ambiguous = _loop_arrays([obj])
        program = Program(session, loops=[obj], arrays=arrays, grid=obj.grid)
        program.ambiguous_names = ambiguous
    elif isinstance(obj, Iterable) and not callable(obj):
        loops = list(obj)
        if not loops or not all(isinstance(lp, Doall) for lp in loops):
            raise ValidationError(
                "compile() of a sequence needs one or more Doall loops"
            )
        if any(lp.grid != loops[0].grid for lp in loops):
            raise ValidationError(
                "compile() loops must share one processor grid; wrap "
                "multi-grid programs in a parsub routine instead"
            )
        arrays, ambiguous = _loop_arrays(loops)
        program = Program(
            session, loops=loops, arrays=arrays, grid=loops[0].grid
        )
        program.ambiguous_names = ambiguous
    elif callable(obj):
        program = Program(
            session,
            routine=obj,
            grid=grid if grid is not None else session.grid,
        )
    else:
        raise ValidationError(
            f"cannot compile {type(obj).__name__}: expected a Doall, a "
            "sequence of Doalls, KF1 source, a KF1Program, or a parsub "
            "routine"
        )

    if grid is not None and program.loops and grid != program.grid:
        raise ValidationError(
            "grid mismatch: loop/KF1 programs carry their own grid "
            f"{program.grid.shape}; omit grid= or pass a matching one"
        )
    for loop in program.loops:
        session.plans.analysis(loop)  # freeze schedules at compile time
    session._register_program(program)
    if tune:
        from repro.tune import tune as _tune

        result = _tune(program, space=tune_space, budget=tune_budget)
        result.apply()
        program.tune_result = result
    return program


def run_in(
    routine: Callable,
    machine: Machine,
    grid: ProcessorGrid,
    session: Session | None = None,
) -> Trace:
    """Run a parsub in ``session``, or in a fresh one when none is given.

    The launch path shared by the tensor solvers: an explicit Session
    observes (and reuses) the solver's caches across calls; omitting it
    gives each call its own Session, so repeated solves never alias each
    other's schedules.
    """
    if session is None:
        session = Session(machine, grid)
    return session.run(routine, machine=machine, grid=grid)


def launch(programs: dict, machine: Machine, session: Session | None = None) -> Trace:
    """Run pre-built per-rank node programs, in a Session if given.

    The one launch path for drivers that build node programs by hand
    (the 1-D kernels, the message-passing baselines): with a ``session``
    the trace is recorded in its history, without one this is plain
    ``machine.run``.
    """
    if session is not None:
        return session.launch(programs, machine=machine)
    return machine.run(programs)


def _loop_arrays(loops: Sequence[Doall]) -> tuple[dict[str, Any], set[str]]:
    """Name -> array map plus the set of ambiguous names.

    Two *distinct* arrays under one name (DistArray's default name is
    ``"A"``, so this is easy to do accidentally) cannot be bound or read
    by name; such programs still compile and run — only the name-based
    slots are withheld, and ``Program.run`` rejects bindings to them.
    """
    out: dict[str, Any] = {}
    ambiguous: set[str] = set()
    for loop in loops:
        for arr in loop.arrays():
            other = out.setdefault(arr.name, arr)
            if other is not arr:
                ambiguous.add(arr.name)
    for name in ambiguous:
        del out[name]
    return out, ambiguous
