"""Program-as-a-service: pooled Sessions and a threaded serving front end.

The compile-once/run-forever contract makes compiled
:class:`~repro.session.Program` artifacts natural *services*: the
schedules are frozen and immutable, so the only obstacle to admitting
many concurrent ``run`` requests is the mutable launch state around
them.  This module supplies that serving layer:

* :class:`SessionPool` -- N :class:`~repro.session.Session` workers
  sharing **one** thread-safe
  :class:`~repro.compiler.schedule.PlanCache`, so a plan compiled by
  any request replays for every later request on any session.
  Sessions hand out per-run state (trace history, mark folding); the
  shared cache hands out the frozen artifacts.
* :class:`Server` -- a thread-pool front end: ``submit`` returns a
  Future, ``run`` blocks; each request checks a Session out of the
  pool, executes ``program.run(..., session=that_session)``, and
  records latency.  Distinct Programs run concurrently; runs of one
  Program serialize on its :attr:`~repro.session.Program.lock` (its
  arrays are the mutable state).

**Thread-safety / immutability contract** (see "Serving" in
``docs/api.md``): frozen ``TransferSchedule``/``StepPlan`` artifacts
and the grid-wide plans are immutable once published and may be
replayed by any number of threads; the caches' LRU/stats paths are
locked.  Pooled sessions default to ``marks="cheap"`` -- steady-state
serving wants aggregate counters, not per-op mark objects.

>>> import numpy as np
>>> from repro import Machine
>>> from repro.serve import Server
>>> src = '''
... processors procs(2)
... real x(0:7) dist (block)
... real y(0:7) dist (block)
... doall (i) = [1, 6] on owner(y(i))
...   y(i) = x(i-1) + x(i+1)
... end doall
... '''
>>> with Server(machine=Machine(n_procs=2), threads=2) as srv:
...     prog = srv.compile(src)
...     trace = srv.run(prog, x=np.arange(8.0))   # synchronous request
...     fut = srv.submit(prog, x=np.zeros(8))     # asynchronous request
...     _ = fut.result()
...     srv.stats()["requests"]
2
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.compiler.schedule import ORACLE_ENTRIES, PlanCache
from repro.lang.procs import ProcessorGrid
from repro.machine.simulator import Machine
from repro.machine.trace import Trace
from repro.session import BatchResult, Program, Session, _cache_stats, _hit_rates
from repro.session import compile as _compile
from repro.util.errors import MachineError, ServerOverloadError, ValidationError


class SessionPool:
    """A fixed pool of Sessions sharing one plan cache.

    Parameters
    ----------
    size:
        Number of pooled Sessions (the concurrency the pool admits).
    machine, grid, backend:
        Defaults for every pooled Session, as in
        :class:`~repro.session.Session`.
    marks:
        Mark mode of pooled sessions; defaults to ``"cheap"`` (serving
        wants aggregate schedule counters, not per-op mark records).
    factory:
        Optional zero-argument callable building each Session instead
        (for custom cost models etc.); its plans are still replaced by
        the shared ones.
    max_plan_entries:
        Bound of the *shared* plan cache.

    The shared cache is exactly what makes the pool a serving layer
    rather than N isolated workloads: a Program compiled through any
    pooled session freezes its schedules into :attr:`plans`, and every
    subsequent request -- on whichever session the checkout hands it --
    replays them.  The cache is thread-safe; the frozen artifacts it
    holds are immutable.

    ``acquire``/``release`` (or the :meth:`session` context manager)
    check sessions out; ``acquire`` blocks when all are busy, so the
    pool also acts as an admission throttle.
    """

    def __init__(
        self,
        size: int,
        *,
        machine: Machine | None = None,
        grid: ProcessorGrid | None = None,
        backend=None,
        marks: str = "cheap",
        factory: Callable[[], Session] | None = None,
        max_plan_entries: int = 4096,
    ):
        if size < 1:
            raise ValidationError(f"SessionPool needs size >= 1, got {size}")
        #: the one PlanCache every pooled session consults
        self.plans = PlanCache(max_entries=max_plan_entries)
        #: the one trace-oracle cache (``Session.oracle``) they consult
        self.oracle = PlanCache(max_entries=ORACLE_ENTRIES)
        self.sessions: list[Session] = []
        for _ in range(size):
            s = (
                factory() if factory is not None
                else Session(machine, grid, backend=backend, marks=marks)
            )
            # swap the session's private caches for the pool-shared ones
            s.plans = self.plans
            s.oracle = self.oracle
            self.sessions.append(s)
        self._free: list[Session] = list(self.sessions)
        self._cond = threading.Condition()

    @property
    def size(self) -> int:
        return len(self.sessions)

    # -- checkout ----------------------------------------------------------

    def acquire(self, timeout: float | None = None) -> Session:
        """Check a Session out; blocks (up to ``timeout``) when all busy."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._free, timeout=timeout):
                raise TimeoutError(
                    f"no free session in pool of {self.size} "
                    f"after {timeout}s"
                )
            return self._free.pop()

    def release(self, session: Session) -> None:
        """Return a checked-out Session to the pool."""
        if session not in self.sessions:
            raise ValidationError("release() of a session not from this pool")
        with self._cond:
            if session in self._free:
                raise ValidationError("release() of a session not checked out")
            self._free.append(session)
            self._cond.notify()

    @contextmanager
    def session(self, timeout: float | None = None):
        """``with pool.session() as s:`` -- checkout with guaranteed return."""
        s = self.acquire(timeout=timeout)
        try:
            yield s
        finally:
            self.release(s)

    def free(self) -> int:
        """How many sessions are currently checked in (available)."""
        with self._cond:
            return len(self._free)

    # -- compile and introspect -------------------------------------------

    def compile(self, obj, *, grid: ProcessorGrid | None = None) -> Program:
        """Compile ``obj`` against the pool's shared caches.

        The Program is bound to one pooled session (its default when
        run directly), but its frozen analyses live in the *shared*
        plan cache -- any pooled session replays them.
        """
        with self.session() as s:
            return _compile(obj, session=s, grid=grid)

    def stats(self) -> dict:
        """Shared-cache accounting plus the per-session run counts."""
        return {
            "size": self.size,
            "runs": sum(s.runs for s in self.sessions),
            **_cache_stats(self.plans),
        }

    def hit_rates(self) -> dict[str, float]:
        """Replay rates per plan kind over the shared plan cache."""
        return _hit_rates(self.plans)


#: retain at most this many per-request latencies for the percentiles
_MAX_LATENCIES = 4096


class Server:
    """Threaded front end admitting concurrent Program.run requests.

    Builds (or wraps) a :class:`SessionPool` and drives it from a
    thread pool: :meth:`submit` enqueues a request and returns a
    ``concurrent.futures.Future``; :meth:`run` is its blocking twin.
    Each request checks a session out of the pool for its duration, so
    the pool size bounds in-flight launches; it defaults to the thread
    count, which makes checkout deadlock-free by construction.

    ``submit_batch``/``run_batch`` serve whole ensembles per request
    through :meth:`Program.run_batch`.  :meth:`stats` reports request
    counts, p50/p99 latency, and the shared caches' hit rates.

    **Robustness** (see ``docs/resilience.md``): admission control
    bounds the request backlog at ``max_queue`` beyond the in-flight
    threads -- excess submits are *rejected* with
    :class:`~repro.util.errors.ServerOverloadError` (carrying a
    retry-after hint) rather than queued without bound, which is what
    keeps accepted requests' tail latency finite.  Per-request
    ``deadline=`` (seconds, measured from submit) covers queue wait +
    session checkout: a request whose deadline lapses before it holds a
    pooled session fails with ``TimeoutError`` without ever checking
    one out (an already-executing run is never killed mid-sweep).  A
    circuit breaker trips open after ``circuit_threshold`` consecutive
    backend (:class:`~repro.util.errors.MachineError`) failures,
    fast-rejects while open, and half-opens after ``circuit_cooldown``
    seconds to let one probe request through; :meth:`health` reports
    all of it.
    """

    def __init__(
        self,
        pool: SessionPool | None = None,
        *,
        machine: Machine | None = None,
        grid: ProcessorGrid | None = None,
        backend=None,
        threads: int = 4,
        marks: str = "cheap",
        pool_size: int | None = None,
        max_queue: int | None = None,
        default_deadline: float | None = None,
        circuit_threshold: int = 5,
        circuit_cooldown: float = 1.0,
    ):
        if threads < 1:
            raise ValidationError(f"Server needs threads >= 1, got {threads}")
        if pool is None:
            pool = SessionPool(
                pool_size if pool_size is not None else threads,
                machine=machine, grid=grid, backend=backend, marks=marks,
            )
        elif machine is not None or grid is not None or pool_size is not None:
            raise ValidationError(
                "pass machine/grid/pool_size when the Server builds its "
                "own pool, not together with an explicit one"
            )
        if max_queue is not None and max_queue < 0:
            raise ValidationError(f"max_queue must be >= 0, got {max_queue}")
        if circuit_threshold < 1:
            raise ValidationError("circuit_threshold must be >= 1")
        if circuit_cooldown <= 0:
            raise ValidationError("circuit_cooldown must be > 0")
        self.pool = pool
        self.threads = threads
        #: admitted-but-unstarted bound; in-flight capacity is
        #: ``threads + max_queue``
        self.max_queue = max_queue if max_queue is not None else 2 * threads
        self._capacity = threads + self.max_queue
        #: deadline applied when a submit names none (None = no deadline)
        self.default_deadline = default_deadline
        self.circuit_threshold = circuit_threshold
        self.circuit_cooldown = circuit_cooldown
        self._executor = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._requests = 0
        self._failures = 0
        self._rejected = 0
        self._inflight = 0
        self._latencies: list[float] = []
        self._closed = False
        # circuit breaker: "closed" (normal) -> "open" (fast-reject
        # until _circuit_open_until) -> "half-open" (one probe at a
        # time) -> "closed" on probe success / back to "open" on
        # failure.  All transitions happen under _lock.
        self._circuit = "closed"
        self._circuit_failures = 0
        self._circuit_open_until = 0.0
        self._probe_inflight = False

    # -- requests ----------------------------------------------------------

    def submit(
        self, program: Program, *args: Any,
        deadline: float | None = None, **kwargs: Any,
    ) -> Future:
        """Enqueue one ``program.run(*args, **kwargs)``; returns a Future.

        The request executes on a worker thread against a pooled
        session; the Future resolves to the run's
        :class:`~repro.machine.trace.Trace`.  May raise
        :class:`~repro.util.errors.ServerOverloadError` *at submit
        time* when the queue is full or the circuit breaker is open.
        ``deadline`` (seconds from now; default
        :attr:`default_deadline`) bounds queue wait + session checkout
        -- a lapsed request's Future fails with ``TimeoutError`` and
        never checks out a session.
        """
        return self._submit(program.run, args, kwargs, deadline)

    def submit_batch(
        self, program: Program, bindings: Sequence[dict],
        deadline: float | None = None, **kwargs: Any,
    ) -> Future:
        """Enqueue one batched ensemble request (``Program.run_batch``)."""
        return self._submit(program.run_batch, (bindings,), kwargs, deadline)

    def run(
        self, program: Program, *args: Any,
        deadline: float | None = None, **kwargs: Any,
    ) -> Trace:
        """Blocking request: ``submit`` and wait for the trace."""
        return self.submit(
            program, *args, deadline=deadline, **kwargs
        ).result()

    def run_batch(
        self, program: Program, bindings: Sequence[dict],
        deadline: float | None = None, **kwargs: Any,
    ) -> BatchResult:
        """Blocking batched request (``Program.run_batch``)."""
        return self.submit_batch(
            program, bindings, deadline=deadline, **kwargs
        ).result()

    def fetch(self, program: Program, *names: str) -> dict:
        """Snapshot result arrays of ``program`` under its run lock.

        Concurrent requests mutate a Program's arrays between runs;
        reading them racily can observe a half-written state.  This
        takes :attr:`Program.lock` (so no run is mid-flight) and
        returns ``{name: global numpy copy}``.
        """
        with program.lock:
            return {
                name: program.arrays[name].to_global().copy()
                for name in (names or sorted(program.arrays))
            }

    def _submit(self, call, args, kwargs, deadline=None) -> Future:
        if deadline is None:
            deadline = self.default_deadline
        with self._lock:
            if self._closed:
                raise ValidationError("Server is closed")
            probe = self._admit_locked()
            self._inflight += 1
        t_deadline = None if deadline is None else perf_counter() + deadline
        try:
            return self._executor.submit(
                self._serve, call, args, kwargs, t_deadline, probe
            )
        except BaseException as exc:
            with self._lock:
                self._inflight -= 1
                if probe:
                    self._probe_inflight = False
            if isinstance(exc, RuntimeError) and self._closed:
                # lost the race with close(): the executor shut down
                # between the admission check and the submit
                raise ValidationError("Server is closed") from exc
            raise

    def _admit_locked(self) -> bool:
        """Admission control + circuit breaker gate (holding _lock).

        Returns True when the admitted request is the circuit breaker's
        half-open probe -- its outcome (and only its outcome) decides
        whether the circuit closes or re-opens."""
        now = perf_counter()
        if self._circuit == "open":
            remaining = self._circuit_open_until - now
            if remaining > 0:
                self._rejected += 1
                raise ServerOverloadError(
                    "circuit breaker is open after repeated backend "
                    "failures; fast-rejecting until cooldown lapses",
                    retry_after=remaining,
                )
            self._circuit = "half-open"
            self._probe_inflight = False
        if self._circuit == "half-open" and self._probe_inflight:
            self._rejected += 1
            raise ServerOverloadError(
                "circuit breaker is half-open with the probe request "
                "still in flight",
                retry_after=self.circuit_cooldown,
            )
        if self._inflight >= self._capacity:
            self._rejected += 1
            raise ServerOverloadError(
                f"server overloaded: {self._inflight} requests in flight "
                f">= capacity {self._capacity} ({self.threads} threads + "
                f"{self.max_queue} queued)",
                retry_after=self._retry_after_locked(),
            )
        if self._circuit == "half-open":
            self._probe_inflight = True
            return True
        return False

    def _retry_after_locked(self) -> float:
        """Queue-drain estimate: p50 latency x queue depth / threads."""
        lats = self._latencies
        p50 = sorted(lats)[len(lats) // 2] if lats else 0.05
        depth = max(1, self._inflight - self.threads + 1)
        return max(0.01, p50 * depth / self.threads)

    def _circuit_note_locked(self, ok: bool, exc=None, *,
                             probe: bool = False) -> None:
        """Feed one request outcome to the circuit breaker (holding _lock).

        Only backend failures (:class:`MachineError`) count toward
        tripping: caller errors (bad bindings, closed pools) and
        deadline expiries say nothing about backend health.  ``probe``
        marks the half-open probe request: while the circuit is open or
        half-open, only the probe's outcome moves the state -- a
        straggler admitted before the trip that completes during the
        cooldown must not close (or re-trip) the circuit early.
        """
        if probe:
            self._probe_inflight = False
        if ok:
            if probe or self._circuit == "closed":
                self._circuit = "closed"
                self._circuit_failures = 0
            return
        if not isinstance(exc, MachineError):
            # inconclusive: a finished probe (cleared above) lets the
            # next admit send another one
            return
        self._circuit_failures += 1
        if probe or (self._circuit == "closed"
                     and self._circuit_failures >= self.circuit_threshold):
            self._circuit = "open"
            self._circuit_open_until = perf_counter() + self.circuit_cooldown
            self._circuit_failures = 0

    def _serve(self, call, args, kwargs, t_deadline=None, probe=False):
        t0 = perf_counter()
        try:
            if t_deadline is not None and t0 >= t_deadline:
                raise TimeoutError(
                    "request deadline expired while queued; the pooled "
                    "session was never checked out"
                )
            timeout = (
                None if t_deadline is None
                else max(1e-3, t_deadline - perf_counter())
            )
            with self.pool.session(timeout=timeout) as s:
                out = call(*args, session=s, **kwargs)
        except BaseException as exc:
            with self._lock:
                self._requests += 1
                self._failures += 1
                self._inflight -= 1
                self._circuit_note_locked(False, exc, probe=probe)
            raise
        dt = perf_counter() - t0
        with self._lock:
            self._requests += 1
            self._inflight -= 1
            self._latencies.append(dt)
            if len(self._latencies) > _MAX_LATENCIES:
                del self._latencies[: -_MAX_LATENCIES]
            self._circuit_note_locked(True, probe=probe)
        return out

    # -- elasticity --------------------------------------------------------

    def morph(
        self, program: Program, new_grid: "ProcessorGrid | str",
    ) -> Trace | None:
        """Morph ``program``'s session onto ``new_grid`` with the pool
        quiesced.

        Checks out *every* pooled session first (so no request is
        mid-flight anywhere -- ``acquire`` blocks until in-flight
        requests drain), shuts their multiprocessing worker pools down
        (shared-memory blocks return to private storage before layouts
        change), then runs :meth:`repro.Session.morph` on the program's
        own session.  ``new_grid="auto"`` asks the autotuner for the
        target grid exactly as :meth:`repro.Session.morph` does (the
        chosen grid's TuneResult lands on that session's
        ``last_tune``).  The pool is released afterwards; subsequent
        requests replay on the new grid, and worker pools respawn
        lazily.  Returns the repartition trace (``None`` when nothing
        moved).
        """
        if self._closed:
            raise ValidationError("Server is closed")
        held = [self.pool.acquire() for _ in range(self.pool.size)]
        try:
            for s in held:
                s.close_backend()
            return program.session.morph(new_grid)
        finally:
            for s in held:
                self.pool.release(s)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Request accounting: counts, latency percentiles, cache rates.

        ``latency`` holds seconds over (up to) the last 4096 completed
        requests.
        """
        with self._lock:
            lats = sorted(self._latencies)
            requests, failures = self._requests, self._failures
            rejected, inflight = self._rejected, self._inflight
        return {
            "requests": requests,
            "failures": failures,
            "rejected": rejected,
            "inflight": inflight,
            "threads": self.threads,
            "pool_size": self.pool.size,
            "latency": {
                "p50": _percentile(lats, 0.50),
                "p99": _percentile(lats, 0.99),
                "mean": (sum(lats) / len(lats)) if lats else 0.0,
            },
            "hit_rates": self.pool.hit_rates(),
        }

    def health(self) -> dict:
        """Liveness snapshot: admission state, circuit state, backlog.

        ``status`` is ``"ok"``, ``"overloaded"`` (at capacity: the next
        submit would be rejected), ``"circuit-open"`` (fast-rejecting
        until cooldown), or ``"closed"``.  ``queued`` counts admitted
        requests beyond the executing threads; ``pool_free`` is how
        many sessions are checked in.
        """
        now = perf_counter()
        with self._lock:
            circuit = self._circuit
            if circuit == "open" and now >= self._circuit_open_until:
                # cooldown lapsed; the next submit performs the actual
                # transition, report what it will find
                circuit = "half-open"
            inflight = self._inflight
            closed = self._closed
            requests, failures = self._requests, self._failures
            rejected = self._rejected
        if closed:
            status = "closed"
        elif circuit == "open":
            status = "circuit-open"
        elif inflight >= self._capacity:
            status = "overloaded"
        else:
            status = "ok"
        return {
            "status": status,
            "closed": closed,
            "circuit": circuit,
            "inflight": inflight,
            "queued": max(0, inflight - self.threads),
            "capacity": self._capacity,
            "threads": self.threads,
            "pool_free": self.pool.free(),
            "requests": requests,
            "failures": failures,
            "rejected": rejected,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain outstanding requests and shut the worker threads down.

        Idempotent: the first call flips the closed flag (so new
        submits fail fast with :class:`ValidationError`) and waits for
        admitted requests to drain; later calls return immediately
        instead of re-waiting on the shut executor.  Never deadlocks:
        the flag is flipped *before* the drain, outside any request's
        lock.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # convenience: compile straight against the pool
    def compile(self, obj, *, grid: ProcessorGrid | None = None) -> Program:
        """Compile ``obj`` against the pool's shared caches."""
        return self.pool.compile(obj, grid=grid)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    i = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[i]
