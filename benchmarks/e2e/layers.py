"""The traced pass: harness-side spans plus a profile folded into layers.

A *layer* is a ``src/repro`` module name.  The trace is taken entirely
from outside the program: spans are recorded around the harness's own
calls into it, and a function-level ``cProfile`` of each op is folded
into ``<module>.self_s`` / ``<module>.calls``.  Time spent in C code,
numpy, the standard library or a repro module that is not in ``LAYERS``
is charged to the listed module that called it (through as many
library frames as it takes), so the self times add up to the traced op
time; whatever no listed module is responsible for -- the harness's own
frames -- is ``other``.

Known distortions, measured rather than hidden: ``cProfile`` taxes
every Python call but not the inside of a C call, so call-heavy layers
look bigger than they are (``trace.overhead_ratio`` says by how much
overall); a generator resumption counts as a call; and what a forked
worker does is invisible -- the parent only sees itself waiting
(``machine.mpbackend.parent_wait_s``).
"""

from __future__ import annotations

import cProfile
import itertools
import sys
import threading

from workloads import timed_phases

LAYERS = (
    "session", "serve", "elastic", "supervise",
    "lang.kf1", "lang.expr", "lang.array", "lang.dist", "lang.procs",
    "lang.context", "lang.doall",
    "compiler.schedule", "compiler.commgen", "compiler.commsched",
    "compiler.access", "compiler.stripmine",
    "machine.simulator", "machine.ops", "machine.trace", "machine.costmodel",
    "machine.topology", "machine.mpbackend",
)
OTHER = "other"
#: harness client threads profile themselves; every other thread born
#: while tracing (the Server's workers) gets a profile from the hook
CLIENT_PREFIX = "e2e-client"


def layer_of(filename: str) -> str | None:
    """The listed layer a source file belongs to, if any."""
    _, sep, rel = filename.replace("\\", "/").rpartition("/repro/")
    if not sep or not rel.endswith(".py"):
        return None
    name = rel[:-3].replace("/", ".")
    return name if name in LAYERS else None


class Tracer:
    """Spans and per-thread profiles of the ops run through :meth:`run_op`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_seconds: list[float] = []
        self.client_profiles: list[cProfile.Profile] = []
        self.worker_profiles: list[cProfile.Profile] = []
        self.notes: list[str] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._lock = threading.Lock()
        self._active = False
        self._main = self.thread_profile()

    def thread_profile(self) -> cProfile.Profile:
        profile = cProfile.Profile(builtins=False)
        with self._lock:
            self.client_profiles.append(profile)
        return profile

    def run_op(self, steps, profile=None):
        """Run one op's steps under the profiler and record its spans."""
        profile = profile or self._main
        profile.enable()
        try:
            timed = timed_phases(steps)
        finally:
            profile.disable()
        with self._lock:
            op = next(self._ops)
            root = next(self._ids)
            start, end = timed[0][1], timed[-1][2]
            self.op_seconds.append(end - start)
            self.spans.append({"id": root, "parent": None, "op": op, "name": "op",
                               "start": start, "end": end,
                               "thread": threading.current_thread().name})
            for name, s, e in timed:
                self.spans.append({"id": next(self._ids), "parent": root, "op": op,
                                   "name": name, "start": s, "end": e,
                                   "thread": threading.current_thread().name})
        return timed

    # -- threads the program starts (the Server's workers) ----------------

    def watch_new_threads(self) -> None:
        """Arm a dormant hook in every thread started from now on.

        Call before the program starts its threads and :meth:`activate`
        when the traced window opens: warm-up stays out of the profile.
        """
        threading.setprofile(self._on_event)

    def activate(self) -> None:
        self._active = True

    def unwatch_new_threads(self) -> None:
        self._active = False
        threading.setprofile(None)

    def _on_event(self, frame, event, arg):
        """Dormant until activated, then swaps in a C profiler of the thread's own."""
        if not self._active:
            return
        sys.setprofile(None)
        if threading.current_thread().name.startswith(CLIENT_PREFIX):
            return
        profile = cProfile.Profile(builtins=False)
        try:
            profile.enable()
        except ValueError as exc:  # 3.12+: one profiling tool per interpreter
            self.notes.append(f"worker threads not profiled: {exc}")
            return
        with self._lock:
            self.worker_profiles.append(profile)

    # -- reduction ----------------------------------------------------------

    def layer_table(self) -> dict:
        """``{label: [self_s, calls]}`` summed over all profiled threads,
        plus ``parent_wait_s`` and the total the rows add up to.

        A client blocked on a Future is charged to ``serve`` in its own
        thread's profile while a worker thread does the actual work; the
        workers' busy time is moved out of that wait and onto the layers
        that spent it, so nothing is counted twice.
        """
        table = {label: [0.0, 0] for label in (*LAYERS, OTHER)}
        wait = 0.0
        for profile in self.client_profiles:
            rows, w = attribute(profile.getstats())
            wait += w
            for label, (t, n) in rows.items():
                table[label][0] += t
                table[label][1] += n
        busy = 0.0
        for profile in self.worker_profiles:
            rows, _ = attribute(profile.getstats())
            rows.pop(OTHER, None)  # a worker's own frames: idle on the work queue
            for label, (t, n) in rows.items():
                table[label][0] += t
                table[label][1] += n
                busy += t
        table["serve"][0] = max(0.0, table["serve"][0] - busy)
        return {
            "layers": table,
            "parent_wait_s": wait,
            "total_s": sum(t for t, _ in table.values()),
        }


def attribute(entries) -> tuple[dict, float]:
    """Fold ``cProfile.Profile.getstats()`` into ``{label: [self_s, calls]}``.

    Works on the raw entries, keyed by code object: ``pstats`` keys on
    ``(file, line, name)`` and silently merges what collides there (every
    dataclass-generated ``__init__`` is ``("<string>", 2, "__init__")``),
    which loses their time.

    Also returns the cumulative seconds ``machine.mpbackend`` spent in
    ``multiprocessing.connection`` (poll/recv/send): the parent waiting
    for its workers.
    """
    def filename(code) -> str:
        return getattr(code, "co_filename", "")  # a C function is a plain str

    # callee -> {caller: (calls, self seconds, cumulative seconds)} on that edge
    callers: dict = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, {})[entry.code] = (
                sub.callcount, sub.inlinetime, sub.totaltime)

    memo: dict = {}
    cuts = [0]

    def owners(func, path=()) -> dict:
        """Which labels are responsible for the calls made *by* ``func``."""
        label = layer_of(filename(func))
        if label is not None:
            return {label: 1.0}
        if func in memo:
            return memo[func]
        if func in path:  # recursion through library code: cut the cycle
            cuts[0] += 1
            return {}
        cuts_before = cuts[0]
        edges = callers.get(func, {})
        weights = {c: e[2] for c, e in edges.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[0] for c, e in edges.items()}
        total = sum(weights.values())
        share: dict = {}
        for caller, w in weights.items():
            for lab, x in owners(caller, path + (func,)).items():
                share[lab] = share.get(lab, 0.0) + x * w / total
        norm = sum(share.values())
        share = {lab: x / norm for lab, x in share.items()} if norm > 0 else {OTHER: 1.0}
        if cuts[0] == cuts_before:  # a share cut short by a cycle is not reusable
            memo[func] = share
        return share

    rows: dict = {}

    def charge(label, seconds, calls=0):
        row = rows.setdefault(label, [0.0, 0])
        row[0] += seconds
        row[1] += calls

    wait = 0.0
    for entry in entries:
        label = layer_of(filename(entry.code))
        if label is not None:
            charge(label, entry.inlinetime, entry.callcount)
            continue
        unclaimed = entry.inlinetime
        for caller, (_n, edge_self, edge_total) in callers.get(entry.code, {}).items():
            unclaimed -= edge_self
            for lab, x in owners(caller).items():
                charge(lab, edge_self * x)
            if (layer_of(filename(caller)) == "machine.mpbackend"
                    and filename(entry.code).endswith("multiprocessing/connection.py")):
                wait += edge_total
        charge(OTHER, unclaimed)  # entered with no caller on record
    return rows, wait
