"""Execution traces: the simulator's record of what happened when.

The trace is the measurement instrument for every benchmark in this
reproduction: processor utilization (pipelined-solver claim), message
counts and volumes (distribution-tuning claim), and Mark events (the
data-flow-graph figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable


def _merge_intervals(ivals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of intervals as a sorted, non-overlapping list."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(ivals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


@dataclass(frozen=True)
class ComputeRecord:
    proc: int
    start: float
    end: float
    label: str | None = None


@dataclass(frozen=True)
class MessageRecord:
    src: int
    dst: int
    tag: Hashable
    nbytes: int
    hops: int
    t_send: float
    t_arrive: float
    t_recv: float | None = None


@dataclass(frozen=True)
class MarkRecord:
    proc: int
    time: float
    label: str
    payload: Any = None


@dataclass
class Trace:
    """Complete record of one simulated run.

    ``level`` records how marks were collected: ``"full"`` (default)
    keeps every :class:`MarkRecord`; ``"cheap"`` means the run was
    launched with cheap-marks mode (``Session.run(marks="cheap")``), in
    which steady-state schedule events were *counted* into
    ``mark_counts`` instead of materialized as records -- message and
    byte accounting is unaffected, and :meth:`schedule_counts` /
    :meth:`schedule_hit_rate` fold the counters in, but
    :meth:`schedule_events` only sees the (rare) marks that were still
    recorded.  ``mark_counts`` maps ``(label, direction)`` to an event
    count, e.g. ``("commsched/hit", "gather") -> 12``.
    """

    n_procs: int
    computes: list[ComputeRecord] = field(default_factory=list)
    messages: list[MessageRecord] = field(default_factory=list)
    marks: list[MarkRecord] = field(default_factory=list)
    finish_times: dict[int, float] = field(default_factory=dict)
    level: str = "full"
    mark_counts: dict[tuple, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def makespan(self) -> float:
        """Latest event time across all processors."""
        times = [0.0]
        times.extend(self.finish_times.values())
        times.extend(c.end for c in self.computes)
        times.extend(m.t_arrive for m in self.messages)
        return max(times)

    def busy_time(self, proc: int) -> float:
        """Total compute-busy seconds of one processor."""
        return sum(c.end - c.start for c in self.computes if c.proc == proc)

    def total_busy_time(self) -> float:
        return sum(c.end - c.start for c in self.computes)

    def utilization(self, proc: int | None = None) -> float:
        """Busy fraction of one processor, or average over all of them."""
        span = self.makespan()
        if span <= 0.0:
            return 0.0
        if proc is not None:
            return self.busy_time(proc) / span
        return self.total_busy_time() / (span * self.n_procs)

    def message_count(self) -> int:
        return len(self.messages)

    def total_bytes(self) -> int:
        return sum(m.nbytes for m in self.messages)

    def comm_time(self) -> float:
        """Sum of in-flight message times (not wall time)."""
        return sum(m.t_arrive - m.t_send for m in self.messages)

    def overlap_fraction(self) -> float:
        """Fraction of compute-busy time overlapped with communication.

        For each processor, the portion of its compute intervals during
        which at least one message *destined to it* was in flight,
        summed over processors and divided by total busy time.  A
        serialized executor (all ghosts received before any compute)
        scores near zero; an overlap-aware executor that computes
        interior points while ghosts fly scores the hidden fraction.
        Returns 0.0 when there is no compute at all.

        >>> t = Trace(n_procs=2)
        >>> t.computes.append(ComputeRecord(proc=1, start=0.0, end=2.0))
        >>> t.messages.append(MessageRecord(src=0, dst=1, tag="gh", nbytes=8,
        ...                                 hops=1, t_send=0.0, t_arrive=1.0))
        >>> t.overlap_fraction()
        0.5
        """
        busy = self.total_busy_time()
        if busy <= 0.0:
            return 0.0
        inbound: dict[int, list[tuple[float, float]]] = {}
        for m in self.messages:
            if m.t_arrive > m.t_send:
                inbound.setdefault(m.dst, []).append((m.t_send, m.t_arrive))
        merged = {p: _merge_intervals(iv) for p, iv in inbound.items()}
        overlapped = 0.0
        for c in self.computes:
            for lo, hi in merged.get(c.proc, ()):
                overlapped += max(0.0, min(c.end, hi) - max(c.start, lo))
        return overlapped / busy

    # ------------------------------------------------------------------
    # Communication-schedule reuse (inspector/executor amortization)
    # ------------------------------------------------------------------

    #: Label prefix used by the compiler/runtime for schedule events:
    #: ``commsched/hit`` (a cached schedule was replayed),
    #: ``commsched/miss`` (a gather or repartition plan had to be built),
    #: ``commsched/build`` (a doall communication plan was compiled).
    #: Every event's payload leads with the transfer *direction*:
    #: ``"gather"`` (cached irregular gathers), ``"scatter"`` (doall
    #: remote-write schedules), ``"repartition"`` (redistribution
    #: plans), or ``"doall"`` (whole-loop plan compiles/replays).
    SCHED_PREFIX = "commsched/"

    def schedule_events(self, direction: str | None = None) -> list[MarkRecord]:
        """Schedule cache events, optionally filtered by direction."""
        out = [m for m in self.marks if m.label.startswith(self.SCHED_PREFIX)]
        if direction is not None:
            out = [
                m for m in out
                if isinstance(m.payload, tuple)
                and m.payload
                and m.payload[0] == direction
            ]
        return out

    def schedule_counts(self, direction: str | None = None) -> dict[str, int]:
        """Event counts by kind, e.g. ``{"hit": 8, "build": 1}``.

        Pass ``direction`` to restrict to one transfer direction, e.g.
        ``schedule_counts("scatter")`` counts only the doall write-side
        schedule events.

        >>> t = Trace(n_procs=2)
        >>> t.marks.append(MarkRecord(0, 0.0, "commsched/miss", ("gather", "A")))
        >>> t.marks.append(MarkRecord(1, 0.1, "commsched/hit", ("gather", "A")))
        >>> t.marks.append(MarkRecord(0, 0.2, "commsched/hit", ("scatter", "B")))
        >>> t.schedule_counts("gather")
        {'miss': 1, 'hit': 1}
        >>> t.schedule_hit_rate("gather")
        0.5
        >>> t.schedule_directions()
        {'gather': {'miss': 1, 'hit': 1}, 'scatter': {'hit': 1}}

        Cheap-marks counters contribute too:

        >>> t.mark_counts[("commsched/hit", "gather")] = 5
        >>> t.schedule_counts("gather")
        {'miss': 1, 'hit': 6}
        """
        out: dict[str, int] = {}
        for m in self.schedule_events(direction):
            kind = m.label[len(self.SCHED_PREFIX):]
            out[kind] = out.get(kind, 0) + 1
        for (label, dirn), n in self.mark_counts.items():
            if not label.startswith(self.SCHED_PREFIX):
                continue
            if direction is not None and dirn != direction:
                continue
            kind = label[len(self.SCHED_PREFIX):]
            out[kind] = out.get(kind, 0) + n
        return out

    def schedule_hit_rate(self, direction: str | None = None) -> float:
        """Fraction of schedule lookups served from cache (0.0 if none).

        Benchmarks report this as the reuse rate: hits over all events
        (hits + misses + builds), counted per rank per call.  A build is
        recorded once per process-wide compile -- the other ranks of
        that same collective execution count as hits, since they fetch
        the shared plan instead of deriving it.  Pass ``direction`` to
        report one direction alone, e.g. ``schedule_hit_rate("gather")``
        vs. ``schedule_hit_rate("scatter")``.
        """
        counts = self.schedule_counts(direction)
        total = sum(counts.values())
        if total == 0:
            return 0.0
        return counts.get("hit", 0) / total

    def schedule_directions(self) -> dict[str, dict[str, int]]:
        """Per-direction event counts, e.g. ``{"gather": {"hit": 4,
        "miss": 2}, "scatter": {"hit": 3, "build": 1}}``."""
        out: dict[str, dict[str, int]] = {}
        for m in self.schedule_events():
            if not (isinstance(m.payload, tuple) and m.payload):
                continue
            direction = m.payload[0]
            kind = m.label[len(self.SCHED_PREFIX):]
            d = out.setdefault(direction, {})
            d[kind] = d.get(kind, 0) + 1
        for (label, direction), n in self.mark_counts.items():
            if not label.startswith(self.SCHED_PREFIX):
                continue
            kind = label[len(self.SCHED_PREFIX):]
            d = out.setdefault(direction, {})
            d[kind] = d.get(kind, 0) + n
        return out

    # ------------------------------------------------------------------
    # Mark-based analysis (data-flow figures)
    # ------------------------------------------------------------------

    def marks_with(self, label: str) -> list[MarkRecord]:
        """All marks whose label equals ``label``."""
        return [m for m in self.marks if m.label == label]

    def marks_prefixed(self, prefix: str) -> list[MarkRecord]:
        """All marks whose label starts with ``prefix``."""
        return [m for m in self.marks if m.label.startswith(prefix)]

    def active_procs_by_payload(self, label: str) -> dict[Any, list[int]]:
        """Group processors by mark payload (e.g. step number -> procs).

        Used to regenerate the paper's Figure 3 data-flow graph: each
        reduction/substitution step marks its active processors and the
        payload identifies the step.
        """
        out: dict[Any, list[int]] = {}
        for m in self.marks_with(label):
            out.setdefault(m.payload, []).append(m.proc)
        for procs in out.values():
            procs.sort()
        return out

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def gantt(self, width: int = 72) -> str:
        """Plain-text Gantt chart of compute activity per processor."""
        span = self.makespan()
        lines = []
        if span <= 0.0:
            return "\n".join(f"P{p:<3} |" + " " * width + "|" for p in range(self.n_procs))
        for p in range(self.n_procs):
            row = [" "] * width
            for c in self.computes:
                if c.proc != p:
                    continue
                lo = int(c.start / span * (width - 1))
                hi = max(lo, int(c.end / span * (width - 1)))
                for x in range(lo, hi + 1):
                    row[x] = "#"
            lines.append(f"P{p:<3} |{''.join(row)}| busy={self.busy_time(p):.4g}s")
        lines.append(f"makespan={span:.6g}s  util={self.utilization():.3f}")
        return "\n".join(lines)

    def summary(self) -> dict[str, float]:
        """Headline numbers for benchmark reporting."""
        return {
            "makespan": self.makespan(),
            "utilization": self.utilization(),
            "messages": float(self.message_count()),
            "bytes": float(self.total_bytes()),
            "busy_time": self.total_busy_time(),
        }
