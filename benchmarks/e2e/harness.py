"""Measurement plumbing shared by every e2e workload.

Nothing here imports ``repro``: inputs, the independent numpy reference
evaluators, the estimators, the failure ledger and the leak audit all
live outside the program under test, so a change to ``src/`` cannot
move the yardstick it is judged by.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

POOL_SIZE = 8
#: verification tolerance: the distributed sweep is the same arithmetic
#: as the reference over partitioned index boxes, so it agrees to
#: rounding; inputs are O(1e-3), hence the tight absolute term
RTOL, ATOL = 1e-9, 1e-12


# ----------------------------------------------------------------------
# Inputs and independent references
# ----------------------------------------------------------------------


def make_inputs(seed: int, shape: tuple[int, ...], count: int = POOL_SIZE) -> list[np.ndarray]:
    """The pool of right-hand sides an op rotates over (same seed, same bytes)."""
    rng = np.random.default_rng(seed)
    return [1e-3 * rng.standard_normal(shape) for _ in range(count)]


def jacobi_numpy(f: np.ndarray, iters: int) -> np.ndarray:
    """Listing 1 in plain numpy: the sequential reference of the Jacobi workloads."""
    x = np.zeros_like(f)
    for _ in range(iters):
        old = x.copy()
        x[1:-1, 1:-1] = (
            0.25 * (old[2:, 1:-1] + old[:-2, 1:-1] + old[1:-1, 2:] + old[1:-1, :-2])
            - f[1:-1, 1:-1]
        )
    return x


def rowsmooth_numpy(u0: np.ndarray, f: np.ndarray, sweeps: int) -> np.ndarray:
    """Sequential reference of ``flip_churn``: a 1-D smoother along rows."""
    u = u0.copy()
    for _ in range(sweeps):
        old = u.copy()
        u[1:-1, 1:-1] = 0.5 * (old[1:-1, :-2] + old[1:-1, 2:]) - f[1:-1, 1:-1]
    return u


def matches(result, reference) -> bool:
    return (
        isinstance(result, np.ndarray)
        and result.shape == reference.shape
        and bool(np.allclose(result, reference, rtol=RTOL, atol=ATOL))
    )


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def pair_ratio(op_seconds, seq_seconds) -> float:
    """Median over pairs of ``op / seq``: host drift hits both halves of a pair."""
    return median(o / s for o, s in zip(op_seconds, seq_seconds, strict=True))


def fit_line(xs, ys) -> tuple[float, float]:
    """Least-squares ``(intercept, slope)`` of ``y = a + b x``."""
    slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
    return float(intercept), float(slope)


# ----------------------------------------------------------------------
# The ledger one run fills in
# ----------------------------------------------------------------------


@dataclass
class Slice:
    """One stretch of the window: reference samples, then ops."""

    seq_s: list[float] = field(default_factory=list)
    #: per op: (op seconds, reference seconds it is paired with)
    pairs: list[tuple[float, float]] = field(default_factory=list)
    #: wall seconds the clients were free to issue ops (gaps included)
    op_wall_s: float = 0.0
    ops_done: int = 0


@dataclass
class Ledger:
    """Everything a run measured, before it is reduced to metrics."""

    slices: list[Slice] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_parts: list[dict] = field(default_factory=list)
    phase_s: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def settle(self, sl: Slice, k: int, timed, result, reference, seq_s: float) -> None:
        """Verify one finished op (outside every timing) and book it.

        ``timed`` is the op's ``(name, start, end)`` steps; only an op whose
        result matches the reference contributes a timing.
        """
        if not matches(result, reference):
            self.fail(f"result of input {k} differs from the numpy reference")
            return
        sl.pairs.append((timed[-1][2] - timed[0][1], seq_s))
        sl.ops_done += 1
        for name, start, end in timed:
            self.phase_s.setdefault(name, []).append(end - start)

    def op_seconds(self) -> list[float]:
        return [o for s in self.slices for o, _ in s.pairs]

    def seq_seconds(self) -> list[float]:
        return [x for s in self.slices for x in s.seq_s]

    def vs_seq(self) -> float:
        pairs = [p for s in self.slices for p in s.pairs]
        return pair_ratio([o for o, _ in pairs], [q for _, q in pairs])

    def tput_vs_seq(self) -> float:
        """Median over slices of (ops per active second) / (references per second).

        An op and its reference do the same grid-point updates, so the
        update counts cancel; what is left is gaps, concurrency and
        queueing -- the part ``vs_seq`` cannot see.
        """
        ratios = [
            (s.ops_done / s.op_wall_s) / (len(s.seq_s) / sum(s.seq_s))
            for s in self.slices
            if s.ops_done and s.seq_s and s.op_wall_s > 0
        ]
        return median(ratios)

    def fail_frac(self) -> float:
        return len(self.failures) / max(1, self.attempted)


# ----------------------------------------------------------------------
# Host, memory, leaks
# ----------------------------------------------------------------------


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host_info() -> dict:
    return {
        "cpus": usable_cpus(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def shm_segments() -> frozenset[str]:
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return frozenset()


def child_pids(helpers: bool = False) -> frozenset[int]:
    """Live (or zombie) children of this process, from ``/proc``.

    The interpreter's own ``multiprocessing.resource_tracker`` helper is
    left out unless ``helpers``: the standard library starts it with the
    first shared memory segment and keeps it until exit by design
    (``stop_children`` ends it before a run returns).
    """
    me = os.getpid()
    kids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            # the command name may hold spaces and parentheses: split after it
            if int(stat[stat.rfind(")") + 2:].split()[1]) != me:
                continue
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if helpers or "resource_tracker" not in cmdline:
            kids.add(int(entry))
    return frozenset(kids)


def stop_children() -> list[int]:
    """End and reap every child before a run returns; the pids it had to kill.

    The standard library's resource tracker would otherwise outlive the
    interpreter by a moment (it exits when it sees the pipe close), which
    a caller that looks right after the exit reads as a leaked process.
    Anything else still there is a leak of the workload's: killed here so
    that it cannot serve a later run, and returned so that it is reported.
    """
    from multiprocessing import resource_tracker

    try:
        # closes the tracker's pipe and waits for its exit; a no-op when none runs
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass  # not this interpreter's layout: the sweep below ends it
    killed = []
    for pid in sorted(child_pids(helpers=True)):
        try:
            if os.waitpid(pid, os.WNOHANG)[0]:
                continue  # had ended, only not been reaped
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            continue  # reaped by someone else meanwhile
        killed.append(pid)
    return killed


class LeakAudit:
    """``/dev/shm`` segments and child processes, before and after.

    A worker pool or Server that is closed must leave neither behind;
    the difference (if any) is what the workload leaked.
    """

    def __init__(self):
        self.shm = shm_segments()
        self.kids = child_pids()

    def leaked(self, settle_s: float = 1.0) -> list[str]:
        """Names of what is still there; waits briefly for exits to land."""
        deadline = time.perf_counter() + settle_s
        while True:
            found = [f"shm:{n}" for n in sorted(shm_segments() - self.shm)]
            found += [f"pid:{p}" for p in sorted(child_pids() - self.kids)]
            if not found or time.perf_counter() >= deadline:
                return found
            time.sleep(0.02)
