"""The seven workloads, written against the documented public API only.

Each workload class is the *cold path* in its constructor (parse ->
Session/Server -> ``repro.compile``) and one closed-loop **op** in
``phases(k)``: bind inputs -> run -> fetch result, as named steps so
the traced pass can put a span around each.  ``run_slice`` drives ops
for a stretch of the window, pairing every op with one sample of the
sequential numpy reference on the same input.

Why these seven: each row of ``SPECS`` names the layer that does most
of the work on it, so that an optimisation to one layer has a workload
that shows it and a workload that bypasses it (see README.md).
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

import repro

from harness import Ledger, Slice, jacobi_numpy, make_inputs, matches, median, rowsmooth_numpy

perf = time.perf_counter

#: a Session keeps the traces of its last ``max_history`` launches (256 by
#: default).  Left there, peak_rss_mb would count how many ops a window
#: happened to fit; at 32 the history is full before the warm-up ends.
HISTORY = 32

JACOBI_SRC = """
processors procs({p}, {q})
real X(0:{n}, 0:{n}) dist (block, block)
real f(0:{n}, 0:{n}) dist (block, block)
doall (i, j) = [1, {m}] * [1, {m}] on owner(X(i, j))
  X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - f(i, j)
end doall
"""

FLIP_SRC = """
processors procs({p})
real u(0:{n}, 0:{n}) dist (*, block)
real f(0:{n}, 0:{n}) dist (*, block)
doall (i, j) = [1, {m}] * [1, {m}] on owner(u(i, j))
  u(i, j) = 0.5*(u(i, j-1) + u(i, j+1)) - f(i, j)
end doall
"""


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    kind: str
    n: int
    iters: int
    procs: tuple[int, ...]
    backend: str | None = None
    #: cold starts per window (20 where one costs milliseconds; fewer where a
    #: single cold start is a good share of a second)
    cold_reps: int = 20
    smoke_n: int = 16
    smoke_iters: int = 3

    def sized(self, smoke: bool) -> "Spec":
        if not smoke:
            return self
        return replace(self, n=self.smoke_n, iters=self.smoke_iters, cold_reps=2)


SPECS = {s.name: s for s in (
    Spec("jacobi_small",
         "fixed per-sweep cost dominates (simulator, schedule replay, trace marks); "
         "hides closure-eval work",
         "jacobi", 64, 30, (2, 2)),
    Spec("jacobi_large",
         "per-element cost dominates (commsched workspace fills, expr closures); "
         "simulator and trace work should not move it",
         "jacobi", 1024, 8, (2, 2), cold_reps=6, smoke_n=48, smoke_iters=2),
    Spec("mp_small",
         "forked workers: parent waits on pipes and barriers; bypasses the simulator hot loop",
         "jacobi", 64, 30, (2, 1), backend="multiprocessing"),
    Spec("mp_large",
         "forked workers on a big grid: worker-side fill/eval/store and shm bandwidth; "
         "the one cell where beating sequential is plausible",
         "jacobi", 1024, 8, (2, 1), backend="multiprocessing", cold_reps=6,
         smoke_n=48, smoke_iters=2),
    Spec("flip_churn",
         "block<->cyclic redistribute flips orphan the doall plans each flip: "
         "the compile layer runs inside the hot loop while repartition schedules replay",
         "flip", 128, 4, (4,), smoke_n=16, smoke_iters=2),
    Spec("batch8",
         "Program.run_batch of 8 bindings: the batched executor traversal of the same "
         "schedule layer jacobi_small uses",
         "batch", 64, 30, (2, 2)),
    Spec("serve_closed",
         "Server(threads=2) under 2 closed-loop clients on short requests: per-run fixed "
         "cost, Program.lock, pool checkout, Future hops, GIL hand-off",
         "serve", 64, 10, (2, 2)),
)}


def timed_phases(phases) -> list[tuple[str, float, float]]:
    """Run an op's named steps; returns ``(name, start, end)`` per step."""
    out = []
    for name, fn in phases:
        t0 = perf()
        fn()
        out.append((name, t0, perf()))
    return out


class _Workload:
    """What the measurement loop needs from a workload instance."""

    #: the repro Session whose cache counters the probes read
    session = None
    #: shape of the block one rank evaluates the loop body over (a leading
    #: axis for a batch), and how many sweeps one op makes: what the
    #: closure-evaluation probe needs to stand in for the op
    rank_block: tuple[int, ...] = ()
    sweeps_per_op = 0

    def __init__(self, spec: Spec, inputs):
        self.spec = spec
        self.inputs = inputs
        #: seconds of the cold path's parts, filled by the constructor
        self.parts: dict[str, float] = {}

    def phases(self, k: int, iters: int | None = None, **how):
        """``(steps, out)``: the op's named steps, and the dict they leave
        ``out["result"]`` (what was fetched) and ``out["trace"]`` in."""
        raise NotImplementedError

    def reference(self, k: int, iters: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def run_op(self, k: int, tracer=None, **how):
        """One op on input ``k``; returns ``(timed steps, out)``."""
        steps, out = self.phases(k, **how)
        timed = tracer.run_op(steps) if tracer is not None else timed_phases(steps)
        return timed, out

    def run_slice(self, ledger: Ledger, k: int, budget_s: float, tracer=None) -> int:
        """Pairs of (reference sample, op) until ``budget_s`` is spent."""
        sl = Slice()
        excluded = 0.0
        t_start = perf()
        while True:
            t0 = perf()
            ref = self.reference(k)
            seq_s = perf() - t0
            sl.seq_s.append(seq_s)
            excluded += perf() - t0
            ledger.attempted += 1
            try:
                steps, out = self.run_op(k, tracer)
            except Exception as exc:  # the op boundary: count it, keep measuring
                ledger.fail(f"op raised {type(exc).__name__}: {exc}")
            else:
                t0 = perf()
                ledger.settle(sl, k, steps, out.get("result"), ref, seq_s)
                excluded += perf() - t0
            k = (k + 1) % len(self.inputs)
            if perf() - t_start >= budget_s:
                break
        sl.op_wall_s = perf() - t_start - excluded
        ledger.slices.append(sl)
        return k


class JacobiProgram(_Workload):
    """``repro.compile`` of the KF1 Jacobi listing, one ``Program.run`` per op."""

    def __init__(self, spec, inputs):
        super().__init__(spec, inputs)
        n = spec.n
        p, q = spec.procs
        t0 = perf()
        self.listing = repro.parse_program(JACOBI_SRC.format(p=p, q=q, n=n, m=n - 1))
        t1 = perf()
        self.session = repro.Session(
            repro.Machine(n_procs=p * q), backend=spec.backend, marks="full",
            max_history=HISTORY,
        )
        self.program = repro.compile(self.listing, session=self.session)
        self.parts = {"parse_s": t1 - t0, "compile_s": perf() - t1}
        self.zeros = np.zeros((n + 1, n + 1))
        self.rank_block = (-(-(n + 1) // p), -(-(n + 1) // q))
        self.sweeps_per_op = spec.iters

    def phases(self, k, iters=None, marks=None):
        iters = iters or self.spec.iters
        X, f = self.program.arrays["X"], self.program.arrays["f"]
        out = {}

        def bind():
            X.from_global(self.zeros)
            f.from_global(self.inputs[k])

        def run():
            out["trace"] = self.program.run(iters=iters, marks=marks)

        def fetch():
            out["result"] = X.to_global()

        return [("session.bind", bind), ("session.run", run), ("session.fetch", fetch)], out

    def reference(self, k, iters=None):
        return jacobi_numpy(self.inputs[k], iters or self.spec.iters)

    def close(self):
        self.session.close_backend()


class Batch8(JacobiProgram):
    """One ``Program.run_batch`` over 8 bindings per op (staging is inside the call)."""

    MEMBERS = 8

    def __init__(self, spec, inputs):
        super().__init__(spec, inputs)
        self.rank_block = (self.MEMBERS,) + self.rank_block

    def _members(self, k):
        return [(k + b) % len(self.inputs) for b in range(self.MEMBERS)]

    def phases(self, k, iters=None, marks=None):
        iters = iters or self.spec.iters
        bindings = [{"X": self.zeros, "f": self.inputs[m]} for m in self._members(k)]
        out = {}

        def run():
            out["batch"] = self.program.run_batch(bindings, iters=iters, marks=marks)
            out["trace"] = out["batch"].trace

        def fetch():
            out["result"] = out["batch"]["X"]

        return [("session.run", run), ("session.fetch", fetch)], out

    def reference(self, k, iters=None):
        iters = iters or self.spec.iters
        return np.stack([jacobi_numpy(self.inputs[m], iters) for m in self._members(k)])


class FlipChurn(_Workload):
    """A parsub under ``Session.run``: layout flips with doall sweeps in each layout."""

    FLIPS = 6

    def __init__(self, spec, inputs):
        super().__init__(spec, inputs)
        n = spec.n
        t0 = perf()
        self.listing = repro.parse_program(FLIP_SRC.format(p=spec.procs[0], n=n, m=n - 1))
        t1 = perf()
        self.session = repro.Session(
            repro.Machine(n_procs=spec.procs[0]), self.listing.grid, marks="full",
            max_history=HISTORY,
        )
        self.parts = {"parse_s": t1 - t0, "compile_s": perf() - t1}
        self.u, self.f = self.listing.arrays["u"], self.listing.arrays["f"]
        self.rank_block = (n + 1, -(-(n + 1) // spec.procs[0]))
        self.sweeps_per_op = self.FLIPS * spec.iters

    def parsub(self, sweeps):
        """The routine every rank runs: an even number of flips, so each op
        starts from (and ends in) the block layout."""
        u, f, loop = self.u, self.f, self.listing.loops[0]

        def routine(ctx):
            for flip in range(self.FLIPS):
                layout = ("*", "cyclic") if flip % 2 == 0 else ("*", "block")
                yield from ctx.redistribute(u, layout)
                yield from ctx.redistribute(f, layout)
                for _ in range(sweeps):
                    yield from ctx.doall(loop)

        return routine

    def _u0(self, k):
        return self.inputs[(k + 1) % len(self.inputs)]

    def phases(self, k, iters=None, marks=None):
        routine = self.parsub(self.spec.iters if iters is None else iters)
        out = {}

        def bind():
            self.u.from_global(self._u0(k))
            self.f.from_global(self.inputs[k])

        def run():
            out["trace"] = self.session.run(routine, marks=marks)

        def fetch():
            out["result"] = self.u.to_global()

        return [("session.bind", bind), ("session.run", run), ("session.fetch", fetch)], out

    def reference(self, k, iters=None):
        sweeps = self.spec.iters if iters is None else iters
        return rowsmooth_numpy(self._u0(k), self.inputs[k], self.FLIPS * sweeps)


class ServeClosed(_Workload):
    """``Server(threads=2)``, 4 programs, 2 closed-loop clients on 2 programs each."""

    CLIENTS = 2
    PROGRAMS = 4
    #: reference samples per slice: the 10-sweep 65^2 reference takes ~0.25 ms, so
    #: a slice needs many for its median to be steady
    SEQ_SAMPLES = 25

    def __init__(self, spec, inputs):
        super().__init__(spec, inputs)
        n = spec.n
        p, q = spec.procs
        src = JACOBI_SRC.format(p=p, q=q, n=n, m=n - 1)
        t0 = perf()
        self.listing = repro.parse_program(src)  # timed alone; Server.compile parses again
        t1 = perf()
        self.server = repro.Server(
            machine=repro.Machine(n_procs=p * q), threads=self.CLIENTS, marks="cheap"
        )
        self.programs = [self.server.compile(src) for _ in range(self.PROGRAMS)]
        self.parts = {"parse_s": t1 - t0, "compile_s": perf() - t1}
        self.session = self.programs[0].session
        self.zeros = np.zeros((n + 1, n + 1))
        self.rank_block = (-(-(n + 1) // p), -(-(n + 1) // q))
        self.sweeps_per_op = spec.iters
        self._refs: dict[tuple[int, int], np.ndarray] = {}

    def phases(self, k, iters=None, marks=None, program=0):
        iters = iters or self.spec.iters
        prog = self.programs[program]
        out = {}

        def request():
            out["trace"] = self.server.run(
                prog, iters=iters, marks=marks, X=self.zeros, f=self.inputs[k]
            )

        def fetch():
            out["result"] = self.server.fetch(prog, "X")["X"]

        return [("serve.request", request), ("session.fetch", fetch)], out

    def reference(self, k, iters=None):
        iters = iters or self.spec.iters
        if (k, iters) not in self._refs:
            self._refs[k, iters] = jacobi_numpy(self.inputs[k], iters)
        return self._refs[k, iters]

    def close(self):
        self.server.close()

    def _client(self, c, k, deadline, tracer, done):
        """Closed loop of client ``c``, alternating over its own two programs."""
        profile = tracer.thread_profile() if tracer is not None else None
        i = 0
        while perf() < deadline:
            kk = (k + 3 * c + i) % len(self.inputs)
            steps, out = self.phases(kk, program=2 * c + i % 2)
            try:
                timed = tracer.run_op(steps, profile) if tracer is not None \
                    else timed_phases(steps)
            except Exception as exc:  # the op boundary: count it, keep serving
                done.append((kk, None, f"op raised {type(exc).__name__}: {exc}"))
            else:
                done.append((kk, timed, out.get("result")))
            i += 1

    def run_slice(self, ledger, k, budget_s, tracer=None):
        sl = Slice()
        for s in range(self.SEQ_SAMPLES):  # clients paused: the reference runs alone
            t0 = perf()
            jacobi_numpy(self.inputs[(k + s) % len(self.inputs)], self.spec.iters)
            sl.seq_s.append(perf() - t0)
        seq_s = median(sl.seq_s)
        done: list[list] = [[] for _ in range(self.CLIENTS)]
        t_start = perf()
        threads = [
            threading.Thread(
                target=self._client, name=f"e2e-client-{c}",
                args=(c, k, t_start + budget_s, tracer, done[c]),
            )
            for c in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sl.op_wall_s = perf() - t_start
        # verification waits until the clients are paused, outside every timing
        for kk, timed, got in (rec for per_client in done for rec in per_client):
            ledger.attempted += 1
            if timed is None:
                ledger.fail(got)
            else:
                ledger.settle(sl, kk, timed, got, self.reference(kk), seq_s)
        ledger.slices.append(sl)
        return (k + self.SEQ_SAMPLES) % len(self.inputs)


KINDS = {"jacobi": JacobiProgram, "batch": Batch8, "flip": FlipChurn, "serve": ServeClosed}


def inputs_for(spec: Spec, seed: int):
    return make_inputs(seed, (spec.n + 1, spec.n + 1))


def build(spec: Spec, inputs) -> _Workload:
    """The cold path up to (not including) the first op."""
    return KINDS[spec.kind](spec, inputs)


def cold_rep(spec: Spec, inputs, k: int, ledger: Ledger) -> None:
    """One cold start: fresh arrays + Session/Server -> compile -> first op returns."""
    ledger.attempted += 1
    # collect before as well as after: garbage of the ops in between should not
    # trigger a full collection inside the timed cold path
    gc.collect()
    t0 = perf()
    inst = None
    try:
        inst = build(spec, inputs)
        t1 = perf()
        _, out = inst.run_op(k)
        t2 = perf()
    except Exception as exc:  # the op boundary
        ledger.fail(f"cold start raised {type(exc).__name__}: {exc}")
        return
    finally:
        if inst is not None:
            inst.close()
        # Session <-> Program reference cycles would otherwise keep a few dead
        # instances alive until the collector happens to run, and peak_rss_mb
        # would depend on when that is
        gc.collect()
    if matches(out.get("result"), inst.reference(k)):
        ledger.setup_s.append(t2 - t0)
        ledger.setup_parts.append({**inst.parts, "first_run_s": t2 - t1})
    else:
        ledger.fail(f"cold result of input {k} differs from the numpy reference")
