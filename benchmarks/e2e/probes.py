"""Untraced probes: public calls timed directly, one layer each.

Every probe is wrapped by :func:`run_probe`: one whose API has gone
records ``None`` and the reason instead of failing the run, so that a
refactor which removes a layer loses that layer's number and nothing
else.  Probes reach below the documented surface where a layer has no
public handle (``compile_expr``); the end-to-end path never does.

*Scoped* probes measure the workload being traced; *fixed* probes
measure one small configuration whatever the workload, so that every
per-layer metric has a value in every traced run.
"""

from __future__ import annotations

import threading
import time

import numpy as np

import repro

import harness as hz
import workloads as wl

perf = time.perf_counter
REPS = 5


def run_probe(name: str, fn, out: dict, reasons: dict) -> None:
    """Run one probe; ``fn`` returns ``{metric: value}`` for the names it owns."""
    try:
        out.update(fn())
    except Exception as exc:  # probe boundary: record why, keep the run going
        reasons[name] = f"{type(exc).__name__}: {exc}"


def _median_of(fn, reps=REPS) -> float:
    samples = []
    for _ in range(reps):
        t0 = perf()
        fn()
        samples.append(perf() - t0)
    return hz.median(samples)


def _op_seconds(timed) -> float:
    return timed[-1][2] - timed[0][1]


# ----------------------------------------------------------------------
# Scoped probes: the workload being traced
# ----------------------------------------------------------------------


def op_window(inst, seconds: float) -> tuple[dict, hz.Ledger]:
    """The untraced twin of the traced window: raw seconds of the op."""
    ledger = hz.Ledger()
    k, start = 0, perf()
    while perf() - start < seconds:
        k = inst.run_slice(ledger, k, seconds / 4)
    ops = ledger.op_seconds()

    def phase(name):
        return hz.median(ledger.phase_s[name]) if name in ledger.phase_s else 0.0

    return {
        "session.op_s": hz.median(ops),
        "session.op_p95_s": hz.percentile(ops, 0.95),
        "baselines.seq_op_s": hz.median(ledger.seq_seconds()),
        "session.ops": len(ops),
        "session.bind_s": phase("session.bind"),
        "session.fetch_s": phase("session.fetch"),
    }, ledger


def op_counts(inst) -> dict:
    """Exact-repeat counts of one steady-state op, read from public accounting."""
    inst.run_op(0, marks="full")  # a first full-marks op may build its own oracle trace
    before = inst.session.stats()
    _, out = inst.run_op(1, marks="full")
    after = inst.session.stats()
    trace = out["trace"]

    def plans(stats, outcome):
        return sum(kind[outcome] for kind in stats["plans"].values())

    return {
        "machine.trace.messages": trace.message_count(),
        "machine.trace.bytes": trace.total_bytes(),
        "machine.trace.computes": len(trace.computes),
        "machine.trace.marks": len(trace.marks) + sum(trace.mark_counts.values()),
        "compiler.schedule.plan_hits": plans(after, "hits") - plans(before, "hits"),
        "compiler.schedule.plan_misses": plans(after, "misses") - plans(before, "misses"),
        "compiler.commsched.sched_hits":
            after["schedules"]["hits"] - before["schedules"]["hits"],
        "compiler.commsched.sched_builds":
            after["schedules"]["misses"] - before["schedules"]["misses"],
    }


def setup_parts(spec, inputs, reps=3) -> dict:
    """The three parts of ``setup_s``."""
    ledger = hz.Ledger()
    for k in range(reps):
        wl.cold_rep(spec, inputs, k, ledger)
    if ledger.failures:
        raise RuntimeError(ledger.failures[0])
    parts = ledger.setup_parts
    return {
        "lang.kf1.parse_s": hz.median(p["parse_s"] for p in parts),
        "session.compile_s": hz.median(p["compile_s"] for p in parts),
        "session.first_run_s": hz.median(p["first_run_s"] for p in parts),
    }


def sweep_line(inst, reps=3) -> dict:
    """Op seconds over ``iters`` in {1, K/2, K}: intercept and slope."""
    top = inst.spec.iters
    xs, ys = [], []
    for iters in sorted({1, max(1, top // 2), top}):
        inst.run_op(0, iters=iters)
        for r in range(reps):
            timed, _ = inst.run_op(r, iters=iters)
            xs.append(iters)
            ys.append(_op_seconds(timed))
    fixed, slope = hz.fit_line(xs, ys)
    return {"session.run_fixed_s": fixed, "session.sweep_s": slope}


def marks_cost(inst) -> dict:
    """``marks="full"`` minus ``marks="cheap"``, alternating so drift cancels."""
    seconds = {"full": [], "cheap": []}
    for mode in seconds:
        inst.run_op(0, marks=mode)
    for r in range(REPS):
        for mode in seconds:
            timed, _ = inst.run_op(r, marks=mode)
            seconds[mode].append(_op_seconds(timed))
    return {"machine.trace.marks_s": hz.median(seconds["full"]) - hz.median(seconds["cheap"])}


def simulator_replay(inst) -> dict:
    """The op's own Send/Recv/Compute pattern, data-free, through ``Machine.run``."""
    _, out = inst.run_op(0, marks="full")
    trace = out["trace"]
    events: dict[int, list] = {r: [] for r in range(trace.n_procs)}
    # at equal times sends go first: a send never blocks, so moving one
    # earlier cannot deadlock the replay
    for i, m in enumerate(trace.messages):
        events[m.src].append((m.t_send, 0, i, repro.Send(m.dst, None, m.tag, m.nbytes)))
        events[m.dst].append((m.t_recv, 1, i, repro.Recv(m.src, m.tag)))
    for i, c in enumerate(trace.computes):
        events[c.proc].append((c.start, 2, i, repro.Compute(seconds=c.end - c.start)))

    def program(rank):
        for *_, op in sorted(events[rank], key=lambda e: e[:3]):
            yield op

    machine = repro.Machine(n_procs=trace.n_procs)
    seconds = _median_of(
        lambda: machine.run({r: program(r) for r in events}), reps=3)
    return {"machine.simulator.replay_s": seconds}


def expr_eval(inst) -> dict:
    """The loop's right-hand side, lowered by ``compile_expr`` onto plain
    per-rank-shaped numpy blocks: closure evaluation and nothing else."""
    from repro.lang.expr import compile_expr

    rhs = inst.listing.loops[0].body[0].rhs
    *lead, rows, cols = inst.rank_block
    rng = np.random.default_rng(0)
    blocks: dict = {}

    def resolve(ref):
        block = blocks.setdefault(
            ref.array.uid, rng.standard_normal((*lead, rows + 2, cols + 2)))
        di, dj = (int(e.const) for e in ref.idx)
        view = block[..., 1 + di:1 + di + rows, 1 + dj:1 + dj + cols]
        return lambda: view

    fn = compile_expr(rhs, resolve)
    calls = inst.sweeps_per_op * int(np.prod(inst.spec.procs))

    def once():
        for _ in range(calls):
            fn()

    once()
    return {"lang.expr.eval_s": _median_of(once, reps=3)}


def plan_cache(inst) -> dict:
    """``PlanCache.analysis`` on the workload's loop: a miss, then a hit."""
    loop = inst.listing.loops[0]
    miss, hit = [], []
    for _ in range(3):
        cache = repro.PlanCache()
        t0 = perf()
        cache.analysis(loop)
        t1 = perf()
        cache.analysis(loop)
        t2 = perf()
        miss.append(t1 - t0)
        hit.append(t2 - t1)
    return {
        "compiler.commgen.analysis_s": hz.median(miss),
        "compiler.schedule.probe_s": hz.median(hit),
    }


# ----------------------------------------------------------------------
# Fixed probes: one small configuration, whatever the workload
# ----------------------------------------------------------------------


def repartition(smoke: bool) -> dict:
    """A flip-only parsub (no doall): seconds per layout flip, schedules warm."""
    spec = wl.SPECS["flip_churn"].sized(smoke)
    inst = wl.build(spec, wl.inputs_for(spec, 0))
    flips_only = inst.parsub(0)
    inst.session.run(flips_only)
    seconds = _median_of(lambda: inst.session.run(flips_only))
    return {"compiler.commsched.repartition_s": seconds / inst.FLIPS}


MP_PROBE_SRC = wl.JACOBI_SRC.format(p=2, q=1, n=8, m=7)


def mpbackend() -> dict:
    """Fork + shm adoption, one pipe round trip, and the per-sweep barrier cost,
    on a 9x9 grid where the arithmetic is nothing."""
    f = np.ones((9, 9))

    def cold():
        session = repro.Session(repro.Machine(n_procs=2), backend="multiprocessing")
        program = repro.compile(MP_PROBE_SRC, session=session)
        t0 = perf()
        program.run(iters=1, f=f)
        return perf() - t0, session, program

    first_runs = []
    for _ in range(2):
        seconds, session, _ = cold()
        session.close_backend()
        first_runs.append(seconds)
    seconds, session, program = cold()  # this pool stays up for the warm measurements
    first_runs.append(seconds)
    try:
        roundtrip = _median_of(lambda: program.run(iters=1), reps=20)
        xs, ys = [], []
        for iters in (1, 11, 21):
            program.run(iters=iters)
            for _ in range(REPS):
                t0 = perf()
                program.run(iters=iters)
                xs.append(iters)
                ys.append(perf() - t0)
    finally:
        session.close_backend()
    return {
        "machine.mpbackend.spawn_s": hz.median(first_runs) - roundtrip,
        "machine.mpbackend.roundtrip_s": roundtrip,
        "machine.mpbackend.sweep_fixed_s": hz.fit_line(xs, ys)[1],
    }


def serving(smoke: bool, seconds: float = 0.5) -> dict:
    """One client against two on a ``Server(threads=2)``, and against no Server."""
    spec = wl.SPECS["serve_closed"].sized(smoke)
    inst = wl.build(spec, wl.inputs_for(spec, 0))
    try:
        program, server = inst.programs[0], inst.server
        bindings = {"X": inst.zeros, "f": inst.inputs[0]}
        server.run(program, iters=spec.iters, **bindings)
        direct = _median_of(
            lambda: program.run(iters=spec.iters, marks="cheap", **bindings), reps=15)

        def client(prog, deadline, latencies):
            while perf() < deadline:
                t0 = perf()
                server.run(prog, iters=spec.iters, **bindings)
                latencies.append(perf() - t0)

        def load(clients):
            latencies = [[] for _ in range(clients)]
            t0 = perf()
            threads = [
                threading.Thread(target=client,
                                 args=(inst.programs[c], t0 + seconds, latencies[c]))
                for c in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            flat = [x for per in latencies for x in per]
            return len(flat) / (perf() - t0), flat

        one_rate, one = load(1)
        two_rate, two = load(2)
        stats = server.stats()
    finally:
        inst.close()
    return {
        "serve.overhead_s": hz.median(one) - direct,
        "serve.concurrency_ratio": two_rate / one_rate,
        "serve.req_p95_s": hz.percentile(two, 0.95),
        "serve.rejected": stats["rejected"],
        "serve.plan_hit_rate": stats["hit_rates"].get("doall", 0.0),
    }


def elastic_and_supervise(smoke: bool) -> dict:
    """Checkpoint / restore / serialise, and a supervised run against a plain one."""
    spec = wl.SPECS["jacobi_small"].sized(smoke)
    inst = wl.build(spec, wl.inputs_for(spec, 0))
    session, program = inst.session, inst.program
    bindings = {"X": inst.zeros, "f": inst.inputs[0]}
    program.run(iters=spec.iters, **bindings)
    ckpt = repro.checkpoint(session)
    raw = ckpt.to_bytes()
    out = {
        "elastic.checkpoint_s": _median_of(lambda: repro.checkpoint(session)),
        "elastic.restore_s": _median_of(lambda: repro.restore(session, ckpt)),
        "elastic.to_bytes_s": _median_of(ckpt.to_bytes),
        "elastic.ckpt_bytes": len(raw),
    }
    supervisor = repro.Supervisor(session)
    supervised, plain = [], []
    for _ in range(REPS):
        t0 = perf()
        supervisor.run(program, iters=spec.iters, checkpoint_every=5, **bindings)
        t1 = perf()
        program.run(iters=spec.iters, **bindings)
        t2 = perf()
        supervised.append(t1 - t0)
        plain.append(t2 - t1)
    out["supervise.overhead_ratio"] = hz.median(supervised) / hz.median(plain)
    return out


def fixed_probes(smoke: bool, out: dict, reasons: dict) -> None:
    # the fork-based probe goes first, before any probe has started a thread
    run_probe("machine.mpbackend", mpbackend, out, reasons)
    run_probe("compiler.commsched.repartition_s", lambda: repartition(smoke), out, reasons)
    run_probe("serve", lambda: serving(smoke), out, reasons)
    run_probe("elastic+supervise", lambda: elastic_and_supervise(smoke), out, reasons)


def scoped_probes(inst, spec, inputs, out: dict, reasons: dict) -> None:
    run_probe("counts", lambda: op_counts(inst), out, reasons)
    run_probe("setup parts", lambda: setup_parts(spec, inputs), out, reasons)
    run_probe("session.sweep_s", lambda: sweep_line(inst), out, reasons)
    run_probe("machine.trace.marks_s", lambda: marks_cost(inst), out, reasons)
    run_probe("machine.simulator.replay_s", lambda: simulator_replay(inst), out, reasons)
    run_probe("lang.expr.eval_s", lambda: expr_eval(inst), out, reasons)
    run_probe("plan cache", lambda: plan_cache(inst), out, reasons)
