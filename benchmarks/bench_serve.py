"""SERVE -- program-as-a-service: batched ensembles + concurrent serving.

Two claims of the serving layer (:mod:`repro.serve`,
``Program.run_batch``) are measured on the paper's steady-state Jacobi
replay workload:

* **Batched ensemble execution.** Running one frozen Program over B
  parameter bindings as a single batched sweep
  (``Program.run_batch``) versus B steady-state ``run`` calls.  The
  batched path replays each schedule once per sweep with batch-widened
  payload slots, so the per-run fixed costs (launch, schedule replay
  drive, per-sweep python) amortize across the ensemble while message
  *counts* stay identical.  Bit-identity of the two paths' results and
  equality of their per-sweep wire message counts are verified on every
  run -- divergence fails the benchmark in any mode.  Full mode
  additionally gates batched speedup >= 3x at B = 8 (this is
  python-overhead amortization, not parallelism: it holds on any host).

* **Concurrent serving throughput.** A :class:`~repro.serve.Server`
  front end admits R requests round-robin over K distinct compiled
  Programs at 1 / 4 / 16 worker threads, every session sharing one
  thread-safe ScheduleCache / PlanCache.  Requests/second, p50/p99
  latency, and the shared doall plan-cache hit rate under churn are
  recorded per thread count.  The 4-thread > 1-thread throughput gate
  is enforced only in full mode on hosts exposing >= 4 usable CPUs
  (``os.sched_getaffinity``), like ``bench_parallel``: on a 1-CPU
  container the threads time-share one core and the numbers -- still
  recorded honestly -- measure the scheduler, not the serving layer.

Output: ``benchmarks/results/SERVE.txt`` (human table) and
``benchmarks/results/BENCH_serve.json`` (see docs/performance.md for
the schema).
"""

import os
import sys
import time

import numpy as np

try:
    from benchmarks._report import host_info, report, write_json
except ModuleNotFoundError:  # invoked as a script: python benchmarks/bench_...
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks._report import host_info, report, write_json

import repro
from repro import Machine, ProcessorGrid, Session
from repro.lang import DistArray
from repro.serve import Server
from repro.tensor.jacobi import build_jacobi_loop


BATCH_SPEEDUP_TARGET = 3.0
BATCH_SIZE = 8
GATE_THREADS = 4


def _time_runs(run_once, reps):
    """Best (min) wall seconds of ``reps`` timed calls (first call warms)."""
    run_once()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_once()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def _jacobi_loop(n, p=2):
    """The 2-D Jacobi doall on fresh arrays over a ``p x 1`` grid."""
    grid = ProcessorGrid((p, 1))
    X = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="X")
    F = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="F")
    return build_jacobi_loop(X, F, n, grid)


def _jacobi_program(n, p=2):
    """A compiled 2-D Jacobi program in its own Session."""
    return repro.compile(_jacobi_loop(n, p), session=Session(Machine(n_procs=p)))


# ----------------------------------------------------------------------
# Part A: batched ensemble vs per-binding loop
# ----------------------------------------------------------------------


def bench_batched(n, iters, nb, reps):
    """Time (and verify) run_batch against the per-binding run loop.

    The bindings load *every* array of the program (X zeroed, F per
    member), so a plain ``run(**b)`` per member is a complete restore
    -- both paths start each member from identical state by
    construction, and their results must be bit-identical.
    """
    rng = np.random.default_rng(7)
    zeros = np.zeros((n + 1, n + 1))
    binds = [
        {"X": zeros, "F": 1e-3 * rng.standard_normal((n + 1, n + 1))}
        for _ in range(nb)
    ]

    batched_prog = _jacobi_program(n)
    looped_prog = _jacobi_program(n)

    def looped_once():
        for b in binds:
            looped_prog.run(iters=iters, **b)

    def batched_once():
        batched_prog.run_batch(binds, iters=iters)

    looped_s = _time_runs(looped_once, reps)
    batched_s = _time_runs(batched_once, reps)

    # verification run: bit-identity member by member + message parity
    res = batched_prog.run_batch(binds, iters=iters)
    identical = True
    for b in range(nb):
        trace_1 = looped_prog.run(iters=iters, **binds[b])
        identical = identical and np.array_equal(
            res["X"][b], looped_prog.arrays["X"].to_global()
        )
    same_msgs = len(res.trace.messages) == len(trace_1.messages)

    return {
        "bindings": nb,
        "iters": iters,
        "looped_s": looped_s,
        "batched_s": batched_s,
        "speedup": looped_s / batched_s,
        "identical_results": bool(identical),
        "identical_message_counts": bool(same_msgs),
        "messages_per_run": len(res.trace.messages),
    }


# ----------------------------------------------------------------------
# Part B: concurrent serving throughput
# ----------------------------------------------------------------------


def bench_serving(n, iters, programs, requests, thread_counts):
    """Requests/second and latency percentiles per worker-thread count.

    Each thread count gets a fresh Server (fresh shared caches), K
    distinct Programs compiled from the same source -- K compiles, then
    pure churn: R requests round-robin over the K programs, every
    session replaying from the one shared PlanCache.
    """
    rng = np.random.default_rng(11)
    f = 1e-3 * rng.standard_normal((n + 1, n + 1))
    zeros = np.zeros((n + 1, n + 1))
    rows = {}
    for t in thread_counts:
        # the load generator pre-enqueues every request, so opt into a
        # queue deep enough to hold the whole burst (the admission
        #-control default would reject the excess -- by design)
        with Server(machine=Machine(n_procs=2), threads=t,
                    max_queue=requests) as srv:
            progs = [srv.compile(_jacobi_loop(n)) for _ in range(programs)]
            # warm: one request per program (plans were compiled above;
            # this warms the thread pool and any lazy per-rank plans)
            for p in progs:
                srv.run(p, X=zeros, F=f, iters=iters)
            t0 = time.perf_counter()
            futs = [
                srv.submit(progs[k % programs], X=zeros, F=f, iters=iters)
                for k in range(requests)
            ]
            for fut in futs:
                fut.result()
            wall = time.perf_counter() - t0
            st = srv.stats()
        rows[str(t)] = {
            "requests": requests,
            "wall_s": wall,
            "requests_per_s": requests / wall,
            "p50_ms": st["latency"]["p50"] * 1e3,
            "p99_ms": st["latency"]["p99"] * 1e3,
            "failures": st["failures"],
            "doall_hit_rate": st["hit_rates"].get("doall", 0.0),
        }
    return rows


def run(smoke=False):
    if smoke:
        reps, n, iters = 2, 16, 4
        programs, requests, thread_counts = 2, 12, (1, 4)
    else:
        # steady-state replay regime (the paper's compile-once/run-forever
        # sweep loop): many sweeps over a moderate grid, where the
        # per-run replay drive is the cost batching amortizes
        reps, n, iters = 3, 24, 30
        programs, requests, thread_counts = 4, 64, (1, 4, 16)

    cpus = host_info()["cpus"]
    batch = bench_batched(n, iters, BATCH_SIZE, reps)
    serving = bench_serving(n, iters, programs, requests, thread_counts)

    correct = batch["identical_results"] and batch["identical_message_counts"]
    not_slower = batch["speedup"] >= 1.0
    batch_gate_passed = (
        correct and batch["speedup"] >= BATCH_SPEEDUP_TARGET
        if not smoke else correct and not_slower
    )
    thr_enforced = (not smoke) and cpus >= GATE_THREADS
    one, four = serving.get("1"), serving.get(str(GATE_THREADS))
    thr_passed = (
        four["requests_per_s"] > one["requests_per_s"]
        if thr_enforced and one and four else None
    )

    payload = {
        "experiment": "SERVE",
        "mode": "smoke" if smoke else "full",
        "reps": reps,
        "n": n,
        "batch": batch,
        "serving": {
            "programs": programs,
            "threads": serving,
        },
        "gates": {
            "batched": {
                "speedup_target": BATCH_SPEEDUP_TARGET,
                "bindings": BATCH_SIZE,
                "enforced": not smoke,
                "passed": bool(batch_gate_passed),
                "reason": (
                    "smoke gates bit-identity, message parity, and "
                    "batched-not-slower-than-looped" if smoke else
                    f"batched ensemble must be >= {BATCH_SPEEDUP_TARGET}x "
                    f"the per-binding loop at {BATCH_SIZE} bindings"
                ),
            },
            "throughput": {
                "threads": GATE_THREADS,
                "enforced": thr_enforced,
                "passed": thr_passed,
                "reason": (
                    "throughput not gated in smoke mode" if smoke else
                    f"host exposes {cpus} usable CPU(s); concurrent "
                    f"throughput needs >= {GATE_THREADS} cores, so the "
                    "4-thread > 1-thread gate is not enforced on this "
                    "host (numbers recorded honestly)"
                    if not thr_enforced else
                    f"host has {cpus} usable CPUs; 4-thread > 1-thread "
                    "throughput gate enforced"
                ),
            },
        },
        "notes": (
            "batch.speedup = per-binding loop seconds / run_batch seconds "
            "for one steady-state ensemble (plans frozen); results are "
            "compared bit-for-bit and wire message counts must match a "
            "single run exactly.  serving rows are requests/second over "
            "R concurrent requests round-robin across K distinct "
            "Programs on one Server whose pooled sessions share a "
            "thread-safe ScheduleCache/PlanCache; doall_hit_rate is the "
            "shared plan cache's replay rate under that churn."
        ),
    }
    json_path = write_json("serve", payload)

    lines = [
        f"host: {cpus} usable CPU(s); jacobi n={n}, iters={iters}",
        f"batched ensemble (B={BATCH_SIZE}): looped "
        f"{batch['looped_s'] * 1e3:.2f} ms, batched "
        f"{batch['batched_s'] * 1e3:.2f} ms -> {batch['speedup']:.2f}x, "
        f"identical={batch['identical_results']}, "
        f"msg-parity={batch['identical_message_counts']}",
        f"{'threads':<8} {'req/s':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'hit rate':>9}",
    ]
    for t, r in serving.items():
        lines.append(
            f"{t:<8} {r['requests_per_s']:>8.1f} {r['p50_ms']:>8.2f} "
            f"{r['p99_ms']:>8.2f} {r['doall_hit_rate']:>9.3f}"
        )
    lines.append(
        f"batched gate ({BATCH_SPEEDUP_TARGET}x at B={BATCH_SIZE}): "
        + ("PASS" if batch_gate_passed else "FAIL")
    )
    lines.append(
        f"throughput gate ({GATE_THREADS} > 1 threads): "
        + ("PASS" if thr_passed else
           "FAIL" if thr_passed is False else
           f"not enforced -- {payload['gates']['throughput']['reason']}")
    )
    lines.append(f"json: {os.path.relpath(json_path)}")
    report("SERVE", "batched ensembles + concurrent serving", lines,
           mode=payload["mode"])

    ok = True
    if not correct:
        print("SMOKE FAIL: run_batch diverged from the per-binding loop "
              "(results or wire message counts)", file=sys.stderr)
        ok = False
    if not batch_gate_passed:
        print(f"FAIL: batched ensemble gate not met "
              f"(speedup {batch['speedup']:.2f}x)", file=sys.stderr)
        ok = False
    if thr_enforced and not thr_passed:
        print(f"FAIL: {GATE_THREADS}-thread throughput did not exceed "
              f"1-thread with {cpus} CPUs", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv))
