"""PARALLEL -- real shared-memory speedup of the multiprocessing backend.

``bench_wallclock`` measures what compiling the replay buys a *single*
host process; this benchmark measures what the
:class:`~repro.machine.mpbackend.MultiprocessingBackend` buys by
executing the compiled sweeps on real forked worker processes over
shared-memory array storage.  The scenario is the paper's headline
workload -- the Listing-3 Jacobi stencil in steady-state replay -- run
three ways per worker count:

* ``sequential`` -- the Listing-1 single-process numpy baseline
  (:func:`repro.baselines.sequential.jacobi_sequential`);
* ``simulator``  -- the compiled replay on the event-driven reference
  simulator (one host process playing all ranks);
* ``parallel``   -- the same frozen program on the multiprocessing
  backend with one worker process per rank.

The backend's contract is that parallelism is *observationally free*:
array results, schedule accounting, and the cost-model-stamped trace
must be bit-identical to the simulator.  The benchmark verifies all
three on every worker count and fails if any diverges -- that check is
the whole point of ``--smoke`` (the CI gate), which runs tiny sizes
where wall-clock numbers mean nothing.

Real speedup needs real cores: the acceptance gate (>= 2x over the
sequential baseline on 4 workers) is enforced only when the host
actually exposes >= 4 usable CPUs (``os.sched_getaffinity``).  On
smaller hosts the numbers are still measured and recorded -- with
``host.cpus`` and a caveat in the JSON so a reader (or CI on a bigger
runner) can interpret them -- but a 1-core container cannot physically
demonstrate parallel speedup and the gate would only measure the
scheduler.

Output: ``benchmarks/results/PARALLEL.txt`` (human table) and
``benchmarks/results/BENCH_parallel.json`` (see docs/performance.md
for the schema).
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
from repro.baselines.sequential import jacobi_sequential
from repro.lang import DistArray
from repro.tensor.jacobi import build_jacobi_loop


SPEEDUP_TARGET = 2.0
GATE_WORKERS = 4


def _trace_sig(trace):
    """Everything the two backends must agree on, bit for bit."""
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
        dict(trace.finish_times),
        trace.level,
        dict(trace.mark_counts),
    )


def _time_runs(run_once, reps):
    """Best (min) wall seconds of ``reps`` timed calls (first call warms)."""
    run_once()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_once()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def _jacobi_setup(n, w, f, backend):
    """A compiled Jacobi program on a ``w x 1`` grid, one rank per worker."""
    grid = ProcessorGrid((w, 1))
    X = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="X")
    F = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="F")
    F.from_global(f)
    sess = Session(Machine(n_procs=w), backend=backend)
    prog = repro.compile(build_jacobi_loop(X, F, n, grid), session=sess)
    return sess, prog, X


def _verified_run(sess, prog, X, f, iters):
    """Reset X, run once, return (result, trace signature, accounting)."""
    X.from_global(np.zeros_like(f))
    trace = prog.run(iters=iters)
    return (
        X.to_global().copy(),
        _trace_sig(trace),
        sess.plans.kind_stats()["doall"],
    )


def run(smoke=False):
    if smoke:
        reps, n, iters, worker_counts = 2, 24, 8, (2, 4)
    else:
        reps, n, iters, worker_counts = 3, 64, 30, (2, 4, 8)

    cpus = host_info()["cpus"]
    rng = np.random.default_rng(21)
    f = 1e-3 * rng.standard_normal((n + 1, n + 1))

    seq_result = [None]

    def seq_once():
        seq_result[0] = jacobi_sequential(f, iters)

    sequential_s = _time_runs(seq_once, reps)

    rows = {}
    all_identical = True
    for w in worker_counts:
        sim_sess, sim_prog, sim_X = _jacobi_setup(n, w, f, None)
        sim_s = _time_runs(lambda: sim_prog.run(iters=iters), reps)
        sim_out, sim_sig, sim_acct = _verified_run(sim_sess, sim_prog, sim_X, f, iters)

        mp_sess, mp_prog, mp_X = _jacobi_setup(n, w, f, "multiprocessing")
        par_s = _time_runs(lambda: mp_prog.run(iters=iters), reps)
        mp_out, mp_sig, mp_acct = _verified_run(mp_sess, mp_prog, mp_X, f, iters)
        mp_sess._mp_backend.close()

        identical_results = bool(np.array_equal(sim_out, mp_out))
        identical_traces = sim_sig == mp_sig
        identical_accounting = sim_acct == mp_acct
        # the distributed sweep is the same vectorized arithmetic as the
        # Listing-1 baseline, evaluated over partitioned index boxes, so
        # it agrees to rounding, not bitwise
        matches_baseline = bool(np.allclose(sim_out, seq_result[0]))
        all_identical = all_identical and identical_results and \
            identical_traces and identical_accounting and matches_baseline
        rows[str(w)] = {
            "simulator_s": sim_s,
            "parallel_s": par_s,
            "speedup_vs_sequential": sequential_s / par_s,
            "speedup_vs_simulator": sim_s / par_s,
            "identical_results": identical_results,
            "identical_traces": identical_traces,
            "identical_accounting": identical_accounting,
            "matches_sequential_baseline": matches_baseline,
        }

    gate_enforced = (not smoke) and cpus >= GATE_WORKERS
    gate_row = rows.get(str(GATE_WORKERS))
    gate_passed = (
        gate_row is not None
        and gate_row["speedup_vs_sequential"] >= SPEEDUP_TARGET
        if gate_enforced else None
    )
    payload = {
        "experiment": "PARALLEL",
        "mode": "smoke" if smoke else "full",
        "reps": reps,
        "n": n,
        "iters": iters,
        "sequential_s": sequential_s,
        "workers": rows,
        "all_identical": all_identical,
        "gate": {
            "speedup_target": SPEEDUP_TARGET,
            "workers": GATE_WORKERS,
            "enforced": gate_enforced,
            "passed": gate_passed,
            "reason": (
                "bit-identity only (smoke mode)" if smoke else
                f"host exposes {cpus} usable CPU(s); real parallel speedup "
                f"needs >= {GATE_WORKERS} cores, so only bit-identity is "
                "gated on this host" if not gate_enforced else
                f"host has {cpus} usable CPUs; speedup gate enforced"
            ),
        },
        "notes": (
            "speedup_vs_sequential = Listing-1 numpy baseline seconds / "
            "multiprocessing-backend seconds for one steady-state replayed "
            "run (plans frozen, worker pool warm).  Results, traces, and "
            "schedule accounting are compared bit-for-bit against the "
            "event-driven simulator on every worker count; the committed "
            "numbers are honest for the recorded host -- on a single-CPU "
            "container the workers time-share one core, so wall-clock "
            "speedup is not expected there."
        ),
    }
    json_path = write_json("parallel", payload)

    lines = [
        f"host: {cpus} usable CPU(s); sequential baseline "
        f"{sequential_s * 1e3:.2f} ms (n={n}, iters={iters})",
        f"{'workers':<8} {'sim ms':>9} {'parallel ms':>12} "
        f"{'vs seq':>7} {'vs sim':>7}  identical",
    ]
    for w, r in rows.items():
        ok = (r["identical_results"] and r["identical_traces"]
              and r["identical_accounting"])
        lines.append(
            f"{w:<8} {r['simulator_s'] * 1e3:>9.2f} "
            f"{r['parallel_s'] * 1e3:>12.2f} "
            f"{r['speedup_vs_sequential']:>6.2f}x "
            f"{r['speedup_vs_simulator']:>6.2f}x  {ok}"
        )
    lines.append(
        f"gate ({SPEEDUP_TARGET}x on {GATE_WORKERS} workers): "
        + ("PASS" if gate_passed else
           "FAIL" if gate_passed is False else
           f"not enforced -- {payload['gate']['reason']}")
    )
    lines.append(f"json: {os.path.relpath(json_path)}")
    report("PARALLEL", "real parallel speedup, multiprocessing backend", lines,
           mode=payload["mode"])

    ok = all_identical
    if not ok:
        print("SMOKE FAIL: multiprocessing backend diverged from the "
              "simulator (results, trace, or accounting)", file=sys.stderr)
    if gate_enforced and not gate_passed:
        print(f"FAIL: < {SPEEDUP_TARGET}x over sequential on "
              f"{GATE_WORKERS} workers with {cpus} CPUs", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv))
