"""MORPH -- the elastic morph drill: timing and bit-identity gate.

``repro.elastic`` claims that a session can checkpoint, lose ranks,
restore, *shrink* onto the survivors, later *re-grow* -- and that the
final results and the final-grid run trace are bit-identical to a run
that was never interrupted.  This benchmark times each leg of that
drill on the Jacobi steady-state workload and enforces the identity
claim as a hard gate (that check is the whole point of ``--smoke``,
the CI step, which runs a size where wall-clock numbers mean
nothing):

* ``checkpoint`` / ``restore``  -- host-side snapshot + re-instate;
* ``morph shrink`` / ``morph grow`` -- quiesce backends, repartition
  every live array between the grids, retarget + re-freeze the plans;
* ``second cycle``              -- the same shrink/re-grow pair again,
  which must *replay* its inter-grid repartition schedules from cache
  (zero new misses -- the compile-once/replay-forever property applied
  to elasticity; gated).

Output: ``benchmarks/results/MORPH.txt`` (human table) and
``benchmarks/results/BENCH_morph.json``.
"""

import os
import sys
import time

import numpy as np

try:
    from benchmarks._report import report, write_json
except ModuleNotFoundError:  # invoked as a script: python benchmarks/bench_...
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks._report import report, write_json

import repro
from repro import Machine, ProcessorGrid, Session



def _trace_sig(trace):
    """Everything the morphed and uninterrupted runs must agree on."""
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


def _jacobi_src(n):
    return f"""
processors procs(4)
real X(0:{n - 1}, 0:{n - 1}) dist (block, *)
real F(0:{n - 1}, 0:{n - 1}) dist (block, *)
doall (i, j) = [1, {n - 2}] * [1, {n - 2}] on owner(X(i, j))
  X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - F(i, j)
end doall
"""


def _fresh(n):
    sess = Session(Machine(n_procs=4))
    prog = repro.compile(_jacobi_src(n), session=sess)
    return sess, prog


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run(smoke=False):
    n, warm, mid, tail = (18, 2, 2, 2) if smoke else (48, 4, 4, 4)
    g4, g2 = ProcessorGrid((4,)), ProcessorGrid((2,))
    rng = np.random.default_rng(11)
    f = 1e-3 * rng.standard_normal((n, n))

    # the uninterrupted reference: same sweep totals, never morphed
    ref_sess, ref_prog = _fresh(n)
    ref_prog.run(X=np.zeros((n, n)), F=f, iters=warm)
    ref_prog.run(iters=mid)
    t_ref = ref_prog.run(iters=tail)
    want = ref_prog.arrays["X"].to_global().copy()

    # the drill: warm -> checkpoint -> restore -> shrink -> grow
    sess, prog = _fresh(n)
    prog.run(X=np.zeros((n, n)), F=f, iters=warm)
    checkpoint_s, ck = _timed(sess.checkpoint)
    nbytes = len(ck.to_bytes())
    restore_s, _ = _timed(lambda: sess.restore(ck))
    shrink_s, _ = _timed(lambda: sess.morph(g2))
    prog.run(iters=mid)
    grow_s, _ = _timed(lambda: sess.morph(g4))
    t_final = prog.run(iters=tail)
    got = prog.arrays["X"].to_global().copy()

    identical_results = bool(np.array_equal(got, want))
    identical_traces = _trace_sig(t_final) == _trace_sig(t_ref)

    # second shrink/re-grow cycle: must replay repartitions from cache
    before = dict(sess.plans.kind_stats()["repartition"])
    shrink2_s, _ = _timed(lambda: sess.morph(g2))
    grow2_s, _ = _timed(lambda: sess.morph(g4))
    after = sess.plans.kind_stats()["repartition"]
    cycle_replayed = (after["misses"] == before["misses"]
                      and after["hits"] > before["hits"])

    gates = {
        "identical_results": identical_results,
        "identical_traces": identical_traces,
        "second_cycle_replays_repartitions": cycle_replayed,
    }
    payload = {
        "experiment": "MORPH",
        "mode": "smoke" if smoke else "full",
        "n": n,
        "sweeps": {"warm": warm, "mid": mid, "tail": tail},
        "grids": {"full": [4], "shrunk": [2]},
        "checkpoint_s": checkpoint_s,
        "checkpoint_nbytes": nbytes,
        "restore_s": restore_s,
        "morph_shrink_s": shrink_s,
        "morph_grow_s": grow_s,
        "morph_shrink_replay_s": shrink2_s,
        "morph_grow_replay_s": grow2_s,
        "gates": gates,
        "notes": (
            "The drill: warm sweeps on procs(4), checkpoint + restore, "
            "morph to procs(2), sweep, morph back to procs(4), sweep.  "
            "Gated (in smoke and full modes alike): final results and the "
            "final-grid run trace bit-identical to an uninterrupted "
            "procs(4) session with the same sweep totals, and a second "
            "shrink/re-grow cycle replaying its inter-grid repartition "
            "schedules with zero new misses.  The *_replay_s times are "
            "that second, all-hit cycle."
        ),
    }
    json_path = write_json("morph", payload)

    lines = [
        f"n={n}, sweeps warm/mid/tail = {warm}/{mid}/{tail}, "
        f"grids procs(4) <-> procs(2)",
        f"{'leg':<22} {'ms':>9}",
        f"{'checkpoint':<22} {checkpoint_s * 1e3:>9.2f}   "
        f"({nbytes / 1024:.1f} KiB)",
        f"{'restore':<22} {restore_s * 1e3:>9.2f}",
        f"{'morph shrink (cold)':<22} {shrink_s * 1e3:>9.2f}",
        f"{'morph grow (cold)':<22} {grow_s * 1e3:>9.2f}",
        f"{'morph shrink (replay)':<22} {shrink2_s * 1e3:>9.2f}",
        f"{'morph grow (replay)':<22} {grow2_s * 1e3:>9.2f}",
        "gates: " + ", ".join(
            f"{k}={'PASS' if v else 'FAIL'}" for k, v in gates.items()
        ),
        f"json: {os.path.relpath(json_path)}",
    ]
    report("MORPH", "elastic morph drill: timing and bit-identity", lines,
           mode=payload["mode"])

    ok = all(gates.values())
    if not ok:
        failed = [k for k, v in gates.items() if not v]
        print(f"SMOKE FAIL: morph drill gate(s) failed: {', '.join(failed)}",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv))
