"""RESILIENCE -- the self-healing drill: supervised recovery gates.

``repro.supervise`` claims a supervised run survives killed workers
with results bit-identical to an uninterrupted run, resuming each retry
from the latest mid-run checkpoint (never sweep 0), at a bounded
checkpointing cost.  This benchmark drills that claim unattended on
**both** backends and enforces it as hard gates (the ``--smoke`` CI
step runs a small size where wall-clock numbers mean nothing; the gates
are the point):

* multiprocessing drill -- ``repro.faults.kill_rank`` kills two ranks
  at worker sweep K, twice (each respawned pool restarts its sweep
  counter, so the same armed fault fires again K sweeps into the
  retry); the Supervisor must absorb both kills and finish;
* simulator drill -- a flaky backend wrapper tears scheduled run legs
  *after* mutating state, so bit-identity proves the checkpoint was
  actually restored;
* overhead -- a supervised fault-free run vs. the plain run on the
  simulator, both warm, bounds what mid-run checkpoints cost
  (``overhead_factor``, the median ratio of ``OVERHEAD_REPS`` timed
  pairs, ``<= OVERHEAD_BOUND``).

Output: ``benchmarks/results/RESILIENCE.txt`` (human table) and
``benchmarks/results/BENCH_resilience.json``.
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
from repro import Machine, MachineError, Session, Supervisor, SupervisorPolicy, faults
from repro.machine.backend import Backend


#: a supervised fault-free run may cost at most this many times the
#: plain uninterrupted run (mid-run checkpoints are per-array diffs +
#: a data copy per leg; the bound is deliberately generous because the
#: smoke sizes run legs of microseconds)
OVERHEAD_BOUND = 5.0
#: timed (plain, supervised) pairs behind ``overhead_factor`` (their median)
OVERHEAD_REPS = 5


def _jacobi_src(n):
    return f"""
processors procs(4)
real X(0:{n - 1}, 0:{n - 1}) dist (block, *)
real F(0:{n - 1}, 0:{n - 1}) dist (block, *)
doall (i, j) = [1, {n - 2}] * [1, {n - 2}] on owner(X(i, j))
  X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - F(i, j)
end doall
"""


def _fresh(n, backend=None):
    sess = Session(Machine(n_procs=4), backend=backend)
    prog = repro.compile(_jacobi_src(n), session=sess)
    return sess, prog


def _policy(**kw):
    kw.setdefault("backoff_base", 0.005)
    kw.setdefault("jitter", 0.0)
    kw.setdefault("seed", 0)
    return SupervisorPolicy(**kw)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


class _FlakyBackend(Backend):
    """Simulator delegate tearing scheduled run legs (state mutated,
    then ``MachineError``) -- the deterministic twin of a killed rank."""

    def __init__(self, machine, fail_on):
        self.machine = machine
        self.topology = machine.topology
        self.cost = machine.cost
        self.fail_on = set(fail_on)
        self.calls = 0

    def run(self, programs, ranks=None):
        call = self.calls
        self.calls += 1
        trace = self.machine.run(programs, ranks)
        if call in self.fail_on:
            err = MachineError(f"flaky backend: injected failure #{call}")
            err.failed_ranks = (1,)
            raise err
        return trace


def run(smoke=False):
    n, iters, every, kill_sweep = (18, 8, 2, 3) if smoke else (48, 16, 2, 3)
    rng = np.random.default_rng(11)
    f = 1e-3 * rng.standard_normal((n, n))
    x0 = np.zeros((n, n))

    # the uninterrupted reference (simulator = the reference semantics)
    ref_sess, ref_prog = _fresh(n)
    ref_prog.run(X=x0, F=f, iters=iters)
    want = ref_prog.arrays["X"].to_global().copy()

    # -- drill 1: multiprocessing backend, two real rank kills ----------
    mp_sess, mp_prog = _fresh(n, backend="multiprocessing")
    sup_mp = Supervisor(mp_sess, _policy(max_retries=4))
    completed_mp = identical_mp = False
    mp_s, recoveries_mp, resumed_mp = 0.0, 0, False
    try:
        with faults.kill_rank((1, 2), sweep=kill_sweep, times=2) as fault:
            mp_s, _ = _timed(lambda: sup_mp.run(
                mp_prog, X=x0, F=f, iters=iters, checkpoint_every=every,
            ))
        completed_mp = True
        identical_mp = bool(np.array_equal(
            mp_prog.arrays["X"].to_global(), want
        ))
        recoveries_mp = sup_mp.log.retries
        # every retry resumed from a checkpointed cursor, never sweep 0
        resumed_mp = (len(fault.fired) == 2
                      and all(e.sweep > 0 for e in sup_mp.log))
    finally:
        mp_sess.close_backend()

    # -- drill 2: simulator backend, torn legs ---------------------------
    sim_sess, sim_prog = _fresh(n)
    flaky = _FlakyBackend(sim_sess.machine, fail_on={1, 3})
    sup_sim = Supervisor(sim_sess, _policy(max_retries=4))
    sim_s, _ = _timed(lambda: sup_sim.run(
        sim_prog, X=x0, F=f, iters=iters, checkpoint_every=every,
        backend=flaky,
    ))
    identical_sim = bool(np.array_equal(
        sim_prog.arrays["X"].to_global(), want
    ))
    recoveries_sim = sup_sim.log.retries
    resumed_sim = (recoveries_sim == 2
                   and all(e.sweep > 0 for e in sup_sim.log))

    # -- overhead: supervised fault-free vs. plain (simulator) -----------
    # both sides are warm (the reference run above, one untimed call
    # here): a first call pays compile and the trace oracle's one-off
    # simulation, which is not what supervision costs
    ovh_sess, ovh_prog = _fresh(n)
    sup_ovh = Supervisor(ovh_sess, _policy())

    def plain_once():
        ref_prog.run(X=x0, F=f, iters=iters)

    def supervised_once():
        sup_ovh.run(ovh_prog, X=x0, F=f, iters=iters, checkpoint_every=every)

    supervised_once()
    pairs = [(_timed(plain_once)[0], _timed(supervised_once)[0])
             for _ in range(OVERHEAD_REPS)]
    identical_ovh = bool(np.array_equal(
        ovh_prog.arrays["X"].to_global(), want
    ))
    plain_s, supervised_s = (float(t) for t in np.median(pairs, axis=0))
    overhead_ratios = [s / p for p, s in pairs]
    overhead_factor = float(np.median(overhead_ratios))

    gates = {
        "mp_run_completed": completed_mp,
        "mp_results_bit_identical": identical_mp,
        "mp_resumed_from_checkpoint": resumed_mp,
        "mp_recovered_twice": recoveries_mp == 2,
        "sim_results_bit_identical": identical_sim,
        "sim_resumed_from_checkpoint": resumed_sim,
        "supervised_faultfree_bit_identical": identical_ovh,
        "overhead_bounded": overhead_factor <= OVERHEAD_BOUND,
        "no_degradations": (sup_mp.log.degradations == 0
                            and sup_sim.log.degradations == 0),
    }
    payload = {
        "experiment": "RESILIENCE",
        "mode": "smoke" if smoke else "full",
        "n": n,
        "iters": iters,
        "checkpoint_every": every,
        "kill_sweep": kill_sweep,
        "recoveries": {"mp": recoveries_mp, "sim": recoveries_sim},
        "recovery_log_mp": [e.as_dict() for e in sup_mp.log],
        "recovery_log_sim": [e.as_dict() for e in sup_sim.log],
        "plain_run_s": plain_s,
        "supervised_faultfree_s": supervised_s,
        "supervised_mp_faulted_s": mp_s,
        "supervised_sim_faulted_s": sim_s,
        "overhead_factor": overhead_factor,
        "overhead_ratios": overhead_ratios,
        "overhead_bound": OVERHEAD_BOUND,
        "gates": gates,
        "notes": (
            "The drill: an iters-sweep Jacobi run under the Supervisor "
            "with incremental checkpoints every `checkpoint_every` "
            "sweeps.  On the multiprocessing backend, repro.faults kills "
            "ranks (1, 2) at worker sweep `kill_sweep` twice (the armed "
            "fault re-fires in the respawned pool); on the simulator, a "
            "flaky wrapper tears two run legs after mutating state.  "
            "Gated: both drills finish bit-identical to the "
            "uninterrupted reference, every retry resumes from a "
            "checkpointed sweep cursor > 0, and a fault-free supervised "
            "run costs at most OVERHEAD_BOUND x the plain run."
        ),
    }
    json_path = write_json("resilience", payload)

    lines = [
        f"n={n}, iters={iters}, checkpoint_every={every}, "
        f"kill at worker sweep {kill_sweep} (x2)",
        f"{'leg':<28} {'ms':>9}",
        f"{'plain run (simulator)':<28} {plain_s * 1e3:>9.2f}",
        f"{'supervised, fault-free':<28} {supervised_s * 1e3:>9.2f}   "
        f"(x{overhead_factor:.2f} <= x{OVERHEAD_BOUND:.1f})",
        f"{'supervised, 2 mp kills':<28} {mp_s * 1e3:>9.2f}   "
        f"({recoveries_mp} recoveries)",
        f"{'supervised, 2 torn sim legs':<28} {sim_s * 1e3:>9.2f}   "
        f"({recoveries_sim} recoveries)",
        "gates: " + ", ".join(
            f"{k}={'PASS' if v else 'FAIL'}" for k, v in gates.items()
        ),
        f"json: {os.path.relpath(json_path)}",
    ]
    report("RESILIENCE", "self-healing drill: supervised recovery gates",
           lines, mode=payload["mode"])

    ok = all(gates.values())
    if not ok:
        failed = [k for k, v in gates.items() if not v]
        print("SMOKE FAIL: resilience drill gate(s) failed: "
              + ", ".join(failed), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv))
