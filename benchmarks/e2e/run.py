#!/usr/bin/env python3
"""bench_e2e: the repo's one layered end-to-end benchmark.

One run of one workload (what the driver of ``BENCHMARK.json`` calls)::

    python3 benchmarks/e2e/run.py --workload jacobi_small --seed 11 --seconds 10 --trace 0

prints every end-to-end metric by name and unit and ends with one JSON
line; ``--trace 1`` is the separate traced pass that prints the
per-layer metrics instead.  Without ``--workload`` the script runs a
*set*: ``--rounds`` rounds, round-robin over all workloads so that slow
host drift hits them equally, each run in its own fresh subprocess,
reduced to medians and quartiles::

    python3 benchmarks/e2e/run.py                # full set  -> results/set_local.json
    python3 benchmarks/e2e/run.py --trace        # traced pass -> results/trace_<workload>.json
    python3 benchmarks/e2e/run.py --smoke        # tiny sizes, writes to a temp dir only

See README.md beside this file for the metric glossary and how the
layer metrics are expected to move the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench_e2e: no program to measure: {SRC}/repro is missing "
             "(run from a source checkout)")
sys.path[:0] = [HERE, SRC]

import harness as hz  # noqa: E402
import layers  # noqa: E402
import probes  # noqa: E402
import workloads as wl  # noqa: E402

perf = time.perf_counter

RESULTS_DIR = os.path.join(HERE, "results")
DEFAULT_SEED = 11
#: a window is cut into this many slices (tput_vs_seq is a median over them)
SLICES = 24
WARMUP_SHARE = 0.1
#: how a traced run splits ``--seconds`` (the probes take the rest)
UNTRACED_SHARE, TRACED_SHARE = 0.2, 0.45
#: spans kept per trace file (every op is in the profile; the file stays small)
SPAN_OPS_KEPT = 30
DETAIL = "DETAIL "

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}


# ----------------------------------------------------------------------
# One timed run of one workload
# ----------------------------------------------------------------------


def measure(spec: wl.Spec, seed: int, seconds: float) -> tuple[hz.Ledger, list[str]]:
    """Warm up, then ``seconds`` of paired ops with cold starts spread through."""
    audit = hz.LeakAudit()
    inputs = wl.inputs_for(spec, seed)
    ledger = hz.Ledger()
    inst = wl.build(spec, inputs)
    try:
        k = inst.run_slice(hz.Ledger(), 0, WARMUP_SHARE * seconds)
        start = perf()
        cold_due = [start + (i + 0.5) * seconds / spec.cold_reps for i in range(spec.cold_reps)]
        while perf() - start < seconds:
            if cold_due and perf() >= cold_due[0]:
                cold_due.pop(0)
                wl.cold_rep(spec, inputs, k, ledger)
            k = inst.run_slice(ledger, k, seconds / SLICES)
    finally:
        inst.close()
    return ledger, audit.leaked()


def report_failures(name: str, ledger: hz.Ledger, leaks: list[str]) -> None:
    for leak in leaks:
        print(f"LEAK {name}: {leak}")
    if leaks:  # a leak taints every op of the workload
        ledger.failures = [f"leaked {', '.join(leaks)}"] * ledger.attempted
    for what in sorted(set(ledger.failures)):
        print(f"FAIL {name}: {what} (x{ledger.failures.count(what)})")


def run_timed(spec: wl.Spec, seed: int, seconds: float) -> dict:
    ledger, leaks = measure(spec, seed, seconds)
    report_failures(spec.name, ledger, leaks)
    ops = ledger.op_seconds()
    measured = {
        "vs_seq": (ledger.vs_seq, len(ops)),
        "tput_vs_seq": (ledger.tput_vs_seq, len(ledger.slices)),
        "setup_s": (lambda: hz.median(ledger.setup_s), len(ledger.setup_s)),
        "peak_rss_mb": (hz.peak_rss_mb, 1),
    }
    # nothing verified means nothing to report a median of: the run has failed
    values = {n: (fn() if count else 0.0) for n, (fn, count) in measured.items()}
    time_shared = spec.backend == "multiprocessing" and hz.usable_cpus() < 2
    for name, value in values.items():
        note = "  [time-shared: < 2 usable CPUs]" if time_shared and name != "peak_rss_mb" else ""
        print(f"{spec.name:<13} {name:<12} {value:>12.5g} {END_TO_END[name]['unit']:<6} "
              f"n={measured[name][1]}{note}")
    print(f"{spec.name:<13} {'fail_frac':<12} {ledger.fail_frac():>12.5g} {'frac':<6} "
          f"n={ledger.attempted}")
    raw = {
        "session.op_s": hz.median(ops) if ops else None,
        "baselines.seq_op_s": hz.median(ledger.seq_seconds()) if ops else None,
        "session.ops": len(ops),
    }
    print(f"{spec.name:<13} raw (not gated): " + " ".join(f"{k}={v}" for k, v in raw.items()))
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {n: {"value": v, "unit": END_TO_END[n]["unit"]} for n, v in values.items()},
        "samples": {n: count for n, (_, count) in measured.items()},
        "raw": raw,
        "time_shared": time_shared,
    }


# ----------------------------------------------------------------------
# One traced run of one workload
# ----------------------------------------------------------------------


def run_traced(spec: wl.Spec, seed: int, seconds: float, smoke: bool,
               out_dir: str | None) -> dict:
    """Probes and an untraced window first, then the same ops under the tracer."""
    audit = hz.LeakAudit()
    inputs = wl.inputs_for(spec, seed)
    values: dict = {}
    reasons: dict = {}
    ledger = hz.Ledger()

    probes.fixed_probes(smoke, values, reasons)
    inst = wl.build(spec, inputs)
    try:
        inst.run_slice(ledger, 0, WARMUP_SHARE * seconds)
        window, untraced = probes.op_window(inst, UNTRACED_SHARE * seconds)
        values.update(window)
        probes.scoped_probes(inst, spec, inputs, values, reasons)
    finally:
        inst.close()

    tracer = layers.Tracer()
    tracer.watch_new_threads()  # before the program starts any thread of its own
    traced = hz.Ledger()
    inst = None
    try:
        inst = wl.build(spec, inputs)
        k = inst.run_slice(ledger, 0, WARMUP_SHARE * seconds)
        tracer.activate()
        start = perf()
        while perf() - start < TRACED_SHARE * seconds:
            k = inst.run_slice(traced, k, TRACED_SHARE * seconds / 6, tracer)
    finally:
        tracer.unwatch_new_threads()
        if inst is not None:
            inst.close()  # joins the program's threads: their profiles are complete
    for part in (untraced, traced):
        ledger.attempted += part.attempted
        ledger.failures += part.failures
    report_failures(spec.name, ledger, audit.leaked())

    table = tracer.layer_table()
    ops = max(1, len(tracer.op_seconds))
    for label in layers.LAYERS:
        seconds_, calls = table["layers"][label]
        values[f"{label}.self_s"] = seconds_ / ops
        values[f"{label}.calls"] = calls / ops
    values["other.self_s"] = table["layers"][layers.OTHER][0] / ops
    values["machine.mpbackend.parent_wait_s"] = table["parent_wait_s"] / ops
    traced_total = sum(tracer.op_seconds)
    if tracer.op_seconds and values.get("session.op_s"):
        values["trace.overhead_ratio"] = hz.median(tracer.op_seconds) / values["session.op_s"]
    reconcile = table["total_s"] / traced_total if traced_total else None

    shares = sorted(
        ((t / table["total_s"], label) for label, (t, _) in table["layers"].items() if t > 0),
        reverse=True,
    ) if table["total_s"] else []
    print(f"{spec.name}: {len(tracer.op_seconds)} traced ops, self times / traced op time = "
          f"{reconcile}, layers by self time:")
    for share, label in shares[:8]:
        print(f"  {label:<22} {100 * share:5.1f} %")
    for note in tracer.notes:
        print(f"NOTE {spec.name}: {note}")
    for name in PER_LAYER:
        value = values.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{spec.name:<13} {name:<34} {shown:>12} {PER_LAYER[name]['unit']}")
    for probe, why in reasons.items():
        print(f"NULL {spec.name}: probe {probe}: {why}")

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        # the driver's line must be numeric: a probe without a value prints as 0
        # there; the lines above and the trace file say null and why
        "metrics": {n: {"value": values.get(n) or 0, "unit": PER_LAYER[n]["unit"]}
                    for n in PER_LAYER},
    }
    if out_dir is not None:
        t0 = min((s["start"] for s in tracer.spans), default=0.0)
        kept = [dict(s, start=round(s["start"] - t0, 6), end=round(s["end"] - t0, 6))
                for s in tracer.spans if s["op"] < SPAN_OPS_KEPT]
        write_json(os.path.join(out_dir, f"trace_{spec.name}.json"), {
            "benchmark": "bench_e2e", "kind": "trace", "mode": "smoke" if smoke else "full",
            "workload": spec.name, "why": spec.why, "seed": seed, "seconds": seconds,
            "host": hz.host_info(), "git_commit": git_commit(),
            "traced_ops": len(tracer.op_seconds),
            "traced_op_seconds_total": traced_total,
            "self_seconds_total": table["total_s"],
            "self_over_traced": reconcile,
            "layer_share": {label: share for share, label in shares},
            "per_layer": {n: {"value": values.get(n), "unit": PER_LAYER[n]["unit"]}
                          for n in PER_LAYER},
            "null_probes": reasons,
            "notes": tracer.notes,
            "attempted": ledger.attempted, "failed": len(ledger.failures),
            "spans_kept_ops": SPAN_OPS_KEPT, "spans_total": len(tracer.spans),
            "spans": kept,
            "claim": None,
        })
    return result


# ----------------------------------------------------------------------
# A set: rounds x workloads, each run a fresh subprocess
# ----------------------------------------------------------------------


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def child_run(name: str, seed: int, seconds: float, trace: int, smoke: bool,
              out_dir: str | None) -> tuple[dict | None, float]:
    """One ``--workload`` run in a fresh interpreter; returns its detail record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--detail"]
    if smoke:
        cmd.append("--smoke")
    if out_dir is not None:
        cmd += ["--out", out_dir]
    t0 = perf()
    # its own process group, so that a run that hangs is stopped with its workers
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=180)
    except BaseException:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        raise
    wall = perf() - t0
    detail = None
    for line in stdout.splitlines():
        if line.startswith(DETAIL):
            detail = json.loads(line[len(DETAIL):])
        else:
            print(line)
    if detail is None:
        print(f"FAIL {name}: run printed no result (exit {child.returncode})\n{stderr}")
    return detail, wall


def run_set(args, out_dir: str) -> int:
    names = list(wl.SPECS)
    runs: dict[str, list[dict]] = {n: [] for n in names}
    walls: list[float] = []
    broken = False
    t0 = perf()
    for rnd in range(args.rounds):
        for name in names:
            detail, wall = child_run(name, args.seed + rnd, args.seconds, 0, args.smoke, None)
            walls.append(wall)
            if detail is None:
                broken = True
            else:
                runs[name].append(detail)
    payload = {
        "benchmark": "bench_e2e", "kind": "set", "mode": "smoke" if args.smoke else "full",
        "host": hz.host_info(), "git_commit": git_commit(), "seed": args.seed,
        "window_seconds": args.seconds, "rounds": args.rounds,
        "wall_seconds": perf() - t0, "slowest_run_seconds": max(walls),
        "bounds": {n: m["bound"] for n, m in END_TO_END.items()},
        "workloads": {},
    }
    print(f"\n{'workload':<13} {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} unit   samples")
    for name in names:
        rounds = runs[name]
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        row = {"why": wl.SPECS[name].why, "attempted": attempted, "failed": failed,
               "fail_frac": failed / max(1, attempted), "metrics": {}, "raw": {}}
        skipped = any(r["time_shared"] for r in rounds)
        for metric, meta in END_TO_END.items():
            if skipped and metric != "peak_rss_mb":
                # never a silently time-shared number: counts only
                row["metrics"][metric] = {"unit": meta["unit"], "median": "skipped",
                                          "reason": "< 2 usable CPUs for 2 workers"}
                continue
            vals = [r["metrics"][metric]["value"] for r in rounds]
            if not vals:
                continue
            q1, med, q3 = hz.quartiles(vals)
            samples = [r["samples"][metric] for r in rounds]
            row["metrics"][metric] = {"unit": meta["unit"], "median": med, "q1": q1, "q3": q3,
                                      "values": vals, "samples": samples}
            print(f"{name:<13} {metric:<12} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{meta['unit']:<6} {samples}")
        for key in ("session.op_s", "baselines.seq_op_s", "session.ops"):
            row["raw"][key] = [r["raw"][key] for r in rounds]
        print(f"{name:<13} {'fail_frac':<12} {row['fail_frac']:>11.5g} {'':>11} {'':>11} "
              f"{'frac':<6} {attempted}")
        payload["workloads"][name] = row
        broken = broken or failed > 0
    payload["claim"] = None
    write_json(os.path.join(out_dir, f"set_{args.tag}.json"), payload)
    print(f"set of {args.rounds} round(s) x {len(names)} workloads: "
          f"{payload['wall_seconds']:.1f} s wall, slowest run {max(walls):.1f} s")
    return 1 if broken else 0


def run_trace_pass(args, out_dir: str) -> int:
    broken = False
    for name in wl.SPECS:
        detail, _ = child_run(name, args.seed, args.seconds, 1, args.smoke, out_dir)
        broken = broken or detail is None or not detail["correct"]
    return 1 if broken else 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(wl.SPECS),
                    help="run this one workload in this process (the driver's form)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"window per run (default {CONTRACT['run_seconds']}, smoke 1)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; writes only to --out or a temp dir")
    ap.add_argument("--rounds", type=int, default=None,
                    help="rounds of a set (default 10, as the driver runs; smoke 1)")
    ap.add_argument("--out", help="directory for result files "
                    "(default: results/ beside this file; a temp dir with --smoke)")
    ap.add_argument("--tag", default="local", help="a set is written to set_<tag>.json")
    ap.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(CONTRACT["run_seconds"])
    if args.rounds is None:
        args.rounds = 1 if args.smoke else 10

    if args.workload:
        spec = wl.SPECS[args.workload].sized(args.smoke)
        signal.signal(signal.SIGTERM, _terminated)  # so that the finally below runs
        try:
            if args.trace:
                result = run_traced(spec, args.seed, args.seconds, args.smoke, args.out)
            else:
                result = run_timed(spec, args.seed, args.seconds)
        finally:
            # no process of this run outlives it, on any path out
            killed = hz.stop_children()
        if killed:  # the leak audit missed them: no op of this run counts
            print(f"LEAK {spec.name}: still running at exit, killed: pids {killed}")
            result.update(correct=False, failed=result["attempted"])
        if args.detail:  # what a set's parent process reads back
            print(DETAIL + json.dumps(result))
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    out_dir = args.out
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="bench_e2e_") if args.smoke else RESULTS_DIR
    return run_trace_pass(args, out_dir) if args.trace else run_set(args, out_dir)


if __name__ == "__main__":
    sys.exit(main())
