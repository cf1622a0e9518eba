"""Tests of the benchmark's own plumbing (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import repro  # noqa: E402
from repro.baselines.sequential import jacobi_sequential  # noqa: E402

import compare  # noqa: E402
import harness as hz  # noqa: E402
import layers  # noqa: E402
import probes  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)

SMOKE = {name: spec.sized(True) for name, spec in wl.SPECS.items()}


# -- inputs and references ------------------------------------------------


def test_same_seed_same_bytes_other_seed_other_bytes():
    a = hz.make_inputs(11, (9, 9))
    b = hz.make_inputs(11, (9, 9))
    c = hz.make_inputs(12, (9, 9))
    assert len(a) == hz.POOL_SIZE
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    assert all(x.tobytes() != y.tobytes() for x, y in zip(a, c))


def test_jacobi_reference_matches_the_repo_baseline():
    f = hz.make_inputs(3, (17, 17))[0]
    assert np.array_equal(hz.jacobi_numpy(f, 7), jacobi_sequential(f, 7))


def test_rowsmooth_reference_against_a_scalar_loop():
    u0, f = hz.make_inputs(4, (6, 7))[:2]
    expect = u0.copy()
    for _ in range(3):
        old = expect.copy()
        for i in range(1, 5):
            for j in range(1, 6):
                expect[i, j] = 0.5 * (old[i, j - 1] + old[i, j + 1]) - f[i, j]
    assert np.allclose(hz.rowsmooth_numpy(u0, f, 3), expect, rtol=1e-13, atol=0)


@pytest.mark.parametrize("name", ["jacobi_small", "flip_churn", "batch8", "serve_closed"])
def test_every_workload_op_matches_its_reference(name):
    spec = SMOKE[name]
    inst = wl.build(spec, wl.inputs_for(spec, 5))
    try:
        _, out = inst.run_op(2)
        assert hz.matches(out["result"], inst.reference(2))
        assert not hz.matches(out["result"] + 1e-6, inst.reference(2))
    finally:
        inst.close()


# -- failure accounting ---------------------------------------------------


def _one_slice(inst) -> hz.Ledger:
    ledger = hz.Ledger()
    inst.run_slice(ledger, 0, 0.0)
    return ledger


def test_corrupted_result_and_injected_exception_count_as_failures():
    spec = SMOKE["jacobi_small"]
    inst = wl.build(spec, wl.inputs_for(spec, 5))
    clean = _one_slice(inst)
    assert (clean.attempted, clean.fail_frac()) == (1, 0.0)

    honest = inst.phases

    def corrupted(k, **how):
        steps, out = honest(k, **how)

        def spoil():
            out["result"][3, 3] += 1e-6

        return steps + [("spoil", spoil)], out

    inst.phases = corrupted
    bad = _one_slice(inst)
    assert (bad.attempted, len(bad.failures), bad.fail_frac()) == (1, 1, 1.0)
    assert not bad.slices[0].pairs  # a failed op contributes no timing

    def raising(k, **how):
        def boom():
            raise RuntimeError("injected")

        return [("session.run", boom)], {}

    inst.phases = raising
    worse = _one_slice(inst)
    assert worse.fail_frac() == 1.0 and "injected" in worse.failures[0]


def test_serve_clients_count_a_raising_request():
    spec = SMOKE["serve_closed"]
    inst = wl.build(spec, wl.inputs_for(spec, 5))
    try:
        def refuse(*args, **kwargs):
            raise repro.ServerOverloadError("injected")

        inst.server.run = refuse
        ledger = hz.Ledger()
        inst.run_slice(ledger, 0, 0.05)
        assert ledger.attempted >= 2 and ledger.fail_frac() == 1.0
    finally:
        inst.close()


def test_leak_audit_sees_a_segment_and_a_child_left_behind():
    audit = hz.LeakAudit()
    assert audit.leaked(settle_s=0.0) == []
    seg = shared_memory.SharedMemory(create=True, size=64)
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        found = audit.leaked(settle_s=0.0)
        assert f"shm:{seg.name.lstrip('/')}" in found and f"pid:{child.pid}" in found
    finally:
        child.kill()
        child.wait()
        seg.close()
        seg.unlink()
    assert audit.leaked(settle_s=1.0) == []


# -- estimators -------------------------------------------------------------


def test_estimators_on_known_data():
    assert hz.median([3, 1, 2]) == 2.0
    assert hz.quartiles([1, 2, 3, 4, 5, 6, 7]) == (2.0, 4.0, 6.0)
    assert hz.quartiles([5]) == (5.0, 5.0, 5.0)
    assert hz.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(1.0)
    assert hz.percentile(range(1, 101), 0.95) == 95.0
    # one slow pair out of three does not move the median ratio
    assert hz.pair_ratio([2.0, 4.0, 30.0], [1.0, 2.0, 3.0]) == 2.0
    assert hz.fit_line([1, 2, 3], [5.0, 7.0, 9.0]) == pytest.approx((3.0, 2.0))


def test_ledger_reduces_slices_to_the_two_ratios():
    ledger = hz.Ledger()
    for op_s in (0.2, 0.4):
        ledger.slices.append(hz.Slice(seq_s=[0.1, 0.1], pairs=[(op_s, 0.1)] * 2,
                                      op_wall_s=2 * op_s + 0.1, ops_done=2))
    ledger.slices.append(hz.Slice(seq_s=[0.1], pairs=[(0.3, 0.1)], op_wall_s=0.4, ops_done=1))
    assert ledger.vs_seq() == pytest.approx(3.0)
    # per slice: (ops / active wall) / (references / reference seconds); gaps included
    assert ledger.tput_vs_seq() == pytest.approx((1 / 0.4) / (1 / 0.1))


def test_compare_verdicts():
    assert compare.verdict([10, 10.2, 9.9], [10.1, 10.0, 10.3], "lower", 0.08)[0] == "within"
    assert compare.verdict([10, 10.2, 9.9], [12.0, 12.1, 11.9], "lower", 0.08)[0] == "worse"
    assert compare.verdict([10, 10.2, 9.9], [8.0, 8.1, 7.9], "lower", 0.08)[0] == "better"
    assert compare.verdict([10, 10.2, 9.9], [12.0, 12.1, 11.9], "higher", 0.08)[0] == "better"
    assert compare.verdict([10, 13, 8], [10.5, 12, 9], "lower", 0.08)[0] == "unresolved"
    assert compare.verdict([10, 13, 8], [10.5, 12, 9], "lower", 0.08,
                           test_spread=False)[0] == "within"
    # wide spread, but every round of B beats every round of A
    assert compare.verdict([10, 13, 12], [7, 9, 8], "lower", 0.08)[0] == "better"


# -- names and the contract --------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

PROBED = [
    "machine.mpbackend.parent_wait_s", "other.self_s", "trace.overhead_ratio",
    "session.op_s", "session.op_p95_s", "baselines.seq_op_s", "session.ops",
    "lang.kf1.parse_s", "session.compile_s", "session.first_run_s",
    "session.run_fixed_s", "session.sweep_s", "session.bind_s", "session.fetch_s",
    "machine.trace.marks_s", "machine.simulator.replay_s", "lang.expr.eval_s",
    "compiler.commgen.analysis_s", "compiler.schedule.probe_s",
    "compiler.commsched.repartition_s",
    "machine.mpbackend.spawn_s", "machine.mpbackend.roundtrip_s",
    "machine.mpbackend.sweep_fixed_s",
    "serve.overhead_s", "serve.concurrency_ratio", "serve.req_p95_s", "serve.rejected",
    "serve.plan_hit_rate",
    "elastic.checkpoint_s", "elastic.restore_s", "elastic.to_bytes_s", "elastic.ckpt_bytes",
    "supervise.overhead_ratio",
    "machine.trace.messages", "machine.trace.bytes", "machine.trace.computes",
    "machine.trace.marks",
    "compiler.schedule.plan_hits", "compiler.schedule.plan_misses",
    "compiler.commsched.sched_hits", "compiler.commsched.sched_builds",
]


def test_benchmark_json_lists_exactly_the_issues_names():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == [
        "jacobi_small", "jacobi_large", "mp_small", "mp_large",
        "flip_churn", "batch8", "serve_closed"] == list(wl.SPECS)
    # fail_frac is the issue's fifth end-to-end metric; it is always 0 on a
    # healthy run, which the driver's contract forbids for a bounded metric, so
    # it travels as correct/attempted/failed instead (see README.md)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == [
        "vs_seq", "tput_vs_seq", "setup_s", "peak_rss_mb"]
    per_module = [f"{m}.{k}" for m in layers.LAYERS for k in ("self_s", "calls")]
    assert [m["name"] for m in CONTRACT["per_layer"]] == per_module + PROBED
    assert len(layers.LAYERS) == 22


def test_names_units_and_bounds_are_well_formed():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert {w["why"] for w in CONTRACT["workloads"]} == {s.why for s in wl.SPECS.values()}


def test_end_to_end_path_uses_only_the_documented_surface():
    public = set(repro.__all__)
    for module in ("workloads.py", "harness.py"):
        with open(os.path.join(HERE, module)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("repro"), (module, node.module)
            if isinstance(node, ast.Import):
                assert all(not a.name.startswith("repro.") for a in node.names)
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "repro"):
                assert node.attr in public, f"{module} uses repro.{node.attr}"


# -- probes and layers --------------------------------------------------------


def test_a_probe_whose_api_is_gone_records_null_and_a_reason(monkeypatch):
    spec = SMOKE["jacobi_small"]
    inputs = wl.inputs_for(spec, 5)
    inst = wl.build(spec, inputs)
    monkeypatch.delattr(repro, "PlanCache")
    values, reasons = {}, {}
    probes.scoped_probes(inst, spec, inputs, values, reasons)
    assert "compiler.commgen.analysis_s" not in values
    assert "PlanCache" in reasons["plan cache"]
    # the others are untouched by the missing API
    assert values["machine.trace.messages"] > 0 and values["session.sweep_s"] > 0
    assert set(reasons) == {"plan cache"}


def test_layer_of_maps_files_to_listed_modules_only():
    assert layers.layer_of("/x/src/repro/compiler/commsched.py") == "compiler.commsched"
    assert layers.layer_of("/x/src/repro/session.py") == "session"
    assert layers.layer_of("/x/src/repro/util/indexing.py") is None
    assert layers.layer_of("/usr/lib/python3/threading.py") is None
    assert layers.layer_of("~") is None


@pytest.mark.parametrize("name", ["jacobi_small", "serve_closed"])
def test_traced_self_times_add_up_to_the_traced_op_time(name):
    spec = SMOKE[name]
    tracer = layers.Tracer()
    tracer.watch_new_threads()
    try:
        inst = wl.build(spec, wl.inputs_for(spec, 5))
        try:
            ledger = hz.Ledger()
            k = inst.run_slice(ledger, 0, 0.05)
            tracer.activate()
            for _ in range(3):
                k = inst.run_slice(ledger, k, 0.1, tracer)
        finally:
            tracer.unwatch_new_threads()
            inst.close()
    finally:
        tracer.unwatch_new_threads()
    assert not ledger.failures
    table = tracer.layer_table()
    assert table["total_s"] == pytest.approx(sum(tracer.op_seconds), rel=0.02)
    assert table["layers"]["machine.simulator"][0] > 0
    names = {s["name"] for s in tracer.spans}
    assert "op" in names and "session.fetch" in names
    assert all(s["parent"] is None or s["name"] != "op" for s in tracer.spans)


# -- the command, end to end --------------------------------------------------


def _committed_results() -> set:
    results = os.path.join(HERE, "results")
    return set(os.listdir(results)) if os.path.isdir(results) else set()


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _session_members(sid: int) -> list[str]:
    """Processes (zombies too) of session ``sid``, as ``/proc`` shows them right now."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        state, _ppid, _pgrp, session = stat[stat.rfind(")") + 2:].split()[:4]
        if int(session) == sid:
            found.append(f"{entry}:{state}")
    return found


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_forked_worker_run_leaves_no_process_behind(trace):
    # the moment the run has exited, not a settle time later: the interpreter's
    # shared-memory resource tracker used to outlive it by a few milliseconds
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mp_small", "--seed", "3",
         "--seconds", "0.5", "--trace", trace, "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    stdout, stderr = child.communicate(timeout=170)
    left = _session_members(child.pid)
    assert child.returncode == 0, stdout + stderr
    assert left == []


def test_stop_children_ends_the_tracker_and_reports_a_straggler():
    code = (
        "import subprocess, sys\n"
        "from multiprocessing import shared_memory\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import harness as hz\n"
        "seg = shared_memory.SharedMemory(create=True, size=64)\n"  # starts the tracker
        "seg.close(); seg.unlink()\n"
        "kid = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "assert len(hz.child_pids(helpers=True)) == 2\n"
        "assert hz.stop_children() == [kid.pid]\n"
        "assert hz.child_pids(helpers=True) == frozenset()\n"
        "assert hz.stop_children() == []\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr


def test_single_run_prints_the_drivers_json_line_and_writes_nothing(tmp_path):
    before = _committed_results()
    done = _run("--workload", "mp_small", "--seed", "3", "--seconds", "0.5", "--trace", "0",
                "--smoke", cwd=str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert os.listdir(tmp_path) == []
    assert _committed_results() == before


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    done = _run("--workload", "flip_churn", "--seconds", "1", "--trace", "1", "--smoke",
                "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    with open(tmp_path / "trace_flip_churn.json") as fh:
        doc = json.load(fh)
    assert list(doc)[-1] == "claim" and doc["claim"] is None
    assert doc["self_over_traced"] == pytest.approx(1.0, abs=0.02)
    assert doc["null_probes"] == {}


def test_smoke_set_writes_only_where_told(tmp_path):
    before = _committed_results()
    done = _run("--smoke", "--seconds", "0.4", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(tmp_path / "set_local.json") as fh:
        doc = json.load(fh)
    assert doc["mode"] == "smoke" and list(doc)[-1] == "claim" and doc["claim"] is None
    assert list(doc["workloads"]) == list(wl.SPECS)
    assert all(w["fail_frac"] == 0 for w in doc["workloads"].values())
    assert _committed_results() == before
    assert bench.CONTRACT["run_seconds"] == CONTRACT["run_seconds"]
