"""Read-path unification and comm/compute overlap regressions.

PR 3 replaced the ReadPlan's private frozen gather/scatter arrays with
gather-direction :class:`~repro.compiler.commsched.TransferSchedule`
objects, so the doall read path replays through the same transfer
executor as the write side and repartition.  These tests pin the three
properties the switch must preserve or add:

* bit-identity: doall results are unchanged by the unification;
* trace vocabulary: reads announce themselves as ``("gather", ...)``
  schedule events, so per-direction reuse reporting covers them;
* overlap: the overlap-aware executor finishes in strictly less
  simulated time than the serialized send-then-compute sum, without
  changing a single byte on the wire.
"""

import numpy as np
import pytest

from repro.compiler.commgen import LoopAnalysis, ReadPlan
from repro.compiler.commsched import TransferSchedule
from repro.compiler.estimate import estimate_doall
from repro.compiler.schedule import PlanCache
from repro.lang import (
    Assign,
    DistArray,
    Doall,
    Owner,
    ProcessorGrid,
    loopvars,
)
from repro.machine import Machine
from repro.machine.costmodel import CostModel
from repro.tensor.jacobi import build_jacobi_loop, jacobi_reference
from repro.session import Session


def _stencil_loop(n, p):
    g = ProcessorGrid((p,))
    u = DistArray((n,), g, dist=("block",), name="u")
    v = DistArray((n,), g, dist=("block",), name="v")
    u.from_global(np.arange(float(n)))
    (i,) = loopvars("i")
    loop = Doall(
        vars=(i,),
        ranges=[(1, n - 2)],
        on=Owner(v, (i,)),
        body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))],
        grid=g,
    )
    return g, u, v, loop


def _run_jacobi(n, p, iters, overlap, cost=None):
    rng = np.random.default_rng(7)
    f = 1e-3 * rng.standard_normal((n, n))
    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    F.from_global(f)
    loop = build_jacobi_loop(X, F, n - 1, grid)

    def prog(ctx):
        for _ in range(iters):
            yield from ctx.doall(loop, overlap=overlap)

    machine = Machine(
        n_procs=p * p, cost=cost if cost is not None else CostModel.hypercube_1989()
    )
    trace = Session(machine, grid).run(prog)
    return X.to_global(), trace, loop, f


# ----------------------------------------------------------------------
# Unification: the frozen read plan IS a gather TransferSchedule
# ----------------------------------------------------------------------


def test_readplan_freezes_into_gather_transfer():
    _, u, _, loop = _stencil_loop(12, 3)
    analysis = LoopAnalysis(loop)
    for plans in analysis.read_plans:
        for rank, plan in plans.items():
            ts = plan.transfer
            assert ts is not None
            assert isinstance(ts, TransferSchedule)
            assert ts.direction == "gather"
            assert ts.rank == rank
    assert analysis.has_read_transfers
    # the private frozen arrays of PR 1 are gone for good
    for name in ("send_locs", "own_locs", "own_pos", "recv_pos"):
        assert name not in ReadPlan.__slots__


def test_doall_results_bit_identical_after_unification():
    """The unified read path must reproduce the sequential reference
    bit-for-bit (same float ops, same order, same ghost values)."""
    n, p, iters = 17, 2, 5
    x_kf1, _, _, f = _run_jacobi(n, p, iters, overlap=False)
    x_ref = jacobi_reference(f, iters)
    assert np.array_equal(x_kf1, x_ref)


def test_overlap_mode_bit_identical_and_same_wire():
    """Overlap changes when time is charged, never values or messages."""
    n, p, iters = 17, 2, 4
    x_ser, t_ser, _, _ = _run_jacobi(n, p, iters, overlap=False)
    x_ovl, t_ovl, _, _ = _run_jacobi(n, p, iters, overlap=True)
    assert np.array_equal(x_ser, x_ovl)
    assert t_ovl.message_count() == t_ser.message_count()
    assert t_ovl.total_bytes() == t_ser.total_bytes()
    # byte-identical per-message wire content
    assert sorted(m.nbytes for m in t_ovl.messages) == sorted(
        m.nbytes for m in t_ser.messages
    )


# ----------------------------------------------------------------------
# Golden trace: reads emit ("gather", ...) schedule events
# ----------------------------------------------------------------------


def test_golden_reads_emit_gather_direction_marks():
    n, p, sweeps = 12, 3, 2
    g, u, v, loop = _stencil_loop(n, p)

    def prog(ctx):
        for _ in range(sweeps):
            yield from ctx.doall(loop)

    trace = Session(Machine(n_procs=p), g).run(prog)
    # first executing rank compiles (build), every later execution replays
    assert trace.schedule_counts("gather") == {"build": 1, "hit": p * sweeps - 1}
    gather_events = trace.schedule_events("gather")
    assert all(m.payload == ("gather", "u") for m in gather_events)
    # reuse is visible from the second sweep on
    assert trace.schedule_hit_rate("gather") == pytest.approx(
        (p * sweeps - 1) / (p * sweeps)
    )
    assert "gather" in trace.schedule_directions()


# ----------------------------------------------------------------------
# Overlap: simulated time < serialized send+compute sum
# ----------------------------------------------------------------------


def test_overlap_beats_serialized_executor():
    n, p, iters = 33, 2, 6
    _, t_ser, _, _ = _run_jacobi(n, p, iters, overlap=False)
    _, t_ovl, _, _ = _run_jacobi(n, p, iters, overlap=True)
    assert t_ovl.makespan() < t_ser.makespan()
    # the hidden compute shows up as overlap, and the serialized
    # executor has (nearly) none to begin with
    assert t_ovl.overlap_fraction() > t_ser.overlap_fraction()
    assert t_ovl.overlap_fraction() > 0.2


def test_overlap_never_slower_across_cost_models():
    """Wire content is identical and compute is merely front-loaded, so
    overlapped makespan can never exceed the serialized one."""
    for cost in (
        CostModel.hypercube_1989(),
        CostModel.balanced(),
        CostModel.fast_network(),
        CostModel.zero_comm(),
    ):
        _, t_ser, _, _ = _run_jacobi(17, 2, 3, overlap=False, cost=cost)
        _, t_ovl, _, _ = _run_jacobi(17, 2, 3, overlap=True, cost=cost)
        assert t_ovl.makespan() <= t_ser.makespan() + 1e-12


# ----------------------------------------------------------------------
# Estimator: overlapped critical path, not the serialized sum
# ----------------------------------------------------------------------


def test_interior_counts_derived_from_analysis():
    _, _, _, loop = _stencil_loop(12, 3)
    analysis, _ = PlanCache().analysis(loop)
    # 10 iteration points on p=3 blocks of 4: every rank's interior is
    # its block minus the points reading a neighbor's ghost value
    assert sum(analysis.interior_count(r) for r in analysis.ranks) > 0
    for r, iters in analysis.iters.items():
        assert 0 <= analysis.interior_count(r) <= iters.count()
    # boundary points (reading across a block edge) exist on every rank
    assert any(
        analysis.interior_count(r) < analysis.iters[r].count()
        for r in analysis.ranks
    )


def test_estimate_predicts_overlapped_time():
    n, p, iters = 33, 2, 6
    cost = CostModel.hypercube_1989()
    _, t_ovl, loop, _ = _run_jacobi(n, p, iters, overlap=True, cost=cost)
    _, t_ser, loop_s, _ = _run_jacobi(n, p, iters, overlap=False, cost=cost)
    est = estimate_doall(loop)
    pred_ser = est.predicted_time(cost)
    pred_ovl = est.predicted_time(cost, overlap=True)
    # overlap hides work, so its critical path is predicted shorter
    assert pred_ovl < pred_ser
    # and never shorter than compute alone (nothing is free)
    assert pred_ovl >= max(r.compute_time(cost) for r in est.per_rank)
    # the overlapped prediction tracks the overlapped run at least as
    # exactly as the serialized prediction tracks the serialized run
    # (both are critical-path upper bounds per sweep)
    sim_ovl = t_ovl.makespan() / iters
    sim_ser = t_ser.makespan() / iters
    assert pred_ovl >= sim_ovl * 0.95
    err_ovl = abs(pred_ovl - sim_ovl) / sim_ovl
    err_ser = abs(pred_ser - sim_ser) / sim_ser
    assert err_ovl <= err_ser + 1e-9


def test_estimate_overlap_stable_across_redistribution():
    """The lazy interior derivation must consult the analysis-time
    layout snapshot, not the arrays' live distribution: an estimate
    frozen under one layout keeps predicting that layout even if the
    arrays are redistributed before the overlapped prediction is asked
    for."""
    n, p = 25, 2
    cost = CostModel.hypercube_1989()
    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    loop = build_jacobi_loop(X, F, n - 1, grid)

    est_eager = estimate_doall(loop)
    expected = est_eager.predicted_time(cost, overlap=True)  # resolves now

    est_lazy = estimate_doall(loop)  # interior still unresolved ...
    X.redistribute(("cyclic", "cyclic"))
    F.redistribute(("cyclic", "cyclic"))
    assert est_lazy.predicted_time(cost, overlap=True) == expected


def test_overlap_with_remote_writes():
    """Remote-write (scatter) values are produced after compute, so they
    cannot hide interior compute: the overlapped prediction must charge
    them as a serialized tail, and the overlap-mode executor must stay
    bit-identical with remote writes in play."""
    n, p = 16, 4
    cost = CostModel.hypercube_1989()

    def build():
        g = ProcessorGrid((p,))
        a = DistArray((n,), g, dist=("block",), name="a")
        c = DistArray((n,), g, dist=("block",), name="c")
        a.from_global(np.arange(float(n)))
        (i,) = loopvars("i")
        # lhs index shifted off the on clause: writes cross rank borders
        loop = Doall(
            vars=(i,),
            ranges=[(0, n - 3)],
            on=Owner(a, (i,)),
            body=[Assign(c[i + 2], a[i] + 1.0)],
            grid=g,
        )
        return g, c, loop

    results = {}
    for overlap in (False, True):
        g, c, loop = build()

        def prog(ctx, loop=loop, overlap=overlap):
            yield from ctx.doall(loop, overlap=overlap)

        Session(Machine(n_procs=p, cost=cost), g).run(prog)
        results[overlap] = c.to_global()
    assert np.array_equal(results[False], results[True])

    _, _, loop = build()
    est = estimate_doall(loop)
    # the loop really has scatter-direction inbound messages
    assert any(r.msgs_in > r.gather_msgs_in for r in est.per_rank)
    # the scatter tail is charged serially after the (un)hidden compute
    for r in est.per_rank:
        assert r.overlapped_time(cost) >= (
            r.compute_time(cost) + r.scatter_tail_time(cost)
        )
    assert est.predicted_time(cost, overlap=True) <= est.predicted_time(cost)


def test_estimate_read_volumes_exact():
    """Read-side message/byte predictions come off the frozen gather
    schedules and must match the executed trace exactly."""
    n, p, iters = 17, 2, 3
    _, trace, loop, _ = _run_jacobi(n, p, iters, overlap=False)
    est = estimate_doall(loop)
    assert est.total_messages() * iters == trace.message_count()
    assert est.total_bytes() * iters == trace.total_bytes()
