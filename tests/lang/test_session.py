"""Session/Program API: isolation, replay, shim fidelity, key identity.

Covers the compile-and-run contract:

* two Sessions over the same arrays never share schedule or plan
  entries (isolation by construction);
* ``Program.run()`` twice on one Session replays (gather hit rate > 0
  on the second run) with bit-identical results, while a fresh Session
  starts at zero hits;
* importing the package creates no cache: a Session is the only owner
  of compile-and-run state;
* plan-cache keys are immune to CPython id() reuse (regression for the
  ``id(array)`` aliasing bug);
* a frozen loop run takes its Trace from the Session's memoized oracle:
  simulated once per run shape, caller-owned, keyed on stable facts.
"""

import gc
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import CostModel, Machine, ProcessorGrid, Session
from repro.lang import Assign, DistArray, Doall, Owner, loopvars
from repro.tensor.jacobi import build_jacobi_loop, jacobi_reference
from repro.util.errors import ValidationError


def _stencil_loop(g, n=12, name_prefix=""):
    u = DistArray((n,), g, dist=("block",), name=name_prefix + "u")
    v = DistArray((n,), g, dist=("block",), name=name_prefix + "v")
    u.from_global(np.arange(float(n)))
    (i,) = loopvars("i")
    loop = Doall(
        vars=(i,),
        ranges=[(1, n - 2)],
        on=Owner(v, (i,)),
        body=[Assign(v[i], u[i - 1] + u[i + 1])],
        grid=g,
    )
    return loop, u, v


def _trace_fingerprint(trace):
    """Everything observable about a trace, for bit-identity checks."""
    return (
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
        [
            (m.src, m.dst, m.tag, m.nbytes, m.hops, m.t_send, m.t_arrive)
            for m in trace.messages
        ],
        [(m.proc, m.time, m.label, m.payload) for m in trace.marks],
        dict(trace.finish_times),
    )


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------


def test_two_sessions_never_share_schedules():
    """Caches warmed in one Session are invisible to another."""
    p = 2
    g = ProcessorGrid((p,))
    loop, u, v = _stencil_loop(g)

    def prog(ctx):
        yield from ctx.doall(loop)

    s1 = Session(Machine(n_procs=p), g)
    s2 = Session(Machine(n_procs=p), g)
    t1a = s1.run(prog)
    t1b = s1.run(prog)
    # second run in s1 replays: no build events at all
    assert "build" not in t1b.schedule_counts()
    assert s1.plans.kind_stats()["doall"]["misses"] == 1
    # a different Session starts cold: it must compile its own plan
    assert len(s2.plans) == 0 and s2.stats()["schedules"]["hits"] == 0
    t2 = s2.run(prog)
    assert t2.schedule_counts()["build"] >= 1
    assert s2.plans.kind_stats()["doall"]["misses"] == 1
    # and the two sessions' caches hold separate entries
    assert s1.plans is not s2.plans
    assert _trace_fingerprint(t1a) == _trace_fingerprint(t2)


def test_two_sessions_cached_gather_isolated():
    p = 2
    g = ProcessorGrid((p,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    idx = {0: np.array([[7]]), 1: np.array([[0]])}

    def prog(ctx):
        yield from ctx.cached_gather(g, A, idx[ctx.rank])

    s1 = Session(Machine(n_procs=p), g)
    s2 = Session(Machine(n_procs=p), g)
    s1.run(prog)
    s1.run(prog)
    assert s1.stats()["schedules"] == {"hits": 1, "misses": 1}
    # the second session sees none of s1's plans
    s2.run(prog)
    assert s2.stats()["schedules"] == {"hits": 0, "misses": 1}
    assert len(s1.plans) == 1 and len(s2.plans) == 1


# ----------------------------------------------------------------------
# Program replay (acceptance criteria)
# ----------------------------------------------------------------------


def test_program_run_twice_replays_with_bit_identical_results():
    """Two runs of one Program: the second is pure replay (gather hit
    rate > 0, zero compiles) and bit-identical; a fresh Session starts
    at zero hits."""
    n, p, iters = 33, 2, 5
    rng = np.random.default_rng(3)
    f = 1e-3 * rng.standard_normal((n, n))

    session = Session(Machine(n_procs=p * p))
    assert session.stats()["schedules"]["hits"] == 0  # fresh: zero hits
    assert session.plans.stats()["hits"] == 0

    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    loop = build_jacobi_loop(X, F, n - 1, grid)
    program = session.compile(loop)

    t1 = program.run(F=f, X=np.zeros((n, n)), iters=iters)
    x1 = X.to_global().copy()
    t2 = program.run(X=np.zeros((n, n)), iters=iters)
    x2 = X.to_global().copy()

    assert t2.schedule_hit_rate("gather") > 0
    assert "build" not in t2.schedule_counts()
    # pure-doall programs report their replay ratio in hit_rates too
    assert program.stats()["hit_rates"]["doall"] > 0.9
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_allclose(x1, jacobi_reference(f, iters), rtol=1e-12)

    # a fresh Session compiling the same source starts cold again
    fresh = Session(Machine(n_procs=p * p))
    assert fresh.stats()["schedules"]["hits"] == 0
    assert fresh.plans.stats() == {"entries": 0, "hits": 0, "misses": 0}


def test_kf1_source_compiles_and_runs():
    src = """
processors procs(2)
real a(0:9) dist (block)
real b(0:9) dist (block)
doall (i) = [1, 8] on owner(b(i))
  b(i) = 2*a(i-1) + a(i+1)
end doall
"""
    prog = repro.compile(src, machine=Machine(n_procs=2))
    a = np.arange(10.0)
    prog.run(a=a)
    expect = 2 * a[0:8] + a[2:10]
    np.testing.assert_array_equal(prog.arrays["b"].to_global()[1:9], expect)
    # the parsed KF1Program object compiles too
    parsed = repro.parse_program(src)
    prog2 = parsed.compile(machine=Machine(n_procs=2))
    prog2.run(a=a)
    np.testing.assert_array_equal(
        prog2.arrays["b"].to_global(), prog.arrays["b"].to_global()
    )


def test_program_estimate_schedules_stats_explain():
    n, p = 17, 2
    g = ProcessorGrid((p,))
    loop, u, v = _stencil_loop(g, n=n)
    session = Session(Machine(n_procs=p), g)
    program = session.compile(loop)

    # estimate wraps predicted_time; overlapped never exceeds serialized
    est = program.estimate()
    assert est > 0
    assert program.estimate(overlap=True) <= est
    # frozen schedules are visible before any run
    scheds = program.schedules()
    assert len(scheds["gather"]) == p and scheds["scatter"] == []
    assert all(s.direction == "gather" for s in scheds["gather"])
    # explain names the loop and the per-rank wire volumes
    text = program.explain()
    assert "doall[i]" in text and "rank 0" in text
    # stats reflect the session's accounting
    program.run()
    st = program.stats()
    assert st["runs"] == 1
    assert st["plans"]["doall"]["misses"] == 1


def test_program_parsub_and_errors():
    p = 2
    g = ProcessorGrid((p,))
    seen = []

    def routine(ctx, tag):
        seen.append((ctx.rank, tag))
        yield from ()

    prog = repro.compile(routine, machine=Machine(n_procs=p), grid=g)
    prog.run("hello")
    assert sorted(seen) == [(0, "hello"), (1, "hello")]
    with pytest.raises(ValidationError, match="compiled loops"):
        prog.explain()
    with pytest.raises(ValidationError, match="compiled loops"):
        prog.schedules()

    loop, u, v = _stencil_loop(g)
    lprog = repro.compile(loop, machine=Machine(n_procs=p))
    with pytest.raises(ValidationError, match="unknown binding"):
        lprog.run(nosuch=np.zeros(12))
    # there is one executor and no option selecting it: not even per run
    with pytest.raises(ValidationError, match="unknown binding 'compiled'"):
        lprog.run(compiled=False)
    assert "compiled" not in inspect.signature(Session).parameters
    with pytest.raises(ValidationError, match="positional"):
        lprog.run(1)
    with pytest.raises(ValidationError, match="cannot compile"):
        repro.compile(42)


def test_compile_compares_grids_by_shape_and_ranks():
    """A (2, 2) and a (4, 1) grid over ranks 0-3 share ``grid.key()``;
    compile() must still tell them apart, both against ``grid=`` and
    across the loops of one program."""
    g22, g41 = ProcessorGrid((2, 2)), ProcessorGrid((4, 1))
    assert g22.key() == g41.key()

    def loop_on(g):
        A = DistArray((8, 8), g, dist=("block", "block"), name="A")
        i, j = loopvars("i j")
        return Doall(vars=(i, j), ranges=[(0, 7), (0, 7)], on=Owner(A, (i, j)),
                     body=[Assign(A[i, j], A[i, j] + 1.0)], grid=g)

    loop22 = loop_on(g22)
    repro.compile(loop22, grid=ProcessorGrid((2, 2)))  # equal by value: fine
    with pytest.raises(ValidationError, match="grid mismatch"):
        repro.compile(loop22, grid=g41)
    with pytest.raises(ValidationError, match="share one processor grid"):
        repro.compile([loop22, loop_on(g41)])


def test_program_guard_rails():
    """Conflicting machines, duplicate array names, and parsub overlap
    are loud errors, not silent surprises."""
    p = 2
    g = ProcessorGrid((p,))
    loop, u, v = _stencil_loop(g)
    session = Session(Machine(n_procs=p), g)
    with pytest.raises(ValidationError, match="pass machine to the Session"):
        repro.compile(loop, session=session, machine=Machine(n_procs=p))
    with pytest.raises(ValidationError, match="grid mismatch"):
        repro.compile(loop, session=session, grid=ProcessorGrid((1,)))

    # two distinct arrays under one name compile and run fine, but the
    # shared name cannot be bound (which array would it mean?)
    loop2, _, _ = _stencil_loop(g)  # same names, different arrays
    prog2 = session.compile([loop, loop2])
    assert prog2.ambiguous_names == {"u", "v"}
    prog2.run()  # positional-free run needs no names
    with pytest.raises(ValidationError, match="ambiguous"):
        prog2.run(u=np.zeros(12))

    def routine(ctx):
        yield from ()

    prog = repro.compile(routine, machine=Machine(n_procs=p), grid=g)
    with pytest.raises(ValidationError, match="overlap applies to loop"):
        prog.run(overlap=True)


def test_history_bounded_but_runs_counted():
    p = 2
    g = ProcessorGrid((p,))
    s = Session(Machine(n_procs=p), g, max_history=3)

    def prog(ctx):
        yield from ()

    for _ in range(5):
        s.run(prog)
    assert len(s.history) == 3
    assert s.runs == 5 and s.stats()["runs"] == 5


@pytest.mark.parametrize("solver", ["adi_solve", "adi_varcoef_solve"])
def test_adi_line_plans_visible_in_session_stats(solver):
    """Both ADI front ends' line-solver plans ride in the session's
    PlanCache: one grid-wide plan per axis, probed once per collective
    call and replayed every later sweep; the marks stay per rank."""
    from repro.tensor.adi import adi_solve
    from repro.tensor.adi_varcoef import adi_varcoef_solve

    n, p, iters = 16, 2, 3
    rng = np.random.default_rng(5)
    f = 1e-3 * rng.standard_normal((n + 1, n + 1))
    session = Session()
    machine, grid = Machine(n_procs=p * p), ProcessorGrid((p, p))
    if solver == "adi_solve":
        _, trace = adi_solve(machine, grid, f, iters=iters, session=session)
    else:
        ones = np.ones_like(f)
        _, trace = adi_varcoef_solve(
            machine, grid, f, ones, 2.0 * ones, -ones, iters=iters,
            session=session,
        )
    kinds = session.plans.kind_stats()
    assert "adi-line" in kinds and "doall" in kinds
    assert kinds["adi-line"]["misses"] == 2
    assert kinds["adi-line"]["hits"] == 2 * (iters - 1)
    assert trace.schedule_counts("adi-lines") == {
        "build": 2 * p * p, "hit": 2 * p * p * (iters - 1),
    }


def test_mg3_line_plans_replay_across_cycles():
    """MG3 on a (block, block, block) grid runs its plane solves' zebra
    lines through the shared line solver: every line-plan lookup of the
    second V-cycle replays a plan the first one built.  The cache counts
    one probe per collective call; each of a plane section's four ranks
    still marks it."""
    from repro.tensor.multigrid3d import mg3_solve
    from repro.tensor.poisson import manufactured_3d

    _, f = manufactured_3d(8)
    counts = []
    for cycles in (1, 2):
        session = Session()
        _, trace = mg3_solve(
            Machine(n_procs=8), ProcessorGrid((2, 2, 2)), f, cycles=cycles,
            dist=("block", "block", "block"), session=session,
        )
        counts.append(session.plans.kind_stats()["adi-line"])
        probes = counts[-1]
        assert trace.schedule_counts("adi-lines") == {
            "build": 4 * probes["misses"], "hit": 4 * probes["hits"],
        }
    one, two = counts
    assert one["misses"] > 0 and one["hits"] > 0
    assert two["misses"] == one["misses"]
    assert two["hits"] == 2 * one["hits"] + one["misses"]


# ----------------------------------------------------------------------
# No process-global twin
# ----------------------------------------------------------------------


def test_importing_repro_creates_no_cache():
    """A Session is the only home of cache state: importing the package
    must not instantiate a PlanCache (fresh interpreter, so no other
    test's Sessions are in the weak registry)."""
    code = (
        "import repro\n"
        "from repro.compiler import schedule\n"
        "assert len(schedule._ALL_PLAN_CACHES) == 0, list(schedule._ALL_PLAN_CACHES)\n"
        "session = repro.Session()\n"
        "assert len(schedule._ALL_PLAN_CACHES) == 1\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# ----------------------------------------------------------------------
# Cache-key identity: uid, never id()
# ----------------------------------------------------------------------


def test_plan_keys_survive_id_reuse():
    """CPython reuses object addresses after GC: a freed array's plan
    key must never alias a live one's.  Regression for keying Owner/Ref
    on id(array): free-then-allocate one array at a time, recording each
    freed array's Owner key by address, until a fresh array lands on a
    recycled address -- and check that the freed array's key does not
    match the live one's (under id() keys they collide exactly)."""
    g = ProcessorGrid((2,))
    (i,) = loopvars("i")

    freed_keys = {}
    for _ in range(200):
        a = DistArray((8,), g, dist=("block",), name="u")
        stale_key = freed_keys.get(id(a))
        if stale_key is not None:
            break
        freed_keys[id(a)] = Owner(a, (i,)).key()
        del a
        gc.collect()
    else:
        pytest.fail("allocator never recycled an address in 200 rounds")
    assert Owner(a, (i,)).key() != stale_key, (
        "id() reuse aliased a freed array's plan key with a live one's"
    )
    assert a[i].key() != ("ref",) + stale_key[1:]


def test_owner_and_ref_keys_use_uid():
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    assert A.uid in Owner(A, (i,)).key()
    assert A.uid in A[i].key()
    assert id(A) not in Owner(A, (i,)).key()


# ----------------------------------------------------------------------
# The trace oracle: a frozen loop run simulates once per run shape
# ----------------------------------------------------------------------

BACKENDS = [None, "multiprocessing"]


def _loop_program(backend=None):
    g = ProcessorGrid((2,))
    loop, u, v = _stencil_loop(g)
    sess = Session(Machine(n_procs=2), g, backend=backend)
    return repro.compile(loop, session=sess), sess, u, v


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_steady_state_runs_never_simulate(backend, simulations):
    prog, sess, _, _ = _loop_program(backend)
    try:
        prog.run(iters=3)
        warm = len(simulations)
        traces = [prog.run(iters=3) for _ in range(5)]
        assert len(simulations) == warm == 1
    finally:
        sess.close_backend()
    want = _trace_fingerprint(_loop_program()[0].run(iters=3))
    assert all(_trace_fingerprint(t) == want for t in traces)
    assert sess.runs == 6 and len(sess.history) == 6
    assert "oracle" not in sess.stats()["plans"]


def test_oracle_trace_is_caller_owned():
    prog, _, _, _ = _loop_program()
    t1, t2 = prog.run(iters=2), prog.run(iters=2)
    want = _trace_fingerprint(t2)
    t1.messages.clear()
    t1.computes.clear()
    t1.marks.clear()
    t1.finish_times.clear()
    t1.mark_counts["mine"] = 1
    assert _trace_fingerprint(t2) == want
    t3 = prog.run(iters=2)
    assert _trace_fingerprint(t3) == want and not t3.mark_counts


def test_oracle_stamps_each_machine_with_its_own_cost_model():
    """Short-lived machines, created and dropped per run: an entry is
    keyed on the cost model by value and pins its machine, so neither a
    recycled ``id()`` nor a reassigned ``machine.cost`` can serve
    another model's timings."""
    prog, _, _, _ = _loop_program()
    costs = [CostModel(alpha=a, flop_time=a / 100) for a in (1e-4, 1e-2, 1.0)]
    spans = [
        prog.run(machine=Machine(n_procs=2, cost=cost), iters=2).makespan()
        for cost in costs
    ]
    want = [
        _loop_program()[0].run(
            machine=Machine(n_procs=2, cost=cost), iters=2
        ).makespan()
        for cost in costs
    ]
    assert spans == want and len(set(spans)) == 3
    machine = Machine(n_procs=2, cost=costs[0])
    assert prog.run(machine=machine, iters=2).makespan() == want[0]
    machine.cost = costs[2]
    assert prog.run(machine=machine, iters=2).makespan() == want[2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_oracle_follows_a_redistribution_between_runs(backend):
    """Layouts are part of the key: after a flip the next run gets the
    new layout's trace (with its build marks), the one after that the
    steady-state trace -- as the live ``ctx.doall`` walk records -- and
    a flip *back* replays the first layout's steady-state template: no
    new oracle entry, no simulation."""
    def run(backend, parsub):
        prog, sess, u, v = _loop_program(backend)
        (loop,) = prog.loops

        def sweep():
            if not parsub:
                return prog.run(iters=2)

            def routine(ctx):
                for _ in range(2):
                    yield from ctx.doall(loop)

            return sess.run(routine)

        out = [sweep()]
        for arr in (u, v):
            arr.redistribute(("cyclic",))
        out += [sweep(), sweep()]
        for arr in (u, v):
            arr.redistribute(("block",))
        if not parsub:
            entries = len(sess.oracle)
        out.append(sweep())
        if not parsub:
            assert len(sess.oracle) == entries == 3
        sess.close_backend()
        return [_trace_fingerprint(t) for t in out]

    got, want = run(backend, False), run(None, True)
    assert got == want
    assert got[0] != got[1] != got[2]
    assert got[3] == got[0]


def test_oracle_one_entry_per_run_shape_and_clear(simulations):
    prog, sess, _, _ = _loop_program()
    shapes = [
        dict(iters=2), dict(iters=2, overlap=True),
        dict(iters=2, marks="cheap"), dict(iters=3),
    ]
    for _ in range(2):
        for shape in shapes:
            prog.run(**shape)
    assert len(sess.oracle) == len(simulations) == 4
    assert sess.oracle.kind_stats() == {"oracle": {"hits": 4, "misses": 4}}
    sess.clear()
    assert len(sess.oracle) == 0
    prog.run(iters=2)
    assert len(simulations) == 5
