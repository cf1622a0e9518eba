"""The compiled replay: StepPlan equivalence and lifecycle.

Every doall replays frozen per-rank StepPlans, in two launch forms:
``Program.run`` (the direct phase walk, its trace from the oracle) and
``ctx.doall`` inside a parsub (the op stream on the simulator, its
values moved at the grid rendezvous).  The stored values of either must
equal the sequential evaluator :func:`repro.baselines.doall_reference`
bit for bit, and the two forms must agree on everything else observable
-- message streams, marks, compute charges, cache accounting.  These
tests pin that, plus the plan-lifecycle guarantees (stale plans dropped
on redistribution) and the snapshot-elision and cheap-marks machinery
that ride along.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import repro
from repro import Machine, ProcessorGrid, Session
from repro.baselines import doall_reference
from repro.baselines.doall import eval_rhs
from repro.compiler.commgen import StepPlan, freeze_positions
from repro.compiler.schedule import drop_plans_for_array
from repro.lang import Assign, DistArray, Doall, Owner, loopvars
from repro.lang.array import storage_of
from repro.lang.expr import BinOp, Const, LoopVar, Ref, compile_expr
from repro.machine.ops import Recv, Send
from repro.machine.simulator import _snapshot
from repro.tensor.adi import _build_residual_loop, _build_update_loop, default_tau
from repro.tensor.multigrid2d import MG2
from repro.tensor.poisson import Coeffs2D


def trace_sig(trace):
    """Everything two equivalent executions must agree on, bit for bit."""
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
        dict(trace.finish_times),
    )


def capture(loops):
    """Every storage array the loops touch, with its global values now."""
    return {s: s.to_global() for loop in loops for s in map(storage_of, loop.arrays())}


def assert_reference(loops, state, iters):
    """The live arrays hold what ``iters`` sequential sweeps of ``loops``
    compute from ``state`` (a :func:`capture` taken before the run)."""
    doall_reference(loops, state, iters)
    for array, want in state.items():
        assert array.to_global().tobytes() == want.tobytes(), array.name


def stencil_loop(n, grid, dist=("block", "block")):
    X = DistArray((n, n), grid, dist=dist, name="X")
    F = DistArray((n, n), grid, dist=dist, name="F")
    F.from_global(np.random.default_rng(5).standard_normal((n, n)))
    i, j = loopvars("i j")
    body = [Assign(
        X[i, j],
        0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1]) - F[i, j],
    )]
    loop = Doall(vars=(i, j), ranges=[(1, n - 2), (1, n - 2)],
                 on=Owner(X, (i, j)), body=body, grid=grid)
    return loop, X


def stencil_program(n, p, dist=("block", "block"), backend=None):
    grid = ProcessorGrid((p, p))
    loop, X = stencil_loop(n, grid, dist)
    sess = Session(Machine(n_procs=p * p), grid, backend=backend)
    return repro.compile(loop, session=sess), X


def close_backend(prog):
    """Release a session's multiprocessing worker pool, if it spawned one."""
    if prog.session._mp_backend is not None:
        prog.session._mp_backend.close()


def launch(case, form, backend=None, *, iters, overlap=False):
    """Run ``case()``'s loops for ``iters`` sweeps in one launch form --
    ``"program"`` (``Program.run`` on ``backend``) or ``"parsub"``
    (``ctx.doall`` on the simulator) -- check every array against the
    sequential reference, and return the trace and the doall accounting."""
    loops, _, grid = case()
    state = capture(loops)
    sess = Session(Machine(n_procs=grid.size), grid, backend=backend)
    prog = repro.compile(loops, session=sess)
    if form == "program":
        trace = prog.run(iters=iters, overlap=overlap)
    else:
        def parsub(ctx):
            for _ in range(iters):
                for loop in loops:
                    yield from ctx.doall(loop, overlap=overlap)

        trace = sess.run(parsub)
    close_backend(prog)
    assert_reference(loops, state, iters)
    return trace, sess.plans.kind_stats()["doall"]


def assert_forms_agree(case, backend, *, iters, overlap=False):
    """Values against the reference in both forms; trace and accounting
    of ``Program.run`` on ``backend`` against the live parsub walk."""
    ta, acct_a = launch(case, "program", backend, iters=iters, overlap=overlap)
    tb, acct_b = launch(case, "parsub", iters=iters, overlap=overlap)
    assert trace_sig(ta) == trace_sig(tb)
    assert acct_a == acct_b


# The contract holds across *launch forms* (the direct walk vs the live
# generator) and across *backends* (event-driven simulator vs real
# shared-memory worker processes): every parametrized case below checks
# values against the sequential reference and the program form's trace
# against the live simulator walk.
BACKENDS = [None, "multiprocessing"]


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


def stencil_case(p=(2, 2)):
    """The five-point stencil; ``p=(8, 1)`` is eight forked workers."""
    grid = ProcessorGrid(p)
    loop, X = stencil_loop(20, grid)
    return [loop], [X], grid


def adi_case():
    """ADI's defect-correction doalls: the residual + update loop pair
    (the line solves between them are kernels outside the doall path)."""
    n, coeffs = 16, Coeffs2D()
    grid = ProcessorGrid((2, 2))
    f = 1e-3 * np.random.default_rng(12).standard_normal((n + 1, n + 1))
    u, F, r, v = (DistArray(f.shape, grid, dist=("block", "block"), name=name)
                  for name in ("u", "F", "r", "v"))
    F.from_global(f)
    v.from_global(0.1 * f)
    h2 = (1.0 / n) ** 2
    loops = [_build_residual_loop(r, u, F, n, h2, h2, coeffs, grid),
             _build_update_loop(u, v, n, default_tau(n, coeffs), grid)]
    return loops, [u, r], grid


def mg2_case():
    """2-D multigrid's finest level: the two zebra relaxation rhs loops
    (stride-2 columns) and the residual loop."""
    n = 16
    grid = ProcessorGrid((2,))
    f = 1e-3 * np.random.default_rng(13).standard_normal((n + 1, n + 1))
    u = DistArray(f.shape, grid, dist=("*", "block"), name="u2")
    F = DistArray(f.shape, grid, dist=("*", "block"), name="f2")
    F.from_global(f)
    u.from_global(0.01 * f)
    fine = MG2(u, F, grid, Coeffs2D()).levels[0]
    loops = [fine["zebra"]["even"], fine["zebra"]["odd"], fine["resid"]]
    return loops, [fine["tmp"], fine["r"]], grid


@pytest.mark.parametrize("case,backend,overlap", [
    # the stencil ids keep the names they had as the only case
    *(pytest.param(stencil_case, b, o, id=f"{b}-{o}")
      for b in BACKENDS for o in (False, True)),
    *(pytest.param(case, b, False, id=f"{case.__name__}-{b}")
      for case in (adi_case, mg2_case) for b in BACKENDS),
    # more workers than a CI host has cores: the barrier protocol must
    # not depend on every rank being scheduled at once
    pytest.param(lambda: stencil_case(p=(8, 1)), "multiprocessing", False,
                 id="eight-workers"),
])
def test_stencil_bit_identical(case, backend, overlap):
    """The loops the paper's solvers spend their sweeps in: values
    against the sequential reference, and the full trace and plan
    accounting of ``Program.run`` on either backend against the live
    simulator walk."""
    assert_forms_agree(case, backend, iters=4, overlap=overlap)


def remote_write_case():
    """Mismatched layouts force a scatter schedule: block -> cyclic."""
    g = ProcessorGrid((4,))
    A = DistArray((17,), g, dist=("block",), name="A")
    B = DistArray((17,), g, dist=("cyclic",), name="B")
    A.from_global(np.arange(17.0))
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, 15)], on=Owner(A, (i,)),
                 body=[Assign(B[i], A[i - 1] + 2.0 * A[i + 1])], grid=g)
    return [loop], [B], g


@pytest.mark.parametrize(
    "backend,overlap",
    # ids keep the pre-overlap case names ("None", "multiprocessing")
    [pytest.param(b, o, id=f"{b}-overlap" if o else str(b))
     for b in BACKENDS for o in (False, True)],
)
def test_remote_write_bit_identical(backend, overlap):
    """Mismatched layouts force scatter schedules; every backend must
    agree with the reference and with the parsub form, with and without
    the overlap split."""
    assert_forms_agree(remote_write_case, backend, iters=3, overlap=overlap)


def diagonal_case(p, last):
    g = ProcessorGrid((p,))
    A = DistArray((9, 9), g, dist=("block", "*"), name="A")
    B = DistArray((9, 9), g, dist=("block", "*"), name="B")
    B.from_global(np.random.default_rng(1).standard_normal((9, 9)))
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(0, last)], on=Owner(A, (i, 0)),
                 body=[Assign(A[i, i], B[i, i] * 3.0 - 1.0)], grid=g)
    return [loop], [A], g


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("p,last", [
    pytest.param(2, 8, id="all-ranks-busy"),
    # rows 0..4 of 9 over 3 ranks: rank 2 owns no iteration point
    pytest.param(3, 4, id="idle-rank"),
])
def test_diagonal_flat_store_bit_identical(p, last, backend):
    """A[i, i] is not box-decomposable: the frozen flat-store path."""
    def case():
        return diagonal_case(p, last)

    if last < 8:
        (loop,), _, g = case()
        sess = Session(Machine(n_procs=p), g)
        analysis, _ = sess.plans.analysis(loop, count=False)
        assert analysis.step_plan(p - 1).n_points == 0
    assert_forms_agree(case, backend, iters=2)


def strided_case():
    """A stride-2 loop over cyclic arrays (a zebra sweep)."""
    g = ProcessorGrid((2,))
    u = DistArray((16,), g, dist=("cyclic",), name="u")
    v = DistArray((16,), g, dist=("cyclic",), name="v")
    u.from_global(np.arange(16.0))
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, 14, 2)], on=Owner(v, (i,)),
                 body=[Assign(v[i], u[i - 1] + u[i + 1])], grid=g)
    return [loop], [v], g


@pytest.mark.parametrize("backend", BACKENDS)
def test_strided_ranges_bit_identical(backend):
    """Stride-2 loops (zebra sweeps) defeat the slice fast path cleanly."""
    assert_forms_agree(strided_case, backend, iters=3)


def double_write_case():
    """Two statements write C(i + 1) and C(i): an element gets the
    second statement's value, whether it arrives by scatter or by the
    rank's own move."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    C = DistArray((8,), g, dist=("block",), name="C")
    A.from_global(np.arange(8.0))
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(0, 6)], on=Owner(A, (i,)),
                 body=[Assign(C[i + 1], A[i] + 100.0), Assign(C[i], A[i] * 2.0)],
                 grid=g)
    return [loop], [C], g


@pytest.mark.parametrize("backend", BACKENDS)
def test_later_statement_wins_a_doubly_written_element(backend):
    """Statement order decides an element two statements write: C(4)
    gets statement one's value from rank 0 by scatter and statement
    two's from its owner's own move, and must end with statement two's,
    on every launch form and backend."""
    assert_forms_agree(double_write_case, backend, iters=2)


def test_plan_accounting_identical():
    """Fast-path as-if hits keep PlanCache stats equal to the per-sweep
    probes of ``ctx.doall``, run after run."""
    pa, _ = stencil_program(16, 2)
    pb, _ = stencil_program(16, 2)
    (loop,) = pb.loops

    def sweeps(n):
        def parsub(ctx):
            for _ in range(n):
                yield from ctx.doall(loop)
        return parsub

    pa.run(iters=5)
    pb.session.run(sweeps(5))
    assert (pa.session.plans.kind_stats()["doall"]
            == pb.session.plans.kind_stats()["doall"])
    pa.run(iters=3)
    pb.session.run(sweeps(3))
    assert (pa.session.plans.kind_stats()["doall"]
            == pb.session.plans.kind_stats()["doall"])
    assert pa.session.hit_rates()["doall"] == pb.session.hit_rates()["doall"]


# ----------------------------------------------------------------------
# Plan lifecycle: redistribution must retire compiled closures
# ----------------------------------------------------------------------


def test_step_plans_dropped_with_analysis():
    prog, X = stencil_program(16, 2)
    prog.run(iters=2)
    plans = prog.session.plans
    (entry,) = [v for (kind, _), (v, _) in plans._entries.items() if kind == "doall"]
    assert entry.step_plans, "compiled run must have built step plans"
    assert drop_plans_for_array(X) >= 1
    assert not [k for k in plans._entries if k[0] == "doall"]


def smoother_case(n):
    g = ProcessorGrid((2,))
    u = DistArray((n,), g, dist=("block",), name="u")
    v = DistArray((n,), g, dist=("block",), name="v")
    u.from_global(np.arange(float(n)))
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, n - 2)], on=Owner(v, (i,)),
                 body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))], grid=g)
    return loop, u, v, g


@pytest.mark.parametrize("backend", BACKENDS)
def test_redistribute_between_runs_regression(backend):
    """Layout flips between runs: the compiled path must rebuild, never
    write through a closure captured against the old blocks -- and the
    multiprocessing backend must respawn its worker pool (epoch-keyed),
    never sweep against stale shared-memory adoptions."""
    loop, u, v, g = smoother_case(13)
    prog = repro.compile(loop, session=Session(Machine(n_procs=2), g,
                                               backend=backend))
    try:
        for dist in (None, ("cyclic",), ("block",)):
            if dist is not None:
                u.redistribute(dist)
                v.redistribute(dist)
            state = capture([loop])
            prog.run(iters=2)
            assert_reference([loop], state, 2)
    finally:
        close_backend(prog)


@pytest.mark.parametrize("backend", BACKENDS)
def test_redistribute_mid_run_bit_identical(backend):
    """Parsub programs (opaque generators, mid-run repartitions) run on
    the backend's inner reference machine; the trace must not care, and
    the values are three sequential sweeps (a repartition moves no
    value)."""
    def run(backend):
        loop, u, v, g = smoother_case(12)
        state = capture([loop])
        sess = Session(Machine(n_procs=2), g, backend=backend)

        def program(ctx):
            yield from ctx.doall(loop)
            yield from ctx.redistribute(u, ("cyclic",))
            yield from ctx.doall(loop)
            yield from ctx.redistribute(u, ("block",))
            yield from ctx.doall(loop)

        trace = sess.run(program)
        sess.close_backend()
        assert_reference([loop], state, 3)
        return trace

    assert trace_sig(run(backend)) == trace_sig(run(None))


def test_stale_section_still_fails_loudly_when_compiled():
    """Redistributing a base must not let a compiled plan silently reuse
    a stale Section; the Section freshness check still fires."""
    from repro.util.errors import ValidationError

    g = ProcessorGrid((2,))
    A = DistArray((8, 4), g, dist=("block", "*"), name="A")
    B = DistArray((8,), g, dist=("block",), name="B")
    sect = A[:, 1]
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, 6)], on=Owner(B, (i,)),
                 body=[Assign(B[i], sect[i] + 1.0)], grid=g)
    sess = Session(Machine(n_procs=2), g)
    prog = repro.compile(loop, session=sess)
    prog.run()
    A.redistribute(("cyclic", "*"))
    with pytest.raises(ValidationError, match="stale section"):
        prog.run()


# ----------------------------------------------------------------------
# Snapshot elision
# ----------------------------------------------------------------------


def test_copy_in_semantics_survive_snapshot_elision():
    """The sender overwrites X in phase 4 of the same sweep its ghosts
    were sent; receivers must still observe the pre-sweep values."""
    prog, X = stencil_program(12, 2)
    state = capture(prog.loops)
    prog.run(iters=6)
    assert_reference(prog.loops, state, 6)


def test_snapshot_skips_frozen_copies_mutable():
    frozen = np.arange(4.0)
    frozen.flags.writeable = False
    assert _snapshot(frozen) is frozen
    live = np.arange(4.0)
    copy = _snapshot(live)
    assert copy is not live
    copy_view = _snapshot(live[1:])
    assert copy_view.base is not live


def test_snapshot_copies_readonly_views_of_live_memory():
    """A read-only *view* (broadcast_to of a mutable buffer) is not
    by-value: the sender can still mutate it through the base, so the
    simulator must copy it -- only owning frozen arrays skip."""
    base = np.zeros(4)
    view = np.broadcast_to(base, (4,))
    assert not view.flags.writeable  # the trap: read-only but aliased
    snap = _snapshot(view)
    base[:] = 9.0
    np.testing.assert_array_equal(snap, np.zeros(4))

    def sender():
        x = np.zeros(4)
        yield Send(1, np.broadcast_to(x, (4,)), tag="t")
        x[:] = 9.0

    def receiver():
        got = yield Recv(src=0, tag="t")
        np.testing.assert_array_equal(got, np.zeros(4))

    Machine(n_procs=2).run({0: sender(), 1: receiver()})


def test_adhoc_send_still_deep_copied():
    """Hand-written node programs sending live buffers keep by-value
    semantics: the simulator still snapshots writeable payloads."""
    buf = np.zeros(3)

    def sender(ctx_rank=0):
        yield Send(1, buf, tag="t")
        buf[:] = 9.0

    def receiver():
        got = yield Recv(src=0, tag="t")
        assert got.sum() == 0.0, "receiver saw the sender's later mutation"

    Machine(n_procs=2).run({0: sender(), 1: receiver()})


# ----------------------------------------------------------------------
# compile_expr / freeze_positions units
# ----------------------------------------------------------------------


_I = LoopVar("i")
#: stand-in arrays per dtype: compile_expr needs ndim, uid and dtype only
_ARRAYS = {
    (name, dt): SimpleNamespace(ndim=1, uid=-k, dtype=np.dtype(dt), name=name)
    for k, (name, dt) in enumerate(
        [(n, d) for n in "AB" for d in ("float64", "float32")], 1)
}
_CONSTS = [0.5, 2.0, -1.25, 3.0, 0.1]


@st.composite
def rhs_cases(draw):
    """A random rhs tree over A at three offsets and B at one, with the
    lhs dtype, an optional batch axis and a seed for the operands."""
    A = _ARRAYS["A", draw(st.sampled_from(["float64", "float32"]))]
    B = _ARRAYS["B", draw(st.sampled_from(["float64", "float32"]))]
    leaves = st.one_of(
        st.sampled_from([Ref(A, (_I - 1,)), Ref(A, (_I,)), Ref(A, (_I + 1,)),
                         Ref(B, (_I,))]),
        st.sampled_from(_CONSTS).map(Const),
    )
    tree = draw(st.recursive(
        leaves,
        lambda kids: st.builds(BinOp, st.sampled_from("+-*/"), kids, kids),
        max_leaves=10,
    ))
    lhs = draw(st.sampled_from([np.float64, np.float32]))
    batch = draw(st.sampled_from([(), (3,)]))
    return tree, lhs, batch, draw(st.integers(0, 2**16))


# the shapes the in-place lowering distinguishes, pinned as examples
_A, _B = _ARRAYS["A", "float64"], _ARRAYS["B", "float32"]
_a0, _a1, _b = Ref(_A, (_I,)), Ref(_A, (_I + 1,)), Ref(_B, (_I,))


@given(rhs_cases())
@example((2.0 * (_a0 - _a1) + _b, np.float64, (), 1))          # Const-left
@example((_a0 - (_b * (_a1 + 3.0)), np.float32, (), 2))       # right-deep
@example(((_a0 + _b) * (_a1 - _b) / (_b + 0.5), np.float64, (3,), 3))
@example((Const(2.0) * Const(3.0) - 1.0, np.float32, (), 4))  # all constant
@example((_a1 + 0.0, np.float32, (3,), 5))
@example((_b * 0.1 - _b * _b * 0.1 + _a0, np.float64, (), 7))   # mixed dtypes
@example((Ref(_B, (_I,)), np.float64, (), 6))                 # bare reference
@settings(max_examples=200, deadline=None)
def test_compile_expr_matches_interpreter(case):
    """The scratch lowering equals the reference's tree walk
    (:func:`repro.baselines.doall.eval_rhs`) bit for bit -- its own
    values, and the values the store casts to the lhs dtype -- and
    reusing its buffers on a second call with new operands leaves
    nothing stale behind."""
    expr, lhs, batch, seed = case
    shape = batch + (7,)
    rng = np.random.default_rng(seed)
    data: dict = {}

    def draw_operands():
        for ref in expr.refs():
            key = (id(ref.array), int(ref.idx[0].const))
            data[key] = rng.standard_normal(shape).astype(ref.array.dtype)

    def resolve(ref):
        key = (id(ref.array), int(ref.idx[0].const))
        return lambda block_of: data[key]

    scratch = []

    def alloc(dtype):
        scratch.append(np.empty(shape, dtype))
        return scratch[-1]

    with np.errstate(all="ignore"):
        fn = compile_expr(expr, resolve, alloc)
        fresh = compile_expr(expr, resolve)  # no scratch: numpy allocates
        for _ in range(2):
            draw_operands()
            got = fn(None)
            try:
                want = eval_rhs(expr, lambda ref: resolve(ref)(None))
            except ZeroDivisionError:  # a constant over a zero constant
                reject()
            want = np.broadcast_to(np.asarray(want), shape)
            assert got is scratch[0]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            alone = np.broadcast_to(np.asarray(fresh(None)), shape)
            assert alone.tobytes() == want.tobytes()
            stored = np.empty(shape, lhs)
            stored[...] = got  # the store's cast
            assert stored.tobytes() == np.asarray(want, dtype=lhs).tobytes()


def test_freeze_positions_contiguous_box():
    pos = (np.arange(3).reshape(3, 1), np.arange(2, 6).reshape(1, 4))
    assert freeze_positions(pos) == (slice(0, 3), slice(2, 6))
    buf = np.arange(50.0).reshape(5, 10)
    np.testing.assert_array_equal(buf[freeze_positions(pos)], buf[pos])


def test_freeze_positions_rejects_non_boxes():
    # strided run
    assert freeze_positions((np.array([0, 2, 4]),)) is None
    # diagonal: both entries vary along axis 0
    diag = (np.arange(3).reshape(3, 1), np.arange(3).reshape(3, 1))
    assert freeze_positions(diag) is None
    # shape infidelity: slice form would add a dimension
    assert freeze_positions((np.arange(3), np.asarray(2))) is None
    # empty
    assert freeze_positions((np.empty((0,), dtype=np.int64),)) is None


def test_step_plan_is_memoized_per_rank():
    prog, _ = stencil_program(12, 2)
    prog.run()
    plans = prog.session.plans
    (analysis,) = [v for (kind, _), (v, _) in plans._entries.items()
                   if kind == "doall"]
    assert analysis.step_plan(0) is analysis.step_plan(0)
    assert isinstance(analysis.step_plan(1), StepPlan)
    assert set(analysis.step_plans) == {0, 1, 2, 3}


def test_dropped_session_frees_its_plans_without_the_collector():
    """analysis -> step_plans -> StepPlan must not point back strongly:
    a dropped Session's plans (and the workspaces they own), and the
    arrays their compiled expressions read, die by refcount, not
    whenever the cycle collector next happens to run."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        prog, X = stencil_program(12, 2)
        prog.run(iters=2, overlap=True)  # overlap: charges() walks the back-ref
        (analysis,) = [v for (kind, _), (v, _) in
                       prog.session.plans._entries.items() if kind == "doall"]
        ref = weakref.ref(analysis)
        plan_ref = weakref.ref(analysis.step_plan(0).evals[0])
        # F is read-only: its compiled reads capture the array itself
        array_refs = [weakref.ref(a) for a in prog.loops[0].arrays()]
        del analysis, prog, X
        assert ref() is None, "LoopAnalysis survived its Session"
        assert plan_ref() is None, "StepPlan closures survived their analysis"
        assert all(r() is None for r in array_refs), \
            "compiled expressions kept their arrays alive"
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Cheap-marks mode
# ----------------------------------------------------------------------


def test_cheap_marks_counts_match_full():
    pa, _ = stencil_program(14, 2)
    full = pa.run(iters=4)
    cheap = pa.run(iters=4, marks="cheap")
    assert cheap.level == "cheap"
    assert full.level == "full"
    # no per-op schedule marks were materialized...
    assert cheap.schedule_events() == []
    assert cheap.mark_counts
    # ...but every count, rate, and wire number is unchanged
    assert cheap.schedule_counts() == full.schedule_counts()
    assert cheap.schedule_counts("gather") == full.schedule_counts("gather")
    assert cheap.schedule_directions() == full.schedule_directions()
    assert cheap.schedule_hit_rate() == full.schedule_hit_rate()
    assert cheap.message_count() == full.message_count()
    assert cheap.total_bytes() == full.total_bytes()


def test_cheap_marks_for_gather_and_repartition():
    g = ProcessorGrid((2,))
    A = DistArray((10,), g, dist=("block",), name="A")
    A.from_global(np.arange(10.0))
    idx = np.array([[1], [8], [3]])

    def program(ctx):
        yield from ctx.cached_gather(g, A, idx)
        yield from ctx.cached_gather(g, A, idx)
        yield from ctx.redistribute(A, ("cyclic",))

    full_t = Session(Machine(n_procs=2), g).run(program)
    A2 = DistArray((10,), g, dist=("block",), name="A")
    A2.from_global(np.arange(10.0))

    def program2(ctx):
        yield from ctx.cached_gather(g, A2, idx)
        yield from ctx.cached_gather(g, A2, idx)
        yield from ctx.redistribute(A2, ("cyclic",))

    cheap_t = Session(Machine(n_procs=2), g, marks="cheap").run(program2)
    assert cheap_t.level == "cheap"
    assert cheap_t.schedule_counts("gather") == full_t.schedule_counts("gather")
    assert (cheap_t.schedule_counts("repartition")
            == full_t.schedule_counts("repartition"))
    assert cheap_t.schedule_hit_rate("gather") == full_t.schedule_hit_rate("gather")
    assert cheap_t.message_count() == full_t.message_count()


@pytest.mark.parametrize("pipelined", [False, True], ids=["per-line", "pipelined"])
def test_cheap_marks_for_line_solves(pipelined):
    """A line solve's plan mark and its per-line routing marks are
    counted, not recorded, in a cheap-marks run, like every other
    schedule event."""
    from repro.tensor.adi import adi_solve
    from repro.tensor.poisson import manufactured_2d

    _, f = manufactured_2d(16)
    g = ProcessorGrid((2, 2))

    def solve(session):
        return adi_solve(session.machine, g, f, iters=2, pipelined=pipelined,
                         session=session)

    full_u, full_t = solve(Session(Machine(n_procs=4), g))
    cheap_u, cheap_t = solve(Session(Machine(n_procs=4), g, marks="cheap"))
    assert cheap_u.tobytes() == full_u.tobytes()
    assert cheap_t.schedule_events() == []
    assert cheap_t.schedule_counts() == full_t.schedule_counts()
    assert cheap_t.schedule_directions() == full_t.schedule_directions()
    assert cheap_t.message_count() == full_t.message_count()


def test_marks_validation():
    from repro.util.errors import ValidationError

    with pytest.raises(ValidationError, match="marks"):
        Session(marks="nope")
    g = ProcessorGrid((1,))
    from repro.lang.context import KaliCtx

    with pytest.raises(ValidationError, match="marks"):
        KaliCtx(0, g, session=Session(), marks="loud")
