"""Property test: the compiled replay is bit-identical to the sequential
reference across distributions, stencil shapes, overlap modes, and
mid-run redistribution.

For every drawn case the program runs in both launch forms --
``Program.run`` (the direct phase walk, trace from the oracle) and a
parsub calling ``ctx.doall`` (the op stream on the simulator, values
moved at the grid rendezvous).  The values of
each must equal :func:`repro.baselines.doall_reference` run from the
globals captured before the run (itself checked against the stencil
written in plain numpy); the two forms must agree exactly on the full
message stream (sources, destinations, tags, byte counts, timings),
marks, compute charges, and the schedule / plan hit accounting; and the
message and byte counts must be the static estimate's exact ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Machine, ProcessorGrid, Session
from repro.baselines import doall_reference
from repro.compiler.estimate import estimate_doall
from repro.lang import Assign, BlockCyclic, DistArray, Doall, Owner, loopvars


def _dist_of(kind: str):
    if kind.startswith("blockcyclic"):
        return BlockCyclic(int(kind.rsplit("-", 1)[1]))
    return kind


def trace_sig(trace):
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


@st.composite
def stencil_cases(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=max(8, 2 * p), max_value=24))
    kind = draw(st.sampled_from(["block", "cyclic", "blockcyclic-2"]))
    write_kind = draw(st.sampled_from(["same", "block", "cyclic"]))
    off_l = draw(st.integers(min_value=1, max_value=2))
    off_r = draw(st.integers(min_value=1, max_value=2))
    overlap = draw(st.booleans())
    iters = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return p, n, kind, write_kind, off_l, off_r, overlap, iters, seed


@given(stencil_cases())
@settings(max_examples=25, deadline=None)
def test_compiled_equals_interpreted(case):
    p, n, kind, write_kind, off_l, off_r, overlap, iters, seed = case
    values = np.random.default_rng(seed).standard_normal(n)
    wkind = kind if write_kind == "same" else write_kind

    def run(form):
        g = ProcessorGrid((p,))
        u = DistArray((n,), g, dist=(_dist_of(kind),), name="u")
        v = DistArray((n,), g, dist=(_dist_of(wkind),), name="v")
        u.from_global(values)
        (i,) = loopvars("i")
        loop = Doall(
            vars=(i,),
            ranges=[(off_l, n - 1 - off_r)],
            on=Owner(u, (i,)),
            body=[Assign(v[i], 2.0 * u[i - off_l] - u[i + off_r] + 0.5)],
            grid=g,
        )
        state = {u: u.to_global(), v: v.to_global()}
        sess = Session(Machine(n_procs=p), g)
        prog = repro.compile(loop, session=sess)
        if form == "program":
            # the direct phase walk + the trace oracle
            trace = prog.run(iters=iters, overlap=overlap)
        else:
            # the op stream on the simulator, values at the rendezvous
            def parsub(ctx):
                for _ in range(iters):
                    yield from ctx.doall(loop, overlap=overlap)

            trace = sess.run(parsub)
        doall_reference([loop], state, iters)
        assert v.to_global().tobytes() == state[v].tobytes(), form
        assert u.to_global().tobytes() == state[u].tobytes(), form
        (est,) = prog.loop_estimates()
        assert trace.message_count() == iters * est.total_messages(), form
        assert trace.total_bytes() == iters * est.total_bytes(), form
        return v.to_global(), trace, sess

    xa, ta, sa = run("program")
    xb, tb, sb = run("parsub")
    assert trace_sig(ta) == trace_sig(tb)
    # cache accounting (plan hits, schedule hit rates) must agree too
    assert sa.plans.kind_stats() == sb.plans.kind_stats()
    assert ta.schedule_hit_rate() == tb.schedule_hit_rate()
    assert ta.schedule_directions() == tb.schedule_directions()
    # and the reference itself against the stencil in plain numpy (u is
    # only read, so every sweep stores the same values)
    at = np.arange(off_l, n - off_r)
    expect = np.zeros(n)
    expect[at] = 2.0 * values[at - off_l] - values[at + off_r] + 0.5
    np.testing.assert_array_equal(xa, expect)


@st.composite
def redistribution_cases(draw):
    p = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2 * p + 4, max_value=20))
    kinds = draw(
        st.lists(st.sampled_from(["block", "cyclic", "blockcyclic-2"]),
                 min_size=2, max_size=3, unique=True)
    )
    sweeps = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return p, n, kinds, sweeps, seed


@given(redistribution_cases())
@settings(max_examples=15, deadline=None)
def test_equivalence_across_mid_run_redistribution(case):
    """Layout flips mid-run move the probes to other layouts' plans: the
    values stay the reference's, each layout compiles once, and the
    doalls move exactly the messages and bytes each layout's static
    estimate predicts."""
    p, n, kinds, sweeps, seed = case
    g = ProcessorGrid((p,))
    u = DistArray((n,), g, dist=(_dist_of(kinds[0]),), name="u")
    v = DistArray((n,), g, dist=(_dist_of(kinds[0]),), name="v")
    u.from_global(np.random.default_rng(seed).standard_normal(n))
    (i,) = loopvars("i")
    loop = Doall(
        vars=(i,),
        ranges=[(1, n - 2)],
        on=Owner(u, (i,)),
        body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))],
        grid=g,
    )
    state = {u: u.to_global(), v: v.to_global()}
    sess = Session(Machine(n_procs=p), g)

    def program(ctx):
        for kind in kinds[1:] + kinds[:1]:
            for _ in range(sweeps):
                yield from ctx.doall(loop)
            yield from ctx.redistribute(u, (_dist_of(kind),))

    trace = sess.run(program)
    doall_reference([loop], state, sweeps * len(kinds))
    assert u.to_global().tobytes() == state[u].tobytes()
    assert v.to_global().tobytes() == state[v].tobytes()
    assert sess.plans.kind_stats()["doall"]["misses"] == len(kinds)

    # the doalls ran once per layout in ``kinds`` order: estimate each
    want_msgs = want_bytes = 0
    for kind in kinds:
        u.redistribute((_dist_of(kind),))
        est = estimate_doall(loop)
        want_msgs += sweeps * est.total_messages()
        want_bytes += sweeps * est.total_bytes()
    doall_msgs = [m for m in trace.messages
                  if str(m.tag[1]).startswith(("gh", "wr"))]
    assert len(doall_msgs) == want_msgs
    assert sum(m.nbytes for m in doall_msgs) == want_bytes
