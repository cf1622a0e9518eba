"""Tests for the SPMD context: tags, collectives, Session.run."""


import numpy as np
import pytest

from repro import Session, inspector_gather
from repro.lang import Assign, DistArray, Doall, KaliCtx, Owner, ProcessorGrid, loopvars
from repro.machine import Compute, Machine
from repro.util.errors import ValidationError


def test_ctx_requires_membership():
    g = ProcessorGrid((2,))
    with pytest.raises(ValidationError):
        KaliCtx(5, g)


def test_tags_deterministic_per_grid():
    g = ProcessorGrid((2, 2))
    c0 = KaliCtx(0, g)
    c3 = KaliCtx(3, g)
    assert c0.next_tag(g) == c3.next_tag(g)
    assert c0.next_tag(g) == c3.next_tag(g)
    # different grids have independent counters
    col = g[:, 0]
    t_col = c0.next_tag(col)
    t_full = c0.next_tag(g)
    assert t_col != t_full


def test_ctx_allreduce():
    m = Machine(n_procs=4)
    g = ProcessorGrid((4,))
    results = {}

    def prog(ctx):
        total = yield from ctx.allreduce(g, ctx.rank + 1)
        results[ctx.rank] = total

    Session(m, g).run(prog)
    assert all(v == 10 for v in results.values())


def test_ctx_allreduce_max_on_subgrid():
    m = Machine(n_procs=4)
    g = ProcessorGrid((2, 2))
    col = g[:, 1]
    results = {}

    def prog(ctx):
        if col.contains(ctx.rank):
            v = yield from ctx.allreduce(col, float(ctx.rank), op=max)
            results[ctx.rank] = v
        else:
            yield Compute(seconds=0.0)

    Session(m, g).run(prog)
    assert results == {1: 3.0, 3: 3.0}


def test_ctx_bcast_and_gather():
    m = Machine(n_procs=3)
    g = ProcessorGrid((3,))
    results = {}

    def prog(ctx):
        v = yield from ctx.bcast(g, "seed" if ctx.rank == 1 else None, root=1)
        items = yield from ctx.gather(g, ctx.rank * 2, root=0)
        results[ctx.rank] = (v, items)

    Session(m, g).run(prog)
    assert all(v == "seed" for v, _ in results.values())
    assert results[0][1] == [0, 2, 4]
    assert results[1][1] is None


def test_session_run_grid_too_big():
    m = Machine(n_procs=2)
    g = ProcessorGrid((4,))
    with pytest.raises(ValidationError):
        Session(m, g).run(lambda ctx: iter(()))


def test_session_run_needs_machine_and_grid():
    with pytest.raises(ValidationError):
        Session().run(lambda ctx: iter(()))
    with pytest.raises(ValidationError):
        Session(Machine(n_procs=2)).run(lambda ctx: iter(()))


def test_session_run_returns_trace_and_records_history():
    m = Machine(n_procs=2)
    g = ProcessorGrid((2,))

    def prog(ctx):
        yield Compute(seconds=2.0)

    s = Session(m, g)
    trace = s.run(prog)
    assert trace.makespan() == 2.0
    assert trace.busy_time(0) == 2.0
    assert s.history == [trace]


def _sessionless_case():
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 7)], Owner(A, (i,)), [Assign(A[i], A[i] + 1.0)], g)
    return g, A, loop


@pytest.mark.parametrize("call", [
    lambda ctx, g, A, loop: ctx.doall(loop),
    lambda ctx, g, A, loop: ctx.cached_gather(g, A, np.array([[0]])),
    lambda ctx, g, A, loop: ctx.redistribute(A, ("cyclic",)),
], ids=["doall", "cached_gather", "redistribute"])
def test_sessionless_ctx_rejects_cached_collectives_at_call_time(call):
    """No Session, no cache: the call itself raises (nothing was
    iterated, so no op was yielded) and names the way out."""
    g, A, loop = _sessionless_case()
    with pytest.raises(ValidationError, match=r"Session\(\.\.\.\)\.run.*repro\.compile"):
        call(KaliCtx(0, g), g, A, loop)
    assert A.dist.spec_key() == (("block",),)
    np.testing.assert_array_equal(A.to_global(), np.arange(8.0))


def test_sessionless_ctx_still_serves_inspector_gather_and_collectives():
    """What needs no cache needs no Session: the uncached irregular
    gather and the grid collectives."""
    g, A, _ = _sessionless_case()
    results = {}

    def prog(ctx):
        got = yield from inspector_gather(ctx, g, A, np.array([[7 - ctx.rank]]))
        total = yield from ctx.allreduce(g, ctx.rank + 1)
        results[ctx.rank] = (float(got[0]), total)

    trace = Machine(n_procs=2).run({r: prog(KaliCtx(r, g)) for r in g.linear})
    assert results == {0: (7.0, 3), 1: (6.0, 3)}
    assert trace.schedule_counts() == {}


# ----------------------------------------------------------------------
# Concurrency: the serving layer drives contexts/counters from threads
# ----------------------------------------------------------------------


def test_next_tag_never_duplicates_under_threads():
    """Regression for the read-modify-write tag counter: a context
    driven from several threads must hand out every tag exactly once
    (a duplicate silently aliases two collectives' message streams)."""
    import threading

    g = ProcessorGrid((2,))
    sub = g[0:1]
    ctx = KaliCtx(0, g)
    tags: list = []

    def grab():
        out = []
        for _ in range(1000):
            out.append(ctx.next_tag(g))
            out.append(ctx.next_tag(sub))
        tags.extend(out)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(tags)) == len(tags) == 16000
