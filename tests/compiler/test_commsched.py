"""Tests for cached irregular gathers (inspector -> plan -> executor).

Covers the contract of the grid-wide :class:`GatherPlan`: a cached
replay is bit-identical to a fresh inspector gather, the plan cache hits
and misses as keyed (one probe per collective call), and a
redistribution moves the key so the old layout's plan never replays
against the new one.
"""

import numpy as np
import pytest

from repro.compiler import GatherPlan, gather_key, index_fingerprint, inspector_gather
from repro.lang import BlockCyclic, DistArray, ProcessorGrid
from repro.machine import Machine
from repro.session import Session
from repro.util.errors import DeadlockError, ValidationError


def _random_indices(rng, n, ndim, count):
    return rng.integers(0, n, size=(count, ndim))


def _run_uncached(p, array_factory, index_of):
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = array_factory(g)
    results = {}

    def prog(ctx):
        results[ctx.rank] = yield from inspector_gather(ctx, g, A, index_of(ctx.rank))

    trace = Session(m, g).run(prog)
    return results, trace


def _run_cached(p, array_factory, index_of, sweeps=3):
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = array_factory(g)
    session = Session(m, g)
    results = {r: [] for r in range(p)}

    def prog(ctx):
        for _ in range(sweeps):
            vals = yield from ctx.cached_gather(g, A, index_of(ctx.rank))
            results[ctx.rank].append(vals)

    trace = session.run(prog)
    return results, trace, session


@pytest.mark.parametrize("dist", ["block", "cyclic", BlockCyclic(3)])
def test_replay_matches_fresh_inspection(dist):
    n, p = 24, 3
    rng = np.random.default_rng(7)
    idx = {r: _random_indices(rng, n, 1, 5 + r) for r in range(p)}

    def make(g):
        A = DistArray((n,), g, dist=(dist,), name="A")
        A.from_global(rng.standard_normal(n))
        return A

    # array values must agree between the two runs
    rng_a = np.random.default_rng(42)
    vals = rng_a.standard_normal(n)

    def make_fixed(g):
        A = DistArray((n,), g, dist=(dist,), name="A")
        A.from_global(vals)
        return A

    uncached, _ = _run_uncached(p, make_fixed, lambda r: idx[r])
    cached, _, _ = _run_cached(p, make_fixed, lambda r: idx[r], sweeps=3)
    for r in range(p):
        for sweep_vals in cached[r]:
            np.testing.assert_array_equal(uncached[r], sweep_vals)


def test_replay_observes_current_values():
    """Schedules cache the *pattern*, not the data: replays see updates."""
    n, p = 16, 2
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    got = {r: [] for r in range(p)}
    idx = {0: np.array([[15]]), 1: np.array([[0]])}
    group = tuple(g.linear)

    def prog(ctx):
        from repro.machine.ops import Barrier

        for sweep in range(2):
            vals = yield from ctx.cached_gather(g, A, idx[ctx.rank])
            got[ctx.rank].append(float(vals[0]))
            yield Barrier(group=group, tag=("mutate", sweep))
            A.local(ctx.rank)[...] += 100.0
            yield Barrier(group=group, tag=("mutated", sweep))

    Session(m, g).run(prog)
    assert got[0] == [15.0, 115.0]
    assert got[1] == [0.0, 100.0]


def test_cache_hit_miss_semantics():
    n, p, sweeps = 20, 4, 4
    rng = np.random.default_rng(3)
    idx = {r: _random_indices(rng, n, 1, 4) for r in range(p)}

    def make(g):
        A = DistArray((n,), g, dist=("block",), name="A")
        A.from_global(np.arange(float(n)))
        return A

    _, trace, session = _run_cached(p, make, lambda r: idx[r], sweeps=sweeps)
    # one probe per collective call: the first misses, every later hits
    assert session.stats()["schedules"] == {"hits": sweeps - 1, "misses": 1}
    assert session.hit_rates()["gather"] == pytest.approx((sweeps - 1) / sweeps)
    # ... while the marks stay per rank
    counts = trace.schedule_counts()
    assert counts["miss"] == p
    assert counts["hit"] == p * (sweeps - 1)
    assert trace.schedule_hit_rate() == pytest.approx((sweeps - 1) / sweeps)


def test_changed_pattern_misses():
    """A new index pattern on all ranks is a fresh collective build."""
    n, p = 20, 2
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    session = Session(m, g)

    def prog(ctx):
        yield from ctx.cached_gather(g, A, np.array([[1], [2]]))
        yield from ctx.cached_gather(g, A, np.array([[3], [4]]))
        yield from ctx.cached_gather(g, A, np.array([[1], [2]]))

    session.run(prog)
    # two distinct patterns; the third call replays the first
    assert session.stats()["schedules"] == {"hits": 1, "misses": 2}


def test_invalidation_after_redistribution():
    n, p = 24, 2
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    values = np.arange(float(n)) * 3.0
    A.from_global(values)
    session = Session(m, g)
    idx = {0: np.array([[23], [1], [12]]), 1: np.array([[0], [13]])}
    collected = []

    def prog(ctx):
        vals = yield from ctx.cached_gather(g, A, idx[ctx.rank])
        collected.append((ctx.rank, "pre", vals.copy()))

    session.run(prog)
    assert session.stats()["schedules"] == {"hits": 0, "misses": 1}

    # redistribute: same values, new layout -> old schedules must not hit
    epoch_before = A.comm_epoch
    A.redistribute(("cyclic",))
    assert A.comm_epoch == epoch_before + 1
    np.testing.assert_array_equal(A.to_global(), values)

    def prog2(ctx):
        vals = yield from ctx.cached_gather(g, A, idx[ctx.rank])
        collected.append((ctx.rank, "post", vals.copy()))

    session.run(prog2, machine=Machine(n_procs=p))
    # rebuilt against the new layout
    assert session.stats()["schedules"] == {"hits": 0, "misses": 2}
    pre = {r: v for r, t, v in collected if t == "pre"}
    post = {r: v for r, t, v in collected if t == "post"}
    for r in range(p):
        np.testing.assert_array_equal(pre[r], post[r])


def test_stale_schedule_replay_raises():
    """Applying a gather plan after its array was redistributed is an
    error, not a read of the wrong elements."""
    g = ProcessorGrid((2,))
    A = DistArray((16,), g, dist=("block",), name="A")
    A.from_global(np.arange(16.0))
    plan = GatherPlan(A, g, {0: np.array([[15]]), 1: np.array([[14]])})
    assert float(plan.apply(A)[0][0]) == 15.0
    A.redistribute(("cyclic",))
    with pytest.raises(ValidationError, match="stale gather plan"):
        plan.apply(A)


def test_empty_request_ranks():
    n, p = 18, 3
    only = {0: np.array([[17], [5]]), 1: None, 2: np.empty((0, 1), dtype=np.int64)}

    def make(g):
        A = DistArray((n,), g, dist=("cyclic",), name="A")
        A.from_global(np.arange(float(n)) * 2.0)
        return A

    cached, trace, _ = _run_cached(p, make, lambda r: only[r], sweeps=2)
    np.testing.assert_array_equal(cached[0][0], [34.0, 10.0])
    np.testing.assert_array_equal(cached[0][1], [34.0, 10.0])
    assert cached[1][0].size == 0 and cached[2][0].size == 0


def test_replay_halves_messages():
    """Replay skips the request round and empty replies entirely."""
    n, p = 32, 4
    idx = {r: np.array([[(r + 1) * 8 % n]]) for r in range(p)}  # one remote owner each

    def make(g):
        A = DistArray((n,), g, dist=("block",), name="A")
        A.from_global(np.arange(float(n)))
        return A

    _, t_un = _run_uncached(p, make, lambda r: idx[r])
    _, t_ca, _ = _run_cached(p, make, lambda r: idx[r], sweeps=2)
    per_sweep_uncached = t_un.message_count()  # 2 * p * (p - 1)
    assert per_sweep_uncached == 2 * p * (p - 1)
    replay_msgs = t_ca.message_count() - per_sweep_uncached  # second sweep only
    assert replay_msgs == p  # one coalesced value message per requester
    assert replay_msgs * 2 <= per_sweep_uncached


def test_replay_preserves_dtype():
    n, p = 12, 2

    def make(g):
        A = DistArray((n,), g, dist=("block",), name="A", dtype=np.int32)
        A.from_global(np.arange(n, dtype=np.int32))
        return A

    idx = {0: np.array([[11]]), 1: np.array([[0]])}
    cached, _, _ = _run_cached(p, make, lambda r: idx[r], sweeps=2)
    for r in range(p):
        for vals in cached[r]:
            assert vals.dtype == np.int32


def test_schedule_key_includes_rank_and_epoch():
    """The gather key lists every rank's pattern in grid order (two
    ranks swapping patterns is another gather) and follows the layout
    key, which a manual invalidation moves."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    fa = index_fingerprint(np.array([[1]]))
    fb = index_fingerprint(np.array([[6]]))
    k0 = gather_key(A, g, {0: fa, 1: fb})
    assert k0 == gather_key(A, g, {1: fb, 0: fa})
    assert k0 != gather_key(A, g, {0: fb, 1: fa})
    A.invalidate_schedules()
    assert gather_key(A, g, {0: fa, 1: fb}) != k0


def test_2d_gather_replay():
    p = 2
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((4, 6), g, dist=("*", "block"), name="A")
    ref = np.arange(24.0).reshape(4, 6)
    A.from_global(ref)
    results = {r: [] for r in range(p)}
    idx = {0: np.array([[0, 0], [3, 5], [2, 2]]), 1: np.array([[1, 4]])}

    def prog(ctx):
        for _ in range(3):
            vals = yield from ctx.cached_gather(g, A, idx[ctx.rank])
            results[ctx.rank].append(vals)

    Session(m, g).run(prog)
    for vals in results[0]:
        np.testing.assert_array_equal(vals, [ref[0, 0], ref[3, 5], ref[2, 2]])
    for vals in results[1]:
        np.testing.assert_array_equal(vals, [ref[1, 4]])


def test_cache_eviction_bound():
    """Gather plans live in the plan cache, under its LRU bound."""
    n, p = 12, 1
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    session = Session(Machine(n_procs=p), g, max_plan_entries=2)

    def prog(ctx):
        for j in range(4):
            yield from ctx.cached_gather(g, A, np.array([[j]]))

    session.run(prog)
    assert len(session.plans) == 2
    assert session.stats()["schedules"] == {"hits": 0, "misses": 4}


def test_divergent_pattern_with_miss_verdict_rebuilds_consistently():
    """The first rank to reach the call changes its pattern, the other
    keeps its old one: the key moves, so the whole grid rebuilds with
    the right values."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    session = Session(Machine(n_procs=2), g)
    got = {}

    def prog(ctx):
        yield from ctx.cached_gather(g, A, np.array([[7 - 7 * ctx.rank]]))
        idx = np.array([[3]]) if ctx.rank == 0 else np.array([[0]])
        got[ctx.rank] = yield from ctx.cached_gather(g, A, idx)

    trace = session.run(prog)
    assert float(got[0][0]) == 3.0
    assert float(got[1][0]) == 0.0
    assert session.stats()["schedules"] == {"hits": 0, "misses": 2}
    assert trace.schedule_counts() == {"miss": 4}


def test_one_rank_changing_its_pattern_alone_rebuilds():
    """A later rank changes its pattern alone while the first keeps
    its: no ``divergent index pattern`` error any more -- the key of the
    whole grid moves, every rank rebuilds, and the values are right."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0) * 10.0)
    session = Session(Machine(n_procs=2), g)
    got = {}

    def prog(ctx):
        yield from ctx.cached_gather(g, A, np.array([[7 - 7 * ctx.rank]]))
        idx = np.array([[7]]) if ctx.rank == 0 else np.array([[4]])
        got[ctx.rank] = yield from ctx.cached_gather(g, A, idx)

    trace = session.run(prog)
    assert (float(got[0][0]), float(got[1][0])) == (70.0, 40.0)
    assert session.stats()["schedules"] == {"hits": 0, "misses": 2}
    assert trace.schedule_counts() == {"miss": 4}


def test_eviction_is_group_atomic():
    """Capacity pressure evicts a whole grid's plan, never one rank's
    share: p=3 alternating two patterns through a one-entry cache
    rebuilds consistently on every call, with the right values."""
    n, p = 24, 3
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    session = Session(Machine(n_procs=p), g, max_plan_entries=1)
    pat_a = {r: np.array([[(r * 7) % n]]) for r in range(p)}
    pat_b = {r: np.array([[(r * 5 + 1) % n]]) for r in range(p)}
    got = {r: [] for r in range(p)}

    def prog(ctx):
        for pat in (pat_a, pat_b, pat_a, pat_b):
            vals = yield from ctx.cached_gather(g, A, pat[ctx.rank])
            got[ctx.rank].append(vals.copy())

    trace = session.run(prog)
    for r in range(p):
        np.testing.assert_array_equal(got[r][0], got[r][2])
        np.testing.assert_array_equal(got[r][1], got[r][3])
        assert got[r][0][0] == float((r * 7) % n)
        assert got[r][1][0] == float((r * 5 + 1) % n)
    assert len(session.plans) == 1
    assert trace.schedule_counts() == {"miss": 4 * p}


def test_oversized_collective_does_not_self_evict():
    """A whole collective is one plan-cache entry, so even a one-entry
    cache replays it on every rank."""
    n, p = 16, 4
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    idx = {r: np.array([[(r + 1) * 3 % n]]) for r in range(p)}

    def prog(ctx):
        for _ in range(3):
            yield from ctx.cached_gather(g, A, idx[ctx.rank])

    trace = Session(Machine(n_procs=p), g, max_plan_entries=1).run(prog)
    # one consistent build, then consistent hits everywhere
    assert trace.schedule_counts() == {"miss": p, "hit": 2 * p}


def test_plan_entries_bounded_by_layouts_visited_and_lru():
    """Plan keys name layouts by value, so a redistribution leaves the
    old layout's plan cached for a return: the entry count follows the
    *distinct* layouts visited, never the number of flips -- and layouts
    that do not come back are reclaimed by ``max_entries`` alone."""
    from repro.lang import Assign, Doall, Owner, loopvars

    n, p = 12, 2
    g = ProcessorGrid((p,))
    u = DistArray((n,), g, dist=("block",), name="u")
    v = DistArray((n,), g, dist=("block",), name="v")
    u0 = np.arange(float(n))
    u.from_global(u0)
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, n - 2)], on=Owner(v, (i,)),
                 body=[Assign(v[i], u[i - 1] + u[i + 1])], grid=g)
    want = np.zeros(n)
    want[1:-1] = u0[:-2] + u0[2:]

    def prog(ctx):
        yield from ctx.doall(loop)

    def sweep_in(session, layout):
        # host-side redistribution, outside any run
        u.redistribute((layout,))
        v.redistribute((layout,))
        v.fill(0.0)
        session.run(prog, machine=Machine(n_procs=p))
        np.testing.assert_array_equal(v.to_global(), want)

    session = Session(grid=g)
    for k in range(6):
        sweep_in(session, "cyclic" if k % 2 else "block")
        assert len(session.plans) == min(k + 1, 2)  # two layouts, ever
    assert session.plans.kind_stats()["doall"]["misses"] == 2

    cap = 3
    small = Session(grid=g, max_plan_entries=cap)
    layouts = ["block", "cyclic"] + [BlockCyclic(b) for b in range(1, 6)]
    for k, layout in enumerate(layouts):
        sweep_in(small, layout)
        assert len(small.plans) == min(k + 1, cap)
    assert small.plans.kind_stats()["doall"]["misses"] == len(layouts)


def test_aborted_run_does_not_poison_later_runs():
    """One rank skips a cached gather: the others park at its
    rendezvous until the run fails naming it, nothing is cached, and a
    correct parsub on the same Session then gets the right values."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    session = Session(Machine(n_procs=2), g)

    def skipping(ctx):
        if ctx.rank == 0:
            yield from ctx.cached_gather(g, A, np.array([[7]]))

    with pytest.raises(DeadlockError, match="rendezvous"):
        session.run(skipping)
    assert len(session.plans) == 0
    assert session.stats()["schedules"] == {"hits": 0, "misses": 0}

    got = {}

    def consistent(ctx):
        got[ctx.rank] = []
        for _ in range(2):
            v = yield from ctx.cached_gather(g, A, np.array([[6 - 5 * ctx.rank]]))
            got[ctx.rank].append(float(v[0]))

    session.run(consistent)
    assert got == {0: [6.0, 6.0], 1: [1.0, 1.0]}
    assert session.stats()["schedules"] == {"hits": 1, "misses": 1}


def test_peer_diverging_into_a_doall_deadlocks_naming_both():
    """A rank that reaches a doall where its peer gathers (same per-grid
    tag) does not join the gather's rendezvous: nothing moves, and the
    run fails naming both."""
    from repro.lang import Assign, Doall, Owner, loopvars

    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    B = DistArray((8,), g, dist=("block",), name="B")
    (i,) = loopvars("i")
    loop = Doall((i,), [(0, 7)], Owner(B, (i,)), [Assign(B[i], A[i] + 1.0)], g)

    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.cached_gather(g, A, np.array([[7]]))
        else:
            yield from ctx.doall(loop)

    with pytest.raises(DeadlockError) as err:
        Session(Machine(n_procs=2), g).run(prog)
    assert "'gather'" in str(err.value) and str(err.value).count("rendezvous") == 2
    np.testing.assert_array_equal(B.to_global(), np.zeros(8))


def test_invalidate_array_reaches_section_schedules():
    """Invalidating a base array purges gather plans built on its
    sections."""
    p = 2
    g = ProcessorGrid((p,))
    u = DistArray((4, 6), g, dist=("*", "block"), name="u")
    u.from_global(np.arange(24.0).reshape(4, 6))
    sec = u[0, :]
    session = Session(Machine(n_procs=p), g)
    idx = {0: np.array([[5]]), 1: np.array([[0]])}

    def prog(ctx):
        yield from ctx.cached_gather(g, sec, idx[ctx.rank])

    session.run(prog)
    assert session.plans.kind_stats() == {"gather": {"hits": 0, "misses": 1}}
    assert len(session.plans) == 1
    u.invalidate_schedules()  # base invalidation reaches the section's plan
    assert len(session.plans) == 0


def test_fingerprint_hashed_once_per_gather_call(monkeypatch):
    """The index fingerprint is the one per-rank, per-call hash: the
    plan key and the mark payload share a single computation."""
    from repro.compiler import commsched

    calls = {"n": 0}
    real = commsched.index_fingerprint

    def counting(indices):
        calls["n"] += 1
        return real(indices)

    monkeypatch.setattr(commsched, "index_fingerprint", counting)

    p = 2
    g = ProcessorGrid((p,))
    A = DistArray((10,), g, dist=("block",), name="A")
    A.from_global(np.arange(10.0))
    idx = {0: np.array([[1], [7]]), 1: np.array([[3]])}
    sweeps = 4

    def prog(ctx):
        for _ in range(sweeps):
            yield from ctx.cached_gather(g, A, idx[ctx.rank])

    trace = Session(Machine(n_procs=p), g).run(prog)
    # one hash per rank per collective call -- build and replay alike
    assert calls["n"] == p * sweeps
    # the replay marks carry the same fingerprint as the build marks
    hits = [m for m in trace.marks if m.label == "commsched/hit"]
    misses = [m for m in trace.marks if m.label == "commsched/miss"]
    assert len(hits) == p * (sweeps - 1) and len(misses) == p
    by_rank_fp = {m.proc: m.payload[2] for m in misses}
    for m in hits:
        assert m.payload[2] == by_rank_fp[m.proc]
