"""Tests for cached communication schedules (inspector -> executor).

Covers the tentpole contract: schedule build/replay is bit-identical to
a fresh inspector gather, cache hits/misses behave as keyed, and
redistribution invalidates stale schedules.
"""

import numpy as np
import pytest

from repro.compiler import (
    ScheduleCache,
    build_gather_schedule,
    execute_gather,
    inspector_gather,
    schedule_key,
)
from repro.lang import BlockCyclic, DistArray, ProcessorGrid
from repro.machine import Machine
from repro.session import Session
from repro.util.errors import ValidationError


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


def _run_cached(p, array_factory, index_of, sweeps=3, cache=None):
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = array_factory(g)
    cache = cache if cache is not None else ScheduleCache()
    results = {r: [] for r in range(p)}

    def prog(ctx):
        for _ in range(sweeps):
            vals = yield from ctx.cached_gather(g, A, index_of(ctx.rank), cache=cache)
            results[ctx.rank].append(vals)

    trace = Session(m, g).run(prog)
    return results, trace, cache


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
    cache = ScheduleCache()
    got = {r: [] for r in range(p)}
    idx = {0: np.array([[15]]), 1: np.array([[0]])}
    group = tuple(g.linear)

    def prog(ctx):
        from repro.machine.ops import Barrier

        for sweep in range(2):
            vals = yield from ctx.cached_gather(g, A, idx[ctx.rank], cache=cache)
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

    _, trace, cache = _run_cached(p, make, lambda r: idx[r], sweeps=sweeps)
    # first sweep misses on every rank, every later sweep hits everywhere
    assert cache.misses == p
    assert cache.hits == p * (sweeps - 1)
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
    cache = ScheduleCache()

    def prog(ctx):
        yield from ctx.cached_gather(g, A, np.array([[1], [2]]), cache=cache)
        yield from ctx.cached_gather(g, A, np.array([[3], [4]]), cache=cache)
        yield from ctx.cached_gather(g, A, np.array([[1], [2]]), cache=cache)

    Session(m, g).run(prog)
    assert cache.misses == 2 * p  # two distinct patterns
    assert cache.hits == p  # third call replays the first pattern


def test_invalidation_after_redistribution():
    n, p = 24, 2
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    values = np.arange(float(n)) * 3.0
    A.from_global(values)
    cache = ScheduleCache()
    idx = {0: np.array([[23], [1], [12]]), 1: np.array([[0], [13]])}
    collected = []

    def prog(ctx):
        vals = yield from ctx.cached_gather(g, A, idx[ctx.rank], cache=cache)
        collected.append((ctx.rank, "pre", vals.copy()))

    Session(m, g).run(prog)
    assert cache.misses == p and cache.hits == 0

    # redistribute: same values, new layout -> old schedules must not hit
    epoch_before = A.comm_epoch
    A.redistribute(("cyclic",))
    assert A.comm_epoch == epoch_before + 1
    np.testing.assert_array_equal(A.to_global(), values)

    m2 = Machine(n_procs=p)

    def prog2(ctx):
        vals = yield from ctx.cached_gather(g, A, idx[ctx.rank], cache=cache)
        collected.append((ctx.rank, "post", vals.copy()))

    Session(m2, g).run(prog2)
    assert cache.misses == 2 * p  # rebuilt against the new layout
    pre = {r: v for r, t, v in collected if t == "pre"}
    post = {r: v for r, t, v in collected if t == "post"}
    for r in range(p):
        np.testing.assert_array_equal(pre[r], post[r])


def test_stale_schedule_replay_raises():
    """Directly replaying a schedule after redistribution is an error."""
    n, p = 16, 2
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    scheds = {}

    def build(ctx):
        sched, _ = yield from build_gather_schedule(
            ctx, g, A, np.array([[n - 1 - ctx.rank]])
        )
        scheds[ctx.rank] = sched

    Session(m, g).run(build)
    A.redistribute(("cyclic",))

    def replay(ctx):
        yield from execute_gather(ctx, scheds[ctx.rank], A)

    with pytest.raises(ValidationError, match="stale gather schedule"):
        Session(Machine(n_procs=p), g).run(replay)


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
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    idx = np.array([[1]])
    k0 = schedule_key(g, A, idx, 0)
    k1 = schedule_key(g, A, idx, 1)
    assert k0 != k1
    A.invalidate_schedules()
    assert schedule_key(g, A, idx, 0) != k0


def test_2d_gather_replay():
    p = 2
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((4, 6), g, dist=("*", "block"), name="A")
    ref = np.arange(24.0).reshape(4, 6)
    A.from_global(ref)
    cache = ScheduleCache()
    results = {r: [] for r in range(p)}
    idx = {0: np.array([[0, 0], [3, 5], [2, 2]]), 1: np.array([[1, 4]])}

    def prog(ctx):
        for _ in range(3):
            vals = yield from ctx.cached_gather(g, A, idx[ctx.rank], cache=cache)
            results[ctx.rank].append(vals)

    Session(m, g).run(prog)
    for vals in results[0]:
        np.testing.assert_array_equal(vals, [ref[0, 0], ref[3, 5], ref[2, 2]])
    for vals in results[1]:
        np.testing.assert_array_equal(vals, [ref[1, 4]])


def test_cache_eviction_bound():
    cache = ScheduleCache(max_entries=2)
    n, p = 12, 1
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))

    def prog(ctx):
        for j in range(4):
            yield from ctx.cached_gather(g, A, np.array([[j]]), cache=cache)

    Session(m, g).run(prog)
    assert len(cache) == 2
    assert cache.evictions == 2


def test_divergent_pattern_with_miss_verdict_rebuilds_consistently():
    """SPMD discipline: the per-call verdict is collective.  When the
    first rank to reach the call misses (it changed its pattern), every
    rank rebuilds -- including ranks whose old schedule is still cached
    -- so the protocols match and the values are correct."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    cache = ScheduleCache()
    got = {}

    def prog(ctx):
        yield from ctx.cached_gather(g, A, np.array([[7 - 7 * ctx.rank]]), cache=cache)
        # rank 0 (which reaches the call first) changes its pattern;
        # rank 1 keeps its old one
        idx = np.array([[3]]) if ctx.rank == 0 else np.array([[0]])
        got[ctx.rank] = yield from ctx.cached_gather(g, A, idx, cache=cache)

    Session(Machine(n_procs=2), g).run(prog)
    assert float(got[0][0]) == 3.0
    assert float(got[1][0]) == 0.0
    # second call was a consistent rebuild on both ranks
    assert cache.misses == 4 and cache.hits == 0


def test_divergent_pattern_with_hit_verdict_raises():
    """Opposite orientation: the first rank hits (kept its pattern) but a
    later rank brings a request set with no schedule in the replayed
    collective -- a loud, specific error instead of a deadlock."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    cache = ScheduleCache()

    def prog(ctx):
        yield from ctx.cached_gather(g, A, np.array([[7 - 7 * ctx.rank]]), cache=cache)
        # rank 1 changes its pattern; rank 0 (first to the call) does not
        idx = np.array([[7]]) if ctx.rank == 0 else np.array([[4]])
        yield from ctx.cached_gather(g, A, idx, cache=cache)

    with pytest.raises(ValidationError, match="divergent index pattern"):
        Session(Machine(n_procs=2), g).run(prog)


def test_eviction_is_group_atomic():
    """Capacity pressure must never evict only some ranks' schedules of
    one collective build: that would make the next call a hit on some
    ranks and a miss on others (a protocol mismatch).  Regression test:
    p=3 with max_entries=4 alternating two patterns used to crash."""
    n, p = 24, 3
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    cache = ScheduleCache(max_entries=4)  # not a multiple of p
    pat_a = {r: np.array([[(r * 7) % n]]) for r in range(p)}
    pat_b = {r: np.array([[(r * 5 + 1) % n]]) for r in range(p)}
    got = {r: [] for r in range(p)}

    def prog(ctx):
        for pat in (pat_a, pat_b, pat_a, pat_b):
            vals = yield from ctx.cached_gather(g, A, pat[ctx.rank], cache=cache)
            got[ctx.rank].append(vals.copy())

    Session(Machine(n_procs=p), g).run(prog)  # must not deadlock/crash
    for r in range(p):
        np.testing.assert_array_equal(got[r][0], got[r][2])
        np.testing.assert_array_equal(got[r][1], got[r][3])
        assert got[r][0][0] == float((r * 7) % n)
        assert got[r][1][0] == float((r * 5 + 1) % n)
    assert len(cache) <= 4
    # every eviction removed a whole collective (p entries at a time)
    assert cache.evictions % p == 0


def test_oversized_collective_does_not_self_evict():
    """A single collective larger than the cache stays intact (the cache
    runs over capacity rather than splitting the in-flight group)."""
    n, p = 16, 4
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    cache = ScheduleCache(max_entries=2)  # smaller than one collective
    idx = {r: np.array([[(r + 1) * 3 % n]]) for r in range(p)}

    def prog(ctx):
        for _ in range(3):
            yield from ctx.cached_gather(g, A, idx[ctx.rank], cache=cache)

    trace = Session(Machine(n_procs=p), g).run(prog)
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
    """A verdict left unconsumed by a crashed run must not be matched by
    the next run's identical tag sequence on the same cache."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    cache = ScheduleCache()

    def diverging(ctx):
        yield from ctx.cached_gather(g, A, np.array([[7 - 7 * ctx.rank]]), cache=cache)
        idx = np.array([[7]]) if ctx.rank == 0 else np.array([[4]])
        yield from ctx.cached_gather(g, A, idx, cache=cache)

    with pytest.raises(ValidationError, match="divergent index pattern"):
        Session(Machine(n_procs=2), g).run(diverging)

    # same cache, same array, same tag sequence -- a consistent program
    # must run cleanly and get the correct verdicts
    got = {}

    def consistent(ctx):
        got[ctx.rank] = []
        for _ in range(2):
            v = yield from ctx.cached_gather(
                g, A, np.array([[6 - 5 * ctx.rank]]), cache=cache
            )
            got[ctx.rank].append(float(v[0]))

    Session(Machine(n_procs=2), g).run(consistent)
    assert got == {0: [6.0, 6.0], 1: [1.0, 1.0]}


def test_straggler_store_cannot_recreate_evicted_group():
    """A rank's late store after its collective's group was evicted must
    not re-create the group with a subset of ranks (a later identical
    call would split into hit/miss across ranks)."""
    n, p = 16, 2
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    cache = ScheduleCache(max_entries=2)
    scheds = {}

    def build(ctx):
        sched, _ = yield from build_gather_schedule(
            ctx, g, A, np.array([[n - 1 - ctx.rank]])
        )
        scheds[ctx.rank] = sched

    Session(Machine(n_procs=p), g).run(build)
    cache.store(scheds[0])
    cache.store(scheds[1])
    assert len(cache) == 2

    # a second collective's stores evict the first group entirely...
    def build2(ctx):
        sched, _ = yield from build_gather_schedule(
            ctx, g, A, np.array([[ctx.rank]])
        )
        scheds[("b", ctx.rank)] = sched

    Session(Machine(n_procs=p), g).run(build2)
    cache.store(scheds[("b", 0)])
    cache.store(scheds[("b", 1)])
    assert len(cache) == 2  # first group evicted wholesale

    # ...so a straggler re-store of one first-group member is rejected
    cache.store(scheds[0])
    assert len(cache) == 2
    assert scheds[0].key not in cache._entries


def test_invalidate_array_reaches_section_schedules():
    """Invalidating a base array purges schedules built on its sections."""
    p = 2
    g = ProcessorGrid((p,))
    u = DistArray((4, 6), g, dist=("*", "block"), name="u")
    u.from_global(np.arange(24.0).reshape(4, 6))
    sec = u[0, :]
    cache = ScheduleCache()
    idx = {0: np.array([[5]]), 1: np.array([[0]])}

    def prog(ctx):
        yield from ctx.cached_gather(g, sec, idx[ctx.rank], cache=cache)

    Session(Machine(n_procs=p), g).run(prog)
    assert len(cache) == p
    assert cache.invalidate_array(u) == p  # base invalidation reaches them
    assert len(cache) == 0


def test_fingerprint_hashed_once_per_gather_call(monkeypatch):
    """The index fingerprint is the one per-call hash: the probe key, the
    mark payload, and the built schedule's stored fingerprint all share
    a single computation (replays used to hash twice or thrice)."""
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
    cache = ScheduleCache()
    idx = {0: np.array([[1], [7]]), 1: np.array([[3]])}
    sweeps = 4

    def prog(ctx):
        for _ in range(sweeps):
            yield from ctx.cached_gather(g, A, idx[ctx.rank], cache=cache)

    trace = Session(Machine(n_procs=p), g).run(prog)
    # one hash per rank per collective call -- build and replay alike
    assert calls["n"] == p * sweeps
    # the replay marks carry the schedule's stored fingerprint
    hits = [m for m in trace.marks if m.label == "commsched/hit"]
    misses = [m for m in trace.marks if m.label == "commsched/miss"]
    assert len(hits) == p * (sweeps - 1) and len(misses) == p
    by_rank_fp = {m.proc: m.payload[2] for m in misses}
    for m in hits:
        assert m.payload[2] == by_rank_fp[m.proc]
