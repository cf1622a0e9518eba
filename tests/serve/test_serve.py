"""The serving layer: SessionPool, Server, and concurrent cache safety.

Covers the pool checkout discipline, the shared-cache
compile-once/serve-everyone contract, the threaded front end, and the
stress properties the serving layer claims: N threads hammering one
shared PlanCache with cached gathers corrupt nothing, lose no hits, and
produce well-formed traces; Session.history stays consistent under
concurrent appends.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Machine, ProcessorGrid, Session
from repro.lang import DistArray
from repro.serve import Server, SessionPool
from repro.util.errors import ValidationError

SRC = """
processors procs(2)
real x(0:7) dist (block)
real y(0:7) dist (block)
doall (i) = [1, 6] on owner(y(i))
  y(i) = x(i-1) + x(i+1)
end doall
"""


# ----------------------------------------------------------------------
# SessionPool checkout discipline
# ----------------------------------------------------------------------


def test_pool_checkout_blocks_and_times_out():
    pool = SessionPool(2, machine=Machine(n_procs=2))
    a, b = pool.acquire(), pool.acquire()
    assert a is not b
    with pytest.raises(TimeoutError):
        pool.acquire(timeout=0.01)
    pool.release(a)
    c = pool.acquire(timeout=1.0)
    assert c is a
    pool.release(b)
    pool.release(c)


def test_pool_release_rejects_foreign_and_double():
    pool = SessionPool(1, machine=Machine(n_procs=2))
    with pytest.raises(ValidationError):
        pool.release(Session(Machine(n_procs=2)))
    s = pool.acquire()
    pool.release(s)
    with pytest.raises(ValidationError):
        pool.release(s)


def test_pool_context_manager_returns_on_error():
    pool = SessionPool(1, machine=Machine(n_procs=2))
    with pytest.raises(RuntimeError):
        with pool.session():
            raise RuntimeError("boom")
    # the session came back
    with pool.session(timeout=0.1):
        pass


def test_pool_needs_positive_size():
    with pytest.raises(ValidationError):
        SessionPool(0, machine=Machine(n_procs=2))


# ----------------------------------------------------------------------
# Shared caches: compile once, serve everywhere
# ----------------------------------------------------------------------


def test_pool_sessions_share_one_cache_pair():
    pool = SessionPool(3, machine=Machine(n_procs=2))
    assert all(s.plans is pool.plans for s in pool.sessions)
    assert all(s.oracle is pool.oracle for s in pool.sessions)


def test_compile_once_replays_on_every_pooled_session():
    pool = SessionPool(3, machine=Machine(n_procs=2))
    prog = pool.compile(SRC)
    assert pool.plans.by_kind["doall"]["misses"] == 1
    for s in pool.sessions:
        prog.run(x=np.arange(8.0), session=s)
    # every launch replayed the one frozen analysis: no new compiles
    assert pool.plans.by_kind["doall"]["misses"] == 1
    assert pool.plans.by_kind["doall"]["hits"] >= 3
    assert pool.hit_rates()["doall"] > 0.5
    np.testing.assert_array_equal(
        prog.arrays["y"].to_global()[1:7],
        np.arange(8.0)[0:6] + np.arange(8.0)[2:8],
    )


def test_pooled_runs_default_cheap_marks():
    pool = SessionPool(1, machine=Machine(n_procs=2))
    prog = pool.compile(SRC)
    with pool.session() as s:
        trace = prog.run(x=np.zeros(8), session=s)
    assert trace.level == "cheap"
    assert any(k[0].startswith("commsched/") for k in trace.mark_counts)


# ----------------------------------------------------------------------
# Server front end
# ----------------------------------------------------------------------


def test_server_sync_and_async_requests():
    # max_queue: this test bursts 8 submits at 2 threads; the admission
    # -control default (2x threads) would reject the excess by design
    with Server(machine=Machine(n_procs=2), threads=2, max_queue=8) as srv:
        prog = srv.compile(SRC)
        trace = srv.run(prog, x=np.arange(8.0))
        assert trace.level == "cheap"
        futs = [srv.submit(prog, x=np.full(8, float(k))) for k in range(8)]
        for f in futs:
            assert f.result().makespan() > 0.0
        st = srv.stats()
        assert st["requests"] == 9 and st["failures"] == 0
        assert st["latency"]["p50"] > 0.0
        assert st["latency"]["p99"] >= st["latency"]["p50"]
        assert st["pool_size"] == st["threads"] == 2


def test_server_batched_requests_match_run():
    with Server(machine=Machine(n_procs=2), threads=2) as srv:
        prog = srv.compile(SRC)
        binds = [{"x": np.full(8, float(b))} for b in range(4)]
        res = srv.run_batch(prog, binds)
        ref = srv.compile(SRC)
        for b in binds:
            srv.run(ref, **b)
        np.testing.assert_array_equal(
            res["y"][-1], srv.fetch(ref, "y")["y"]
        )


def test_server_counts_failures_and_closes():
    srv = Server(machine=Machine(n_procs=2), threads=1)
    prog = srv.compile(SRC)
    with pytest.raises(ValidationError):
        srv.run(prog, nope=np.zeros(8))
    assert srv.stats()["failures"] == 1
    srv.close()
    with pytest.raises(ValidationError):
        srv.submit(prog, x=np.zeros(8))


def test_server_rejects_conflicting_pool_args():
    pool = SessionPool(1, machine=Machine(n_procs=2))
    with pytest.raises(ValidationError):
        Server(pool, machine=Machine(n_procs=2))
    with pytest.raises(ValidationError):
        Server(machine=Machine(n_procs=2), threads=0)


def test_concurrent_distinct_programs_share_schedules():
    """K distinct Programs compiled from one source: each compiles its
    own arrays' schedules, every later request replays from the shared
    cache regardless of which thread/session serves it."""
    with Server(machine=Machine(n_procs=2), threads=4,
                max_queue=32) as srv:
        progs = [srv.compile(SRC) for _ in range(4)]
        expect = {}
        futs = []
        for k in range(32):
            x = np.full(8, float(k))
            expect[k] = x[0:6] + x[2:8]
            futs.append((k, progs[k % 4], srv.submit(progs[k % 4], x=x)))
        for _, _, f in futs:
            f.result()
        st = srv.stats()
        assert st["requests"] == 32 and st["failures"] == 0
        # 4 compiles, 32 replays: the shared plan cache never recompiled
        assert srv.pool.plans.by_kind["doall"]["misses"] == 4
        # each program's final state is one of ITS requests' results --
        # never another program's (requests don't run in submission
        # order, but Program.lock keeps every run internally consistent)
        for j, prog in enumerate(progs):
            got = srv.fetch(prog, "y")["y"][1:7]
            mine = [expect[k] for k in range(32) if k % 4 == j]
            assert any(np.array_equal(got, want) for want in mine)


# ----------------------------------------------------------------------
# Edge cases: timeouts, close with queued work, failed-run fetch
# ----------------------------------------------------------------------


def test_acquire_timeout_expiry_releases_nothing():
    """A timed-out acquire must not corrupt the free list: the session
    still comes back to whoever holds it, and later acquires succeed."""
    pool = SessionPool(1, machine=Machine(n_procs=2))
    held = pool.acquire()
    t0 = threading.Event()
    results = {}

    def contender():
        t0.set()
        try:
            pool.acquire(timeout=0.05)
            results["got"] = True
        except TimeoutError as e:
            results["err"] = str(e)

    t = threading.Thread(target=contender)
    t.start()
    t0.wait()
    t.join()
    assert "err" in results and "pool of 1" in results["err"]
    pool.release(held)
    # the expiry left the pool consistent: checkout works again
    with pool.session(timeout=0.5) as s:
        assert s is held


def test_server_close_drains_queued_submits():
    """close() must let already-queued requests finish (drain, not
    drop): every Future resolves, and submits after close are refused."""
    with_results = []
    srv = Server(machine=Machine(n_procs=2), threads=1, max_queue=6)
    prog = srv.compile(SRC)
    futs = [srv.submit(prog, x=np.full(8, float(k))) for k in range(6)]
    srv.close()
    for f in futs:
        with_results.append(f.result(timeout=30))
    assert len(with_results) == 6
    assert all(t.makespan() > 0.0 for t in with_results)
    assert srv.stats()["requests"] == 6
    with pytest.raises(ValidationError, match="closed"):
        srv.submit(prog, x=np.zeros(8))
    with pytest.raises(ValidationError, match="closed"):
        srv.morph(prog, ProcessorGrid((2,)))


def test_fetch_after_failed_run_sees_last_good_state():
    """A failed request must neither wedge the pool nor tear the
    program's arrays: fetch() returns the last successful run's state
    and later requests succeed."""
    with Server(machine=Machine(n_procs=2), threads=2) as srv:
        prog = srv.compile(SRC)
        srv.run(prog, x=np.arange(8.0))
        good = srv.fetch(prog, "y")["y"]

        fut = srv.submit(prog, nope=np.zeros(8))
        with pytest.raises(ValidationError, match="unknown binding"):
            fut.result()
        assert srv.stats()["failures"] == 1
        np.testing.assert_array_equal(srv.fetch(prog, "y")["y"], good)

        # the pool session came back despite the failure
        trace = srv.run(prog, x=np.arange(8.0))
        assert trace.makespan() > 0.0
        assert srv.stats()["requests"] == 3


def test_fetch_unknown_array_raises_cleanly():
    with Server(machine=Machine(n_procs=2), threads=1) as srv:
        prog = srv.compile(SRC)
        srv.run(prog, x=np.zeros(8))
        with pytest.raises(KeyError):
            srv.fetch(prog, "zz")
        # the program lock was released by the failed fetch
        assert prog.lock.acquire(timeout=1)
        prog.lock.release()


# ----------------------------------------------------------------------
# Stress: one shared plan cache under many threads
# ----------------------------------------------------------------------


def test_shared_schedule_cache_thread_stress():
    """N threads x M runs of a warmed cached_gather against ONE shared
    plan cache: exact hit/miss accounting (no lost or spurious
    entries), correct gathered values on every run, well-formed traces.
    """
    p, threads, runs = 2, 4, 10
    g = ProcessorGrid((p,))
    A = DistArray((16,), g, dist=("block",), name="A")
    values = np.arange(16.0)
    A.from_global(values)
    idx = {0: np.array([[15], [9]]), 1: np.array([[0], [3]])}
    pool = SessionPool(threads, machine=Machine(n_procs=p), grid=g)
    failures: list[str] = []

    def prog(ctx):
        got = yield from ctx.cached_gather(g, A, idx[ctx.rank])
        want = values[idx[ctx.rank][:, 0]]
        if not np.array_equal(np.asarray(got).reshape(-1), want):
            failures.append(f"rank {ctx.rank}: {got} != {want}")

    with pool.session() as s:
        s.run(prog)  # warm: one grid-wide gather plan
    assert pool.stats()["schedules"] == {"hits": 0, "misses": 1}

    def worker():
        with pool.session() as s:
            return [s.run(prog) for _ in range(runs)]

    with ThreadPoolExecutor(max_workers=threads) as ex:
        traces = [t for f in [ex.submit(worker) for _ in range(threads)]
                  for t in f.result()]

    assert not failures
    # exact accounting: every one of the threads*runs probes (one per
    # collective call) hit the warmed plan; nothing was rebuilt or evicted
    assert pool.stats()["schedules"] == {"hits": threads * runs, "misses": 1}
    assert len(pool.plans) == 1
    # hit rate under concurrency is the single-thread rate (1.0 warm)
    assert pool.hit_rates()["gather"] == (threads * runs) / (threads * runs + 1)
    # traces are well-formed: the replay round's messages all completed
    for t in traces:
        assert len(t.messages) == p
        assert all(m.t_recv >= m.t_send for m in t.messages)


def test_session_history_safe_under_concurrent_runs():
    """Concurrent launches on ONE Session: the run counter misses
    nothing and the bounded history never tears."""
    threads, runs = 8, 6
    s = Session(Machine(n_procs=1), ProcessorGrid((1,)), max_history=16)

    def prog(ctx):
        yield from iter(())

    def worker():
        for _ in range(runs):
            s.run(prog)

    ts = [threading.Thread(target=worker) for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert s.runs == threads * runs
    assert len(s.history) == 16
    assert all(tr is not None for tr in s.history)


def test_programs_run_concurrently_results_uncorrupted():
    """Interleaved requests against distinct Programs keep per-program
    results consistent (Program.lock serializes per program only)."""
    with Server(machine=Machine(n_procs=2), threads=4,
                max_queue=32) as srv:
        progs = {k: srv.compile(SRC) for k in range(3)}
        futs = []
        for rep in range(10):
            for k, prog in progs.items():
                x = np.full(8, float(10 * rep + k))
                futs.append(srv.submit(prog, x=x))
        for f in futs:
            f.result()
        for k, prog in progs.items():
            got = srv.fetch(prog, "y")["y"][1:7]
            mine = [np.full(6, 2.0 * (10 * rep + k)) for rep in range(10)]
            assert any(np.array_equal(got, want) for want in mine)
