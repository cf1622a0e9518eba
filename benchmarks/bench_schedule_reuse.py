"""SCHED -- communication-schedule reuse across irregular-gather sweeps.

The paper leans on the runtime inspector/executor scheme (its reference
[17], the Crowley/Saltz PARTI lineage) for irregular references.  The
point of that scheme is amortization: when the index pattern is
loop-invariant across sweeps, the two-round inspection only ever needs
to run once, after which a cached schedule replays with one round of
coalesced value messages.

This benchmark runs the same multi-sweep irregular gather twice -- once
calling the uncached ``inspector_gather`` every sweep, once through
``ctx.cached_gather``, whose grid-wide gather plan the Session's plan
cache keeps -- and reports message counts, bytes, and simulated
makespan.  Array values change between sweeps (fenced by barriers), so
the replay genuinely re-reads current data; the gathered results must be
bit-identical between the two runs.  Acceptance: the cached run moves at
least 2x fewer messages and finishes in less simulated time.
"""

import os
import sys

import numpy as np

try:
    from benchmarks._report import report
except ModuleNotFoundError:  # invoked as a script: python benchmarks/bench_...
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks._report import report
from repro.compiler import inspector_gather
from repro.lang import DistArray, ProcessorGrid
from repro.session import Session
from repro.machine import Barrier, Machine
from repro.machine.costmodel import CostModel


def _index_patterns(p, n, per_rank, seed=11):
    """Fixed irregular, loop-invariant request sets: each rank draws its
    indices from the blocks of two neighbor ranks plus its own."""
    rng = np.random.default_rng(seed)
    block = n // p
    idx = {}
    for r in range(p):
        partners = [r, (r + 1) % p, (r + 3) % p]
        pool = np.concatenate(
            [np.arange(q * block, (q + 1) * block) for q in partners]
        )
        idx[r] = rng.choice(pool, size=per_rank, replace=True).reshape(-1, 1)
    return idx


def _run(p, n, sweeps, idx, cached):
    machine = Machine(n_procs=p, cost=CostModel.hypercube_1989())
    grid = ProcessorGrid((p,))
    A = DistArray((n,), grid, dist=("block",), name="A")
    A.from_global(np.sin(np.arange(n) * 0.1))
    session = Session(machine, grid)
    group = tuple(grid.linear)
    results = {r: [] for r in range(p)}

    def prog(ctx):
        me = ctx.rank
        for sweep in range(sweeps):
            if cached:
                vals = yield from ctx.cached_gather(grid, A, idx[me])
            else:
                vals = yield from inspector_gather(ctx, grid, A, idx[me])
            results[me].append(vals)
            # deterministic update of my block, fenced so that both
            # variants observe identical pre-sweep values
            yield Barrier(group=group, tag=("pre-mutate", sweep))
            A.local(me)[...] += 0.25 * (me + 1)
            yield Barrier(group=group, tag=("post-mutate", sweep))

    trace = session.run(prog)
    return results, trace, session


def run(p=8, n=256, sweeps=6, per_rank=32):
    idx = _index_patterns(p, n, per_rank)
    res_un, t_un, _ = _run(p, n, sweeps, idx, cached=False)
    res_ca, t_ca, session = _run(p, n, sweeps, idx, cached=True)

    identical = all(
        np.array_equal(res_un[r][s], res_ca[r][s])
        for r in range(p)
        for s in range(sweeps)
    )
    return {
        "p": p,
        "n": n,
        "sweeps": sweeps,
        "identical": identical,
        "msgs_uncached": t_un.message_count(),
        "msgs_cached": t_ca.message_count(),
        "msg_ratio": t_un.message_count() / t_ca.message_count(),
        "bytes_uncached": t_un.total_bytes(),
        "bytes_cached": t_ca.total_bytes(),
        "time_uncached": t_un.makespan(),
        "time_cached": t_ca.makespan(),
        "hit_rate": t_ca.schedule_hit_rate(),
        "hit_rate_gather": t_ca.schedule_hit_rate("gather"),
        "directions": t_ca.schedule_directions(),
        "cache": session.stats()["schedules"],
    }


def test_schedule_reuse(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    _check_and_report(r)


def _check_and_report(r):
    assert r["identical"], "cached replay changed gathered values"
    assert r["msg_ratio"] >= 2.0, (
        f"expected >= 2x fewer messages with schedule reuse, got "
        f"{r['msg_ratio']:.2f}x"
    )
    assert r["time_cached"] < r["time_uncached"]
    # reuse must be visible per direction from the second sweep on
    assert r["hit_rate_gather"] > 0.0
    report(
        "SCHED",
        "communication-schedule reuse on a loop-invariant irregular gather",
        [
            f"p={r['p']}, n={r['n']}, sweeps={r['sweeps']}",
            f"messages: uncached {r['msgs_uncached']}, "
            f"cached {r['msgs_cached']}  ({r['msg_ratio']:.2f}x fewer)",
            f"bytes:    uncached {r['bytes_uncached']}, cached {r['bytes_cached']}",
            f"sim time: uncached {r['time_uncached']:.6g}s, "
            f"cached {r['time_cached']:.6g}s "
            f"({r['time_uncached'] / r['time_cached']:.2f}x faster)",
            f"schedule hit rate {r['hit_rate']:.3f} "
            f"(gather {r['hit_rate_gather']:.3f}), cache {r['cache']}",
            f"per-direction events: {r['directions']}",
            f"results bit-identical: {r['identical']}",
        ],
    )


if __name__ == "__main__":
    _check_and_report(run())
