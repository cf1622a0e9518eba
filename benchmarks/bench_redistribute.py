"""REPART -- owner-to-owner repartition schedules vs. gather-to-all.

The seed's ``DistArray.redistribute`` assembled the full global array
on every relayout (``to_global``/``from_global``).  A repartition plan
replaces that with an owner-to-owner move: each rank sends only the
intersections of its old block with the new owners' blocks, and the
plan -- keyed on the (from-layout, to-layout) pair, not the comm epoch
-- is cached in the Session's plan cache, so the repeated layout flips
of e.g. an ADI-style row/column sweep replay without re-deriving any
move.

This benchmark flips a block layout to cyclic and back ``flips`` times
under both strategies and reports message counts, byte volumes, and
simulated makespan.  Acceptance: the schedule path moves strictly fewer
bytes, finishes in less simulated time, and replays from cache on every
flip after the first pair (the first rank to reach each of those two
flips builds the plan; every other probe hits).
"""

import os
import sys

import numpy as np

try:
    from benchmarks._report import report
except ModuleNotFoundError:  # invoked as a script: python benchmarks/bench_...
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks._report import report
from repro.lang import DistArray, ProcessorGrid
from repro.session import Session
from repro.lang.dist import Distribution
from repro.machine import Machine
from repro.machine.costmodel import CostModel
from repro.machine.ops import Barrier, Rendezvous


def _layout_cycle(flips):
    return [("cyclic",) if k % 2 == 0 else ("block",) for k in range(flips)]


def _run_scheduled(p, n, flips):
    machine = Machine(n_procs=p, cost=CostModel.hypercube_1989())
    grid = ProcessorGrid((p,))
    A = DistArray((n,), grid, dist=("block",), name="A")
    A.from_global(np.sin(np.arange(n) * 0.05))
    session = Session(machine, grid)

    def prog(ctx):
        for dist in _layout_cycle(flips):
            yield from ctx.redistribute(A, dist)

    trace = session.run(prog)
    return A, trace, session.plans


def _run_gather_to_all(p, n, flips):
    """The seed strategy, spelled as messages: every flip gathers all
    blocks to a root, assembles the global array, broadcasts it, and
    re-slices every rank's new block from the full copy."""
    machine = Machine(n_procs=p, cost=CostModel.hypercube_1989())
    grid = ProcessorGrid((p,))
    A = DistArray((n,), grid, dist=("block",), name="A")
    A.from_global(np.sin(np.arange(n) * 0.05))

    news = {}

    def prog(ctx):
        me = ctx.rank
        root = grid.linear[0]
        for step, dist in enumerate(_layout_cycle(flips)):
            target = Distribution(dist, A.shape, grid.shape)
            blocks = yield from ctx.gather(
                grid, np.ascontiguousarray(A.local(me)), root=root
            )
            if me == root:
                full = np.zeros(A.shape, dtype=A.dtype)
                for rank, block in zip(grid.linear, blocks):
                    full[np.ix_(*A.owned_lists(rank))] = block
            else:
                full = None
            full = yield from ctx.bcast(grid, full, root=root)
            mine = target.owned_lists(grid.coords_of(me))
            news[me] = np.ascontiguousarray(full[np.ix_(*mine)])
            yield Barrier(group=tuple(grid.linear), tag=("g2a", step))
            yield Rendezvous(
                grid.key(), ("g2a-install", step),
                action=lambda _payloads: A._install(grid, target, dict(news)),
            )

    trace = Session(machine, grid).run(prog)
    return A, trace


def run(p=8, n=512, flips=6):
    a_sched, t_sched, plans = _run_scheduled(p, n, flips)
    a_g2a, t_g2a = _run_gather_to_all(p, n, flips)

    identical = bool(np.array_equal(a_sched.to_global(), a_g2a.to_global()))
    return {
        "p": p,
        "n": n,
        "flips": flips,
        "identical": identical,
        "msgs_sched": t_sched.message_count(),
        "msgs_g2a": t_g2a.message_count(),
        "bytes_sched": t_sched.total_bytes(),
        "bytes_g2a": t_g2a.total_bytes(),
        "byte_ratio": t_g2a.total_bytes() / t_sched.total_bytes(),
        "time_sched": t_sched.makespan(),
        "time_g2a": t_g2a.makespan(),
        "hit_rate": t_sched.schedule_hit_rate("repartition"),
        "cache": plans.kind_stats()["repartition"],
    }


def check_and_report(r):
    assert r["identical"], "repartition changed the array values"
    assert r["bytes_sched"] < r["bytes_g2a"], (
        f"owner-to-owner moved {r['bytes_sched']} bytes, gather-to-all "
        f"{r['bytes_g2a']}"
    )
    assert r["time_sched"] < r["time_g2a"]
    # two distinct transitions build once each; every other probe -- the
    # other ranks of those two flips, every rank of the later ones -- hits
    probes = r["flips"] * r["p"]
    expected_hit = (probes - 2) / probes
    assert abs(r["hit_rate"] - expected_hit) < 1e-9
    report(
        "REPART",
        "owner-to-owner repartition schedules vs. gather-to-all relayout",
        [
            f"p={r['p']}, n={r['n']}, flips={r['flips']}",
            f"messages: gather-to-all {r['msgs_g2a']}, "
            f"scheduled {r['msgs_sched']}",
            f"bytes:    gather-to-all {r['bytes_g2a']}, "
            f"scheduled {r['bytes_sched']}  ({r['byte_ratio']:.2f}x fewer)",
            f"sim time: gather-to-all {r['time_g2a']:.6g}s, "
            f"scheduled {r['time_sched']:.6g}s "
            f"({r['time_g2a'] / r['time_sched']:.2f}x faster)",
            f"repartition hit rate {r['hit_rate']:.3f}, cache {r['cache']}",
            f"results identical: {r['identical']}",
        ],
    )


def test_redistribute_benchmark(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    check_and_report(r)


if __name__ == "__main__":
    check_and_report(run())
