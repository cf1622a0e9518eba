"""A2 -- section 2's cyclic-distribution claim, quantified on LU.

"Another kind of distribution is a cyclic distribution, especially
useful in numerical linear algebra, in which the elements are
distributed in a round-robin fashion across the processors."  We factor
the same diagonally dominant matrix under block and cyclic row
distributions (same program, one declaration changed) and report load
balance and makespan.  Cyclic must balance the shrinking elimination
window; block must not.
"""

import numpy as np

from benchmarks._report import report
from repro.lang import ProcessorGrid
from repro.machine import CostModel, Machine
from repro.tensor.lu import lu_distributed, lu_reference


def run(n=48, p=4):
    rng = np.random.default_rng(21)
    A = rng.uniform(-1, 1, (n, n))
    A += np.diag(np.abs(A).sum(axis=1) + 1.0)
    ref = lu_reference(A)
    rows = []
    for cost_name, cost in [
        ("hypercube_1989", CostModel.hypercube_1989()),
        ("fast_network", CostModel.fast_network()),
    ]:
        for dist in ("block", "cyclic"):
            machine = Machine(n_procs=p, cost=cost)
            LU, trace = lu_distributed(machine, ProcessorGrid((p,)), A, dist=dist)
            busy = [trace.busy_time(r) for r in range(p)]
            rows.append(
                {
                    "cost": cost_name,
                    "dist": dist,
                    "err": float(np.max(np.abs(LU - ref))),
                    "time": trace.makespan(),
                    "imbalance": max(busy) / (sum(busy) / p),
                    "util": trace.utilization(),
                }
            )
    return rows


def test_lu_block_vs_cyclic(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["cost model       dist     time(s)    imbalance   util     err"]
    for r in rows:
        lines.append(
            f"{r['cost']:<16} {r['dist']:<8} {r['time']:>8.5f}"
            f" {r['imbalance']:>9.2f} {r['util']:>9.2%}  {r['err']:.1e}"
        )
        assert r["err"] < 1e-10
    by = {(r["cost"], r["dist"]): r for r in rows}
    # cyclic always balances the computation
    for cost in ("hypercube_1989", "fast_network"):
        assert by[(cost, "cyclic")]["imbalance"] < by[(cost, "block")]["imbalance"]
    # once communication is cheap, balance wins the makespan too
    assert by[("fast_network", "cyclic")]["time"] < by[("fast_network", "block")]["time"]
    lines.append("(at 1989 latencies block's smaller participation sets can hide")
    lines.append(" the imbalance; with cheap communication cyclic wins outright --")
    lines.append(" 'the best alternative depends on ... the cost of communication')")
    report("A2", "Section 2: cyclic distribution balances LU elimination", lines)
