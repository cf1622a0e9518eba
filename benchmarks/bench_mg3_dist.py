"""L911 -- Listings 9-11: 3-D multigrid distribution ablation (section 5).

Three alternatives the paper names: plane solves parallel over a grid
column, plane solves sequential per processor, and the full 3-D
processor array where "the tridiagonal solves in mg2 would have been
parallel".

"We could have done things differently by changing the dimensionality
of the original processor array... The best alternative here depends on
the problem size, the number of processors, the cost of communication."
We run the same mg3 under ``(*, block, block)`` (plane solves parallel
over a processor-grid column) and ``(*, *, block)`` (plane solves local,
communication only across planes), verify identical numerics, and
report the communication tradeoff.
"""

import numpy as np

from benchmarks._report import report
from repro.lang import ProcessorGrid
from repro.machine import CostModel, Machine
from repro.tensor.multigrid3d import mg3_reference, mg3_solve
from repro.tensor.poisson import manufactured_3d


def run(n=8, cycles=1, p=4):
    _, f = manufactured_3d(n)
    ref = mg3_reference(f, cycles=cycles)
    cost = CostModel.hypercube_1989()
    rows = []
    for dist, shape in [
        (("*", "block", "block"), (2, 2)),
        (("*", "*", "block"), (4,)),
        (("block", "block", "block"), (2, 2, 1)),
    ]:
        machine = Machine(n_procs=p, cost=cost)
        u, trace = mg3_solve(machine, ProcessorGrid(shape), f, cycles=cycles, dist=dist)
        rows.append(
            {
                "dist": str(dist),
                "err": float(np.max(np.abs(u - ref))),
                "time": trace.makespan(),
                "msgs": trace.message_count(),
                "bytes": trace.total_bytes(),
                "util": trace.utilization(),
            }
        )
    return rows


def test_mg3_distribution_ablation(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["distribution               time(s)    msgs     bytes     util    err"]
    for r in rows:
        lines.append(
            f"{r['dist']:<26} {r['time']:>8.5f} {r['msgs']:>7} {r['bytes']:>9}"
            f" {r['util']:>8.2%}  {r['err']:.1e}"
        )
        assert r["err"] < 1e-11  # same numerics under every distribution
    # the distributions genuinely differ in communication structure
    assert rows[0]["bytes"] != rows[1]["bytes"]
    report(
        "L911",
        "Listings 9-11: mg3 under alternate distributions (section 5)",
        lines,
    )
