"""C2 -- Section 6 claim: "there would be no difference between the
execution time of algorithms expressed in KF1, and those expressed in a
message passing language, assuming equally good back-end machine code
generators."

We compare the simulated makespan of the compiled KF1 Jacobi against
the hand-written Listing 2 version on identical machines.  The compiled
loop exchanges the same edge strips plus four one-element corner
messages per sweep (a documented box-region overapproximation), so we
assert parity within a modest tolerance and report the exact gap.
"""

import numpy as np

from benchmarks._report import report
from repro.baselines import jacobi_message_passing
from repro.lang import ProcessorGrid
from repro.machine import CostModel, Machine
from repro.tensor.jacobi import jacobi_kf1


def run(n=64, iters=10, p=4):
    rng = np.random.default_rng(9)
    f = 1e-3 * rng.standard_normal((n + 1, n + 1))
    f[0] = f[-1] = 0.0
    f[:, 0] = f[:, -1] = 0.0
    rows = []
    for cost_name, cost in [
        ("hypercube_1989", CostModel.hypercube_1989()),
        ("balanced", CostModel.balanced()),
        ("fast_network", CostModel.fast_network()),
    ]:
        x_mp, t_mp = jacobi_message_passing(
            Machine(n_procs=p * p, cost=cost), p, f, iters
        )
        x_kf1, t_kf1 = jacobi_kf1(
            Machine(n_procs=p * p, cost=cost), ProcessorGrid((p, p)), f, iters
        )
        assert np.allclose(x_mp, x_kf1)
        rows.append(
            {
                "cost": cost_name,
                "mp": t_mp.makespan(),
                "kf1": t_kf1.makespan(),
                "ratio": t_kf1.makespan() / t_mp.makespan(),
            }
        )
    return rows


def test_kf1_execution_parity(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["cost model        mp(s)       kf1(s)      kf1/mp"]
    for r in rows:
        lines.append(
            f"{r['cost']:<15} {r['mp']:>10.5f} {r['kf1']:>12.5f} {r['ratio']:>9.2f}"
        )
        assert 0.5 < r["ratio"] < 1.6, r
    report(
        "C2",
        "Section 6: compiled KF1 vs hand-written message passing time",
        lines,
    )
