"""L13 -- Listings 1-3: three Jacobi versions produce identical iterates.

Listing 1 (sequential), Listing 2 (hand message passing) and Listing 3
(KF1 doall) are the same algorithm; this benchmark checks bit-level
agreement of the iterates and compares the communication structure: the
compiled KF1 loop derives the same edge-neighbor ghost exchange the
Listing 2 programmer wrote by hand (plus one-element corner transfers
from the compiler's box-product regions).
"""

import numpy as np

from benchmarks._report import report
from repro.baselines import jacobi_message_passing, jacobi_sequential
from repro.lang import ProcessorGrid
from repro.machine import CostModel, Machine
from repro.tensor.jacobi import jacobi_kf1


def run(n=32, iters=10, p=2):
    rng = np.random.default_rng(6)
    f = 1e-3 * rng.standard_normal((n + 1, n + 1))
    f[0] = f[-1] = 0.0
    f[:, 0] = f[:, -1] = 0.0
    cost = CostModel.hypercube_1989()

    x_seq = jacobi_sequential(f, iters)
    x_mp, t_mp = jacobi_message_passing(Machine(n_procs=p * p, cost=cost), p, f, iters)
    x_kf1, t_kf1 = jacobi_kf1(
        Machine(n_procs=p * p, cost=cost), ProcessorGrid((p, p)), f, iters
    )
    return {
        "seq_vs_mp": float(np.max(np.abs(x_seq - x_mp))),
        "seq_vs_kf1": float(np.max(np.abs(x_seq - x_kf1))),
        "mp_msgs": t_mp.message_count(),
        "kf1_msgs": t_kf1.message_count(),
        "mp_bytes": t_mp.total_bytes(),
        "kf1_bytes": t_kf1.total_bytes(),
    }


def test_listings_1_2_3_parity(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)
    assert r["seq_vs_mp"] == 0.0
    assert r["seq_vs_kf1"] < 1e-13
    # KF1 moves a comparable amount of data (corners add 4 words/sweep)
    assert r["kf1_bytes"] < 1.2 * r["mp_bytes"]
    report(
        "L13",
        "Listings 1-3: sequential vs message-passing vs KF1 Jacobi",
        [
            f"max |seq - mp|  = {r['seq_vs_mp']:.1e}",
            f"max |seq - kf1| = {r['seq_vs_kf1']:.1e}",
            f"messages: hand-written {r['mp_msgs']}, compiled {r['kf1_msgs']}",
            f"bytes:    hand-written {r['mp_bytes']}, compiled {r['kf1_bytes']}",
        ],
    )
