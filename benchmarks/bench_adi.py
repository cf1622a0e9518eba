"""L78 -- Listings 7-8: ADI with non-pipelined vs pipelined line solves.

Both variants compute identical iterates (the restructuring only
reschedules work); the pipelined variant is faster -- "One can get
better speed-ups with the pipelined version of the tridiagonal solver."
"""

import numpy as np

from benchmarks._report import report
from repro.lang import ProcessorGrid
from repro.machine import CostModel, Machine
from repro.tensor.adi import adi_reference, adi_solve
from repro.tensor.poisson import manufactured_2d


def run(n=32, iters=2, shape=(4, 4)):
    _, f = manufactured_2d(n)
    cost = CostModel.hypercube_1989()
    ref = adi_reference(f, iters=iters)
    out = {}
    for pipelined in (False, True):
        machine = Machine(n_procs=int(np.prod(shape)), cost=cost)
        u, trace = adi_solve(
            machine, ProcessorGrid(shape), f, iters=iters, pipelined=pipelined
        )
        out[pipelined] = {
            "err": float(np.max(np.abs(u - ref))),
            "time": trace.makespan(),
            "util": trace.utilization(),
            "msgs": trace.message_count(),
        }
    return out


def test_adi_pipelined_vs_plain(benchmark):
    out = benchmark.pedantic(run, rounds=1, iterations=1)
    plain, pipe = out[False], out[True]
    assert plain["err"] < 1e-12 and pipe["err"] < 1e-12
    assert pipe["time"] < plain["time"]
    assert pipe["util"] > plain["util"]
    report(
        "L78",
        "Listings 7-8: ADI, per-line vs pipelined tridiagonal solves",
        [
            "variant      time(s)    util     msgs   max|u - reference|",
            f"per-line   {plain['time']:>9.5f} {plain['util']:>8.2%}"
            f" {plain['msgs']:>6}   {plain['err']:.1e}",
            f"pipelined  {pipe['time']:>9.5f} {pipe['util']:>8.2%}"
            f" {pipe['msgs']:>6}   {pipe['err']:.1e}",
            f"speedup from pipelining: {plain['time'] / pipe['time']:.2f}x",
        ],
    )
