"""Golden pins of the grid collectives' and Fourier-Poisson's traces.

The values and per-rank records below were taken from the binomial-tree
collectives and the per-column FFT node programs that sent their floats
in simulator messages.  Moving the values to a kind-tagged rendezvous
and charging the exchange with data-free streams must leave all of it
unchanged: every returned value (by ``tobytes()`` for arrays), every
message record ``(src, dst, tag, nbytes, t_send, t_arrive, t_recv)``
and every compute record, per rank.  Fourier-Poisson's message tags are
free to change, so its records are pinned without them.
"""

import hashlib

import numpy as np
import pytest

from repro.kernels.fft import parallel_fft
from repro.lang import ProcessorGrid
from repro.machine import Compute, CostModel, Machine
from repro.machine import collectives as coll
from repro.session import Session
from repro.tensor.fourier_poisson import fourier_poisson_solve


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _value_key(value):
    """A value as something ``repr`` pins exactly: arrays by their bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_value_key(v) for v in value])
    if isinstance(value, dict):
        return ("dict", sorted((k, _value_key(v)) for k, v in value.items()))
    return value


def _per_rank(trace, tags=True):
    """``{rank: (message records it sent, its compute records)}``."""
    out = {}
    for m in trace.messages:
        rec = (m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
        out.setdefault(m.src, ([], []))[0].append(rec if tags else rec[:2] + rec[3:])
    for c in trace.computes:
        out.setdefault(c.proc, ([], []))[1].append((c.proc, c.start, c.end, c.label))
    return {r: _digest(v) for r, v in sorted(out.items())}


def _bracket(a, b):
    """Neither commutative nor associative: the result spells the tree."""
    return f"({a}{b})"


# ----------------------------------------------------------------------
# Collective level: a sparse group of an 8-rank machine
# ----------------------------------------------------------------------


def _sparse_group_run():
    group = [1, 3, 6]
    machine = Machine(
        n_procs=8,
        cost=CostModel(alpha=1.0, beta=0.001, flop_time=0.5, send_overhead=0.25,
                       gamma_hop=0.0),
    )
    results = {}

    def make(rank):
        def prog():
            if rank not in group:
                return
            yield Compute(flops=3 * rank + 1, label="pre")
            a = yield from coll.bcast(
                rank, group, np.arange(4.0) * 1.5 if rank == 3 else None, root=3, tag="b"
            )
            yield Compute(flops=7 - rank, label="mid")
            r = yield from coll.reduce(rank, group, np.full(3, rank + 0.1), root=6, tag="r")
            s = yield from coll.allreduce(
                rank, group, np.array([rank * 0.1, 1.0 / (rank + 1)]), tag="a"
            )
            g = yield from coll.gather(rank, group, (rank, rank * 1.5), root=1, tag="g")
            cat = yield from coll.allreduce(rank, group, str(rank), tag="c")
            tree = yield from coll.allreduce(rank, group, str(rank), tag="t", op=_bracket)
            results[rank] = (a, r, s, g, cat, tree)

        return prog()

    return machine.run(make), results


def test_sparse_group_values_equal_the_pins():
    _, results = _sparse_group_run()
    assert {r: v[4] for r, v in results.items()} == {1: "136", 3: "136", 6: "136"}
    assert {r: v[5] for r, v in results.items()} == {
        1: "((13)6)", 3: "((13)6)", 6: "((13)6)"
    }
    assert results[1][3] == [(1, 1.5), (3, 4.5), (6, 9.0)]
    assert results[3][3] is None and results[6][3] is None
    assert results[1][1] is None and results[3][1] is None
    assert {r: _digest(_value_key(v)) for r, v in results.items()} == SPARSE_VALUES


def test_sparse_group_records_equal_the_pins():
    trace, _ = _sparse_group_run()
    assert trace.message_count() == SPARSE_COUNTS[0]
    assert trace.total_bytes() == SPARSE_COUNTS[1]
    assert trace.makespan() == SPARSE_COUNTS[2]
    assert _per_rank(trace) == SPARSE_RECORDS


# ----------------------------------------------------------------------
# SPMD-context level: a (2, 2) grid and its row slices
# ----------------------------------------------------------------------


def _grid_run():
    grid = ProcessorGrid((2, 2))
    machine = Machine(
        n_procs=4,
        cost=CostModel(alpha=2.0, beta=0.01, flop_time=0.3, send_overhead=0.5,
                       gamma_hop=0.0),
    )
    results = {}

    def prog(ctx):
        me = ctx.rank
        row = grid[grid.coords_of(me)[0], :]
        yield Compute(flops=2 * me + 1, label="pre")
        total = yield from ctx.allreduce(grid, np.array([me + 0.25, 3.0 / (me + 1)]))
        peak = yield from ctx.allreduce(row, float(me), op=max)
        yield Compute(flops=5 - me, label="mid")
        seed = yield from ctx.bcast(
            grid, {"k": np.arange(3.0) / 7.0} if me == 2 else None, root=2
        )
        items = yield from ctx.gather(grid, np.full(2, me * 0.5), root=1)
        cat = yield from ctx.allreduce(grid, chr(97 + me))
        tree = yield from ctx.allreduce(grid, chr(97 + me), op=_bracket)
        results[me] = (total, peak, seed, items, cat, tree)

    trace = Session(machine, grid).run(prog)
    return trace, results


def test_grid_values_equal_the_pins():
    _, results = _grid_run()
    assert {r: v[4] for r, v in results.items()} == dict.fromkeys(range(4), "abcd")
    assert {r: v[5] for r, v in results.items()} == dict.fromkeys(range(4), "((ab)(cd))")
    assert {r: v[1] for r, v in results.items()} == {0: 1.0, 1: 1.0, 2: 3.0, 3: 3.0}
    assert [results[r][3] is None for r in range(4)] == [True, False, True, True]
    assert {r: _digest(_value_key(v)) for r, v in results.items()} == GRID_VALUES


def test_grid_records_equal_the_pins():
    trace, _ = _grid_run()
    assert trace.message_count() == GRID_COUNTS[0]
    assert trace.total_bytes() == GRID_COUNTS[1]
    assert trace.makespan() == GRID_COUNTS[2]
    assert _per_rank(trace) == GRID_RECORDS


# ----------------------------------------------------------------------
# Fourier-Poisson and the reference FFT
# ----------------------------------------------------------------------


def _fp_input():
    return np.random.default_rng(46).standard_normal((16, 11))


@pytest.mark.parametrize("p", [2, 4])
def test_fourier_poisson_equals_the_pins(p):
    u, trace = fourier_poisson_solve(Machine(n_procs=p), _fp_input(), p)
    count, nbytes, makespan, u_digest, records = FOURIER_POISSON[p]
    assert trace.message_count() == count
    assert trace.total_bytes() == nbytes
    assert trace.makespan() == makespan
    assert hashlib.sha256(u.tobytes()).hexdigest()[:16] == u_digest
    assert _per_rank(trace, tags=False) == records


def test_parallel_fft_equals_the_pins():
    x = np.random.default_rng(7).standard_normal(32) + 1j
    X, trace = parallel_fft(x, 4)
    assert hashlib.sha256(X.tobytes()).hexdigest()[:16] == FFT[0]
    assert _per_rank(trace) == FFT[1]



# ----------------------------------------------------------------------
# The pins, taken from the value-carrying implementation
# ----------------------------------------------------------------------

SPARSE_VALUES = {1: "12c71cbe0687fe34", 3: "5b0f86f228aef143", 6: "8dd8f1686f616c35"}
SPARSE_COUNTS = (18, 248, 17.35)
SPARSE_RECORDS = {1: "4613d77a34ad38ee", 3: "642445d1f4c4e740", 6: "097bb9486cd3ed82"}

GRID_VALUES = {
    0: "65be2f2d6658733d", 1: "2a5557d0da1a6968",
    2: "8b6d5fb916896a55", 3: "8b6d5fb916896a55",
}
GRID_COUNTS = (28, 327, 33.910000000000004)
GRID_RECORDS = {
    0: "b3a9c6cbf5cd9004", 1: "c9fcdef8572b4703",
    2: "bcadbfde3c1c2e7d", 3: "67015457e7adeb8b",
}

#: p -> (messages, bytes, makespan, digest of u, per-rank records sans tags)
FOURIER_POISSON = {
    2: (88, 10208, 0.01575200000000002, "5ac1ce45b19a3d36",
        {0: "7668ecd72443e847", 1: "39866a69b37e1dde"}),
    4: (440, 19712, 0.01632399999999998, "5ac1ce45b19a3d36",
        {0: "f2c486e26c37152c", 1: "a3ebf02645ee764b",
         2: "c40d6bc9b8dd23ca", 3: "58fdfda351faf52d"}),
}
FFT = ("6550ff996ea8864d", {
    0: "43dd18aeda3cfd4c", 1: "7e259d08db29a46f",
    2: "aa6d84a254bd12a0", 3: "43667022b31a7f5b",
})
