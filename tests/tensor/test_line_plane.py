"""The line-solve data plane against the Listing-7/8 reference kernels.

Every distributed line solve (ADI, variable-coefficient ADI, MG2's
parallel zebra lines) moves its values at one grid rendezvous, where
the partition method runs over all picked lines at once, and then walks
a frozen data-free op stream.  These tests pin both halves to the node
programs they replace: the values to what ``tri_node_program`` (per
line) and ``pipelined_node_program`` (pipelined) store, by
``tobytes()``, and each rank's stream to the ops those generators
yield, data and tags stripped.
"""

import numpy as np
import pytest

from repro.kernels.pipelined import pipelined_node_program
from repro.kernels.substructured import (
    ContiguousMapping,
    ShuffleMapping,
    tri_node_program,
)
from repro.lang import DistArray, ProcessorGrid
from repro.machine import Compute, Machine, Mark, Recv, Send
from repro.machine.ops import payload_nbytes
from repro.session import Session, launch
from repro.tensor.adi import _LinePlan, _solve_lines
from repro.util.errors import ValidationError


def _systems(n, lines, seed):
    """Diagonally dominant systems, one per column: (b, a, c, f)."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1, 1, (n, lines))
    c = rng.uniform(-1, 1, (n, lines))
    a = np.abs(b) + np.abs(c) + rng.uniform(1.0, 2.0, (n, lines))
    f = rng.uniform(-5, 5, (n, lines))
    return b, a, c, f


def _plane_solve(p, systems, pick, pipelined):
    """Solve columns ``pick`` on a (p,) grid through ``_solve_lines``;
    returns the output array's global value."""
    b, a, c, f = systems
    n, lines = a.shape
    g = ProcessorGrid((p,))
    rhs = DistArray((n, lines), g, dist=("block", "*"), name="rhs")
    out = DistArray((n, lines), g, dist=("block", "*"), name="out")
    rhs.from_global(f)

    def prog(ctx):
        rows = rhs.owned_lists(ctx.rank)[0]
        diags = [d[rows] for d in (b, a, c)]
        yield from _solve_lines(
            ctx, rhs, 0, rhs.local(ctx.rank), out.local(ctx.rank), diags, pick,
            pipelined,
        )

    Session(Machine(n_procs=p), g).run(prog)
    return out.to_global()


def _reference_programs(p, systems, pick, pipelined, outs):
    """Every rank's reference node program for the lines ``pick``."""
    b, a, c, f = systems
    n = a.shape[0]
    g = ProcessorGrid((p,))
    probe = DistArray((n, 1), g, dist=("block", "*"), name="probe")

    def blocks(rank):
        rows = probe.owned_lists(rank)[0]
        return [tuple(d[rows, s] for d in (b, a, c, f)) for s in pick]

    def program(rank):
        if pipelined:
            yield from pipelined_node_program(
                rank, p, blocks(rank), ShuffleMapping(p), outs
            )
            return
        for blk, res, s in zip(blocks(rank), outs, pick):
            yield from tri_node_program(
                rank, p, blk, ContiguousMapping(p), res, sys_id=s
            )

    return {r: program(r) for r in range(p)}


def _recording(program, log):
    """Forward ``program``'s ops and the values sent back, logging ops."""
    value = None
    while True:
        try:
            op = program.send(value)
        except StopIteration as stop:
            return stop.value
        log.append(op)
        value = yield op


def _stripped(op):
    """An op with its data and tag dropped; routing marks kept by payload
    alone (their hit/build label follows whichever cache built it)."""
    if isinstance(op, Send):
        return ("send", op.dst, op.size())
    if isinstance(op, Recv):
        return ("recv", op.src)
    if isinstance(op, Compute):
        return ("compute", op.flops, op.label)
    assert isinstance(op, Mark)
    if op.payload[0] == "tri-routing":
        return ("routing", op.payload)
    return ("mark", op.label, op.payload)


CASES = [
    pytest.param(p, n, lines, pick, id=f"p{p}-n{n}-L{lines}-{name}")
    for p, n, lines in [(1, 6, 3), (2, 9, 4), (4, 16, 5), (8, 33, 3)]
    for name, pick in [("all", list(range(lines))), ("subset", list(range(lines))[1::2])]
]


@pytest.mark.parametrize("pipelined", [False, True], ids=["per-line", "pipelined"])
@pytest.mark.parametrize("p, n, lines, pick", CASES)
def test_plane_values_equal_the_node_programs(p, n, lines, pick, pipelined):
    systems = _systems(n, lines, seed=100 * p + lines)
    got = _plane_solve(p, systems, pick, pipelined)
    outs = [{} for _ in pick]
    launch(_reference_programs(p, systems, pick, pipelined, outs), Machine(n_procs=p))
    for col, s in enumerate(pick):
        want = np.concatenate([outs[col][r] for r in range(p)])
        assert got[:, s].tobytes() == want.tobytes()
    untouched = [s for s in range(lines) if s not in pick]
    assert not got[:, untouched].any()


@pytest.mark.parametrize("pipelined", [False, True], ids=["per-line", "pipelined"])
@pytest.mark.parametrize("p, n, lines, pick", CASES)
def test_plane_streams_equal_the_node_programs(p, n, lines, pick, pipelined):
    systems = _systems(n, lines, seed=7)
    logs = {r: [] for r in range(p)}
    programs = _reference_programs(p, systems, pick, pipelined, [{} for _ in pick])
    launch({r: _recording(prog, logs[r]) for r, prog in programs.items()},
           Machine(n_procs=p))
    g = ProcessorGrid((p,))
    plan = _LinePlan(DistArray((n, lines), g, dist=("block", "*"), name="A"), 0, pipelined)
    for rank in range(p):
        stream = list(plan.stream(rank, pick, reused=True))
        assert [_stripped(op) for op in stream] == [_stripped(op) for op in logs[rank]]
        # frozen and data-free: every send carries only its byte count
        assert all(op.data is None for op in stream if isinstance(op, Send))
    assert all(
        payload_nbytes(op.data) in (16, 64)
        for log in logs.values() for op in log if isinstance(op, Send)
    )


def test_zero_pivot_names_the_line_and_the_row():
    b, a, c, f = _systems(8, 6, seed=3)
    a[1, 4] = 0.0  # rank 0's forward reduction pivots on row 1 first
    with pytest.raises(ValidationError, match=r"\(row 1\) in line 4 along dim 0 of 'rhs'"):
        _plane_solve(2, (b, a, c, f), list(range(6)), pipelined=False)


def test_ranks_of_one_group_must_pick_the_same_lines():
    b, a, c, f = _systems(8, 4, seed=5)
    g = ProcessorGrid((2,))
    rhs = DistArray((8, 4), g, dist=("block", "*"), name="rhs")
    rhs.from_global(f)

    def prog(ctx):
        rows = rhs.owned_lists(ctx.rank)[0]
        out = np.zeros_like(rhs.local(ctx.rank))
        yield from _solve_lines(
            ctx, rhs, 0, rhs.local(ctx.rank), out, [d[rows] for d in (b, a, c)],
            [ctx.rank], False,
        )

    with pytest.raises(ValidationError, match="picked different lines"):
        Session(Machine(n_procs=2), g).run(prog)
