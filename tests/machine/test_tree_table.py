"""Tests for the binomial-tree routing of the grid collectives.

Each call derives the tree of its ``(group, root)`` pair once, in the
rendezvous action; these tests pin that derivation to the per-rank
binomial-tree formulas and the data-free streams to the tree.
"""

import numpy as np
import pytest

from repro.machine import CostModel, Machine, Recv, Send
from repro.machine import collectives as coll
from repro.util.errors import ValidationError


def run_group(n, group, body):
    m = Machine(
        n_procs=n,
        cost=CostModel(alpha=1.0, beta=0.001, flop_time=1.0, send_overhead=0.0,
                       gamma_hop=0.0),
    )
    results = {}

    def make(rank):
        def prog():
            if rank in group:
                results[rank] = yield from body(rank)

        return prog()

    return m.run(make), results


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("rpos", [0, 1])
def test_table_matches_inline_derivation(size, rpos):
    """The derived streams must equal the per-rank tree formulas."""
    if rpos >= size:
        pytest.skip("root position outside group")
    group = list(range(10, 10 + size))
    root = group[rpos]
    order = coll._rooted(group, root)
    bcast = coll._bcast_ops(order, 8, "b")
    _, reduce = coll._reduce(order, {r: 1 for r in group}, "r", lambda a, b: a + b)

    def rank_at(pos):
        return group[(pos + rpos) % size]

    for me in range(size):
        # bcast: recv from me - 2**floor(log2 me); sends at steps > me
        want = []
        if me:
            up = 1 << (me.bit_length() - 1)
            want.append(Recv(rank_at(me - up), ("b", "bcast", me)))
        step = 1
        while step < size:
            if me < step and me + step < size:
                want.append(Send(rank_at(me + step), None, ("b", "bcast", me + step), 8))
            step <<= 1
        assert bcast[rank_at(me)] == want
        # reduce: children below the lowest set bit, parent at it
        step, want = 1, []
        while step < size:
            if me % (2 * step) == step:
                want.append(
                    Send(rank_at(me - step), None, ("r", "reduce", me - step, step), 8)
                )
                break
            if me + step < size:
                want.append(Recv(rank_at(me + step), ("r", "reduce", me, step)))
            step <<= 1
        assert reduce[rank_at(me)] == want


def test_cached_collectives_produce_same_results():
    """A second invocation on the same group matches the first."""
    group = [1, 3, 4, 6]

    def body(rank):
        first = yield from coll.allreduce(rank, group, rank, tag="a1")
        second = yield from coll.allreduce(rank, group, rank, tag="a2")
        return (first, second)

    _, results = run_group(8, group, body)
    for r in group:
        assert results[r] == (14, 14)


def test_non_member_rank_rejected():
    """A rank or root outside the group is refused at the collective,
    before it yields anything."""
    group = [0, 2, 4]
    for call in (coll.bcast, coll.reduce, coll.gather):
        for rank, root in ((1, 0), (2, 3)):
            with pytest.raises(ValidationError, match="not in group"):
                next(call(rank, group, 1.0, root=root, tag="t"))
    with pytest.raises(ValidationError, match="not in group"):
        next(coll.allreduce(1, group, 1.0, tag="t"))


def test_bcast_array_payload_through_table():
    group = list(range(6))
    payload = np.arange(5.0)

    def body(rank):
        got = yield from coll.bcast(
            rank, group, payload if rank == 4 else None, root=4, tag="b"
        )
        return got

    _, results = run_group(6, group, body)
    for r in group:
        np.testing.assert_array_equal(results[r], payload)
