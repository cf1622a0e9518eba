"""Unit tests for the grid collectives over arbitrary processor groups."""

import operator

import numpy as np
import pytest

from repro.machine import CostModel, Machine
from repro.machine import collectives as coll


def run_group(n, group, body):
    """Run ``body(rank)`` on every rank of an n-proc machine; idle others."""
    m = Machine(
        n_procs=n,
        cost=CostModel(alpha=1.0, beta=0.001, flop_time=1.0, send_overhead=0.0, gamma_hop=0.0),
    )
    results = {}

    def make(rank):
        def prog():
            if rank in group:
                results[rank] = yield from body(rank)

        return prog()

    m.run(make), results
    return results


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
def test_bcast_all_sizes(size):
    group = list(range(size))

    def body(rank):
        return coll.bcast(rank, group, "payload" if rank == 0 else None, root=0, tag="b")

    results = run_group(size, group, body)
    assert all(v == "payload" for v in results.values())
    assert len(results) == size


def test_bcast_nonzero_root_and_sparse_group():
    group = [1, 3, 6]

    def body(rank):
        return coll.bcast(rank, group, rank if rank == 3 else None, root=3, tag="b")

    results = run_group(8, group, body)
    assert results == {1: 3, 3: 3, 6: 3}


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_reduce_sum(size):
    group = list(range(size))

    def body(rank):
        return coll.reduce(rank, group, rank + 1, root=0, tag="r")

    results = run_group(size, group, body)
    assert results[0] == size * (size + 1) // 2
    for r in group[1:]:
        assert results[r] is None


def test_reduce_max_nonzero_root():
    group = [0, 2, 4, 5]

    def body(rank):
        return coll.reduce(rank, group, rank, root=4, tag="r", op=max)

    results = run_group(6, group, body)
    assert results[4] == 5


@pytest.mark.parametrize("size", [1, 2, 4, 7])
def test_allreduce(size):
    group = list(range(size))

    def body(rank):
        return coll.allreduce(rank, group, rank + 1, tag="a", op=operator.add)

    results = run_group(size, group, body)
    expected = size * (size + 1) // 2
    assert all(v == expected for v in results.values())


def test_allreduce_numpy_arrays():
    group = [0, 1, 2]

    def body(rank):
        return coll.allreduce(rank, group, np.full(3, float(rank)), tag="a", op=operator.add)

    results = run_group(3, group, body)
    for v in results.values():
        np.testing.assert_array_equal(v, [3.0, 3.0, 3.0])


@pytest.mark.parametrize("size", [1, 2, 3, 6])
def test_gather_preserves_group_order(size):
    group = list(range(size))

    def body(rank):
        return coll.gather(rank, group, rank * 10, root=0, tag="g")

    results = run_group(size, group, body)
    assert results[0] == [r * 10 for r in group]


@pytest.mark.parametrize("kind", ["bcast", "allreduce"])
def test_array_results_are_private_to_each_rank(kind):
    """Every rank gets its own copy of an array result, as if it had
    arrived in a by-value message: mutating one leaves the others as
    they were."""
    group = [0, 2, 3, 5]
    results = {}

    def body(rank):
        if kind == "bcast":
            value = np.arange(4.0) if rank == 2 else None
            got = yield from coll.bcast(rank, group, value, root=2, tag="b")
        else:
            got = yield from coll.allreduce(rank, group, np.full(4, float(rank)), tag="a")
        results[rank] = got
        if rank == group[-1]:
            got[:] = -1.0
        return got

    run_group(6, group, body)
    want = np.arange(4.0) if kind == "bcast" else np.full(4, 10.0)
    for rank in group[:-1]:
        np.testing.assert_array_equal(results[rank], want)
    assert len({id(v) for v in results.values()}) == len(group)


def test_frozen_array_results_are_shared_uncopied():
    """A frozen payload is by-value already and is not copied."""
    group = [0, 1, 2]
    payload = np.arange(3.0)
    payload.flags.writeable = False

    def body(rank):
        return coll.bcast(rank, group, payload if rank == 0 else None, root=0, tag="b")

    results = run_group(3, group, body)
    assert all(v is payload for v in results.values())


def test_bcast_log_depth_timing():
    """Binomial broadcast finishes in ceil(log2 p) message latencies."""
    size = 8
    group = list(range(size))
    m = Machine(
        n_procs=size,
        cost=CostModel(alpha=1.0, beta=0.0, gamma_hop=0.0, flop_time=0.0, send_overhead=0.0),
    )

    def make(rank):
        def prog():
            yield from coll.bcast(rank, group, 1, root=0, tag="b")

        return prog()

    trace = m.run(make)
    assert trace.makespan() == pytest.approx(3.0)  # log2(8) rounds
