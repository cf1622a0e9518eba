"""Property-based tests: collectives on arbitrary processor groups."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CostModel, Machine
from repro.machine import collectives as coll


def run_group(n, group, body):
    m = Machine(
        n_procs=n,
        cost=CostModel(alpha=0.1, beta=0.0, gamma_hop=0.0, flop_time=0.0, send_overhead=0.0),
    )
    results = {}

    def make(rank):
        def prog():
            if rank in group:
                results[rank] = yield from body(rank)

        return prog()

    m.run(make)
    return results


group_strategy = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1,
            max_size=n,
            unique=True,
        ),
        st.integers(0, 100),
    )
)


@settings(max_examples=40, deadline=None)
@given(params=group_strategy)
def test_property_allreduce_any_group(params):
    n, group, salt = params
    vals = {r: float((r + 1) * (salt + 1) % 17) for r in group}

    def body(rank):
        return coll.allreduce(rank, group, vals[rank], tag=("p", salt))

    results = run_group(n, group, body)
    expected = sum(vals.values())
    assert all(abs(v - expected) < 1e-12 for v in results.values())
    assert set(results) == set(group)


@settings(max_examples=40, deadline=None)
@given(params=group_strategy)
def test_property_bcast_any_root(params):
    n, group, salt = params
    root = group[salt % len(group)]

    def body(rank):
        data = ("payload", salt) if rank == root else None
        return coll.bcast(rank, group, data, root=root, tag=("b", salt))

    results = run_group(n, group, body)
    assert all(v == ("payload", salt) for v in results.values())


@settings(max_examples=30, deadline=None)
@given(params=group_strategy)
def test_property_gather_any_root(params):
    n, group, salt = params
    root = group[salt % len(group)]

    def body(rank):
        return coll.gather(rank, group, f"item{rank}", root=root, tag=("g", salt))

    results = run_group(n, group, body)
    assert results[root] == [f"item{r}" for r in group]
    for r in group:
        if r != root:
            assert results[r] is None
