"""Tests for the runtime inspector/executor (irregular gathers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import DistArray, KaliCtx, ProcessorGrid
from repro.compiler import inspector_gather
from repro.machine import Machine
from repro.util.errors import ValidationError
from repro.session import Session


def gather_on_all(n, p, dist, index_lists):
    """Run a collective inspector gather; index_lists[rank] -> (m, 1) idx."""
    m = Machine(n_procs=p)
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=(dist,), name="A")
    A.from_global(np.arange(float(n)) * 10.0)
    results = {}

    def prog(ctx):
        idx = index_lists.get(ctx.rank)
        arr = None if idx is None else np.asarray(idx, dtype=np.int64).reshape(-1, 1)
        results[ctx.rank] = yield from inspector_gather(ctx, g, A, arr)

    Session(m, g).run(prog)
    return results


@pytest.mark.parametrize("dist", ["block", "cyclic"])
def test_gather_arbitrary_indices(dist):
    results = gather_on_all(
        12, 3, dist,
        {0: [11, 0, 5], 1: [3, 3], 2: []},
    )
    np.testing.assert_array_equal(results[0], [110.0, 0.0, 50.0])
    np.testing.assert_array_equal(results[1], [30.0, 30.0])
    assert results[2].size == 0


def test_gather_2d_indices():
    m = Machine(n_procs=2)
    g = ProcessorGrid((2,))
    A = DistArray((4, 6), g, dist=("*", "block"), name="A")
    ref = np.arange(24.0).reshape(4, 6)
    A.from_global(ref)
    results = {}

    def prog(ctx):
        if ctx.rank == 0:
            idx = np.array([[0, 0], [3, 5], [2, 2]])
        else:
            idx = np.array([[1, 4]])
        results[ctx.rank] = yield from inspector_gather(ctx, g, A, idx)

    Session(m, g).run(prog)
    np.testing.assert_array_equal(results[0], [ref[0, 0], ref[3, 5], ref[2, 2]])
    np.testing.assert_array_equal(results[1], [ref[1, 4]])


def test_gather_requires_round_trip_messages():
    m = Machine(n_procs=2)
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))

    def prog(ctx):
        idx = np.array([[7 - ctx.rank * 7]])  # each wants the other's element
        yield from inspector_gather(ctx, g, A, idx)

    trace = Session(m, g).run(prog)
    # two rounds (request + reply), both directions
    assert trace.message_count() == 4


def test_gather_shape_validation():
    m = Machine(n_procs=1)
    g = ProcessorGrid((1,))
    A = DistArray((8,), g, dist=("block",), name="A")

    def prog(ctx):
        with pytest.raises(ValidationError):
            yield from inspector_gather(ctx, g, A, np.zeros((2, 3), dtype=np.int64))
        return
        yield  # pragma: no cover

    Session(m, g).run(prog)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=40),
    p=st.integers(min_value=1, max_value=5),
    dist=st.sampled_from(["block", "cyclic"]),
    seed=st.integers(0, 2**31),
)
def test_property_gather_matches_direct_read(n, p, dist, seed):
    rng = np.random.default_rng(seed)
    lists = {
        r: rng.integers(0, n, size=rng.integers(0, 6)).tolist() for r in range(p)
    }
    results = gather_on_all(n, p, dist, lists)
    for r in range(p):
        np.testing.assert_array_equal(
            results[r], np.array([i * 10.0 for i in lists[r]])
        )


@pytest.mark.parametrize("dtype", [np.int32, np.float32, np.complex128])
def test_gather_preserves_dtype(dtype):
    """Gathered values (including empty replies) carry the array dtype."""
    m = Machine(n_procs=3)
    g = ProcessorGrid((3,))
    A = DistArray((12,), g, dist=("block",), name="A", dtype=dtype)
    A.from_global((np.arange(12) * 3).astype(dtype))
    results = {}

    # rank 0 gathers from everyone, rank 1 from nobody, rank 2 locally:
    # owners must reply to empty requests with dtype-correct empties.
    idx = {0: [11, 0, 4], 1: [], 2: [8]}

    def prog(ctx):
        arr = np.asarray(idx[ctx.rank], dtype=np.int64).reshape(-1, 1)
        results[ctx.rank] = yield from inspector_gather(ctx, g, A, arr)

    Session(m, g).run(prog)
    for r in range(3):
        assert results[r].dtype == np.dtype(dtype)
    np.testing.assert_array_equal(results[0], np.array([33, 0, 12], dtype=dtype))
    assert results[1].size == 0
    np.testing.assert_array_equal(results[2], np.array([24], dtype=dtype))


def test_reply_payloads_carry_array_dtype_on_wire():
    """Every reply -- including the empty reply to a rank that requested
    nothing -- is charged at the array dtype's width, not float64's; the
    values themselves move at the grid rendezvous, so no reply carries
    data."""
    from repro.machine.ops import Send

    m = Machine(n_procs=2)
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A", dtype=np.int16)
    A.from_global(np.arange(8, dtype=np.int16))
    seen = {}
    replies = []

    def prog(ctx):
        # only rank 0 requests anything; rank 1 still sends an (empty) reply
        idx = np.array([[7]]) if ctx.rank == 0 else None
        inner = inspector_gather(ctx, g, A, idx)
        # interpose on the op stream to capture the actual wire ops
        value = None
        try:
            while True:
                op = inner.send(value)
                if isinstance(op, Send) and op.tag[1] == "rep":
                    replies.append(op)
                value = yield op
        except StopIteration as stop:
            seen[ctx.rank] = stop.value

    trace = Session(m, g).run(prog)
    assert len(replies) == 2  # one reply each way, one of them empty
    assert all(op.data is None for op in replies)
    # the one-element int16 reply occupies 2 bytes on the wire, not 8
    assert sorted(op.size() for op in replies) == [0, 2]
    assert sorted(msg.nbytes for msg in trace.messages if msg.tag[1] == "rep") == [0, 2]
    assert seen[0].dtype == np.int16 and seen[1].dtype == np.int16
    assert seen[0].tolist() == [7] and seen[1].size == 0


@pytest.mark.parametrize("cached", [False, True], ids=["inspector", "cached"])
@pytest.mark.parametrize("dist, row", [
    ("cyclic", [-1]),   # used to wrap around to element 7
    ("block", [-1]),    # used to fail in numpy on a negative local index
    ("block", [8]),     # used to fail in numpy past the end
])
def test_out_of_range_index_rows_rejected_before_any_op(dist, row, cached):
    """A request row outside the array raises ValidationError on the
    calling rank, naming the row and the shape, before any op."""
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=(dist,), name="A")
    A.from_global(np.arange(8.0))
    ctx = KaliCtx(0, g, session=Session())
    gen = (ctx.cached_gather(g, A, [row]) if cached
           else inspector_gather(ctx, g, A, [row]))
    with pytest.raises(ValidationError, match=rf"index row \[{row[0]}\].*shape \(8,\)"):
        next(gen)

    def prog(ctx):
        idx = [row] if ctx.rank == 0 else None
        if cached:
            yield from ctx.cached_gather(g, A, idx)
        else:
            yield from inspector_gather(ctx, g, A, idx)

    with pytest.raises(ValidationError, match="out of bounds"):
        Session(Machine(n_procs=2), g).run(prog)
