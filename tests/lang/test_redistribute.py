"""Tests for owner-to-owner redistribution (repartition plans).

Covers the acceptance contract: round-trip value preservation across
block/cyclic/block-cyclic layouts, bit-identity of plan replay vs.
first build, cache hits on repeated layout flips, an aborted collective
leaving the array as it was, and the golden-trace assertion that
repartition moves strictly fewer bytes than the old gather-to-all path.
"""

import numpy as np
import pytest

from repro.compiler import repartition_pieces
from repro.lang import BlockCyclic, DistArray, ProcessorGrid
from repro.lang.dist import Distribution
from repro.machine import Machine
from repro.machine.ops import Barrier, Rendezvous
from repro.util.errors import DeadlockError, MachineError, ValidationError
from repro.session import Session


# ----------------------------------------------------------------------
# Host-side path (DistArray.redistribute)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "layouts",
    [
        [("cyclic",), ("block",)],
        [(BlockCyclic(3),), ("cyclic",), ("block",)],
    ],
)
def test_host_roundtrip_preserves_values_1d(layouts):
    n, p = 23, 4  # deliberately not a multiple of p
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    ref = np.sin(np.arange(float(n)))
    A.from_global(ref)
    for dist in layouts:
        A.redistribute(dist)
        np.testing.assert_array_equal(A.to_global(), ref)


def test_host_roundtrip_preserves_values_2d():
    g = ProcessorGrid((2, 2))
    A = DistArray((7, 9), g, dist=("block", "block"), name="A")
    ref = np.arange(63.0).reshape(7, 9)
    A.from_global(ref)
    for dist in [("cyclic", "block"), (BlockCyclic(2), "cyclic"), ("block", "block")]:
        A.redistribute(dist)
        np.testing.assert_array_equal(A.to_global(), ref)


def test_host_redistribute_replicated_roundtrip():
    p = 3
    g = ProcessorGrid((p,))
    A = DistArray((10,), g, name="A")  # replicated
    ref = np.arange(10.0)
    A.from_global(ref)
    A.redistribute(("block",))
    np.testing.assert_array_equal(A.to_global(), ref)
    A.redistribute(("*",))
    np.testing.assert_array_equal(A.to_global(), ref)
    for rank in g.linear:  # every rank holds the full copy again
        np.testing.assert_array_equal(A.local(rank), ref)


def test_pieces_partition_the_array():
    """Every element of the new layout is written exactly once."""
    n, p = 12, 3
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    new_dist = Distribution(("cyclic",), A.shape, g.shape)
    seen = {r: np.zeros(new_dist.local_shape(g.coords_of(r)), dtype=int) for r in g.linear}
    for _src, dst, _src_locs, dst_locs in repartition_pieces(A, new_dist):
        seen[dst][dst_locs] += 1
    for r in g.linear:
        np.testing.assert_array_equal(seen[r], 1)


# ----------------------------------------------------------------------
# Collective path (ctx.redistribute)
# ----------------------------------------------------------------------


def _flip_program(A, dists, out=None):
    def prog(ctx):
        for k, dist in enumerate(dists):
            yield from ctx.redistribute(A, dist)
            if out is not None and ctx.rank == 0:
                out.append(A.to_global().copy())

    return prog


def test_collective_redistribute_preserves_values_and_bumps_epoch():
    n, p = 16, 4
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    ref = np.arange(float(n)) * 2.0
    A.from_global(ref)
    epoch0 = A.comm_epoch

    Session(Machine(n_procs=p), g).run(_flip_program(A, [("cyclic",)]))
    assert A.dist.spec_key() == (("cyclic",),)
    assert A.comm_epoch == epoch0 + 1  # one bump per collective, not per rank
    np.testing.assert_array_equal(A.to_global(), ref)


def test_repeated_flips_hit_schedule_cache():
    n, p = 16, 4
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(np.arange(float(n)))
    flips = [("cyclic",), ("block",)] * 3
    sess = Session(Machine(n_procs=p), g)

    trace = sess.run(_flip_program(A, flips))
    # two distinct transitions build once each (the first rank to reach
    # a flip builds, the other ranks hit); the other four flips replay
    assert sess.plans.kind_stats() == {
        "repartition": {"hits": 6 * p - 2, "misses": 2}
    }
    assert trace.schedule_counts("repartition") == {"hit": 6 * p - 2, "miss": 2}
    assert sess.stats()["schedules"] == {"hits": 0, "misses": 0}
    np.testing.assert_array_equal(A.to_global(), np.arange(float(n)))


def test_replay_is_bit_identical_to_first_build():
    """The replayed flips must move byte-identical messages and produce
    byte-identical blocks, even with values mutated between flips."""
    n, p = 24, 3
    g = ProcessorGrid((p,))
    flips = [("cyclic",), ("block",)]

    def run(sweeps):
        A = DistArray((n,), g, dist=("block",), name="A")
        A.from_global(np.arange(float(n)) * 0.5)
        sess = Session(Machine(n_procs=p), g)
        traces = [sess.run(_flip_program(A, flips)) for _ in range(sweeps)]
        return A, traces

    A, traces = run(2)
    assert traces[1].schedule_counts("repartition") == {"hit": 2 * p}
    build_msgs = sorted((m.src, m.dst, m.nbytes) for m in traces[0].messages)
    replay_msgs = sorted((m.src, m.dst, m.nbytes) for m in traces[1].messages)
    assert build_msgs == replay_msgs  # replay == build on the wire

    fresh, (t_fresh,) = run(1)
    np.testing.assert_array_equal(A.to_global(), fresh.to_global())


def test_replay_observes_current_values():
    """Plans cache the moves, not the data."""
    n, p = 12, 2
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    sess = Session(Machine(n_procs=p), g)
    for k in range(3):
        A.from_global(np.arange(float(n)) + 100.0 * k)
        sess.run(_flip_program(A, [("cyclic",), ("block",)]))
        np.testing.assert_array_equal(A.to_global(), np.arange(float(n)) + 100.0 * k)


def test_consecutive_repartitions_with_message_free_flips():
    """Regression: a rank can race past one repartition's commit barrier
    into the next repartition before slower ranks leave the first.  When
    the second flip has no receives for that rank (same-layout flip, or
    relayout from a replicated source), it reaches the next rendezvous
    at once -- which must wait for the slower ranks, not apply the
    second relayout over blocks the first is still installing."""
    n, p = 16, 4
    g = ProcessorGrid((p,))
    A = DistArray((n,), g, dist=("block",), name="A")
    ref = np.arange(float(n))
    A.from_global(ref)
    sess = Session(Machine(n_procs=p), g)

    # same-layout second flip: every rank's share is a pure self-move
    sess.run(_flip_program(A, [("cyclic",), ("cyclic",)]))
    np.testing.assert_array_equal(A.to_global(), ref)

    # replicated -> distributed: again no receives anywhere
    B = DistArray((n,), g, name="B")
    B.from_global(ref)
    sess.run(_flip_program(B, [("*",), ("block",)]))
    np.testing.assert_array_equal(B.to_global(), ref)
    assert B.dist.spec_key() == (("block",),)


@pytest.mark.parametrize("form", ["ctx", "host"])
def test_redistribute_of_section_rejected(form):
    """Sections inherit their base's layout: repartitioning one must be
    a loud ValidationError, not an AttributeError -- in the parsub form
    and on the host alike."""
    g = ProcessorGrid((2,))
    u = DistArray((4, 8), g, dist=("*", "block"), name="u")
    sec = u[0, :]

    def prog(ctx):
        yield from ctx.redistribute(sec, ("block",))

    with pytest.raises(ValidationError, match="only whole DistArrays"):
        if form == "ctx":
            Session(Machine(n_procs=2), g).run(prog)
        else:
            sec.redistribute(("block",))
    assert u.dist.spec_key() == (("*",), ("block",))


def test_aborted_collective_repartition_leaves_the_array_as_it_was():
    """A rank that skips a grow leaves the others parked at the
    redistribution's rendezvous: the run fails, and the array keeps its
    layout, its values and its attribute set -- however often it is
    tried."""
    A = DistArray((16,), ProcessorGrid((2,)), dist=("block",), name="A")
    ref = np.arange(16.0)
    A.from_global(ref)
    g4 = ProcessorGrid((4,))
    sess = Session(Machine(n_procs=4), g4)
    layout, attrs = A.layout_key(), set(vars(A))

    def grow(ctx):
        if ctx.rank != 3:
            yield from ctx.redistribute(A, ("block",), grid=g4)

    for _ in range(3):
        with pytest.raises(MachineError) as err:
            sess.run(grow)
        assert A.layout_key() == layout
        np.testing.assert_array_equal(A.to_global(), ref)
        assert set(vars(A)) == attrs
        assert isinstance(err.value, DeadlockError)
        assert "rendezvous" in str(err.value)


def test_collective_redistribute_invalidates_sections_and_gathers():
    """A redistribution retires the old layout's gather plan for the
    layout the array is *in* -- the same request misses and rebuilds --
    but keeps it for the layout's return, where it hits again; a section
    sliced before the flip stays stale even then."""
    n, p = 16, 2
    g = ProcessorGrid((p,))
    u = DistArray((4, n), g, dist=("*", "block"), name="u")
    ref = np.arange(4.0 * n).reshape(4, n)
    u.from_global(ref)
    sec = u[0, :]
    sess = Session(Machine(n_procs=p), g)
    idx = {0: np.array([[0, n - 1]]), 1: np.array([[1, 0]])}
    got = []

    def prog(ctx):
        for layout in (("*", "cyclic"), ("*", "block")):
            vals = yield from ctx.cached_gather(g, u, idx[ctx.rank])
            got.append((ctx.rank, float(vals[0])))
            yield from ctx.redistribute(u, layout)
        vals = yield from ctx.cached_gather(g, u, idx[ctx.rank])
        got.append((ctx.rank, float(vals[0])))

    sess.run(prog)
    # block: build; cyclic: build (the block plan must not serve it);
    # block again: replay
    assert sess.stats()["schedules"] == {"hits": 1, "misses": 2}
    assert {v for r, v in got if r == 0} == {ref[0, n - 1]}
    assert {v for r, v in got if r == 1} == {ref[1, 0]}
    with pytest.raises(ValidationError, match="stale section"):
        sec.local(0)


# ----------------------------------------------------------------------
# Golden trace: owner-to-owner beats gather-to-all
# ----------------------------------------------------------------------


def _gather_to_all_relayout(machine, A, dist):
    """The seed's redistribution strategy, spelled as messages: gather
    every block to a root, assemble the global array, broadcast it, and
    re-slice locally -- what ``to_global()``/``from_global()`` would
    cost if the host-side loops were real communication."""
    g = A.grid
    new_dist = Distribution(dist, A.shape, g.shape)
    shape = A.shape

    def prog(ctx):
        me = ctx.rank
        blocks = yield from ctx.gather(g, np.ascontiguousarray(A.local(me)), root=g.linear[0])
        if ctx.rank == g.linear[0]:
            full = np.zeros(shape, dtype=A.dtype)
            for rank, block in zip(g.linear, blocks):
                full[np.ix_(*A.owned_lists(rank))] = block
        else:
            full = None
        full = yield from ctx.bcast(g, full, root=g.linear[0])
        mine = new_dist.owned_lists(g.coords_of(me))
        news[me] = np.ascontiguousarray(full[np.ix_(*mine)])
        yield Barrier(group=tuple(g.linear), tag="g2a-commit")
        yield Rendezvous(g.key(), "g2a-install",
                         action=lambda _payloads: A._install(g, new_dist, news))

    news = {}
    return Session(machine, g).run(prog)


def test_golden_repartition_beats_gather_to_all():
    """n=12, p=3, block -> cyclic: exactly 6 owner-to-owner messages of
    48 total bytes, strictly fewer than the gather-to-all relayout."""
    n, p = 12, 3
    g = ProcessorGrid((p,))
    ref = np.arange(float(n))

    A = DistArray((n,), g, dist=("block",), name="A")
    A.from_global(ref)
    t_sched = Session(Machine(n_procs=p), g).run(_flip_program(A, [("cyclic",)]))
    np.testing.assert_array_equal(A.to_global(), ref)

    B = DistArray((n,), g, dist=("block",), name="B")
    B.from_global(ref)
    t_g2a = _gather_to_all_relayout(Machine(n_procs=p), B, ("cyclic",))
    np.testing.assert_array_equal(B.to_global(), ref)
    assert B.dist.spec_key() == A.dist.spec_key()

    # golden: every off-diagonal old-block/new-block intersection is one
    # element here -> 6 messages x 8 bytes
    assert t_sched.message_count() == 6
    assert t_sched.total_bytes() == 48
    # the old path ships whole blocks to the root plus the whole array
    # down the broadcast tree
    assert t_g2a.total_bytes() == 2 * 4 * 8 + 2 * n * 8
    assert t_sched.total_bytes() < t_g2a.total_bytes()
    assert t_sched.message_count() == t_g2a.message_count() + 2
    # owner-to-owner: no repartition message ever carries the full array
    assert all(m.nbytes < n * 8 for m in t_sched.messages)
