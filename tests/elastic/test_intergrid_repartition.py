"""Inter-grid repartition: moving a DistArray between processor grids.

The elastic primitive under everything in this directory: a repartition
whose destination grid differs from the source grid (grow or shrink the
rank set), executed collectively over the union of the two rank sets,
cached under the (from-layout, to-layout) pair key so morphing back is
a replay.
"""

import numpy as np
import pytest

import repro
from repro import DistArray, Machine, ProcessorGrid, Session
from repro.compiler.commsched import repartition_pieces
from repro.util.errors import ValidationError
from repro.util.indexing import mesh_shape


def make_array(shape, grid, dist, seed=3):
    A = DistArray(shape, grid, dist=dist, name="A")
    A.from_global(np.random.default_rng(seed).standard_normal(shape))
    return A


# ----------------------------------------------------------------------
# Host-side redistribute(grid=...)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("src_p,dst_p", [(2, 4), (4, 2), (1, 4), (3, 2)])
def test_host_redistribute_moves_grids_1d(src_p, dst_p):
    g_src, g_dst = ProcessorGrid((src_p,)), ProcessorGrid((dst_p,))
    A = make_array((17,), g_src, ("block",))
    want = A.to_global().copy()
    epoch = A.comm_epoch
    A.redistribute(("block",), grid=g_dst)
    assert A.grid.key() == g_dst.key()
    assert A.dist.grid_shape == (dst_p,)
    assert A.comm_epoch > epoch, "grid move must retire stale schedules"
    np.testing.assert_array_equal(A.to_global(), want)
    # blocks now live exactly on the destination ranks
    assert set(A._blocks) == set(g_dst.linear)


def test_host_redistribute_2d_grid_change():
    g_src, g_dst = ProcessorGrid((2, 2)), ProcessorGrid((2, 1))
    A = make_array((8, 6), g_src, ("block", "block"))
    want = A.to_global().copy()
    A.redistribute(("block", "cyclic"), grid=g_dst)
    assert A.grid.shape == (2, 1)
    np.testing.assert_array_equal(A.to_global(), want)


def test_host_redistribute_replicated_onto_larger_grid():
    g_src, g_dst = ProcessorGrid((2,)), ProcessorGrid((4,))
    A = make_array((9,), g_src, ("*",))
    want = A.to_global().copy()
    A.redistribute(("block",), grid=g_dst)
    assert A.grid.key() == g_dst.key()
    np.testing.assert_array_equal(A.to_global(), want)


def test_same_key_different_shape_is_a_real_move():
    """(2,2) and (4,) share a rank set (and thus a grid key); moving
    between them must still re-lay blocks out, not no-op."""
    g_sq, g_flat = ProcessorGrid((2, 2)), ProcessorGrid((4,))
    A = make_array((8, 8), g_sq, ("block", "block"))
    want = A.to_global().copy()
    A.redistribute(("block", "*"), grid=g_flat)
    assert A.grid.shape == (4,)
    assert A.dist.grid_shape == (4,)
    np.testing.assert_array_equal(A.to_global(), want)


# ----------------------------------------------------------------------
# repartition_pieces across grids
# ----------------------------------------------------------------------


def test_pieces_cover_destination_exactly():
    from repro.lang.dist import Distribution

    g_src, g_dst = ProcessorGrid((3,)), ProcessorGrid((2,))
    A = make_array((13,), g_src, ("block",))
    new = Distribution(("cyclic",), A.shape, g_dst.shape)
    counts = np.zeros(13, dtype=int)
    for src, dst, src_locs, dst_locs in repartition_pieces(A, new, new_grid=g_dst):
        assert src in g_src.linear and dst in g_dst.linear
        assert mesh_shape(src_locs) == mesh_shape(dst_locs)
        # count coverage through the destination's owned positions
        owned = new.owned_lists(g_dst.coords_of(dst))[0]
        counts[np.asarray(owned)[dst_locs[0]]] += 1
    np.testing.assert_array_equal(counts, np.ones(13, dtype=int))


def test_rank_filtered_pieces_union_matches_full_enumeration():
    from repro.lang.dist import Distribution

    g_src, g_dst = ProcessorGrid((2,)), ProcessorGrid((4,))
    A = make_array((11,), g_src, ("cyclic",))
    new = Distribution(("block",), A.shape, g_dst.shape)
    full = set()
    for src, dst, sl, dl in repartition_pieces(A, new, new_grid=g_dst):
        full.add((src, dst))
    union = set()
    for r in sorted(set(g_src.linear) | set(g_dst.linear)):
        for src, dst, sl, dl in repartition_pieces(A, new, rank=r, new_grid=g_dst):
            assert r in (src, dst)
            union.add((src, dst))
    assert union == full


# ----------------------------------------------------------------------
# SPMD ctx.redistribute(grid=...): collective over the union
# ----------------------------------------------------------------------


def test_spmd_intergrid_redistribute_and_replay():
    g2, g4 = ProcessorGrid((2,)), ProcessorGrid((4,))
    sess = Session(Machine(n_procs=4))
    A = make_array((19,), g2, ("block",))
    want = A.to_global().copy()
    union = g2.union(g4)

    def shrinkgrow(ctx, target, specs):
        yield from ctx.redistribute(A, specs, grid=target)

    trace = sess.run(shrinkgrow, g4, ("cyclic",), grid=union)
    assert A.grid.key() == g4.key()
    np.testing.assert_array_equal(A.to_global(), want)
    assert set(trace.schedule_directions()) == {"repartition"}

    sess.run(shrinkgrow, g2, ("block",), grid=union)
    # the second 2->4 flip replays the first's schedules
    before = dict(sess.cache.by_direction["repartition"])
    sess.run(shrinkgrow, g4, ("cyclic",), grid=union)
    after = sess.cache.by_direction["repartition"]
    assert after["misses"] == before["misses"], "grid flip replay recompiled"
    assert after["hits"] > before["hits"]
    np.testing.assert_array_equal(A.to_global(), want)


def test_stale_cross_grid_schedule_refuses_replay():
    """A frozen repartition schedule pinned before a grid move must
    refuse to replay against the moved array."""
    from repro.compiler.commsched import build_repartition_schedule
    from repro.lang.dist import Distribution

    g2, g4 = ProcessorGrid((2,)), ProcessorGrid((4,))
    A = make_array((8,), g2, ("block",))
    new = Distribution(("cyclic",), A.shape, g2.shape)
    sched = build_repartition_schedule(A, new, rank=0)
    A.redistribute(("block",), grid=g4)
    with pytest.raises(ValidationError, match="different grid"):
        sched.check_replayable(A)


def test_intergrid_needs_matching_ndim():
    g2 = ProcessorGrid((2,))
    A = make_array((8, 8), ProcessorGrid((2, 2)), ("block", "block"))
    with pytest.raises(Exception, match="grid ndim|distributed dims"):
        A.redistribute(("block", "block"), grid=g2)
