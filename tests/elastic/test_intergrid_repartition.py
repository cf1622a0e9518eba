"""Inter-grid repartition: moving a DistArray between processor grids.

The elastic primitive under everything in this directory: a repartition
whose destination grid differs from the source grid (grow or shrink the
rank set), executed collectively over the union of the two rank sets,
cached under the (from-layout, to-layout) pair key so morphing back is
a replay.
"""

import numpy as np
import pytest

from repro import DistArray, Machine, ProcessorGrid, Session
from repro.compiler.commsched import RepartitionPlan, repartition_pieces
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
    """Each rank's share of a plan -- its sends, its receives -- is the
    full enumeration filtered to that rank: seen from either end, the
    shares add up to every off-rank piece, with the piece's byte count."""
    from repro.lang.dist import Distribution

    g_src, g_dst = ProcessorGrid((2,)), ProcessorGrid((4,))
    A = make_array((11,), g_src, ("cyclic",))
    new = Distribution(("block",), A.shape, g_dst.shape)
    full = {
        (src, dst): int(np.prod(mesh_shape(sl))) * 8
        for src, dst, sl, dl in repartition_pieces(A, new, new_grid=g_dst)
        if src != dst
    }
    plan = RepartitionPlan(A, new, g_dst)
    sent = {(r, dst): nbytes for r, share in plan.sends.items() for dst, nbytes in share}
    received = {(src, r) for r, share in plan.recvs.items() for src in share}
    assert sent == full
    assert received == set(full)


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
    # the second 2->4 flip replays the first's plan
    before = dict(sess.plans.kind_stats()["repartition"])
    sess.run(shrinkgrow, g4, ("cyclic",), grid=union)
    after = sess.plans.kind_stats()["repartition"]
    assert after["misses"] == before["misses"], "grid flip replay recompiled"
    assert after["hits"] > before["hits"]
    np.testing.assert_array_equal(A.to_global(), want)


def test_stale_cross_grid_schedule_refuses_replay():
    """A repartition plan pinned before a grid move must refuse to
    apply to the moved array."""
    from repro.lang.dist import Distribution

    g2, g4 = ProcessorGrid((2,)), ProcessorGrid((4,))
    A = make_array((8,), g2, ("block",))
    new = Distribution(("cyclic",), A.shape, g2.shape)
    plan = RepartitionPlan(A, new)
    A.redistribute(("block",), grid=g4)
    want = A.to_global()
    with pytest.raises(ValidationError, match="different grid"):
        plan.apply(A)
    np.testing.assert_array_equal(A.to_global(), want)


def test_intergrid_needs_matching_ndim():
    g2 = ProcessorGrid((2,))
    A = make_array((8, 8), ProcessorGrid((2, 2)), ("block", "block"))
    with pytest.raises(Exception, match="grid ndim|distributed dims"):
        A.redistribute(("block", "block"), grid=g2)
