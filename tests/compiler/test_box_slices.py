"""Frozen boxes replay as strided copies: a structural pin.

Block and cyclic distributions give every rank a rectangular local
section, so every box the compiler freezes for them is a product of
arithmetic runs and ``open_mesh`` hands back basic slices -- numpy then
moves the box as a strided copy where an ``np.ix_`` mesh is a
per-element gather.  That is a performance property no result can show,
so it is pinned here on the frozen records themselves, next to the
bit-identity of what replays through them.
"""

import numpy as np
import pytest

import repro
from repro import Machine, ProcessorGrid, Session
from repro.baselines import doall_reference
from repro.compiler.commsched import repartition_pieces
from repro.lang import Assign, DistArray, Doall, Owner, loopvars
from repro.lang.dist import BlockCyclic, Distribution


def stencil(n, grid_shape, dist):
    """The Jacobi listing of ``jacobi_large`` under a chosen layout."""
    grid = ProcessorGrid(grid_shape)
    X = DistArray((n, n), grid, dist=dist, name="X")
    F = DistArray((n, n), grid, dist=dist, name="F")
    rng = np.random.default_rng(9)
    X.from_global(rng.standard_normal((n, n)))
    F.from_global(rng.standard_normal((n, n)))
    i, j = loopvars("i j")
    loop = Doall(
        vars=(i, j), ranges=[(1, n - 2), (1, n - 2)], on=Owner(X, (i, j)),
        body=[Assign(
            X[i, j],
            0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1])
            - F[i, j],
        )],
        grid=grid,
    )
    sess = Session(Machine(n_procs=grid.size), grid)
    return repro.compile(loop, session=sess), X, loop


def frozen_selections(prog, loop):
    """Every box the analysis froze: gather sends/recvs/local moves of
    every rank and read array, and every rank's box-store ``locs``."""
    analysis, _ = prog.session.plans.analysis(loop, count=False)
    out = []
    for plans in analysis.read_plans:
        for plan in plans.values():
            ts = plan.transfer
            if ts is None:
                continue
            out += [sel for _, sel in ts.sends] + [sel for _, sel in ts.recvs]
            out += [s for s in (ts.self_src, ts.self_dst) if s is not None]
    for wplan in analysis.write_plans[0].values():
        if wplan.local_box is not None:
            out.append(wplan.local_box[0])
    assert out
    return out


def all_slices(sel):
    return all(isinstance(s, slice) for s in sel)


def steps(selections):
    return {s.step for sel in selections for s in sel}


def trace_sig(trace):
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


LAYOUTS = {
    "block-block": ((2, 2), ("block", "block")),
    "star-cyclic": ((4,), ("*", "cyclic")),
    "blockcyclic": ((2,), (BlockCyclic(2), "*")),
}


def test_block_block_jacobi_freezes_unit_slices_only():
    prog, _, loop = stencil(33, *LAYOUTS["block-block"])
    selections = frozen_selections(prog, loop)
    assert all(all_slices(sel) for sel in selections)
    assert steps(selections) == {None}


def test_cyclic_freezes_step_slices():
    prog, _, loop = stencil(33, *LAYOUTS["star-cyclic"])
    selections = frozen_selections(prog, loop)
    assert all(all_slices(sel) for sel in selections)
    # on 4 cyclic ranks a rank needs its own columns and both neighbours'
    # (3 of every 4), so each owner's sit at every third workspace column
    assert steps(selections) == {None, 3}


def test_block_cyclic_keeps_index_arrays():
    prog, _, loop = stencil(33, *LAYOUTS["blockcyclic"])
    selections = frozen_selections(prog, loop)
    fancy = [sel for sel in selections if not all_slices(sel)]
    assert fancy, "a block-cyclic workspace box is not an arithmetic run"
    assert all(isinstance(s, np.ndarray) for sel in fancy for s in sel)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_compiled_replay_matches_interpreted(layout):
    """What replays through the frozen boxes: the values of the
    sequential reference, and ``Program.run``'s trace equal to the live
    ``ctx.doall`` walk's."""
    pa, Xa, loop = stencil(33, *LAYOUTS[layout])
    pb, Xb, loop_b = stencil(33, *LAYOUTS[layout])
    state = {a: a.to_global() for a in loop.arrays()}

    def parsub(ctx):
        for _ in range(3):
            yield from ctx.doall(loop_b)

    ta, tb = pa.run(iters=3), pb.session.run(parsub)
    doall_reference([loop], state, 3)
    assert Xa.to_global().tobytes() == state[Xa].tobytes()
    np.testing.assert_array_equal(Xb.to_global(), Xa.to_global())
    assert trace_sig(ta) == trace_sig(tb)


@pytest.mark.parametrize("new_spec,new_grid,want_steps", [
    (("*", "block"), (4,), {None}),        # block -> block, other axis
    (("block", "*"), (2,), {None}),        # block -> block, fewer ranks
    (("cyclic", "*"), (4,), {None, 4}),    # block -> cyclic
    ((BlockCyclic(2), "*"), (2,), None),   # block -> block-cyclic: arrays
])
def test_repartition_pieces_are_slices_for_block_and_cyclic(
        new_spec, new_grid, want_steps):
    g = ProcessorGrid((4,))
    A = DistArray((23, 10), g, dist=("block", "*"), name="A")
    ref = np.random.default_rng(2).standard_normal(A.shape)
    A.from_global(ref)
    to_grid = ProcessorGrid(new_grid)
    new = Distribution(new_spec, A.shape, to_grid.shape)
    pieces = [sel for _, _, src, dst in
              repartition_pieces(A, new, new_grid=to_grid) for sel in (src, dst)]
    if want_steps is None:
        assert not all(all_slices(sel) for sel in pieces)
    else:
        assert all(all_slices(sel) for sel in pieces)
        assert steps(pieces) == want_steps
    A.redistribute(new_spec, grid=to_grid)
    np.testing.assert_array_equal(A.to_global(), ref)
