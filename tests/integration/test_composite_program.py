"""Integration: several parallel algorithms composed in one SPMD program.

The point of the paper's parsub/processor-slice design is modularity:
library routines compose without the caller managing channels.  These
tests run multiple algorithms back-to-back and nested in a single
machine run, checking that implicit tag management keeps every message
matched and the numerics equal the sequential composition.
"""

import numpy as np

from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
from repro.machine import CostModel, Machine
from repro.tensor.jacobi import build_jacobi_loop, jacobi_reference
from repro.tensor.multigrid2d import MG2, mg2_reference
from repro.tensor.poisson import manufactured_2d
from repro.session import Session


def test_jacobi_then_multigrid_same_machine():
    """Two library solvers in sequence inside one SPMD program."""
    n = 16
    _, f = manufactured_2d(n)
    m = Machine(n_procs=2, cost=CostModel.balanced())
    g = ProcessorGrid((1, 2))

    X = DistArray(f.shape, g, dist=("block", "block"), name="X")
    F1 = DistArray(f.shape, g, dist=("block", "block"), name="F1")
    F1.from_global(f)
    jac = build_jacobi_loop(X, F1, n, g)

    g1 = ProcessorGrid((2,))
    u = DistArray(f.shape, g1, dist=("*", "block"), name="u")
    F2 = DistArray(f.shape, g1, dist=("*", "block"), name="F2")
    F2.from_global(f)
    mg = MG2(u, F2, g1)

    def program(ctx):
        # both stages share one ctx: tags are keyed per grid, so the 2-D
        # Jacobi grid and the 1-D mg2 grid cannot collide
        for _ in range(3):
            yield from ctx.doall(jac)
        yield from mg.solve(ctx, 2)

    Session(m, g).run(program)
    np.testing.assert_allclose(X.to_global(), jacobi_reference(f, 3), rtol=1e-12)
    np.testing.assert_allclose(u.to_global(), mg2_reference(f, 2), rtol=1e-10, atol=1e-13)


def test_concurrent_subgrid_work_does_not_cross_talk():
    """Disjoint grid columns run different loops concurrently."""
    m = Machine(n_procs=4)
    g = ProcessorGrid((2, 2))
    n = 8
    A = DistArray((n, n), g, dist=("block", "block"), name="A")
    A.from_global(np.arange(64.0).reshape(8, 8))
    i, j = loopvars("i j")
    col_loops = {}
    for cj in range(2):
        col = g[:, cj]
        sec0 = A  # full array lives on the full grid; use per-column temp
        T = DistArray((n,), col, dist=("block",), name=f"T{cj}")
        T.from_global(np.full(n, float(cj)))
        (k,) = loopvars("k")
        col_loops[cj] = (
            Doall((k,), [(1, n - 2)], Owner(T, (k,)),
                  [Assign(T[k], 0.5 * (T[k - 1] + T[k + 1]) + float(cj))], col),
            T,
        )

    def program(ctx):
        cj = g.coords_of(ctx.rank)[1]
        loop, _ = col_loops[cj]
        for _ in range(4):
            yield from ctx.doall(loop)

    Session(m, g).run(program)
    for cj in range(2):
        _, T = col_loops[cj]
        ref = np.full(8, float(cj))
        for _ in range(4):
            new = ref.copy()
            new[1:-1] = 0.5 * (ref[:-2] + ref[2:]) + float(cj)
            ref = new
        np.testing.assert_allclose(T.to_global(), ref, rtol=1e-12)


def test_mg3_plane_solves_overlap_in_time():
    """Plane solves on different processor columns overlap (section 5)."""
    from repro.tensor.multigrid3d import mg3_solve
    from repro.tensor.poisson import manufactured_3d

    n = 8
    _, f = manufactured_3d(n)
    m = Machine(n_procs=4, cost=CostModel.hypercube_1989())
    _, trace = mg3_solve(m, ProcessorGrid((2, 2)), f, cycles=1)
    marks = trace.marks_with("mg3/plane")
    # group plane-relaxation mark times by processor column
    col_of = {0: 0, 2: 0, 1: 1, 3: 1}
    spans = {0: [], 1: []}
    for mk in marks:
        spans[col_of[mk.proc]].append(mk.time)
    lo0, hi0 = min(spans[0]), max(spans[0])
    lo1, hi1 = min(spans[1]), max(spans[1])
    # the two columns' plane-relaxation windows overlap
    assert max(lo0, lo1) < min(hi0, hi1)
