"""ADI iteration (paper section 4, Listings 7-8).

Peaceman-Rachford ADI in defect-correction form for

    a Uxx + b Uyy + c U = F,   homogeneous Dirichlet boundaries.

Each iteration computes the residual r = F - L u (one stencil doall,
same communication as a Jacobi step -- exactly what the paper says of
``resid``), then solves tridiagonal systems along every x line and every
y line and updates u:

    (I - tau L1) w = r        L1 = a d2/dx2 + c/2
    (I - tau L2) v = w        L2 = b d2/dy2 + c/2
    u <- u - 2 tau v

(the minus sign: r = -L e for the error e, and L is negative definite)

For commuting negative-definite L1, L2 the error amplification per
sweep is (1 - m1)(1 - m2) / ((1 + m1)(1 + m2)) with m_i = -tau lambda_i,
always below one -- the classical PR convergence.

Two variants, as in the paper:

* ``pipelined=False`` (Listing 7): each line is a separate call to the
  parallel tridiagonal solver ``tri`` over the owning processor-grid
  slice;
* ``pipelined=True`` (Listing 8): all of a slice's lines stream through
  one pipelined multi-system solve (``mtrixc``/``mtriyc``).
"""

from __future__ import annotations

import numpy as np

from repro.compiler.commsched import uid_chain
from repro.kernels.pipelined import pipelined_node_program
from repro.kernels.substructured import ContiguousMapping, ShuffleMapping, tri_node_program
from repro.kernels.thomas import thomas_solve_many
from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
from repro.machine.ops import Mark
from repro.machine.simulator import Machine
from repro.machine.translate import translate_ranks
from repro.tensor.poisson import Coeffs2D, laplacian_2d
from repro.util.errors import ValidationError
from repro.util.indexing import block_bounds


def _line_system(n: int, h2: float, coef: float, shift: float, tau: float):
    """Diagonals of (I - tau (coef * d2 + shift)) with identity boundaries."""
    b = np.zeros(n + 1)
    a = np.ones(n + 1)
    c = np.zeros(n + 1)
    t = tau * coef / h2
    b[1:-1] = -t
    c[1:-1] = -t
    a[1:-1] = 1.0 + 2.0 * t - tau * shift
    return b, a, c


def default_tau(n: int, coeffs: Coeffs2D = Coeffs2D()) -> float:
    """Single-parameter PR tau: 1/sqrt(lambda_min * lambda_max)."""
    lam_min = np.pi**2 * min(coeffs.a, coeffs.b)
    lam_max = 4.0 * n * n * max(coeffs.a, coeffs.b)
    return 1.0 / np.sqrt(lam_min * lam_max)


def adi_reference(
    f: np.ndarray,
    iters: int,
    coeffs: Coeffs2D = Coeffs2D(),
    tau: float | None = None,
) -> np.ndarray:
    """Sequential PR-ADI (the numerics the distributed version must match)."""
    n = f.shape[0] - 1
    if f.shape[0] != f.shape[1]:
        raise ValidationError("ADI example uses square grids")
    if tau is None:
        tau = default_tau(n, coeffs)
    hx2 = (1.0 / n) ** 2
    hy2 = (1.0 / n) ** 2
    bx, ax, cx = _line_system(n, hx2, coeffs.a, coeffs.c / 2.0, tau)
    by, ay, cy = _line_system(n, hy2, coeffs.b, coeffs.c / 2.0, tau)
    u = np.zeros_like(f)
    for _ in range(iters):
        r = f - laplacian_2d(u, coeffs)
        r[0, :] = r[-1, :] = 0.0
        r[:, 0] = r[:, -1] = 0.0
        w = thomas_solve_many(bx, ax, cx, r)          # lines along x (axis 0)
        v = thomas_solve_many(by, ay, cy, w.T).T      # lines along y (axis 1)
        u = u - 2.0 * tau * v
    return u


# ----------------------------------------------------------------------
# Distributed version
# ----------------------------------------------------------------------


def _build_residual_loop(r, u, F, n, hx2, hy2, coeffs, grid):
    i, j = loopvars("i j")
    lap = (
        (coeffs.a / hx2) * (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j])
        + (coeffs.b / hy2) * (u[i, j + 1] - 2.0 * u[i, j] + u[i, j - 1])
        + coeffs.c * u[i, j]
    )
    return Doall(
        vars=(i, j),
        ranges=[(1, n - 1), (1, n - 1)],
        on=Owner(r, (i, j)),
        body=[Assign(r[i, j], F[i, j] - lap)],
        grid=grid,
    )


def _build_update_loop(u, v, n, tau, grid):
    i, j = loopvars("i j")
    return Doall(
        vars=(i, j),
        ranges=[(1, n - 1), (1, n - 1)],
        on=Owner(u, (i, j)),
        body=[Assign(u[i, j], u[i, j] - (2.0 * tau) * v[i, j])],
        grid=grid,
    )


class _LinePlan:
    """One rank's precomputed share of a line-solve sweep.

    Deriving the solver group, block bounds and owned lines is pure
    layout information -- loop-invariant across ADI iterations -- so it
    is computed once per (grid, array layout, axis, rank) and replayed
    every sweep, mirroring the compiler's cached communication
    schedules.
    """

    __slots__ = ("group", "p", "my_pos", "lo", "hi", "my_lines")

    def __init__(self, grid, rhs_arr, axis, me):
        coords = grid.coords_of(me)
        if axis == 0:
            group_grid = grid[:, coords[1]]
            my_pos = coords[0]
            line_dim, sys_dim = 0, 1
        else:
            group_grid = grid[coords[0], :]
            my_pos = coords[1]
            line_dim, sys_dim = 1, 0
        self.group = group_grid.linear
        self.p = len(self.group)
        self.my_pos = my_pos
        n_line = rhs_arr.shape[line_dim]
        self.lo, self.hi = block_bounds(n_line, self.p, my_pos)
        # global indices of the lines (systems) I hold along sys_dim
        sys_bd = rhs_arr.dim(sys_dim)
        gd = rhs_arr.grid_dim_of(sys_dim)
        sys_coord = coords[gd] if gd is not None else 0
        self.my_lines = sys_bd.owned_indices(sys_coord)


def _line_plan(ctx, grid, rhs_arr, axis, me) -> tuple[_LinePlan, bool]:
    """Cached :class:`_LinePlan` under the ``"adi-line"`` plan kind.

    Line plans ride in the Session-owned
    :class:`~repro.compiler.schedule.PlanCache`, so ``Session.stats()``
    sees line-solver reuse next to doall plans, keyed by the same rule
    (the array's layout key: a sweep back in a layout seen before
    replays) and cleared by the same ``session.clear()``.  Partial eviction is
    harmless here (a plan rebuild is purely local and deterministic --
    no protocol divergence), so the cache's plain LRU cap suffices.
    """
    key = (grid.shape, grid.key(), rhs_arr.layout_key(), axis, me)
    return ctx.session.plans.get(
        "adi-line",
        key,
        lambda: _LinePlan(grid, rhs_arr, axis, me),
        uids=uid_chain(rhs_arr),
    )


def _solve_lines(ctx, grid, rhs_arr, out_arr, diags, axis, pipelined, phase):
    """Solve a tridiagonal system along ``axis`` for every grid line.

    axis 0: systems run along x; lines indexed by j; the solver group is
    my processor-grid column.  axis 1: transposed.  Implements the
    doall-of-parsub-calls of Listings 7-8.
    """
    b, a, c = diags
    me = ctx.rank
    plan, was_cached = _line_plan(ctx, grid, rhs_arr, axis, me)
    yield Mark(
        "commsched/hit" if was_cached else "commsched/build",
        payload=("adi-lines", axis),
    )
    group = plan.group
    p = plan.p
    my_pos = plan.my_pos
    lo, hi = plan.lo, plan.hi
    rhs_local = rhs_arr.local(me)
    out_local = out_arr.local(me)
    my_lines = plan.my_lines

    def line_block(s_local):
        if axis == 0:
            return rhs_local[:, s_local]
        return rhs_local[s_local, :]

    def store(s_local, x):
        if axis == 0:
            out_local[:, s_local] = x
        else:
            out_local[s_local, :] = x

    if pipelined:
        outs: list[dict[int, np.ndarray]] = [{} for _ in range(len(my_lines))]
        blocks = [
            (b[lo:hi], a[lo:hi], c[lo:hi], line_block(s_local).copy())
            for s_local in range(len(my_lines))
        ]
        sys_ids = [(phase, axis, int(gline)) for gline in my_lines]
        prog = pipelined_node_program(
            my_pos, p, blocks, ShuffleMapping(p), outs, sys_ids=sys_ids
        )
        yield from translate_ranks(prog, group)
        for s_local in range(len(my_lines)):
            store(s_local, outs[s_local][my_pos])
    else:
        for s_local, gline in enumerate(my_lines):
            out: dict[int, np.ndarray] = {}
            blk = (b[lo:hi], a[lo:hi], c[lo:hi], line_block(s_local).copy())
            prog = tri_node_program(
                my_pos, p, blk, ContiguousMapping(p), out,
                sys_id=(phase, axis, int(gline)),
            )
            yield from translate_ranks(prog, group)
            store(s_local, out[my_pos])


def adi_solve(
    machine: Machine,
    grid: ProcessorGrid,
    f: np.ndarray,
    iters: int,
    coeffs: Coeffs2D = Coeffs2D(),
    tau: float | None = None,
    pipelined: bool = False,
    session=None,
):
    """Distributed ADI (Listing 7, or Listing 8 when ``pipelined``).

    Requires a 2-D processor grid with power-of-two extents.  Runs in
    ``session`` (a fresh one per call when omitted, so repeated solves
    never alias each other's schedules).  Returns (u_global, trace).
    """
    n = f.shape[0] - 1
    if f.shape[0] != f.shape[1]:
        raise ValidationError("ADI example uses square grids")
    if grid.ndim != 2:
        raise ValidationError("ADI requires a 2-D processor grid")
    for s in grid.shape:
        if s & (s - 1):
            raise ValidationError("grid extents must be powers of two")
    if n + 1 < 2 * max(grid.shape):
        raise ValidationError("grid too coarse for this processor array")
    if tau is None:
        tau = default_tau(n, coeffs)
    hx2 = (1.0 / n) ** 2
    hy2 = (1.0 / n) ** 2
    bx, ax, cx = _line_system(n, hx2, coeffs.a, coeffs.c / 2.0, tau)
    by, ay, cy = _line_system(n, hy2, coeffs.b, coeffs.c / 2.0, tau)

    dist = ("block", "block")
    u = DistArray(f.shape, grid, dist=dist, name="u")
    F = DistArray(f.shape, grid, dist=dist, name="F")
    r = DistArray(f.shape, grid, dist=dist, name="r")
    w = DistArray(f.shape, grid, dist=dist, name="w")
    v = DistArray(f.shape, grid, dist=dist, name="v")
    F.from_global(f)

    resid_loop = _build_residual_loop(r, u, F, n, hx2, hy2, coeffs, grid)
    update_loop = _build_update_loop(u, v, n, tau, grid)

    def program(ctx):
        for it in range(iters):
            yield from ctx.doall(resid_loop)
            yield from _solve_lines(
                ctx, grid, r, w, (bx, ax, cx), 0, pipelined, phase=(it, "x")
            )
            yield from _solve_lines(
                ctx, grid, w, v, (by, ay, cy), 1, pipelined, phase=(it, "y")
            )
            yield from ctx.doall(update_loop)

    from repro.session import run_in

    trace = run_in(program, machine, grid, session)
    return u.to_global(), trace
