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

Both run through :func:`_solve_lines`, the one distributed line
solver, which variable-coefficient ADI (:mod:`repro.tensor.adi_varcoef`)
and MG2's parallel zebra lines (:mod:`repro.tensor.multigrid2d`) share.
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
from repro.tensor.poisson import Coeffs2D, check_pow2, laplacian_2d
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


def _check_adi(f: np.ndarray, grid: ProcessorGrid | None = None) -> None:
    """The up-front checks of both ADI front ends and their references.

    A square 2-D input; with a ``grid``, also a 2-D processor grid of
    power-of-two extents that leaves every block at least two rows (the
    parallel tridiagonal solver's minimum).
    """
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValidationError("ADI example uses square grids")
    if grid is None:
        return
    if grid.ndim != 2:
        raise ValidationError("ADI requires a 2-D processor grid")
    for s in grid.shape:
        check_pow2(s, "grid extent", least=1)
    if f.shape[0] < 2 * max(grid.shape):
        raise ValidationError("grid too coarse for this processor array")


def adi_reference(
    f: np.ndarray,
    iters: int,
    coeffs: Coeffs2D = Coeffs2D(),
    tau: float | None = None,
) -> np.ndarray:
    """Sequential PR-ADI (the numerics the distributed version must match)."""
    _check_adi(f)
    n = f.shape[0] - 1
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
    """One rank's share of a line-solve sweep along ``line_dim`` of ``arr``.

    Everything comes from the distribution: the solver group is the
    slice of ``arr``'s grid along the grid dimension ``line_dim`` is
    distributed over, this rank solves rows ``lo:hi`` of every line it
    holds, and ``lines`` are the global indices of those lines in local
    storage order (column ``s`` of the local block, with ``line_dim``
    moved first, is line ``lines[s]``).  No axis is special-cased, so the
    same plan serves a 2-D array and a plane *section* of a 3-D one.  It
    is loop-invariant, so it is derived once per layout and replayed
    every sweep, mirroring the compiler's cached communication schedules.
    """

    __slots__ = ("group", "my_pos", "lo", "hi", "lines")

    def __init__(self, arr, line_dim, rank):
        coords = arr.grid.coords_of(rank)
        g = arr.grid_dim_of(line_dim)
        key = list(coords)
        key[g] = slice(None)
        self.group = arr.grid[tuple(key)]
        self.my_pos = coords[g]
        self.lo, self.hi = block_bounds(arr.shape[line_dim], self.group.size, self.my_pos)
        self.lines = arr.owned_lists(rank)[1 - line_dim]

    def broadcast(self, diags):
        """A constant-coefficient system as per-line diagonals: rows
        ``lo:hi`` of each global diagonal, shared by every held line."""
        shape = (self.hi - self.lo, len(self.lines))
        return [np.broadcast_to(d[self.lo:self.hi, None], shape) for d in diags]


def _line_plan(ctx, arr, line_dim):
    """This rank's cached :class:`_LinePlan` (a generator: yields the
    plan's ``commsched`` mark, returns the plan).

    Line plans ride in the Session-owned
    :class:`~repro.compiler.schedule.PlanCache` under the ``"adi-line"``
    kind, so ``Session.stats()`` sees line-solver reuse next to doall
    plans, keyed by the same rule -- ``(arr.layout_key(), line_dim,
    rank)``; the layout key already names the grid shape and ranks, so a
    sweep back in a layout seen before replays -- and cleared by the
    same ``session.clear()``.  Partial eviction is harmless here (a plan
    rebuild is purely local and deterministic -- no protocol
    divergence), so the cache's plain LRU cap suffices.
    """
    plan, was_cached = ctx.session.plans.get(
        "adi-line",
        (arr.layout_key(), line_dim, ctx.rank),
        lambda: _LinePlan(arr, line_dim, ctx.rank),
        uids=uid_chain(arr),
    )
    yield Mark(
        "commsched/hit" if was_cached else "commsched/build",
        payload=("adi-lines", line_dim),
    )
    return plan


def _solve_lines(plan, line_dim, rhs, out, diags, pick, sys_ids, pipelined):
    """Solve the tridiagonal systems along ``line_dim`` of the lines ``pick``.

    The one distributed line solver (ADI, variable-coefficient ADI,
    MG2's parallel zebra lines).  ``rhs`` and ``out`` are this rank's
    local blocks; ``diags`` are the (lower, main, upper) diagonals shaped
    ``(hi - lo, len(plan.lines))``, one column per held line (a constant
    coefficient is :meth:`_LinePlan.broadcast`); ``pick`` holds the local
    indices of the lines to solve and ``sys_ids`` their message-tag
    namespaces.  ``pipelined`` streams every line through one pipelined
    multi-system solve (Listing 8); otherwise each line is one call of
    the parallel solver ``tri`` (Listing 7) over the plan's group.
    """
    rhs, out = np.moveaxis(rhs, line_dim, 0), np.moveaxis(out, line_dim, 0)
    pos, p = plan.my_pos, plan.group.size
    blocks = [(*(d[:, s] for d in diags), rhs[:, s]) for s in pick]
    outs = [{} for _ in blocks]
    if pipelined:
        progs = [pipelined_node_program(
            pos, p, blocks, ShuffleMapping(p), outs, sys_ids=sys_ids
        )]
    else:
        progs = (
            tri_node_program(pos, p, blk, ContiguousMapping(p), res, sys_id=sid)
            for blk, res, sid in zip(blocks, outs, sys_ids)
        )
    group = plan.group.linear
    for prog in progs:
        yield from translate_ranks(prog, group)
    for s, res in zip(pick, outs):
        out[:, s] = res[pos]


def _adi_run(machine, grid, session, fields, iters, tau, pipelined,
             build_resid, line_diags):
    """The distributed iteration both ADI front ends share.

    Scatters the global ``fields`` (``F`` first, then any coefficient
    fields) into ``(block, block)`` arrays beside ``u`` and the work
    arrays ``r``, ``w``, ``v``, then runs ``iters`` sweeps of
    ``[residual doall, x-lines, y-lines, update doall]``.  The front ends
    differ only in ``build_resid(arrays)``, the residual doall, and
    ``line_diags(plan, line_dim, rank, arrays)``, the per-line diagonals
    of one sweep direction.  Returns (u_global, trace).
    """
    f = fields["F"]
    n = f.shape[0] - 1
    arrays = {
        name: DistArray(f.shape, grid, dist=("block", "block"), name=name)
        for name in ("u", *fields, "r", "w", "v")
    }
    for name, value in fields.items():
        arrays[name].from_global(value)
    resid_loop = build_resid(arrays)
    update_loop = _build_update_loop(arrays["u"], arrays["v"], n, tau, grid)
    sweeps = ((arrays["r"], arrays["w"]), (arrays["w"], arrays["v"]))

    def program(ctx):
        me = ctx.rank
        for it in range(iters):
            yield from ctx.doall(resid_loop)
            for line_dim, (src, dst) in enumerate(sweeps):
                plan = yield from _line_plan(ctx, src, line_dim)
                sys_ids = [((it, "xy"[line_dim]), line_dim, int(g)) for g in plan.lines]
                yield from _solve_lines(
                    plan, line_dim, src.local(me), dst.local(me),
                    line_diags(plan, line_dim, me, arrays),
                    range(len(plan.lines)), sys_ids, pipelined,
                )
            yield from ctx.doall(update_loop)

    from repro.session import run_in

    trace = run_in(program, machine, grid, session)
    return arrays["u"].to_global(), trace


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
    _check_adi(f, grid)
    n = f.shape[0] - 1
    if tau is None:
        tau = default_tau(n, coeffs)
    hx2 = (1.0 / n) ** 2
    hy2 = (1.0 / n) ** 2
    systems = (
        _line_system(n, hx2, coeffs.a, coeffs.c / 2.0, tau),
        _line_system(n, hy2, coeffs.b, coeffs.c / 2.0, tau),
    )
    return _adi_run(
        machine, grid, session, {"F": f}, iters, tau, pipelined,
        lambda A: _build_residual_loop(
            A["r"], A["u"], A["F"], n, hx2, hy2, coeffs, grid
        ),
        lambda plan, line_dim, rank, A: plan.broadcast(systems[line_dim]),
    )
