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
It is a collective of the array's whole grid, built like a
redistribution or a gather: one cached grid-wide :class:`_LinePlan` per
array layout and sweep direction, and one kind-tagged rendezvous per
call, whose action runs the partition method (Wang 1981) for every
picked line of every solver group as array operations over a trailing
lines axis.  The arithmetic is the reference kernels' own
(:mod:`repro.kernels.substructured`), so the values equal what
``tri_node_program`` and ``pipelined_node_program`` store, by
``tobytes()``.  Each rank then walks its frozen data-free op stream in
the variant's order; the two variants share the data plane and differ
only in their streams.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.commsched import _mark, uid_chain
from repro.kernels.substructured import (
    SUBST_FLOPS_PER_ROW,
    THOMAS_FLOPS_PER_ROW,
    ContiguousMapping,
    ShuffleMapping,
    TreeRouting,
    local_reduce,
    reduce_flops,
    reduce_four_rows,
    solve_reduced_pairs,
)
from repro.kernels.thomas import ZeroPivot, thomas_solve
from repro.lang import Assign, DistArray, Doall, Owner, ProcessorGrid, loopvars
from repro.machine.ops import Compute, Mark, Recv, Rendezvous, Send
from repro.machine.simulator import Machine
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
        w = thomas_solve(bx, ax, cx, r)          # lines along x (axis 0)
        v = thomas_solve(by, ay, cy, w.T).T      # lines along y (axis 1)
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


def _line_steps(routing, group, pos, m, kind, sid, key):
    """One system's data-free ops on the rank at position ``pos`` of
    ``group``, cut into the partition method's steps.

    Mirrors the steps of
    :func:`~repro.kernels.substructured.partition_steps`, which
    ``tri_node_program`` runs in order and ``pipelined_node_program``
    interleaves across systems, with their data and tags stripped: the
    local reduction and its upward send; per tree pair held, one
    reduction; the apex; per tree pair held, one substitution; the block
    substitution.  It is written separately on purpose: the line-plane
    tests compare these streams with what the node programs yield, and
    a stream derived from ``partition_steps`` would compare the schedule
    with itself.  ``routing`` is None for a one-rank group (one Thomas
    solve).  ``kind`` prefixes the marks, ``sid`` is their system id and
    ``key`` the system's message-tag namespace.
    """
    if routing is None:
        return [(Compute(flops=THOMAS_FLOPS_PER_ROW * m, label="thomas"),)]

    def recv(holder, *where):
        return (Recv(group[holder], ("tri", key, *where)),) if holder != pos else ()

    def send(dest, nbytes, *where):
        if dest == pos:
            return ()
        return (Send(group[dest], None, ("tri", key, *where), nbytes),)

    k, top = routing.k, routing.k - 1
    steps = [(
        Mark(f"{kind}/reduce", payload=(sid, 0)),
        Compute(flops=reduce_flops(m), label="local_reduce"),
        *send(routing.up_dest(0, pos), _PAIR_BYTES, "up", 0, pos),
    )]
    for level in range(1, k):
        for j in routing.holdings(pos, level):
            steps.append((
                Mark(f"{kind}/reduce", payload=(sid, level)),
                *recv(routing.rank_of(level - 1, 2 * j), "up", level - 1, 2 * j),
                *recv(routing.rank_of(level - 1, 2 * j + 1), "up", level - 1, 2 * j + 1),
                Compute(flops=reduce_flops(4), label="tree_reduce"),
                *send(routing.up_dest(level, j), _PAIR_BYTES, "up", level, j),
            ))
    if pos == routing.apex:
        steps.append((
            Mark(f"{kind}/apex", payload=(sid, k)),
            *recv(routing.rank_of(top, 0), "up", top, 0),
            *recv(routing.rank_of(top, 1), "up", top, 1),
            Compute(flops=THOMAS_FLOPS_PER_ROW * 4, label="apex_thomas"),
            *send(routing.rank_of(top, 0), _X_BYTES, "dn", top, 0),
            *send(routing.rank_of(top, 1), _X_BYTES, "dn", top, 1),
        ))
    for level in range(k - 1, 0, -1):
        for j in routing.holdings(pos, level):
            steps.append((
                Mark(f"{kind}/subst", payload=(sid, level)),
                *recv(routing.up_dest(level, j), "dn", level, j),
                Compute(flops=SUBST_FLOPS_PER_ROW * 2, label="tree_subst"),
                *send(routing.rank_of(level - 1, 2 * j), _X_BYTES, "dn", level - 1, 2 * j),
                *send(routing.rank_of(level - 1, 2 * j + 1), _X_BYTES,
                      "dn", level - 1, 2 * j + 1),
            ))
    steps.append((
        Mark(f"{kind}/subst", payload=(sid, 0)),
        *recv(routing.up_dest(0, pos), "dn", 0, pos),
        Compute(flops=SUBST_FLOPS_PER_ROW * m, label="block_subst"),
    ))
    return steps


# wire sizes of a boundary pair (two 4-vectors) and of two solved values
_PAIR_BYTES = 8 * 8
_X_BYTES = 2 * 8


def _partition_solve(blocks):
    """The partition method (Wang 1981) on stacked lines.

    ``blocks[pos]`` is the (lower, main, upper, rhs) block of group
    position ``pos``, each shaped ``(m_pos, L)``: column ``l`` of every
    block is one line's system.  Runs the node programs' arithmetic --
    the local reductions, each tree level, the apex and the
    substitutions -- once over all L lines; returns each position's
    solved block.
    """
    p = len(blocks)
    if p == 1:
        return [thomas_solve(*blocks[0])]
    k = p.bit_length() - 1
    reds = [local_reduce(*blk) for blk in blocks]
    pairs = {(0, j): (red.first, red.last) for j, red in enumerate(reds)}
    saved = {}
    for level in range(1, k):
        for j in range(p >> level):
            first, last, saved[level, j] = reduce_four_rows(
                pairs[level - 1, 2 * j], pairs[level - 1, 2 * j + 1]
            )
            pairs[level, j] = (first, last)
    x4 = solve_reduced_pairs([pairs[k - 1, 0], pairs[k - 1, 1]])
    x = {(k - 1, 0): x4[0:2], (k - 1, 1): x4[2:4]}
    for level in range(k - 1, 0, -1):
        for j in range(p >> level):
            x4 = saved[level, j].interior_solve(*x[level, j])
            x[level - 1, 2 * j], x[level - 1, 2 * j + 1] = x4[0:2], x4[2:4]
    return [red.interior_solve(*x[0, j]) for j, red in enumerate(reds)]


class _LinePlan:
    """Every line solve along ``line_dim`` of ``arr``, for its whole grid.

    Everything comes from the distribution: a solver group is a slice of
    ``arr``'s grid along the grid dimension ``line_dim`` is distributed
    over (``groups``, ranks in position order), and ``lines[g]`` are the
    global indices of the lines group ``g`` holds, in local storage order
    (column ``s`` of a local block, with ``line_dim`` moved first, is
    line ``lines[g][s]``).  No axis is special-cased, so the same plan
    serves a 2-D array and a plane *section* of a 3-D one.

    It also holds each rank's data-free op stream in the solve order
    ``pipelined`` names, derived once from the tree routing it builds:
    without it ``streams[rank][s]`` is line ``s``'s whole solve (Listing
    7's order, the contiguous mapping); with it ``streams[rank][step][s]``
    is system ``s``'s share of one step of the pipelined solve (Listing
    8's order, the shuffle mapping).  Immutable once built;
    :meth:`solve` moves the values.
    """

    __slots__ = ("name", "line_dim", "groups", "lines", "pipelined", "streams",
                 "routing_payload")

    def __init__(self, arr, line_dim, pipelined):
        grid = arr.grid
        g = arr.grid_dim_of(line_dim)
        groups = {}
        for rank in grid.linear:
            key = list(grid.coords_of(rank))
            key[g] = slice(None)
            group = tuple(grid[tuple(key)].linear)
            groups[group] = arr.owned_lists(rank)[1 - line_dim]
        self.name, self.line_dim = arr.name, line_dim
        self.groups, self.lines = tuple(groups), tuple(groups.values())
        self.pipelined = pipelined
        p = grid.shape[g]
        mapping = ShuffleMapping if pipelined else ContiguousMapping
        routing = TreeRouting(mapping(p)) if p > 1 else None
        self.routing_payload = None if routing is None or pipelined else (
            ("tri-routing", mapping.name, p)
        )
        self.streams = {}
        for group, lines in groups.items():
            for pos, rank in enumerate(group):
                lo, hi = block_bounds(arr.shape[line_dim], p, pos)
                if pipelined:
                    self.streams[rank] = tuple(zip(*(
                        _line_steps(routing, group, pos, hi - lo, "mtri", s, s)
                        for s in range(len(lines))
                    )))
                else:
                    self.streams[rank] = tuple(
                        sum(_line_steps(routing, group, pos, hi - lo, "tri", int(line), s), ())
                        for s, line in enumerate(lines)
                    )

    def stream(self, rank, pick, reused, ctx=None):
        """``rank``'s data-free ops for solving its lines ``pick``.

        The per-line order's routing marks go through ``ctx``, the
        calling rank's context, so a ``marks="cheap"`` run counts them
        instead; without one they are yielded.
        """
        table = self.streams[rank]
        if self.pipelined:
            for step in table:
                for ops in step[:len(pick)]:
                    yield from ops
            return
        for n, s in enumerate(pick):
            if self.routing_payload is not None:
                # the routing is built with the plan, on the call that missed
                label = "commsched/hit" if reused or n > 0 else "commsched/build"
                yield from _mark(ctx, label, self.routing_payload)
            yield from table[s]

    def solve(self, payloads):
        """Solve the picked lines of every group, in process.

        ``payloads[rank]`` is the rank's ``(rhs, out, diags, pick)``:
        its local rhs and output blocks, its (lower, main, upper)
        diagonals with ``line_dim`` first, one column per held line, and
        the local indices of the lines to solve -- the same for every
        rank of a group.  Stacks the picked lines of every group at each
        group position and runs :func:`_partition_solve` once.
        """
        d = self.line_dim
        picks = [list(payloads[group[0]][3]) for group in self.groups]
        for group, pick in zip(self.groups, picks):
            if any(list(payloads[r][3]) != pick for r in group):
                raise ValidationError(
                    f"the ranks {group} of one line group picked different lines"
                )
        blocks = []
        for pos in range(len(self.groups[0])):
            cols = [
                (*(dg[:, pick] for dg in payloads[group[pos]][2]),
                 np.moveaxis(payloads[group[pos]][0], d, 0)[:, pick])
                for group, pick in zip(self.groups, picks)
            ]
            blocks.append([np.concatenate(parts, axis=1) for parts in zip(*cols)])
        try:
            xs = _partition_solve(blocks)
        except ZeroPivot as err:
            stacked = np.concatenate([lines[pick] for lines, pick in zip(self.lines, picks)])
            raise ValidationError(
                f"{err.where} in line {int(stacked[err.line])} along dim {d} "
                f"of {self.name!r}"
            ) from None
        for pos, x in enumerate(xs):
            at = 0
            for group, pick in zip(self.groups, picks):
                out = np.moveaxis(payloads[group[pos]][1], d, 0)
                out[:, pick] = x[:, at:at + len(pick)]
                at += len(pick)


def _line_plan_key(arr, line_dim, pipelined):
    """Cache key of the line plan of a sweep along ``line_dim`` of
    ``arr`` in the solve order ``pipelined``: the layout key already
    names the grid shape and ranks, so a sweep back in a layout seen
    before replays."""
    return (arr.layout_key(), line_dim, pipelined)


def _solve_lines(ctx, arr, line_dim, rhs, out, diags, pick, pipelined):
    """One rank's share of a collective line solve along ``line_dim`` of
    ``arr`` (generator; use ``yield from``).

    The one distributed line solver (ADI, variable-coefficient ADI,
    MG2's parallel zebra lines); every rank of ``arr``'s grid calls it.
    ``rhs`` and ``out`` are this rank's local blocks, ``diags`` the
    (lower, main, upper) diagonals shaped ``(rows held, lines held)``
    with ``line_dim`` first (a constant coefficient is
    :func:`_broadcast`), ``pick`` the local indices of the lines to
    solve.  Yields the grid :class:`~repro.machine.ops.Rendezvous`
    whose action probes the Session's plan cache for the
    :class:`_LinePlan` -- kind ``"adi-line"``, keyed by
    :func:`_line_plan_key`, one probe per call -- and solves every picked line of
    the grid.  Then the plan's ``commsched`` mark and this rank's
    data-free stream: Listing 8's pipelined multi-system order when
    ``pipelined``, else Listing 7's one parallel ``tri`` call per line.
    """
    tag = ctx.next_tag(arr.grid)

    def action(payloads):
        plan, reused = ctx.session.plans.get(
            "adi-line", _line_plan_key(arr, line_dim, pipelined),
            lambda: _LinePlan(arr, line_dim, pipelined), uids=lambda: uid_chain(arr),
        )
        plan.solve(payloads)
        return dict.fromkeys(payloads, (plan, reused))

    # the "lines" in the tag keeps a peer that diverged into another
    # collective at the same tag out of this rendezvous
    plan, reused = yield Rendezvous(
        arr.grid.key(), (tag, "lines"), action, payload=(rhs, out, diags, pick)
    )
    yield from _mark(
        ctx, "commsched/hit" if reused else "commsched/build", ("adi-lines", line_dim)
    )
    yield from plan.stream(ctx.rank, pick, reused, ctx)


def _broadcast(diags, arr, line_dim, rank):
    """A constant-coefficient system as ``rank``'s per-line diagonals:
    the rows it holds of each global diagonal, shared by every line it
    holds."""
    rows, lines = (arr.owned_lists(rank)[k] for k in (line_dim, 1 - line_dim))
    shape = (len(rows), len(lines))
    return [np.broadcast_to(d[rows[0]:rows[-1] + 1, None], shape) for d in diags]


def _adi_run(machine, grid, session, fields, iters, tau, pipelined,
             build_resid, line_diags):
    """The distributed iteration both ADI front ends share.

    Scatters the global ``fields`` (``F`` first, then any coefficient
    fields) into ``(block, block)`` arrays beside ``u`` and the work
    arrays ``r``, ``w``, ``v``, then runs ``iters`` sweeps of
    ``[residual doall, x-lines, y-lines, update doall]``.  The front ends
    differ only in ``build_resid(arrays)``, the residual doall, and
    ``line_diags(arr, line_dim, rank, arrays)``, the per-line diagonals
    of one sweep direction over ``arr``.  Returns (u_global, trace).
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
        for _ in range(iters):
            yield from ctx.doall(resid_loop)
            for line_dim, (src, dst) in enumerate(sweeps):
                rhs = src.local(me)
                yield from _solve_lines(
                    ctx, src, line_dim, rhs, dst.local(me),
                    line_diags(src, line_dim, me, arrays),
                    range(rhs.shape[1 - line_dim]), pipelined,
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
        lambda arr, line_dim, rank, A: _broadcast(systems[line_dim], arr, line_dim, rank),
    )
