"""Pipelined multi-system tridiagonal solver (Listing 6).

When m tridiagonal systems must be solved (as in ADI, where every grid
line in a direction carries one), the tree reduction can be software
pipelined: with the shuffle mapping each tree level occupies a distinct
processor group, so level l works on system s while level l+1 works on
system s-1.  This keeps "more of the processors busy" (section 3) --
the claim benchmarked by ``bench_pipeline_util``.

Two drivers are provided:

* :func:`sequential_multi_tri_solve` -- the non-pipelined reference:
  systems solved one after another with a barrier between them (each
  ``call tri`` completes before the next begins);
* :func:`pipelined_multi_tri_solve` -- the Listing 6 restructuring:
  every processor streams all m systems through each of its tree roles.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.substructured import (
    Mapping,
    ShuffleMapping,
    get_routing,
    local_reduce,
    reduce_flops,
    reduce_four_rows,
    solve_reduced_pairs,
    tri_node_program,
    SUBST_FLOPS_PER_ROW,
    THOMAS_FLOPS_PER_ROW,
)
from repro.kernels.thomas import thomas_solve
from repro.machine.ops import Barrier, Compute, Mark, Recv, Send
from repro.machine.simulator import Machine
from repro.session import launch
from repro.util.errors import ValidationError
from repro.util.indexing import block_bounds


def _validate(B, A, C, F, p):
    B, A, C, F = (np.asarray(x, dtype=float) for x in (B, A, C, F))
    if not (B.shape == A.shape == C.shape == F.shape) or A.ndim != 2:
        raise ValidationError("B, A, C, F must share one (m, n) shape")
    m, n = A.shape
    if p < 1:
        raise ValidationError("p must be >= 1")
    if n < 2 * p:
        raise ValidationError(f"n={n} too small for p={p} (need n >= 2p)")
    return B, A, C, F, m, n


def sequential_multi_tri_solve(
    B: np.ndarray,
    A: np.ndarray,
    C: np.ndarray,
    F: np.ndarray,
    p: int,
    machine: Machine | None = None,
    mapping_cls=ShuffleMapping,
    session=None,
):
    """Solve m systems one after another (non-pipelined baseline)."""
    B, A, C, F, m, n = _validate(B, A, C, F, p)
    mapping = mapping_cls(p)
    if machine is None:
        machine = Machine(n_procs=p)
    bounds = [block_bounds(n, p, r) for r in range(p)]
    outs: list[dict[int, np.ndarray]] = [{} for _ in range(m)]
    group = tuple(range(p))
    routes: dict = {}

    def make(rank):
        def prog():
            lo, hi = bounds[rank]
            for s in range(m):
                blk = (B[s, lo:hi], A[s, lo:hi], C[s, lo:hi], F[s, lo:hi])
                yield from tri_node_program(
                    rank, p, blk, mapping, outs[s], sys_id=s, routes=routes
                )
                if p > 1:
                    yield Barrier(group=group, tag=("seqtri_done", s))

        return prog()

    trace = launch({r: make(r) for r in range(p)}, machine, session)
    return _assemble(outs, bounds, m, n), trace


def pipelined_node_program(
    rank: int,
    p: int,
    blocks: list[tuple],
    mapping: Mapping,
    outs: list[dict[int, np.ndarray]],
    routes: dict | None = None,
):
    """Listing 6: stream all systems through each of this rank's roles.

    System ``s``'s messages are tagged with its index ``s``.  ``routes``
    is the launch's routing memo
    (:func:`~repro.kernels.substructured.get_routing`); none gives the
    call a routing of its own.
    """
    nsys = len(blocks)
    k = mapping.k

    if p == 1:
        for s, (b, a, c, f) in enumerate(blocks):
            yield Compute(flops=THOMAS_FLOPS_PER_ROW * len(a), label="thomas")
            outs[s][rank] = thomas_solve(b, a, c, f)
        return

    routing, _ = get_routing(mapping, {} if routes is None else routes)

    # ---- Phase A: local reductions, all systems -------------------------
    reds = []
    pair_at: dict[tuple, tuple] = {}
    saved: dict[tuple, object] = {}
    for s, (b, a, c, f) in enumerate(blocks):
        yield Mark("mtri/reduce", payload=(s, 0))
        red = local_reduce(b, a, c, f)
        yield Compute(flops=reduce_flops(len(a)), label="local_reduce")
        reds.append(red)
        my_pair = (red.first, red.last)
        pair_at[(s, 0, rank)] = my_pair
        parent = mapping.pair_rank(1, rank // 2) if k >= 2 else mapping.pair_rank(k, 0)
        if parent != rank:
            yield Send(parent, np.concatenate(my_pair), tag=("tri", s, "up", 0, rank))

    # ---- Phase B: tree reductions, streaming systems ---------------------
    for level in range(1, k):
        for j in routing.holdings(rank, level):
            for s in range(nsys):
                yield Mark("mtri/reduce", payload=(s, level))
                pa = yield from _obtain_sys_pair(rank, mapping, level - 1, 2 * j, pair_at, s)
                pb = yield from _obtain_sys_pair(rank, mapping, level - 1, 2 * j + 1, pair_at, s)
                first, last, sred = reduce_four_rows(pa, pb)
                yield Compute(flops=reduce_flops(4), label="tree_reduce")
                saved[(s, level, j)] = sred
                pair_at[(s, level, j)] = (first, last)
                dest = (
                    mapping.pair_rank(level + 1, j // 2)
                    if level + 1 < k
                    else mapping.pair_rank(k, 0)
                )
                if dest != rank:
                    yield Send(
                        dest,
                        np.concatenate((first, last)),
                        tag=("tri", s, "up", level, j),
                    )

    # ---- Apex ------------------------------------------------------------
    apex = mapping.pair_rank(k, 0)
    top = k - 1
    if rank == apex:
        for s in range(nsys):
            yield Mark("mtri/apex", payload=(s, k))
            pa = yield from _obtain_sys_pair(rank, mapping, top, 0, pair_at, s)
            pb = yield from _obtain_sys_pair(rank, mapping, top, 1, pair_at, s)
            x4 = solve_reduced_pairs([pa, pb])
            yield Compute(flops=THOMAS_FLOPS_PER_ROW * 4, label="apex_thomas")
            for idx, j in enumerate((0, 1)):
                vals = x4[2 * idx : 2 * idx + 2]
                holder = mapping.pair_rank(top, j)
                if holder == rank:
                    pair_at[("x", s, top, j)] = vals
                else:
                    yield Send(holder, vals, tag=("tri", s, "dn", top, j))

    # ---- Substitution: descend, streaming systems -------------------------
    for level in range(k - 1, 0, -1):
        for j in routing.holdings(rank, level):
            for s in range(nsys):
                yield Mark("mtri/subst", payload=(s, level))
                key = ("x", s, level, j)
                if key in pair_at:
                    x_first, x_last = pair_at[key]
                else:
                    src = apex if level == top else mapping.pair_rank(level + 1, j // 2)
                    vals = yield Recv(src=src, tag=("tri", s, "dn", level, j))
                    x_first, x_last = vals
                x4 = saved[(s, level, j)].interior_solve(float(x_first), float(x_last))
                yield Compute(flops=SUBST_FLOPS_PER_ROW * 2, label="tree_subst")
                for cj, vals in ((2 * j, x4[0:2]), (2 * j + 1, x4[2:4])):
                    holder = mapping.pair_rank(level - 1, cj)
                    if holder == rank:
                        pair_at[("x", s, level - 1, cj)] = vals
                    else:
                        yield Send(holder, vals, tag=("tri", s, "dn", level - 1, cj))

    # ---- Final block interiors, all systems --------------------------------
    for s in range(nsys):
        yield Mark("mtri/subst", payload=(s, 0))
        key = ("x", s, 0, rank)
        if key in pair_at:
            xb = pair_at[key]
        else:
            src = mapping.pair_rank(1, rank // 2) if k >= 2 else apex
            xb = yield Recv(src=src, tag=("tri", s, "dn", 0, rank))
        x_block = reds[s].interior_solve(float(xb[0]), float(xb[1]))
        yield Compute(flops=SUBST_FLOPS_PER_ROW * len(x_block), label="block_subst")
        outs[s][rank] = x_block


def _obtain_sys_pair(rank, mapping, level, j, pair_at, s):
    holder = mapping.pair_rank(level, j)
    if holder == rank:
        return pair_at[(s, level, j)]
    data = yield Recv(src=holder, tag=("tri", s, "up", level, j))
    return (data[:4], data[4:])


def pipelined_multi_tri_solve(
    B: np.ndarray,
    A: np.ndarray,
    C: np.ndarray,
    F: np.ndarray,
    p: int,
    machine: Machine | None = None,
    mapping_cls=ShuffleMapping,
    session=None,
):
    """Solve m systems with the pipelined restructuring of Listing 6."""
    B, A, C, F, m, n = _validate(B, A, C, F, p)
    mapping = mapping_cls(p)
    if machine is None:
        machine = Machine(n_procs=p)
    bounds = [block_bounds(n, p, r) for r in range(p)]
    outs: list[dict[int, np.ndarray]] = [{} for _ in range(m)]
    routes: dict = {}

    def make(rank):
        lo, hi = bounds[rank]
        blocks = [
            (B[s, lo:hi], A[s, lo:hi], C[s, lo:hi], F[s, lo:hi]) for s in range(m)
        ]
        return pipelined_node_program(rank, p, blocks, mapping, outs, routes=routes)

    trace = launch({r: make(r) for r in range(p)}, machine, session)
    return _assemble(outs, bounds, m, n), trace


def _assemble(outs, bounds, m, n) -> np.ndarray:
    X = np.empty((m, n))
    for s in range(m):
        for r, (lo, hi) in enumerate(bounds):
            X[s, lo:hi] = outs[s][r]
    return X
