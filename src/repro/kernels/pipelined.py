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

Both drive the same per-system steps,
:func:`~repro.kernels.substructured.partition_steps`: the sequential
driver runs each system's steps in order (one ``tri`` call after
another), the pipelined node program interleaves them across systems,
step by step.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.substructured import (
    Mapping,
    ShuffleMapping,
    get_routing,
    partition_steps,
    tri_node_program,
    THOMAS_FLOPS_PER_ROW,
)
from repro.kernels.thomas import thomas_solve
from repro.machine.ops import Barrier, Compute
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

    The partition method's steps
    (:func:`~repro.kernels.substructured.partition_steps`, the steps one
    ``tri`` call runs in order) interleaved across systems: step i of
    every system, in system order, before step i + 1 of any.  System
    ``s``'s messages are tagged with its index ``s``.  ``routes`` is the
    launch's routing memo
    (:func:`~repro.kernels.substructured.get_routing`); none gives the
    call a routing of its own.
    """
    if p == 1:
        for s, (b, a, c, f) in enumerate(blocks):
            yield Compute(flops=THOMAS_FLOPS_PER_ROW * len(a), label="thomas")
            outs[s][rank] = thomas_solve(b, a, c, f)
        return

    routing, _ = get_routing(mapping, {} if routes is None else routes)
    for steps in zip(*(
        partition_steps(rank, blk, routing, outs[s], s, "mtri")
        for s, blk in enumerate(blocks)
    )):
        for step in steps:
            yield from step


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
