"""Cyclic reduction: the classic alternative parallel tridiagonal solver.

Used as a baseline against the paper's substructured algorithm (the
paper cites Johnsson's survey [8] of parallel tridiagonal methods).
Odd-even cyclic reduction halves the system log2(n) times; it exposes
fine-grained parallelism but needs a reduction step count proportional
to log n rather than log p and communicates at every level.

Two forms are provided: a sequential reference (numerics) and a
block-distributed node program on the simulated machine (timing
comparisons in ``bench_tri_speedup``).
"""

from __future__ import annotations

import numpy as np

from repro.machine.ops import Compute, Recv, Send
from repro.machine.simulator import Machine
from repro.session import launch
from repro.util.errors import ValidationError
from repro.util.indexing import block_bounds

CR_FLOPS_PER_ROW = 17


def cyclic_reduction_solve(
    b: np.ndarray, a: np.ndarray, c: np.ndarray, f: np.ndarray
) -> np.ndarray:
    """Sequential odd-even cyclic reduction (any n >= 1)."""
    b = np.asarray(b, dtype=float).copy()
    a = np.asarray(a, dtype=float).copy()
    c = np.asarray(c, dtype=float).copy()
    f = np.asarray(f, dtype=float).copy()
    n = len(a)
    if n == 0:
        return np.empty(0)
    # Work on index lists; at each level the "active" rows are reduced.
    active = np.arange(n)
    stack = []
    while len(active) > 1:
        even = active[::2]
        odd = active[1::2]
        stack.append((active.copy(), even.copy(), odd.copy()))
        # eliminate even-positioned rows, keeping odd-positioned ones
        alpha = np.zeros(len(odd))
        beta = np.zeros(len(odd))
        prev = even[: len(odd)]  # row above each odd row
        nxt = active[2::2]  # row below each odd row (may be shorter)
        with np.errstate(divide="raise"):
            alpha = b[odd] / a[prev]
        a[odd] = a[odd] - alpha * c[prev]
        f[odd] = f[odd] - alpha * f[prev]
        b[odd] = -alpha * b[prev]
        has_next = np.arange(len(odd)) < len(nxt)
        idx = odd[has_next]
        nn = nxt[: len(idx)]
        beta = c[idx] / a[nn]
        a[idx] = a[idx] - beta * b[nn]
        f[idx] = f[idx] - beta * f[nn]
        c[idx] = -beta * c[nn]
        active = odd
    x = np.zeros(n)
    if a[active[0]] == 0.0:
        raise ValidationError("zero pivot in cyclic reduction")
    x[active[0]] = f[active[0]] / a[active[0]]
    solved = np.zeros(n, dtype=bool)
    solved[active[0]] = True
    while stack:
        full, even, odd = stack.pop()
        # back-substitute the even-positioned rows
        for pos, i in enumerate(even):
            left = full[2 * pos - 1] if 2 * pos - 1 >= 0 else None
            right = full[2 * pos + 1] if 2 * pos + 1 < len(full) else None
            val = f[i]
            if left is not None:
                val -= b[i] * x[left]
            if right is not None:
                val -= c[i] * x[right]
            if a[i] == 0.0:
                raise ValidationError("zero pivot in cyclic reduction substitution")
            x[i] = val / a[i]
            solved[i] = True
    return x


def cr_node_program(rank, p, n, rows, out, levels_meta):
    """Block-distributed cyclic reduction node program.

    ``rows`` maps global row index -> [b, a, c, f] for this rank's block.
    Remote row values needed at each level are exchanged point-to-point.
    This is deliberately a straightforward translation -- the baseline a
    1989 programmer would write -- not an optimized variant.
    """
    my_rows = dict(rows)
    x_known: dict[int, float] = {}

    def owner(i: int) -> int:
        base, extra = divmod(n, p)
        split = extra * (base + 1)
        if i < split:
            return i // (base + 1)
        return extra + (i - split) // base if base else 0

    def exchange(active, solving):
        """The neighbour rows of the rows ``solving`` at one level:
        ``needed[q]`` are those this rank receives from rank q, and
        ``serve[q]`` those it sends to q, in row order."""
        pos_of = {int(v): k for k, v in enumerate(active)}
        needed: dict[int, list[int]] = {}
        serve: dict[int, list[int]] = {}
        for i in (int(v) for v in solving):
            q = owner(i)
            pos = pos_of[i]
            for np_pos in (pos - 1, pos + 1):
                if 0 <= np_pos < len(active):
                    gi = int(active[np_pos])
                    if q == rank and gi not in my_rows:
                        needed.setdefault(owner(gi), []).append(gi)
                    elif q != rank and owner(gi) == rank:
                        serve.setdefault(q, []).append(gi)
        return pos_of, needed, serve

    for level, (active, even, odd) in enumerate(levels_meta):
        # rows I hold that are odd (stay active): need row above and below
        mine_odd = [int(i) for i in odd if int(i) in my_rows]
        pos_of, needed, serve = exchange(active, odd)
        for q in sorted(serve):
            payload = {gi: my_rows[gi].copy() for gi in serve[q]}
            yield Send(q, payload, tag=("cr", level, rank))
        remote_rows: dict[int, np.ndarray] = {}
        for q in sorted(needed):
            data = yield Recv(src=q, tag=("cr", level, q))
            remote_rows.update(data)

        def row(i):
            return my_rows[i] if i in my_rows else remote_rows[i]

        nflops = 0
        for i in mine_odd:
            pos = pos_of[i]
            r = my_rows[i]
            if pos - 1 >= 0:
                above = row(int(active[pos - 1]))
                alpha = r[0] / above[1]
                r[1] -= alpha * above[2]
                r[3] -= alpha * above[3]
                r[0] = -alpha * above[0]
                nflops += 8
            if pos + 1 < len(active):
                below = row(int(active[pos + 1]))
                beta = r[2] / below[1]
                r[1] -= beta * below[0]
                r[3] -= beta * below[3]
                r[2] = -beta * below[2]
                nflops += 8
        if nflops:
            yield Compute(flops=nflops, label="cr_reduce")

    # back substitution: mirror the levels in reverse
    final_active = levels_meta[-1][2] if levels_meta else np.arange(n)
    root = int(final_active[0]) if len(final_active) else 0
    if root in my_rows:
        r = my_rows[root]
        x_known[root] = r[3] / r[1]
        yield Compute(flops=1, label="cr_root")

    for level in range(len(levels_meta) - 1, -1, -1):
        active, even, odd = levels_meta[level]
        # even rows are solved at this level using neighbors' x values
        mine_even = [int(i) for i in even if int(i) in my_rows]
        pos_of, needed_x, serve_x = exchange(active, even)
        for q in sorted(serve_x):
            payload = {gi: x_known[gi] for gi in serve_x[q]}
            yield Send(q, payload, tag=("crx", level, rank))
        remote_x: dict[int, float] = {}
        for q in sorted(needed_x):
            data = yield Recv(src=q, tag=("crx", level, q))
            remote_x.update(data)

        def xval(i):
            return x_known[i] if i in x_known else remote_x[i]

        nflops = 0
        for i in mine_even:
            pos = pos_of[i]
            r = my_rows[i]
            val = r[3]
            if pos - 1 >= 0:
                val -= r[0] * xval(int(active[pos - 1]))
                nflops += 2
            if pos + 1 < len(active):
                val -= r[2] * xval(int(active[pos + 1]))
                nflops += 2
            x_known[i] = val / r[1]
            nflops += 1
        if nflops:
            yield Compute(flops=nflops, label="cr_subst")

    out[rank] = x_known


def distributed_cyclic_reduction(
    b: np.ndarray,
    a: np.ndarray,
    c: np.ndarray,
    f: np.ndarray,
    p: int,
    machine: Machine | None = None,
    session=None,
):
    """Run block-distributed cyclic reduction; returns (x, trace)."""
    n = len(a)
    if p < 1:
        raise ValidationError("p must be >= 1")
    if machine is None:
        machine = Machine(n_procs=p)
    # Precompute the level structure (identical on every rank).
    levels_meta = []
    active = np.arange(n)
    while len(active) > 1:
        even = active[::2]
        odd = active[1::2]
        levels_meta.append((active.copy(), even.copy(), odd.copy()))
        active = odd
    out: dict[int, dict[int, float]] = {}

    def make(rank):
        lo, hi = block_bounds(n, p, rank)
        rows = {
            int(i): np.array([b[i], a[i], c[i], f[i]], dtype=float)
            for i in range(lo, hi)
        }
        return cr_node_program(rank, p, n, rows, out, levels_meta)

    trace = launch({r: make(r) for r in range(p)}, machine, session)
    x = np.empty(n)
    for r in range(p):
        for i, v in out[r].items():
            x[i] = v
    return x, trace
