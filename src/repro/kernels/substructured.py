"""The paper's substructured parallel tridiagonal solver (section 3).

A variant of Sameh's "spike" algorithm, structured exactly as Figures
1-4 describe:

* **Local reduction** (Figure 1): each processor eliminates the interior
  of its block of rows.  Forward elimination removes the lower diagonal
  while introducing fill-in in the block's first column (``e``); reverse
  elimination removes the upper diagonal with fill-in in the block's
  last column (``g``).  The block's first and last rows then couple only
  to each other and to neighboring blocks, so the boundary rows of all p
  blocks form a tridiagonal system of 2p equations.
* **Tree reduction** (Figures 2-3): pairs of boundary-row pairs are
  mailed together; four adjacent rows reduce to two by the same
  elimination, halving the reduced system log2(p)-1 times until four
  rows remain, solved by the sequential Thomas algorithm.
* **Substitution** (Figure 4): solved boundary values descend the tree;
  each saved four-row system yields its two interior values, and finally
  each processor recovers its block interior.

One rank's share of these phases for one system is written once, as
the steps :func:`partition_steps` returns: :func:`tri_node_program`
runs them in order, and Listing 6's pipelined program
(:mod:`repro.kernels.pipelined`) interleaves them across systems.

Two mappings of the data-flow graph onto processors are provided
(Figure 5): :class:`ContiguousMapping` (pair j of level l on processor
j * 2**l) and :class:`ShuffleMapping` (level l served by the processor
group [p/2**l, p/2**(l-1)), so distinct levels occupy distinct
processors -- the property that enables pipelining multiple systems).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.thomas import check_pivot, thomas_solve
from repro.machine.ops import Compute, Mark, Recv, Send
from repro.machine.simulator import Machine
from repro.session import launch
from repro.util.errors import ValidationError
from repro.util.indexing import block_bounds

# Flop model for the cost accounting (per row of work).
REDUCE_FLOPS_PER_ROW = 12
SUBST_FLOPS_PER_ROW = 5
THOMAS_FLOPS_PER_ROW = 8


@dataclass
class ReducedBlock:
    """Output of one local block reduction.

    ``first`` and ``last`` are the boundary rows as (lower, diag, upper,
    rhs) 4-vectors, where ``first.lower`` couples the previous block's
    last row and ``last.upper`` couples the next block's first row.
    ``e``, ``g``, ``a``, ``f`` hold the interior elimination results for
    the substitution phase: row i of the interior satisfies

        e[i] * x_first + a[i] * x[i] + g[i] * x_last = f[i].

    With a trailing lines axis every field gains it: one block per
    column, the boundary rows shaped (4, L).
    """

    first: np.ndarray
    last: np.ndarray
    e: np.ndarray
    g: np.ndarray
    a: np.ndarray
    f: np.ndarray

    @property
    def m(self) -> int:
        return len(self.a)

    def interior_solve(self, x_first: float, x_last: float) -> np.ndarray:
        """All block values given the solved boundary values (Figure 4);
        with a lines axis, ``x_first``/``x_last`` hold one value per line."""
        m = self.m
        x = np.empty(self.a.shape)
        x[0] = x_first
        x[-1] = x_last
        if m > 2:
            sl = slice(1, m - 1)
            x[sl] = (self.f[sl] - self.e[sl] * x_first - self.g[sl] * x_last) / self.a[sl]
        return x


def local_reduce(
    b: np.ndarray, a: np.ndarray, c: np.ndarray, f: np.ndarray
) -> ReducedBlock:
    """Reduce one block of rows to its two boundary equations (Figure 1).

    Inputs are this block's slices of the global diagonals; ``b[0]`` and
    ``c[-1]`` are the couplings to the neighboring blocks (kept intact).
    Inputs shaped (m, L) reduce L blocks at once, one per column, with
    the same arithmetic per column; a zero pivot names its line.
    """
    b = np.asarray(b, dtype=float).copy()
    a = np.asarray(a, dtype=float).copy()
    c = np.asarray(c, dtype=float).copy()
    f = np.asarray(f, dtype=float).copy()
    m = len(a)
    if m < 2:
        raise ValidationError("local_reduce requires blocks of at least 2 rows")
    e = np.zeros(a.shape)
    g = np.zeros(a.shape)
    e[1] = b[1]
    # Forward sweep: eliminate the lower diagonal, fill column `first`.
    for i in range(2, m):
        check_pivot(a[i - 1], "zero pivot during forward reduction (row {})", i - 1)
        mfac = b[i] / a[i - 1]
        a[i] -= mfac * c[i - 1]
        e[i] = -mfac * e[i - 1]
        f[i] -= mfac * f[i - 1]
    # Reverse sweep: eliminate the upper diagonal, fill column `last`.
    if m >= 2:
        g[m - 2] = c[m - 2]
    for i in range(m - 3, -1, -1):
        check_pivot(a[i + 1], "zero pivot during reverse reduction (row {})", i + 1)
        mfac = c[i] / a[i + 1]
        g[i] = -mfac * g[i + 1]
        f[i] -= mfac * f[i + 1]
        if i == 0:
            a[0] -= mfac * e[1]
        else:
            e[i] -= mfac * e[i + 1]
    first = np.array([b[0], a[0], g[0], f[0]])
    last = np.array([e[m - 1], a[m - 1], c[m - 1], f[m - 1]])
    return ReducedBlock(first=first, last=last, e=e, g=g, a=a, f=f)


def reduce_flops(m: int) -> float:
    return REDUCE_FLOPS_PER_ROW * max(m, 0)


def pair_rows_to_tridiagonal(pairs: list[tuple[np.ndarray, np.ndarray]]):
    """Assemble the reduced 2q-row tridiagonal system from q boundary
    pairs (rows shaped (4,), or (4, L) for L lines at once)."""
    shape = (2 * len(pairs), *np.shape(pairs[0][0])[1:])
    b = np.zeros(shape)
    a = np.zeros(shape)
    c = np.zeros(shape)
    f = np.zeros(shape)
    for k, (first, last) in enumerate(pairs):
        b[2 * k], a[2 * k], c[2 * k], f[2 * k] = first
        b[2 * k + 1], a[2 * k + 1], c[2 * k + 1], f[2 * k + 1] = last
    return b, a, c, f


def reduce_four_rows(
    pair_a: tuple[np.ndarray, np.ndarray], pair_b: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, ReducedBlock]:
    """Reduce two adjacent boundary pairs (four rows) to one pair (Figure 2).

    Returns (new_first, new_last, saved) where ``saved`` lets the
    substitution phase recover the two interior rows.
    """
    b, a, c, f = pair_rows_to_tridiagonal([pair_a, pair_b])
    red = local_reduce(b, a, c, f)
    return red.first, red.last, red


def solve_reduced_pairs(pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Directly solve the reduced system of the given boundary pairs.

    Sequential reference used at the tree apex and in tests; the outer
    couplings (first pair's lower, last pair's upper) are ignored, as
    they reference rows outside the full matrix.
    """
    b, a, c, f = pair_rows_to_tridiagonal(pairs)
    return thomas_solve(b, a, c, f)


# ----------------------------------------------------------------------
# Mappings of the data-flow graph onto processors (Figure 5)
# ----------------------------------------------------------------------


class Mapping:
    """Assignment of tree-level pairs to processor ranks."""

    name = "abstract"

    def __init__(self, p: int):
        if p < 1 or (p & (p - 1)) != 0:
            raise ValidationError(f"mappings require a power-of-two p, got {p}")
        self.p = p
        self.k = p.bit_length() - 1  # log2 p

    def pair_rank(self, level: int, j: int) -> int:
        """Rank holding pair ``j`` of tree level ``level`` (level 0 = blocks)."""
        raise NotImplementedError

    def routing_key(self):
        """Hashable identity for the routing-schedule cache.

        Two mappings with equal keys must answer ``pair_rank``
        identically.  The default covers mappings fully determined by
        (class, p); subclasses carrying extra constructor state (a
        seed, a permutation, ...) must include it here or their cached
        routings will alias.
        """
        return (type(self), self.p)

    def npairs(self, level: int) -> int:
        return self.p >> level


class ContiguousMapping(Mapping):
    """Naive mapping: pair j of level l stays on processor j * 2**l.

    Processor 0 serves every level; higher-numbered processors idle
    early -- the left-hand data-flow layout of Figure 5.
    """

    name = "contiguous"

    def pair_rank(self, level: int, j: int) -> int:
        if not 0 <= j < self.npairs(level) and not (level == self.k and j == 0):
            raise ValidationError(f"pair {j} invalid at level {level}")
        return j * (1 << level) if level <= self.k else 0


class ShuffleMapping(Mapping):
    """Shuffle/unshuffle mapping (Figure 5): levels on disjoint groups.

    Level l >= 1 is served by ranks [p/2**l, p/2**(l-1)); pair j of that
    level sits on rank p/2**l + j.  Because distinct levels use distinct
    processors, a stream of systems pipelines through the tree keeping
    most processors busy -- the advantage claimed in section 3.
    """

    name = "shuffle"

    def pair_rank(self, level: int, j: int) -> int:
        if level == 0:
            return j
        base = self.p >> level
        if base == 0:
            base = 1
        return base + j


# ----------------------------------------------------------------------
# Cached tree-routing schedule
# ----------------------------------------------------------------------


class TreeRouting:
    """Precomputed communication schedule of one reduction tree.

    The mapping functions answer "where does pair j of level l live?"
    one query at a time; every solve (and every system of a pipelined
    multi-solve) used to re-derive the same answers.  A ``TreeRouting``
    tabulates them once per (mapping class, p): per-rank holdings at
    each level, the upward destination of every pair, and the apex --
    the tri solver's analogue of a cached inspector/executor schedule.
    """

    __slots__ = ("name", "p", "k", "apex", "_rank_of", "_holdings", "_up_dest")

    def __init__(self, mapping: Mapping):
        self.name = mapping.name
        self.p = mapping.p
        self.k = mapping.k
        self.apex = mapping.pair_rank(self.k, 0)
        self._rank_of: dict[tuple[int, int], int] = {(self.k, 0): self.apex}
        self._holdings: dict[int, dict[int, list[int]]] = {}
        self._up_dest: dict[tuple[int, int], int] = {}
        for level in range(self.k):
            per_rank: dict[int, list[int]] = {}
            for j in range(mapping.npairs(level)):
                holder = mapping.pair_rank(level, j)
                self._rank_of[(level, j)] = holder
                per_rank.setdefault(holder, []).append(j)
                if level + 1 < self.k:
                    self._up_dest[(level, j)] = mapping.pair_rank(level + 1, j // 2)
                else:
                    self._up_dest[(level, j)] = self.apex
            self._holdings[level] = per_rank

    def rank_of(self, level: int, j: int) -> int:
        """Rank holding pair ``j`` of ``level`` (tabulated)."""
        return self._rank_of[(level, j)]

    def up_dest(self, level: int, j: int) -> int:
        """Rank consuming the reduced pair ``j`` of ``level``."""
        return self._up_dest[(level, j)]

    def holdings(self, rank: int, level: int) -> list[int]:
        """Pairs this rank holds at ``level``."""
        return self._holdings.get(level, {}).get(rank, [])


def get_routing(mapping: Mapping, routes: dict) -> tuple[TreeRouting, bool]:
    """The routing of ``mapping`` from the memo ``routes`` (keyed by
    ``mapping.routing_key()``), built into it on a miss; returns
    (routing, was_cached).  A driver owns one memo per launch and hands
    it to every rank's node program, so every launch records the same
    build and hit marks."""
    key = mapping.routing_key()
    routing = routes.get(key)
    if routing is not None:
        return routing, True
    routing = routes[key] = TreeRouting(mapping)
    return routing, False


# ----------------------------------------------------------------------
# SPMD node program
# ----------------------------------------------------------------------


def partition_steps(rank, block, routing, out, sys_id=0, kind="tri"):
    """One system's partition-method steps on ``rank``, one generator each.

    The steps share the system's state and come in the tree walk's
    order: the local reduction (Figure 1) and its upward send; per tree
    pair held, in ``(level, j)`` order, one four-row reduction (Figures
    2-3); the apex solve, on the apex rank only; per pair held, levels
    descending, one substitution (Figure 4); the block substitution,
    which stores ``out[rank]``.  ``block`` is this rank's (b, a, c, f)
    row slices and ``routing`` the tree's :class:`TreeRouting`, the
    source of every endpoint.  ``sys_id`` namespaces the message tags
    and marks the steps; ``kind`` prefixes the marks.  Running the steps
    in order is one ``tri`` call; running step i of every system before
    step i + 1 of any is Listing 6's pipeline.
    """
    b, a, c, f = block
    m = len(a)
    k, top = routing.k, routing.k - 1
    # boundary pairs at (level, j), solved pair values at ("x", level, j)
    pair_at: dict[tuple, tuple] = {}
    # the reductions that substitution inverts: the block's at (0, rank)
    saved: dict[tuple[int, int], ReducedBlock] = {}

    def obtain(level, j):
        holder = routing.rank_of(level, j)
        if holder == rank:
            return pair_at[(level, j)]
        data = yield Recv(src=holder, tag=("tri", sys_id, "up", level, j))
        return (data[:4], data[4:])

    def send_up(level, j, pair):
        pair_at[(level, j)] = pair
        dest = routing.up_dest(level, j)
        if dest != rank:
            yield Send(dest, np.concatenate(pair), tag=("tri", sys_id, "up", level, j))

    def solved(level, j):
        if ("x", level, j) in pair_at:
            return pair_at[("x", level, j)]
        return (yield Recv(src=routing.up_dest(level, j), tag=("tri", sys_id, "dn", level, j)))

    def send_down(level, j, vals):
        holder = routing.rank_of(level, j)
        if holder == rank:
            pair_at[("x", level, j)] = vals
        else:
            yield Send(holder, vals, tag=("tri", sys_id, "dn", level, j))

    def local_step():
        yield Mark(f"{kind}/reduce", payload=(sys_id, 0))
        red = saved[(0, rank)] = local_reduce(b, a, c, f)
        yield Compute(flops=reduce_flops(m), label="local_reduce")
        yield from send_up(0, rank, (red.first, red.last))

    def reduce_step(level, j):
        yield Mark(f"{kind}/reduce", payload=(sys_id, level))
        pa = yield from obtain(level - 1, 2 * j)
        pb = yield from obtain(level - 1, 2 * j + 1)
        first, last, saved[(level, j)] = reduce_four_rows(pa, pb)
        yield Compute(flops=reduce_flops(4), label="tree_reduce")
        yield from send_up(level, j, (first, last))

    def apex_step():
        yield Mark(f"{kind}/apex", payload=(sys_id, k))
        pa = yield from obtain(top, 0)
        pb = yield from obtain(top, 1)
        x4 = solve_reduced_pairs([pa, pb])
        yield Compute(flops=THOMAS_FLOPS_PER_ROW * 4, label="apex_thomas")
        yield from send_down(top, 0, x4[0:2])
        yield from send_down(top, 1, x4[2:4])

    def subst_step(level, j):
        yield Mark(f"{kind}/subst", payload=(sys_id, level))
        x_first, x_last = yield from solved(level, j)
        x4 = saved[(level, j)].interior_solve(x_first, x_last)
        yield Compute(flops=SUBST_FLOPS_PER_ROW * 2, label="tree_subst")
        yield from send_down(level - 1, 2 * j, x4[0:2])
        yield from send_down(level - 1, 2 * j + 1, x4[2:4])

    def block_step():
        yield Mark(f"{kind}/subst", payload=(sys_id, 0))
        xb = yield from solved(0, rank)
        out[rank] = saved[(0, rank)].interior_solve(float(xb[0]), float(xb[1]))
        yield Compute(flops=SUBST_FLOPS_PER_ROW * m, label="block_subst")

    return [
        local_step(),
        *(reduce_step(level, j) for level in range(1, k) for j in routing.holdings(rank, level)),
        *([apex_step()] if rank == routing.apex else []),
        *(subst_step(level, j) for level in range(k - 1, 0, -1)
          for j in routing.holdings(rank, level)),
        block_step(),
    ]


def tri_node_program(
    rank: int,
    p: int,
    block: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    mapping: Mapping,
    out: dict[int, np.ndarray],
    sys_id=0,
    routes: dict | None = None,
):
    """Node program of one processor for one substructured solve.

    ``block`` is this rank's (b, a, c, f) row slices; the solved block
    values are stored into ``out[rank]`` on completion.  ``sys_id``
    namespaces message tags so several solves can run concurrently.
    ``routes`` is the launch's routing memo (:func:`get_routing`); none
    gives the call a routing of its own.  Runs :func:`partition_steps`
    in order.
    """
    if p == 1:
        b, a, c, f = block
        yield Compute(flops=THOMAS_FLOPS_PER_ROW * len(a), label="thomas")
        out[rank] = thomas_solve(b, a, c, f)
        return

    routing, was_cached = get_routing(mapping, {} if routes is None else routes)
    yield Mark(
        "commsched/hit" if was_cached else "commsched/build",
        payload=("tri-routing", mapping.name, p),
    )
    for step in partition_steps(rank, block, routing, out, sys_id):
        yield from step


# ----------------------------------------------------------------------
# High-level driver
# ----------------------------------------------------------------------


def substructured_tri_solve(
    b: np.ndarray,
    a: np.ndarray,
    c: np.ndarray,
    f: np.ndarray,
    p: int,
    machine: Machine | None = None,
    mapping_cls=ShuffleMapping,
    session=None,
):
    """Solve a tridiagonal system on ``p`` simulated processors.

    Returns ``(x, trace)``: the global solution vector and the machine
    trace (timing, messages, Mark events for the data-flow figures).
    """
    n = len(a)
    if p < 1:
        raise ValidationError("p must be >= 1")
    if n < 2 * p:
        raise ValidationError(f"n={n} too small for p={p} (need n >= 2p)")
    mapping = mapping_cls(p)
    if machine is None:
        machine = Machine(n_procs=p)
    if machine.n_procs < p:
        raise ValidationError("machine too small for requested p")
    out: dict[int, np.ndarray] = {}
    bounds = [block_bounds(n, p, r) for r in range(p)]
    routes: dict = {}

    def make(rank):
        lo, hi = bounds[rank]
        blk = (b[lo:hi], a[lo:hi], c[lo:hi], f[lo:hi])
        return tri_node_program(rank, p, blk, mapping, out, routes=routes)

    trace = launch({r: make(r) for r in range(p)}, machine, session)
    x = np.empty(n)
    for r in range(p):
        lo, hi = bounds[r]
        x[lo:hi] = out[r]
    return x, trace
