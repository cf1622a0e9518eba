"""Static per-loop performance estimation.

The paper (section 2) promises "performance estimation tools, which will
indicate which parts of a program will compile into efficient executable
code, and which will not."  This module is that tool: from a loop's
static analysis and a machine cost model it predicts per-rank compute
time, message counts and volumes, the loop's critical-path time, and a
parallel-efficiency figure -- without executing anything.

Message counts and byte volumes are read straight off the frozen
gather/scatter :class:`~repro.compiler.commsched.TransferSchedule`
objects the executor replays, so they are exact by construction.  Time
is predicted in both executor modes: serialized (compute after all
ghosts arrive) and overlapped (``predicted_time(cost, overlap=True)``:
interior compute hidden behind the in-flight ghost time, matching the
overlap-aware executor's split Compute ops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.compiler.commgen import LoopAnalysis
from repro.compiler.schedule import PlanCache
from repro.lang.doall import Doall
from repro.machine.costmodel import CostModel
from repro.util.indexing import mesh_shape


@dataclass
class RankEstimate:
    rank: int
    iterations: int
    flops: float
    msgs_out: int
    msgs_in: int
    bytes_out: int
    bytes_in: int
    #: the gather-direction (ghost) share of ``msgs_in``/``bytes_in``.
    #: Only these can hide interior compute: scatter-direction values
    #: (remote writes) are produced *after* the compute phase, so their
    #: receive time is a serialized tail in both executor modes.
    gather_msgs_in: int = 0
    gather_bytes_in: int = 0
    #: flops of the ghost-independent interior points (reads all locally
    #: owned); the overlap-aware prediction hides these behind the
    #: in-flight time of the incoming ghost messages.  Either a float or
    #: a zero-argument callable resolved (and cached) on first use, so a
    #: serialized-only prediction never pays for the interior derivation
    #: (``bench_dist_tuning`` estimates many candidate layouts that are
    #: never run, let alone overlapped).
    interior_flops: "float | Callable[[], float]" = 0.0

    def resolved_interior_flops(self) -> float:
        if callable(self.interior_flops):
            self.interior_flops = float(self.interior_flops())
        return self.interior_flops

    def compute_time(self, cost: CostModel) -> float:
        return cost.compute_time(self.flops)

    def comm_time(self, cost: CostModel) -> float:
        """Serialized communication time seen by this rank (upper bound)."""
        return (
            self.msgs_out * cost.send_overhead
            + self.msgs_in * cost.alpha
            + cost.beta * self.bytes_in
        )

    def inflight_time(self, cost: CostModel) -> float:
        """Time this rank's incoming *ghost* data spends on the wire.

        Gather-direction messages only: remote-write (scatter) values do
        not exist until after the compute phase and cannot overlap it.
        """
        return self.gather_msgs_in * cost.alpha + cost.beta * self.gather_bytes_in

    def scatter_tail_time(self, cost: CostModel) -> float:
        """Receive time of incoming remote-write values (post-compute)."""
        return (self.msgs_in - self.gather_msgs_in) * cost.alpha + cost.beta * (
            self.bytes_in - self.gather_bytes_in
        )

    def overlapped_time(self, cost: CostModel) -> float:
        """Critical path with interior compute hidden behind the ghosts.

        The rank posts its sends (paying injection overhead), computes
        its interior points while the incoming ghost messages are in
        flight (the longer of the two dominates), finishes the boundary
        points, then receives any remote-write values -- the timeline of
        the overlap-aware doall executor.
        """
        interior = cost.compute_time(self.resolved_interior_flops())
        boundary = cost.compute_time(self.flops - self.resolved_interior_flops())
        return (
            self.msgs_out * cost.send_overhead
            + cost.overlapped_time(interior, self.inflight_time(cost))
            + boundary
            + self.scatter_tail_time(cost)
        )


@dataclass
class LoopEstimate:
    """Whole-loop prediction: the performance tool's report."""

    per_rank: list[RankEstimate] = field(default_factory=list)

    def total_flops(self) -> float:
        return sum(r.flops for r in self.per_rank)

    def total_messages(self) -> int:
        return sum(r.msgs_out for r in self.per_rank)

    def total_bytes(self) -> int:
        return sum(r.bytes_out for r in self.per_rank)

    def predicted_time(self, cost: CostModel, overlap: bool = False) -> float:
        """Critical-path estimate: slowest rank's compute + comm.

        With ``overlap=True`` each rank's interior compute is hidden
        behind the in-flight time of its incoming ghost messages (the
        overlap-aware executor's timeline) instead of being summed --
        predicting the overlapped critical path, not the serialized sum.

        >>> from repro.machine.costmodel import CostModel
        >>> est = LoopEstimate(per_rank=[RankEstimate(
        ...     rank=0, iterations=8, flops=80.0, interior_flops=60.0,
        ...     msgs_out=0, msgs_in=1, bytes_out=0, bytes_in=8,
        ...     gather_msgs_in=1, gather_bytes_in=8)])
        >>> cost = CostModel(alpha=1e-4, beta=0.0, gamma_hop=0.0,
        ...                  flop_time=1e-6, send_overhead=0.0)
        >>> round(est.predicted_time(cost), 7)            # 80us + 100us
        0.00018
        >>> round(est.predicted_time(cost, overlap=True), 7)  # max(60,100)+20us
        0.00012
        """
        if not self.per_rank:
            return 0.0
        if overlap:
            return max(r.overlapped_time(cost) for r in self.per_rank)
        return max(r.compute_time(cost) + r.comm_time(cost) for r in self.per_rank)

    def predicted_efficiency(self, cost: CostModel, overlap: bool = False) -> float:
        """Ideal-time / (p * predicted time); 1.0 is perfect scaling."""
        p = len(self.per_rank)
        t = self.predicted_time(cost, overlap=overlap)
        if p == 0 or t <= 0:
            return 1.0
        ideal = cost.compute_time(self.total_flops()) / p
        return min(1.0, ideal / t)

    def load_imbalance(self) -> float:
        """max/mean iteration count over ranks (1.0 is perfectly balanced)."""
        counts = [r.iterations for r in self.per_rank]
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0

    def report(self, cost: CostModel) -> str:
        """Human-readable report, one line per rank plus a summary."""
        lines = ["rank  iters      flops    out(msgs/bytes)   in(msgs/bytes)"]
        for r in self.per_rank:
            lines.append(
                f"{r.rank:>4}  {r.iterations:>6} {r.flops:>10.0f}"
                f"   {r.msgs_out:>3}/{r.bytes_out:<8}   {r.msgs_in:>3}/{r.bytes_in:<8}"
            )
        lines.append(
            f"predicted time {self.predicted_time(cost):.6g}s, "
            f"efficiency {self.predicted_efficiency(cost):.3f}, "
            f"imbalance {self.load_imbalance():.3f}"
        )
        return "\n".join(lines)


def _lists_nbytes(lists, itemsize: int) -> int:
    return math.prod(mesh_shape(lists)) * itemsize


def estimate_doall(
    loop: Doall, plans: PlanCache | None = None, count: bool = True
) -> LoopEstimate:
    """Predict the communication and computation of one doall loop.

    ``plans`` selects the plan cache the analysis is compiled into (a
    Session's, via ``Program.estimate``), so estimating and then
    executing the same loop shares one compile; without it the loop is
    analysed on the spot and nothing is cached.  ``count=False`` keeps a
    cached lookup out of the hit statistics (a static estimate is not a
    replay).
    """
    if plans is None:
        return estimate_from_analysis(LoopAnalysis(loop))
    analysis, _ = plans.analysis(loop, count=count)
    return estimate_from_analysis(analysis)


def estimate_from_analysis(analysis) -> LoopEstimate:
    """Build the per-rank estimate from an already-compiled analysis."""
    out = LoopEstimate()
    for rank in analysis.ranks:
        iters = analysis.iters[rank]
        est = RankEstimate(
            rank=rank,
            iterations=iters.count(),
            flops=analysis.rank_flops(rank),
            msgs_out=0,
            msgs_in=0,
            bytes_out=0,
            bytes_in=0,
            interior_flops=partial(analysis.rank_interior_flops, rank),
        )
        for plans in analysis.read_plans:
            # the frozen gather schedule is the wire truth: each send is
            # one open-mesh box read, each recv one box of ghost values
            ts = plans[rank].transfer
            if ts is None:
                continue
            itemsize = plans[rank].array.dtype.itemsize
            for _dst, locs in ts.sends:
                est.msgs_out += 1
                est.bytes_out += _lists_nbytes(locs, itemsize)
            for _src, pos in ts.recvs:
                est.msgs_in += 1
                est.bytes_in += _lists_nbytes(pos, itemsize)
                est.gather_msgs_in += 1
                est.gather_bytes_in += _lists_nbytes(pos, itemsize)
        for stmt_idx, sa in enumerate(analysis.stmts):
            # the frozen scatter schedule makes the write side exactly
            # predictable: remote-write messages carry values only
            ts = analysis.write_plans[stmt_idx][rank].transfer
            if ts is not None:
                itemsize = sa.lhs_array.dtype.itemsize
                for _dst, sel in ts.sends:
                    est.msgs_out += 1
                    est.bytes_out += int(sel.size) * itemsize
                for _src, locs in ts.recvs:
                    est.msgs_in += 1
                    est.bytes_in += int(locs[0].size) * itemsize
        out.per_rank.append(est)
    return out
