"""Prune-then-execute layout autotuning.

Section 2 of the paper promises that distribution tuning is "simple
modifications of this program" plus a performance-estimation tool; this
module closes the loop and removes the programmer entirely.  The search
``bench_dist_tuning`` prototyped -- estimate every candidate statically,
execute only the predicted frontier -- is generalized here to any
compiled loop :class:`~repro.session.Program`:

1. **Enumerate** -- :class:`TuneSpace` spans distributions x grid
   shapes x stripmine (block-cyclic) factors x overlap on/off.  Each
   candidate clones the program's arrays onto the candidate layout and
   recompiles the loops against a scratch Session, so the original
   program is never disturbed.
2. **Predict** -- every candidate is scored through the exact estimator
   (:mod:`repro.compiler.estimate`: messages and bytes read off the
   frozen schedules).  With a plain
   :class:`~repro.machine.costmodel.CostModel` the score is simulated
   critical-path time; with a
   :class:`~repro.machine.calibrate.CalibratedCostModel` it is
   predicted *host* seconds (the serial in-process executor runs ranks
   back to back, so the host predictor sums rank work instead of
   taking the slowest rank, and charges the calibrated per-sweep replay
   overhead per loop).
3. **Execute the frontier** -- only candidates predicted within
   ``prune_factor`` of the best, capped at ``budget`` (default one
   quarter of the enumeration), ever run; the seed layout is always
   forced into the frontier so the winner can be compared against it.
   Executed candidates record predicted-vs-measured error.
4. **Apply** -- :meth:`TuneResult.apply` redistributes the original
   program's arrays onto the winner and re-freezes its plans (the same
   retarget machinery :func:`repro.elastic.morph` uses), so the next
   ``run`` is already an all-hit replay of the chosen layout.

``Session.morph("auto")`` asks :func:`auto_grid` for the target grid,
and ``repro.compile(..., tune=True)`` runs a budgeted search before
returning.  See ``docs/tuning.md`` for the lifecycle.

>>> import numpy as np
>>> from repro import Machine, ProcessorGrid, Session, compile, tune
>>> from repro.lang import DistArray
>>> from repro.tensor.jacobi import build_jacobi_loop
>>> g = ProcessorGrid((2, 2))
>>> X = DistArray((17, 17), g, dist=("block", "block"), name="X")
>>> F = DistArray((17, 17), g, dist=("block", "block"), name="F")
>>> prog = compile(build_jacobi_loop(X, F, 16, g),
...                session=Session(Machine(n_procs=4)))
>>> result = tune(prog, budget=0)        # predict-only: rank, no runs
>>> result.n_executed, result.n_enumerated > 4
(0, True)
>>> result.winner.predicted <= result.seed.predicted
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.elastic import (
    _all_locks,
    _loop_programs,
    _refreeze,
    _refuse_sections,
    _same_grid,
    _storage_arrays,
)
from repro.lang.array import DistArray
from repro.lang.dist import BlockCyclic, Star
from repro.lang.doall import Doall, Owner
from repro.lang.expr import Assign, BinOp, Const, Ref
from repro.lang.procs import ProcessorGrid
from repro.machine.calibrate import CalibratedCostModel
from repro.machine.costmodel import CostModel
from repro.machine.simulator import Machine
from repro.util.errors import ValidationError

#: sentinel distribution: keep each array's own per-dimension spec kinds
KEEP = "keep"


@dataclass(frozen=True)
class TuneSpace:
    """The candidate space :func:`tune` enumerates.

    ``distributions`` is a tuple of per-dimension spec tuples (entries
    as :class:`~repro.lang.array.DistArray` accepts them: ``"block"``,
    ``"cyclic"``, ``"*"``, or :class:`~repro.lang.dist.BlockCyclic`),
    or the sentinel :data:`KEEP` to hold every array's current kinds;
    ``None`` derives all placements of the grid's dimensions over the
    lead arrays' dimensions.  ``grid_shapes`` is a tuple of grid
    shapes; ``None`` derives every ordered factorization of the
    machine's processor count, one per grid rank count up to the lead
    arrays' rank.  ``block_sizes`` adds ``BlockCyclic(b)`` (the
    stripmine factors) to the derived spec kinds.  ``overlap`` picks
    the executor variants to score.
    """

    distributions: tuple | None = None
    grid_shapes: tuple | None = None
    block_sizes: tuple = ()
    overlap: tuple = (False, True)


@dataclass
class Candidate:
    """One point of the search space, with its predicted/measured fate."""

    index: int
    dist: object           # spec tuple, or KEEP
    grid_shape: tuple
    overlap: bool
    seed: bool = False
    feasible: bool = True
    #: predicted seconds per sweep (host seconds under a
    #: CalibratedCostModel, simulated seconds otherwise)
    predicted: float = 0.0
    #: exact per-sweep wire totals read off the frozen schedules
    pred_msgs: int = 0
    pred_bytes: int = 0
    executed: bool = False
    #: measured seconds per sweep (same clock as ``predicted``)
    measured: float | None = None
    #: per-sweep wire totals observed by the executed trace (sim mode)
    measured_msgs: float | None = None
    measured_bytes: float | None = None
    #: (measured - predicted) / predicted for executed candidates
    error: float | None = None
    #: the scratch Program this candidate compiled (its arrays hold the
    #: executed results); None for infeasible candidates
    program: object = field(default=None, repr=False, compare=False)

    def label(self) -> str:
        dist = "keep" if self.dist == KEEP else \
            "(" + ", ".join(_spec_name(s) for s in self.dist) + ")"
        return f"{dist} @ {self.grid_shape}" + (" +overlap" if self.overlap else "")

    def as_dict(self) -> dict:
        """JSON-able summary (drops the live scratch program)."""
        return {
            "index": self.index,
            "dist": "keep" if self.dist == KEEP
                    else [_spec_name(s) for s in self.dist],
            "grid_shape": list(self.grid_shape),
            "overlap": self.overlap,
            "seed": self.seed,
            "feasible": self.feasible,
            "predicted_s": self.predicted,
            "pred_msgs": self.pred_msgs,
            "pred_bytes": self.pred_bytes,
            "executed": self.executed,
            "measured_s": self.measured,
            "measured_msgs": self.measured_msgs,
            "measured_bytes": self.measured_bytes,
            "error": self.error,
        }


class TuneResult:
    """Ranked outcome of one :func:`tune` call.

    ``candidates`` is the full enumeration (stable order, seed first);
    ``ranked()`` sorts the feasible ones by predicted time; ``frontier``
    is the executed subset (empty when ``budget=0``); ``winner`` is the
    measured-fastest executed candidate, or the predicted-best when
    nothing ran; ``seed`` is the program's own layout, always present
    and always executed when anything is.  :meth:`apply` moves the
    tuned program onto the winner.
    """

    def __init__(self, program, candidates, frontier, winner, seed, *,
                 mode, cost, iters, prune_factor, budget):
        self.program = program
        self.candidates = candidates
        self.frontier = frontier
        self.winner = winner
        self.seed = seed
        self.mode = mode
        self.cost = cost
        self.iters = iters
        self.prune_factor = prune_factor
        self.budget = budget

    @property
    def n_enumerated(self) -> int:
        return len(self.candidates)

    @property
    def n_executed(self) -> int:
        return len(self.frontier)

    def ranked(self) -> list:
        """Feasible candidates, best predicted first."""
        return sorted(
            (c for c in self.candidates if c.feasible),
            key=lambda c: (c.predicted, c.index),
        )

    def mean_error(self) -> float | None:
        """Mean |predicted-vs-measured| relative error over the frontier."""
        errs = [abs(c.error) for c in self.frontier if c.error is not None]
        return sum(errs) / len(errs) if errs else None

    def apply(self):
        """Move the tuned program onto the winner's layout.

        Holds the program's run lock, quiesces the Session's worker
        pools, redistributes every storage array onto the winner's
        grid/specs, and re-freezes the plans (the morph retarget path)
        -- so the first run after ``apply()`` is an all-hit replay of
        the chosen layout.  Returns the program.
        """
        program, winner = self.program, self.winner
        session = program.session
        new_grid = ProcessorGrid(winner.grid_shape)
        with program.lock:
            session.close_backend()
            for arr in _storage_arrays(program):
                specs = _map_specs(arr, winner.dist, new_grid)
                if specs is None:  # pragma: no cover - winner is feasible
                    raise ValidationError(
                        f"winner layout does not fit array {arr.name!r}"
                    )
                same_specs = _spec_names(specs) == _spec_names(arr.dist.specs)
                if _same_grid(arr.grid, new_grid) and same_specs:
                    continue
                arr.redistribute(specs, grid=new_grid)
            _refreeze(session, program, new_grid)
            with session._lock:
                if session.grid is not None:
                    session.grid = new_grid
        return program

    def summary(self) -> str:
        lines = [
            f"tune: {self.n_enumerated} candidates enumerated, "
            f"{self.n_executed} executed ({self.mode} clock, "
            f"prune_factor={self.prune_factor}, budget={self.budget})"
        ]
        for c in self.ranked():
            state = "ran " if c.executed else ("seed" if c.seed else "    ")
            meas = f" measured={c.measured:.3e}s err={c.error:+.1%}" \
                if c.executed else ""
            lines.append(
                f"  [{state}] {c.label():<40} "
                f"predicted={c.predicted:.3e}s{meas}"
            )
        lines.append(f"winner: {self.winner.label()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TuneResult({self.n_enumerated} candidates, "
            f"{self.n_executed} executed, winner={self.winner.label()!r})"
        )


# ----------------------------------------------------------------------
# Space enumeration
# ----------------------------------------------------------------------


def _spec_name(spec) -> str:
    key = spec.spec_key() if hasattr(spec, "spec_key") else (str(spec),)
    return key[0] if len(key) == 1 else f"{key[0]}({key[1]})"


def _spec_names(specs) -> tuple:
    return tuple(_spec_name(s) for s in specs)


def _factorizations(n: int, ndims: int):
    """Every ordered factorization of ``n`` into ``ndims`` factors."""
    if ndims == 1:
        yield (n,)
        return
    for d in range(1, n + 1):
        if n % d == 0:
            for rest in _factorizations(n // d, ndims - 1):
                yield (d,) + rest


def _placements(ndim: int, grid_ndim: int, kinds):
    """All per-dimension spec tuples distributing ``grid_ndim`` of the
    array's ``ndim`` dimensions, each with one of ``kinds``."""
    if grid_ndim > ndim:
        return
    from itertools import combinations, product

    for dims in combinations(range(ndim), grid_ndim):
        for ks in product(kinds, repeat=grid_ndim):
            spec = ["*"] * ndim
            for dim, kind in zip(dims, ks):
                spec[dim] = kind
            yield tuple(spec)


def _tuned_ndim(arrays) -> int:
    """The tuned rank: the largest non-replicated array rank."""
    dims = [a.ndim for a in arrays if not _replicated(a)]
    return max(dims) if dims else max(a.ndim for a in arrays)


def _replicated(arr) -> bool:
    return all(isinstance(s, Star) for s in arr.dist.specs)


def _map_specs(arr, cand_dist, grid: ProcessorGrid):
    """The candidate's per-dimension specs for one array, or None.

    Replicated arrays stay replicated (valid on any grid).  The
    candidate distribution applies to arrays of the tuned rank; other
    distributed arrays keep their own spec kinds, which fit only when
    their distributed-dimension count matches the grid's rank.
    """
    if _replicated(arr):
        return ("*",) * arr.ndim
    specs = arr.dist.specs if cand_dist == KEEP else cand_dist
    if len(specs) != arr.ndim:
        specs = arr.dist.specs
    n_distributed = sum(not isinstance(s, Star) and s != "*" for s in specs)
    if n_distributed != len(grid.shape):
        return None
    return tuple(specs)


def enumerate_candidates(program, space: TuneSpace, n_procs: int) -> list:
    """The full candidate list for ``program`` under ``space``.

    The seed (the program's current layout, overlap off) is candidate 0;
    duplicates of it later in the enumeration are dropped.
    """
    arrays = _storage_arrays(program)
    ndim = _tuned_ndim(arrays)
    seed_grid = program.grid.shape
    seed_dist = None
    for a in arrays:
        if not _replicated(a) and a.ndim == ndim:
            seed_dist = tuple(a.dist.specs)
            break
    if seed_dist is None:
        seed_dist = KEEP

    if space.grid_shapes is not None:
        grid_shapes = [tuple(s) for s in space.grid_shapes]
    else:
        grid_shapes = []
        for d in range(1, ndim + 1):
            grid_shapes.extend(_factorizations(n_procs, d))

    kinds = ["block", "cyclic"] + [BlockCyclic(b) for b in space.block_sizes]

    candidates = [Candidate(0, seed_dist, seed_grid, False, seed=True)]
    seen = {(_dist_key(seed_dist), seed_grid, False)}
    for shape in grid_shapes:
        if _grid_size(shape) > n_procs:
            continue
        if space.distributions is not None:
            dists = list(space.distributions)
        else:
            dists = list(_placements(ndim, len(shape), kinds))
        for dist in dists:
            dist = dist if dist == KEEP else tuple(dist)
            for overlap in space.overlap:
                key = (_dist_key(dist), tuple(shape), overlap)
                if key in seen:
                    continue
                seen.add(key)
                candidates.append(
                    Candidate(len(candidates), dist, tuple(shape), overlap)
                )
    return candidates


def _dist_key(dist):
    if dist == KEEP:
        return KEEP
    return _spec_names(dist)


def _grid_size(shape) -> int:
    out = 1
    for s in shape:
        out *= s
    return out


# ----------------------------------------------------------------------
# Candidate compilation (clone the program onto a layout)
# ----------------------------------------------------------------------


def _substitute(expr, mapping):
    """Rebuild an expression tree with arrays swapped per ``mapping``."""
    if isinstance(expr, Ref):
        return Ref(mapping[id(expr.array)], expr.idx)
    if isinstance(expr, BinOp):
        return BinOp(expr.op,
                     _substitute(expr.left, mapping),
                     _substitute(expr.right, mapping))
    if isinstance(expr, Const):
        return expr
    raise ValidationError(  # pragma: no cover - expr grammar is closed
        f"cannot retarget expression node {type(expr).__name__}"
    )


def materialize(program, candidate: Candidate, cost: CostModel):
    """Compile ``program`` cloned onto ``candidate``'s layout.

    Array values are copied (each candidate starts from the live
    program's current state and runs on private storage), loops are
    rebuilt with the cloned arrays on the candidate grid, and the clone
    compiles into a fresh scratch Session -- predictions and frontier
    executions never touch the tuned program.  Returns the scratch
    Program, or None when the layout does not fit (marked infeasible).
    """
    from repro.session import Session, compile as _compile

    grid = ProcessorGrid(candidate.grid_shape)
    mapping: dict[int, DistArray] = {}
    for arr in _storage_arrays(program):
        specs = _map_specs(arr, candidate.dist, grid)
        if specs is None:
            return None
        clone = DistArray(arr.shape, grid, dist=specs,
                          dtype=arr.dtype, name=arr.name)
        clone.from_global(arr.to_global())
        mapping[id(arr)] = clone

    loops = []
    for loop in program.loops:
        on = loop.on
        if not isinstance(on, Owner):
            raise ValidationError(
                "tune() needs owner-computes loops; an OnProc clause pins "
                "ranks and leaves nothing to search"
            )
        body = [
            Assign(_substitute(st.lhs, mapping), _substitute(st.rhs, mapping))
            for st in loop.body
        ]
        loops.append(
            Doall(loop.vars, loop.ranges,
                  Owner(mapping[id(on.array)], on.idx), body, grid)
        )
    scratch = Session(Machine(n_procs=grid.size, cost=cost), cost=cost)
    return _compile(loops, session=scratch)


# ----------------------------------------------------------------------
# Prediction and measurement
# ----------------------------------------------------------------------


def predict_program(program, cost: CostModel, overlap: bool = False) -> float:
    """Predicted seconds for one sweep of ``program`` under ``cost``.

    A plain CostModel predicts simulated time -- per loop, the slowest
    rank's compute + comm (the estimator's critical path).  A
    :class:`~repro.machine.calibrate.CalibratedCostModel` predicts
    *host* seconds of the serial in-process executor, which runs every
    rank back to back: total flops, messages, and bytes are charged at
    the calibrated rates and each loop pays the calibrated per-sweep
    replay overhead.  Either way messages and bytes come off the frozen
    schedules -- exact, not modeled.
    """
    total = 0.0
    for est in program.loop_estimates():
        if isinstance(cost, CalibratedCostModel):
            total += (
                cost.sweep_overhead
                + cost.compute_time(est.total_flops())
                + cost.alpha * est.total_messages()
                + cost.beta * est.total_bytes()
            )
        else:
            total += est.predicted_time(cost, overlap=overlap)
    return total


def _sweep_totals(program) -> tuple[int, int]:
    msgs = bytes_ = 0
    for est in program.loop_estimates():
        msgs += est.total_messages()
        bytes_ += est.total_bytes()
    return msgs, bytes_


def _measure_sim(program, iters: int, overlap: bool):
    """Simulated-clock measurement: one run, exact trace accounting."""
    trace = program.run(iters=iters, overlap=overlap)
    return (
        trace.makespan() / iters,
        trace.message_count() / iters,
        trace.total_bytes() / iters,
    )


def _measure_host(program, iters: int, reps: int, overlap: bool, backend):
    """Host-clock measurement: best-of-``reps`` steady-state replays."""
    program.run(iters=iters, overlap=overlap, backend=backend)  # warm
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        program.run(iters=iters, overlap=overlap, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best / iters, None, None


# ----------------------------------------------------------------------
# The tuner
# ----------------------------------------------------------------------


def tune(
    program_or_loops,
    session=None,
    *,
    space: TuneSpace | None = None,
    budget: int | None = None,
    cost: CostModel | None = None,
    prune_factor: float = 2.0,
    iters: int = 2,
    reps: int = 2,
    backend=None,
) -> TuneResult:
    """Search layouts for a loop program; execute only the frontier.

    ``program_or_loops`` is a compiled :class:`~repro.session.Program`
    or anything :func:`repro.compile` accepts (compiled into
    ``session``, or a fresh one).  ``space`` defaults to the derived
    :class:`TuneSpace`; ``budget`` caps how many candidates execute
    (default: a quarter of the enumeration, the prune-then-execute
    contract; ``0`` ranks by prediction only).  ``cost`` defaults to
    the program Session's model -- pass a
    :class:`~repro.machine.calibrate.CalibratedCostModel` to rank and
    measure in real host seconds (``reps`` timed repetitions of
    ``iters`` sweeps each, on ``backend``, defaulting to the backend
    the calibration measured); a plain model ranks and measures on the
    simulated clock, where message/byte predictions are exact.  The
    seed layout is always executed alongside the frontier, so
    ``result.winner.measured <= result.seed.measured`` by construction.
    """
    from repro.session import Program, Session
    from repro.session import compile as _compile

    if isinstance(program_or_loops, Program):
        if session is not None and session is not program_or_loops.session:
            raise ValidationError(
                "pass either a compiled Program or loops + session, not a "
                "Program from a different session"
            )
        program = program_or_loops
    else:
        if session is None:
            session = Session()
        program = _compile(program_or_loops, session=session)
    program._require_loops("tune()")
    _refuse_sections(program)

    space = space if space is not None else TuneSpace()
    if cost is None:
        # a host calibration, when the session holds one, beats the
        # simulated model: the tuner's job is real seconds
        cost = getattr(program.session, "calibration", None)
    cost = cost if cost is not None else program.session.cost
    if cost is None:
        cost = CostModel.hypercube_1989()
    mode = "host" if isinstance(cost, CalibratedCostModel) else "sim"
    if backend is None and mode == "host" \
            and cost.backend_name == "multiprocessing":
        backend = "multiprocessing"

    machine = program.session.machine
    n_procs = machine.n_procs if machine is not None else program.grid.size

    candidates = enumerate_candidates(program, space, n_procs)
    for cand in candidates:
        scratch = materialize(program, cand, cost)
        if scratch is None:
            cand.feasible = False
            continue
        cand.program = scratch
        cand.predicted = predict_program(scratch, cost, overlap=cand.overlap)
        cand.pred_msgs, cand.pred_bytes = _sweep_totals(scratch)

    feasible = [c for c in candidates if c.feasible]
    if not feasible:
        raise ValidationError("no feasible layout candidates for this program")
    seed = candidates[0]
    if not seed.feasible:  # pragma: no cover - seed always materializes
        raise ValidationError("the program's own layout failed to materialize")

    if budget is None:
        budget = max(1, len(candidates) // 4)

    ranked = sorted(feasible, key=lambda c: (c.predicted, c.index))
    best_pred = ranked[0].predicted
    frontier = [
        c for c in ranked if c.predicted <= prune_factor * best_pred
    ][:budget]
    if budget > 0 and seed not in frontier:
        # the seed is the baseline every acceptance claim compares
        # against, so it always spends one slot of the budget
        if len(frontier) >= budget:
            frontier = frontier[:budget - 1]
        frontier.append(seed)

    for cand in frontier:
        if mode == "sim":
            cand.measured, cand.measured_msgs, cand.measured_bytes = \
                _measure_sim(cand.program, iters, cand.overlap)
        else:
            cand.measured, cand.measured_msgs, cand.measured_bytes = \
                _measure_host(cand.program, iters, reps, cand.overlap, backend)
            cand.program.session.close_backend()
        cand.executed = True
        if cand.predicted > 0:
            cand.error = (cand.measured - cand.predicted) / cand.predicted

    if frontier:
        winner = min(frontier, key=lambda c: (c.measured, c.index))
    else:
        winner = ranked[0]
    return TuneResult(
        program, candidates, frontier, winner, seed,
        mode=mode, cost=cost, iters=iters,
        prune_factor=prune_factor, budget=budget,
    )


# ----------------------------------------------------------------------
# The morph consumer: pick a grid for Session.morph("auto")
# ----------------------------------------------------------------------


def auto_grid(session, *, cost: CostModel | None = None,
              machine=None) -> tuple[ProcessorGrid, TuneResult]:
    """The grid :func:`repro.morph` should move ``session`` onto.

    Predict-only (``budget=0``): every live program is scored over all
    grids of the current rank count's shape rank that fit the machine,
    with each array keeping its own distribution kinds (morph preserves
    per-dimension specs, so that is exactly the reachable set); the
    grid whose summed predicted time is lowest wins.  Returns the grid
    and the first program's :class:`TuneResult` (stashed by
    ``Session.morph`` as ``session.last_tune``).
    """
    programs = _loop_programs(session)
    if not programs:
        raise ValidationError(
            "morph('auto') needs at least one compiled loop program"
        )
    mach = machine if machine is not None else session.machine
    if mach is None:
        mach = getattr(session.backend, "machine", None)
    if mach is None:
        raise ValidationError(
            "no machine: give the Session one or pass machine= to morph()"
        )
    if cost is None:
        cost = getattr(session, "calibration", None)
    cost = cost if cost is not None else session.cost
    with _all_locks(programs):
        ndim = len(programs[0].grid.shape)
        shapes = []
        for p in range(1, mach.n_procs + 1):
            shapes.extend(_factorizations(p, ndim))
        space = TuneSpace(
            distributions=(KEEP,), grid_shapes=tuple(shapes), overlap=(False,)
        )
        totals: dict[tuple, float] = {}
        first = None
        for prog in programs:
            result = tune(prog, space=space, budget=0, cost=cost)
            first = first if first is not None else result
            for c in result.candidates:
                if not c.feasible or c.seed:
                    continue
                totals[c.grid_shape] = totals.get(c.grid_shape, 0.0) \
                    + c.predicted
        if not totals:
            raise ValidationError(
                "morph('auto') found no feasible grid for these programs"
            )
        best = min(sorted(totals), key=lambda s: totals[s])
    return ProcessorGrid(best), first


__all__ = [
    "KEEP",
    "TuneSpace",
    "Candidate",
    "TuneResult",
    "tune",
    "auto_grid",
    "enumerate_candidates",
    "materialize",
    "predict_program",
]
