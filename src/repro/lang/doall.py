"""The doall loop IR: range products, on clauses, loop objects.

A ``Doall`` is the paper's

    doall 100 (i, j) = [1, n] * [1, n] on owner(X(i, j))
        X(i, j) = ...
    100 continue

Ranges here are *inclusive* (lo, hi) or (lo, hi, step) pairs, matching
the Fortran listings; they are normalized to half-open form internally.
"""

from __future__ import annotations

from typing import Sequence

from repro.lang.array import BaseDistArray
from repro.lang.expr import AffineExpr, Assign, LoopVar, Ref
from repro.lang.procs import ProcessorGrid
from repro.util.errors import CompileError, ValidationError


class OnClause:
    """Base class of doall ``on`` clauses."""

    def key(self):
        raise NotImplementedError


class Owner(OnClause):
    """``on owner(X(i, j))``: run each invocation where the element lives.

    ``idx`` entries are affine expressions or ``None`` for star-slices,
    e.g. ``Owner(r, (i, None))`` is the paper's ``owner(r(i, *))``.
    """

    def __init__(self, array: BaseDistArray, idx: Sequence):
        self.array = array
        self.idx = tuple(
            None if e is None else AffineExpr.of(e) for e in idx
        )
        if len(self.idx) != array.ndim:
            raise CompileError(
                f"owner() over {array.ndim}-d array needs {array.ndim} subscripts"
            )

    @staticmethod
    def of(ref: Ref) -> "Owner":
        """Build from an existing Ref: ``Owner.of(X[i, j])``."""
        return Owner(ref.array, ref.idx)

    def key(self):
        # uid, not id(): object addresses recycle after GC, and a plan
        # keyed on a dead array's id must never hit for a live one.  No
        # fallback -- a uid-less array must fail loudly, not alias None.
        return (
            "owner",
            self.array.uid,
            tuple(None if e is None else e.key() for e in self.idx),
        )


class OnProc(OnClause):
    """``on procs(ip)``: run invocation on an explicit grid coordinate.

    ``coord_exprs`` gives one affine expression per grid dimension (or
    ``None`` to leave a grid dimension unconstrained, replicating the
    iteration across it, as in ``on procs(ip, *)``).
    """

    def __init__(self, grid: ProcessorGrid, coord_exprs: Sequence):
        self.grid = grid
        self.coord_exprs = tuple(
            None if e is None else AffineExpr.of(e) for e in coord_exprs
        )
        if len(self.coord_exprs) != grid.ndim:
            raise CompileError(
                f"OnProc needs {grid.ndim} coordinate expressions for this grid"
            )

    def key(self):
        return (
            "onproc",
            self.grid.shape,
            self.grid.key(),
            tuple(None if e is None else e.key() for e in self.coord_exprs),
        )


class Doall:
    """A parallel loop nest over a product of inclusive strided ranges.

    Parameters
    ----------
    vars:
        Loop variables, outermost first.
    ranges:
        One ``(lo, hi)`` or ``(lo, hi, step)`` *inclusive* range per var.
    on:
        An :class:`Owner` or :class:`OnProc` clause.
    body:
        List of :class:`~repro.lang.expr.Assign` statements.  All rhs
        reads observe pre-loop values (copy-in/copy-out).
    grid:
        Processor grid executing the loop; every rank of this grid must
        execute the loop (SPMD discipline) and it must contain the grids
        of every referenced array.
    """

    def __init__(
        self,
        vars: Sequence[LoopVar],
        ranges: Sequence[tuple],
        on: OnClause,
        body: Sequence[Assign],
        grid: ProcessorGrid,
    ):
        self.vars = tuple(vars)
        if len(self.vars) != len(set(v.name for v in self.vars)):
            raise ValidationError("duplicate loop variable names")
        norm = []
        for r in ranges:
            if len(r) == 2:
                lo, hi = r
                step = 1
            elif len(r) == 3:
                lo, hi, step = r
            else:
                raise ValidationError(f"range {r!r} must be (lo, hi[, step])")
            if step <= 0:
                raise ValidationError(f"range step must be positive, got {step}")
            norm.append((int(lo), int(hi), int(step)))
        if len(norm) != len(self.vars):
            raise ValidationError("one range required per loop variable")
        self.ranges = tuple(norm)
        if not isinstance(on, OnClause):
            raise ValidationError("on must be an Owner or OnProc clause")
        self.on = on
        self.body = list(body)
        if not self.body:
            raise ValidationError("doall body must contain at least one statement")
        for st in self.body:
            if not isinstance(st, Assign):
                raise ValidationError(f"doall body statement {st!r} is not Assign")
        self.grid = grid
        # A Doall is immutable once built (vars/ranges/on/body are fixed;
        # plan caching depends on that), so the referenced-array set and
        # the structural half of the key are derived once, here.
        self._arrays = self._scan_arrays()
        self._structure = (
            tuple(v.name for v in self.vars),
            self.ranges,
            self.on.key(),
            tuple(st.key() for st in self.body),
            grid.shape,
            grid.key(),
        )
        for arr in self._arrays:
            if not arr.grid.is_subset_of(grid):
                raise CompileError(
                    f"array {arr.name!r} lives on ranks outside the loop grid; "
                    "every owner must execute the doall"
                )

    def _scan_arrays(self) -> list[BaseDistArray]:
        seen: dict[int, BaseDistArray] = {}
        for st in self.body:
            for ref in [st.lhs] + st.rhs.refs():
                seen.setdefault(id(ref.array), ref.array)
        if isinstance(self.on, Owner):
            seen.setdefault(id(self.on.array), self.on.array)
        return list(seen.values())

    def arrays(self) -> list[BaseDistArray]:
        """All distinct arrays referenced by the loop (reads and writes)."""
        return list(self._arrays)

    def key(self):
        """Identity for plan caching: ``(structure, layouts)``.

        The structure (loop variables, ranges, ``on`` clause, statement
        trees with array uids, grid) is immutable and was derived at
        construction.  The only part that can move between calls is the
        vector of the referenced arrays' layout keys
        (:meth:`~repro.lang.array.BaseDistArray.layout_key`, memoized on
        each array), so a probe costs one small tuple, never a tree
        walk -- and because a layout key is a value, redistributing an
        array away and back yields the key, and the cached plan, the
        loop had before.
        """
        return (self._structure, tuple(a.layout_key() for a in self._arrays))
