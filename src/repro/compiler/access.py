"""Access analysis: which global elements each processor reads and writes.

For every rank and every referenced array we compute per-dimension
sorted unique index arrays ("needed lists").  Their box product is the
(possibly over-approximated, as in real halo compilers) region the rank
must have available locally before evaluating its iterations.  The same
machinery evaluates left-hand-side index arrays for the write phase.
"""

from __future__ import annotations

import numpy as np

# np.unique (numpy >= 2) imports numpy.ma lazily on its first call, i.e.
# inside the first compile of a process: a 20k-object import, and the
# cyclic garbage it leaves, in the middle of a run.  Load it with the
# compile layer instead, so the first compile allocates like every later one.
import numpy.ma  # noqa: F401

from repro.compiler.stripmine import IterSet
from repro.lang.array import BaseDistArray
from repro.lang.doall import Doall
from repro.lang.expr import Assign, Ref
from repro.util.errors import CompileError


def eval_index(expr, iters: IterSet) -> np.ndarray:
    """Evaluate an affine index expression over an iteration set.

    Returns a broadcast-ready array (minimal shape); constants give 0-d.
    """
    return expr.evaluate(iters.env())


def needed_lists(
    array: BaseDistArray, refs: list[Ref], iters: IterSet
) -> list[np.ndarray] | None:
    """Per-dimension sorted unique global indices read by ``iters``.

    Returns None when the iteration set is empty (nothing needed).
    Raises CompileError for out-of-bounds reads.
    """
    if iters.empty:
        return None
    dims: list[np.ndarray] = []
    for k in range(array.ndim):
        pieces = []
        for ref in refs:
            vals = eval_index(ref.idx[k], iters)
            pieces.append(np.asarray(vals).reshape(-1))
        merged = np.unique(np.concatenate(pieces))
        if merged.size and (merged[0] < 0 or merged[-1] >= array.shape[k]):
            raise CompileError(
                f"read of {array.name!r} dim {k} out of bounds "
                f"[{merged[0]}, {merged[-1]}] for extent {array.shape[k]}"
            )
        dims.append(merged)
    return dims


def owned_lists(array: BaseDistArray, rank: int) -> list[np.ndarray] | None:
    """Per-dimension global indices stored by ``rank`` (None if not an owner)."""
    if not array.grid.contains(rank):
        return None
    return array.owned_lists(rank)


def intersect_lists(
    a: list[np.ndarray] | None, b: list[np.ndarray] | None
) -> list[np.ndarray] | None:
    """Per-dimension intersection of two box products (None if empty)."""
    if a is None or b is None:
        return None
    out = []
    for x, y in zip(a, b):
        z = np.intersect1d(x, y, assume_unique=True)
        if z.size == 0:
            return None
        out.append(z)
    return out


def positions_in(needed: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Positions of ``idx`` values inside the sorted unique ``needed`` list."""
    pos = np.searchsorted(needed, idx)
    return pos


class StmtAccess:
    """Per-statement access info shared across ranks."""

    def __init__(self, stmt: Assign):
        self.stmt = stmt
        self.lhs_array: BaseDistArray = stmt.lhs.array
        self.rhs_refs = stmt.rhs.refs()
        if self.lhs_array.replicated and self.lhs_array.grid.size > 1:
            # On a single-processor grid replication is trivially
            # consistent; otherwise copies would diverge.
            raise CompileError(
                f"cannot assign to replicated array {self.lhs_array.name!r} "
                "inside a doall loop"
            )

    def lhs_index_arrays(self, iters: IterSet) -> list[np.ndarray]:
        """Broadcast-ready lhs global index arrays, one per array dim."""
        out = []
        for k in range(self.lhs_array.ndim):
            vals = eval_index(self.stmt.lhs.idx[k], iters)
            arr = np.asarray(vals)
            mn = arr.min() if arr.size else 0
            mx = arr.max() if arr.size else -1
            if arr.size and (mn < 0 or mx >= self.lhs_array.shape[k]):
                raise CompileError(
                    f"write to {self.lhs_array.name!r} dim {k} out of bounds "
                    f"[{mn}, {mx}] for extent {self.lhs_array.shape[k]}"
                )
            out.append(arr)
        return out


def arrays_read(loop: Doall) -> dict[int, tuple[BaseDistArray, list[Ref]]]:
    """Map id(array) -> (array, rhs refs of it) over the whole body."""
    out: dict[int, tuple[BaseDistArray, list[Ref]]] = {}
    for st in loop.body:
        for ref in st.rhs.refs():
            key = id(ref.array)
            if key not in out:
                out[key] = (ref.array, [])
            out[key][1].append(ref)
    return out


def writes_are_local(loop: Doall) -> bool:
    """Fast-path detection: every write lands on the executing processor.

    True when the on clause is Owner(A, idx) and every statement's lhs is
    the same array subscripted with the same expressions on all
    distributed dimensions.  This covers every stencil loop in the paper.
    """
    from repro.lang.doall import Owner

    if not isinstance(loop.on, Owner):
        return False
    on_arr = loop.on.array
    for st in loop.body:
        if st.lhs.array is not on_arr:
            return False
        for k in range(on_arr.ndim):
            if on_arr.grid_dim_of(k) is None:
                continue
            e_on = loop.on.idx[k]
            if e_on is None:
                return False
            if e_on.key() != st.lhs.idx[k].key():
                return False
    return True
