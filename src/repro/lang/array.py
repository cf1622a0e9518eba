"""Distributed arrays and their sections.

A :class:`DistArray` is the KF1 ``real X(0:n, 0:n) dist (block, block)``
declaration.  Storage is one local numpy block per processor of the
owning grid.  Subscripting with loop variables builds a
:class:`~repro.lang.expr.Ref` AST node; subscripting with slices/ints
builds a :class:`Section` (the paper's ``u(*, *, k)`` array slice passed
to a parallel subroutine) whose local data are numpy *views* into the
parent's blocks.
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

from repro.lang.dist import BoundDim, Distribution
from repro.lang.expr import AffineExpr, LoopVar, Ref
from repro.lang.procs import ProcessorGrid
from repro.util.errors import ValidationError
from repro.util.indexing import open_mesh


def _is_index_expr(x) -> bool:
    return isinstance(x, (LoopVar, AffineExpr))


#: Process-wide array identities for communication-schedule cache keys.
_UIDS = itertools.count()


class BaseDistArray:
    """Interface shared by :class:`DistArray` and :class:`Section`.

    The compiler only uses this protocol: shape/dtype, the owning grid,
    per-dimension bound distributions, and per-rank local views.  Every
    array additionally carries the cache hooks: a process-unique ``uid``;
    a :meth:`layout_key`, the value identity of its current layout that
    every cached plan is keyed on (so an array that *returns* to a
    layout finds that layout's plans again); and a monotone
    ``comm_epoch``, bumped whenever the layout changes, which names the
    current *blocks* -- what a worker pool adopted, what a checkpoint
    recorded -- and appears in no plan key.
    """

    name: str
    shape: tuple[int, ...]
    dtype: Any
    grid: ProcessorGrid

    @property
    def ndim(self) -> int:
        return len(self.shape)

    # -- communication-schedule cache hooks -----------------------------

    @property
    def comm_epoch(self) -> int:
        """Generation of the local blocks: moves on every layout change."""
        raise NotImplementedError

    def layout_key(self) -> tuple:
        """Hashable value identity of the array's current layout.

        ``(uid, dist spec, grid shape, grid ranks, invalidation count)``
        for a :class:`DistArray` -- the grid shape because the rank tuple
        alone cannot tell a ``(2, 2)`` grid from a ``(4, 1)`` one; a
        :class:`Section` is its own uid over its base's.  Plans are pure
        functions of the arrays' layout keys, so they are cached under
        them: redistributing away and back is a hit.
        """
        raise NotImplementedError

    def invalidate_schedules(self) -> None:
        """Declare every plan and schedule built for this array stale.

        For out-of-band edits of the layout, which the layout key cannot
        see.  (Redistribution needs no invalidation: it moves the layout
        key, and the plans of the layout left behind stay valid for a
        return to it.)  Moves ``comm_epoch`` and the layout key, so no
        cache anywhere can hit an old entry again, and purges the
        array's plans -- gather plans included -- from every live
        :class:`~repro.compiler.schedule.PlanCache`.
        """
        raise NotImplementedError

    def dim(self, k: int) -> BoundDim:
        """Bound distribution of array dimension ``k``."""
        raise NotImplementedError

    def grid_dim_of(self, k: int) -> int | None:
        """Grid dimension fed by array dim ``k`` (None for star dims)."""
        raise NotImplementedError

    def local(self, rank: int) -> np.ndarray:
        """This rank's local block (a numpy array or view)."""
        raise NotImplementedError

    @property
    def replicated(self) -> bool:
        return all(self.grid_dim_of(k) is None for k in range(self.ndim))

    def redistribute(self, dist, grid: ProcessorGrid | None = None) -> None:
        """Re-lay the array out with a new distribution, preserving values.

        The paper's arrays are statically distributed, but schedule
        caching makes layout a cached artifact, so redistribution must be
        an explicit operation: local blocks are rebuilt for the new
        distribution, the comm epoch is bumped (the old blocks are gone)
        and the layout key moves, so the next doall or cached gather
        probes for the *new* layout's plans -- compiled on first visit,
        replayed on every return.

        ``grid`` moves the array to a *different* processor grid in the
        same step (the elastic grow/shrink primitive): the new blocks
        live on ``grid``'s ranks, assembled from the old grid's blocks.

        Data movement is owner-to-owner: each new block is assembled
        from the intersections of the old blocks with it, never by
        materializing the global array -- the
        :class:`~repro.compiler.commsched.RepartitionPlan` of the
        transition, built here and applied at once.  Only a whole
        :class:`DistArray` owns a layout: a section raises
        ``ValidationError``.  This is the host-side path for use outside
        SPMD programs; inside a node program use
        ``ctx.redistribute(array, dist)``, which applies the same plan
        at a grid rendezvous, caches it for the next flip, and records
        the exchange as simulated messages.
        """
        from repro.compiler.commsched import RepartitionPlan

        new_grid = grid if grid is not None else self.grid
        new_dist = Distribution(dist, self.shape, new_grid.shape)
        RepartitionPlan(self, new_dist, new_grid).apply(self)

    # -- indexing ------------------------------------------------------

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) != self.ndim:
            raise ValidationError(
                f"{self.ndim}-d array indexed with {len(key)} subscripts"
            )
        if any(_is_index_expr(k) for k in key):
            if not all(_is_index_expr(k) or isinstance(k, (int, np.integer)) for k in key):
                raise ValidationError(
                    "cannot mix loop-variable subscripts with slices"
                )
            return Ref(self, key)
        return Section(self, key)

    # -- whole-array helpers (testing / setup) --------------------------

    def owner_rank(self, index: tuple) -> int:
        """Machine rank owning a global element (first owner if replicated)."""
        coords = [0] * self.grid.ndim
        for k in range(self.ndim):
            g = self.grid_dim_of(k)
            if g is not None:
                coords[g] = int(self.dim(k).owner(index[k]))
        return self.grid.rank_at(tuple(coords))

    def owner_ranks_vec(self, idx_arrays: tuple) -> np.ndarray:
        """Vectorized owner ranks for broadcastable index arrays, in
        their broadcast shape (also when no dimension is distributed)."""
        coords = [np.zeros(1, dtype=np.int64)] * self.grid.ndim
        for k in range(self.ndim):
            g = self.grid_dim_of(k)
            if g is not None:
                coords[g] = self.dim(k).owner(idx_arrays[k])
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords),
                                    *(np.shape(i) for i in idx_arrays))
        out = self.grid.ranks[tuple(np.broadcast_to(c, shape) for c in coords)]
        return out

    def local_index(self, index: tuple) -> tuple:
        return tuple(int(self.dim(k).local_index(index[k])) for k in range(self.ndim))

    def get_global(self, index: tuple):
        """Read one element by global index (test helper)."""
        rank = self.owner_rank(index)
        return self.local(rank)[self.local_index(index)]

    def set_global(self, index: tuple, value) -> None:
        """Write one element by global index on every owner (test helper)."""
        for rank in self.owner_ranks_of(index):
            self.local(rank)[self.local_index(index)] = value

    def owner_ranks_of(self, index: tuple) -> list[int]:
        """All ranks storing a global element (several when replicated dims)."""
        free = [g for g in range(self.grid.ndim)]
        coords: list[list[int]] = [[]] * self.grid.ndim
        fixed = {}
        for k in range(self.ndim):
            g = self.grid_dim_of(k)
            if g is not None:
                fixed[g] = int(self.dim(k).owner(index[k]))
        ranks = []
        grid_shape = self.grid.shape
        def rec(g, acc):
            if g == self.grid.ndim:
                ranks.append(self.grid.rank_at(tuple(acc)))
                return
            if g in fixed:
                rec(g + 1, acc + [fixed[g]])
            else:
                for c in range(grid_shape[g]):
                    rec(g + 1, acc + [c])
        rec(0, [])
        return ranks

    def owned_lists(self, rank: int) -> list[np.ndarray]:
        """Per-dimension sorted global indices stored by ``rank``.

        Protocol-level fallback for Sections, whose dims/grid mapping go
        through ``dim()``/``grid_dim_of()`` indirection; DistArray
        overrides this to delegate to its Distribution, the one place
        ownership semantics live.
        """
        coords = self.grid.coords_of(rank)
        out = []
        for k in range(self.ndim):
            g = self.grid_dim_of(k)
            out.append(self.dim(k).owned_indices(coords[g] if g is not None else 0))
        return out

    def _owned_meshes(self) -> list[tuple]:
        """``(rank, selection of its owned box in the global array)`` per
        rank, re-derived only when the blocks have moved."""
        cached = getattr(self, "_meshes", None)
        if cached is None or cached[0] != self.comm_epoch:
            cached = self._meshes = (
                self.comm_epoch,
                [(r, open_mesh(self.owned_lists(r))) for r in self.grid.linear],
            )
        return cached[1]

    def to_global(self) -> np.ndarray:
        """Assemble the full global array (test/benchmark helper)."""
        out = np.zeros(self.shape, dtype=self.dtype)
        for rank, mesh in self._owned_meshes():
            out[mesh] = self.local(rank)
        return out

    def from_global(self, arr: np.ndarray) -> None:
        """Scatter a full global array into the local blocks."""
        arr = np.asarray(arr, dtype=self.dtype)
        if arr.shape != self.shape:
            raise ValidationError(f"shape {arr.shape} != array shape {self.shape}")
        for rank, mesh in self._owned_meshes():
            self.local(rank)[...] = arr[mesh]


class DistArray(BaseDistArray):
    """A distributed array: ``DistArray((n, n), grid, dist=("block", "block"))``.

    Parameters
    ----------
    shape:
        Global shape.
    grid:
        Owning processor grid (or a slice of the real grid).
    dist:
        Per-dimension specs: ``"block"``, ``"cyclic"``, ``"*"`` or DimDist
        instances.  Defaults to all-``"*"`` (replicated), matching the
        paper's rule for arrays without a distribution clause.
    """

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        grid: ProcessorGrid,
        dist=None,
        dtype=np.float64,
        name: str = "A",
    ):
        if isinstance(shape, int):
            shape = (shape,)
        self.shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in self.shape):
            raise ValidationError(f"negative extent in shape {self.shape}")
        self.grid = grid
        self.dtype = np.dtype(dtype)
        self.name = name
        if dist is None:
            dist = ("*",) * len(self.shape)
        self.uid = next(_UIDS)
        self._comm_epoch = 0
        self._invalidations = 0
        self._layout_key: tuple | None = None
        self.dist = Distribution(dist, self.shape, grid.shape)
        self._blocks: dict[int, np.ndarray] = {}
        for rank in grid.linear:
            coords = grid.coords_of(rank)
            self._blocks[rank] = np.zeros(
                self.dist.local_shape(coords), dtype=self.dtype
            )

    @property
    def comm_epoch(self) -> int:
        return self._comm_epoch

    def layout_key(self) -> tuple:
        key = self._layout_key
        if key is None:
            key = self._layout_key = (
                self.uid, self.dist.spec_key(), self.grid.shape,
                self.grid.key(), self._invalidations,
            )
        return key

    def invalidate_schedules(self) -> None:
        from repro.compiler.schedule import drop_plans_for_array

        self._comm_epoch += 1
        self._invalidations += 1
        self._layout_key = None
        drop_plans_for_array(self)

    def _install(self, grid: ProcessorGrid, dist: Distribution, blocks: dict) -> None:
        """Swap in a new layout: the one place a layout changes."""
        self.grid = grid
        self.dist = dist
        self._blocks = blocks
        self._comm_epoch += 1
        self._layout_key = None

    def dim(self, k: int) -> BoundDim:
        return self.dist.dim(k)

    def grid_dim_of(self, k: int) -> int | None:
        return self.dist.grid_dim_of[k]

    def owned_lists(self, rank: int) -> list[np.ndarray]:
        return self.dist.owned_lists(self.grid.coords_of(rank))

    def local(self, rank: int) -> np.ndarray:
        try:
            return self._blocks[rank]
        except KeyError:
            raise ValidationError(
                f"rank {rank} does not own a block of array {self.name!r}"
            ) from None

    def fill(self, value: float) -> None:
        for b in self._blocks.values():
            b.fill(value)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DistArray({self.name!r}, shape={self.shape}, "
            f"dist={self.dist!r}, grid={self.grid.shape})"
        )


class Section(BaseDistArray):
    """A slice of a DistArray: fixed dims drop out, slice dims remain.

    Only full slices (``:``) are supported for kept dimensions -- exactly
    the paper's ``u(*, *, k)`` usage.  Fixing a distributed dimension
    restricts the owning grid to the matching hyperplane, which is how a
    plane solve inherits a lower-dimensional processor array.
    """

    def __init__(self, base: BaseDistArray, key: tuple):
        if len(key) != base.ndim:
            raise ValidationError("section key must cover every dimension")
        self.base = base
        self.uid = next(_UIDS)
        # Snapshot of the base layout this section was sliced from: the
        # grid restriction and dim mapping below are derived from it, so
        # the section must refuse to operate if the base is re-laid out.
        self._base_dist = getattr(base, "dist", None)
        self.name = f"{base.name}[section]"
        kept: list[int] = []
        fixed: dict[int, int] = {}
        for k, item in enumerate(key):
            if isinstance(item, slice):
                if item != slice(None):
                    raise ValidationError(
                        "only full slices ':' are supported in sections"
                    )
                kept.append(k)
            elif isinstance(item, (int, np.integer)):
                idx = int(item)
                if not 0 <= idx < base.shape[k]:
                    raise ValidationError(
                        f"index {idx} out of bounds for dim {k} of {base.shape}"
                    )
                fixed[k] = idx
            else:
                raise ValidationError(f"bad section subscript {item!r}")
        self.kept = kept
        self.fixed = fixed
        self.shape = tuple(base.shape[k] for k in kept)
        self.dtype = base.dtype

        # Grid restriction: fixing a distributed dim pins that grid dim.
        grid_key: list = [slice(None)] * base.grid.ndim
        for k, idx in fixed.items():
            g = base.grid_dim_of(k)
            if g is not None:
                grid_key[g] = int(base.dim(k).owner(idx))
        self.grid = base.grid[tuple(grid_key)]

        # Map kept array dims to the restricted grid's dims, in order.
        remaining_grid_dims = [
            g for g in range(base.grid.ndim)
            if not isinstance(grid_key[g], int)
        ]
        self._grid_dim_map: list[int | None] = []
        for k in kept:
            g = base.grid_dim_of(k)
            if g is None:
                self._grid_dim_map.append(None)
            else:
                self._grid_dim_map.append(remaining_grid_dims.index(g))

    @property
    def comm_epoch(self) -> int:
        """Sections share their base array's block generation."""
        return self.base.comm_epoch

    def layout_key(self) -> tuple:
        return (self.uid, self.base.layout_key())

    def invalidate_schedules(self) -> None:
        self.base.invalidate_schedules()

    def _check_fresh(self) -> None:
        """Refuse to operate on a section of a redistributed base.

        The grid restriction and dim mapping were computed from the
        layout at slicing time; using them against a new layout would
        silently read the wrong ranks.  Re-slice the base instead.
        """
        base = self.base
        if isinstance(base, Section):
            base._check_fresh()
        elif getattr(base, "dist", self._base_dist) is not self._base_dist:
            raise ValidationError(
                f"stale section of {base.name!r}: the base array was "
                "redistributed after this section was created; take a "
                "fresh section of the new layout"
            )

    def dim(self, k: int) -> BoundDim:
        self._check_fresh()
        return self.base.dim(self.kept[k])

    def grid_dim_of(self, k: int) -> int | None:
        self._check_fresh()
        return self._grid_dim_map[k]

    def local(self, rank: int) -> np.ndarray:
        self._check_fresh()
        block = self.base.local(rank)
        sel: list = []
        for k in range(self.base.ndim):
            if k in self.fixed:
                sel.append(int(self.base.dim(k).local_index(self.fixed[k])))
            else:
                sel.append(slice(None))
        return block[tuple(sel)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Section({self.base!r}, fixed={self.fixed})"


def storage_of(array: BaseDistArray) -> DistArray:
    """The block-owning array beneath ``array`` (sections peel off)."""
    while not hasattr(array, "_blocks"):
        array = array.base
    return array
