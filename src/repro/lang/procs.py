"""Processor arrays (the paper's ``processors procs(p, p)`` declaration).

A :class:`ProcessorGrid` is an n-dimensional arrangement of machine ranks.
Only one "real" grid exists per program (the paper's real-estate agent);
slices of it are passed to parallel subroutines, e.g. ``procs[:, jp]`` is
the KF1 ``procs(*, jp)`` column passed to a plane solver.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError


class ProcessorGrid:
    """An n-dimensional array of machine ranks.

    Parameters
    ----------
    shape:
        Grid shape; the grid holds ``prod(shape)`` ranks.
    ranks:
        Optional explicit rank array (used internally by slicing).  By
        default ranks ``0 .. prod(shape)-1`` are laid out in C order.
    """

    def __init__(self, shape: tuple[int, ...] | int, ranks: np.ndarray | None = None):
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in shape):
            raise ValidationError(f"grid shape must be positive, got {shape}")
        if ranks is None:
            ranks = np.arange(int(np.prod(shape)), dtype=np.int64).reshape(shape)
        else:
            ranks = np.asarray(ranks, dtype=np.int64)
            if ranks.shape != shape:
                raise ValidationError(
                    f"ranks shape {ranks.shape} does not match grid shape {shape}"
                )
            flat = ranks.reshape(-1)
            if len(np.unique(flat)) != flat.size:
                raise ValidationError("grid contains duplicate ranks")
        self.shape = shape
        self.ranks = ranks
        self.ranks.setflags(write=False)
        # a grid is immutable, so everything derived from the rank array
        # is computed once here, not per call
        self.size = ranks.size
        self._key = tuple(ranks.reshape(-1).tolist())
        self._members = frozenset(self._key)

    # ------------------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def linear(self) -> list[int]:
        """All machine ranks of this grid in C order (a fresh list)."""
        return list(self._key)

    def rank_at(self, coords: tuple[int, ...]) -> int:
        """Machine rank at grid coordinates."""
        if len(coords) != self.ndim:
            raise ValidationError(
                f"expected {self.ndim} coords, got {len(coords)}"
            )
        for c, s in zip(coords, self.shape):
            if not 0 <= c < s:
                raise ValidationError(f"grid coords {coords} outside shape {self.shape}")
        return int(self.ranks[tuple(coords)])

    def coords_of(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates of a machine rank (must belong to the grid)."""
        pos = np.argwhere(self.ranks == rank)
        if len(pos) == 0:
            raise ValidationError(f"rank {rank} not in grid {self.shape}")
        return tuple(int(x) for x in pos[0])

    def contains(self, rank: int) -> bool:
        return rank in self._members

    # ------------------------------------------------------------------
    # Slicing: procs[:, jp] etc.
    # ------------------------------------------------------------------

    def __getitem__(self, key) -> "ProcessorGrid":
        """Slice the grid; integer indices drop dimensions (KF1 ``procs(*, jp)``).

        The result is always a ProcessorGrid; a fully indexed grid becomes a
        0-d grid is not allowed -- at least one dimension must remain, so a
        single processor is a shape-(1,) grid.
        """
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) > self.ndim:
            raise ValidationError(f"too many indices for grid of ndim {self.ndim}")
        sub = self.ranks[key]
        if sub.ndim == 0:
            sub = sub.reshape(1)
        return ProcessorGrid(sub.shape, ranks=np.ascontiguousarray(sub))

    def row(self, *coords_prefix: int) -> "ProcessorGrid":
        """Convenience: fix leading dims, keep the rest."""
        return self[tuple(coords_prefix)]

    # ------------------------------------------------------------------

    def key(self) -> tuple[int, ...]:
        """Hashable identity: the tuple of member ranks (used for tags)."""
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, ProcessorGrid) and (
            self.shape == other.shape and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.key()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessorGrid(shape={self.shape}, ranks={self.linear})"

    def is_subset_of(self, other: "ProcessorGrid") -> bool:
        return self._members <= other._members

    def union(self, other: "ProcessorGrid") -> "ProcessorGrid":
        """Smallest grid containing both rank sets (1-D, sorted ranks).

        The launch grid of an inter-grid collective: a repartition
        between two grids needs every rank of either to participate, so
        the union is what the morphing machinery runs tags and barriers
        over.  When the rank sets are equal the receiver is returned
        as-is (same key, same tag counters).

        >>> ProcessorGrid((2, 2)).union(ProcessorGrid((2,))).shape
        (4,)
        >>> ProcessorGrid((2,)).union(ProcessorGrid((2,))).shape
        (2,)
        """
        mine, theirs = self._members, other._members
        if mine == theirs:
            return self
        merged = sorted(mine | theirs)
        return ProcessorGrid((len(merged),), ranks=np.asarray(merged, dtype=np.int64))
