"""Integer index math shared by distributions and the compiler.

All ranges here are half-open ``(start, stop)`` pairs over global indices,
matching Python convention.  The KF1 listings use inclusive Fortran bounds;
the language layer converts at its boundary.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValidationError(f"ceil_div requires positive divisor, got {b}")
    return -(-a // b)


def block_bounds(n: int, p: int, rank: int) -> tuple[int, int]:
    """Half-open bounds of block ``rank`` when ``n`` items split over ``p``.

    Uses the balanced splitting rule: the first ``n % p`` blocks get
    ``n // p + 1`` items.  For ``n % p == 0`` this is the paper's
    ``l_i = (i-1)n/p + 1 .. u_i = i n/p`` rule (0-indexed, half-open).
    """
    if not 0 <= rank < p:
        raise ValidationError(f"rank {rank} out of range for p={p}")
    base, extra = divmod(n, p)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def block_owner(n: int, p: int, index: int) -> int:
    """Owner rank of global ``index`` under the balanced block rule."""
    if not 0 <= index < n:
        raise ValidationError(f"index {index} out of range for n={n}")
    base, extra = divmod(n, p)
    split = extra * (base + 1)
    if index < split:
        return index // (base + 1)
    if base == 0:
        # n < p: every item lives in one of the first ``extra`` blocks.
        raise ValidationError(f"index {index} unowned: n={n} < p={p}")
    return extra + (index - split) // base


def cyclic_owner(p: int, index: int) -> int:
    """Owner rank of global ``index`` under round-robin distribution."""
    return index % p


def normalize_range(lo: int, hi: int, step: int = 1) -> tuple[int, int, int]:
    """Validate and normalize a half-open strided range."""
    if step <= 0:
        raise ValidationError(f"range step must be positive, got {step}")
    if hi < lo:
        hi = lo
    return lo, hi, step


def range_length(lo: int, hi: int, step: int = 1) -> int:
    """Number of points in ``range(lo, hi, step)``."""
    if hi <= lo:
        return 0
    return ceil_div(hi - lo, step)


def intersect_ranges(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Intersection of two half-open ranges; empty results have hi <= lo."""
    return max(a[0], b[0]), min(a[1], b[1])


def open_mesh(lists) -> tuple:
    """Numpy selection of the box ``lists[0] x lists[1] x ...``.

    The one place a per-dimension index-list box becomes something to
    subscript an array with.  When every list is a non-empty ascending
    arithmetic run of non-negative integers the box is a tuple of basic
    slices -- ``slice(a, b)``, or ``slice(a, b, step)`` for a constant
    stride > 1 (a cyclic section) -- which numpy executes as a strided
    copy and reads as a view; anything else (irregular, descending,
    duplicated, empty) is the ``np.ix_`` open mesh, a per-element
    gather.  Both forms select the same elements in the same order.

    >>> open_mesh([np.arange(2, 5), np.array([0, 3, 6])])
    (slice(2, 5, None), slice(0, 7, 3))
    >>> open_mesh([np.array([0, 1, 3]), np.arange(2)])
    (array([[0],
           [1],
           [3]]), array([[0, 1]]))
    """
    out = []
    for x in lists:
        x = np.asarray(x)
        if x.ndim != 1 or x.size == 0 or x.dtype.kind not in "iu":
            return np.ix_(*lists)
        first, last = int(x[0]), int(x[-1])
        step, rem = divmod(last - first, x.size - 1) if x.size > 1 else (1, 0)
        # the endpoints fix the only run the list could be; one byte
        # compare against it keeps the whole call at about the cost of
        # the np.ix_ it replaces (this sits on the compile path)
        if first < 0 or step < 1 or rem or x.tobytes() != np.arange(
            first, last + 1, step, dtype=x.dtype
        ).tobytes():
            return np.ix_(*lists)
        out.append(slice(first, last + 1) if step == 1
                   else slice(first, last + 1, step))
    return tuple(out)


def payload_shape(idx) -> tuple[int, ...]:
    """Shape of what a frozen send selection reads: an :func:`open_mesh`
    box (gather sends) or a flat selection array (scatter sends into a
    value vector).

    >>> payload_shape((slice(0, 3), slice(2, 4)))
    (3, 2)
    >>> payload_shape(np.array([4, 1, 7]))
    (3,)
    """
    if isinstance(idx, tuple):
        return mesh_shape(idx)
    return (int(np.asarray(idx).size),)


def mesh_shape(idx) -> tuple[int, ...]:
    """Shape of what an :func:`open_mesh` selection reads or writes.

    >>> mesh_shape(open_mesh([np.arange(2, 5), np.array([0, 3, 6, 9])]))
    (3, 4)
    >>> mesh_shape(open_mesh([np.array([0, 1, 3]), np.arange(2)]))
    (3, 2)
    """
    return tuple(
        len(range(s.start, s.stop, s.step or 1)) if isinstance(s, slice)
        else int(s.size)
        for s in idx
    )
