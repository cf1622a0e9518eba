"""Runtime inspector/executor for irregular references.

When subscripts are data-dependent (indirect indexing), the static
analysis of :mod:`repro.compiler.commgen` cannot derive matching
communication sets; the paper defers to runtime gathering (its reference
[17], Crowley/Saltz et al. -- the PARTI lineage).  ``inspector_gather``
implements that two-round protocol:

1. *inspection*: every rank tells every owner which of its elements it
   needs (possibly an empty request);
2. *execution*: owners reply with the requested values.

Every rank of the grid must call this collectively.  Returns the
requested values in request order.

Like every collective of this runtime, the gather is a grid rendezvous:
once every rank has brought its index rows, one grid-wide
:class:`~repro.compiler.commsched.GatherPlan` moves the values in
process, and each rank yields the protocol's messages with no data in
them (:func:`repro.compiler.commsched.gather`).  When the index pattern
is loop-invariant across sweeps, the inspection round can be
amortized: ``ctx.cached_gather`` keeps the plan in the Session's plan
cache and replays it with a single round of coalesced value messages.
The helpers below (:func:`normalize_indices`,
:func:`partition_requests`, :func:`local_locations`) are what the plan
is built from.
"""

from __future__ import annotations

import numpy as np

from repro.lang.array import BaseDistArray
from repro.lang.procs import ProcessorGrid
from repro.util.errors import ValidationError


def normalize_indices(array: BaseDistArray, indices) -> np.ndarray:
    """Validate and canonicalize a request-index array to (n, ndim) int64.

    Every row must lie inside the array (no negative wrap-around).

    >>> from repro.lang import DistArray, ProcessorGrid
    >>> A = DistArray((8,), ProcessorGrid((2,)), name="A")
    >>> normalize_indices(A, [[-1]])
    Traceback (most recent call last):
        ...
    repro.util.errors.ValidationError: index row [-1] is out of bounds for 'A' of shape (8,)
    """
    if indices is None:
        indices = np.empty((0, array.ndim), dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2 or indices.shape[1] != array.ndim:
        raise ValidationError(
            f"indices must have shape (n, {array.ndim}), got {indices.shape}"
        )
    bad = ((indices < 0) | (indices >= np.asarray(array.shape))).any(axis=1)
    if bad.any():
        row = indices[np.argmax(bad)].tolist()
        raise ValidationError(
            f"index row {row} is out of bounds for {array.name!r} of shape "
            f"{array.shape}"
        )
    return indices


def partition_requests(
    members: list[int], array: BaseDistArray, indices: np.ndarray
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Split a rank's requests by owning rank.

    Returns ``(requests, order)`` where ``requests[q]`` are the global
    index rows owned by rank ``q`` and ``order[q]`` their positions in
    the original request (the permutation that scatters q's reply back
    into the output).
    """
    if indices.shape[0]:
        owners = array.owner_ranks_vec(tuple(indices.T))
    else:
        owners = np.empty(0, dtype=np.int64)
    requests: dict[int, np.ndarray] = {}
    order: dict[int, np.ndarray] = {}
    for q in members:
        sel = np.nonzero(owners == q)[0]
        requests[q] = indices[sel]
        order[q] = sel
    return requests, order


def local_locations(array: BaseDistArray, idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """Local-block coordinates of global index rows (one array per dim)."""
    return tuple(
        np.asarray(array.dim(k).local_index(idx[:, k]), dtype=np.int64)
        for k in range(array.ndim)
    )


def inspector_gather(
    ctx,
    grid: ProcessorGrid,
    array: BaseDistArray,
    indices: np.ndarray | None,
    tag=None,
):
    """Gather arbitrary global elements of ``array`` at runtime.

    Parameters
    ----------
    ctx:
        The rank's :class:`~repro.lang.context.KaliCtx`.
    grid:
        Grid performing the collective gather (must include all owners).
    array:
        Source distributed array.
    indices:
        Integer array of shape (n, array.ndim) of global indices this
        rank wants, each inside the array's shape; None or empty for no
        requests.
    tag:
        Rendezvous and message tag; defaults to the grid's next tag.

    Yields machine ops; evaluates to an ``array.dtype`` array of length n.

    The protocol lives in :func:`repro.compiler.commsched.gather`, which
    ``ctx.cached_gather`` shares: here the grid-wide plan is built every
    call and not cached, and the full two-round exchange is charged.
    """
    from repro.compiler.commsched import gather

    return (yield from gather(ctx, grid, array, indices, cached=False, tag=tag))
