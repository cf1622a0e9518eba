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

When the index pattern is loop-invariant across sweeps, the inspection
round can be amortized: :mod:`repro.compiler.commsched` records the
result of one inspection as a first-class gather-direction
:class:`~repro.compiler.commsched.TransferSchedule` and replays it
through :func:`~repro.compiler.commsched.execute_transfer` with a
single round of coalesced value messages.  The helpers below
(:func:`partition_requests`, :func:`local_locations`, :func:`read_local`)
are shared by both paths so the schedule replay is bit-identical to a
fresh inspection.
"""

from __future__ import annotations

import numpy as np

from repro.lang.array import BaseDistArray
from repro.lang.procs import ProcessorGrid
from repro.util.errors import ValidationError


def normalize_indices(array: BaseDistArray, indices) -> np.ndarray:
    """Validate and canonicalize a request-index array to (n, ndim) int64."""
    if indices is None:
        indices = np.empty((0, array.ndim), dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2 or indices.shape[1] != array.ndim:
        raise ValidationError(
            f"indices must have shape (n, {array.ndim}), got {indices.shape}"
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


def read_local(array: BaseDistArray, rank: int, idx: np.ndarray) -> np.ndarray:
    """Bulk-read global index rows from ``rank``'s local block."""
    return np.asarray(array.local(rank)[local_locations(array, idx)])


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
        rank wants; None or empty for no requests.

    Yields machine ops; evaluates to an ``array.dtype`` array of length n.

    The protocol itself lives in
    :func:`repro.compiler.commsched.build_gather_schedule` -- one
    implementation serves both the one-shot gather (the schedule is
    discarded here) and the cached inspector -> schedule -> executor
    pipeline, which is what guarantees cached replays are bit-identical
    to a fresh inspection.
    """
    from repro.compiler.commsched import build_gather_schedule

    _sched, out = yield from build_gather_schedule(ctx, grid, array, indices, tag=tag)
    return out
