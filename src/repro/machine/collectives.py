"""Grid collectives: broadcast, reduce, allreduce and gather.

Each collective is a generator helper used inside node programs with
``yield from``; the return value (if any) comes back through the
``StopIteration`` value, so e.g.::

    total = yield from collectives.allreduce(rank, group, x, op=operator.add, tag=t)

A call is one kind-tagged :class:`~repro.machine.ops.Rendezvous` of
``group`` -- tag ``(tag, kind)``, kind ``"bcast"``, ``"reduce"``,
``"allreduce"`` or ``"gather"`` -- so ranks that diverge into different
collectives never meet.  Once every rank has arrived, its action moves
the values: it derives the binomial tree over the ranks' *positions* in
``group`` (so any processor subset works, the paper's processor-array
slices) and combines the values in the tree's order with the caller's
``op``.  Every value a tree message stands for is copied like a message
payload (:func:`repro.machine.simulator._snapshot`), so no two ranks
share a mutable result.  Each rank then replays its data-free share of
the tree: ``Send`` ops carrying only the byte count of the value they
stand for, and discarding ``Recv`` ops, so the trace holds the tree's
messages, bytes and time.  Tags must be distinct per invocation and
identical across the group -- the language layer's context allocates
them.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Hashable, Sequence

from repro.machine.ops import Recv, Rendezvous, Send, payload_nbytes
from repro.machine.simulator import _snapshot
from repro.util.errors import ValidationError


def _position(rank: int, group: Sequence[int]) -> int:
    try:
        return list(group).index(rank)
    except ValueError:
        raise ValidationError(f"rank {rank} not in group {list(group)!r}") from None


def _collective(rank, group, root, tag, action, data):
    """One rank's share of a collective: the rendezvous, then its stream.

    ``action`` maps ``{rank: data}`` to ``{rank: (value, ops)}``.  A rank
    or root outside ``group`` raises ``ValidationError`` before any op.
    """
    _position(rank, group)
    _position(root, group)
    value, ops = yield Rendezvous(tuple(group), tag, action, payload=data)
    yield from ops
    return value


def _rounds(size: int) -> list[int]:
    """The binomial tree's round steps: the powers of two below ``size``."""
    return [1 << i for i in range((size - 1).bit_length())]


def _rooted(group: Sequence[int], root: int) -> tuple[int, ...]:
    """``group``'s ranks in position order relative to ``root``."""
    group = tuple(group)
    at = group.index(root)
    return group[at:] + group[:at]


def _bcast_ops(order, nbytes: int, tag) -> dict[int, list]:
    """Each rank's share of a broadcast from ``order[0]``: position
    ``me`` receives once from ``me - 2**floor(log2 me)`` and forwards to
    ``me + step`` for every round ``step > me``."""
    size = len(order)
    ops = {}
    for me, rank in enumerate(order):
        mine = [Recv(order[me - (1 << (me.bit_length() - 1))], (tag, "bcast", me))] if me else []
        mine += [
            Send(order[me + step], None, (tag, "bcast", me + step), nbytes)
            for step in _rounds(size) if me < step and me + step < size
        ]
        ops[rank] = mine
    return ops


def _reduce(order, payloads, tag, op):
    """Combine ``payloads`` up the binomial tree rooted at ``order[0]``.

    Position ``me`` folds in its children ``me + step`` (every round
    below its lowest set bit, in round order) and sends the result to
    ``me - lowbit(me)``.  Returns the root's value and each rank's ops.
    """
    size = len(order)
    value = [payloads[r] for r in order]
    ops = {}
    for me in reversed(range(size)):  # children sit at higher positions
        low = me & -me
        children = [s for s in _rounds(size) if (not low or s < low) and me + s < size]
        for step in children:
            value[me] = op(value[me], _snapshot(value[me + step]))
        mine = [Recv(order[me + step], (tag, "reduce", me, step)) for step in children]
        if me:
            mine.append(Send(order[me - low], None, (tag, "reduce", me - low, low),
                             payload_nbytes(value[me])))
        ops[order[me]] = mine
    return value[0], ops


def bcast(rank: int, group: Sequence[int], data: Any, *, root: int, tag: Hashable):
    """Broadcast ``data`` from ``root`` to every rank in ``group``."""

    def action(payloads):
        value = payloads[root]
        ops = _bcast_ops(_rooted(group, root), payload_nbytes(value), tag)
        return {r: (value if r == root else _snapshot(value), ops[r]) for r in ops}

    return _collective(rank, group, root, (tag, "bcast"), action, data)


def reduce(
    rank: int,
    group: Sequence[int],
    data: Any,
    *,
    root: int,
    tag: Hashable,
    op: Callable[[Any, Any], Any] = operator.add,
):
    """Reduce values from all ranks onto ``root``; others return None."""

    def action(payloads):
        value, ops = _reduce(_rooted(group, root), payloads, tag, op)
        return {r: (value if r == root else None, ops[r]) for r in ops}

    return _collective(rank, group, root, (tag, "reduce"), action, data)


def allreduce(
    rank: int,
    group: Sequence[int],
    data: Any,
    *,
    tag: Hashable,
    op: Callable[[Any, Any], Any] = operator.add,
):
    """Reduce onto ``group[0]``, then broadcast: every rank returns the
    combined value."""
    root = group[0]

    def action(payloads):
        value, ops = _reduce(tuple(group), payloads, (tag, "ar_r"), op)
        down = _bcast_ops(tuple(group), payload_nbytes(value), (tag, "ar_b"))
        return {r: (value if r == root else _snapshot(value), ops[r] + down[r]) for r in ops}

    return _collective(rank, group, root, (tag, "allreduce"), action, data)


def gather(rank: int, group: Sequence[int], data: Any, *, root: int, tag: Hashable):
    """Gather one value per rank onto ``root`` as a list ordered by group.

    Flat (non-tree) gather: each non-root sends directly to root, which
    receives in group order.  Non-roots return None.
    """

    def action(payloads):
        others = [(pos, r) for pos, r in enumerate(group) if r != root]
        ops = {r: [Send(root, None, (tag, "gather", pos), payload_nbytes(payloads[r]))]
               for pos, r in others}
        ops[root] = [Recv(r, (tag, "gather", pos)) for pos, r in others]
        items = [payloads[r] if r == root else _snapshot(payloads[r]) for r in group]
        return {r: (items if r == root else None, ops[r]) for r in group}

    return _collective(rank, group, root, (tag, "gather"), action, data)
