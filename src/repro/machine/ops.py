"""Operations node programs may yield to the simulator.

A node program is a Python generator.  It yields op objects; the
simulator executes the op, charges simulated time, and resumes the
generator (sending back a value for ops that produce one, e.g.
:class:`Recv`).  Collective helpers in :mod:`repro.machine.collectives`
compose these primitives with ``yield from``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from repro.util.errors import ValidationError


class _Any:
    """Wildcard matcher for Recv source/tag."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: Wildcard accepted by :class:`Recv` for ``src`` and ``tag``.
ANY = _Any()


def payload_nbytes(data: Any) -> int:
    """Estimate the wire size of a message payload in bytes.

    numpy arrays report their true buffer size; Python scalars count as
    one 8-byte word; containers are the sum of their elements plus one
    word of framing each.  ``None`` (pure synchronization) is free.
    """
    if data is None:
        return 0
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if isinstance(data, (np.generic,)):
        return int(data.nbytes)
    if isinstance(data, (int, float, complex, bool)):
        return 8
    if isinstance(data, str):
        return len(data.encode())
    if isinstance(data, dict):
        return 8 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in data.items())
    if isinstance(data, (tuple, list, set, frozenset)):
        return 8 + sum(payload_nbytes(item) for item in data)
    return 64  # conservative default for unknown objects


def frozen_by_value(data: np.ndarray) -> bool:
    """True when an array payload is by-value without a copy.

    A payload is by-value when no live reference can mutate the memory
    the receiver will read: the array is read-only and so is every
    ndarray beneath it, down to a read-only *owner* of the buffer.  That
    covers both a frozen owning array and a read-only slice view of
    one.  A read-only view of *writable* storage (``np.broadcast_to`` of
    a live buffer, say) fails the walk -- the sender can still mutate it
    through the base -- as does any base that is not an ndarray
    (memoryview-backed arrays, arbitrary buffer exports),
    conservatively.
    """
    a = data
    while True:
        if a.flags.writeable:
            return False
        base = a.base
        if base is None:
            return a.flags.owndata
        if not isinstance(base, np.ndarray):
            return False
        a = base


@dataclass(frozen=True)
class Compute:
    """Charge local computation time.

    Exactly one of ``flops`` or ``seconds`` must be given; ``flops`` is
    converted through the machine cost model.
    """

    flops: float | None = None
    seconds: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if (self.flops is None) == (self.seconds is None):
            raise ValidationError("Compute requires exactly one of flops/seconds")
        value = self.flops if self.flops is not None else self.seconds
        if value is not None and value < 0:
            raise ValidationError("Compute amount must be >= 0")


@dataclass(frozen=True)
class Send:
    """Asynchronous message send to processor ``dst``.

    The payload is snapshotted (numpy arrays copied) at send time, so
    later mutation by the sender cannot be observed by the receiver --
    this is what makes the copy-in semantics of doall loops safe.  A
    payload already frozen by the sender (``writeable=False`` down to
    its owner, :func:`frozen_by_value`) is by-value already and ships
    without the copy.
    """

    dst: int
    data: Any = None
    tag: Hashable = 0
    nbytes: int | None = None

    def size(self) -> int:
        return self.nbytes if self.nbytes is not None else payload_nbytes(self.data)


@dataclass(frozen=True)
class Recv:
    """Blocking receive; evaluates to the message payload.

    ``src`` and ``tag`` may each be :data:`ANY`.  Matching is FIFO per
    (src, tag) channel and by arrival time across channels for wildcards.
    """

    src: int | _Any = ANY
    tag: Hashable = ANY


@dataclass(frozen=True)
class Barrier:
    """Synchronize a group of ranks; all leave at the latest entry time.

    Every rank in ``group`` must yield a Barrier with the same ``group``
    and ``tag``.
    """

    group: tuple[int, ...]
    tag: Hashable = "barrier"

    def __post_init__(self) -> None:
        if len(self.group) == 0:
            raise ValidationError("Barrier group must be non-empty")
        if len(set(self.group)) != len(self.group):
            raise ValidationError("Barrier group has duplicate ranks")


@dataclass(frozen=True)
class Rendezvous:
    """Park until every rank of ``group`` has reached ``tag``; run
    ``action`` once; resume each rank at its own clock (no time is
    charged, unlike :class:`Barrier`).

    ``action`` receives ``{rank: payload}`` (each rank's own
    ``payload``) and may return ``{rank: value}``: what each rank's
    ``yield`` evaluates to.  Internal: every collective (a doall, a
    ``ctx.redistribute``, an irregular gather, a line solve, a grid
    collective, Fourier-Poisson's FFTs) opens its op stream with one,
    so the values of the whole collective move in one call once the
    grid has arrived; the data-free trace oracle yields it with
    ``action=None``.
    """

    group: tuple[int, ...]
    tag: Hashable
    action: Callable[[dict], dict | None] | None = None
    payload: Any = None


@dataclass(frozen=True)
class Mark:
    """Annotate the trace with a labelled, timestamped event.

    Used by kernels to expose algorithm phases (e.g. reduction steps) so
    benchmarks can regenerate the paper's data-flow figures from traces.
    """

    label: str
    payload: Any = None


@dataclass(frozen=True)
class Now:
    """Evaluates to the processor's current simulated clock (seconds)."""
