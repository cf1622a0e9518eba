"""The execution-backend contract behind the ``Machine`` interface.

The paper's runtime contract is small: a machine runs one *node
program* -- a generator of :mod:`repro.machine.ops` objects -- per
processor, routes the messages they exchange, and returns a
:class:`~repro.machine.trace.Trace`.  Everything above that line
(compiler, schedules, solvers, Sessions) is backend-agnostic; this
module names the line.

:class:`Backend` is the abstract contract.  Two implementations exist:

* :class:`~repro.machine.simulator.Machine` -- the deterministic
  event-driven simulator.  It is the *reference semantics*: all timing
  in a trace is defined by its cost model, and every other backend must
  produce results, schedule accounting, and traces bit-identical to it.
* :class:`~repro.machine.mpbackend.MultiprocessingBackend` -- real
  shared-memory parallel execution of compiled loop programs on forked
  rank workers, with the simulator kept inside as the trace oracle.

``n_procs``/``topology``/``cost`` describe the machine being modeled;
they are identical across backends wrapping the same machine, so cost
estimates and trace timings never depend on where the floats were
actually computed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Generator, Iterable

from repro.machine.costmodel import CostModel
from repro.machine.topology import Topology
from repro.machine.trace import Trace

#: A node program: a generator yielding machine ops.
NodeProgram = Generator[Any, Any, Any]


class Backend(ABC):
    """Abstract execution backend: runs node programs, returns a Trace.

    The op vocabulary a backend must implement is exactly
    :mod:`repro.machine.ops`: ``Compute``, ``Send``, ``Recv``,
    ``Barrier``, ``Mark``, ``Now``, and the internal ``Rendezvous`` a
    ``ctx.doall`` stream opens with (park the group, run the action --
    the doall's data plane -- once, resume each rank at its own clock).
    Message semantics are by-value (payloads snapshotted at send time)
    and receives match FIFO per ``(src, tag)`` channel; see the
    simulator for the normative behavior.
    """

    #: interconnect of the modeled machine
    topology: Topology
    #: timing model stamped onto traces
    cost: CostModel

    @property
    def n_procs(self) -> int:
        """Number of processors of the modeled machine."""
        return self.topology.n_procs

    @abstractmethod
    def run(
        self,
        programs: dict[int, NodeProgram] | Callable[[int], NodeProgram],
        ranks: Iterable[int] | None = None,
    ) -> Trace:
        """Run node programs to completion and return the trace.

        ``programs`` is either a dict mapping rank -> generator, or a
        factory called with each rank in ``ranks`` (default: all
        ranks).
        """
