"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class MachineError(ReproError):
    """Error in the simulated machine layer (bad rank, bad op, ...)."""


class DeadlockError(MachineError):
    """All live processors are blocked and no messages are in flight.

    Carries a per-processor diagnosis of what each stuck processor was
    waiting for (``blocked``: ``(src, tag)`` of a receive, or ``(kind,
    tag, group)`` of a ``"barrier"`` or doall ``"rendezvous"``) -- and,
    when the machine provides it, the ``(src, tag)`` keys of messages
    sitting *undelivered* in each stuck rank's mailbox (``pending``).  A
    hang is usually a near-miss between the two lists (a tag or source
    mismatch), so the exception alone diagnoses cross-backend protocol
    drift without re-running under a debugger.
    """

    def __init__(self, blocked: dict, pending: dict | None = None):
        self.blocked = dict(blocked)
        #: rank -> list of (src, tag) mailbox keys that arrived but
        #: matched no receive; empty dict when the machine did not
        #: report mailboxes (e.g. hand-raised errors).
        self.pending = {r: list(keys) for r, keys in (pending or {}).items()}
        lines = ["deadlock: every live processor is blocked, no message in flight"]
        for rank in sorted(self.blocked):
            wait = self.blocked[rank]
            if len(wait) == 3:
                kind, tag, group = wait
                lines.append(f"  proc {rank}: waiting in {kind}(tag={tag!r}, "
                             f"group={group!r})")
            else:
                src, tag = wait
                lines.append(f"  proc {rank}: waiting on recv(src={src!r}, tag={tag!r})")
            if pending is not None:
                keys = self.pending.get(rank)
                if keys:
                    lines.append(
                        "    undelivered mailbox: "
                        + ", ".join(f"(src={s!r}, tag={t!r})" for s, t in keys)
                    )
                else:
                    lines.append("    undelivered mailbox: empty")
        super().__init__("\n".join(lines))


class DistributionError(ReproError):
    """Invalid data-distribution specification or index mapping."""


class CompileError(ReproError):
    """The mini-compiler could not lower a doall loop."""


class ValidationError(ReproError):
    """Invalid argument to a public API function."""


class ServerOverloadError(ReproError):
    """The serving layer refused a request instead of queueing it.

    Raised by :meth:`repro.serve.Server.submit` (and the blocking
    wrappers built on it) when admission control finds the bounded
    queue full, or when the circuit breaker is open after repeated
    backend failures.  Carries ``retry_after`` -- a best-effort hint,
    in seconds, for when the caller should try again (queue-drain
    estimate when overloaded, cooldown remainder when the circuit is
    open).  Shedding load with this error is what keeps accepted
    requests' latency bounded; see ``docs/resilience.md``.
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        #: seconds the caller should wait before retrying (best effort)
        self.retry_after = float(retry_after)
        super().__init__(f"{message} (retry after ~{self.retry_after:.2f}s)")
