"""Protocol-level request batching.

The paper's certification protocols exchange one ``PREPARE`` / ``ACCEPT`` /
``DECISION`` message per transaction per destination, so under heavy
multi-client load throughput is bounded by message count rather than by
certification work.  The batching layer amortises that fan-out: a
coordinator accumulates the messages it would send to each destination and
flushes them as a single batch message, which the receiver processes in one
pass (shard leaders certify whole batches against their conflict indexes
and answer with one aggregated vote vector).

Batch *composition* must be deterministic: batches are keyed by destination
in a plain dict (insertion order — i.e. the order the protocol produced the
messages — never hash order) and a full flush walks destinations sorted, so
the same seeded schedule always produces byte-identical batches regardless
of the interpreter's hash seed.

Three flush triggers, combined by :class:`BatchPolicy`:

* **size cap** — a destination's batch flushes as soon as it holds
  ``size`` messages;
* **time cap** (``linger``, with ``adaptive=False``) — a batch flushes
  ``linger`` virtual-time units after its first message was queued, trading
  bounded extra latency for larger batches (the knob WAN deployments sweep);
* **adaptive flush-on-idle** (``adaptive=True``, the default) — a batch
  flushes at the end of the current virtual instant, once every delivery
  already queued for it has drained (see
  :meth:`~repro.runtime.events.Scheduler.call_at_instant_end`).  Messages
  produced at the same instant coalesce; batching adds *zero* virtual
  latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.events import FlushTimer


@dataclass(frozen=True)
class BatchPolicy:
    """When the batching layer flushes an accumulating batch — the value a
    scenario's ``batch`` field holds and the cluster receives
    (``repro.scenarios.BatchSpec`` is this class).

    With ``size >= 2`` coordinators accumulate their per-destination
    fan-out (PREPAREs to shard leaders, ACCEPT relays, DECISION broadcasts;
    replicated commands for the 2PC baseline) and flush per-destination
    batches: when a batch reaches ``size`` messages, when its first message
    has lingered ``linger`` virtual-time units (``adaptive=False``; the
    linger must then be positive — a size cap alone could leave a partial
    batch stuck forever), or — the adaptive default — at the end of the
    virtual instant that opened it, so messages produced at the same
    instant coalesce at zero virtual latency.  Batch composition is
    deterministic (arrival order, never hash order), and batching is
    invisible to the TCS checker: batches carry the unbatched protocol
    messages verbatim, in order.

    ``size = 0`` (the default; any size below 2) keeps the paper's
    one-message-per-transaction flow.
    """

    size: int = 0
    linger: float = 0.0
    adaptive: bool = True

    def validate(self) -> None:
        if self.size < 0:
            raise ValueError("batch size must be >= 0")
        if self.linger < 0:
            raise ValueError("batch linger must be >= 0")
        if self.adaptive and self.linger:
            raise ValueError(
                "adaptive batching flushes at the end of the current instant; "
                "set adaptive=False to use a linger time cap"
            )
        if self.enabled and not self.adaptive and self.linger <= 0:
            raise ValueError(
                "non-adaptive batching requires a positive linger: a size cap "
                "alone cannot flush a partial batch"
            )

    @property
    def enabled(self) -> bool:
        return self.size >= 2

    def describe(self) -> str:
        """A compact label for sweep tables and result dicts."""
        if not self.enabled:
            return "off"
        if self.adaptive:
            return f"size={self.size},adaptive"
        return f"size={self.size},linger={self.linger:g}"


class MessageBatcher:
    """Accumulates per-destination messages for one process and flushes them
    under a :class:`BatchPolicy`.

    ``wrap(items)`` turns a tuple of accumulated messages into the batch
    message actually sent; ``send(dst, message)`` defaults to the process's
    network send but is pluggable (the RDMA variant writes batches with
    one-sided RDMA, the 2PC baseline mints replicated-state-machine
    commands at flush time).  ``on_flush(dst, items)`` runs just before the
    send — coordinators use it to timestamp per-transaction queueing delay.

    Single-message batches are still wrapped: receivers only ever see the
    batch message type on a batched deployment, which keeps the handler
    matrix small and the batch-size distribution honest.
    """

    def __init__(
        self,
        process: Any,
        policy: BatchPolicy,
        wrap: Callable[[Tuple[Any, ...]], Any],
        send: Optional[Callable[[str, Any], None]] = None,
        on_flush: Optional[Callable[[str, Tuple[Any, ...]], None]] = None,
    ) -> None:
        self.process = process
        self.policy = policy
        self.wrap = wrap
        self._send = send if send is not None else process.send
        self.on_flush = on_flush
        self._pending: Dict[str, List[Any]] = {}
        self._timers: Dict[str, FlushTimer] = {}
        # Instrumentation: batches flushed, messages they carried, and the
        # batch-size distribution (size -> count).
        self.batches_sent = 0
        self.messages_batched = 0
        self.size_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def add(self, dst: str, message: Any) -> None:
        """Queue ``message`` for ``dst``; flushes by policy."""
        queue = self._pending.get(dst)
        if queue is None:
            queue = self._pending[dst] = []
        queue.append(message)
        if len(queue) >= self.policy.size:
            self.flush(dst)
            return
        timer = self._timers.get(dst)
        if timer is None:
            timer = self._timers[dst] = FlushTimer(self.process.scheduler)
        # Idempotent while pending: the deadline of the batch's first
        # message sticks (linger), or the end of the opening instant
        # (adaptive).
        timer.arm(
            0.0 if self.policy.adaptive else self.policy.linger, self.flush, dst
        )

    def add_all(self, dsts: Any, message: Any) -> None:
        for dst in dsts:
            self.add(dst, message)

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush(self, dst: Optional[str] = None) -> None:
        """Flush one destination's batch, or (``dst=None``) every pending
        batch in sorted destination order."""
        if dst is None:
            for each in sorted(self._pending):
                self.flush(each)
            return
        items = self._pending.pop(dst, None)
        timer = self._timers.get(dst)
        if timer is not None:
            timer.cancel()
        if not items:
            return
        batch = tuple(items)
        self.batches_sent += 1
        self.messages_batched += len(batch)
        self.size_counts[len(batch)] = self.size_counts.get(len(batch), 0) + 1
        if self.on_flush is not None:
            self.on_flush(dst, batch)
        self._send(dst, self.wrap(batch))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def pending_messages(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def pending_for(self, dst: str) -> int:
        return len(self._pending.get(dst, ()))
