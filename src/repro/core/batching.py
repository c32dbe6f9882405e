"""Protocol-level request batching.

The paper's certification protocols exchange one ``PREPARE`` / ``ACCEPT`` /
``DECISION`` message per transaction per destination, so under heavy
multi-client load throughput is bounded by message count rather than by
certification work.  The batching layer amortises that fan-out, as a
transport *under* the protocol: every coordinator and client send goes
through a :class:`MessageBatcher` (its outbox for one message kind), which
accumulates the messages for each destination and flushes them as one
:class:`~repro.runtime.process.Batch` envelope.  The receiving
:class:`~repro.runtime.process.Process` unpacks the envelope through the
per-message handlers and answers it with one envelope (shard leaders
certify the items in order against their conflict indexes and the votes
return as one vector), so no protocol handler knows whether it runs batched.

With the policy off the outbox is a passthrough: ``add`` is ``send``,
``add_all`` is ``send_all`` (one multicast — deliveries landing at the same
instant still share a scheduler event), nothing is counted and no envelope
is built.  That is what lets the send sites be the same line on both paths.

The 2PC baseline's command outbox sends its envelopes through a send of
its own: it replicates each as one Paxos *value*, which the shard's state
machine applies item by item (:mod:`repro.baselines.twopc`).

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
  already queued for it has drained: its flush is a zero-delay event, which
  fires behind every event already queued for the instant
  (:mod:`repro.runtime.events`).  Messages produced at the same instant
  coalesce; batching adds *zero* virtual latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.events import Event
from repro.runtime.process import Batch


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
    """One process's outbox for one kind of message: accumulates
    per-destination messages and flushes them under a :class:`BatchPolicy`,
    or hands each straight to the send when the policy is off.

    ``send(dst, message)`` defaults to the process's network send but is
    pluggable (the RDMA variant persists with one-sided writes, the 2PC
    baseline mints replicated-state-machine commands); it receives the
    :class:`~repro.runtime.process.Batch` envelope, or the bare message on
    the passthrough.
    ``on_flush(dst, items)`` runs just before the send on both paths —
    coordinators use it to timestamp per-transaction queueing delay.

    Single-message batches are still wrapped: receivers only ever see the
    envelope on a batched deployment, which keeps the batch-size
    distribution honest.
    """

    def __init__(
        self,
        process: Any,
        policy: BatchPolicy,
        send: Optional[Callable[[str, Any], None]] = None,
        on_flush: Optional[Callable[[str, Tuple[Any, ...]], None]] = None,
    ) -> None:
        self.process = process
        self.policy = policy
        # The default send is looked up on the process at each send, not
        # captured here: an instance-level ``process.send`` (tests record
        # through one) must see passthrough traffic too.
        self._send = send
        self.on_flush = on_flush
        self._passthrough = not policy.enabled
        # A passthrough fan-out is one multicast unless a per-destination
        # send or hook has to see every copy.
        self._multicast = self._passthrough and send is None and on_flush is None
        # Per destination, the messages waiting for its next flush.
        self.queues: Dict[str, List[Any]] = {}
        # Per destination with a batch open, its pending flush event.
        self._deadlines: Dict[str, Event] = {}
        # Instrumentation: batches flushed, messages they carried, and the
        # batch-size distribution (size -> count).  Passthrough sends are
        # not batches and count nowhere.
        self.batches_sent = 0
        self.messages_batched = 0
        self.size_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def add(self, dst: str, message: Any) -> None:
        """Queue ``message`` for ``dst`` and flush by policy; with the
        policy off, send it now."""
        if self._passthrough:
            if self.on_flush is not None:
                self.on_flush(dst, (message,))
            (self._send or self.process.send)(dst, message)
            return
        queue = self.queues.get(dst)
        if queue is None:
            # A batch opens: its first message sets the deadline, the linger
            # or the end of the opening instant (adaptive).  The event stays
            # pending until the batch flushes, so later messages leave it.
            queue = self.queues[dst] = []
            self._deadlines[dst] = self.process.scheduler.schedule(
                0.0 if self.policy.adaptive else self.policy.linger, self.flush, dst
            )
        queue.append(message)
        if len(queue) >= self.policy.size:
            self.flush(dst)

    def add_all(self, dsts: Any, message: Any) -> None:
        if self._multicast:
            self.process.send_all(dsts, message)
        else:
            for dst in dsts:
                self.add(dst, message)

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush(self, dst: Optional[str] = None) -> None:
        """Flush one destination's batch, or (``dst=None``) every pending
        batch in sorted destination order."""
        if dst is None:
            for each in sorted(self.queues):
                self.flush(each)
            return
        items = self.queues.pop(dst, None)
        deadline = self._deadlines.pop(dst, None)
        if deadline is not None:
            # A no-op when the deadline is what fired this flush.
            deadline.cancel()
        if not items:
            return
        batch = tuple(items)
        self.batches_sent += 1
        self.messages_batched += len(batch)
        self.size_counts[len(batch)] = self.size_counts.get(len(batch), 0) + 1
        if self.on_flush is not None:
            self.on_flush(dst, batch)
        (self._send or self.process.send)(dst, Batch(batch))
