"""Reliable FIFO point-to-point network.

The paper's system model (Section 3) assumes that "processes are connected
by reliable FIFO channels: messages are delivered in FIFO order, and
messages between non-faulty processes are guaranteed to be eventually
delivered".  :class:`Network` provides exactly that on top of the
discrete-event scheduler, plus the instrumentation used by the benchmark
harness (per-process and per-type message counters) and controlled fault
injection (crashes, partitions, per-channel blocking).
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Mapping, Optional, Set, Tuple, TYPE_CHECKING

from repro.runtime.events import Scheduler
from repro.runtime.wire import wire_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.process import Process


class LatencyModel:
    """Strategy object deciding the one-way delay of each message."""

    def delay(self, src: str, dst: str, message: Any, rng: random.Random) -> float:
        raise NotImplementedError


class UnitLatency(LatencyModel):
    """Every message takes exactly one time unit.

    With this model, the virtual time elapsed between a request and the
    corresponding response equals the number of message delays on the
    critical path — the unit the paper uses for its latency claims.
    """

    def __init__(self, unit: float = 1.0) -> None:
        self.unit = unit

    def delay(self, src: str, dst: str, message: Any, rng: random.Random) -> float:
        return self.unit


class UniformLatency(LatencyModel):
    """Message delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if low < 0 or high < low:
            raise ValueError("require 0 <= low <= high")
        self.low = low
        self.high = high

    def delay(self, src: str, dst: str, message: Any, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


class LognormalLatency(LatencyModel):
    """Heavy-tailed delays: log-normal with the given *mean* and shape.

    Parameterised by the distribution mean (in message delays) rather than
    the underlying normal's location, so sweeping ``sigma`` at a fixed
    ``mean`` changes only the tail weight, not the average network cost:
    ``mu = ln(mean) - sigma^2 / 2``.
    """

    def __init__(self, mean: float = 1.0, sigma: float = 0.5) -> None:
        if mean <= 0:
            raise ValueError("lognormal mean must be positive")
        if sigma <= 0:
            raise ValueError("lognormal sigma must be positive")
        self.mean = mean
        self.sigma = sigma
        self._mu = math.log(mean) - sigma * sigma / 2.0

    def delay(self, src: str, dst: str, message: Any, rng: random.Random) -> float:
        return rng.lognormvariate(self._mu, self.sigma)


class ExponentialLatency(LatencyModel):
    """Memoryless delays with the given mean (M/M-style network)."""

    def __init__(self, mean: float = 1.0) -> None:
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        self.mean = mean

    def delay(self, src: str, dst: str, message: Any, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


class JitteredLatency(LatencyModel):
    """Wrap a base model with additive uniform jitter in ``[0, jitter]``."""

    def __init__(self, base: LatencyModel, jitter: float) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.base = base
        self.jitter = jitter

    def delay(self, src: str, dst: str, message: Any, rng: random.Random) -> float:
        return self.base.delay(src, dst, message, rng) + rng.uniform(0.0, self.jitter)


class RegionLatency(LatencyModel):
    """WAN topology: cheap intra-region links, per-pair inter-region delays.

    Each process lives in a named region; messages within a region take
    ``intra`` delays, messages between regions take the delay of the
    directed region pair from ``inter``.  Processes not covered by the
    ``placement`` mapping are assigned deterministically from their pid
    (see :meth:`region_of`), so the same topology applies to any cluster
    layout without enumerating every process up front.
    """

    def __init__(
        self,
        regions: Tuple[str, ...],
        intra: float = 1.0,
        inter: Optional[Mapping[Tuple[str, str], float]] = None,
        placement: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not regions:
            raise ValueError("region latency needs at least one region")
        if len(set(regions)) != len(regions):
            raise ValueError("region names must be unique")
        if intra < 0:
            raise ValueError("intra-region delay must be non-negative")
        self.regions = tuple(regions)
        self.intra = intra
        self.inter: Dict[Tuple[str, str], float] = dict(inter or {})
        for (a, b), value in self.inter.items():
            if a not in self.regions or b not in self.regions:
                raise ValueError(f"inter-region link ({a!r}, {b!r}) names an unknown region")
            if value < 0:
                raise ValueError("inter-region delay must be non-negative")
        for a in self.regions:
            for b in self.regions:
                if a != b and (a, b) not in self.inter:
                    raise ValueError(f"missing inter-region delay for {a!r} -> {b!r}")
        for pid, region in (placement or {}).items():
            if region not in self.regions:
                raise ValueError(f"placement of {pid!r} names unknown region {region!r}")
        # Placement cache, pre-seeded with the explicit overrides.
        self._region_of: Dict[str, str] = dict(placement or {})

    def region_of(self, pid: str) -> str:
        """The region hosting ``pid``.

        Defaults, for pids not pinned by ``placement``: a shard replica
        ``shard-i/r2`` is placed by its replica index (``regions[2 % n]``),
        so every shard spans the regions — the geo-replicated deployment the
        WAN scenarios model; numbered singletons such as ``client-0`` are
        spread round-robin; everything else (``config-service``) lives in
        the first region.
        """
        region = self._region_of.get(pid)
        if region is None:
            region = self.regions[self._default_index(pid) % len(self.regions)]
            self._region_of[pid] = region
        return region

    @staticmethod
    def _default_index(pid: str) -> int:
        _, sep, member = pid.partition("/")
        tail = member if sep else pid.rpartition("-")[2]
        digits = "".join(ch for ch in tail if ch.isdigit())
        return int(digits) if digits else 0

    def delay(self, src: str, dst: str, message: Any, rng: random.Random) -> float:
        src_region = self.region_of(src)
        dst_region = self.region_of(dst)
        if src_region == dst_region:
            return self.intra
        return self.inter[(src_region, dst_region)]


@dataclass(frozen=True)
class LinkSpec:
    """Per-link bandwidth and serialization cost (the queueing model).

    With a LinkSpec installed, every message additionally pays a
    *serialization time* of ``overhead + wire_size(message) / bandwidth``
    on its directed channel, and channels become FIFO *queues*: a message
    cannot start serializing before the previous message on the same
    channel has finished.  Delivery time becomes::

        propagation delay  (the latency model, plus per-channel extras)
      + queue wait         (time spent behind earlier messages on the link)
      + serialization time (overhead + bytes / bandwidth)

    ``bandwidth`` is in bytes per delay unit; ``bandwidth == 0`` disables
    the model entirely (messages are never sized, the pre-link behaviour).
    ``overhead`` is a fixed per-message serialization cost in delay units —
    the knob that makes batching pay: a batch serializes its summed bytes
    but only one overhead.
    """

    bandwidth: float = 0.0
    overhead: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.bandwidth > 0


class MessageStats:
    """Message accounting used by the leader-load and cost experiments.

    The send and delivery paths each update one counter keyed by
    ``(process, message class)``; every other view (totals, per process,
    per type name) is derived from those two when it is read, which is
    once per run rather than once per message.  The views are therefore
    read-only snapshots: each read builds a fresh ``Counter`` (or number),
    so mutating a returned ``Counter`` changes nothing here and the totals
    cannot be assigned; only ``dropped`` and ``bytes_sent`` are plain
    attributes.
    """

    def __init__(self) -> None:
        self._sent: Dict[Tuple[str, type], int] = {}
        self._received: Dict[Tuple[str, type], int] = {}
        self.dropped = 0
        # Bytes accounting: populated only when a LinkSpec sizes messages
        # (``size`` is None on the pure-delay path, keeping it cost-free).
        # Sizes are whole numbers of bytes, so the sums are exact whatever
        # the order or grouping of the additions.
        self.bytes_sent = 0.0
        self._bytes: Dict[type, float] = {}

    def record_send(
        self, src: str, message: Any, size: Optional[float] = None, count: int = 1
    ) -> None:
        """Account for ``count`` sends of ``message`` by ``src`` (a
        multicast records all its destinations at once)."""
        key = (src, type(message))
        sent = self._sent
        sent[key] = sent.get(key, 0) + count
        if size is not None:
            size *= count
            self.bytes_sent += size
            self._bytes[key[1]] = self._bytes.get(key[1], 0.0) + size

    def record_delivery(self, dst: str, message: Any) -> None:
        key = (dst, type(message))
        received = self._received
        received[key] = received.get(key, 0) + 1

    @staticmethod
    def _view(counts: Mapping[Any, Any], label) -> Counter:
        view: Counter = Counter()
        for key, count in counts.items():
            view[label(key)] += count
        return view

    @property
    def total_sent(self) -> int:
        return sum(self._sent.values())

    @property
    def total_delivered(self) -> int:
        return sum(self._received.values())

    @property
    def sent_by_process(self) -> Counter:
        return self._view(self._sent, lambda key: key[0])

    @property
    def received_by_process(self) -> Counter:
        return self._view(self._received, lambda key: key[0])

    @property
    def sent_by_type(self) -> Counter:
        return self._view(self._sent, lambda key: key[1].__name__)

    @property
    def sent_by_process_and_type(self) -> Counter:
        return self._view(self._sent, lambda key: (key[0], key[1].__name__))

    @property
    def received_by_process_and_type(self) -> Counter:
        return self._view(self._received, lambda key: (key[0], key[1].__name__))

    @property
    def bytes_by_type(self) -> Counter:
        return self._view(self._bytes, lambda cls: cls.__name__)

    def handled_by(self, pid: str) -> int:
        """Total messages sent plus received by process ``pid``."""
        return sum(
            count
            for counts in (self._sent, self._received)
            for (process, _), count in counts.items()
            if process == pid
        )


class Network:
    """Simulated network of reliable FIFO channels.

    Channels between live, non-partitioned processes deliver every message
    exactly once, in FIFO order per (source, destination) pair.  Messages to
    crashed or partitioned destinations are silently dropped, which models
    the asynchronous crash-stop setting: senders cannot distinguish a slow
    process from a failed one.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        link: Optional[LinkSpec] = None,
    ) -> None:
        self.scheduler = scheduler
        self.latency = latency or UnitLatency()
        self.rng = random.Random(seed)
        self.processes: Dict[str, "Process"] = {}
        self.stats = MessageStats()
        self.link = link
        self._link_enabled = link is not None and link.enabled
        # Link-queue accounting (populated only with an enabled LinkSpec):
        # queue waits in send order, total serialization time, and the
        # high-water per-channel queue depth.  Depth is derived from
        # *virtual* times (deliver_at values still in the future at send
        # time), never from event-execution order.
        self.queue_wait_samples: list[float] = []
        self._link_serializations: list[float] = []
        self.link_max_depth: int = 0
        self._link_pending: Dict[Tuple[str, str], Deque[float]] = {}
        self._channel_clock: Dict[Tuple[str, str], float] = {}
        self._blocked: Set[Tuple[str, str]] = set()
        self._extra_delay: Dict[Tuple[str, str], float] = {}

    @property
    def link_busy_time(self) -> float:
        """Total serialization time charged on the link (``math.fsum``:
        correctly rounded, whatever the order of the summands)."""
        return math.fsum(self._link_serializations)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, process: "Process") -> None:
        """Attach a process to the network (and to the scheduler)."""
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process
        process.attach(self)

    def process(self, pid: str) -> "Process":
        return self.processes[pid]

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self, pid: str) -> None:
        """Crash-stop the process: it stops sending and receiving forever."""
        self.processes[pid].crashed = True

    def block(self, src: str, dst: str) -> None:
        """Drop all future messages on the directed channel ``src -> dst``."""
        self._blocked.add((src, dst))

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Block every channel between the two groups, in both directions."""
        group_a, group_b = list(group_a), list(group_b)
        for a in group_a:
            for b in group_b:
                self.block(a, b)
                self.block(b, a)

    def heal(self) -> None:
        """Remove all channel blocks."""
        self._blocked.clear()

    def add_extra_delay(self, src: str, dst: str, delay: float) -> None:
        """Add a fixed extra delay to the directed channel ``src -> dst``.

        Unlike :meth:`block`, messages are still delivered (eventually), so
        this models an asynchronous network being slow on one link — the tool
        the adversarial schedules (e.g. the Figure 4a counter-example) use.
        """
        if delay < 0:
            raise ValueError("extra delay must be non-negative")
        self._extra_delay[(src, dst)] = delay

    def clear_extra_delays(self) -> None:
        self._extra_delay.clear()

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------
    def _delivery_time(
        self, now: float, src: str, dst: str, message: Any, size: Optional[float]
    ) -> Optional[float]:
        """The delivery time of one message sent at ``now``, advancing the
        channel's FIFO clock.

        Returns None when the message is dropped (unknown destination or
        blocked channel); the caller accounts for the send and schedules
        the delivery event(s).  ``size`` is None on the pure-delay path.
        """
        channel = (src, dst)
        if dst not in self.processes or (self._blocked and channel in self._blocked):
            self.stats.dropped += 1
            return None
        delay = self.latency.delay(src, dst, message, self.rng)
        if self._extra_delay:
            delay += self._extra_delay.get(channel, 0.0)
        arrival = now + delay
        # FIFO: never deliver earlier than the previous message on the same
        # channel.  Ties in delivery time are broken by scheduling order,
        # which is send order, so FIFO is preserved.
        last = self._channel_clock.get(channel, 0.0)
        start = arrival if arrival > last else last
        if size is None:
            deliver_at = start
        else:
            deliver_at = self._serialize(channel, now, arrival, start, size)
        self._channel_clock[channel] = deliver_at
        return deliver_at

    def _serialize(
        self, channel: Tuple[str, str], now: float, arrival: float, start: float, size: float
    ) -> float:
        """Queueing model: serialization starts once the message has
        propagated *and* the channel has finished the previous message
        (``start``); the channel is then busy for overhead + bytes/bw."""
        link = self.link
        serialization = link.overhead + size / link.bandwidth
        deliver_at = start + serialization
        self.queue_wait_samples.append(start - arrival)
        self._link_serializations.append(serialization)
        # Queue depth at this send: in-flight messages on the channel
        # (deliver_at still in the future) plus this one.  Channel
        # clocks are monotone, so the deque stays sorted and pruning
        # from the left is exact.
        pending = self._link_pending.get(channel)
        if pending is None:
            pending = self._link_pending[channel] = deque()
        while pending and pending[0] <= now:
            pending.popleft()
        pending.append(deliver_at)
        if len(pending) > self.link_max_depth:
            self.link_max_depth = len(pending)
        return deliver_at

    def _is_crashed_source(self, src: str) -> bool:
        sender = self.processes.get(src)
        return sender is not None and sender.crashed

    def send(self, src: str, dst: str, message: Any, weak: bool = False) -> None:
        """Send ``message`` from ``src`` to ``dst`` over the FIFO channel.

        ``weak`` marks background traffic (heartbeats): the delivery fires
        normally while strong work is pending but does not keep the
        simulation alive on its own — without it, a link slower than the
        heartbeat interval would leave one delivery permanently in flight
        and run-to-quiescence would never terminate.
        """
        if self._is_crashed_source(src):
            return
        # Messages are only sized under an enabled LinkSpec: the pure-delay
        # path never consults wire_size, so foreign message types (tests,
        # ad-hoc probes) stay legal there and the default schedule is
        # byte-for-byte what it was before the bandwidth model existed.
        size = wire_size(message) if self._link_enabled else None
        self.stats.record_send(src, message, size)
        scheduler = self.scheduler
        deliver_at = self._delivery_time(scheduler.now, src, dst, message, size)
        if deliver_at is None:
            return
        if weak:
            scheduler.schedule_weak_at(deliver_at, self._deliver, src, dst, message)
        else:
            scheduler.schedule_at(deliver_at, self._deliver, src, dst, message)

    def send_many(self, src: str, dsts: Iterable[str], message: Any, weak: bool = False) -> None:
        """Multicast ``message`` to every destination, batching deliveries.

        Destinations whose messages arrive at the same virtual time share a
        single scheduler event instead of one heap entry each, which cuts
        heap churn substantially for fan-out-heavy protocols (with the
        deterministic unit-latency model, almost every fan-out batches).
        The message is sized once, not once per destination.

        The observable delivery order is identical to calling :meth:`send`
        in a loop: within one ``send_many`` call no other event can be
        scheduled between the individual sends, so deliveries sharing a
        timestamp would have fired back-to-back in send order anyway.
        """
        if self._is_crashed_source(src):
            return
        size = wire_size(message) if self._link_enabled else None
        scheduler = self.scheduler
        now = scheduler.now
        schedule = scheduler.schedule_weak_at if weak else scheduler.schedule_at
        # Keyed by delivery time; each event carries its (mutable)
        # destination list, so destinations found later in this call still
        # join the event scheduled for their time.
        batches: Dict[float, list] = {}
        count = 0
        for dst in dsts:
            count += 1
            deliver_at = self._delivery_time(now, src, dst, message, size)
            if deliver_at is None:
                continue
            batch = batches.get(deliver_at)
            if batch is None:
                batch = batches[deliver_at] = []
                schedule(deliver_at, self._deliver_batch, src, batch, message)
            batch.append(dst)
        if count:
            self.stats.record_send(src, message, size, count)

    def _deliver_batch(self, src: str, dsts: list, message: Any) -> None:
        for dst in dsts:
            self._deliver(src, dst, message)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        process = self.processes.get(dst)
        if (
            process is None
            or process.crashed
            or (self._blocked and (src, dst) in self._blocked)
        ):
            self.stats.dropped += 1
            return
        self.stats.record_delivery(dst, message)
        process.deliver(message, src)
