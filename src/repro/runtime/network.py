"""Reliable FIFO point-to-point network.

The paper's system model (Section 3) assumes that "processes are connected
by reliable FIFO channels: messages are delivered in FIFO order, and
messages between non-faulty processes are guaranteed to be eventually
delivered".  :class:`Network` provides exactly that on top of the
discrete-event scheduler, plus the instrumentation used by the benchmark
harness (per-process and per-type message counters) and controlled fault
injection (crashes, partitions, per-channel blocking).

The network is configured by two frozen values, which are also what a
:class:`~repro.scenarios.spec.ScenarioSpec` declares: :class:`LatencySpec`
is the delay model (each message's propagation delay) and
:class:`NetworkSpec` the link model (bandwidth and per-message overhead,
plus the two commit-path toggles the cluster reads).  Each raises a plain
``ValueError`` from ``validate()``.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, Iterable, Mapping, Optional, Set, Tuple, TYPE_CHECKING,
)

from repro.runtime.events import Scheduler
from repro.runtime.wire import wire_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.process import Process


LATENCY_MODELS = (
    "unit",  # every message takes exactly one delay (the paper's unit)
    "fixed",  # every message takes exactly `value` delays
    "uniform",  # delays drawn uniformly from [low, high]
    "lognormal",  # heavy-tailed delays with the given mean and sigma
    "exponential",  # memoryless delays with the given mean
    "regions",  # WAN topology: named regions, intra/inter-region delays
)


@dataclass(frozen=True)
class LatencySpec:
    """Which delay distribution the network applies, per link class.

    The default (``model="unit"``) is the paper's unit: every message takes
    exactly one delay, so virtual time counts message delays on the critical
    path.  The other scalar models stress the protocol under jitter
    (``uniform``), heavy tails (``lognormal``, parameterised by its *mean*:
    ``mu = ln(mean) - sigma^2 / 2``, so ``sigma`` moves only the tail) and
    memoryless queueing (``exponential``); all draws come from the
    network's seeded RNG, so runs stay deterministic.  ``jitter`` adds
    uniform noise in ``[0, jitter]``, drawn after the model's own draw, on
    top of any model but ``unit``.

    ``model="regions"`` is the WAN form: processes are placed in named
    ``regions`` (see :meth:`region_of`; explicit ``placement`` pairs
    override), links within a region take ``intra`` delays and links
    between regions take the per-pair delays from ``links``
    (``(src-region, dst-region, delay)`` triples; a pair listed in one
    direction only is symmetric).
    """

    model: str = "unit"
    value: float = 1.0  # fixed: the constant delay
    low: float = 0.5  # uniform: lower bound
    high: float = 1.5  # uniform: upper bound
    mean: float = 1.0  # lognormal / exponential: distribution mean
    sigma: float = 0.5  # lognormal: shape (tail weight)
    jitter: float = 0.0  # additive uniform noise in [0, jitter]
    regions: Tuple[str, ...] = ()  # regions: region names
    intra: float = 1.0  # regions: intra-region delay
    links: Tuple[Tuple[str, str, float], ...] = ()  # regions: (src, dst, delay)
    placement: Tuple[Tuple[str, str], ...] = ()  # regions: (pid, region) pins

    def validate(self) -> None:
        if self.model not in LATENCY_MODELS:
            raise ValueError(
                f"unknown latency model {self.model!r}; expected one of {LATENCY_MODELS}"
            )
        if self.jitter < 0:
            raise ValueError("latency jitter must be non-negative")
        if self.model == "unit" and self.jitter:
            raise ValueError(
                "the unit model is the paper's exact-delay unit; "
                "use model='fixed' with jitter instead"
            )
        if self.model == "fixed" and self.value <= 0:
            raise ValueError("fixed latency requires a positive value")
        if self.model == "uniform":
            if self.low < 0:
                raise ValueError("uniform latency bounds must be non-negative")
            if self.high < self.low:
                raise ValueError("uniform latency requires low <= high")
        if self.model in ("lognormal", "exponential") and self.mean <= 0:
            raise ValueError(f"{self.model} latency requires a positive mean")
        if self.model == "lognormal" and self.sigma <= 0:
            raise ValueError("lognormal latency requires a positive sigma")
        if self.model == "regions":
            self._validate_regions()

    def _validate_regions(self) -> None:
        if len(self.regions) < 2:
            raise ValueError("region latency needs at least two regions")
        if len(set(self.regions)) != len(self.regions):
            raise ValueError("region names must be unique")
        if self.intra < 0:
            raise ValueError("intra-region delay must be non-negative")
        covered = set()
        for src, dst, delay in self.links:
            if src not in self.regions or dst not in self.regions:
                raise ValueError(f"link ({src!r}, {dst!r}) names an unknown region")
            if src == dst:
                raise ValueError(
                    f"link ({src!r}, {dst!r}): intra-region delay is set by 'intra'"
                )
            if delay < 0:
                raise ValueError("inter-region delays must be non-negative")
            if (src, dst) in covered:
                raise ValueError(
                    f"duplicate link ({src!r}, {dst!r}): each direction may "
                    "be given at most once"
                )
            covered.add((src, dst))
        for src in self.regions:
            for dst in self.regions:
                if src != dst and (src, dst) not in covered and (dst, src) not in covered:
                    raise ValueError(f"missing inter-region delay for {src!r} <-> {dst!r}")
        for pid, region in self.placement:
            if region not in self.regions:
                raise ValueError(f"placement of {pid!r} names unknown region {region!r}")

    def describe(self) -> str:
        """A compact label for sweep tables and result dicts."""
        if self.model == "unit":
            return "unit"
        if self.model == "fixed":
            params = f"value={self.value:g}"
        elif self.model == "uniform":
            params = f"low={self.low:g},high={self.high:g}"
        elif self.model == "lognormal":
            params = f"mean={self.mean:g},sigma={self.sigma:g}"
        elif self.model == "exponential":
            params = f"mean={self.mean:g}"
        else:
            links = "/".join(f"{src}-{dst}:{delay:g}" for src, dst, delay in self.links)
            params = f"regions={'/'.join(self.regions)},intra={self.intra:g},links={links}"
            if self.placement:
                pins = "/".join(f"{pid}@{region}" for pid, region in self.placement)
                params += f",pins={pins}"
        if self.jitter:
            params += f",jitter={self.jitter:g}"
        return f"{self.model}({params})"

    def region_of(self, pid: str) -> str:
        """The region hosting ``pid`` under ``model="regions"``.

        Defaults, for pids not pinned by ``placement``: a shard replica
        ``shard-i/r2`` is placed by its replica index (``regions[2 % n]``),
        so every shard spans the regions — the geo-replicated deployment the
        WAN scenarios model; numbered singletons such as ``client-0`` are
        spread round-robin; everything else (``config-service``) lives in
        the first region.
        """
        pinned = dict(self.placement).get(pid)
        if pinned is not None:
            return pinned
        _, sep, member = pid.partition("/")
        tail = member if sep else pid.rpartition("-")[2]
        digits = "".join(ch for ch in tail if ch.isdigit())
        return self.regions[(int(digits) if digits else 0) % len(self.regions)]

    def delay_function(self, rng: random.Random) -> Callable[[str, str], float]:
        """The validated per-message delay ``(src, dst) -> delay``, drawing
        from ``rng``; :class:`Network` binds it once and calls it per send."""
        self.validate()
        model = self.model
        base: Callable[[str, str], float]
        if model in ("unit", "fixed"):
            value = 1.0 if model == "unit" else self.value
            base = lambda src, dst: value
        elif model == "uniform":
            low, high = self.low, self.high
            base = lambda src, dst: rng.uniform(low, high)
        elif model == "lognormal":
            mu, sigma = math.log(self.mean) - self.sigma * self.sigma / 2.0, self.sigma
            base = lambda src, dst: rng.lognormvariate(mu, sigma)
        elif model == "exponential":
            rate = 1.0 / self.mean
            base = lambda src, dst: rng.expovariate(rate)
        else:
            base = self._region_delay()
        jitter = self.jitter
        if not jitter:
            return base
        return lambda src, dst: base(src, dst) + rng.uniform(0.0, jitter)

    def _region_delay(self) -> Callable[[str, str], float]:
        inter: Dict[Tuple[str, str], float] = {}
        for src, dst, delay in self.links:
            inter[(src, dst)] = delay
            inter.setdefault((dst, src), delay)
        intra = self.intra
        placed: Dict[str, str] = {}  # pid -> region, filled on first use

        def delay(src: str, dst: str) -> float:
            src_region = placed.get(src)
            if src_region is None:
                src_region = placed[src] = self.region_of(src)
            dst_region = placed.get(dst)
            if dst_region is None:
                dst_region = placed[dst] = self.region_of(dst)
            if src_region == dst_region:
                return intra
            return inter[(src_region, dst_region)]

        return delay


@dataclass(frozen=True)
class NetworkSpec:
    """The link model plus the two commit-path toggles it makes measurable.

    With ``bandwidth > 0`` every message additionally pays a *serialization
    time* of ``overhead + wire_size(message) / bandwidth`` on its directed
    channel, and channels become FIFO *queues*: a message cannot start
    serializing before the previous message on the same channel has
    finished.  Delivery time becomes::

        propagation delay  (the latency model, plus per-channel extras)
      + queue wait         (time spent behind earlier messages on the link)
      + serialization time (overhead + bytes / bandwidth)

    ``bandwidth`` is in bytes per delay unit; ``bandwidth == 0`` (the
    default) disables the model entirely (messages are never sized, the
    pure-delay network).  ``overhead`` is a fixed per-message serialization
    cost in delay units — the knob that makes batching pay: a batch
    serializes its summed bytes but only one overhead.

    ``pipeline`` controls leader-side vote pipelining: coordinators overlap
    PREPARE certification of new transactions with ACCEPT persistence of
    earlier ones (the default, and the paper's behaviour).  Setting it to
    False serializes the commit path stop-and-wait style — the measurement
    baseline the pipelining speedup is quoted against; it models a
    failure-free run.

    ``sticky`` pins each client (and each distinct shard set) to one
    coordinator instead of rotating round-robin, deepening per-coordinator
    batches at the cost of load spread.
    """

    bandwidth: float = 0.0  # bytes per delay unit; 0 disables the model
    overhead: float = 0.0  # fixed per-message serialization cost (delays)
    pipeline: bool = True  # overlap PREPARE of N+1 with ACCEPT of N
    sticky: bool = False  # sticky client -> coordinator affinity

    def validate(self) -> None:
        if self.bandwidth < 0:
            raise ValueError("network bandwidth must be >= 0 (0 = unlimited)")
        if self.overhead < 0:
            raise ValueError("network overhead must be >= 0")
        if self.overhead and not self.enabled:
            raise ValueError(
                "network overhead is a serialization cost; it requires a "
                "positive bandwidth"
            )

    @property
    def enabled(self) -> bool:
        return self.bandwidth > 0

    def describe(self) -> str:
        if not self.enabled and self.pipeline and not self.sticky:
            return "off"
        parts = []
        if self.enabled:
            parts.append(f"bw={self.bandwidth:g}")
            if self.overhead:
                parts.append(f"ovh={self.overhead:g}")
        if not self.pipeline:
            parts.append("nopipe")
        if self.sticky:
            parts.append("sticky")
        return ",".join(parts)


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
        # Bytes accounting: populated only when the link model sizes messages
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
        latency: Optional[LatencySpec] = None,
        seed: int = 0,
        link: Optional[NetworkSpec] = None,
    ) -> None:
        self.scheduler = scheduler
        self.latency = latency or LatencySpec()
        self.link = link or NetworkSpec()
        self.link.validate()
        self.rng = random.Random(seed)
        # Bound once: the per-message path is one call, (src, dst) -> delay.
        self._delay = self.latency.delay_function(self.rng)
        self._link_enabled = self.link.enabled
        self.processes: Dict[str, "Process"] = {}
        self.stats = MessageStats()
        # Link-queue accounting (populated only with an enabled link model):
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
        self, now: float, src: str, dst: str, size: Optional[float]
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
        delay = self._delay(src, dst)
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
        # Messages are only sized under an enabled link model: the pure-delay
        # path never consults wire_size, so foreign message types (tests,
        # ad-hoc probes) stay legal there and the default schedule is
        # byte-for-byte what it was before the bandwidth model existed.
        size = wire_size(message) if self._link_enabled else None
        self.stats.record_send(src, message, size)
        scheduler = self.scheduler
        deliver_at = self._delivery_time(scheduler.now, src, dst, size)
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
            deliver_at = self._delivery_time(now, src, dst, size)
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
