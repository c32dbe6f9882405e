"""Reliable FIFO point-to-point network.

The paper's system model (Section 3) assumes that "processes are connected
by reliable FIFO channels: messages are delivered in FIFO order, and
messages between non-faulty processes are guaranteed to be eventually
delivered".  :class:`Network` provides exactly that on top of the
discrete-event scheduler, with one :class:`Link` object per directed
channel, made on the first send or fault on its pair.  A link holds all
the channel's state: its destination, its FIFO clock, its faults (a block,
an extra delay), its link queue and its message counts per class, so a
send is one ``links[src, dst]`` lookup plus attribute work on the link,
and a delivery event is a call of the link.  :class:`MessageStats` sums
the links' counts into the per-process and per-type views the benchmark
harness reads; crashes, partitions and blocked or slowed channels are the
controlled fault injection.

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
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Tuple, TYPE_CHECKING,
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


@dataclass(slots=True, eq=False)
class Link:
    """One directed channel ``src -> dst``, made on the first send or fault
    on the pair and kept for the rest of the run.

    ``process`` is the destination (None until it registers: messages sent
    before then are dropped).  ``clock`` is the delivery time of the last
    message put on the channel, which no later message may precede (FIFO).
    ``blocked`` drops every message and ``extra`` delays every message by a
    fixed amount.  ``pending`` holds the delivery times still in flight, kept
    only under an enabled link model, which queues messages.  ``sent`` and
    ``delivered`` count messages per class; ``dropped`` counts the ones lost.
    """

    src: str
    process: Optional["Process"]
    pending: Optional[Deque[float]]
    clock: float = 0.0
    blocked: bool = False
    extra: float = 0.0
    dropped: int = 0
    sent: Dict[type, int] = field(default_factory=dict)
    delivered: Dict[type, int] = field(default_factory=dict)

    def deliver(self, message: Any) -> None:
        """The delivery event: hand ``message`` to the destination, unless it
        crashed or the channel was blocked while the message was in flight."""
        process = self.process
        if process.crashed or self.blocked:
            self.dropped += 1
            return
        kind = type(message)
        self.delivered[kind] = self.delivered.get(kind, 0) + 1
        process.deliver(message, self.src)


def _deliver_batch(links: List[Link], message: Any) -> None:
    """The delivery event a multicast's destinations share."""
    for link in links:
        link.deliver(message)


class _Links(dict):
    """``(src, dst) -> Link``; looking up a pair for the first time makes
    its link, so a hit costs a plain dict lookup."""

    def __init__(self, processes: Mapping[str, "Process"], queued: bool) -> None:
        super().__init__()
        self.processes = processes
        self.queued = queued

    def __missing__(self, key: Tuple[str, str]) -> Link:
        src, dst = key
        pending = deque() if self.queued else None
        link = self[key] = Link(src, self.processes.get(dst), pending)
        return link


class MessageStats:
    """Message accounting used by the leader-load and cost experiments.

    A read-only view over the network's links: each link counts, per
    message class, what it carried and what it delivered, and every view
    here (totals, per process, per type name) sums those counts when it is
    read, which is once per run rather than once per message.  Each read
    builds a fresh ``Counter`` (or number), so mutating a returned
    ``Counter`` changes nothing here.  Only the byte sums are kept here,
    as plain attributes.  The ``*_by_process_and_type`` views stay because
    ``benchmarks/test_bench_leader_load.py`` reads them.
    """

    def __init__(self, links: Mapping[Tuple[str, str], Link]) -> None:
        self._links = links
        # Bytes accounting: populated only when the link model sizes messages
        # (the pure-delay path never sizes one, keeping it cost-free).  Sizes
        # are whole numbers of bytes, so the sums are exact whatever the
        # order or grouping of the additions.
        self.bytes_sent = 0.0
        self._bytes: Dict[str, float] = {}  # message class name -> bytes

    def _view(self, counts: str, label: Callable[[str, str, type], Any]) -> Counter:
        view: Counter = Counter()
        for (src, dst), link in self._links.items():
            for kind, count in getattr(link, counts).items():
                view[label(src, dst, kind)] += count
        return view

    @property
    def dropped(self) -> int:
        return sum(link.dropped for link in self._links.values())

    @property
    def total_sent(self) -> int:
        return sum(self.sent_by_process.values())

    @property
    def total_delivered(self) -> int:
        return sum(self.received_by_process.values())

    @property
    def sent_by_process(self) -> Counter:
        return self._view("sent", lambda src, dst, kind: src)

    @property
    def received_by_process(self) -> Counter:
        return self._view("delivered", lambda src, dst, kind: dst)

    @property
    def sent_by_type(self) -> Counter:
        return self._view("sent", lambda src, dst, kind: kind.__name__)

    @property
    def sent_by_process_and_type(self) -> Counter:
        return self._view("sent", lambda src, dst, kind: (src, kind.__name__))

    @property
    def received_by_process_and_type(self) -> Counter:
        return self._view("delivered", lambda src, dst, kind: (dst, kind.__name__))

    @property
    def bytes_by_type(self) -> Counter:
        return Counter(self._bytes)

    def handled_by(self, pid: str) -> int:
        """Total messages sent plus received by process ``pid``."""
        return self.sent_by_process[pid] + self.received_by_process[pid]


class Network:
    """Simulated network of reliable FIFO channels, one :class:`Link` per
    directed ``(source, destination)`` pair.

    Channels between live, non-partitioned processes deliver every message
    exactly once, in FIFO order per (source, destination) pair.  Messages to
    crashed or partitioned destinations are silently dropped, which models
    the asynchronous crash-stop setting: senders cannot distinguish a slow
    process from a failed one.  A crashed process sends nothing: the check
    is :meth:`Process.send`'s, made before the network sees the message.
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
        self.links: Dict[Tuple[str, str], Link] = _Links(self.processes, self._link_enabled)
        self.stats = MessageStats(self.links)
        # Link-queue accounting (populated only with an enabled link model):
        # queue waits in send order, total serialization time, and the
        # high-water per-channel queue depth.  Depth is derived from
        # *virtual* times (deliver_at values still in the future at send
        # time), never from event-execution order.
        self.queue_wait_samples: list[float] = []
        self._link_serializations: list[float] = []
        self.link_max_depth: int = 0

    @property
    def link_busy_time(self) -> float:
        """Total serialization time charged on the link (``math.fsum``:
        correctly rounded, whatever the order of the summands)."""
        return math.fsum(self._link_serializations)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, process: "Process") -> None:
        """Attach a process to the network (and to the scheduler), and bind
        it into the links already made to it."""
        pid = process.pid
        if pid in self.processes:
            raise ValueError(f"duplicate process id {pid!r}")
        self.processes[pid] = process
        for (_, dst), link in self.links.items():
            if dst == pid:
                link.process = process
        process.attach(self)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self, pid: str) -> None:
        """Crash-stop the process: it stops sending and receiving forever."""
        self.processes[pid].crashed = True

    def block(self, src: str, dst: str) -> None:
        """Drop all future messages on the directed channel ``src -> dst``."""
        self.links[src, dst].blocked = True

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Block every channel between the two groups, in both directions."""
        links, group_b = self.links, list(group_b)
        for a in group_a:
            for b in group_b:
                links[a, b].blocked = links[b, a].blocked = True

    def heal(self) -> None:
        """Restore every channel: lift all blocks and extra delays."""
        for link in self.links.values():
            link.blocked = False
            link.extra = 0.0

    def add_extra_delay(self, src: str, dst: str, delay: float) -> None:
        """Add a fixed extra delay to the directed channel ``src -> dst``.

        Unlike :meth:`block`, messages are still delivered (eventually), so
        this models an asynchronous network being slow on one link — the tool
        the adversarial schedules (e.g. the Figure 4a counter-example) use.
        """
        if delay < 0:
            raise ValueError("extra delay must be non-negative")
        self.links[src, dst].extra = delay

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------
    def _transmit(
        self, link: Link, now: float, src: str, dst: str, message: Any, size: Optional[float]
    ) -> Optional[float]:
        """Count one send of ``message`` on ``link`` at ``now`` and return its
        delivery time, advancing the link's FIFO clock.

        Returns None when the message is dropped (unknown destination or
        blocked channel); the caller schedules the delivery event(s).
        ``size`` is None on the pure-delay path.
        """
        kind = type(message)
        link.sent[kind] = link.sent.get(kind, 0) + 1
        if size is not None:
            stats = self.stats
            stats.bytes_sent += size
            stats._bytes[kind.__name__] = stats._bytes.get(kind.__name__, 0.0) + size
        if link.process is None or link.blocked:
            link.dropped += 1
            return None
        arrival = now + (self._delay(src, dst) + link.extra)
        # FIFO: never deliver earlier than the previous message on the same
        # channel.  Ties in delivery time are broken by scheduling order,
        # which is send order, so FIFO is preserved.
        last = link.clock
        deliver_at = arrival if arrival > last else last
        if size is not None:
            deliver_at = self._serialize(link, now, arrival, deliver_at, size)
        link.clock = deliver_at
        return deliver_at

    def _serialize(
        self, link: Link, now: float, arrival: float, start: float, size: float
    ) -> float:
        """Queueing model: serialization starts once the message has
        propagated *and* the channel has finished the previous message
        (``start``); the channel is then busy for overhead + bytes/bw."""
        model = self.link
        serialization = model.overhead + size / model.bandwidth
        deliver_at = start + serialization
        self.queue_wait_samples.append(start - arrival)
        self._link_serializations.append(serialization)
        # Queue depth at this send: in-flight messages on the channel
        # (deliver_at still in the future) plus this one.  Channel
        # clocks are monotone, so the deque stays sorted and pruning
        # from the left is exact.
        pending = link.pending
        while pending and pending[0] <= now:
            pending.popleft()
        pending.append(deliver_at)
        if len(pending) > self.link_max_depth:
            self.link_max_depth = len(pending)
        return deliver_at

    def send(self, src: str, dst: str, message: Any, weak: bool = False) -> None:
        """Send ``message`` from ``src`` to ``dst`` over the FIFO channel.

        ``weak`` marks background traffic (heartbeats): the delivery fires
        normally while strong work is pending but does not keep the
        simulation alive on its own — without it, a link slower than the
        heartbeat interval would leave one delivery permanently in flight
        and run-to-quiescence would never terminate.
        """
        # Messages are only sized under an enabled link model: the pure-delay
        # path never consults wire_size, so foreign message types (tests,
        # ad-hoc probes) stay legal there and the default schedule is
        # byte-for-byte what it was before the bandwidth model existed.
        size = wire_size(message) if self._link_enabled else None
        scheduler = self.scheduler
        link = self.links[src, dst]
        deliver_at = self._transmit(link, scheduler.now, src, dst, message, size)
        if deliver_at is not None:
            schedule = scheduler.schedule_weak_at if weak else scheduler.schedule_at
            schedule(deliver_at, link.deliver, message)

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
        size = wire_size(message) if self._link_enabled else None
        scheduler = self.scheduler
        now = scheduler.now
        schedule = scheduler.schedule_weak_at if weak else scheduler.schedule_at
        links = self.links
        # Keyed by delivery time; each event carries its (mutable) list of
        # links, so destinations found later in this call still join the
        # event scheduled for their time.
        batches: Dict[float, List[Link]] = {}
        for dst in dsts:
            link = links[src, dst]
            deliver_at = self._transmit(link, now, src, dst, message, size)
            if deliver_at is None:
                continue
            batch = batches.get(deliver_at)
            if batch is None:
                batch = batches[deliver_at] = []
                schedule(deliver_at, _deliver_batch, batch, message)
            batch.append(link)
