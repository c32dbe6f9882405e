"""Declarative scenario descriptions.

A :class:`ScenarioSpec` fully determines one simulated experiment: which
protocol to deploy, how large the cluster is, which workload the clients
generate, and which faults strike at which virtual times.  Specs are plain
frozen dataclasses, so a scenario is a value — it can be registered in the
library, tweaked with :meth:`ScenarioSpec.with_overrides`, swept across
protocols, or constructed ad hoc by a benchmark.

Four of the five optional subsystems are described by the very policy value
the cluster receives: ``retry`` is a :class:`repro.client.RetryPolicy`,
``batch`` a :class:`repro.core.batching.BatchPolicy`, ``read`` a
:class:`repro.core.reads.ReadPolicy` and ``detector`` a
:class:`repro.core.failuredetector.DetectorPolicy`.  ``RetrySpec``,
``BatchSpec``, ``ReadSpec`` and ``DetectorSpec`` are those classes under
their spec-side names — one class, one ``validate()``, one ``describe()``.
A policy raises plain ``ValueError``; :meth:`ScenarioSpec.validate` is
where that becomes a :class:`ScenarioError`.  ``NetworkSpec`` and
``LatencySpec`` are specs proper: the first bundles the link model with the
two commit-path toggles, the second compiles to a latency model.

Fault targets are *roles* resolved against the live cluster when the step
executes (or at build time for setup steps), not hard-coded process ids:

* ``"leader:shard-1"`` — current leader of ``shard-1``;
* ``"follower:shard-1"`` / ``"follower:shard-1:2"`` — a current follower
  (by index, default 0);
* ``"member:shard-2:0"`` — a configuration member by index;
* ``"config-service"`` — the configuration service process;
* anything else — a literal process id.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

# The spec-side names of the four policy classes (see the module docstring).
from repro.client import RetryPolicy as RetrySpec
from repro.core.batching import BatchPolicy as BatchSpec
from repro.core.failuredetector import DetectorPolicy as DetectorSpec
from repro.core.reads import ReadPolicy as ReadSpec


class ScenarioError(ValueError):
    """An invalid scenario description."""


# Role kinds resolved against a shard's current configuration ("kind:shard").
SHARD_ROLES = ("leader", "follower", "member")

FAULT_ACTIONS = (
    "crash",  # crash the resolved target
    "crash-leader",  # crash the current leader of `shard`
    "crash-follower",  # crash a live follower of `shard`
    "reconfigure",  # initiate reconfiguration of `shard` (global for RDMA)
    "retry-stalled",  # leaders re-drive their prepared-but-undecided slots
    "delay-channel",  # add `delay` extra latency on the channel src -> dst
    "block-channel",  # drop all future messages on the channel src -> dst
    "partition",  # cut the resolved target off from every other process
    "heal",  # remove all partitions/blocks and extra channel delays
)

CHECK_MODES = (
    "off",  # no history validation (contradiction detection stays on)
    "final",  # batch TCSChecker over the full history at quiescence
    "online",  # IncrementalTCSChecker subscribed to the history during the run
)

LATENCY_MODELS = (
    "unit",  # every message takes exactly one delay (the paper's unit)
    "fixed",  # every message takes exactly `value` delays
    "uniform",  # delays drawn uniformly from [low, high]
    "lognormal",  # heavy-tailed delays with the given mean and sigma
    "exponential",  # memoryless delays with the given mean
    "regions",  # WAN topology: named regions, intra/inter-region delays
)

WORKLOAD_KINDS = (
    "uniform",  # read/write transactions over uniformly random keys
    "zipfian",  # read/write transactions over Zipf-skewed keys
    "bank",  # balance transfers (money-conservation workload)
    "spanning",  # explicit multi-shard payloads, optionally pinned coordinator
)


@dataclass(frozen=True)
class FaultStep:
    """One fault-injection action at virtual time ``at``.

    Steps with ``at <= 0`` are *setup* steps: they are applied while the
    cluster is being built, before any transaction is submitted (the place
    for ``delay-channel`` steps shaping an adversarial schedule).  Steps
    with ``at > 0`` are scheduled on the simulation clock and fire between
    events like any other activity in the system.
    """

    at: float
    action: str
    shard: Optional[str] = None
    target: Optional[str] = None
    src: Optional[str] = None
    dst: Optional[str] = None
    delay: float = 0.0
    suspects: Tuple[str, ...] = ()

    def validate(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ScenarioError(
                f"unknown fault action {self.action!r}; expected one of {FAULT_ACTIONS}"
            )
        if self.action in ("crash-leader", "crash-follower", "reconfigure") and not self.shard:
            raise ScenarioError(f"fault action {self.action!r} requires a shard")
        if self.action in ("crash", "partition") and not self.target:
            raise ScenarioError(f"fault action {self.action!r} requires a target")
        if self.action == "block-channel" and (not self.src or not self.dst):
            raise ScenarioError("fault action 'block-channel' requires src and dst")
        if self.action == "delay-channel":
            if not self.src or not self.dst:
                raise ScenarioError("fault action 'delay-channel' requires src and dst")
            if self.delay <= 0:
                raise ScenarioError("fault action 'delay-channel' requires a positive delay")
            if self.at > 0:
                raise ScenarioError(
                    "'delay-channel' must be a setup step (at <= 0): extra latency "
                    "cannot be installed retroactively for in-flight messages"
                )


@dataclass(frozen=True)
class LatencySpec:
    """Which delay distribution the network applies, per link class.

    The default (``model="unit"``) is the paper's unit: every message takes
    exactly one delay, so virtual time counts message delays on the critical
    path.  The other scalar models stress the protocol under jitter
    (``uniform``), heavy tails (``lognormal``) and memoryless queueing
    (``exponential``); all draws come from the scenario's seeded RNG, so
    runs stay deterministic.  ``jitter`` adds uniform noise in
    ``[0, jitter]`` on top of any model but ``unit``.

    ``model="regions"`` is the declarative WAN form: processes are placed
    in named ``regions`` (replicas by replica index, so every shard spans
    the regions; explicit ``placement`` pairs override), links within a
    region take ``intra`` delays and links between regions take the
    per-pair delays from ``links`` (``(src-region, dst-region, delay)``
    triples; a pair listed in one direction only is treated symmetric).
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
            raise ScenarioError(
                f"unknown latency model {self.model!r}; expected one of {LATENCY_MODELS}"
            )
        if self.jitter < 0:
            raise ScenarioError("latency jitter must be non-negative")
        if self.model == "unit" and self.jitter:
            raise ScenarioError(
                "the unit model is the paper's exact-delay unit; "
                "use model='fixed' with jitter instead"
            )
        if self.model == "fixed" and self.value <= 0:
            raise ScenarioError("fixed latency requires a positive value")
        if self.model == "uniform":
            if self.low < 0:
                raise ScenarioError("uniform latency bounds must be non-negative")
            if self.high < self.low:
                raise ScenarioError("uniform latency requires low <= high")
        if self.model in ("lognormal", "exponential") and self.mean <= 0:
            raise ScenarioError(f"{self.model} latency requires a positive mean")
        if self.model == "lognormal" and self.sigma <= 0:
            raise ScenarioError("lognormal latency requires a positive sigma")
        if self.model == "regions":
            if len(self.regions) < 2:
                raise ScenarioError("region latency needs at least two regions")
            if len(set(self.regions)) != len(self.regions):
                raise ScenarioError("region names must be unique")
            if self.intra < 0:
                raise ScenarioError("intra-region delay must be non-negative")
            covered = set()
            for src, dst, delay in self.links:
                if src not in self.regions or dst not in self.regions:
                    raise ScenarioError(
                        f"link ({src!r}, {dst!r}) names an unknown region"
                    )
                if src == dst:
                    raise ScenarioError(
                        f"link ({src!r}, {dst!r}): intra-region delay is set by 'intra'"
                    )
                if delay < 0:
                    raise ScenarioError("inter-region delays must be non-negative")
                if (src, dst) in covered:
                    raise ScenarioError(
                        f"duplicate link ({src!r}, {dst!r}): each direction may "
                        "be given at most once"
                    )
                covered.add((src, dst))
            for src in self.regions:
                for dst in self.regions:
                    if src != dst and (src, dst) not in covered and (dst, src) not in covered:
                        raise ScenarioError(
                            f"missing inter-region delay for {src!r} <-> {dst!r}"
                        )
            for pid, region in self.placement:
                if region not in self.regions:
                    raise ScenarioError(
                        f"placement of {pid!r} names unknown region {region!r}"
                    )

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


@dataclass(frozen=True)
class NetworkSpec:
    """Bandwidth/queueing network model plus the commit-path optimizations
    it makes measurable (declarative form of
    :class:`repro.runtime.network.LinkSpec` and the pipelining/affinity
    knobs).

    With ``bandwidth > 0`` every directed channel becomes a FIFO queue:
    each message pays a serialization time of
    ``overhead + wire_size(message) / bandwidth`` and queues behind earlier
    messages on the same link, so delivery time is propagation + queue wait
    + serialization.  Batches serialize the sum of their parts plus one
    header, which is what gives batch-size sweeps a real latency/throughput
    knee.  ``bandwidth = 0`` (the default) keeps the pure-delay network.

    ``pipeline`` controls leader-side vote pipelining: coordinators overlap
    PREPARE certification of new transactions with ACCEPT persistence of
    earlier ones (the default, and the paper's behaviour).  Setting it to
    False serializes the commit path stop-and-wait style — the measurement
    baseline the pipelining speedup is quoted against.

    ``sticky`` pins each client (and each distinct shard set) to one
    coordinator instead of rotating round-robin, deepening per-coordinator
    batches at the cost of load spread.
    """

    bandwidth: float = 0.0  # bytes per delay unit; 0 disables the model
    overhead: float = 0.0  # fixed per-message serialization cost (delays)
    pipeline: bool = True  # overlap PREPARE of N+1 with ACCEPT of N
    sticky: bool = False  # sticky client -> coordinator affinity

    def compile(self):
        """The :class:`repro.runtime.network.LinkSpec` this spec describes,
        or None when the bandwidth model is off."""
        from repro.runtime.network import LinkSpec  # late: keep spec modules light

        if not self.enabled:
            return None
        return LinkSpec(bandwidth=self.bandwidth, overhead=self.overhead)

    def validate(self) -> None:
        if self.bandwidth < 0:
            raise ScenarioError("network bandwidth must be >= 0 (0 = unlimited)")
        if self.overhead < 0:
            raise ScenarioError("network overhead must be >= 0")
        if self.overhead and not self.enabled:
            raise ScenarioError(
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


@dataclass(frozen=True)
class WorkloadSpec:
    """What the clients do.

    ``txns`` transactions are driven in closed-loop batches of ``batch``;
    each batch executes speculatively against the committed store state and
    is certified concurrently (which is where conflicts and aborts arise).

    With ``think_time > 0`` the driver switches to *closed-loop client
    sessions*: ``sessions`` concurrent logical clients (default: ``batch``)
    each keep one transaction in flight and pause for an exponentially
    distributed think time (mean ``think_time``, in message delays) between
    a decision and the next submission — the classic interactive-client
    model, as opposed to the default batch-driven open pressure.
    """

    kind: str = "uniform"
    txns: int = 100
    batch: int = 10
    num_keys: int = 128
    theta: float = 0.9
    reads_per_txn: int = 2
    writes_per_txn: int = 1
    num_accounts: int = 16
    initial_balance: int = 100
    hot_fraction: float = 0.0
    read_ratio: float = 0.0  # fraction of read-only point lookups (uniform/zipfian)
    think_time: float = 0.0
    sessions: int = 0  # closed-loop sessions; 0 means `batch`
    coordinator: Optional[str] = None  # role, only for kind="spanning"

    def validate(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioError(
                f"unknown workload kind {self.kind!r}; expected one of {WORKLOAD_KINDS}"
            )
        if self.txns < 1:
            raise ScenarioError("workload needs at least one transaction")
        if self.batch < 1:
            raise ScenarioError("workload batch size must be >= 1")
        if self.kind in ("uniform", "zipfian"):
            if self.num_keys < 1:
                raise ScenarioError("num_keys must be >= 1")
            if self.writes_per_txn > self.reads_per_txn:
                raise ScenarioError("writes_per_txn must not exceed reads_per_txn")
        if self.kind == "zipfian" and self.theta < 0:
            raise ScenarioError("zipfian theta must be >= 0")
        if self.kind == "bank" and self.num_accounts < 2:
            raise ScenarioError("bank workload needs at least two accounts")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ScenarioError("hot_fraction must be within [0, 1]")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ScenarioError("read_ratio must be within [0, 1]")
        if self.read_ratio and self.kind not in ("uniform", "zipfian"):
            raise ScenarioError(
                "read_ratio mixes read-only point lookups into the key/value "
                "workloads; it requires kind='uniform' or kind='zipfian'"
            )
        if self.think_time < 0:
            raise ScenarioError("think_time must be >= 0")
        if self.sessions < 0:
            raise ScenarioError("sessions must be >= 0")
        if self.sessions and self.think_time <= 0:
            raise ScenarioError(
                "sessions only count under the closed-loop driver; "
                "set think_time > 0 to start it"
            )
        if self.kind == "spanning" and (self.think_time > 0 or self.sessions):
            raise ScenarioError(
                "closed-loop think times drive the transactional store; "
                "kind='spanning' submits explicit payloads and does not support them"
            )
        if self.coordinator is not None and self.kind != "spanning":
            raise ScenarioError("a pinned coordinator requires kind='spanning'")


PROTOCOL_BASELINE = "2pc-paxos"

EXEC_MODES = ("serial", "parallel-shards")


@dataclass(frozen=True)
class ExecSpec:
    """How a scenario executes — never *what* it computes.

    ``jobs`` is how many worker processes fan out whole runs (sweep grid
    points, repetitions); 0 means one per core.  The runner ignores
    ``mode`` and ``groups``, so ``ExecSpec(mode="parallel-shards",
    groups=G)`` is a serial run whose history digest equals the serial
    spelling's by construction.  They remain only because the benchmark's
    ``mp-steady-grouped`` workload spells them, and the follow-up
    ``[benchmark]`` change that retires that workload deletes ``mode``,
    ``groups`` and ``EXEC_MODES`` with it.  Execution settings are
    deliberately excluded from result dicts: the same spec must produce
    byte-identical results whatever the execution plan.
    """

    jobs: int = 1
    mode: str = "serial"
    groups: int = 2

    def validate(self) -> None:
        if self.mode not in EXEC_MODES:
            raise ScenarioError(
                f"unknown exec mode {self.mode!r}; expected one of {EXEC_MODES}"
            )
        if self.jobs < 0:
            raise ScenarioError("jobs must be >= 0 (0 = one worker per core)")
        if self.mode == "parallel-shards" and self.groups < 2:
            raise ScenarioError("parallel-shards needs at least two groups")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, reproducible experiment description."""

    name: str
    description: str = ""
    protocol: str = "message-passing"
    num_shards: int = 2
    replicas_per_shard: int = 2
    num_clients: int = 1
    spares_per_shard: int = 2
    isolation: str = "serializability"
    seed: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    # Which delay distribution the network applies; the default is the
    # paper's unit model (the unit its latency claims are stated in).
    latency: LatencySpec = field(default_factory=LatencySpec)
    # Client-session resilience: timeout-driven re-submission with
    # coordinator failover (off by default — the paper's client model).
    retry: RetrySpec = field(default_factory=RetrySpec)
    # Protocol-level batching of the certification fan-out (off by default —
    # the paper's one-message-per-transaction flow).
    batch: BatchSpec = field(default_factory=BatchSpec)
    # Snapshot-read fast path: lease-guarded MVCC reads served by shard
    # leaders without certification (off by default — every transaction,
    # read-only or not, goes through the certification service).
    read: ReadSpec = field(default_factory=ReadSpec)
    # Heartbeat failure detector driving unsolicited view changes (off by
    # default — failover waits for client retry timeouts, the paper's
    # external-oracle-free model).
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    # Bandwidth/queueing network model plus pipelining and coordinator
    # affinity (off by default — the pure-delay network, with the paper's
    # pipelined commit path).
    network: NetworkSpec = field(default_factory=NetworkSpec)
    faults: Tuple[FaultStep, ...] = ()
    max_events: int = 5_000_000
    # How the recorded history is validated: "online" (default) attaches the
    # incremental checker during the run and flags a violation at the event
    # introducing it; "final" runs the batch TCSChecker at quiescence (its
    # graph construction is quadratic in the transaction count); "off" skips
    # history validation (contradiction detection stays on — it is O(1)).
    check_mode: str = "online"
    check_invariants: bool = True
    # Online-checker garbage collection: prune the linearization graph and
    # conflict indexes behind the decided frontier so memory stays bounded
    # on streaming (unbounded) workloads.  Only meaningful with
    # check_mode="online".
    check_gc: bool = False
    # Correct protocols must produce a safe history; ablation scenarios
    # document the expected violation by setting this to False.
    expect_safe: bool = True
    # Execution plan (process fan-out).  Excluded from result dicts: it
    # decides how the run executes, not what it computes, and every plan
    # must yield byte-identical results.
    execution: ExecSpec = field(default_factory=ExecSpec)

    def validate(self) -> None:
        from repro.cluster import protocol_names  # late: avoid import cycle

        known = protocol_names() + (PROTOCOL_BASELINE,)
        if self.protocol not in known:
            raise ScenarioError(
                f"unknown protocol {self.protocol!r}; expected one of {known}"
            )
        if self.num_shards < 1 or self.replicas_per_shard < 1 or self.num_clients < 1:
            raise ScenarioError(
                "num_shards, replicas_per_shard and num_clients must be >= 1"
            )
        if self.spares_per_shard < 0:
            raise ScenarioError("spares_per_shard must be >= 0")
        if self.max_events < 1:
            raise ScenarioError("max_events must be >= 1")
        if self.check_mode not in CHECK_MODES:
            raise ScenarioError(
                f"unknown check_mode {self.check_mode!r}; expected one of {CHECK_MODES}"
            )
        if self.check_gc and self.check_mode != "online":
            raise ScenarioError(
                "check_gc prunes the online checker's graph; it requires "
                "check_mode='online'"
            )
        self.workload.validate()
        self.latency.validate()
        try:
            # The policies are runtime values and raise plain ValueErrors
            # (ClusterBase validates them the same way); this is where a
            # scenario turns them into its own error type.
            for policy in (self.retry, self.batch, self.read, self.detector):
                policy.validate()
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        self.network.validate()
        self.execution.validate()
        for step in self.faults:
            step.validate()
        self._validate_names()
        if self.protocol == PROTOCOL_BASELINE:
            if self.faults:
                raise ScenarioError(
                    "the 2pc-paxos baseline has no reconfiguration path; "
                    "fault schedules require one of the reconfigurable protocols"
                )
            if self.isolation != "serializability":
                raise ScenarioError("the 2pc-paxos baseline only runs serializability")
            if self.replicas_per_shard % 2 == 0:
                raise ScenarioError(
                    "the 2pc-paxos baseline needs 2f+1 (odd) replicas per shard"
                )
            coordinator = self.workload.coordinator or ""
            kind, _, rest = coordinator.partition(":")
            if coordinator == "config-service" or (kind in SHARD_ROLES and rest):
                raise ScenarioError(
                    f"coordinator role {coordinator!r} names a process the 2pc-paxos "
                    "baseline does not coordinate through; pin one of its dedicated "
                    "coordinators by literal pid, e.g. 'coordinator-0'"
                )

    def _validate_names(self) -> None:
        """Reject a ``shard=`` or a ``kind:shard[:index]`` role that names a
        shard this spec does not have, or an index that is not an integer
        (literal pids are checked against the built cluster by the runner)."""
        shards = tuple(f"shard-{i}" for i in range(self.num_shards))

        def check_shard(shard: str, where: str) -> None:
            if shard not in shards:
                raise ScenarioError(
                    f"{where}: unknown shard {shard!r} (the spec has "
                    f"{shards[0]} .. {shards[-1]})"
                )

        def check_role(role: Optional[str], where: str) -> None:
            kind, _, rest = (role or "").partition(":")
            if kind not in SHARD_ROLES or not rest:
                return
            shard, _, index = rest.partition(":")
            check_shard(shard, f"{where}: role {role!r}")
            try:
                int(index or 0)
            except ValueError:
                raise ScenarioError(
                    f"{where}: role {role!r} needs an integer index, got {index!r}"
                ) from None

        for number, step in enumerate(self.faults):
            where = f"fault step {number} ({step.action!r} at t={step.at:g})"
            if step.shard is not None:
                check_shard(step.shard, where)
            for role in (step.target, step.src, step.dst, *step.suspects):
                check_role(role, where)
        check_role(self.workload.coordinator, "workload.coordinator")

    def with_overrides(self, **overrides) -> "ScenarioSpec":
        """A copy of the spec with the given fields replaced (re-validated)."""
        spec = replace(self, **overrides)
        spec.validate()
        return spec

    @property
    def fault_schedule(self) -> Tuple[FaultStep, ...]:
        """Fault steps in execution order (setup steps first, then by time;
        ties broken by declaration order)."""
        indexed = list(enumerate(self.faults))
        return tuple(
            step
            for _, step in sorted(indexed, key=lambda pair: (pair[1].at, pair[0]))
        )
