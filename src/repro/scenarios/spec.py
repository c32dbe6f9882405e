"""Declarative scenario descriptions.

A :class:`ScenarioSpec` fully determines one simulated experiment: which
protocol to deploy, how large the cluster is, which workload the clients
generate, and which faults strike at which virtual times.  Specs are plain
frozen dataclasses, so a scenario is a value — it can be registered in the
library, tweaked with :meth:`ScenarioSpec.with_overrides`, swept across
protocols, or constructed ad hoc by a benchmark.

Every optional subsystem is described by the very value the cluster
receives: ``retry`` is a :class:`repro.client.RetryPolicy`, ``batch`` a
:class:`repro.core.batching.BatchPolicy`, ``read`` a
:class:`repro.core.reads.ReadPolicy` and ``detector`` a
:class:`repro.core.failuredetector.DetectorPolicy`.  ``RetrySpec``,
``BatchSpec``, ``ReadSpec`` and ``DetectorSpec`` are those classes under
their spec-side names — one class, one ``validate()``, one ``describe()``.
The network's two models are values of the same kind:
``latency`` is a :class:`repro.runtime.network.LatencySpec` (the delay
model the network binds once and calls per message) and ``network`` a
:class:`repro.runtime.network.NetworkSpec` (the link model the network
reads, plus the ``pipeline`` / ``sticky`` commit-path toggles the cluster
reads).  All six raise plain ``ValueError``; :meth:`ScenarioSpec.validate`
is where that becomes a :class:`ScenarioError`.

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

# The delay and link models are the network's own values, under their own names.
from repro.runtime.network import LATENCY_MODELS, LatencySpec, NetworkSpec


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
    "online",  # IncrementalTCSChecker subscribed to the history during the run
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
    spares_per_shard: int = 2
    isolation: str = "serializability"
    seed: int = 0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    # Which delay distribution the network applies; the default is the
    # paper's unit model (the unit its latency claims are stated in).
    latency: LatencySpec = field(default_factory=LatencySpec)
    # Client resilience: timeout-driven re-submission with
    # coordinator failover (off by default — the paper's client model).
    retry: RetrySpec = field(default_factory=RetrySpec)
    # Protocol-level batching of the certification fan-out (off by default —
    # the paper's one-message-per-transaction flow).
    batch: BatchSpec = field(default_factory=BatchSpec)
    # Snapshot-read fast path: lease-guarded reads of the latest committed
    # values, served by shard leaders without certification (off by
    # default — every transaction, read-only or not, goes through the
    # certification service).
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
    # How the recorded history is validated: "online" (default) reads the
    # verdict of the incremental checker the cluster attaches before the
    # first event, which flags a violation at the event introducing it (its
    # verdict at quiescence is the whole history's: there is no separate
    # final pass); "off" detaches it and skips history validation
    # (contradiction detection stays on — it is O(1)).
    check_mode: str = "online"
    check_invariants: bool = True
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
        if self.num_shards < 1 or self.replicas_per_shard < 1:
            raise ScenarioError("num_shards and replicas_per_shard must be >= 1")
        if self.spares_per_shard < 0:
            raise ScenarioError("spares_per_shard must be >= 0")
        if self.max_events < 1:
            raise ScenarioError("max_events must be >= 1")
        if self.check_mode not in CHECK_MODES:
            raise ScenarioError(
                f"unknown check_mode {self.check_mode!r}; expected one of {CHECK_MODES}"
            )
        self.workload.validate()
        try:
            # The policies and network models are runtime values and raise
            # plain ValueErrors (the cluster validates them the same way);
            # this is where a scenario turns them into its own error type.
            for policy in (
                self.latency, self.retry, self.batch, self.read, self.detector, self.network
            ):
                policy.validate()
        except ValueError as error:
            raise ScenarioError(str(error)) from None
        self.execution.validate()
        for step in self.faults:
            step.validate()
        if self.faults and not self.network.pipeline:
            raise ScenarioError(
                "stop-and-wait (network.pipeline=False) models a failure-free run: "
                "held dispatches are re-driven only by decisions; drop the fault schedule"
            )
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
