"""Cluster harness: one-call construction of a complete simulated system.

``Cluster`` wires together every piece of the reproduction — scheduler,
network, configuration service, shard replicas (message-passing, RDMA, or
the deliberately broken RDMA ablation variant), spare replicas for
reconfiguration, and clients — and exposes a small driver API used by the
examples, the tests and the benchmark harness:

* :meth:`Cluster.submit` / :meth:`Cluster.run` / :meth:`Cluster.certify` —
  drive transactions through the TCS;
* :meth:`Cluster.crash`, :meth:`Cluster.crash_leader`,
  :meth:`Cluster.crash_follower`, :meth:`Cluster.reconfigure` — fault
  injection and recovery;
* :meth:`Cluster.check` — validate the recorded history against the TCS
  specification and the replica states against the Figure 3 invariants.

The vanilla 2PC-over-Paxos baseline offers the same driver API through
:class:`repro.baselines.cluster.BaselineCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    BatchStats,
    RetryStats,
    collect_batch_stats,
    collect_phase_samples,
    collect_retry_stats,
)
from repro.client import Client, ClientSession, CoordinatorRouter, RetryPolicy
from repro.configservice.service import ConfigurationService, GlobalConfigurationService
from repro.core.batching import BatchPolicy
from repro.core.certification import CertificationScheme
from repro.core.directory import TransactionDirectory
from repro.core.failuredetector import DetectorPolicy, HeartbeatPump
from repro.core.reads import ReadPolicy
from repro.core.reconfig import MembershipPolicy, SparePool
from repro.core.replica import ShardReplica
from repro.core.serializability import (
    KeyHashSharding,
    SerializabilityScheme,
    SnapshotIsolationScheme,
    TransactionPayload,
)
from repro.core.types import Configuration, Decision, GlobalConfiguration, ShardId, TxnId
from repro.rdma.broken import BrokenRdmaShardReplica
from repro.rdma.replica import RdmaShardReplica
from repro.runtime.events import Scheduler
from repro.runtime.network import LatencyModel, LinkSpec, Network, UnitLatency
from repro.runtime.parallel import GroupedScheduler, partition_contiguous
from repro.spec.checker import CheckResult, TCSChecker
from repro.spec.history import History
from repro.spec.invariants import InvariantViolation, check_invariants


PROTOCOL_MESSAGE_PASSING = "message-passing"
PROTOCOL_RDMA = "rdma"
PROTOCOL_BROKEN_RDMA = "broken-rdma"

_ISOLATION_SCHEMES = {
    "serializability": SerializabilityScheme,
    "snapshot-isolation": SnapshotIsolationScheme,
}


@dataclass(frozen=True)
class ProtocolSpec:
    """How to assemble one protocol variant of the certification service.

    New variants register themselves with :func:`register_protocol` instead
    of growing branches inside ``Cluster.__init__``:

    * ``replica_cls`` — the shard-replica process class;
    * ``config_service_cls`` — the configuration-service process class;
    * ``global_config`` — True when the variant keeps a single system-wide
      configuration and epoch (the RDMA protocol of Section 5) rather than
      one configuration per shard;
    * ``post_build`` — optional hook ``post_build(cluster)`` run after all
      processes exist (the broken ablation uses it to leave RDMA access
      open between every pair of processes, which is exactly its bug).
    """

    name: str
    replica_cls: type
    config_service_cls: type
    global_config: bool = False
    post_build: Optional[Callable[["Cluster"], None]] = None
    description: str = ""


_PROTOCOL_REGISTRY: Dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a protocol variant to the registry used by :class:`Cluster`."""
    if spec.name in _PROTOCOL_REGISTRY:
        raise ValueError(f"protocol {spec.name!r} is already registered")
    _PROTOCOL_REGISTRY[spec.name] = spec
    return spec


def protocol_names() -> Tuple[str, ...]:
    return tuple(_PROTOCOL_REGISTRY)


def protocol_spec(name: str) -> ProtocolSpec:
    try:
        return _PROTOCOL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {protocol_names()}"
        ) from None


def _open_rdma_everywhere(cluster: "Cluster") -> None:
    # The broken RDMA ablation keeps RDMA access open between every pair
    # of processes forever (that omission is exactly what makes it unsafe).
    all_pids = list(cluster.replicas)
    for replica in cluster.replicas.values():
        replica.open_to_all(all_pids)


register_protocol(
    ProtocolSpec(
        name=PROTOCOL_MESSAGE_PASSING,
        replica_cls=ShardReplica,
        config_service_cls=ConfigurationService,
        description="Figure 1: asynchronous message passing, per-shard reconfiguration",
    )
)
register_protocol(
    ProtocolSpec(
        name=PROTOCOL_RDMA,
        replica_cls=RdmaShardReplica,
        config_service_cls=GlobalConfigurationService,
        global_config=True,
        description="Figures 7-8: RDMA data path, global reconfiguration",
    )
)
register_protocol(
    ProtocolSpec(
        name=PROTOCOL_BROKEN_RDMA,
        replica_cls=BrokenRdmaShardReplica,
        config_service_cls=ConfigurationService,
        post_build=_open_rdma_everywhere,
        description="Figure 4a ablation: RDMA data path + per-shard reconfiguration (unsafe)",
    )
)


class Cluster:
    """A complete simulated deployment of one of the paper's protocols."""

    def __init__(
        self,
        num_shards: int = 2,
        replicas_per_shard: int = 2,
        num_clients: int = 1,
        protocol: str = PROTOCOL_MESSAGE_PASSING,
        isolation: str = "serializability",
        scheme: Optional[CertificationScheme] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        spares_per_shard: int = 2,
        membership_policy: Optional[MembershipPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        batch: Optional[BatchPolicy] = None,
        groups: int = 0,
        read: Optional[ReadPolicy] = None,
        detector: Optional[DetectorPolicy] = None,
        link: Optional[LinkSpec] = None,
        pipeline: bool = True,
        sticky: bool = False,
    ) -> None:
        spec = protocol_spec(protocol)
        if num_shards < 1 or replicas_per_shard < 1 or num_clients < 1:
            raise ValueError("num_shards, replicas_per_shard and num_clients must be >= 1")
        self.protocol = spec.name
        self.protocol_spec = spec
        self.num_shards = num_shards
        self.replicas_per_shard = replicas_per_shard
        self.shards: List[ShardId] = [f"shard-{i}" for i in range(num_shards)]

        if scheme is None:
            if isolation not in _ISOLATION_SCHEMES:
                raise ValueError(f"unknown isolation level {isolation!r}")
            scheme = _ISOLATION_SCHEMES[isolation](KeyHashSharding(self.shards))
        self.scheme = scheme

        # groups > 0 selects the conservative parallel-DES engine: shards
        # partition into that many weakly-coupled groups, each with its own
        # event heap, advanced window-by-window behind lookahead barriers
        # (see repro.runtime.parallel).  Results are byte-identical to the
        # serial engine for deterministic latency models.
        self.exec_groups = groups
        self.scheduler = GroupedScheduler(groups) if groups else Scheduler()
        self.network = Network(
            self.scheduler, latency=latency or UnitLatency(), seed=seed, link=link
        )
        self.directory = TransactionDirectory()
        self.history = History()
        self.membership_policy = membership_policy or MembershipPolicy(
            target_size=replicas_per_shard
        )
        # Commit-path knobs (see repro.scenarios.spec.NetworkSpec): vote
        # pipelining is the protocol's normal mode; pipeline=False is the
        # stop-and-wait measurement baseline.  sticky pins each involved-
        # shard set to one coordinator to deepen its batches.
        self.pipeline = pipeline
        self.sticky = sticky
        self._sticky_pins: Dict[Tuple[ShardId, ...], str] = {}

        self.replicas: Dict[str, Any] = {}
        self.replicas_by_shard: Dict[ShardId, List[Any]] = {s: [] for s in self.shards}
        self.spare_pools: Dict[ShardId, SparePool] = {}
        self.clients: List[Client] = []
        self.retry = retry or RetryPolicy()
        self.batch = batch or BatchPolicy()
        self.read = read or ReadPolicy()
        self.read.validate()
        self.detector = detector or DetectorPolicy()
        self.detector.validate()

        self._build_config_service()
        self._build_replicas(spares_per_shard)
        self._build_clients(num_clients)
        self._build_sessions()
        self._round_robin = 0
        # Coordinator-candidate lists per involved-shard set, invalidated
        # by the configuration service's version counter (submission is the
        # driver's hottest path; rebuilding the list per transaction costs
        # more than the whole routing decision).
        self._candidate_cache: Dict[Tuple[ShardId, ...], List[str]] = {}
        self._candidate_cache_version = -1
        if spec.post_build is not None:
            spec.post_build(self)
        if groups:
            self.scheduler.install(self.network, self._group_partition())
        if self.read.enabled:
            # Bootstrap the shard leaders' read leases (after the parallel
            # engine is installed, so the grant round-trip is partitioned
            # like every other message).
            self.request_read_leases()
        # Heartbeat pump: one cluster-level weak recurring tick, armed
        # exactly once here — a consistent creation point in both engines —
        # and self-re-armed only from inside the tick thereafter.
        self.pump = HeartbeatPump(
            self.scheduler, lambda: self.replicas.values(), self.detector
        )
        self.pump.start()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _group_partition(self) -> Dict[str, int]:
        """Process-to-group assignment for the parallel-DES engine.

        Shards split into contiguous blocks (intra-shard traffic is the
        dense part of the communication graph and stays intra-group);
        replicas and spares follow their shard.  Clients and the
        configuration service all live in group 0: clients are the only
        history writers, so keeping them in one group preserves the serial
        append order of the history, and the configuration service talks to
        every shard anyway.
        """
        shard_group = partition_contiguous(self.shards, self.exec_groups)
        group_of: Dict[str, int] = {self.config_service.pid: 0}
        for pid, replica in self.replicas.items():
            group_of[pid] = shard_group[replica.shard]
        for client in self.clients:
            group_of[client.pid] = 0
        return group_of

    def _build_config_service(self) -> None:
        self.config_service = self.protocol_spec.config_service_cls("config-service")
        self.config_service.detector_confirmations = self.detector.confirmations
        self.network.register(self.config_service)

    def _build_replicas(self, spares_per_shard: int) -> None:
        replica_cls = self.protocol_spec.replica_cls
        members_by_shard: Dict[ShardId, Tuple[str, ...]] = {}
        for shard in self.shards:
            members_by_shard[shard] = tuple(
                f"{shard}/r{i}" for i in range(self.replicas_per_shard)
            )
        initial_configs = {
            shard: Configuration(epoch=1, members=members, leader=members[0])
            for shard, members in members_by_shard.items()
        }
        global_config = GlobalConfiguration(
            epoch=1,
            members={s: c.members for s, c in initial_configs.items()},
            leaders={s: c.leader for s, c in initial_configs.items()},
        )

        # Install initial configurations in the configuration service.
        if self.protocol_spec.global_config:
            self.config_service.install_initial(global_config)
        else:
            for shard, config in initial_configs.items():
                self.config_service.install_initial(shard, config)

        # Create replicas and spares.
        for shard in self.shards:
            pool = SparePool()
            self.spare_pools[shard] = pool
            pids = list(members_by_shard[shard]) + [
                f"{shard}/spare{i}" for i in range(spares_per_shard)
            ]
            for pid in pids:
                replica = replica_cls(
                    pid=pid,
                    shard=shard,
                    scheme=self.scheme,
                    directory=self.directory,
                    config_service=self.config_service.pid,
                    spares=pool,
                    membership_policy=self.membership_policy,
                    batch=self.batch,
                    read=self.read,
                    detector=self.detector,
                    pipeline=self.pipeline,
                )
                self.network.register(replica)
                self.replicas[pid] = replica
                self.replicas_by_shard[shard].append(replica)
                if pid not in members_by_shard[shard]:
                    pool.add(pid)

        # Bootstrap configuration knowledge.
        for replica in self.replicas.values():
            if self.protocol_spec.global_config:
                replica.spare_pools = self.spare_pools
                replica.bootstrap(global_config)
            else:
                replica.bootstrap(initial_configs)

        self.initial_configs = initial_configs
        self.initial_global_config = global_config

    def _build_clients(self, num_clients: int) -> None:
        for i in range(num_clients):
            client = Client(
                pid=f"client-{i}",
                scheme=self.scheme,
                directory=self.directory,
                history=self.history,
                config_service=self.config_service.pid,
                batch=self.batch,
            )
            self.network.register(client)
            self.clients.append(client)

    def _build_sessions(self) -> None:
        """One :class:`ClientSession` per client, sharing a router seeded
        from the bootstrap configurations.  With retry enabled the clients
        also subscribe to ``CONFIG_CHANGE`` pushes, so the router tracks
        reconfigurations the way a real TCS client library would."""
        self.router = CoordinatorRouter(
            self.shards,
            members={s: c.members for s, c in self.initial_configs.items()},
            leaders={s: c.leader for s, c in self.initial_configs.items()},
            epochs={s: c.epoch for s, c in self.initial_configs.items()},
            sticky=self.sticky,
        )
        self.sessions: List[ClientSession] = [
            ClientSession(client, self.router, self.scheme, self.retry)
            for client in self.clients
        ]
        for client in self.clients:
            client.global_config_service = self.protocol_spec.global_config
        if self.retry.enabled:
            # One subscription feeds the shared router; subscribing every
            # client would deliver each CONFIG_CHANGE num_clients times for
            # the same note_config_change.
            self.config_service.subscribe(self.clients[0].pid)

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    def replica(self, pid: str):
        return self.replicas[pid]

    def current_configuration(self, shard: ShardId):
        if self.protocol_spec.global_config:
            config = self.config_service.last_configuration()
            return Configuration(
                epoch=config.epoch,
                members=config.members[shard],
                leader=config.leaders[shard],
            )
        return self.config_service.last_configuration(shard)

    def leader_of(self, shard: ShardId) -> str:
        return self.current_configuration(shard).leader

    def followers_of(self, shard: ShardId) -> Tuple[str, ...]:
        return self.current_configuration(shard).followers

    def members_of(self, shard: ShardId) -> Tuple[str, ...]:
        return self.current_configuration(shard).members

    # ------------------------------------------------------------------
    # transaction driving
    # ------------------------------------------------------------------
    def _pick_coordinator(self, payload: Any) -> str:
        """Pick a replica to coordinate the transaction.

        Mirrors Figure 2, where the coordinator is a replica of a shard not
        involved in the transaction: we prefer members of uninvolved shards
        (this also keeps the latency accounting identical to the paper's
        5-delay analysis) and fall back to members of the involved shards
        when every shard participates.
        """
        involved = tuple(sorted(self.scheme.shards_of(payload))) or (self.shards[0],)
        if self._candidate_cache_version != self.config_service.version:
            self._candidate_cache.clear()
            self._candidate_cache_version = self.config_service.version
        candidates = self._candidate_cache.get(involved)
        if candidates is None:
            uninvolved = [s for s in self.shards if s not in involved]
            candidates = []
            for shard in uninvolved or involved:
                candidates.extend(self.members_of(shard))
            self._candidate_cache[involved] = candidates
        live = [pid for pid in candidates if not self.replicas[pid].crashed]
        candidates = live or candidates
        if self.sticky:
            # Sticky affinity: every transaction over the same involved-shard
            # set returns to one coordinator, so its batchers fill deeper
            # instead of each coordinator flushing near-empty batches.
            pinned = self._sticky_pins.get(involved)
            if pinned is not None and pinned in candidates:
                return pinned
            self._round_robin += 1
            pinned = candidates[self._round_robin % len(candidates)]
            self._sticky_pins[involved] = pinned
            return pinned
        self._round_robin += 1
        return candidates[self._round_robin % len(candidates)]

    def submit(
        self,
        payload: Any,
        client_index: int = 0,
        coordinator: Optional[str] = None,
        txn: Optional[TxnId] = None,
    ) -> TxnId:
        """Submit a transaction for certification; returns its identifier.

        Read-only transactions eligible for the snapshot-read fast path go
        through :meth:`submit_read` instead.

        With a retry policy, submissions route through the client's session:
        the session picks the coordinator from the client-side router (no
        omniscient liveness peeking) and arms the timeout-driven
        re-submission machinery.  Without one, the legacy direct path picks
        a live coordinator and fires-and-forgets.
        """
        if self.retry.enabled:
            return self.sessions[client_index].submit(
                payload, coordinator=coordinator, txn=txn
            )
        client = self.clients[client_index]
        coordinator = coordinator or self._pick_coordinator(payload)
        return client.submit(payload, coordinator=coordinator, txn=txn)

    # ------------------------------------------------------------------
    # snapshot-read fast path
    # ------------------------------------------------------------------
    def request_read_leases(self) -> None:
        """Have every shard leader request (or renew) its read lease."""
        if not self.read.enabled:
            return
        for shard in self.shards:
            leader = self.replicas.get(self.leader_of(shard))
            if leader is not None and not leader.crashed:
                leader.request_read_lease()

    def seed_read_stores(self, initial: Dict[str, Any]) -> None:
        """Seed every replica's applied store with the initial object values
        (each replica keeps only its own shard's objects); no-op when the
        read policy is disabled."""
        if not self.read.enabled:
            return
        sharding = self.scheme.sharding
        for replica in self.replicas.values():
            engine = getattr(replica, "read_engine", None)
            if engine is None:
                continue
            engine.seed(
                {
                    obj: value
                    for obj, value in initial.items()
                    if sharding.shard_of(obj) == replica.shard
                }
            )

    def submit_read(
        self,
        objects: Sequence[str],
        fallback_payload: TransactionPayload,
        client_index: int = 0,
    ) -> TxnId:
        """Submit a single-shard read-only transaction on the snapshot-read
        fast path (leader-local, no coordinator, no certification).

        ``fallback_payload`` is the read-only payload — the objects at the
        client's current committed versions — certified through the normal
        path if the leader refuses.  Multi-shard reads and disabled read
        policies must use :meth:`submit` instead (the store layer's
        ``submit_read_async`` makes that call).
        """
        if not self.read.enabled:
            raise RuntimeError("submit_read requires an enabled read policy")
        sharding = self.scheme.sharding
        shards = {sharding.shard_of(obj) for obj in objects}
        if len(shards) != 1:
            raise ValueError(f"snapshot reads are single-shard (got {sorted(shards)})")
        (shard,) = shards
        client = self.clients[client_index]
        return client.submit_read(
            objects=objects,
            shard=shard,
            leader=self.leader_of(shard),
            fallback_payload=fallback_payload,
            pick_fallback_coordinator=lambda: self._pick_coordinator(fallback_payload),
        )

    def read_stats(self) -> Dict[str, Any]:
        """Aggregate fast-path counters over clients and replica engines."""
        stats: Dict[str, Any] = {
            "reads_served": 0,
            "read_fallbacks": 0,
            "fallback_reasons": {},
            "refused_lease": 0,
            "refused_pending": 0,
            "stale_serves": 0,
        }
        for client in self.clients:
            stats["reads_served"] += client.reads_served
            stats["read_fallbacks"] += client.read_fallbacks
            for reason, count in client.read_fallback_reasons.items():
                stats["fallback_reasons"][reason] = (
                    stats["fallback_reasons"].get(reason, 0) + count
                )
        for replica in self.replicas.values():
            engine = getattr(replica, "read_engine", None)
            if engine is None:
                continue
            stats["refused_lease"] += engine.reads_refused_lease
            stats["refused_pending"] += engine.reads_refused_pending
            stats["stale_serves"] += engine.stale_serves
        return stats

    def detector_stats(self) -> Dict[str, Any]:
        """Aggregate failure-detector counters over replicas, sessions and
        the configuration service (all zero when the detector is off)."""
        stats: Dict[str, Any] = {
            "heartbeat_ticks": self.pump.ticks,
            "suspicions": 0,
            "false_suspicions": 0,
            "suspicion_reports": getattr(self.config_service, "suspicion_reports", 0),
            "view_changes": getattr(self.config_service, "view_changes", 0),
            "unsolicited_reconfigurations": 0,
            "pushed_failovers": 0,
        }
        for replica in self.replicas.values():
            detector = getattr(replica, "detector", None)
            if detector is not None:
                stats["suspicions"] += detector.suspicions
                stats["false_suspicions"] += detector.false_suspicions
            stats["unsolicited_reconfigurations"] += getattr(
                replica, "unsolicited_reconfigurations", 0
            )
        for session in self.sessions:
            stats["pushed_failovers"] += session.pushed_failovers
        return stats

    def run(self, max_time: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation until idle (or until the given budget)."""
        return self.scheduler.run(max_time=max_time, max_events=max_events)

    def run_until_decided(
        self, txns: Optional[Sequence[TxnId]] = None, max_events: int = 1_000_000
    ) -> bool:
        """Run until every given (default: every submitted) transaction is decided.

        Decision *watchers* subscribe to the history's completion callbacks,
        so each fired event costs an O(1) counter check instead of a full
        history rescan.
        """
        with self.history.watch(txns) as watcher:
            if watcher.done:
                return True
            return self.scheduler.run_until(watcher.is_done, max_events=max_events)

    def certify(
        self,
        payload: Any,
        client_index: int = 0,
        coordinator: Optional[str] = None,
    ) -> Decision:
        """Submit a transaction and run the simulation until it is decided."""
        txn = self.submit(payload, client_index=client_index, coordinator=coordinator)
        if not self.run_until_decided([txn]):
            raise RuntimeError(f"transaction {txn} was not decided")
        return self.history.decision_of(txn)

    def certify_many(self, payloads: Sequence[Any], client_index: int = 0) -> Dict[TxnId, Decision]:
        txns = [self.submit(p, client_index=client_index) for p in payloads]
        self.run_until_decided(txns)
        return {t: self.history.decision_of(t) for t in txns}

    def decision_of(self, txn: TxnId) -> Optional[Decision]:
        return self.history.decision_of(txn)

    # ------------------------------------------------------------------
    # fault injection and reconfiguration
    # ------------------------------------------------------------------
    def crash(self, pid: str) -> None:
        self.network.crash(pid)

    def crash_leader(self, shard: ShardId) -> str:
        pid = self.leader_of(shard)
        self.crash(pid)
        return pid

    def crash_follower(self, shard: ShardId) -> str:
        followers = [p for p in self.followers_of(shard) if not self.replicas[p].crashed]
        if not followers:
            raise RuntimeError(f"shard {shard} has no live follower to crash")
        self.crash(followers[0])
        return followers[0]

    def reconfigure(
        self,
        shard: Optional[ShardId] = None,
        initiator: Optional[str] = None,
        run: bool = True,
        suspects: Sequence[str] = (),
    ) -> bool:
        """Trigger a reconfiguration (per-shard, or global for the RDMA protocol)."""
        shard = shard or self.shards[0]
        initiator_pid = initiator or self._pick_reconfigurer(shard)
        replica = self.replicas[initiator_pid]
        for suspect in suspects:
            replica.suspect(suspect)
        if self.protocol_spec.global_config:
            started = replica.reconfigure()
        else:
            started = replica.reconfigure(shard)
        if run:
            self.run()
        return started

    def _pick_reconfigurer(self, shard: ShardId) -> str:
        for replica in self.replicas_by_shard[shard]:
            if not replica.crashed and replica.pid in self.members_of(shard):
                return replica.pid
        for replica in self.replicas_by_shard[shard]:
            if not replica.crashed:
                return replica.pid
        raise RuntimeError(f"no live process available to reconfigure shard {shard}")

    # ------------------------------------------------------------------
    # validation and metrics
    # ------------------------------------------------------------------
    def member_replicas_by_shard(self) -> Dict[ShardId, List[Any]]:
        """Replicas that are members of their shard's current configuration."""
        result: Dict[ShardId, List[Any]] = {}
        for shard in self.shards:
            members = set(self.members_of(shard))
            result[shard] = [r for r in self.replicas_by_shard[shard] if r.pid in members]
        return result

    def check(self, include_invariants: bool = True) -> Tuple[CheckResult, List[InvariantViolation]]:
        """Check the recorded history and (optionally) the replica invariants."""
        checker = TCSChecker(self.scheme)
        result = checker.check(self.history)
        violations: List[InvariantViolation] = []
        if include_invariants:
            violations = check_invariants(self.member_replicas_by_shard(), self.history)
        return result, violations

    def client_latencies(self) -> List[float]:
        values: List[float] = []
        for client in self.clients:
            for txn in client.outcomes:
                latency = client.latency_of(txn)
                if latency is not None:
                    values.append(latency)
        return values

    def coordinator_entries(self) -> Dict[TxnId, Any]:
        entries: Dict[TxnId, Any] = {}
        for replica in self.replicas.values():
            for txn, entry in getattr(replica, "_coordinated", {}).items():
                if entry.decided and txn not in entries:
                    entries[txn] = entry
        return entries

    def protocol_latencies(self) -> List[float]:
        """Latency from the coordinator starting ``certify`` to the client
        receiving the decision (the paper's 5-message-delay path)."""
        values = []
        entries = self.coordinator_entries()
        for client in self.clients:
            for txn, decide_time in client.decide_times.items():
                entry = entries.get(txn)
                if entry is not None:
                    values.append(decide_time - entry.started_at)
        return values

    def phase_samples(self) -> Dict[str, List[float]]:
        """Per-phase latency samples along the commit path.

        For every transaction whose decision reached its client, splits the
        client-observed latency into submit -> certify start (request
        delivery), certify -> decide (the coordinator's certification
        critical path) and decide -> client (decision delivery).  Keys match
        :data:`repro.analysis.metrics.PHASES`.
        """
        return collect_phase_samples(self.clients, self.coordinator_entries())

    def colocated_latencies(self) -> List[float]:
        """Latency from the coordinator starting ``certify`` to it computing
        the decision (the co-located-client 4-message-delay path)."""
        return [
            entry.decided_at - entry.started_at
            for entry in self.coordinator_entries().values()
            if entry.decided_at is not None
        ]

    def abort_rate(self) -> float:
        decided = self.history.decided()
        if not decided:
            return 0.0
        aborts = sum(1 for d in decided.values() if d is Decision.ABORT)
        return aborts / len(decided)

    def retry_stats(self) -> RetryStats:
        """Aggregate session retry/failover/orphan counters plus the
        duplicate requests deduplicated by the replicas."""
        return collect_retry_stats(self.sessions, self.replicas.values())

    def batch_stats(self) -> BatchStats:
        """Aggregate batch counts and the batch-size distribution over every
        batching process — replicas and clients alike (empty when batching
        is disabled)."""
        return collect_batch_stats(list(self.replicas.values()) + self.clients)

    @property
    def message_stats(self):
        return self.network.stats
