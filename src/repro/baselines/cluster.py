"""Driver harness for the 2PC-over-Paxos baseline.

Mirrors the API of :class:`repro.cluster.Cluster` (submit / run / certify /
latency and message metrics) so that the benchmark harness can sweep both
systems with the same code.  Each shard is a Multi-Paxos group of ``2f + 1``
replicas running :class:`repro.baselines.twopc.CertificationStateMachine`;
dedicated coordinator processes drive two-phase commit across the groups.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    BatchStats,
    RetryStats,
    collect_batch_stats,
    collect_phase_samples,
    collect_retry_stats,
)
from repro.baselines.paxos import PaxosGroup
from repro.baselines.twopc import CertificationStateMachine, TwoPCCoordinator
from repro.client import Client, ClientSession, RetryPolicy, StaticRouter
from repro.core.batching import BatchPolicy
from repro.core.certification import CertificationScheme
from repro.core.directory import TransactionDirectory
from repro.core.failuredetector import DetectorPolicy, HeartbeatPump
from repro.core.reads import ReadPolicy
from repro.core.serializability import KeyHashSharding, SerializabilityScheme
from repro.core.types import Decision, ShardId, TxnId
from repro.runtime.events import Scheduler
from repro.runtime.network import LatencyModel, LinkSpec, Network, UnitLatency
from repro.runtime.parallel import GroupedScheduler, partition_contiguous
from repro.spec.checker import CheckResult, TCSChecker
from repro.spec.history import History
from repro.store.kv import VersionedKVStore


class BaselineCluster:
    """A simulated deployment of the vanilla 2PC-over-Paxos TCS."""

    def __init__(
        self,
        num_shards: int = 2,
        failures_tolerated: int = 1,
        num_clients: int = 1,
        num_coordinators: int = 1,
        scheme: Optional[CertificationScheme] = None,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        batch: Optional[BatchPolicy] = None,
        groups: int = 0,
        read: Optional[ReadPolicy] = None,
        detector: Optional[DetectorPolicy] = None,
        link: Optional[LinkSpec] = None,
        pipeline: bool = True,
        sticky: bool = False,
    ) -> None:
        if num_shards < 1 or failures_tolerated < 0:
            raise ValueError("num_shards must be >= 1 and failures_tolerated >= 0")
        self.num_shards = num_shards
        self.failures_tolerated = failures_tolerated
        self.replicas_per_shard = 2 * failures_tolerated + 1
        self.shards: List[ShardId] = [f"shard-{i}" for i in range(num_shards)]
        self.scheme = scheme or SerializabilityScheme(KeyHashSharding(self.shards))

        # groups > 0 selects the conservative parallel-DES engine (see
        # repro.runtime.parallel): Paxos groups partition into that many
        # scheduler groups, coordinators and clients stay in group 0.
        self.exec_groups = groups
        self.scheduler = GroupedScheduler(groups) if groups else Scheduler()
        self.network = Network(
            self.scheduler, latency=latency or UnitLatency(), seed=seed, link=link
        )
        self.pipeline = pipeline
        self.sticky = sticky
        self._sticky_coordinator: Dict[int, str] = {}
        self.directory = TransactionDirectory()
        self.history = History()

        # The baseline has no certification-bypassing read path, but when a
        # read policy is active its state machines maintain the same applied
        # stores and closed-timestamp watermarks as the snapshot-read
        # replicas, keeping protocol comparisons apples-to-apples.
        self.read = read or ReadPolicy()
        # Passive failure detection (heartbeats + suspicion accounting only;
        # the baseline has no reconfiguration path for the detector to drive).
        self.detector = detector or DetectorPolicy()
        self.detector.validate()
        self.groups: Dict[ShardId, PaxosGroup] = {}
        for shard in self.shards:
            self.groups[shard] = PaxosGroup(
                self.network,
                name=shard,
                size=self.replicas_per_shard,
                state_machine_factory=lambda shard=shard: CertificationStateMachine(
                    shard,
                    self.scheme,
                    applied_store=VersionedKVStore() if self.read.enabled else None,
                ),
                detector=self.detector,
            )

        shard_leaders = {shard: group.leader for shard, group in self.groups.items()}
        self.batch = batch or BatchPolicy()
        self.coordinators: List[TwoPCCoordinator] = []
        for i in range(num_coordinators):
            coordinator = TwoPCCoordinator(
                pid=f"coordinator-{i}",
                scheme=self.scheme,
                directory=self.directory,
                shard_leaders=shard_leaders,
                batch=self.batch,
                pipeline=self.pipeline,
            )
            self.network.register(coordinator)
            self.coordinators.append(coordinator)

        self.clients: List[Client] = []
        for i in range(num_clients):
            client = Client(
                pid=f"client-{i}",
                scheme=self.scheme,
                directory=self.directory,
                history=self.history,
                batch=self.batch,
            )
            self.network.register(client)
            self.clients.append(client)
        self._round_robin = 0

        # Client sessions (same surface as Cluster): the baseline has fixed
        # dedicated coordinators, so the router is a static round-robin;
        # retries re-submit to the next coordinator in line.
        self.retry = retry or RetryPolicy()
        self.router = StaticRouter([c.pid for c in self.coordinators], sticky=self.sticky)
        self.sessions: List[ClientSession] = [
            ClientSession(client, self.router, self.scheme, self.retry)
            for client in self.clients
        ]

        if groups:
            self.scheduler.install(self.network, self._group_partition())
        # Heartbeat pump (see Cluster.__init__): one weak recurring tick
        # armed exactly once at build, self-re-armed from inside the tick.
        self.pump = HeartbeatPump(self.scheduler, self._all_paxos_replicas, self.detector)
        self.pump.start()

    def _all_paxos_replicas(self) -> List[Any]:
        return [r for group in self.groups.values() for r in group.replicas]

    def _group_partition(self) -> Dict[str, int]:
        """Shards to contiguous groups; replicas follow their shard; the
        clients (the only history writers) and the dedicated coordinators
        share group 0, preserving the serial history append order."""
        shard_group = partition_contiguous(self.shards, self.exec_groups)
        group_of: Dict[str, int] = {}
        for shard, group in self.groups.items():
            for pid in group.pids:
                group_of[pid] = shard_group[shard]
        for coordinator in self.coordinators:
            group_of[coordinator.pid] = 0
        for client in self.clients:
            group_of[client.pid] = 0
        return group_of

    # ------------------------------------------------------------------
    # transaction driving (same surface as Cluster)
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Any,
        client_index: int = 0,
        coordinator: Optional[str] = None,
        txn: Optional[TxnId] = None,
    ) -> TxnId:
        if self.retry.enabled:
            return self.sessions[client_index].submit(
                payload, coordinator=coordinator, txn=txn
            )
        client = self.clients[client_index]
        if coordinator is None:
            if self.sticky:
                # Sticky affinity: each client keeps its coordinator so that
                # coordinator's command batches fill deeper.
                coordinator = self._sticky_coordinator.get(client_index)
                if coordinator is None:
                    self._round_robin += 1
                    coordinator = self.coordinators[
                        self._round_robin % len(self.coordinators)
                    ].pid
                    self._sticky_coordinator[client_index] = coordinator
            else:
                self._round_robin += 1
                coordinator = self.coordinators[
                    self._round_robin % len(self.coordinators)
                ].pid
        return client.submit(payload, coordinator=coordinator, txn=txn)

    def run(self, max_time: Optional[float] = None, max_events: Optional[int] = None) -> int:
        return self.scheduler.run(max_time=max_time, max_events=max_events)

    def run_until_decided(
        self, txns: Optional[Sequence[TxnId]] = None, max_events: int = 1_000_000
    ) -> bool:
        with self.history.watch(txns) as watcher:
            if watcher.done:
                return True
            return self.scheduler.run_until(watcher.is_done, max_events=max_events)

    def certify(self, payload: Any, client_index: int = 0) -> Decision:
        txn = self.submit(payload, client_index=client_index)
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
    # metrics
    # ------------------------------------------------------------------
    def leader_of(self, shard: ShardId) -> str:
        return self.groups[shard].leader

    def seed_read_stores(self, initial: Dict[str, Any]) -> None:
        """Seed the state machines' applied stores with the initial values
        (no-op without a read policy; mirrors ``Cluster.seed_read_stores``)."""
        if not self.read.enabled:
            return
        sharding = self.scheme.sharding
        for group in self.groups.values():
            for replica in group.replicas:
                machine = replica.state_machine
                store = machine.applied_store
                if store is None:
                    continue
                for obj, value in initial.items():
                    if sharding.shard_of(obj) == machine.shard:
                        store.seed(obj, value)

    def watermark_of(self, shard: ShardId) -> Any:
        """The closed-timestamp watermark of the shard leader's state machine."""
        return self.groups[shard].leader_replica.state_machine.watermark

    def client_latencies(self) -> List[float]:
        values = []
        for client in self.clients:
            for txn in client.outcomes:
                latency = client.latency_of(txn)
                if latency is not None:
                    values.append(latency)
        return values

    def durable_decision_latencies(self) -> List[float]:
        """Latency from the coordinator starting 2PC to the decision being
        durable on every shard (the baseline's 7-message-delay path)."""
        values = []
        for coordinator in self.coordinators:
            for entry in coordinator.transactions.values():
                if entry.durable_at is not None:
                    values.append(entry.durable_at - entry.started_at)
        return values

    def vote_latencies(self) -> List[float]:
        """Latency from 2PC start to the decision being known (not yet durable)."""
        values = []
        for coordinator in self.coordinators:
            for entry in coordinator.transactions.values():
                if entry.decided_at is not None:
                    values.append(entry.decided_at - entry.started_at)
        return values

    def phase_samples(self) -> Dict[str, List[float]]:
        """Per-phase latency samples (same keys as ``Cluster.phase_samples``):
        submit -> 2PC start, 2PC start -> decision known, decision -> client."""
        entries = {
            txn: entry
            for coordinator in self.coordinators
            for txn, entry in coordinator.transactions.items()
        }
        return collect_phase_samples(self.clients, entries)

    def abort_rate(self) -> float:
        decided = self.history.decided()
        if not decided:
            return 0.0
        aborts = sum(1 for d in decided.values() if d is Decision.ABORT)
        return aborts / len(decided)

    def retry_stats(self) -> RetryStats:
        return collect_retry_stats(self.sessions, self.coordinators)

    def detector_stats(self) -> Dict[str, Any]:
        """Passive detector counters (no view changes in the baseline)."""
        stats: Dict[str, Any] = {
            "heartbeat_ticks": self.pump.ticks,
            "suspicions": 0,
            "false_suspicions": 0,
            "suspicion_reports": 0,
            "view_changes": 0,
            "unsolicited_reconfigurations": 0,
            "pushed_failovers": 0,
        }
        for replica in self._all_paxos_replicas():
            if replica.detector is not None:
                stats["suspicions"] += replica.detector.suspicions
                stats["false_suspicions"] += replica.detector.false_suspicions
        for session in self.sessions:
            stats["pushed_failovers"] += session.pushed_failovers
        return stats

    def batch_stats(self) -> BatchStats:
        return collect_batch_stats(list(self.coordinators) + self.clients)

    def check(self) -> Tuple[CheckResult, list]:
        checker = TCSChecker(self.scheme)
        return checker.check(self.history), []

    @property
    def message_stats(self):
        return self.network.stats
