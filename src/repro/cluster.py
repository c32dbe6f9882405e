"""Cluster harness: one-call construction of a complete simulated system.

:class:`ClusterBase` is the harness, written once for every transaction
certification service in the repository.  It owns the scheduler, the
network with its delay and link models, the transaction directory and the
history, the policies (retry, batch, read, detector), the one client and
its router, the heartbeat pump, and the driver API
used by the examples, the tests, the scenario runner and the benchmark
harness:

* :meth:`~ClusterBase.submit` / :meth:`~ClusterBase.run` /
  :meth:`~ClusterBase.run_until_decided` / :meth:`~ClusterBase.certify` /
  :meth:`~ClusterBase.certify_many` — drive transactions through the TCS;
* :meth:`~ClusterBase.check` — validate the recorded history against the
  TCS specification and the replica states against the Figure 3 invariants;
* the collectors (``client_latencies``, ``phase_samples``, ``retry_stats``,
  ``batch_stats``, ``read_stats``, ``detector_stats``, ...), so every
  protocol reports the same shapes.

A *binding* supplies only what differs between protocols (the hooks listed
in :class:`ClusterBase`).  There are two:

* :class:`Cluster` (here) — the paper's protocols: message passing, RDMA
  and the deliberately broken RDMA ablation, f + 1 replicas per shard plus
  spares and a configuration service.  It adds what reconfiguration needs:
  :meth:`Cluster.crash`, :meth:`Cluster.crash_leader`,
  :meth:`Cluster.crash_follower`, :meth:`Cluster.reconfigure`, and the
  snapshot-read fast path (:meth:`Cluster.submit_read`);
* :class:`repro.baselines.cluster.BaselineCluster` — vanilla 2PC over
  Paxos groups of 2f + 1 replicas, driven by dedicated coordinators.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    BatchStats,
    DetectorStats,
    ReadStats,
    RetryStats,
    collect_phase_samples,
)
from repro.client import Client, CoordinatorRouter, RetryPolicy
from repro.configservice.service import ConfigurationService
from repro.core.batching import BatchPolicy
from repro.core.certification import CertificationScheme
from repro.core.directory import TransactionDirectory
from repro.core.failuredetector import DetectorPolicy, HeartbeatPump
from repro.core.reads import ReadPolicy
from repro.core.reconfig import SparePool
from repro.core.serializability import (
    KeyHashSharding,
    SerializabilityScheme,
    SnapshotIsolationScheme,
    TransactionPayload,
)
from repro.core.types import (
    GLOBAL_SHARD,
    Configuration,
    Decision,
    GlobalConfiguration,
    ShardId,
    TxnId,
)
from repro.runtime.events import Scheduler
from repro.runtime.network import LatencySpec, Network, NetworkSpec
from repro.spec.history import History
from repro.spec.incremental import CheckResult, IncrementalTCSChecker
from repro.spec.invariants import InvariantViolation, check_invariants


_ISOLATION_SCHEMES = {
    "serializability": SerializabilityScheme,
    "snapshot-isolation": SnapshotIsolationScheme,
}


def _shard_ids(num_shards: int) -> List[ShardId]:
    return [f"shard-{i}" for i in range(num_shards)]


class ClusterBase:
    """The harness every simulated deployment shares (see the module
    docstring).  A binding subclasses it and supplies:

    * ``_build_servers()`` — create and register every non-client process,
      setting ``config_service`` where there is one (it stays None where
      nothing reconfigures);
    * ``_build_router()`` — the client's :class:`CoordinatorRouter`;
    * ``_detector_processes()`` — the processes the heartbeat pump drives
      (``detector``, ``emit_heartbeats``, ``tick_detector``), in build order;
    * ``_coordinator_processes()`` — the processes that can coordinate
      (``duplicate_certify_requests``, ``batchers``);
    * ``coordinator_entries()`` — txn -> the coordinator's book-keeping entry
      (``started_at`` / ``dispatched_at`` / ``decided_at``);
    * ``_pick_coordinator(involved)`` — the live coordinator of a submission
      over the ``involved`` shards, made without a retry policy;
    * ``leader_of(shard)``;
    * ``_read_engines()`` — the snapshot-read engines, which
      :meth:`seed_read_stores` seeds and :meth:`read_stats` sums;
    * optionally ``_post_build()``, below;
    * the two class constants.
    """

    #: Whether Figure 3's replica invariants can be checked against this
    #: binding's replicas (it then has ``member_replicas_by_shard()``).
    REPLICA_INVARIANTS: bool
    #: Whether single-shard read-only transactions may bypass certification
    #: through ``submit_read`` (the snapshot-read fast path).
    SNAPSHOT_READS: bool
    config_service: Any = None

    def __init__(
        self,
        num_shards: int,
        scheme: Optional[CertificationScheme] = None,
        latency: Optional[LatencySpec] = None,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        batch: Optional[BatchPolicy] = None,
        read: Optional[ReadPolicy] = None,
        detector: Optional[DetectorPolicy] = None,
        network: Optional[NetworkSpec] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.shards: List[ShardId] = _shard_ids(num_shards)
        self.scheme = scheme or SerializabilityScheme(KeyHashSharding(self.shards))
        self.scheduler = Scheduler()
        # The network validates and keeps both models; the cluster reads the
        # link model's commit-path toggles (pipeline, sticky) from it.
        self.network = Network(self.scheduler, latency=latency, seed=seed, link=network)
        self.directory = TransactionDirectory()
        self.history = History()
        self.retry = retry or RetryPolicy()
        self.batch = batch or BatchPolicy()
        self.read = read or ReadPolicy()
        self.detector = detector or DetectorPolicy()
        # Where a policy is checked on its way into a deployment, as the
        # network checks its two models (scenario specs and the CLI call the
        # same validate() earlier, to report the same message as a
        # ScenarioError).
        for policy in (self.retry, self.batch, self.read, self.detector):
            policy.validate()

        self._build_servers()
        service = self.config_service
        # One client per cluster, which owns the router (one rotation, one
        # set of sticky pins) and routes through one picker chosen here.
        self.router = self._build_router()
        self.client = Client(
            pid="client-0",
            scheme=self.scheme,
            directory=self.directory,
            history=self.history,
            router=self.router,
            pick=self.router.pick if self.retry.enabled else self._pick_coordinator,
            retry=self.retry,
            config_service=service.pid if service is not None else None,
            batch=self.batch,
        )
        self.network.register(self.client)
        # Kept as a one-element sequence for readers that iterate clients
        # (the benchmark reads ``clients[*].submit_times`` / ``decide_times``).
        self.clients: Tuple[Client, ...] = (self.client,)
        self._post_build()
        # Heartbeat pump: one cluster-level weak recurring tick, armed
        # exactly once here and self-re-armed only from inside the tick
        # thereafter.
        self.pump = HeartbeatPump(self.scheduler, self._detector_processes, self.detector)
        self.pump.start()

    # ------------------------------------------------------------------
    # transaction driving
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Any,
        coordinator: Optional[str] = None,
        txn: Optional[TxnId] = None,
    ) -> TxnId:
        """Submit a transaction for certification; returns its identifier.

        With a retry policy the client picks the coordinator from its
        router (no omniscient liveness peeking) and arms the timeout-driven
        re-submission machinery.  Without one, it asks the binding for a
        live coordinator and fires-and-forgets.
        """
        return self.client.submit(payload, coordinator=coordinator, txn=txn)

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
            if watcher.is_done():
                return True
            return self.scheduler.run_until(watcher.is_done, max_events=max_events)

    def certify(self, payload: Any, coordinator: Optional[str] = None) -> Decision:
        """Submit a transaction and run the simulation until it is decided."""
        txn = self.submit(payload, coordinator=coordinator)
        self._run_to_decisions([txn])
        return self.history.decision_of(txn)

    def certify_many(self, payloads: Sequence[Any]) -> Dict[TxnId, Decision]:
        """Submit the transactions together and run until all are decided."""
        txns = [self.submit(p) for p in payloads]
        self._run_to_decisions(txns)
        return {t: self.history.decision_of(t) for t in txns}

    def _run_to_decisions(self, txns: Sequence[TxnId]) -> None:
        if not self.run_until_decided(txns):
            undecided = [t for t in txns if self.history.decision_of(t) is None]
            raise RuntimeError(f"not decided: {', '.join(undecided)}")

    def decision_of(self, txn: TxnId) -> Optional[Decision]:
        return self.history.decision_of(txn)

    def seed_read_stores(self, initial: Mapping[str, Any]) -> None:
        """Seed every snapshot-read engine with the initial object values;
        no-op when the read policy is disabled.  Every engine shares
        ``initial`` by reference: it is asked only for its own shard's
        objects."""
        if not self.read.enabled:
            return
        for engine in self._read_engines():
            engine.seed(initial)

    # ------------------------------------------------------------------
    # validation and metrics
    # ------------------------------------------------------------------
    def check(self, include_invariants: bool = True) -> Tuple[CheckResult, List[InvariantViolation]]:
        """Check the recorded history and (optionally, where the binding has
        them) the replica invariants.  The history is replayed through the
        online checker, which is detached again: nothing stays subscribed."""
        checker = IncrementalTCSChecker(self.scheme, self.history)
        result = checker.result()
        checker.detach()
        violations: List[InvariantViolation] = []
        if include_invariants and self.REPLICA_INVARIANTS:
            violations = check_invariants(self.member_replicas_by_shard(), self.history)
        return result, violations

    def client_latencies(self) -> List[float]:
        """Client-observed latency: submission to decision receipt."""
        submitted = self.client.submit_times
        return [at - submitted[txn] for txn, at in self.client.decide_times.items()]

    def abort_rate(self) -> float:
        decided = self.history.decided()
        if not decided:
            return 0.0
        aborts = sum(1 for d in decided.values() if d is Decision.ABORT)
        return aborts / len(decided)

    def phase_samples(self) -> Dict[str, List[float]]:
        """Per-phase latency samples along the commit path.

        For every transaction whose decision reached its client, splits the
        client-observed latency into submit -> certify start (request
        delivery), certify -> decide (the coordinator's certification
        critical path) and decide -> client (decision delivery).  Keys match
        :data:`repro.analysis.metrics.PHASES`.
        """
        return collect_phase_samples(self.client, self.coordinator_entries())

    def colocated_latencies(self) -> List[float]:
        """Latency from the coordinator starting ``certify`` to it knowing
        the decision: the paper's co-located-client 4-message-delay path,
        and on the baseline 2PC start to votes combined (not yet durable)."""
        return [
            entry.decided_at - entry.started_at
            for entry in self.coordinator_entries().values()
            if entry.decided_at is not None
        ]

    def protocol_latencies(self) -> List[float]:
        """Latency from the coordinator starting ``certify`` to the client
        receiving the decision (the paper's 5-message-delay path)."""
        entries = self.coordinator_entries()
        return [
            decide_time - entries[txn].started_at
            for txn, decide_time in self.client.decide_times.items()
            if txn in entries
        ]

    def retry_stats(self) -> RetryStats:
        """The client's retry/failover/orphan counters plus the duplicate
        requests deduplicated by the coordinating processes."""
        client = self.client
        return RetryStats(
            retries=client.retries,
            failovers=client.failovers,
            pushed_failovers=client.pushed_failovers,
            orphaned=len(client.orphaned),
            duplicate_requests=sum(
                process.duplicate_certify_requests
                for process in self._coordinator_processes()
            ),
        )

    def batch_stats(self) -> BatchStats:
        """Aggregate batch counts and the batch-size distribution over every
        batching process — the coordinators and the client (empty when
        batching is disabled)."""
        batches = messages = 0
        sizes: Dict[int, int] = {}
        for process in [*self._coordinator_processes(), self.client]:
            for batcher in process.batchers:
                batches += batcher.batches_sent
                messages += batcher.messages_batched
                for size, count in batcher.size_counts.items():
                    sizes[size] = sizes.get(size, 0) + count
        return BatchStats(batches=batches, messages=messages, sizes=sizes)

    def read_stats(self) -> ReadStats:
        """The client's fast-path counters and the read engines' (all zero
        where the binding has no fast path)."""
        client = self.client
        engines = list(self._read_engines())
        return ReadStats(
            reads_served=client.reads_served,
            read_fallbacks=client.read_fallbacks,
            fallback_reasons=dict(client.read_fallback_reasons),
            refused_lease=sum(engine.reads_refused_lease for engine in engines),
            refused_pending=sum(engine.reads_refused_pending for engine in engines),
            stale_serves=sum(engine.stale_serves for engine in engines),
        )

    def detector_stats(self) -> DetectorStats:
        """Aggregate failure-detector counters over the detector-carrying
        processes, the client and the configuration service (all zero
        when the detector is off; the reconfiguration counters stay zero
        where there is no configuration service to drive)."""
        service = self.config_service
        processes = list(self._detector_processes())
        detectors = [p.detector for p in processes if p.detector is not None]
        return DetectorStats(
            heartbeat_ticks=self.pump.ticks,
            suspicions=sum(detector.suspicions for detector in detectors),
            false_suspicions=sum(detector.false_suspicions for detector in detectors),
            suspicion_reports=service.suspicion_reports if service is not None else 0,
            view_changes=service.view_changes if service is not None else 0,
            unsolicited_reconfigurations=(
                sum(p.unsolicited_reconfigurations for p in processes)
                if service is not None
                else 0
            ),
            pushed_failovers=self.client.pushed_failovers,
        )

    @property
    def message_stats(self):
        return self.network.stats

    # ------------------------------------------------------------------
    # optional hooks (the required ones are listed in the class docstring)
    # ------------------------------------------------------------------
    def _post_build(self) -> None:
        """Wiring and start-up traffic that need every process, the client
        included, to exist."""


PROTOCOL_MESSAGE_PASSING = "message-passing"
PROTOCOL_RDMA = "rdma"
PROTOCOL_BROKEN_RDMA = "broken-rdma"


@dataclass(frozen=True)
class ProtocolSpec:
    """How to assemble one protocol variant of the certification service.

    The variants are the entries of ``_PROTOCOL_REGISTRY``, so a new one is
    an entry there instead of a branch inside ``Cluster.__init__``:

    * ``replica`` — the shard-replica process class as ``"module:name"``,
      imported (``replica_cls``) when a cluster of the variant is built, so
      a run imports no other variant's stack;
    * ``global_config`` — True when the variant keeps a single system-wide
      configuration and epoch (the RDMA protocol of Section 5), stored in
      the configuration service under ``"*"``, rather than one configuration
      per shard;
    * ``post_build`` — optional hook ``post_build(cluster)`` run after all
      processes exist (the broken ablation uses it to leave RDMA access
      open between every pair of processes, which is exactly its bug).
    """

    name: str
    replica: str
    global_config: bool = False
    post_build: Optional[Callable[["Cluster"], None]] = None
    description: str = ""

    @property
    def replica_cls(self) -> type:
        module, _, name = self.replica.partition(":")
        return getattr(import_module(module), name)


def _open_rdma_everywhere(cluster: "Cluster") -> None:
    # The broken RDMA ablation keeps RDMA access open between every pair
    # of processes forever (that omission is exactly what makes it unsafe).
    all_pids = list(cluster.replicas)
    for replica in cluster.replicas.values():
        replica.open_to_all(all_pids)


_PROTOCOL_REGISTRY: Dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec(
            name=PROTOCOL_MESSAGE_PASSING,
            replica="repro.core.replica:ShardReplica",
            description="Figure 1: asynchronous message passing, per-shard reconfiguration",
        ),
        ProtocolSpec(
            name=PROTOCOL_RDMA,
            replica="repro.rdma.replica:RdmaShardReplica",
            global_config=True,
            description="Figures 7-8: RDMA data path, global reconfiguration",
        ),
        ProtocolSpec(
            name=PROTOCOL_BROKEN_RDMA,
            replica="repro.rdma.broken:BrokenRdmaShardReplica",
            post_build=_open_rdma_everywhere,
            description="Figure 4a ablation: RDMA data path + per-shard reconfiguration (unsafe)",
        ),
    )
}


def protocol_names() -> Tuple[str, ...]:
    return tuple(_PROTOCOL_REGISTRY)


def protocol_spec(name: str) -> ProtocolSpec:
    try:
        return _PROTOCOL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {protocol_names()}"
        ) from None


class Cluster(ClusterBase):
    """A complete simulated deployment of one of the paper's protocols."""

    REPLICA_INVARIANTS = True
    SNAPSHOT_READS = True

    def __init__(
        self,
        num_shards: int = 2,
        replicas_per_shard: int = 2,
        protocol: str = PROTOCOL_MESSAGE_PASSING,
        isolation: str = "serializability",
        scheme: Optional[CertificationScheme] = None,
        spares_per_shard: int = 2,
        **harness: Any,
    ) -> None:
        """``harness`` is what every binding takes, declared once on
        :class:`ClusterBase`: ``latency``, ``seed``, ``retry``, ``batch``,
        ``read``, ``detector``, ``network``."""
        spec = protocol_spec(protocol)
        if replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        if scheme is None:
            if isolation not in _ISOLATION_SCHEMES:
                raise ValueError(f"unknown isolation level {isolation!r}")
            scheme = _ISOLATION_SCHEMES[isolation](KeyHashSharding(_shard_ids(num_shards)))
        self.protocol = spec.name
        self.protocol_spec = spec
        self.replicas_per_shard = replicas_per_shard
        self.spares_per_shard = spares_per_shard
        self.replicas: Dict[str, Any] = {}
        self.replicas_by_shard: Dict[ShardId, List[Any]] = {}
        self.spare_pools: Dict[ShardId, SparePool] = {}
        # Coordinator-candidate lists per involved-shard set, invalidated
        # by the configuration service's version counter (submission is the
        # driver's hottest path; rebuilding the list per transaction costs
        # more than the whole routing decision).
        self._candidate_cache: Dict[Tuple[ShardId, ...], List[str]] = {}
        self._candidate_cache_version = -1
        super().__init__(num_shards, scheme=scheme, **harness)

    # ------------------------------------------------------------------
    # construction (the binding's hooks)
    # ------------------------------------------------------------------
    def _build_servers(self) -> None:
        spec = self.protocol_spec
        self.config_service = ConfigurationService("config-service")
        self.config_service.detector_confirmations = self.detector.confirmations
        self.network.register(self.config_service)

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
        if spec.global_config:
            self.config_service.install_initial(GLOBAL_SHARD, global_config)
        else:
            for shard, config in initial_configs.items():
                self.config_service.install_initial(shard, config)

        # Create replicas and spares.
        replica_cls = spec.replica_cls
        for shard in self.shards:
            pool = SparePool()
            self.spare_pools[shard] = pool
            self.replicas_by_shard[shard] = []
            pids = list(members_by_shard[shard]) + [
                f"{shard}/spare{i}" for i in range(self.spares_per_shard)
            ]
            for pid in pids:
                replica = replica_cls(
                    pid=pid,
                    shard=shard,
                    scheme=self.scheme,
                    directory=self.directory,
                    config_service=self.config_service.pid,
                    target_size=self.replicas_per_shard,
                    batch=self.batch,
                    read=self.read,
                    detector=self.detector,
                    pipeline=self.network.link.pipeline,
                )
                self.network.register(replica)
                self.replicas[pid] = replica
                self.replicas_by_shard[shard].append(replica)
                if pid not in members_by_shard[shard]:
                    pool.add(pid)

        # Bootstrap configuration knowledge: every shard's initial record, or
        # its slice of the initial global one.
        bootstrap_view = (
            global_config.by_shard(GLOBAL_SHARD) if spec.global_config else initial_configs
        )
        for replica in self.replicas.values():
            replica.spare_pools = self.spare_pools
            replica.bootstrap(bootstrap_view)

        self.initial_configs = initial_configs

    def _build_router(self) -> CoordinatorRouter:
        """Seeded from the bootstrap configurations; with retry enabled it
        tracks reconfigurations through the subscription in ``_post_build``,
        the way a real TCS client library would."""
        return CoordinatorRouter(self.initial_configs, sticky=self.network.link.sticky)

    def _post_build(self) -> None:
        self.client.global_config_service = self.protocol_spec.global_config
        if self.retry.enabled:
            self.config_service.subscribe(self.client.pid)
        if self.protocol_spec.post_build is not None:
            self.protocol_spec.post_build(self)
        self.request_read_leases()

    def _detector_processes(self) -> Iterable[Any]:
        return self.replicas.values()

    _coordinator_processes = _detector_processes  # any replica can coordinate

    def _read_engines(self) -> List[Any]:
        engines = (replica.read_engine for replica in self.replicas.values())
        return [engine for engine in engines if engine is not None]

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    def replica(self, pid: str):
        return self.replicas[pid]

    def current_configuration(self, shard: ShardId) -> Configuration:
        return self.config_service.shard_configuration(shard)

    def leader_of(self, shard: ShardId) -> str:
        return self.current_configuration(shard).leader

    def followers_of(self, shard: ShardId) -> Tuple[str, ...]:
        return self.current_configuration(shard).followers

    def members_of(self, shard: ShardId) -> Tuple[str, ...]:
        return self.current_configuration(shard).members

    # ------------------------------------------------------------------
    # transaction driving
    # ------------------------------------------------------------------
    def _pick_coordinator(self, involved: Iterable[ShardId]) -> str:
        """Pick a replica to coordinate a transaction over ``involved``.

        Mirrors Figure 2, where the coordinator is a replica of a shard not
        involved in the transaction: we prefer members of uninvolved shards
        (this also keeps the latency accounting identical to the paper's
        5-delay analysis) and fall back to members of the involved shards
        when every shard participates.  Unlike the router's own ``pick``,
        this path is omniscient: it reads the configuration service's
        current members and skips crashed ones.
        """
        involved = tuple(sorted(involved)) or (self.shards[0],)
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
        return self.router.choose(involved, live or candidates)

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

    def submit_read(
        self, objects: Sequence[str], fallback_payload: TransactionPayload
    ) -> TxnId:
        """Submit a single-shard read-only transaction on the snapshot-read
        fast path (leader-local, no coordinator, no certification).

        ``fallback_payload`` is the read-only payload — the objects at the
        client's current committed versions — certified through the normal
        path if the leader refuses or, under a retry policy, times out.
        Multi-shard reads and disabled read policies must use
        :meth:`submit` instead.
        """
        if not self.read.enabled:
            raise RuntimeError("submit_read requires an enabled read policy")
        txn = self._try_submit_read(objects, fallback_payload)
        if txn is None:
            shards = sorted({self.scheme.sharding.shard_of(obj) for obj in objects})
            raise ValueError(f"snapshot reads are single-shard (got {shards})")
        return txn

    def _try_submit_read(
        self, objects: Sequence[str], fallback_payload: TransactionPayload
    ) -> Optional[TxnId]:
        """Send the snapshot read if ``objects`` live on one shard, resolving
        that shard once; None, with nothing sent, if they span several."""
        shard_of = self.scheme.sharding.shard_of
        shards = {shard_of(obj) for obj in objects}
        if len(shards) != 1:
            return None
        (shard,) = shards
        return self.client.submit_read(
            objects=objects,
            shard=shard,
            leader=self.leader_of(shard),
            fallback_payload=fallback_payload,
        )

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
    # replica views
    # ------------------------------------------------------------------
    def member_replicas_by_shard(self) -> Dict[ShardId, List[Any]]:
        """Replicas that are members of their shard's current configuration."""
        result: Dict[ShardId, List[Any]] = {}
        for shard in self.shards:
            members = set(self.members_of(shard))
            result[shard] = [r for r in self.replicas_by_shard[shard] if r.pid in members]
        return result

    def coordinator_entries(self) -> Dict[TxnId, Any]:
        entries: Dict[TxnId, Any] = {}
        for replica in self.replicas.values():
            for txn, entry in replica._coordinated.items():
                if entry.decision is not None and txn not in entries:
                    entries[txn] = entry
        return entries
