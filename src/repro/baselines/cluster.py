"""The 2PC-over-Paxos binding of the cluster harness.

:class:`BaselineCluster` is :class:`repro.cluster.ClusterBase` bound to the
paper's comparison point: each shard is a Multi-Paxos group of ``2f + 1``
replicas running :class:`repro.baselines.twopc.CertificationStateMachine`,
and dedicated coordinator processes drive two-phase commit across the
groups.  Engine, client, router, driver API, ``check`` and every
collector are the base's, so both systems are driven and measured by the
same code; this module only says how the baseline differs.  It has no
configuration service (nothing reconfigures), no Figure 3 replica
invariants and no certification-bypassing read path, and it routes with the
same :class:`~repro.client.CoordinatorRouter` as the paper's protocols: its
coordinators are the members of one pseudo-shard that no transaction
involves — Figure 2's "a replica of a shard not involved", read literally.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.baselines.paxos import PaxosGroup, PaxosReplica
from repro.baselines.twopc import CertificationStateMachine, TwoPCCoordinator
from repro.client import CoordinatorRouter
from repro.cluster import ClusterBase
from repro.core.types import Configuration, ShardId, TxnId


class BaselineCluster(ClusterBase):
    """A simulated deployment of the vanilla 2PC-over-Paxos TCS."""

    REPLICA_INVARIANTS = False
    SNAPSHOT_READS = False

    def __init__(
        self,
        num_shards: int = 2,
        failures_tolerated: int = 1,
        num_coordinators: int = 1,
        **harness: Any,
    ) -> None:
        """``harness`` is what every binding takes, declared once on
        :class:`~repro.cluster.ClusterBase`: ``scheme``, ``latency``,
        ``seed``, ``retry``, ``batch``, ``read``, ``detector``, ``network``."""
        if failures_tolerated < 0 or num_coordinators < 1:
            raise ValueError("failures_tolerated must be >= 0 and num_coordinators >= 1")
        self.failures_tolerated = failures_tolerated
        self.replicas_per_shard = 2 * failures_tolerated + 1
        self.num_coordinators = num_coordinators
        self.groups: Dict[ShardId, PaxosGroup] = {}
        self.coordinators: List[TwoPCCoordinator] = []
        super().__init__(num_shards, **harness)

    # ------------------------------------------------------------------
    # the binding's hooks
    # ------------------------------------------------------------------
    def _build_servers(self) -> None:
        # With a detector policy the Paxos replicas exchange the same
        # heartbeats as the TCS replicas (suspicion accounting only):
        # protocol comparisons stay apples-to-apples.
        for shard in self.shards:
            self.groups[shard] = PaxosGroup(
                self.network,
                name=shard,
                size=self.replicas_per_shard,
                state_machine_factory=lambda shard=shard: CertificationStateMachine(
                    shard, self.scheme
                ),
                detector=self.detector,
            )
        shard_leaders = {shard: group.leader for shard, group in self.groups.items()}
        for i in range(self.num_coordinators):
            coordinator = TwoPCCoordinator(
                pid=f"coordinator-{i}",
                scheme=self.scheme,
                directory=self.directory,
                shard_leaders=shard_leaders,
                batch=self.batch,
                pipeline=self.network.link.pipeline,
            )
            self.network.register(coordinator)
            self.coordinators.append(coordinator)
        self._coordinator_pids = tuple(c.pid for c in self.coordinators)

    def _build_router(self) -> CoordinatorRouter:
        pids = self._coordinator_pids
        return CoordinatorRouter(
            {"coordinators": Configuration(epoch=0, members=pids, leader=pids[0])},
            sticky=self.network.link.sticky,
        )

    def _detector_processes(self) -> List[PaxosReplica]:
        return [replica for group in self.groups.values() for replica in group.replicas]

    def _coordinator_processes(self) -> List[TwoPCCoordinator]:
        return self.coordinators

    def coordinator_entries(self) -> Dict[TxnId, Any]:
        return {
            txn: entry
            for coordinator in self.coordinators
            for txn, entry in coordinator.transactions.items()
        }

    def _pick_coordinator(self, involved: Iterable[ShardId]) -> str:
        # The involved shards matter only as the sticky key: every
        # transaction has the same candidates.
        router = self.router
        key = tuple(sorted(involved)) if router.sticky else ()
        return router.choose(key, self._coordinator_pids)

    def leader_of(self, shard: ShardId) -> str:
        return self.groups[shard].leader

    def _read_engines(self) -> Tuple[()]:
        return ()

    # ------------------------------------------------------------------
    # baseline-only views
    # ------------------------------------------------------------------
    def durable_decision_latencies(self) -> List[float]:
        """Latency from the coordinator starting 2PC to the decision being
        durable on every shard (the baseline's 7-message-delay path)."""
        return [
            entry.durable_at - entry.started_at
            for coordinator in self.coordinators
            for entry in coordinator.transactions.values()
            if entry.durable_at is not None
        ]
