"""Reconfigurable Atomic Transaction Commit — reproduction library.

This package reproduces the protocols of *Reconfigurable Atomic Transaction
Commit* (Bravo & Gotsman, PODC 2019): a Transaction Certification Service
with ``f + 1`` replicas per shard, reconfigured through an external
configuration service, in both the asynchronous message-passing model and an
RDMA model — together with the substrates the paper assumes (simulated
network and RDMA, configuration service, Paxos), the 2PC-over-Paxos baseline
it compares against, a transactional key-value store built on top, workload
generators, a specification checker and a benchmark harness.

Quickstart::

    from repro import Cluster, TransactionalStore

    cluster = Cluster(num_shards=2, replicas_per_shard=2)
    store = TransactionalStore(cluster, initial={"x": 0, "y": 0})
    outcome = store.transact(lambda ctx: ctx.write("x", ctx.read("x") + 1))
    assert outcome.committed
"""

from repro.cluster import Cluster
from repro.baselines.cluster import BaselineCluster
from repro.client import Client
from repro.core import (
    BOTTOM,
    CertificationScheme,
    Configuration,
    Decision,
    KeyHashSharding,
    Phase,
    SerializabilityScheme,
    ShardReplica,
    SnapshotIsolationScheme,
    Status,
    TransactionDirectory,
    TransactionPayload,
)
from repro.rdma import BrokenRdmaShardReplica, RdmaShardReplica
from repro.scenarios import (
    FaultStep,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    run_scenario,
    run_sweep,
    scenario_names,
)
from repro.spec import History, check_invariants
from repro.store import TransactionalStore, VersionedKVStore
from repro.workload import (
    BankWorkload,
    ReadWriteWorkload,
    TransactionSpec,
    UniformKeyGenerator,
    ZipfianKeyGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "BaselineCluster",
    "Client",
    "BOTTOM",
    "CertificationScheme",
    "Configuration",
    "Decision",
    "KeyHashSharding",
    "Phase",
    "SerializabilityScheme",
    "ShardReplica",
    "SnapshotIsolationScheme",
    "Status",
    "TransactionDirectory",
    "TransactionPayload",
    "RdmaShardReplica",
    "BrokenRdmaShardReplica",
    "FaultStep",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "WorkloadSpec",
    "get_scenario",
    "run_scenario",
    "run_sweep",
    "scenario_names",
    "History",
    "check_invariants",
    "TransactionalStore",
    "VersionedKVStore",
    "BankWorkload",
    "ReadWriteWorkload",
    "TransactionSpec",
    "UniformKeyGenerator",
    "ZipfianKeyGenerator",
    "__version__",
]
