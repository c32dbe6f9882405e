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

from importlib import import_module

__version__ = "1.0.0"

# Every public name and the module it is defined in.  A name is imported on
# first access (PEP 562), so a process loads only the stack it runs: a
# message-passing run never imports the RDMA replicas or the 2PC baseline.
_EXPORTS = {
    "Cluster": "repro.cluster",
    "BaselineCluster": "repro.baselines.cluster",
    "Client": "repro.client",
    **dict.fromkeys(
        (
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
        ),
        "repro.core",
    ),
    "RdmaShardReplica": "repro.rdma",
    "BrokenRdmaShardReplica": "repro.rdma",
    **dict.fromkeys(
        (
            "FaultStep",
            "ScenarioResult",
            "ScenarioRunner",
            "ScenarioSpec",
            "WorkloadSpec",
            "get_scenario",
            "run_scenario",
            "run_sweep",
            "scenario_names",
        ),
        "repro.scenarios",
    ),
    "History": "repro.spec",
    "check_invariants": "repro.spec",
    "TransactionalStore": "repro.store",
    "VersionedKVStore": "repro.store",
    **dict.fromkeys(
        (
            "BankWorkload",
            "ReadWriteWorkload",
            "TransactionSpec",
            "UniformKeyGenerator",
            "ZipfianKeyGenerator",
        ),
        "repro.workload",
    ),
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy_exports(namespace, exports):
    """A package's PEP 562 ``__getattr__`` and ``__dir__``: each name of
    ``exports`` (name -> module) is imported on first access and kept in
    ``namespace``, the package's globals."""

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(exports[name]), name)
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
