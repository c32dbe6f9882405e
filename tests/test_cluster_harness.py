"""The cluster harness is one base with two bindings.

``Cluster`` (the paper's protocols) and ``BaselineCluster`` (2PC over
Paxos) subclass ``repro.cluster.ClusterBase``: these tests keep the two from
drifting apart again — same validation, same driver API, same collector
shapes, and literally the same function objects for everything the base
owns.
"""

import gc
import inspect
from collections.abc import Mapping
from dataclasses import replace

import pytest

from repro.analysis.metrics import BatchStats, RetryStats
from repro.baselines.cluster import BaselineCluster
from repro.cluster import Cluster, ClusterBase
from repro.core.reads import ReadPolicy
from repro.core.types import Decision
from repro.runtime.network import LatencySpec, NetworkSpec
from repro.scenarios import ScenarioRunner, get_scenario

from helpers import TCSChecker, record, rw_payload, shard_key

BINDINGS = [Cluster, BaselineCluster]


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
# What the base owns: the wiring, the driver API and every collector.
OWNED_BY_THE_BASE = (
    "submit",
    "run",
    "run_until_decided",
    "certify",
    "certify_many",
    "decision_of",
    "seed_read_stores",
    "check",
    "client_latencies",
    "abort_rate",
    "phase_samples",
    "colocated_latencies",
    "protocol_latencies",
    "retry_stats",
    "batch_stats",
    "read_stats",
    "detector_stats",
    "message_stats",
)


@pytest.mark.parametrize("name", OWNED_BY_THE_BASE)
def test_bindings_share_the_base_implementation(name):
    """Same function object on both classes, so the copies cannot come back."""
    assert getattr(Cluster, name) is getattr(BaselineCluster, name)
    assert getattr(Cluster, name) is getattr(ClusterBase, name)


def test_bindings_declare_what_the_runner_and_store_used_to_guess():
    assert Cluster.REPLICA_INVARIANTS and Cluster.SNAPSHOT_READS
    assert not BaselineCluster.REPLICA_INVARIANTS and not BaselineCluster.SNAPSHOT_READS
    assert BaselineCluster().config_service is None
    assert Cluster().config_service.pid == "config-service"


def test_shared_constructor_parameters_are_declared_once_and_none_was_added():
    """Both bindings forward ``**harness`` to the base; what that accepts is
    exactly what the two constructors used to spell out separately."""
    shared = set(inspect.signature(ClusterBase.__init__).parameters) - {"self"}
    assert shared == {
        "num_shards", "scheme", "latency", "seed", "retry", "batch", "read",
        "detector", "network",
    }  # fmt: skip
    with pytest.raises(TypeError, match="isolation"):
        BaselineCluster(isolation="serializability")
    with pytest.raises(TypeError, match="num_coordinators"):
        Cluster(num_coordinators=2)


# ----------------------------------------------------------------------
# validation, once, for both bindings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("binding", BINDINGS)
@pytest.mark.parametrize(
    "bad",
    [
        {"num_shards": 0},
        {"read": ReadPolicy(mode="bogus")},
        {"read": ReadPolicy(mode="snapshot", lease=-1)},
        {"latency": LatencySpec(model="fixed", value=0.0)},
        {"network": NetworkSpec(bandwidth=-1.0)},
    ],
    ids=["no-shards", "read-mode", "read-lease", "latency", "network"],
)
def test_bindings_validate_alike(binding, bad):
    with pytest.raises(ValueError):
        binding(**bad)


# ----------------------------------------------------------------------
# check() reads the checker attached at build and subscribes nothing
# ----------------------------------------------------------------------
def _listener_counts(history):
    return (
        len(history._certify_listeners),
        len(history._decide_listeners),
        len(history._contradiction_listeners),
    )


@pytest.mark.parametrize("binding", BINDINGS)
def test_check_mid_run_leaves_nothing_behind(binding):
    """``check()`` reads the verdict of the checker the cluster attached at
    build: called while transactions are in flight it leaves every listener
    list as it found it, a second call agrees with the first, and the
    finished run checks like the batch oracle."""
    cluster = binding(num_shards=2)
    history = cluster.history
    record(history)
    first = [cluster.submit(rw_payload(f"k{i % 4}", tiebreak=f"a{i}")) for i in range(6)]
    cluster.run_until_decided(first)
    for i in range(6):
        cluster.submit(rw_payload(f"k{i % 4}", tiebreak=f"b{i}"))
    cluster.run(max_events=20)
    assert history.pending() and history.decided()  # genuinely mid-run
    before = _listener_counts(history)
    check, _ = cluster.check()
    assert _listener_counts(history) == before
    again, _ = cluster.check()
    assert (again.ok, again.reason, again.linearization) == (
        check.ok, check.reason, check.linearization
    )
    cluster.run()
    assert not history.pending()
    final, violations = cluster.check()
    oracle = TCSChecker(cluster.scheme).check(history)
    assert (final.ok, final.reason) == (oracle.ok, oracle.reason)
    assert final.ok and violations == []
    assert _listener_counts(history) == before


# ----------------------------------------------------------------------
# certify_many fails like certify
# ----------------------------------------------------------------------
def _stranded_payloads(cluster):
    """Two payloads on shard-0, whose leader (or only coordinator) is down."""
    keys = [shard_key(cluster.scheme, "shard-0", hint=hint) for hint in ("a", "b")]
    return [rw_payload(key, tiebreak=key) for key in keys]


@pytest.mark.parametrize("binding", BINDINGS)
def test_certify_many_raises_and_names_the_undecided(binding):
    cluster = binding(num_shards=2)
    if binding is Cluster:
        cluster.crash_leader("shard-0")
    else:
        cluster.network.crash("coordinator-0")
    payloads = _stranded_payloads(cluster)
    with pytest.raises(RuntimeError, match="client-0/t1") as raised:
        cluster.certify_many(payloads[:1])
    assert "not decided" in str(raised.value)
    with pytest.raises(RuntimeError, match="not decided"):
        cluster.certify(payloads[1])


# ----------------------------------------------------------------------
# parity of the driver API and the collectors across all four protocols
# ----------------------------------------------------------------------
PROTOCOLS = ("message-passing", "rdma", "broken-rdma", "2pc-paxos")


def _built(protocol):
    spec = get_scenario("steady-state")
    spec = spec.with_overrides(
        protocol=protocol,
        replicas_per_shard=3,
        workload=replace(spec.workload, txns=20),
    )
    runner = ScenarioRunner(spec)
    result = runner.run()
    assert result.committed + result.aborted == 20 and result.safety_ok
    return runner.cluster


@pytest.fixture(scope="module")
def clusters():
    return {protocol: _built(protocol) for protocol in PROTOCOLS}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_collectors_have_the_same_shape_on_every_protocol(clusters, protocol):
    cluster, reference = clusters[protocol], clusters["message-passing"]
    for collector in ("read_stats", "detector_stats"):
        stats = getattr(cluster, collector)()
        assert isinstance(stats, Mapping), collector
        assert set(stats) == set(getattr(reference, collector)()), collector
    assert type(cluster.retry_stats()) is RetryStats
    assert type(cluster.batch_stats()) is BatchStats
    assert set(cluster.phase_samples()) == set(reference.phase_samples())
    assert len(cluster.colocated_latencies()) == 20


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_driver_api_takes_the_same_calls_on_every_protocol(clusters, protocol):
    cluster = clusters[protocol]
    for include_invariants in (True, False):
        check, violations = cluster.check(include_invariants=include_invariants)
        assert check.ok and violations == []
    pinned = next(iter(cluster._coordinator_processes())).pid
    decision = cluster.certify(rw_payload("pinned", tiebreak="p"), coordinator=pinned)
    assert decision is Decision.COMMIT
    txn = list(cluster.client.submit_times)[-1]
    assert _coordinators_of(cluster, txn) == [pinned]


def _coordinators_of(cluster, txn):
    """The processes whose own book-keeping has an entry for ``txn``: a
    replica's ``coordinated`` entry, or a 2PC coordinator's transaction."""
    return [
        process.pid
        for process in cluster._coordinator_processes()
        if (
            process.coordinated(txn)
            if hasattr(process, "coordinated")
            else process.transactions.get(txn)
        )
        is not None
    ]


# ----------------------------------------------------------------------
# a run makes no cyclic garbage
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ("message-passing", "rdma", "2pc-paxos"))
def test_a_run_leaves_nothing_for_the_cyclic_collector(protocol):
    """Build, 300 transactions, a leader crash with its reconfiguration
    (the baseline accepts no faults), collect: with the cluster still
    referenced the collector finds nothing unreachable, so every pass it
    makes over a run's heap is spent confirming that."""
    spec = get_scenario("leader-crash-under-load")
    overrides = {"protocol": protocol, "workload": replace(spec.workload, txns=300)}
    if protocol == "2pc-paxos":
        overrides.update(faults=(), replicas_per_shard=3)
    spec = spec.with_overrides(**overrides)
    gc.collect()
    gc.disable()
    try:
        runner = ScenarioRunner(spec)
        result = runner.run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert result.committed + result.aborted == 300 and result.safety_ok
    assert len(result.faults_executed) == len(spec.faults)
    assert runner.cluster is not None and unreachable == 0
