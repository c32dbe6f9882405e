"""Tests specific to the RDMA-based protocol (Figures 7-8)."""

import pytest

from repro.cluster import Cluster
from repro.core.reconfig import ReconfigMixin
from repro.core.replica import ShardReplica
from repro.core.types import Decision, Status
from repro.rdma.broken import BrokenRdmaShardReplica
from repro.rdma.replica import RdmaShardReplica

from helpers import certification_order, payload, rw_payload, shard_key


@pytest.fixture
def cluster():
    return Cluster(num_shards=2, replicas_per_shard=2, protocol="rdma", seed=41)


def test_initial_members_have_open_connections(cluster):
    all_members = [pid for shard in cluster.shards for pid in cluster.members_of(shard)]
    for pid in all_members:
        replica = cluster.replica(pid)
        assert replica.rdma.connections == set(all_members) - {pid}


def test_followers_persist_votes_without_accept_ack_messages(cluster):
    txn = cluster.submit(rw_payload("x", tiebreak="a"))
    cluster.run_until_decided([txn])
    cluster.run()
    stats = cluster.message_stats
    # No ACCEPT_ACK messages exist in the RDMA protocol: followers are
    # persisted by one-sided writes and NIC-level acks.
    assert stats.sent_by_type.get("AcceptAck", 0) == 0
    assert stats.sent_by_type.get("RdmaWrite", 0) > 0
    assert stats.sent_by_type.get("RdmaAck", 0) > 0


def test_receive_buffers_hold_only_unpolled_writes_after_a_run(cluster):
    """Every ACCEPT and DECISION written under load is polled, and a poll
    releases its write: a drained run leaves every receive buffer empty."""
    txns = [cluster.submit(rw_payload(f"k{i}", tiebreak=str(i))) for i in range(40)]
    cluster.run_until_decided(txns)
    cluster.run()
    replicas = list(cluster.replicas.values())
    assert sum(replica.rdma.writes_acked for replica in replicas) > 40
    for replica in replicas:
        assert all(not buffer for buffer in replica.rdma.buffers.values())
        assert replica.rdma.writes_rejected_remotely == 0


def test_global_reconfiguration_bumps_every_shard(cluster):
    cluster.certify(rw_payload("x", tiebreak="a"))
    crashed = cluster.crash_follower("shard-1")
    assert cluster.reconfigure(initiator=cluster.leader_of("shard-0"), suspects=[crashed])
    config = cluster.config_service.last_configuration()
    assert config.epoch == 2
    # Every live replica of every shard moved to the new system-wide epoch.
    for shard in cluster.shards:
        for pid in config.members[shard]:
            assert cluster.replica(pid).epoch == 2
    assert crashed not in config.members["shard-1"]


def test_certification_continues_after_global_reconfiguration(cluster):
    first = rw_payload("x", version=0, tiebreak="a")
    assert cluster.certify(first) is Decision.COMMIT
    crashed = cluster.crash_follower("shard-0")
    assert cluster.reconfigure(initiator=cluster.leader_of("shard-1"), suspects=[crashed])
    # Conflict detection survives: a stale rewrite of x aborts, a fresh one commits.
    assert cluster.certify(rw_payload("x", version=0, tiebreak="stale")) is Decision.ABORT
    fresh = payload(reads=[("x", first.commit_version)], writes=[("x", 2)], tiebreak="b")
    assert cluster.certify(fresh) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_leader_crash_recovered_by_global_reconfiguration(cluster):
    assert cluster.certify(rw_payload("x", tiebreak="a")) is Decision.COMMIT
    crashed = cluster.crash_leader("shard-0")
    initiator = cluster.leader_of("shard-1")
    assert cluster.reconfigure(initiator=initiator, suspects=[crashed])
    config = cluster.config_service.last_configuration()
    assert config.leaders["shard-0"] != crashed
    assert cluster.certify(rw_payload("y", tiebreak="b")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_probed_processes_close_connections(cluster):
    """Closing RDMA connections on PROBE is what restores safety (Section 5)."""
    follower = cluster.followers_of("shard-0")[0]
    replica = cluster.replica(follower)
    assert replica.rdma.connections  # open initially
    cluster.reconfigure(initiator=cluster.leader_of("shard-1"), run=False)
    # Run just far enough for probes to arrive.
    cluster.run(max_time=5.0)
    assert replica.status in (Status.RECONFIGURING, Status.FOLLOWER, Status.LEADER)
    # After the reconfiguration completes, connections are re-established to
    # the members of the new configuration.
    cluster.run()
    config = cluster.config_service.last_configuration()
    expected_peers = set(config.all_processes())
    if follower in expected_peers:
        assert replica.rdma.connections <= expected_peers
        assert replica.rdma.connections  # reconnected


def test_new_leader_flushes_before_state_transfer(cluster):
    """The flush() call on NEW_CONFIG means every write acked before the
    reconfiguration is reflected in the state the new leader transfers."""
    txn = cluster.submit(rw_payload("x", tiebreak="a"))
    cluster.run_until_decided([txn])
    cluster.run()
    crashed = cluster.crash_leader("shard-0")
    cluster.reconfigure(initiator=cluster.leader_of("shard-1"), suspects=[crashed])
    config = cluster.config_service.last_configuration()
    for pid in config.members["shard-0"]:
        replica = cluster.replica(pid)
        assert txn in certification_order(replica)


def test_rdma_history_correct_under_concurrent_conflicts(cluster):
    conflicting = [rw_payload("hot", version=0, tiebreak=str(i)) for i in range(5)]
    disjoint = [rw_payload(f"k{i}", tiebreak=f"d{i}") for i in range(5)]
    decisions = cluster.certify_many(conflicting + disjoint)
    commits = [d for d in decisions.values() if d is Decision.COMMIT]
    assert len(commits) == 1 + 5
    result, violations = cluster.check()
    assert result.ok and violations == []


# ----------------------------------------------------------------------
# structure: one commit pipeline and participant, two persistence transports
# ----------------------------------------------------------------------

SHARED_WITH_MESSAGE_PASSING = (
    # coordinator (repro.core.coordinator)
    "_init_coordinator",
    "certify",
    "_dispatch_prepares",
    "_note_prepares_flushed",
    "retry",
    "coordinated",
    "on_certify_request",
    "on_prepare_ack",
    "_maybe_decide",
    "_shard_persisted",
    # the one write path into the certification order, the certifying
    # leader, detector and read glue (repro.core.replica)
    "store_slot",
    "decide_slot",
    "_certify_prepare",
    "on_prepare",
    "_watch_co_members",
    "emit_heartbeats",
    "tick_detector",
    "on_heartbeat",
    "request_read_lease",
    "on_cs_lease_grant",
    "on_read_request",
    "is_leader",
    "phase",
    "filled_slots",
    "_grow",
    "_on_configuration_installed",
    # the reconfiguration steps both scopes run (repro.core.reconfig)
    "_cs_call",
    "on_cs_reply",
    "suspect",
    "reconfigure",
    "on_cs_view_change",
    "on_probe",
    "on_probe_ack",
    "_step_down_probing",
    "_compute_membership",
    "_compare_and_swap",
    "_lead_own_slots",
    "_adopt_state",
)


@pytest.mark.parametrize("name", SHARED_WITH_MESSAGE_PASSING)
def test_rdma_stack_reuses_the_figure_1_pipeline(name):
    """The RDMA protocol is the message-passing one with the persistence
    transport and the epoch view swapped: everything else must be the same
    function object, so the copies cannot come back."""
    assert getattr(RdmaShardReplica, name) is getattr(ShardReplica, name)


def test_rdma_stack_inherits_nothing_that_is_figure_1_only():
    """Per-shard reconfiguration, the epoch-checked ACCEPT and the stash of
    early messages under RDMA writes are the Figure 4a bug."""
    assert ReconfigMixin not in RdmaShardReplica.__mro__
    for name in ("_apply_accept", "_stash_message", "_unstash"):
        assert not hasattr(RdmaShardReplica, name)
    assert not hasattr(Cluster(protocol="rdma").replica("shard-0/r0"), "_stash")


def test_ablation_is_figure_1_plus_the_rdma_vote_transport():
    for name in ("_persist_vote", "_send_accept_batch", "_on_accept_acked", "on_accept"):
        assert getattr(BrokenRdmaShardReplica, name) is getattr(RdmaShardReplica, name)
    for name in ("_shard_persisted", "_persist_decision", "_ack_key", "reconfigure", "on_new_state"):
        assert getattr(BrokenRdmaShardReplica, name) is getattr(ShardReplica, name)
