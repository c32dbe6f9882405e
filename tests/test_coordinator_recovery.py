"""Tests for coordinator recovery (Figure 1, lines 70-73 and 6-7, 14-16;
Figure 7, lines 167-170 and 77-90).

The recovery path belongs to the commit pipeline both stacks share
(``repro.core.coordinator``), so every case runs on both."""

import pytest

from repro.cluster import Cluster
from repro.core.types import BOTTOM, Decision, Phase

from helpers import certification_order, payload, rw_payload, shard_key


@pytest.fixture(params=["message-passing", "rdma"])
def cluster(request):
    return Cluster(num_shards=2, replicas_per_shard=2, seed=31, protocol=request.param)


def _prepare_without_deciding(cluster, key, coordinator, block_decisions=True):
    """Drive a transaction until it is prepared at its shard but keep the
    coordinator from distributing the decision by crashing it right after it
    sends the ACCEPTs."""
    shard = cluster.scheme.sharding.shard_of(key)
    follower = cluster.followers_of(shard)[0]
    if block_decisions:
        # Cut the coordinator off from the follower so it can never gather
        # the ACCEPT_ACKs (or NIC acks) and hence never decides.
        cluster.network.block(follower, coordinator)
    txn = cluster.submit(rw_payload(key, tiebreak="orphan"), coordinator=coordinator)
    cluster.run()
    return txn, shard


def test_retry_by_follower_completes_orphaned_transaction(cluster):
    shard = cluster.scheme.sharding.shard_of("hot")
    other_shard = "shard-1" if shard == "shard-0" else "shard-0"
    coordinator = cluster.members_of(other_shard)[0]
    txn, shard = _prepare_without_deciding(cluster, "hot", coordinator)
    assert cluster.history.decision_of(txn) is None

    # The original coordinator crashes; a replica of the shard that holds the
    # prepared transaction becomes the new coordinator via retry().
    cluster.crash(coordinator)
    follower = cluster.replica(cluster.followers_of(shard)[0])
    slot = follower.slot_of[txn]
    assert follower.phase(slot) is Phase.PREPARED
    assert follower.retry(slot) is not None
    cluster.run()
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_retry_on_decided_transaction_is_a_noop(cluster):
    txn = cluster.submit(rw_payload("x", tiebreak="a"))
    cluster.run_until_decided([txn])
    cluster.run()
    shard = cluster.scheme.sharding.shard_of("x")
    replica = cluster.replica(cluster.leader_of(shard))
    slot = replica.slot_of[txn]
    assert replica.phase(slot) is Phase.DECIDED
    assert replica.retry(slot) is None


def test_multiple_concurrent_coordinators_reach_same_decision(cluster):
    """Any number of processes may coordinate the same transaction; they all
    reach the same decision (Invariant 4b)."""
    shard = cluster.scheme.sharding.shard_of("hot")
    other_shard = "shard-1" if shard == "shard-0" else "shard-0"
    coordinator = cluster.members_of(other_shard)[0]
    txn, shard = _prepare_without_deciding(cluster, "hot", coordinator, block_decisions=True)

    # Two different replicas of the shard retry simultaneously.
    leader = cluster.replica(cluster.leader_of(shard))
    follower = cluster.replica(cluster.followers_of(shard)[0])
    leader.retry(leader.slot_of[txn])
    follower.retry(follower.slot_of[txn])
    # The original coordinator is also still alive and will eventually finish.
    cluster.network.heal()
    cluster.run()
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    assert cluster.history.contradictions == []
    decisions = {
        entry.decision
        for replica in cluster.replicas.values()
        for t, entry in getattr(replica, "_coordinated", {}).items()
        if t == txn and entry.decision is not None
    }
    assert decisions == {Decision.COMMIT}
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_leader_resends_stored_vote_to_new_coordinator(cluster):
    """A leader that already certified a transaction re-sends its stored
    PREPARE_ACK instead of preparing it twice (line 6)."""
    shard = cluster.scheme.sharding.shard_of("hot")
    other_shard = "shard-1" if shard == "shard-0" else "shard-0"
    coordinator = cluster.members_of(other_shard)[0]
    txn, shard = _prepare_without_deciding(cluster, "hot", coordinator)
    leader = cluster.replica(cluster.leader_of(shard))
    assert len(certification_order(leader)) == 1

    new_coordinator = cluster.replica(cluster.members_of(other_shard)[1])
    new_coordinator.certify(txn, BOTTOM)
    cluster.run()
    # Still exactly one slot for the transaction: no duplicate preparation.
    assert len(certification_order(leader)) == 1
    assert cluster.history.decision_of(txn) is Decision.COMMIT


def test_unknown_payload_prepared_as_aborted(cluster):
    """A PREPARE(t, ⊥) for a transaction the leader has never seen is
    prepared with an abort vote and the empty payload (lines 14-16), which
    makes the recovered transaction abort."""
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    multi = payload(
        reads=[(key0, (0, "")), (key1, (0, ""))],
        writes=[(key0, 1), (key1, 1)],
        tiebreak="m",
    )
    # The coordinator is a spare process (not a member of either shard), so
    # crashing it later does not remove any shard replica.
    coordinator_pid = "shard-0/spare0"
    # The original coordinator crashes "between sending PREPARE messages to
    # different shards": only shard-0's leader ever learns the payload.
    cluster.network.block(coordinator_pid, cluster.leader_of("shard-1"))
    txn = cluster.submit(multi, coordinator=coordinator_pid)
    cluster.run()
    assert cluster.history.decision_of(txn) is None
    cluster.crash(coordinator_pid)
    cluster.network.heal()

    # A replica of shard-0 holds the prepared transaction and retries it.
    leader0 = cluster.replica(cluster.leader_of("shard-0"))
    leader0.retry(leader0.slot_of[txn])
    cluster.run()
    assert cluster.history.decision_of(txn) is Decision.ABORT
    # Shard-1 prepared it with the empty payload and an abort vote.
    leader1 = cluster.replica(cluster.leader_of("shard-1"))
    slot = leader1.slot_of[txn]
    assert leader1.vote_arr[slot] is Decision.ABORT
    assert cluster.scheme.is_empty(leader1.payload_arr[slot])
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_spuriously_suspected_coordinator_gets_abort_vote(cluster):
    """If the old coordinator was suspected spuriously and later re-submits
    the transaction to a shard where it was aborted, it just receives the
    stored abort vote; decisions stay consistent."""
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    multi = payload(
        reads=[(key0, (0, "")), (key1, (0, ""))],
        writes=[(key0, 1), (key1, 1)],
        tiebreak="m",
    )
    coordinator_pid = "shard-0/spare0"
    cluster.network.block(coordinator_pid, cluster.leader_of("shard-1"))
    txn = cluster.submit(multi, coordinator=coordinator_pid)
    cluster.run()

    # Someone else recovers the transaction; shard-1 aborts it.
    leader0 = cluster.replica(cluster.leader_of("shard-0"))
    leader0.retry(leader0.slot_of[txn])
    cluster.run()
    assert cluster.history.decision_of(txn) is Decision.ABORT

    # The original (never actually crashed) coordinator re-sends its PREPARE
    # to shard-1 once the partition heals, and completes with the same abort.
    cluster.network.heal()
    original = cluster.replica(coordinator_pid)
    original.certify(txn, multi)
    cluster.run()
    assert cluster.history.contradictions == []
    assert cluster.history.decision_of(txn) is Decision.ABORT
    result, violations = cluster.check()
    assert result.ok and violations == []
