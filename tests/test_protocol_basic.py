"""Integration tests for the failure-free path of both TCS protocols."""

import pytest

from repro.cluster import Cluster
from repro.core.messages import AcceptAck, PrepareAck
from repro.core.types import Decision, Phase, Status

from helpers import certification_order, payload, read_payload, rw_payload, shard_key


PROTOCOLS = ["message-passing", "rdma"]


@pytest.fixture(params=PROTOCOLS)
def cluster(request):
    return Cluster(num_shards=2, replicas_per_shard=2, protocol=request.param, seed=11)


def test_single_shard_transaction_commits(cluster):
    assert cluster.certify(rw_payload("x", tiebreak="a")) is Decision.COMMIT


def test_multi_shard_transaction_commits(cluster):
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    multi = payload(
        reads=[(key0, (0, "")), (key1, (0, ""))],
        writes=[(key0, 1), (key1, 2)],
        tiebreak="m",
    )
    assert cluster.certify(multi) is Decision.COMMIT


def test_conflicting_transaction_aborts(cluster):
    first = rw_payload("x", version=0, tiebreak="a")
    stale = rw_payload("x", version=0, tiebreak="b")
    assert cluster.certify(first) is Decision.COMMIT
    assert cluster.certify(stale) is Decision.ABORT


def test_version_chain_commits(cluster):
    first = rw_payload("x", version=0, tiebreak="a")
    assert cluster.certify(first) is Decision.COMMIT
    second = payload(reads=[("x", first.commit_version)], writes=[("x", 2)], tiebreak="b")
    assert cluster.certify(second) is Decision.COMMIT


def test_read_only_transaction_on_fresh_version_commits(cluster):
    first = rw_payload("x", version=0, tiebreak="a")
    cluster.certify(first)
    assert cluster.certify(payload(reads=[("x", first.commit_version)])) is Decision.COMMIT


def test_multi_shard_abort_if_any_shard_votes_abort(cluster):
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    first = rw_payload(key0, version=0, tiebreak="a")
    assert cluster.certify(first) is Decision.COMMIT
    # Conflicts on shard-0 only, but the global decision must be abort.
    multi = payload(
        reads=[(key0, (0, "")), (key1, (0, ""))],
        writes=[(key0, 9), (key1, 9)],
        tiebreak="b",
    )
    assert cluster.certify(multi) is Decision.ABORT


def test_history_is_correct_and_invariants_hold(cluster):
    payloads = [rw_payload(f"k{i}", tiebreak=str(i)) for i in range(6)]
    payloads.append(rw_payload("k0", version=0, tiebreak="stale"))
    cluster.certify_many(payloads)
    result, violations = cluster.check()
    assert result.ok, result.reason
    assert violations == []


def test_decision_latency_matches_paper_claims(cluster):
    """5 message delays to the client, 4 with a co-located client (Section 3)."""
    cluster.certify(rw_payload("x", tiebreak="a"))
    assert cluster.protocol_latencies() == [5.0]
    assert cluster.colocated_latencies() == [4.0]
    assert cluster.client_latencies() == [6.0]  # + the submission hop


def test_leader_and_followers_record_the_transaction(cluster):
    p = rw_payload("x", tiebreak="a")
    shard = cluster.scheme.sharding.shard_of("x")
    txn = cluster.submit(p)
    cluster.run_until_decided([txn])
    cluster.run()
    members = [cluster.replica(pid) for pid in cluster.members_of(shard)]
    for replica in members:
        assert txn in certification_order(replica)
        slot = replica.slot_of[txn]
        assert replica.phase(slot) is Phase.DECIDED
        assert replica.dec_arr[slot] is Decision.COMMIT
        assert replica.vote_arr[slot] is Decision.COMMIT


def test_uninvolved_shard_does_not_see_the_transaction(cluster):
    key0 = shard_key(cluster.scheme, "shard-0")
    txn = cluster.submit(rw_payload(key0, tiebreak="a"))
    cluster.run_until_decided([txn])
    cluster.run()
    for pid in cluster.members_of("shard-1"):
        assert txn not in certification_order(cluster.replica(pid))


def test_empty_payload_commits_immediately(cluster):
    assert cluster.certify(cluster.scheme.empty_payload()) is Decision.COMMIT


def test_concurrent_disjoint_transactions_all_commit(cluster):
    payloads = [rw_payload(f"key{i}", tiebreak=str(i)) for i in range(8)]
    decisions = cluster.certify_many(payloads)
    assert all(d is Decision.COMMIT for d in decisions.values())
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_concurrent_conflicting_transactions_one_commits(cluster):
    conflicting = [rw_payload("hot", version=0, tiebreak=str(i)) for i in range(4)]
    decisions = cluster.certify_many(conflicting)
    commits = [d for d in decisions.values() if d is Decision.COMMIT]
    assert len(commits) == 1
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_followers_match_leader_logs_after_load(cluster):
    payloads = [rw_payload(f"k{i}", tiebreak=str(i)) for i in range(10)]
    cluster.certify_many(payloads)
    cluster.run()
    for shard in cluster.shards:
        leader = cluster.replica(cluster.leader_of(shard))
        for pid in cluster.followers_of(shard):
            follower = cluster.replica(pid)
            for slot, txn, _payload, vote, _dec in follower.filled_slots():
                if txn is not None:
                    assert leader.txn_arr[slot] == txn
                    assert leader.vote_arr[slot] == vote


def test_coordinator_is_not_member_of_involved_shard_by_default(cluster):
    p = rw_payload("x", tiebreak="a")
    shard = cluster.scheme.sharding.shard_of("x")
    txn = cluster.submit(p)
    cluster.run_until_decided([txn])
    entry = cluster.coordinator_entries()[txn]
    assert entry.decision is Decision.COMMIT
    coordinator_pids = [
        pid
        for pid, replica in cluster.replicas.items()
        if txn in getattr(replica, "_coordinated", {})
    ]
    assert coordinator_pids
    assert all(pid not in cluster.members_of(shard) for pid in coordinator_pids)


def test_snapshot_isolation_cluster_commits_stale_reader():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, isolation="snapshot-isolation", seed=7)
    writer = rw_payload("x", version=0, tiebreak="w")
    assert cluster.certify(writer) is Decision.COMMIT
    # Under serializability this read-only transaction would abort; under the
    # write-write-conflict-only scheme it commits.
    assert cluster.certify(read_payload("x", version=0)) is Decision.COMMIT
    assert cluster.certify(rw_payload("x", version=0, tiebreak="s")) is Decision.ABORT


def test_explicit_coordinator_choice_is_respected(cluster):
    coordinator = cluster.members_of("shard-1")[0]
    txn = cluster.submit(rw_payload("x", tiebreak="a"), coordinator=coordinator)
    cluster.run_until_decided([txn])
    assert txn in cluster.replica(coordinator)._coordinated


def test_f_zero_single_replica_shards_still_commit():
    cluster = Cluster(num_shards=2, replicas_per_shard=1, seed=3)
    assert cluster.certify(rw_payload("x", tiebreak="a")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_three_replicas_per_shard_commit():
    cluster = Cluster(num_shards=2, replicas_per_shard=3, seed=3)
    assert cluster.certify(rw_payload("x", tiebreak="a")) is Decision.COMMIT
    assert cluster.protocol_latencies() == [5.0]


# ----------------------------------------------------------------------
# what a decided coordinator entry keeps
# ----------------------------------------------------------------------
def _decide_one(cluster):
    """Commit one single-shard transaction and let the run drain; return
    it, its shard and its coordinator."""
    shard = cluster.scheme.sharding.shard_of("x")
    txn = cluster.submit(rw_payload("x", tiebreak="a"))
    cluster.run_until_decided([txn])
    cluster.run()
    (coordinator,) = [r for r in cluster.replicas.values() if txn in r._coordinated]
    return txn, shard, coordinator


def _assert_compact(entry):
    """Only the decision and its timestamps survive: no vote, slot, epoch or
    ack container, no payload and no instance ``__dict__``."""
    assert entry.decision is Decision.COMMIT
    assert entry.decided_at is not None and entry.dispatched_at is not None
    assert (entry.votes, entry.slots, entry.vote_epochs, entry.acks) == (None,) * 4
    assert not hasattr(entry, "payload") and not hasattr(entry, "__dict__")


def test_a_decided_entry_keeps_only_the_decision_and_its_timestamps(cluster):
    txn, shard, coordinator = _decide_one(cluster)
    entry = coordinator.coordinated(txn)
    _assert_compact(entry)
    assert entry.shards == {shard}
    assert cluster.coordinator_entries()[txn] is entry
    # The directory interns shard sets: the entry holds the directory's one.
    assert entry.shards is cluster.directory.shards_of(txn)


def test_a_prepare_ack_after_the_decision_is_relayed_and_recorded_nowhere(cluster):
    """A duplicate PREPARE_ACK reaching a decided coordinator persists its
    vote at the followers as an undecided one would, and its confirmations
    land nowhere."""
    txn, shard, coordinator = _decide_one(cluster)
    entry = coordinator.coordinated(txn)
    leader = cluster.replica(cluster.leader_of(shard))
    slot = leader.slot_of[txn]
    late = PrepareAck(
        epoch=coordinator.epoch_of(shard),
        shard=shard,
        slot=slot,
        txn=txn,
        payload=leader.payload_arr[slot],
        vote=leader.vote_arr[slot],
    )
    relay = "Accept" if cluster.protocol == "message-passing" else "RdmaWrite"
    before = cluster.message_stats.sent_by_type[relay]
    coordinator.deliver(late, leader.pid)
    cluster.run()
    assert cluster.message_stats.sent_by_type[relay] - before == len(
        cluster.followers_of(shard)
    )
    _assert_compact(entry)
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_a_late_follower_confirmation_is_a_no_op(cluster):
    """An ACCEPT_ACK (message passing) or NIC ack (RDMA) for a decided
    transaction sends nothing and records nothing."""
    txn, shard, coordinator = _decide_one(cluster)
    entry = coordinator.coordinated(txn)
    leader = cluster.replica(cluster.leader_of(shard))
    slot = leader.slot_of[txn]
    follower = cluster.followers_of(shard)[0]
    sent = cluster.message_stats.sent_by_type
    if cluster.protocol == "message-passing":
        ack = AcceptAck(
            shard=shard,
            epoch=coordinator.epoch_of(shard),
            slot=slot,
            txn=txn,
            vote=leader.vote_arr[slot],
        )
        coordinator.deliver(ack, follower)
    else:
        key = coordinator._ack_key(shard, coordinator.epoch_of(shard))
        coordinator._on_accept_acked(txn, key, follower)
    cluster.run()
    assert cluster.message_stats.sent_by_type == sent
    _assert_compact(entry)
