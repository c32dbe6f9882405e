"""Integration tests for the failure-free path of both TCS protocols."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.core.coordinator import DecidedTxn
from repro.core.messages import Accept, AcceptAck, CertifyRequest, Prepare, PrepareAck
from repro.core.types import AS_SENT, BOTTOM, Decision, Phase, Status

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
        pid for pid, replica in cluster.replicas.items() if replica.coordinated(txn) is not None
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
    assert cluster.replica(coordinator).coordinated(txn) is not None


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
# what a coordinator keeps of a decided transaction
# ----------------------------------------------------------------------
def _decide_one(cluster):
    """Commit one single-shard transaction and let the run drain; return
    it, its shard and its coordinator."""
    shard = cluster.scheme.sharding.shard_of("x")
    txn = cluster.submit(rw_payload("x", tiebreak="a"))
    cluster.run_until_decided([txn])
    cluster.run()
    (coordinator,) = [r for r in cluster.replicas.values() if r.coordinated(txn) is not None]
    return txn, shard, coordinator


def _columns(coordinator):
    """A copy of the coordinator's decided columns."""
    decisions, times = coordinator.decided_columns()
    return dict(decisions), list(times)


def _assert_decided_once(coordinator, txn, columns):
    """The transaction has no entry, and the columns read ``columns``."""
    assert txn not in coordinator._coordinated
    assert _columns(coordinator) == columns


def test_a_decided_transaction_keeps_only_its_decision_and_timestamps(cluster):
    txn, shard, coordinator = _decide_one(cluster)
    assert not coordinator._coordinated
    decisions, times = _columns(coordinator)
    assert decisions == {txn: Decision.COMMIT}
    record = coordinator.coordinated(txn)
    assert record == DecidedTxn(txn, Decision.COMMIT, *times)
    assert record.started_at <= record.dispatched_at <= record.decided_at
    assert cluster.coordinator_entries() == {txn: record}
    assert list(coordinator.decided_records()) == [record]


def test_a_duplicate_certify_after_the_decision_is_answered_from_the_columns(cluster):
    txn, shard, coordinator = _decide_one(cluster)
    columns = _columns(coordinator)
    replies = cluster.message_stats.sent_by_type["TxnDecision"]
    prepares = cluster.message_stats.sent_by_type["Prepare"]
    cluster.client.send(
        coordinator.pid, CertifyRequest(txn=txn, payload=BOTTOM, request_id=2)
    )
    cluster.run()
    assert coordinator.duplicate_certify_requests == 1
    assert cluster.message_stats.sent_by_type["TxnDecision"] == replies + 1
    assert cluster.message_stats.sent_by_type["Prepare"] == prepares
    _assert_decided_once(coordinator, txn, columns)
    assert cluster.history.contradictions == []


def test_a_prepare_ack_after_the_decision_is_relayed_and_recorded_nowhere(cluster):
    """A duplicate PREPARE_ACK reaching a decided coordinator persists its
    vote at the followers as an undecided one would, and its confirmations
    land nowhere."""
    txn, shard, coordinator = _decide_one(cluster)
    columns = _columns(coordinator)
    leader = cluster.replica(cluster.leader_of(shard))
    slot = leader.slot_of[txn]
    late = PrepareAck(
        epoch=coordinator.epoch_of(shard),
        shard=shard,
        slot=slot,
        txn=txn,
        payload=None,  # the leader folded the decided slot's payload
        vote=leader.vote_arr[slot],
    )
    relay = "Accept" if cluster.protocol == "message-passing" else "RdmaWrite"
    before = cluster.message_stats.sent_by_type[relay]
    coordinator.deliver(late, leader.pid)
    cluster.run()
    assert cluster.message_stats.sent_by_type[relay] - before == len(
        cluster.followers_of(shard)
    )
    _assert_decided_once(coordinator, txn, columns)
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_a_late_follower_confirmation_is_a_no_op(cluster):
    """An ACCEPT_ACK (message passing) or NIC ack (RDMA) for a decided
    transaction sends nothing and records nothing."""
    txn, shard, coordinator = _decide_one(cluster)
    columns = _columns(coordinator)
    leader = cluster.replica(cluster.leader_of(shard))
    slot = leader.slot_of[txn]
    follower = cluster.followers_of(shard)[0]
    sent = dict(cluster.message_stats.sent_by_type)
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
    _assert_decided_once(coordinator, txn, columns)


def test_a_retry_of_a_decided_transaction_re_dispatches_and_restamps_nothing(cluster):
    """``retry`` is ``certify(t, BOTTOM)``: at the transaction's own,
    decided coordinator it sends the PREPAREs again, and the leader's
    re-answer is relayed, but the decision's stamps are written once, so
    the latency breakdown does not move."""
    txn, shard, coordinator = _decide_one(cluster)
    columns = _columns(coordinator)
    samples = {name: list(values) for name, values in cluster.phase_samples().items()}
    prepares = cluster.message_stats.sent_by_type["Prepare"]
    entry = coordinator.certify(txn, BOTTOM)
    assert entry.decision is Decision.COMMIT
    cluster.run()
    assert cluster.message_stats.sent_by_type["Prepare"] == prepares + 1
    _assert_decided_once(coordinator, txn, columns)
    assert {name: list(values) for name, values in cluster.phase_samples().items()} == samples
    assert cluster.history.contradictions == []


# ----------------------------------------------------------------------
# PREPARE_ACK echoes no payload its coordinator sent (Figure 1, lines 7,
# 17 and 70-73)
# ----------------------------------------------------------------------
def _two_shard_payload(cluster):
    """A transaction over both shards: each shard's projection differs
    from the whole payload."""
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    return payload(
        reads=[(key0, (0, "")), (key1, (0, ""))], writes=[(key0, 1), (key1, 2)], tiebreak="m"
    )


def _record(replica, name):
    """The argument tuples of every later call of ``replica.<name>``,
    which still runs."""
    calls = []
    method = getattr(replica, name)

    def recording(*args):
        calls.append(args)
        return method(*args)

    setattr(replica, name, recording)
    return calls


def _followers_store(cluster, multi):
    """Per follower of either shard, the ``(txn, payload)`` of each slot
    write from now on, and each shard's projection of ``multi``."""
    stored = {}
    projections = {}
    for shard in ("shard-0", "shard-1"):
        projections[shard] = cluster.scheme.project(multi, shard)
        assert projections[shard] != multi
        for pid in cluster.followers_of(shard):
            stored[pid] = _record(cluster.replica(pid), "store_slot")
    return stored, projections


def _assert_followers_stored(cluster, stored, projections, txn):
    for shard, projection in projections.items():
        for pid in cluster.followers_of(shard):
            assert {(t, p) for _, t, p, _ in stored[pid]} == {(txn, projection)}, pid


def test_a_fresh_prepare_is_answered_with_the_marker_and_relayed_from_the_entry(cluster):
    multi = _two_shard_payload(cluster)
    coordinator = cluster.replica(cluster.members_of("shard-1")[0])
    acks = _record(coordinator, "on_prepare_ack")
    stored, projections = _followers_store(cluster, multi)
    txn = cluster.submit(multi, coordinator=coordinator.pid)
    cluster.run_until_decided([txn])
    assert sorted(msg.shard for msg, _ in acks) == ["shard-0", "shard-1"]
    assert all(msg.payload is AS_SENT for msg, _ in acks)
    _assert_followers_stored(cluster, stored, projections, txn)
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    assert coordinator.dropped_marker_acks == 0


def test_recovery_and_duplicates_are_answered_as_figure_1_has_it(cluster):
    """Only a non-``⊥`` PREPARE placed in a fresh slot gets the marker: a
    ``⊥`` recovery answers the empty payload it stored, a duplicate of an
    undecided slot the stored payload, and one of a folded slot None."""
    leader = cluster.replica(cluster.leader_of("shard-0"))
    sent = rw_payload(shard_key(cluster.scheme, "shard-0"), tiebreak="a")
    fresh = leader._certify_prepare(Prepare(txn="t-a", payload=sent))
    assert fresh.payload is AS_SENT and fresh.vote is Decision.COMMIT
    assert leader.payload_arr[fresh.slot] == sent
    for again in (sent, BOTTOM):
        assert leader._certify_prepare(Prepare(txn="t-a", payload=again)) == replace(
            fresh, payload=sent
        )
    recovered = leader._certify_prepare(Prepare(txn="t-b", payload=BOTTOM))
    assert recovered.slot == fresh.slot + 1
    assert (recovered.payload, recovered.vote) == (cluster.scheme.empty_payload(), Decision.ABORT)
    leader.decide_slot(fresh.slot, Decision.COMMIT)
    for again in (sent, BOTTOM):
        assert leader._certify_prepare(Prepare(txn="t-a", payload=again)) == replace(
            fresh, payload=None
        )


def test_a_marker_ack_after_the_decision_is_dropped_and_counted(cluster):
    """The decision persisted the vote at every follower, and the entry
    that kept the projection is gone: nothing is relayed."""
    txn, shard, coordinator = _decide_one(cluster)
    columns = _columns(coordinator)
    leader = cluster.replica(cluster.leader_of(shard))
    slot = leader.slot_of[txn]
    late = PrepareAck(
        epoch=coordinator.epoch_of(shard),
        shard=shard,
        slot=slot,
        txn=txn,
        payload=AS_SENT,
        vote=leader.vote_arr[slot],
    )
    sent = dict(cluster.message_stats.sent_by_type)
    coordinator.deliver(late, leader.pid)
    cluster.run()
    assert cluster.message_stats.sent_by_type == sent
    assert coordinator.dropped_marker_acks == 1
    _assert_decided_once(coordinator, txn, columns)


def test_a_bottom_re_dispatch_keeps_the_projections(cluster):
    """``retry`` at the transaction's own, undecided coordinator sends
    ``PREPARE(t, ⊥)``; the leader's marker answer to the first PREPARE is
    still relayed with the projection, not with ``⊥``."""
    multi = _two_shard_payload(cluster)
    coordinator = cluster.replica(cluster.members_of("shard-1")[0])
    stored, projections = _followers_store(cluster, multi)
    txn = cluster.submit(multi, coordinator=coordinator.pid)
    cluster.run(max_time=1.5)  # the PREPAREs are out, no vote is back
    entry = coordinator.certify(txn, BOTTOM)
    assert entry is coordinator._coordinated[txn] and entry.projections == projections
    cluster.run_until_decided([txn])
    cluster.run()
    _assert_followers_stored(cluster, stored, projections, txn)
    assert cluster.history.decision_of(txn) is Decision.COMMIT


def _held_vote(cluster, multi):
    """A two-shard transaction whose shard-0 vote is held back from its
    coordinator (a shard-1 member): returns the coordinator, the
    transaction and the held ``(PrepareAck, sender)``."""
    coordinator = cluster.replica(cluster.members_of("shard-1")[0])
    held = []
    on_prepare_ack = coordinator.on_prepare_ack

    def holding(msg, sender):
        if msg.shard == "shard-0":
            held.append((msg, sender))
        else:
            on_prepare_ack(msg, sender)

    coordinator.on_prepare_ack = holding
    txn = cluster.submit(multi, coordinator=coordinator.pid)
    cluster.run()
    del coordinator.on_prepare_ack
    assert txn in coordinator._coordinated and len(held) == 1
    return coordinator, txn, held[0]


def _enter_next_epoch(coordinator, shard):
    """The coordinator learns ``shard``'s next epoch (same members) and
    re-handles what it stashed."""
    config = coordinator.view[shard]
    coordinator._install(shard, replace(config, epoch=config.epoch + 1))
    coordinator._unstash()


def test_a_stashed_marker_ack_relays_the_projection_after_the_epoch_change():
    """Message passing stashes a vote of an epoch its coordinator has not
    reached (line 19) and replays it once it has: a marker vote is then
    relayed with the entry's projection.  (RDMA stashes it too, line 92:
    ``tests/test_redrive.py``.)"""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=11)
    multi = _two_shard_payload(cluster)
    coordinator, txn, (ack, leader) = _held_vote(cluster, multi)
    assert ack.payload is AS_SENT
    newer = replace(ack, epoch=ack.epoch + 1)
    sent = dict(cluster.message_stats.sent_by_type)
    coordinator.deliver(newer, leader)
    assert coordinator._stash == [(newer, leader)]
    assert cluster.message_stats.sent_by_type == sent
    _enter_next_epoch(coordinator, "shard-0")
    cluster.run()
    projection = cluster.scheme.project(multi, "shard-0")
    for pid in cluster.followers_of("shard-0"):
        # The follower is still in the old epoch, so it stashes the ACCEPT.
        (accept, sender), = cluster.replica(pid)._stash
        assert isinstance(accept, Accept) and sender == coordinator.pid
        assert (accept.epoch, accept.txn, accept.payload) == (newer.epoch, txn, projection)
    assert coordinator.dropped_marker_acks == 0


def test_a_stashed_marker_ack_replayed_after_the_decision_is_dropped_and_counted():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=11)
    coordinator, txn, (ack, leader) = _held_vote(cluster, _two_shard_payload(cluster))
    coordinator.deliver(replace(ack, epoch=ack.epoch + 1), leader)
    coordinator.deliver(ack, leader)
    cluster.run()
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    sent = dict(cluster.message_stats.sent_by_type)
    _enter_next_epoch(coordinator, "shard-0")
    cluster.run()
    assert cluster.message_stats.sent_by_type == sent
    assert coordinator.dropped_marker_acks == 1 and not coordinator._stash
