"""Unit and integration tests for the resilient client-session layer:
coordinator routing, timeout-driven re-submission with failover,
duplicate-safe certification, and configuration-change awareness."""

import pytest

from repro.baselines.cluster import BaselineCluster
from repro.client import ClientSession, CoordinatorRouter, RetryPolicy
from repro.cluster import Cluster
from repro.core.messages import CertifyRequest, TxnDecision
from repro.core.types import Configuration, Decision

from helpers import rw_payload, shard_key


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError, match="timeout"):
        RetryPolicy(timeout=-1.0).validate()
    with pytest.raises(ValueError, match="backoff"):
        RetryPolicy(timeout=1.0, backoff=0.0).validate()
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(timeout=1.0, max_attempts=0).validate()
    assert not RetryPolicy().enabled
    assert RetryPolicy(timeout=5.0).enabled


def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(timeout=10.0, backoff=2.0, max_attempts=4)
    assert [policy.delay(attempt) for attempt in (1, 2, 3)] == [10.0, 20.0, 40.0]


# ----------------------------------------------------------------------
# CoordinatorRouter
# ----------------------------------------------------------------------
def _router():
    return CoordinatorRouter(
        view={
            "shard-0": Configuration(epoch=1, members=("a0", "a1"), leader="a0"),
            "shard-1": Configuration(epoch=1, members=("b0", "b1"), leader="b0"),
        },
    )


def test_router_prefers_uninvolved_shards():
    router = _router()
    for _ in range(8):
        assert router.pick(["shard-0"]) in ("b0", "b1")
    # Every shard involved: fall back to involved members.
    assert router.pick(["shard-0", "shard-1"]) in ("a0", "a1", "b0", "b1")


def test_router_failover_excludes_tried_coordinators():
    router = _router()
    first = router.pick(["shard-0"])
    second = router.pick(["shard-0"], exclude=(first,))
    assert second != first
    # With everything tried, exclusion is dropped rather than failing.
    assert router.pick(["shard-0"], exclude=("b0", "b1")) in ("b0", "b1")


def test_router_applies_config_changes_monotonically():
    router = _router()
    router.note_config_change("shard-1", Configuration(2, ("b1", "spare"), "b1"))
    assert router.view["shard-1"].members == ("b1", "spare")
    assert router.view["shard-1"].leader == "b1"
    # A stale (lower-epoch) update must not regress the view.
    router.note_config_change("shard-1", Configuration(1, ("b0", "b1"), "b0"))
    assert router.view["shard-1"].members == ("b1", "spare")
    assert router.view["shard-1"].epoch == 2


def test_router_ignores_a_configuration_it_already_holds():
    router = _router()
    heard = []
    router.add_listener(lambda *change: heard.append(change))
    newer = Configuration(2, ("b1", "spare"), "b1")
    router.note_config_change("shard-1", newer)
    assert router.config_updates == 1
    assert heard == [("shard-1", frozenset({"b0"}), "b1")]
    # The same record again (a re-read, a repeated push), or an equal copy.
    router.note_config_change("shard-1", newer)
    router.note_config_change("shard-1", Configuration(2, ("b1", "spare"), "b1"))
    router.note_config_change("shard-0", router.view["shard-0"])
    assert router.config_updates == 1 and len(heard) == 1
    assert router.view["shard-1"] is newer


def test_static_router_round_robins():
    """The baseline's dedicated coordinators are one pseudo-shard of the
    same router class (there is no separate static router any more)."""
    router = BaselineCluster(num_coordinators=2).router
    assert isinstance(router, CoordinatorRouter)
    c0, c1 = "coordinator-0", "coordinator-1"
    picks = {router.pick([]) for _ in range(4)}
    assert picks == {c0, c1}
    assert router.pick([], exclude=(c0,)) == c1
    with pytest.raises(ValueError):
        BaselineCluster(num_coordinators=0)


# ----------------------------------------------------------------------
# session failover after a coordinator crash
# ----------------------------------------------------------------------
def test_session_resubmits_after_coordinator_crash():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=7,
        retry=RetryPolicy(timeout=15.0, backoff=2.0, max_attempts=4),
    )
    session = cluster.sessions[0]
    key = shard_key(cluster.scheme, "shard-0")
    coordinator = cluster.members_of("shard-1")[0]
    cluster.crash(coordinator)  # dies before the request arrives
    txn = cluster.submit(rw_payload(key, tiebreak="t"), coordinator=coordinator)
    assert cluster.run_until_decided([txn])
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    assert session.retries >= 1
    assert session.failovers >= 1
    assert session.inflight == 0  # timer cancelled on decision
    stats = cluster.retry_stats()
    assert stats.retries == session.retries
    assert stats.orphaned == 0


def test_session_orphans_after_max_attempts():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=7,
        retry=RetryPolicy(timeout=10.0, backoff=1.0, max_attempts=2),
    )
    # Nobody can answer: every replica is dead.
    for replica in cluster.replicas.values():
        cluster.crash(replica.pid)
    txn = cluster.submit(rw_payload("k", tiebreak="t"))
    cluster.run()
    session = cluster.sessions[0]
    assert cluster.history.decision_of(txn) is None
    assert session.orphaned == [txn]
    assert cluster.retry_stats().orphaned == 1
    assert session.retries == 1  # one re-submission, then gave up


def test_timeout_config_refresh_throttles_by_backed_off_window():
    """The refresh throttle compares against the *current* attempt's backoff
    window, not the base timeout — a late-attempt timeout whose window is
    ``delay(attempts)`` long must not re-read the configuration every base
    timeout (the old rule multiplied config-service traffic under backoff)."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=7,
        retry=RetryPolicy(timeout=10.0, backoff=3.0, max_attempts=9),
    )
    session = cluster.sessions[0]
    key = shard_key(cluster.scheme, "shard-0")
    for pid in list(cluster.members_of("shard-0")):
        cluster.crash(pid)  # nobody can decide: the submission stays in flight
    txn = cluster.submit(rw_payload(key, tiebreak="t"))
    state = session._inflight[txn]
    state.timer.cancel()  # drive _on_timeout by hand below
    state.attempts = 3  # current backoff window: delay(3) = 90 delays
    session._last_refresh_at = cluster.scheduler.now
    cluster.scheduler.schedule(20.0, lambda: None)
    cluster.run()  # 20 delays since the last refresh: > base timeout, < window
    session._on_timeout(txn)
    assert session.config_refreshes == 0  # throttled: the window is 90 long
    state.timer.cancel()
    state.attempts = 3  # _on_timeout advanced it; restore the same window
    cluster.scheduler.schedule(95.0, lambda: None)
    cluster.run()
    session._on_timeout(txn)
    assert session.config_refreshes == 1  # a full window elapsed: allowed


def test_late_decision_resurrects_orphan():
    """A decision that straggles in after the session gave the transaction
    up means nothing was lost: the orphan count must be corrected."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=7,
        retry=RetryPolicy(timeout=10.0, backoff=1.0, max_attempts=2),
    )
    for replica in cluster.replicas.values():
        cluster.crash(replica.pid)
    txn = cluster.submit(rw_payload("k", tiebreak="t"))
    cluster.run()
    session = cluster.sessions[0]
    assert session.orphaned == [txn]
    cluster.clients[0].on_txn_decision(
        TxnDecision(txn=txn, decision=Decision.COMMIT), "late-coordinator"
    )
    assert session.orphaned == []
    assert cluster.retry_stats().orphaned == 0
    assert cluster.history.decision_of(txn) is Decision.COMMIT


def test_duplicate_requests_are_deduplicated_not_recertified():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=3)
    payload = rw_payload("dup", tiebreak="dup")
    coordinator_pid = cluster.members_of("shard-1")[0]
    txn = cluster.submit(payload, coordinator=coordinator_pid)
    assert cluster.run_until_decided([txn])
    coordinator = cluster.replicas[coordinator_pid]
    entry = coordinator.coordinated(txn)
    assert entry is not None and entry.decision is not None
    slots_before = dict(cluster.replicas[cluster.leader_of("shard-0")].slot_of)

    # A duplicate arrives after the decision: the coordinator must re-answer
    # from the decision cache without re-driving certification.
    client = cluster.clients[0]
    client.send(coordinator_pid, CertifyRequest(txn=txn, payload=payload, request_id=2))
    cluster.run()
    assert coordinator.duplicate_certify_requests == 1
    assert client.duplicate_decisions >= 1
    assert cluster.history.contradictions == []
    slots_after = dict(cluster.replicas[cluster.leader_of("shard-0")].slot_of)
    assert slots_after == slots_before  # no new certification slots


def test_duplicate_to_unrelated_member_answers_from_slot_cache():
    """A retry can land at a replica that never coordinated the transaction
    but is a member of an involved shard with the decision persisted: it
    answers from its own certification order."""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=3)
    key = shard_key(cluster.scheme, "shard-0")
    payload = rw_payload(key, tiebreak="t")
    txn = cluster.submit(payload, coordinator=cluster.members_of("shard-1")[0])
    assert cluster.run_until_decided([txn])
    cluster.run()
    member = cluster.replicas[cluster.leader_of("shard-0")]
    assert member.coordinated(txn) is None
    cluster.clients[0].send(member.pid, CertifyRequest(txn=txn, payload=payload, request_id=2))
    cluster.run()
    assert member.duplicate_certify_requests == 1
    assert cluster.history.contradictions == []


def test_aggressive_timeout_duplicates_are_safe_end_to_end():
    """Sub-RTT timeouts force concurrent duplicate submissions to several
    coordinators; certification must stay exactly-once-decided."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=11,
        retry=RetryPolicy(timeout=2.0, backoff=1.0, max_attempts=6),
    )
    payloads = [rw_payload(f"k{i}", tiebreak=f"k{i}") for i in range(20)]
    txns = [cluster.submit(p) for p in payloads]
    assert cluster.run_until_decided(txns)
    cluster.run()  # drain every duplicate answer
    assert cluster.history.contradictions == []
    assert all(cluster.history.decision_of(t) is not None for t in txns)
    stats = cluster.retry_stats()
    assert stats.retries > 0
    assert stats.duplicate_requests > 0
    result, violations = cluster.check()
    assert result.ok and violations == []


# ----------------------------------------------------------------------
# configuration-change awareness
# ----------------------------------------------------------------------
def test_sessions_learn_about_reconfigurations():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=21,
        retry=RetryPolicy(timeout=50.0),
    )
    assert cluster.router.view["shard-0"].epoch == 1
    crashed = cluster.crash_follower("shard-0")
    cluster.reconfigure("shard-0", suspects=[crashed])
    # The configuration service pushed CONFIG_CHANGE to the subscribed
    # clients; the shared router follows the new epoch and membership.
    assert cluster.router.view["shard-0"].epoch == 2
    assert crashed not in cluster.router.view["shard-0"].members
    assert cluster.router.config_updates >= 1


def test_timeout_refreshes_configuration_view():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=5,
        retry=RetryPolicy(timeout=12.0, backoff=2.0, max_attempts=4),
    )
    session = cluster.sessions[0]
    key = shard_key(cluster.scheme, "shard-0")
    coordinator = cluster.members_of("shard-1")[0]
    cluster.crash(coordinator)
    txn = cluster.submit(rw_payload(key, tiebreak="t"), coordinator=coordinator)
    assert cluster.run_until_decided([txn])
    assert session.config_refreshes >= 1


def test_without_retry_behaviour_is_unchanged():
    """Sessions are inert with a disabled policy: no timers, no metric
    drift, and the legacy coordinator picking stays in place."""
    with_sessions = Cluster(num_shards=2, replicas_per_shard=2, seed=9)
    payloads = [rw_payload(f"k{i}", tiebreak=f"k{i}") for i in range(10)]
    decisions = with_sessions.certify_many(payloads)
    assert all(d is not None for d in decisions.values())
    stats = with_sessions.retry_stats()
    assert stats.retries == stats.failovers == stats.orphaned == 0
    assert stats.duplicate_requests == 0


# ----------------------------------------------------------------------
# RDMA protocol parity
# ----------------------------------------------------------------------
def test_rdma_sessions_failover_and_dedup():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        protocol="rdma",
        seed=13,
        retry=RetryPolicy(timeout=15.0, backoff=2.0, max_attempts=4),
    )
    key = shard_key(cluster.scheme, "shard-0")
    coordinator = cluster.members_of("shard-1")[0]
    cluster.crash(coordinator)
    txn = cluster.submit(rw_payload(key, tiebreak="t"), coordinator=coordinator)
    assert cluster.run_until_decided([txn])
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    assert cluster.retry_stats().retries >= 1


# ----------------------------------------------------------------------
# 2PC-over-Paxos baseline parity
# ----------------------------------------------------------------------
def test_baseline_sessions_and_dedup():
    cluster = BaselineCluster(
        num_shards=2,
        failures_tolerated=1,
        num_coordinators=2,
        seed=17,
        retry=RetryPolicy(timeout=4.0, backoff=1.0, max_attempts=5),
    )
    payloads = [rw_payload(f"k{i}", tiebreak=f"k{i}") for i in range(10)]
    txns = [cluster.submit(p) for p in payloads]
    assert cluster.run_until_decided(txns)
    cluster.run()
    assert all(cluster.history.decision_of(t) is not None for t in txns)
    assert cluster.history.contradictions == []
    stats = cluster.retry_stats()
    assert stats.retries > 0  # the 4-delay timeout is below the 2PC path
    assert stats.orphaned == 0
    check, _ = cluster.check()
    assert check.ok


def test_baseline_duplicate_answered_from_decision_cache():
    cluster = BaselineCluster(num_shards=2, failures_tolerated=1, seed=19)
    payload = rw_payload("k", tiebreak="k")
    txn = cluster.submit(payload)
    assert cluster.run_until_decided([txn])
    cluster.run()
    coordinator = cluster.coordinators[0]
    cluster.clients[0].send(coordinator.pid, CertifyRequest(txn=txn, payload=payload, request_id=2))
    cluster.run()
    assert coordinator.duplicate_certify_requests == 1
    assert cluster.history.contradictions == []
