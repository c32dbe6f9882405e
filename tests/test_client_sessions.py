"""Unit and integration tests for the cluster's one client: coordinator
routing, timeout-driven re-submission with failover, duplicate-safe
certification, configuration-change awareness, the snapshot-read fallback
under a retry policy, and one shard resolution per submission."""

import pytest

from repro.baselines.cluster import BaselineCluster
from repro.client import CoordinatorRouter, RetryPolicy
from repro.cluster import Cluster
from repro.core.messages import CertifyRequest, TxnDecision
from repro.core.reads import ReadPolicy
from repro.core.types import Configuration, Decision
from repro.store.executor import TransactionalStore

from helpers import payload, read_payload, rw_payload, shard_key


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
    client = cluster.client
    key = shard_key(cluster.scheme, "shard-0")
    coordinator = cluster.members_of("shard-1")[0]
    cluster.crash(coordinator)  # dies before the request arrives
    txn = cluster.submit(rw_payload(key, tiebreak="t"), coordinator=coordinator)
    assert cluster.run_until_decided([txn])
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    assert client.retries >= 1
    assert client.failovers >= 1
    assert not client._inflight  # timer cancelled on decision
    stats = cluster.retry_stats()
    assert stats.retries == client.retries
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
    client = cluster.client
    assert cluster.history.decision_of(txn) is None
    assert client.orphaned == [txn]
    assert cluster.retry_stats().orphaned == 1
    assert client.retries == 1  # one re-submission, then gave up


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
    client = cluster.client
    key = shard_key(cluster.scheme, "shard-0")
    for pid in list(cluster.members_of("shard-0")):
        cluster.crash(pid)  # nobody can decide: the submission stays in flight
    txn = cluster.submit(rw_payload(key, tiebreak="t"))
    state = client._inflight[txn]
    state.timer.cancel()  # drive _on_timeout by hand below
    state.attempts = 3  # current backoff window: delay(3) = 90 delays
    client._last_refresh_at = cluster.scheduler.now
    cluster.scheduler.schedule(20.0, lambda: None)
    cluster.run()  # 20 delays since the last refresh: > base timeout, < window
    client._on_timeout(txn)
    assert client.config_refreshes == 0  # throttled: the window is 90 long
    state.timer.cancel()
    state.attempts = 3  # _on_timeout advanced it; restore the same window
    cluster.scheduler.schedule(95.0, lambda: None)
    cluster.run()
    client._on_timeout(txn)
    assert client.config_refreshes == 1  # a full window elapsed: allowed


def test_late_decision_resurrects_orphan():
    """A decision that straggles in after the client gave the transaction
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
    client = cluster.client
    assert client.orphaned == [txn]
    client.on_txn_decision(
        TxnDecision(txn=txn, decision=Decision.COMMIT), "late-coordinator"
    )
    assert client.orphaned == []
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
    client = cluster.client
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
    cluster.client.send(member.pid, CertifyRequest(txn=txn, payload=payload, request_id=2))
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
    router = cluster.client.router
    assert router.view["shard-0"].epoch == 1
    crashed = cluster.crash_follower("shard-0")
    cluster.reconfigure("shard-0", suspects=[crashed])
    # The configuration service pushed CONFIG_CHANGE to the subscribed
    # client; its router follows the new epoch and membership.
    assert router.view["shard-0"].epoch == 2
    assert crashed not in router.view["shard-0"].members
    assert router.config_updates >= 1


def test_timeout_refreshes_configuration_view():
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=5,
        retry=RetryPolicy(timeout=12.0, backoff=2.0, max_attempts=4),
    )
    client = cluster.client
    key = shard_key(cluster.scheme, "shard-0")
    coordinator = cluster.members_of("shard-1")[0]
    cluster.crash(coordinator)
    txn = cluster.submit(rw_payload(key, tiebreak="t"), coordinator=coordinator)
    assert cluster.run_until_decided([txn])
    assert client.config_refreshes >= 1


def test_without_retry_behaviour_is_unchanged():
    """The retry machinery is inert with a disabled policy: no timers, no
    metric drift, and the live coordinator pick stays in place."""
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
    cluster.client.send(coordinator.pid, CertifyRequest(txn=txn, payload=payload, request_id=2))
    cluster.run()
    assert coordinator.duplicate_certify_requests == 1
    assert cluster.history.contradictions == []


# ----------------------------------------------------------------------
# snapshot reads under a retry policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("timeout", [10.0, 40.0])
@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_snapshot_read_to_a_removed_leader_falls_back_on_the_push(protocol, timeout):
    """The leader a read was sent to crashed: under a retry policy the
    pushed configuration that removes it certifies the read at once, and
    it decides once the shard is reconfigured, like a write submitted
    after it, whatever the retry timeout.  The failover names the crashed
    leader as its suspect, as a scripted reconfigure step does: an
    unsuspected silent member would be waited for up to the retry timeout
    (``Reconfigurer._await_members``)."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        protocol=protocol,
        seed=3,
        retry=RetryPolicy(timeout=timeout),
        read=ReadPolicy(mode="snapshot"),
    )
    cluster.run()  # deliver the bootstrap lease grants
    key = shard_key(cluster.scheme, "shard-0")
    crashed = cluster.crash_leader("shard-0")
    read = cluster.submit_read((key,), fallback_payload=read_payload(key))
    cluster.reconfigure("shard-0", suspects=[crashed])
    write = cluster.submit(rw_payload(key, tiebreak="w"))
    cluster.run()
    assert cluster.history.decision_of(read) is Decision.COMMIT
    assert cluster.history.decision_of(write) is Decision.COMMIT
    client = cluster.client
    latency = client.decide_times[read] - client.submit_times[read]
    assert latency == {"message-passing": 12.0, "rdma": 13.0}[protocol]
    stats = cluster.read_stats()
    assert stats.read_fallbacks == 1 and stats.fallback_reasons == {"pushed": 1}
    assert cluster.retry_stats().orphaned == 0
    assert cluster.check()[0].ok


@pytest.mark.parametrize("reason", ["lease", "timeout"])
def test_a_read_fallback_is_retried_and_orphaned_like_any_certify(reason):
    """Nobody can certify the fallback: it is re-submitted up to the
    policy's attempts and then counted as orphaned."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=7,
        retry=RetryPolicy(timeout=10.0, backoff=1.0, max_attempts=3),
        read=ReadPolicy(mode="snapshot"),
    )
    key = shard_key(cluster.scheme, "shard-0")
    # Every coordinator candidate of a shard-0 read is a shard-1 member.
    # The shard-0 leader refuses for its lease (no grant is delivered
    # before the read), or is down too and never answers.
    crashed = cluster.members_of("shard-1")
    if reason == "timeout":
        crashed += cluster.members_of("shard-0")
    for pid in crashed:
        cluster.crash(pid)
    read = cluster.submit_read((key,), fallback_payload=read_payload(key))
    cluster.run()
    assert cluster.history.decision_of(read) is None
    assert cluster.read_stats().fallback_reasons == {reason: 1}
    stats = cluster.retry_stats()
    assert stats.retries == 2 and stats.orphaned == 1
    assert cluster.client.orphaned == [read]


# ----------------------------------------------------------------------
# one shard resolution per submission
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, owner, name):
    counted = {"calls": 0}
    original = getattr(owner, name)

    def counting(*args):
        counted["calls"] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return counted


@pytest.mark.parametrize("retry", [RetryPolicy(), RetryPolicy(timeout=50.0)], ids=["off", "on"])
@pytest.mark.parametrize("binding", [Cluster, BaselineCluster])
def test_a_certified_submission_resolves_its_shards_once(monkeypatch, binding, retry):
    cluster = binding(num_shards=4, seed=5, retry=retry)
    counted = _count_calls(monkeypatch, cluster.scheme, "shards_of")
    keys = [shard_key(cluster.scheme, shard) for shard in cluster.shards]
    payloads = [
        payload(
            reads=[(keys[i % 4], (0, "")), (keys[(i + 1) % 4], (0, ""))],
            writes=[(keys[i % 4], i)],
            tiebreak=f"t{i}",
        )
        for i in range(40)
    ]
    decisions = cluster.certify_many(payloads)
    assert all(decision is not None for decision in decisions.values())
    assert counted["calls"] == len(payloads)


def test_a_snapshot_read_resolves_its_shard_once(monkeypatch):
    cluster = Cluster(num_shards=2, seed=11, read=ReadPolicy(mode="snapshot"))
    store = TransactionalStore(cluster)
    keys = [shard_key(cluster.scheme, "shard-0", hint=hint) for hint in ("a", "b")]
    shard_of = _count_calls(monkeypatch, cluster.scheme.sharding, "shard_of")
    shards_of = _count_calls(monkeypatch, cluster.scheme, "shards_of")
    # No run before the reads: the leader refuses them for its lease, so
    # they take the certified fallback too.
    txns = [store.submit_read_async(keys), store.submit_read_async(keys[:1])]
    assert shard_of["calls"] == 3  # one per object, at submission
    assert cluster.run_until_decided(txns)
    assert cluster.read_stats().fallback_reasons == {"lease": 2}
    assert shards_of["calls"] == 0  # the fallback reuses the read's shard
