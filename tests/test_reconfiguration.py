"""Integration tests for per-shard reconfiguration (Figure 1, lines 33-69);
the probing-loop cases run against global reconfiguration (Figure 8) too."""

import pytest

from repro.cluster import Cluster
from repro.core.messages import CsViewChange
from repro.core.types import Decision, Status

from helpers import certification_order, committed_of, payload, rw_payload, shard_key


NARROW = dict(num_shards=2, replicas_per_shard=2, spares_per_shard=2, seed=21)
WIDE = dict(num_shards=2, replicas_per_shard=3, spares_per_shard=3, seed=23)


@pytest.fixture
def cluster():
    return Cluster(**NARROW)


@pytest.fixture
def wide_cluster():
    return Cluster(**WIDE)


def commit_some(cluster, count=3, prefix="k"):
    payloads = [rw_payload(f"{prefix}{i}", tiebreak=f"{prefix}{i}") for i in range(count)]
    decisions = cluster.certify_many(payloads)
    assert all(d is Decision.COMMIT for d in decisions.values())
    return payloads


def test_reconfiguration_replaces_crashed_follower(cluster):
    commit_some(cluster)
    crashed = cluster.crash_follower("shard-0")
    assert cluster.reconfigure("shard-0", suspects=[crashed])
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2
    assert crashed not in config.members
    assert len(config.members) == 2
    # A fresh spare has been drafted in and initialised.
    new_member = [p for p in config.members if p.startswith("shard-0/spare")]
    assert new_member
    assert cluster.replica(new_member[0]).initialized


def test_reconfiguration_after_leader_crash_promotes_follower(cluster):
    commit_some(cluster)
    old_leader = cluster.crash_leader("shard-0")
    assert cluster.reconfigure("shard-0", suspects=[old_leader])
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2
    assert old_leader not in config.members
    new_leader = cluster.replica(config.leader)
    assert new_leader.status is Status.LEADER
    assert new_leader.initialized


def test_certification_continues_after_follower_replacement(cluster):
    committed = commit_some(cluster)
    crashed = cluster.crash_follower("shard-0")
    cluster.reconfigure("shard-0", suspects=[crashed])
    post = rw_payload("post", tiebreak="post")
    assert cluster.certify(post) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_certification_continues_after_leader_replacement(cluster):
    commit_some(cluster)
    old_leader = cluster.crash_leader("shard-0")
    cluster.reconfigure("shard-0", suspects=[old_leader])
    assert cluster.certify(rw_payload("post", tiebreak="post")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_committed_transactions_survive_reconfiguration(cluster):
    """Invariant 2: accepted transactions persist into higher epochs."""
    committed = commit_some(cluster, count=4)
    old_leader = cluster.crash_leader("shard-0")
    cluster.reconfigure("shard-0", suspects=[old_leader])
    new_config = cluster.current_configuration("shard-0")
    decided_txns = set(committed_of(cluster.history))
    for pid in new_config.members:
        replica = cluster.replica(pid)
        recorded = set(certification_order(replica))
        for txn in decided_txns:
            if "shard-0" in cluster.directory.shards_of(txn):
                assert txn in recorded


def test_conflict_detection_preserved_across_reconfiguration(cluster):
    first = rw_payload("x", version=0, tiebreak="a")
    assert cluster.certify(first) is Decision.COMMIT
    old_leader = cluster.crash_leader(cluster.scheme.sharding.shard_of("x"))
    cluster.reconfigure(cluster.scheme.sharding.shard_of("x"), suspects=[old_leader])
    stale = rw_payload("x", version=0, tiebreak="b")
    assert cluster.certify(stale) is Decision.ABORT


def test_other_shards_keep_processing_during_reconfiguration(cluster):
    """Per-shard reconfiguration does not disturb unaffected shards."""
    key1 = shard_key(cluster.scheme, "shard-1")
    crashed = cluster.crash_follower("shard-0")
    # Do not run the reconfiguration to completion yet: submit to shard-1
    # while shard-0 is being probed.
    cluster.reconfigure("shard-0", run=False, suspects=[crashed])
    decision = cluster.certify(rw_payload(key1, tiebreak="other"))
    assert decision is Decision.COMMIT


def test_epoch_monotonically_increases_over_reconfigurations(cluster):
    epochs = [cluster.current_configuration("shard-0").epoch]
    for round_ in range(3):
        crashed = cluster.crash_follower("shard-0")
        assert cluster.reconfigure("shard-0", suspects=[crashed])
        epochs.append(cluster.current_configuration("shard-0").epoch)
        assert cluster.certify(rw_payload(f"r{round_}", tiebreak=f"r{round_}")) in (
            Decision.COMMIT,
            Decision.ABORT,
        )
    assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)


def test_reconfiguration_requires_spares_or_survivors(cluster):
    """With no spares left, the new configuration shrinks to the survivors."""
    cluster.spare_pools["shard-0"]._available.clear()
    crashed = cluster.crash_follower("shard-0")
    cluster.reconfigure("shard-0", suspects=[crashed])
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2
    assert len(config.members) == 1
    assert cluster.certify(rw_payload("after", tiebreak="after")) is Decision.COMMIT


def test_probing_traverses_past_non_operational_epoch(wide_cluster):
    """If a reconfiguration attempt installs a configuration whose only live
    members are fresh (its new leader dies before transferring state), the
    next reconfiguration probes *past* it, down to an older epoch that still
    holds the data (Vertical-Paxos-style traversal; FaRM's single-epoch
    lookback would get stuck here)."""
    cluster = wide_cluster
    shard = "shard-0"
    r0, r1, r2 = cluster.members_of(shard)
    first = rw_payload("k0", version=0, tiebreak="first")
    assert cluster.certify(first) is Decision.COMMIT

    # r2 crashes; r0 reconfigures, excluding r1 and r2 from the new
    # membership, so epoch 2 = (r0, fresh, fresh).
    cluster.crash(r2)
    cluster.reconfigure(shard, initiator=r0, suspects=[r1, r2], run=False)

    def kill_new_leader_once_epoch2_is_introduced() -> bool:
        config = cluster.current_configuration(shard)
        if config is not None and config.epoch == 2:
            cluster.crash(config.leader)
            return True
        return False

    cluster.scheduler.run_until(kill_new_leader_once_epoch2_is_introduced, max_events=100_000)
    cluster.run()
    epoch2 = cluster.current_configuration(shard)
    assert epoch2.epoch == 2
    # Epoch 2 never activated: its surviving members are uninitialised spares.
    for pid in epoch2.members:
        replica = cluster.replica(pid)
        assert replica.crashed or not replica.initialized

    # A further reconfiguration must traverse down to epoch 1 and find r1.
    assert cluster.reconfigure(shard, initiator=r1)
    config = cluster.current_configuration(shard)
    assert config.epoch >= 3
    assert config.leader == r1
    assert cluster.replica(r1).initialized

    # The shard is operational again and remembers its history: a stale
    # re-write of k0 must still abort.
    assert cluster.certify(rw_payload("k0", version=0, tiebreak="stale")) is Decision.ABORT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_spurious_suspicion_reconfiguration_is_harmless(cluster):
    """Reconfiguring a shard whose leader is only *suspected* (but alive)
    bumps the epoch and keeps the system correct."""
    commit_some(cluster)
    shard = "shard-0"
    old_leader_pid = cluster.leader_of(shard)
    follower = cluster.followers_of(shard)[0]
    cluster.reconfigure(shard, initiator=follower, suspects=[old_leader_pid])
    config = cluster.current_configuration(shard)
    assert config.epoch == 2
    assert cluster.certify(rw_payload("fresh", tiebreak="fresh")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_losing_undecided_transaction_is_safe(cluster):
    """Section 3, "Losing undecided transactions": a prepared-but-undecided
    transaction may be lost by a reconfiguration; later transactions whose
    votes depended on it remain correct."""
    shard = cluster.scheme.sharding.shard_of("hot")
    other_shard = "shard-1" if shard == "shard-0" else "shard-0"
    leader_pid = cluster.leader_of(shard)
    follower_pid = cluster.followers_of(shard)[0]
    # Coordinate t1 from a follower of the other shard, so that crashing the
    # coordinator later does not decapitate that shard.
    coordinator = cluster.followers_of(other_shard)[0]

    # t1 reads+writes "hot"; block the coordinator's ACCEPT from reaching the
    # follower so t1 is prepared at the leader but never persisted.
    cluster.network.block(coordinator, follower_pid)
    t1 = cluster.submit(rw_payload("hot", version=0, tiebreak="t1"), coordinator=coordinator)
    cluster.run()
    assert cluster.history.decision_of(t1) is None

    # t2 writes a different key on the same shard; its vote was computed in a
    # context that included prepared-but-uncommitted t1.
    key_other = shard_key(cluster.scheme, shard, hint="cold")
    t2 = cluster.submit(
        rw_payload(key_other, version=0, tiebreak="t2"),
        coordinator=cluster.leader_of(other_shard),
    )
    cluster.run()
    assert cluster.history.decision_of(t2) is Decision.COMMIT

    # The leader and t1's coordinator now crash: t1 is lost forever.
    cluster.crash(leader_pid)
    cluster.crash(coordinator)
    cluster.reconfigure(shard, initiator=follower_pid, suspects=[leader_pid])
    post_key = shard_key(cluster.scheme, shard, hint="post")
    assert cluster.certify(rw_payload(post_key, tiebreak="post")) is Decision.COMMIT

    # t1 was never decided and the overall history is still correct.
    assert cluster.history.decision_of(t1) is None
    result, violations = cluster.check()
    assert result.ok, result.reason
    assert violations == []


# ----------------------------------------------------------------------
# SparePool exhaustion and concurrent probe races
# ----------------------------------------------------------------------
def test_spare_pool_exhaustion_shrinks_configuration_progressively(cluster):
    """Repeated failures drain the pool one spare at a time; once it is
    empty, membership recomputation must still publish a valid (smaller)
    configuration instead of wedging the shard."""
    pool = cluster.spare_pools["shard-0"]
    assert len(pool) == 2
    sizes = []
    epochs = []
    for round_ in range(3):
        crashed = cluster.crash_follower("shard-0")
        assert cluster.reconfigure("shard-0", suspects=[crashed])
        config = cluster.current_configuration("shard-0")
        sizes.append(len(config.members))
        epochs.append(config.epoch)
        assert crashed not in config.members
        assert config.leader in config.members
        # Every published member is either initialised or a fresh spare
        # awaiting its NEW_STATE (never a crashed process).
        for pid in config.members:
            assert not cluster.replica(pid).crashed
        assert cluster.certify(rw_payload(f"round{round_}", tiebreak=f"r{round_}")) is Decision.COMMIT
    # Two rounds were topped up from the pool; the third had nothing left
    # and shrank to the survivors.
    assert sizes == [2, 2, 1]
    assert len(pool) == 0
    assert epochs == sorted(epochs) and len(set(epochs)) == 3
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_concurrent_reconfigurations_race_to_one_winner(cluster):
    """Two processes probe the same shard concurrently: both drive the same
    recon epoch, exactly one compare-and-swap wins, and the loser's attempt
    leaves no dangling state."""
    commit_some(cluster)
    crashed = cluster.crash_follower("shard-0")
    service = cluster.config_service
    cas_before = service.cas_attempts
    initiators = [
        cluster.replica(cluster.leader_of("shard-0")),
        cluster.replica(cluster.members_of("shard-1")[0]),
    ]
    for initiator in initiators:
        initiator.suspect(crashed)
        assert initiator.reconfigure("shard-0")  # both start probing
    cluster.run()
    assert service.cas_attempts >= cas_before + 2  # the race really happened
    introduced = sum(r.reconfigurations_introduced for r in initiators)
    assert introduced == 1  # exactly one CAS won
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2
    assert crashed not in config.members
    assert cluster.replica(config.leader).is_leader
    assert cluster.certify(rw_payload("after-race", tiebreak="after")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_suspicion_push_races_timeout_reconfigure_to_one_winner(cluster):
    """A service-pushed CS_VIEW_CHANGE (suspicion-driven, unsolicited) racing
    a timeout-driven ``reconfigure()`` of the same shard: both run the
    ordinary probe/CAS path, exactly one introduction wins, and neither
    initiator is left wedged in its probing state."""
    commit_some(cluster)
    crashed = cluster.crash_follower("shard-0")
    service = cluster.config_service
    cas_before = service.cas_attempts
    pushed = cluster.replica(cluster.leader_of("shard-0"))
    timed_out = cluster.replica(cluster.members_of("shard-1")[0])
    timed_out.suspect(crashed)
    assert timed_out.reconfigure("shard-0")  # the retry-timeout path
    service.send(  # the detector path: confirmed suspicion, pushed back out
        pushed.pid, CsViewChange(shard="shard-0", epoch=1, suspects=(crashed,))
    )
    cluster.run()
    assert service.cas_attempts >= cas_before + 2  # the race really happened
    assert pushed.unsolicited_reconfigurations == 1
    introduced = (
        pushed.reconfigurations_introduced + timed_out.reconfigurations_introduced
    )
    assert introduced == 1  # exactly one CAS won
    assert not pushed.probing and not timed_out.probing
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2
    assert crashed not in config.members
    assert cluster.certify(rw_payload("after-push", tiebreak="ap")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


def test_concurrent_probe_race_with_exhausted_pool(cluster):
    """The race of the previous test combined with an empty spare pool: the
    winning reconfigurer must publish a valid smaller configuration."""
    cluster.spare_pools["shard-0"]._available.clear()
    crashed = cluster.crash_follower("shard-0")
    initiators = [
        cluster.replica(cluster.leader_of("shard-0")),
        cluster.replica(cluster.members_of("shard-1")[0]),
    ]
    for initiator in initiators:
        initiator.suspect(crashed)
        assert initiator.reconfigure("shard-0")
    cluster.run()
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2
    assert len(config.members) == 1  # shrank: no spares to top up with
    assert config.leader in config.members
    assert cluster.certify(rw_payload("small", tiebreak="small")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []


# ----------------------------------------------------------------------
# Figure 8 runs the same probing loop, once per shard: step-down past a
# non-operational epoch (lines 125-130) and the CAS race have the cases
# Figure 1 has.  (The cases keep their message-passing names above; each
# body runs a second time here on an RDMA cluster of the same shape.)
# ----------------------------------------------------------------------
PROBING_LOOP_CASES = [
    (test_probing_traverses_past_non_operational_epoch, WIDE),
    (test_concurrent_reconfigurations_race_to_one_winner, NARROW),
    (test_suspicion_push_races_timeout_reconfigure_to_one_winner, NARROW),
    (test_concurrent_probe_race_with_exhausted_pool, NARROW),
]


@pytest.mark.parametrize(
    "case, shape", PROBING_LOOP_CASES, ids=[case.__name__ for case, _ in PROBING_LOOP_CASES]
)
def test_global_reconfiguration_passes_the_per_shard_case(case, shape):
    case(Cluster(protocol="rdma", **shape))


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_reconfigurer_from_another_shard_draws_spares_from_the_reconfigured_shard(protocol):
    """Any process may reconfigure a shard (the paper's ``reconfigure(s)``);
    the replacement must come from that shard's spare pool, not from the
    reconfigurer's own — a shard-0 spare would join shard-1 believing it is
    a shard-0 replica, and shard-1 would stop deciding."""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, protocol=protocol)
    cluster.crash("shard-1/r1")
    assert cluster.reconfigure("shard-1", initiator="shard-0/r0", suspects=["shard-1/r1"])
    assert cluster.members_of("shard-1") == ("shard-1/r0", "shard-1/spare0")
    assert len(cluster.spare_pools["shard-0"]) == 2  # untouched
    key = shard_key(cluster.scheme, "shard-1")
    assert cluster.certify(rw_payload(key, tiebreak="after")) is Decision.COMMIT
    result, violations = cluster.check()
    assert result.ok and violations == []
