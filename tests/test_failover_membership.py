"""One install per failover: the membership rule, the delta ``NEW_STATE``
and when a spare joins (``repro.core.reconfig``), on both TCS stacks.

* A probe round keeps every probed member it does not suspect: it proposes
  once all of them have answered, or once a bounded wait has passed
  (``Reconfigurer._await_members``).
* A spare joins only where the new leader would otherwise be alone.
* A kept member whose decided slots were exactly ``1..p`` when probed gets
  only the leader's slots above ``p`` (a delta), when the leader has
  decided nothing above ``p``; every other member gets the full state.
"""

import pytest

from repro.client import RetryPolicy
from repro.cluster import Cluster
from repro.core.failuredetector import DetectorPolicy
from repro.core.messages import NewState, SlotDecision
from repro.core.reconfig import Reconfigurer
from repro.core.types import Decision, Phase, Status
from repro.runtime.process import Process
from repro.runtime.wire import wire_size
from repro.scenarios import (
    FaultStep,
    NetworkSpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
)

from helpers import rw_payload, shard_key

STACKS = ("message-passing", "rdma")


@pytest.fixture
def new_states(monkeypatch):
    """Every ``NEW_STATE`` sent from here on, as ``(sender, receiver, message)``."""
    sent = []
    send = Process.send

    def sending(process, dst, message, weak=False):
        if isinstance(message, NewState):
            sent.append((process.pid, dst, message))
        send(process, dst, message, weak)

    monkeypatch.setattr(Process, "send", sending)
    return sent


# ----------------------------------------------------------------------
# a leader crash under load on sized links, detector-driven
# ----------------------------------------------------------------------
CRASH_AT = 60.5


def _leader_crash_spec(protocol):
    """f=2, 120 B/delay links with 0.1 delays of overhead, a (2, 3)
    detector and shard-0's leader crashing under load."""
    return ScenarioSpec(
        name="sized-leader-crash",
        protocol=protocol,
        num_shards=2,
        replicas_per_shard=3,
        workload=WorkloadSpec(kind="uniform", txns=240, batch=8, num_keys=256),
        network=NetworkSpec(bandwidth=120, overhead=0.1),
        detector=DetectorPolicy(interval=2.0, threshold=3),
        retry=RetryPolicy(timeout=30.0, backoff=1.5, max_attempts=6),
        faults=(
            FaultStep(at=CRASH_AT, action="crash-leader", shard="shard-0"),
            FaultStep(at=200.5, action="retry-stalled"),
        ),
    )


@pytest.mark.parametrize("protocol", STACKS)
def test_a_leader_crash_installs_the_live_members_once(protocol, new_states):
    runner = ScenarioRunner(_leader_crash_spec(protocol))
    cluster = runner.build()
    initial = cluster.members_of("shard-0")
    result = runner.run()
    crashed = initial[0]
    assert cluster.replica(crashed).crashed
    installs = [
        epoch
        for at, shard, epoch in cluster.config_service.install_log
        if shard == "shard-0" and at > CRASH_AT
    ]
    assert installs == [2]
    # Both live members kept, no spare taken.
    assert set(cluster.members_of("shard-0")) == set(initial) - {crashed}
    assert cluster.spare_pools["shard-0"].taken == []
    membership = result.membership
    assert membership.shard_members["shard-0"] == 2 and membership.under_target_proposals >= 1
    # The kept follower is sent only what it lacks.
    config = cluster.current_configuration("shard-0")
    (follower,) = config.followers
    to_follower = [
        message
        for sender, dst, message in new_states
        if sender == config.leader and dst == follower and message.epoch == config.epoch
    ]
    assert [message.base is not None for message in to_follower] == [True]
    assert wire_size(to_follower[0]) < 1024
    assert result.safety_ok and result.undecided == 0


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", STACKS)
def test_failure_free_rolling_reconfiguration_keeps_its_members(protocol):
    runner = ScenarioRunner(get_scenario("rolling-reconfiguration").with_overrides(protocol=protocol))
    cluster = runner.build()
    initial = {shard: cluster.members_of(shard) for shard in cluster.shards}
    result = runner.run()
    assert {shard: cluster.members_of(shard) for shard in cluster.shards} == initial
    assert all(pool.taken == [] for pool in cluster.spare_pools.values())
    assert result.membership.under_target_proposals == 0
    assert result.membership.shard_members == {shard: 2 for shard in cluster.shards}
    assert not result.membership.short and "shard members" not in result.render()


@pytest.mark.parametrize("protocol", STACKS)
def test_a_lone_leader_takes_a_spare(protocol, new_states):
    """With 2 replicas a leader crash leaves the follower alone: a
    one-member configuration tolerates no crash, so a spare joins, and it
    gets the full state (it was never initialized)."""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=5, protocol=protocol)
    key = shard_key(cluster.scheme, "shard-0")
    assert cluster.certify(rw_payload(key, tiebreak="a")) is Decision.COMMIT
    crashed = cluster.crash_leader("shard-0")
    assert cluster.reconfigure("shard-0", suspects=[crashed])
    config = cluster.current_configuration("shard-0")
    assert config.members == (cluster.initial_configs["shard-0"].members[1], "shard-0/spare0")
    to_spare = [m for _s, dst, m in new_states if dst == "shard-0/spare0"]
    assert to_spare and all(message.base is None for message in to_spare)
    assert cluster.replica("shard-0/spare0").initialized
    fresh = shard_key(cluster.scheme, "shard-0", hint="fresh")
    assert cluster.certify(rw_payload(fresh, tiebreak="b")) is Decision.COMMIT


@pytest.mark.parametrize(
    "policy, wait",
    [
        (dict(detector=DetectorPolicy(interval=2.0, threshold=3)), 6.0),
        (dict(retry=RetryPolicy(timeout=10.0)), 10.0),
        ({}, 2.0),
    ],
    ids=["detector-window", "retry-timeout", "probe-round-trip"],
)
def test_a_silent_unsuspected_member_is_waited_for_a_bounded_time(policy, wait):
    """A crashed follower nobody suspects holds the proposal back by the
    detector window, else the retry timeout, else as long again as the
    probe round took (2 delays here); then the proposal leaves it out."""
    installed = {}
    for suspects in ([], ["shard-0/r2"]):
        cluster = Cluster(num_shards=1, replicas_per_shard=3, seed=3, **policy)
        cluster.crash("shard-0/r2")
        start = cluster.scheduler.now
        cluster.reconfigure("shard-0", initiator="shard-0/r0", suspects=suspects)
        ((at, _shard, epoch),) = cluster.config_service.install_log[1:]
        assert epoch == 2
        assert cluster.members_of("shard-0") == ("shard-0/r0", "shard-0/r1")
        installed[bool(suspects)] = at - start
    assert installed[False] - installed[True] == wait


# ----------------------------------------------------------------------
# the delta rule and its fall-backs
# ----------------------------------------------------------------------
def _committed_cluster(protocol, count=4):
    cluster = Cluster(num_shards=1, replicas_per_shard=3, seed=9, protocol=protocol)
    for index in range(count):
        key = shard_key(cluster.scheme, "shard-0", hint=f"k{index}")
        assert cluster.certify(rw_payload(key, tiebreak=f"t{index}")) is Decision.COMMIT
    cluster.run()
    return cluster


def _bases(new_states, epoch):
    return {dst: message.base for _s, dst, message in new_states if message.epoch == epoch}


@pytest.mark.parametrize("protocol", STACKS)
def test_a_decided_prefix_gets_a_delta(protocol, new_states):
    cluster = _committed_cluster(protocol)
    r0, r1, r2 = (cluster.replica(pid) for pid in cluster.members_of("shard-0"))
    prefix = r1._decided_prefix()
    assert prefix == r2._decided_prefix() == r0._decided_prefix() == 4
    summary = r1._votes.settled()
    assert cluster.reconfigure("shard-0", initiator=r0.pid)
    assert _bases(new_states, 2) == {r1.pid: prefix, r2.pid: prefix}
    # Nothing above the prefix: the delta carries no slot, and the member
    # keeps its own slots and summary.
    assert all(not message.txn and message.summary is None for *_, message in new_states)
    assert r1._votes.settled() == summary
    assert [r1.phase(slot) for slot in range(1, prefix + 2)] == [Phase.DECIDED] * prefix + [
        Phase.START
    ]
    key = shard_key(cluster.scheme, "shard-0", hint="k0")
    assert cluster.certify(rw_payload(key, tiebreak="stale")) is Decision.ABORT


@pytest.mark.parametrize("protocol", STACKS)
def test_a_decided_slot_above_a_gap_gets_the_full_state(protocol, new_states):
    cluster = _committed_cluster(protocol)
    r0, r1, r2 = (cluster.replica(pid) for pid in cluster.members_of("shard-0"))
    r1.decide_slot(7, Decision.ABORT)  # slots 5 and 6 empty below it
    assert r1._decided_prefix() is None
    assert cluster.reconfigure("shard-0", initiator=r0.pid)
    assert _bases(new_states, 2) == {r1.pid: None, r2.pid: 4}
    assert r1.phase(7) is Phase.START  # the full state replaced its slots


@pytest.mark.parametrize("protocol", STACKS)
def test_a_leader_decided_above_the_prefix_sends_the_full_state(protocol, new_states):
    cluster = _committed_cluster(protocol)
    r0, r1, r2 = (cluster.replica(pid) for pid in cluster.members_of("shard-0"))
    r0.decide_slot(5, Decision.ABORT)  # the leader alone holds slot 5 decided
    assert r1._decided_prefix() == 4
    assert cluster.reconfigure("shard-0", initiator=r0.pid)
    assert _bases(new_states, 2) == {r1.pid: None, r2.pid: None}
    assert r1.phase(5) is Phase.DECIDED and r2.phase(5) is Phase.DECIDED


@pytest.mark.parametrize("protocol", STACKS)
def test_a_member_never_initialized_gets_the_full_state(protocol):
    cluster = Cluster(num_shards=1, replicas_per_shard=2, seed=4, protocol=protocol)
    spare = cluster.replica("shard-0/spare0")
    assert not spare.initialized and spare._decided_prefix() is None
    crashed = cluster.crash_leader("shard-0")
    assert cluster.reconfigure("shard-0", suspects=[crashed])
    assert spare.initialized and spare.pid in cluster.members_of("shard-0")


def test_a_delta_drops_the_members_undecided_tail():
    """Above its prefix a member takes exactly the leader's slots: an
    undecided slot only it holds goes, and the leader's undecided slots
    arrive with their payloads."""
    cluster = _committed_cluster("message-passing")
    r0, r1, _r2 = (cluster.replica(pid) for pid in cluster.members_of("shard-0"))
    key = shard_key(cluster.scheme, "shard-0", hint="tail")
    mine, theirs = rw_payload(key, tiebreak="mine"), rw_payload(key, tiebreak="theirs")
    r1.store_slot(5, "t-mine", mine, Decision.COMMIT)
    r1.store_slot(6, "t-mine-2", mine, Decision.COMMIT)
    r0.store_slot(5, "t-theirs", theirs, Decision.COMMIT)
    assert r1._decided_prefix() == 4
    assert cluster.reconfigure("shard-0", initiator=r0.pid, run=False)
    cluster.run()
    assert r1.txn_arr[5] == "t-theirs" and r1.payload_arr[5] == theirs
    assert r1.phase(6) is Phase.START and "t-mine" not in r1.slot_of
    assert "t-mine-2" not in r1.slot_of and r1.next == 5


# ----------------------------------------------------------------------
# a decision stashed at the leader-elect
# ----------------------------------------------------------------------
def test_followers_hold_the_decisions_the_new_leader_applies(monkeypatch):
    """A DECISION of the old epoch that reaches the leader-elect while it
    is RECONFIGURING waits in its stash; the leader applies it before it
    snapshots its state, so its followers hold it as soon as they adopt
    the ``NEW_STATE``, not undecided."""
    cluster = _committed_cluster("message-passing")
    r0, r1, r2 = (cluster.replica(pid) for pid in cluster.members_of("shard-0"))
    key = shard_key(cluster.scheme, "shard-0", hint="late")
    for replica in (r1, r2):
        replica.store_slot(5, "t-late", rw_payload(key, tiebreak="late"), Decision.COMMIT)
    adopted = {}
    adopt_state = Reconfigurer._adopt_state

    def adopting(replica, msg):
        adopt_state(replica, msg)
        adopted[replica.pid] = replica.phase(5)

    monkeypatch.setattr(Reconfigurer, "_adopt_state", adopting)
    cluster.crash(r0.pid)
    cluster.reconfigure("shard-0", initiator=r1.pid, suspects=[r0.pid], run=False)
    cluster.scheduler.run_until(lambda: r1.status is Status.RECONFIGURING, max_events=1000)
    r1.on_slot_decision(SlotDecision(epoch=1, slot=5, decision=Decision.COMMIT), r0.pid)
    assert r1.phase(5) is Phase.PREPARED  # stashed
    cluster.run()
    assert cluster.leader_of("shard-0") == r1.pid
    assert adopted == {r2.pid: Phase.DECIDED}
    assert r1.phase(5) is Phase.DECIDED


# ----------------------------------------------------------------------
# RDMA: a CONNECT that beats the NEW_STATE
# ----------------------------------------------------------------------
def test_a_connect_that_beats_the_new_state_waits_for_it(monkeypatch):
    """Shard-1's new leader's ``CONNECT`` reaches shard-0's kept follower
    before the follower's own (delayed) ``NEW_STATE``.  The follower holds
    it and answers it as it installs, so it accepts that leader's one-sided
    writes from then on, rather than bouncing them until its own
    ``CONNECT`` round trip returns."""
    from repro.rdma.replica import RdmaShardReplica

    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=1, protocol="rdma")
    leader0, follower0 = cluster.members_of("shard-0")
    leader1 = cluster.leader_of("shard-1")
    cluster.network.add_extra_delay(leader0, follower0, 6.0)
    granted = {}
    on_new_state = RdmaShardReplica.on_new_state

    def installing(replica, msg, sender):
        on_new_state(replica, msg, sender)
        granted[replica.pid] = leader1 in replica.rdma.connections

    monkeypatch.setattr(RdmaShardReplica, "on_new_state", installing)
    assert cluster.reconfigure("shard-0", initiator=leader1)
    assert cluster.members_of("shard-0") == (leader0, follower0)
    assert granted[follower0]
