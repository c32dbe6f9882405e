"""In-flight transactions across a reconfiguration, on both TCS stacks.

Wherever a shard's epoch advances at a coordinator (``epoch_of``: a
``CONFIG_CHANGE`` / ``NEW_CONFIG`` / ``NEW_STATE`` install under Figure 1,
the global epoch's ``NEW_CONFIG`` / ``NEW_STATE`` under Figure 8), the
replica replays its stash and then re-sends ``PREPARE`` for every undecided
transaction that holds no vote of the new epoch on that shard
(``ReplicaBase._enter_epochs``).  A replica still RECONFIGURING holds a
``PREPARE`` rather than dropping it, and answers it once it leads.

The library cases pin, per scenario and stack, the transactions left
undecided at quiescence and the PREPAREs a replica refused; the unit cases
drive one transaction through each path."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.core.batching import BatchPolicy
from repro.core.messages import Prepare
from repro.core.reconfig import Reconfigurer
from repro.core.replica import ReplicaBase
from repro.core.types import Decision, Status
from repro.scenarios import NetworkSpec, ScenarioError, ScenarioRunner, get_scenario, run_scenario
from repro.scenarios.library import SCENARIOS

from helpers import payload, rw_payload, shard_key


STACKS = ("message-passing", "rdma")

# Undecided transactions at quiescence, message-passing / RDMA, where not 0.
# What is left: joiners that never learn another shard's configuration
# (ROADMAP item 7(b); see the cascading-crashes case below), crashed
# coordinators whose prepared slots nothing retries (item 8) and a
# configuration service cut off past the run's end.  A reconfiguration
# keeps its live members, so failure-free rolling-reconfiguration has no
# joiner left, and an RDMA member holds a CONNECT that reaches it while
# it is RECONFIGURING, so no ACCEPT bounces off it after its install.  A
# change that lowers a count updates this table.
UNDECIDED = {
    "cascading-crashes": (27, 0),
    "config-service-outage": (40, 40),
    "follower-partition": (2, 2),
}

# PREPAREs refused by a replica that was neither the leader nor a
# leader-elect (``ReplicaBase.dropped_prepares``), where not 0.
REFUSED_PREPARES: dict = {}


def _library_keys():
    for name in SCENARIOS:
        for protocol in STACKS:
            try:
                get_scenario(name).with_overrides(protocol=protocol)
            except ScenarioError:
                continue
            yield f"{name}|{protocol}"


def _library_spec(key):
    name, protocol = key.split("|")
    return get_scenario(name).with_overrides(protocol=protocol)


@pytest.mark.parametrize("key", list(_library_keys()))
def test_undecided_at_quiescence(key):
    name, protocol = key.split("|")
    expected = UNDECIDED.get(name, (0, 0))[STACKS.index(protocol)]
    assert run_scenario(_library_spec(key)).undecided == expected


@pytest.mark.parametrize("key", list(_library_keys()))
def test_no_prepare_reaching_a_leader_elect_is_dropped(key, monkeypatch):
    """A refusal by a process that went on to lead the epoch it was
    entering would be a PREPARE dropped at a leader-elect; the refusals
    that remain are counted."""
    refused = []  # (pid, epoch being entered) of each refusal
    led = set()  # (pid, epoch) of each NEW_CONFIG a process led
    on_prepare = ReplicaBase.on_prepare
    lead_own_slots = Reconfigurer._lead_own_slots

    def refusing(replica, msg, sender):
        before = replica.dropped_prepares
        on_prepare(replica, msg, sender)
        if replica.dropped_prepares > before:
            refused.append((replica.pid, replica.new_epoch))

    def leading(replica):
        led.add((replica.pid, replica.my_epoch))
        return lead_own_slots(replica)

    monkeypatch.setattr(ReplicaBase, "on_prepare", refusing)
    monkeypatch.setattr(Reconfigurer, "_lead_own_slots", leading)
    runner = ScenarioRunner(_library_spec(key))
    runner.run()
    assert [each for each in refused if each in led] == []
    counted = sum(replica.dropped_prepares for replica in runner.cluster.replicas.values())
    assert counted == REFUSED_PREPARES.get(key, 0)


def test_a_joiner_strands_what_it_coordinates_with_a_stale_view():
    """ROADMAP item 7(b), kept visible: in ``cascading-crashes`` shard-1's
    leader crashes and a spare joins shard-1 in its place.  Nobody tells
    the joiner about shard-0's newer configurations (the service pushes
    ``CONFIG_CHANGE`` only to the other shards' members of the time), so
    it sends its shard-0 ``PREPARE`` messages to shard-0's crashed first
    leader and strands 25 transactions; the other 2 belong to a crashed
    coordinator (item 8).  RDMA's global configuration reaches every
    joiner: 0."""
    by_coordinator = {}
    for protocol in STACKS:
        runner = ScenarioRunner(_library_spec(f"cascading-crashes|{protocol}"))
        runner.run()
        cluster = runner.cluster
        decided = cluster.history.decided()
        undecided = {t for t in cluster.history.certified() if t not in decided}
        by_coordinator[protocol] = {
            replica.pid: len(undecided & set(replica._coordinated))
            for replica in cluster.replicas.values()
            if undecided & set(replica._coordinated)
        }
        if protocol == "message-passing":
            joiner = cluster.replica("shard-1/spare0")
            assert joiner.initialized and joiner.pid in cluster.members_of("shard-1")
            assert joiner.view["shard-0"].epoch < cluster.current_configuration("shard-0").epoch
    assert by_coordinator == {
        "message-passing": {"shard-0/r1": 2, "shard-1/spare0": 25},
        "rdma": {},
    }


# ----------------------------------------------------------------------
# one transaction through each path, on both stacks
# ----------------------------------------------------------------------
@pytest.fixture(params=STACKS)
def protocol(request):
    return request.param


def _cluster(protocol, **kwargs):
    return Cluster(
        num_shards=2, replicas_per_shard=2, spares_per_shard=2, seed=21, protocol=protocol, **kwargs
    )


def _shard0_payload(cluster, hint):
    return rw_payload(shard_key(cluster.scheme, "shard-0", hint=hint), tiebreak=hint)


def _lose_a_prepare_with_its_leader(cluster):
    """Submit a shard-0 transaction through shard-1's leader and crash
    shard-0's leader before the PREPARE arrives; returns the transaction
    and the crashed leader."""
    leader = cluster.leader_of("shard-0")
    txn = cluster.submit(_shard0_payload(cluster, "lost"), coordinator=cluster.leader_of("shard-1"))
    cluster.crash(leader)
    cluster.run()
    assert cluster.history.decision_of(txn) is None
    return txn, leader


def test_a_prepare_lost_with_a_crashed_leader_is_re_sent_after_the_install(protocol):
    cluster = _cluster(protocol)
    coordinator = cluster.replica(cluster.leader_of("shard-1"))
    txn, leader = _lose_a_prepare_with_its_leader(cluster)
    cluster.reconfigure("shard-0", suspects=[leader])
    assert cluster.current_configuration("shard-0").epoch == 2
    assert coordinator.epoch_of("shard-0") == 2
    # No client session and no scripted retry: the install re-drove it.
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    assert cluster.retry_stats().retries == 0
    result, violations = cluster.check()
    assert result.ok and violations == []


@pytest.mark.parametrize(
    "batch", [BatchPolicy(), BatchPolicy(size=8)], ids=["unbatched", "batched"]
)
def test_the_redrive_leaves_the_phase_samples_unchanged(protocol, batch):
    """A re-driven PREPARE stamps no ``dispatched_at``: the transaction's
    queueing delay is that of its first dispatch, and the outage counts
    towards certification."""
    cluster = _cluster(protocol, batch=batch)
    txn, leader = _lose_a_prepare_with_its_leader(cluster)
    entry = cluster.replica(cluster.leader_of("shard-1")).coordinated(txn)
    started, dispatched = entry.started_at, entry.dispatched_at
    assert dispatched == started
    cluster.reconfigure("shard-0", suspects=[leader])
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    (decided,) = [r for r in cluster.coordinator_entries().values() if r.txn == txn]
    assert decided.dispatched_at == dispatched
    samples = cluster.phase_samples()
    assert list(samples["queue_wait"]) == [0.0]
    assert list(samples["certify_to_decide"]) == [decided.decided_at - started]


def test_a_leader_elect_holds_a_prepare_while_reconfiguring(protocol):
    cluster = _cluster(protocol)
    leader = cluster.replica(cluster.leader_of("shard-0"))
    coordinator = cluster.replica(cluster.leader_of("shard-1"))
    epochs = []
    on_prepare_ack = coordinator.on_prepare_ack

    def recording(msg, sender):
        epochs.append(msg.epoch)
        on_prepare_ack(msg, sender)

    coordinator.on_prepare_ack = recording
    # The leader reconfigures its own shard: its own probe answer comes
    # first, so it leads the next epoch.
    cluster.reconfigure("shard-0", initiator=leader.pid, run=False)
    assert cluster.scheduler.run_until(lambda: leader.status is Status.RECONFIGURING)
    txn = cluster.submit(_shard0_payload(cluster, "held"), coordinator=coordinator.pid)
    assert cluster.scheduler.run_until(lambda: bool(leader._stash))
    assert leader.status is Status.RECONFIGURING
    assert [type(message) for message, _ in leader._stash] == [Prepare]
    cluster.run()
    assert (leader.status, leader.my_epoch) == (Status.LEADER, 2)
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    # Answered in the new epoch; nothing was refused.
    assert epochs and set(epochs) == {2}
    assert leader.dropped_prepares == 0
    result, violations = cluster.check()
    assert result.ok and violations == []


def _enter_next_epoch(replica, protocol, shard):
    """Advance ``replica``'s ``epoch_of(shard)`` by one, as its stack does:
    one shard's install (Figure 1), or the global epoch (Figure 8)."""
    if protocol == "rdma":
        replica.epoch += 1
        replica._enter_epochs(replica.view)
    else:
        config = replica.view[shard]
        replica._install(shard, replace(config, epoch=config.epoch + 1))


def _recorded_sends(process):
    """``(dst, message)`` of every later send of ``process``."""
    sent = []
    send = process.send

    def recording_send(dst, message, **kwargs):
        sent.append((dst, message))
        return send(dst, message, **kwargs)

    process.send = recording_send
    return sent


def test_a_vote_of_the_current_epoch_is_not_re_sent(protocol):
    """A vote of an epoch the coordinator has not reached waits in its
    stash; the epoch's arrival replays it before the re-drive, which then
    skips that shard.  Only a shard whose vote is older is re-sent (on
    RDMA, shard-1: the global epoch moved it too)."""
    cluster = _cluster(protocol)
    coordinator = cluster.replica(cluster.members_of("shard-1")[0])
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    both = payload(reads=[(key0, (0, "")), (key1, (0, ""))], writes=[(key0, 1), (key1, 2)])
    held = []
    on_prepare_ack = coordinator.on_prepare_ack

    def holding(msg, sender):
        if msg.shard == "shard-0":
            held.append((msg, sender))
        else:
            on_prepare_ack(msg, sender)

    coordinator.on_prepare_ack = holding
    txn = cluster.submit(both, coordinator=coordinator.pid)
    cluster.run()
    del coordinator.on_prepare_ack
    [(ack, sender)] = held
    newer = replace(ack, epoch=ack.epoch + 1)
    coordinator.deliver(newer, sender)
    assert coordinator._stash == [(newer, sender)]

    sent = _recorded_sends(coordinator)
    _enter_next_epoch(coordinator, protocol, "shard-0")
    entry = coordinator.coordinated(txn)
    assert entry.votes["shard-0"] is newer and not coordinator._stash
    prepares = [(dst, m.txn) for dst, m in sent if isinstance(m, Prepare)]
    expected = [(cluster.leader_of("shard-1"), txn)] if protocol == "rdma" else []
    assert prepares == expected


def test_a_dispatch_the_stop_and_wait_gate_holds_is_not_re_driven(protocol):
    cluster = _cluster(protocol, network=NetworkSpec(pipeline=False))
    coordinator = cluster.replica(cluster.leader_of("shard-1"))
    txns = [
        cluster.submit(_shard0_payload(cluster, f"k{i}"), coordinator=coordinator.pid)
        for i in range(3)
    ]
    cluster.run(max_time=1.5)
    assert [coordinator.gate.holds(txn) for txn in txns] == [False, True, True]
    sent = _recorded_sends(coordinator)
    _enter_next_epoch(coordinator, protocol, "shard-0")
    assert [(type(m), m.txn, m.payload) for _, m in sent] == [
        (Prepare, txns[0], coordinator.coordinated(txns[0]).projections["shard-0"])
    ]
