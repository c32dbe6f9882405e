"""Unit tests for the Multi-Paxos replicated state machine substrate."""

from dataclasses import dataclass

import pytest

from repro.baselines.paxos import PaxosGroup, RsmCommand, RsmResponse, StateMachine
from repro.runtime.events import Scheduler
from repro.runtime.network import Network
from repro.runtime.process import Process


class AppendLog(StateMachine):
    """A trivial state machine: appends commands and returns the log length."""

    def __init__(self):
        self.log = []

    def apply(self, command):
        self.log.append(command)
        return len(self.log)


class RsmClient(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.responses = {}
        self._next = 0

    def request(self, leader, command):
        self._next += 1
        self.send(leader, RsmCommand(command=command, request_id=self._next))
        return self._next

    def on_rsm_response(self, msg, sender):
        self.responses[msg.request_id] = msg.result


def build(size=3):
    scheduler = Scheduler()
    network = Network(scheduler)
    group = PaxosGroup(network, name="g", size=size, state_machine_factory=AppendLog)
    client = RsmClient("client")
    network.register(client)
    return scheduler, network, group, client


def test_single_command_replicated_to_all():
    scheduler, network, group, client = build()
    rid = client.request(group.leader, "cmd-1")
    scheduler.run()
    assert client.responses[rid] == 1
    for replica in group.replicas:
        assert replica.state_machine.log == ["cmd-1"]
        assert replica.applied_upto == 0


def test_commands_applied_in_submission_order():
    scheduler, network, group, client = build()
    for i in range(10):
        client.request(group.leader, f"cmd-{i}")
    scheduler.run()
    expected = [f"cmd-{i}" for i in range(10)]
    for replica in group.replicas:
        assert replica.state_machine.log == expected


def test_non_leader_forwards_to_leader():
    scheduler, network, group, client = build()
    follower = group.pids[1]
    client.request(follower, "via-follower")
    scheduler.run()
    assert group.replica(group.leader).state_machine.log == ["via-follower"]


def test_group_size_one_works():
    scheduler, network, group, client = build(size=1)
    rid = client.request(group.leader, "solo")
    scheduler.run()
    assert client.responses[rid] == 1


def test_replication_survives_minority_acceptor_crash():
    scheduler, network, group, client = build(size=3)
    network.crash(group.pids[2])
    rid = client.request(group.leader, "with-one-down")
    scheduler.run()
    assert client.responses[rid] == 1
    for pid in group.pids[:2]:
        assert group.replica(pid).state_machine.log == ["with-one-down"]


def test_no_progress_without_majority():
    scheduler, network, group, client = build(size=3)
    network.crash(group.pids[1])
    network.crash(group.pids[2])
    rid = client.request(group.leader, "stuck")
    scheduler.run()
    assert rid not in client.responses


def test_leader_change_preserves_chosen_commands():
    scheduler, network, group, client = build(size=3)
    for i in range(3):
        client.request(group.leader, f"old-{i}")
    scheduler.run()
    # The old leader crashes; a follower takes over with a higher ballot.
    network.crash(group.leader)
    new_leader = group.replica(group.pids[1])
    new_leader.become_leader()
    scheduler.run()
    assert new_leader.leading
    client.request(new_leader.pid, "new-era")
    scheduler.run()
    assert new_leader.state_machine.log[:3] == ["old-0", "old-1", "old-2"]
    assert "new-era" in new_leader.state_machine.log
    # The surviving acceptor converges to the same log.
    other = group.replica(group.pids[2])
    assert other.state_machine.log == new_leader.state_machine.log


def test_deposed_leader_stops_leading():
    scheduler, network, group, client = build(size=3)
    old_leader = group.replica(group.leader)
    new_leader = group.replica(group.pids[1])
    new_leader.become_leader()
    scheduler.run()
    assert new_leader.leading
    assert not old_leader.leading


def test_ballots_are_totally_ordered_by_round_then_pid():
    scheduler, network, group, client = build(size=3)
    first = group.replica(group.pids[1]).become_leader()
    second = group.replica(group.pids[2]).become_leader()
    assert second > first or second[0] > first[0]


def test_applied_slots_leave_only_the_accepted_values():
    """A slot's chosen value, proposal and phase-2 acks are dropped once it
    is applied (late acks find nothing to count); the acceptors keep
    ``accepted``, which phase 1 reports to a new leader."""
    scheduler, network, group, client = build(size=3)
    for i in range(5):
        client.request(group.leader, f"cmd-{i}")
    scheduler.run()
    assert len(client.responses) == 5
    for replica in group.replicas:
        assert replica.applied_upto == 4
        assert replica.chosen == {} and replica._proposals == {} and replica._phase2_acks == {}
        assert sorted(replica.accepted) == list(range(5))
    # A new leader re-proposes the applied slots without keeping them.
    network.crash(group.leader)
    new_leader = group.replica(group.pids[1])
    new_leader.become_leader()
    scheduler.run()
    assert new_leader.leading
    assert new_leader._proposals == {} and new_leader._phase2_acks == {}
    assert new_leader.state_machine.log == [f"cmd-{i}" for i in range(5)]
