"""Unit tests for the Multi-Paxos replicated state machine substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.paxos import PaxosGroup, RsmCommand, StateMachine
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

    def snapshot(self):
        return tuple(self.log)

    def restore(self, snapshot):
        self.log = list(snapshot)


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


def test_applied_slots_leave_no_paxos_state():
    """Applying a slot drops its accepted value, chosen value, proposal and
    phase-2 acks at every replica (late acks find nothing to count); a new
    leader still recovers the whole log, from a snapshot, proposing
    nothing."""
    scheduler, network, group, client = build(size=3)
    for i in range(5):
        client.request(group.leader, f"cmd-{i}")
    scheduler.run()
    assert len(client.responses) == 5
    for replica in group.replicas:
        assert replica.applied_upto == 4
        assert replica.accepted == {} and replica.chosen == {}
        assert replica._proposals == {} and replica._phase2_acks == {}
    network.crash(group.leader)
    phase2a_sent = network.stats.sent_by_type["Phase2a"]
    new_leader = group.replica(group.pids[1])
    new_leader.become_leader()
    scheduler.run()
    assert new_leader.leading and new_leader.next_slot == 5
    assert new_leader._proposals == {} and new_leader._phase2_acks == {}
    assert new_leader.state_machine.log == [f"cmd-{i}" for i in range(5)]
    assert network.stats.sent_by_type["Phase2a"] == phase2a_sent


def _lagging_replica(size=3):
    """A group whose last replica was partitioned away while four commands
    were chosen, and is reachable again: it has applied nothing."""
    scheduler, network, group, client = build(size=size)
    lagging = group.replica(group.pids[-1])
    network.partition([lagging.pid], [pid for pid in group.pids if pid != lagging.pid])
    for i in range(4):
        client.request(group.leader, f"cmd-{i}")
    scheduler.run()
    assert len(client.responses) == 4 and lagging.state_machine.log == []
    network.heal()
    return scheduler, network, group, client, lagging


def test_a_lagging_follower_catches_up_after_a_leader_change():
    """The new leader has applied every chosen slot: the follower that missed
    them gets its state machine, not a re-proposal nobody counts acks for."""
    scheduler, network, group, client, lagging = _lagging_replica()
    new_leader = group.replica(group.pids[1])
    new_leader.become_leader()
    scheduler.run()
    expected = [f"cmd-{i}" for i in range(4)]
    assert lagging.state_machine.log == expected and lagging.applied_upto == 3
    rid = client.request(new_leader.pid, "cmd-4")
    scheduler.run()
    assert client.responses[rid] == 5
    for replica in group.replicas:
        assert replica.state_machine.log == expected + ["cmd-4"]


def test_a_lagging_replica_elected_leader_holds_the_log_and_serves():
    """A replica that applied nothing wins phase 1 holding the whole log (its
    quorum's snapshot), and the next command lands after it."""
    scheduler, network, group, client, lagging = _lagging_replica()
    lagging.become_leader()
    assert scheduler.run_until(lambda: lagging.leading)
    expected = [f"cmd-{i}" for i in range(4)]
    assert lagging.state_machine.log == expected and lagging.next_slot == 4
    scheduler.run()
    rid = client.request(lagging.pid, "cmd-4")
    scheduler.run()
    assert client.responses[rid] == 5
    for replica in group.replicas:
        assert replica.state_machine.log == expected + ["cmd-4"]


def test_a_slot_no_quorum_member_accepted_is_filled_with_a_noop():
    """Only the old leader accepted slot 0 (its ``Phase2a`` to the others
    was lost), then slot 1 was chosen: the new leader's quorum reports slot 1
    only, so it proposes a no-op for slot 0 and slot 1 applies."""
    scheduler, network, group, client = build(size=3)
    old, new_leader, other = (group.replica(pid) for pid in group.pids)
    network.partition([old.pid], [new_leader.pid, other.pid])
    client.request(old.pid, "lost")
    scheduler.run()
    network.heal()
    rid = client.request(old.pid, "chosen")
    scheduler.run()
    assert sorted(new_leader.chosen) == [1] and new_leader.applied_upto == -1
    network.crash(old.pid)
    new_leader.become_leader()
    scheduler.run()
    assert client.responses == {rid: 1}
    rid = client.request(new_leader.pid, "next")
    scheduler.run()
    assert client.responses[rid] == 2
    for replica in (new_leader, other):
        assert replica.state_machine.log == ["chosen", "next"] and replica.applied_upto == 2


def test_a_leader_re_elected_across_a_gap_tells_every_peer_what_was_chosen():
    """The leader accepted slot 0 alone and learned slot 1 chosen without
    the replica that missed it.  Re-elected, it learns both again through
    phase 2, so its ``Chosen`` for slot 1 reaches that replica too."""
    scheduler, network, group, client = build(size=3)
    leader, missed, other = (group.replica(pid) for pid in group.pids)
    network.partition([leader.pid], [missed.pid, other.pid])
    client.request(leader.pid, "cmd-0")
    scheduler.run()
    network.heal()
    network.partition([missed.pid], [leader.pid, other.pid])
    client.request(leader.pid, "cmd-1")
    scheduler.run()
    assert sorted(leader.chosen) == [1] and missed.accepted == {}
    network.heal()
    leader.become_leader()
    scheduler.run()
    rid = client.request(leader.pid, "cmd-2")
    scheduler.run()
    assert client.responses[rid] == 3
    for replica in group.replicas:
        assert replica.state_machine.log == ["cmd-0", "cmd-1", "cmd-2"]


# ----------------------------------------------------------------------
# the substrate under generated partitions, crashes and leader changes
# ----------------------------------------------------------------------

_FAULT_STEPS = st.one_of(
    st.tuples(st.just("command"), st.integers(0, 4)),
    st.tuples(st.just("step"), st.integers(1, 12)),
    st.tuples(st.just("settle"), st.just(0)),
    # A bit mask of the replicas on one side of the partition.
    st.tuples(st.just("partition"), st.integers(1, 30)),
    st.tuples(st.just("heal"), st.just(0)),
    st.tuples(st.just("crash"), st.integers(0, 4)),
    st.tuples(st.just("lead"), st.integers(0, 4)),
)


def _check_logs(group, commands, client):
    """Any two replicas' logs are prefix-related, no command is applied
    twice, and an acknowledged command is applied once, where its reply
    says (``AppendLog`` answers with the log's length)."""
    logs = [replica.state_machine.log for replica in group.replicas]
    longest = max(logs, key=len)
    for log in logs:
        assert log == longest[: len(log)], logs
    assert len(set(longest)) == len(longest), longest
    for rid, result in client.responses.items():
        assert longest.count(commands[rid]) == 1, (commands[rid], longest)
        assert longest.index(commands[rid]) + 1 == result


@given(
    size=st.sampled_from([3, 5]),
    steps=st.lists(_FAULT_STEPS, max_size=30),
    final=st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_logs_agree_under_partitions_crashes_and_leader_changes(size, steps, final):
    """Commands, partitions, heals, minority crashes and elections in any
    order, some landing mid-flight: at every quiescence the logs agree as
    ``_check_logs`` says, and the group serves again once healed."""
    scheduler, network, group, client = build(size=size)
    commands, crashed = {}, set()

    def submit(pid):
        command = f"cmd-{len(commands)}"
        commands[client.request(pid, command)] = command

    for kind, arg in steps:
        pid = group.pids[arg % size]
        if kind == "command":
            submit(pid)
        elif kind == "step":
            for _ in range(arg):
                scheduler.step()
        elif kind == "settle":
            scheduler.run()
            _check_logs(group, commands, client)
        elif kind == "partition":
            side = [member for index, member in enumerate(group.pids) if arg >> index & 1]
            network.partition(side, [member for member in group.pids if member not in side])
        elif kind == "heal":
            network.heal()
        elif kind == "crash" and len(crashed) < size // 2:
            network.crash(pid)
            crashed.add(pid)
        elif kind == "lead" and pid not in crashed:
            group.replica(pid).become_leader()
    scheduler.run()
    _check_logs(group, commands, client)

    # Heal, elect one final leader and serve one more command: every live
    # replica then holds the same log.  Acceptors send no nack, so the
    # candidate retries until its round passes every promise (each earlier
    # election raised the highest round by at most one).
    network.heal()
    live = [replica for replica in group.replicas if replica.pid not in crashed]
    leader = live[final % len(live)]
    for _ in range(len(steps) + 1):
        leader.become_leader()
        scheduler.run()
        if leader.leading:
            break
    assert leader.leading
    submit(leader.pid)
    scheduler.run()
    assert len(commands) in client.responses
    _check_logs(group, commands, client)
    assert all(replica.state_machine.log == leader.state_machine.log for replica in live)
