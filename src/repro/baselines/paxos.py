"""Leader-based Multi-Paxos replicated state machine.

This is the replication substrate of the vanilla 2PC-over-Paxos baseline:
every 2PC action is first made durable on a majority of ``2f + 1``
replicas.

The implementation is a classical Multi-Paxos:

* every replica is simultaneously a proposer, an acceptor and a learner;
* ballots are ``(round, pid)`` pairs, totally ordered;
* the initial leader is installed with ballot ``(1, leader)`` on every
  acceptor at bootstrap, so it can skip phase 1 (the standard stable-leader
  optimisation); a replica that wants to take over calls
  :meth:`PaxosReplica.become_leader`, which runs phase 1 for all slots and
  adopts the highest-ballot accepted values it learns about;
* an acceptor answers a ``Phase1a`` or ``Phase2a`` whose ballot is below
  its promise with a :class:`Nack` carrying that promise; the proposer
  promises it too, which deposes a stale leader and abandons a phase-1
  round that can no longer win, so its next ``become_leader`` picks a
  round above every promise it has been told of;
* commands are applied to the state machine strictly in slot order, and the
  proposing leader answers the client once the command's slot is applied.

Log compaction.  A replica keeps a slot's Paxos state only until it
applies the slot: applying drops the slot's ``accepted`` entry (and its
``chosen`` value and proposal), and an acceptor acks, without storing, a
``Phase2a`` for a slot it has already applied.  ``applied_upto`` and the
state machine then stand for every applied slot, so a run keeps Paxos
state for its in-flight slots only.  Phase 1 transfers that state instead
of the trimmed slots: ``Phase1a`` carries the candidate's ``applied_upto``
and ``Phase1b`` the responder's, plus a :meth:`StateMachine.snapshot` when
the responder has applied more.  The new leader installs the most advanced
snapshot of its quorum, re-proposes the adopted values of the slots above
it (a no-op fills a slot that no member of the quorum accepted below one
that some member did) and sends an ``InstallSnapshot`` to every peer that
reported less or did not answer.  This is safe: let ``A`` be the highest
``applied_upto`` of the quorum (the candidate's own included).

* A slot at or below ``A`` is in the installed snapshot, which holds the
  chosen values of slots ``0..A`` applied in order.
* A slot above ``A`` that was chosen was accepted by a majority.  That
  majority meets the quorum, and no member of the quorum has applied, and
  so trimmed, anything above ``A``: the quorum reports the slot, and the
  highest-ballot rule adopts its chosen value as in classical Paxos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.failuredetector import DetectorPolicy, FailureDetector
from repro.core.messages import Heartbeat
from repro.runtime.process import Process


Ballot = Tuple[int, str]
BALLOT_ZERO: Ballot = (0, "")


class StateMachine:
    """Deterministic state machine replicated by the Paxos group."""

    def apply(self, command: Any) -> Any:
        raise NotImplementedError

    def snapshot(self) -> Any:
        """The state as a value that :meth:`restore` installs at a replica
        that fell behind.  The snapshot shares no mutable state with this
        machine, and ``restore`` copies out of it, so one snapshot can be
        sent to several replicas."""
        raise NotImplementedError

    def restore(self, snapshot: Any) -> None:
        """Replace the state with a copy of ``snapshot``'s."""
        raise NotImplementedError


@dataclass(frozen=True)
class RsmCommand:
    """Client request: execute ``command`` on the replicated state machine."""

    command: Any
    request_id: int


@dataclass(frozen=True)
class RsmResponse:
    """Reply carrying the state machine's result for a client request."""

    request_id: int
    result: Any


@dataclass(frozen=True)
class Phase1a:
    ballot: Ballot
    applied_upto: int


@dataclass(frozen=True)
class Phase1b:
    """A promise: the responder's accepted slots (all above its
    ``applied_upto``), and its state machine's snapshot when it has applied
    more than the candidate."""

    ballot: Ballot
    accepted: Tuple[Tuple[int, Ballot, Any], ...]
    applied_upto: int
    snapshot: Any


@dataclass(frozen=True)
class Phase2a:
    ballot: Ballot
    slot: int
    value: Any


@dataclass(frozen=True)
class Phase2b:
    ballot: Ballot
    slot: int


@dataclass(frozen=True)
class Nack:
    """An acceptor's refusal of a ballot below its promise."""

    promised: Ballot


@dataclass(frozen=True)
class Chosen:
    slot: int
    value: Any


@dataclass(frozen=True)
class InstallSnapshot:
    """A new leader's state machine after applying slots ``0..applied_upto``,
    sent to a peer that reported less in phase 1 or did not answer."""

    applied_upto: int
    snapshot: Any


@dataclass
class _SlotValue:
    """A value proposed for a slot: the command plus reply routing."""

    command: Any
    request_id: int
    client: str


# What a new leader proposes for a slot that no member of its quorum
# accepted below one that some member did, so the slots above it can apply.
_NOOP = _SlotValue(command=None, request_id=0, client="")


class PaxosReplica(Process):
    """One replica of a Multi-Paxos group."""

    def __init__(
        self,
        pid: str,
        group: Tuple[str, ...],
        state_machine: StateMachine,
        initial_leader: str,
        detector: Optional[DetectorPolicy] = None,
    ) -> None:
        super().__init__(pid)
        if initial_leader not in group:
            raise ValueError("initial leader must belong to the group")
        self.group = tuple(group)
        self._peers = tuple(member for member in self.group if member != pid)
        self.state_machine = state_machine
        self.leader_hint = initial_leader

        # Passive failure detection: the baseline has no reconfiguration
        # path to drive, but with an enabled policy its replicas exchange
        # the same heartbeats and accumulate the same suspicion counters as
        # the TCS replicas, keeping detector comparisons apples-to-apples.
        self.detector_policy = detector or DetectorPolicy()
        self.detector: Optional[FailureDetector] = None
        if self.detector_policy.enabled:
            self.detector = FailureDetector(self.detector_policy, pid)
            self.detector.watch(self.group, 0.0)

        # Acceptor state: ``accepted`` holds only slots above
        # ``applied_upto`` (see the module docstring).
        self.promised: Ballot = (1, initial_leader)
        self.accepted: Dict[int, Tuple[Ballot, _SlotValue]] = {}

        # Proposer (leader) state.
        self.ballot: Ballot = (1, initial_leader) if pid == initial_leader else BALLOT_ZERO
        self.leading = pid == initial_leader
        self.next_slot = 0
        self._proposals: Dict[int, _SlotValue] = {}
        self._phase2_acks: Dict[int, Set[str]] = {}
        # The promises for the current ballot while its phase 1 is
        # pending; None once it won or was abandoned.
        self._phase1_acks: Optional[Dict[str, Phase1b]] = None

        # Learner state.  A slot's ``chosen`` entry, and its proposal at
        # the leader, live only until the slot is applied; ``applied_upto``
        # then answers for it.
        self.chosen: Dict[int, _SlotValue] = {}
        self.applied_upto = -1

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def majority(self) -> int:
        return len(self.group) // 2 + 1

    def _broadcast(self, message: Any) -> None:
        self.send_all(self.group, message)

    # ------------------------------------------------------------------
    # failure detection (passive: heartbeats + suspicion accounting only)
    # ------------------------------------------------------------------
    def emit_heartbeats(self) -> None:
        if self.detector is None:
            return
        if self._peers:
            # The group name doubles as the shard id; the baseline has no
            # epochs, so heartbeats carry 0.
            shard = self.pid.rsplit("/", 1)[0]
            self.send_all(self._peers, Heartbeat(shard=shard, epoch=0), weak=True)

    def tick_detector(self) -> None:
        if self.detector is not None:
            # No configuration service to report to: suspicions only feed
            # the detector's own counters.
            self.detector.tick(self.now)

    def on_heartbeat(self, msg: Heartbeat, sender: str) -> None:
        if self.detector is not None:
            self.detector.record(sender, self.now)

    # ------------------------------------------------------------------
    # client requests
    # ------------------------------------------------------------------
    def on_rsm_command(self, msg: RsmCommand, sender: str) -> None:
        if not self.leading:
            # Forward to whoever we believe is the leader; the reply goes
            # straight back to the client because the value carries it.
            self.send(self.leader_hint, ForwardedCommand(msg, client=sender))
            return
        self._propose(_SlotValue(command=msg.command, request_id=msg.request_id, client=sender))

    def on_forwarded_command(self, msg: "ForwardedCommand", sender: str) -> None:
        if not self.leading:
            return
        self._propose(
            _SlotValue(
                command=msg.request.command,
                request_id=msg.request.request_id,
                client=msg.client,
            )
        )

    def _propose(self, value: _SlotValue) -> None:
        slot = self.next_slot
        self.next_slot += 1
        self._proposals[slot] = value
        self._phase2_acks[slot] = set()
        self._broadcast(Phase2a(ballot=self.ballot, slot=slot, value=value))

    # ------------------------------------------------------------------
    # leader change (phase 1)
    # ------------------------------------------------------------------
    def become_leader(self) -> Ballot:
        """Run phase 1 with a higher ballot to take over leadership."""
        round_ = max(self.ballot[0], self.promised[0]) + 1
        self.ballot = (round_, self.pid)
        # A leader re-running phase 1 leads again once it wins it, with
        # its in-flight slots adopted under the new ballot.
        self.leading = False
        self._phase1_acks = {}
        self._broadcast(Phase1a(ballot=self.ballot, applied_upto=self.applied_upto))
        return self.ballot

    def _promise(self, ballot: Ballot) -> None:
        self.promised = ballot
        self.leader_hint = ballot[1]
        if self.leading and ballot[1] != self.pid:
            self.leading = False
        if ballot > self.ballot:
            # This proposer's phase-1 round can no longer win.
            self._phase1_acks = None

    def on_nack(self, msg: Nack, sender: str) -> None:
        if msg.promised > self.promised:
            self._promise(msg.promised)

    def on_phase1a(self, msg: Phase1a, sender: str) -> None:
        if msg.ballot < self.promised:
            self.send(sender, Nack(promised=self.promised))
            return
        self._promise(msg.ballot)
        accepted = tuple(
            (slot, ballot, value) for slot, (ballot, value) in sorted(self.accepted.items())
        )
        ahead = self.applied_upto > msg.applied_upto
        self.send(
            sender,
            Phase1b(
                ballot=msg.ballot,
                accepted=accepted,
                applied_upto=self.applied_upto,
                snapshot=self.state_machine.snapshot() if ahead else None,
            ),
        )

    def on_phase1b(self, msg: Phase1b, sender: str) -> None:
        acks = self._phase1_acks
        if msg.ballot != self.ballot or acks is None:
            return
        acks[sender] = msg
        if len(acks) < self.majority:
            return
        self._phase1_acks = None
        self.leading = True
        self.leader_hint = self.pid
        # Install the most advanced snapshot of the quorum, then adopt the
        # highest-ballot accepted value of every slot above it.
        newest = max(acks.values(), key=lambda reply: reply.applied_upto)
        if newest.applied_upto > self.applied_upto:
            self._install(newest.applied_upto, newest.snapshot)
        base = self.applied_upto
        adopted: Dict[int, Tuple[Ballot, _SlotValue]] = {}
        for reply in acks.values():
            for slot, ballot, value in reply.accepted:
                current = adopted.get(slot)
                if slot > base and (current is None or ballot > current[0]):
                    adopted[slot] = (ballot, value)
        lagging = [
            peer for peer in self._peers if peer not in acks or acks[peer].applied_upto < base
        ]
        if lagging and base >= 0:
            self.send_all(lagging, InstallSnapshot(base, self.state_machine.snapshot()))
        # Every slot above the base is proposed afresh: a chosen one is
        # adopted with its value and learned again, and only that second
        # learning sends its ``Chosen`` to the peers that missed it.
        self.chosen = {}
        self._proposals = {}
        self._phase2_acks = {}
        self.next_slot = max(adopted, default=base) + 1
        for slot in range(base + 1, self.next_slot):
            value = adopted[slot][1] if slot in adopted else _NOOP
            self._proposals[slot] = value
            self._phase2_acks[slot] = set()
            self._broadcast(Phase2a(ballot=self.ballot, slot=slot, value=value))

    def on_install_snapshot(self, msg: InstallSnapshot, sender: str) -> None:
        if msg.applied_upto > self.applied_upto:
            self._install(msg.applied_upto, msg.snapshot)

    def _install(self, applied_upto: int, snapshot: Any) -> None:
        """Jump to ``snapshot``, the state after slots ``0..applied_upto``:
        their Paxos state goes, as if they had been applied here."""
        self.state_machine.restore(snapshot)
        self.applied_upto = applied_upto
        self.accepted = {s: e for s, e in self.accepted.items() if s > applied_upto}
        self.chosen = {s: v for s, v in self.chosen.items() if s > applied_upto}
        self._proposals = {s: v for s, v in self._proposals.items() if s > applied_upto}
        self._phase2_acks = {s: a for s, a in self._phase2_acks.items() if s > applied_upto}
        self._apply_ready()

    # ------------------------------------------------------------------
    # phase 2 and learning
    # ------------------------------------------------------------------
    def on_phase2a(self, msg: Phase2a, sender: str) -> None:
        ballot = msg.ballot
        if ballot != self.promised:
            if ballot < self.promised:
                self.send(sender, Nack(promised=self.promised))
                return
            self._promise(ballot)
        if msg.slot > self.applied_upto:
            self.accepted[msg.slot] = (ballot, msg.value)
        self.send(sender, Phase2b(ballot=ballot, slot=msg.slot))

    def on_phase2b(self, msg: Phase2b, sender: str) -> None:
        # A slot's acks are dropped at its majority: a late ack finds none.
        acks = self._phase2_acks.get(msg.slot)
        if msg.ballot != self.ballot or acks is None:
            return
        acks.add(sender)
        if len(acks) < self.majority:
            return
        del self._phase2_acks[msg.slot]
        if msg.slot <= self.applied_upto or msg.slot in self.chosen:
            return
        value = self._proposals[msg.slot]
        self._learn(msg.slot, value)
        self.send_all(self._peers, Chosen(slot=msg.slot, value=value))

    def on_chosen(self, msg: Chosen, sender: str) -> None:
        self._learn(msg.slot, msg.value)

    def _learn(self, slot: int, value: _SlotValue) -> None:
        if slot <= self.applied_upto or slot in self.chosen:
            return
        self.chosen[slot] = value
        self._apply_ready()

    def _apply_ready(self) -> None:
        chosen, accepted = self.chosen, self.accepted
        while self.applied_upto + 1 in chosen:
            slot = self.applied_upto + 1
            value = chosen[slot]
            del chosen[slot]
            if slot in accepted:
                del accepted[slot]
            self.applied_upto = slot
            if value is _NOOP:
                self._proposals.pop(slot, None)
                continue
            result = self.state_machine.apply(value.command)
            if slot in self._proposals:
                del self._proposals[slot]
                if self.leading:
                    self.send(value.client, RsmResponse(request_id=value.request_id, result=result))


@dataclass(frozen=True)
class ForwardedCommand:
    """Internal: a command forwarded from a non-leader replica to the leader."""

    request: RsmCommand
    client: str


class PaxosGroup:
    """Convenience constructor wiring a Multi-Paxos group onto a network."""

    def __init__(
        self,
        network,
        name: str,
        size: int,
        state_machine_factory: Callable[[], StateMachine],
        detector: Optional[DetectorPolicy] = None,
    ) -> None:
        if size < 1:
            raise ValueError("group size must be at least 1")
        self.name = name
        self.pids = tuple(f"{name}/p{i}" for i in range(size))
        self.leader = self.pids[0]
        self.replicas: List[PaxosReplica] = []
        for pid in self.pids:
            replica = PaxosReplica(
                pid=pid,
                group=self.pids,
                state_machine=state_machine_factory(),
                initial_leader=self.leader,
                detector=detector,
            )
            network.register(replica)
            self.replicas.append(replica)

    def replica(self, pid: str) -> PaxosReplica:
        for replica in self.replicas:
            if replica.pid == pid:
                return replica
        raise KeyError(pid)
