"""Leader-based Multi-Paxos replicated state machine.

This is the replication substrate assumed by the vanilla 2PC-over-Paxos
baseline (every 2PC action is first made durable on a majority of ``2f + 1``
replicas) and by the optional Paxos-replicated configuration service.

The implementation is a classical Multi-Paxos:

* every replica is simultaneously a proposer, an acceptor and a learner;
* ballots are ``(round, pid)`` pairs, totally ordered;
* the initial leader is installed with ballot ``(1, leader)`` on every
  acceptor at bootstrap, so it can skip phase 1 (the standard stable-leader
  optimisation); a replica that wants to take over calls
  :meth:`PaxosReplica.become_leader`, which runs phase 1 for all slots and
  adopts the highest-ballot accepted values it learns about;
* commands are applied to the state machine strictly in slot order, and the
  proposing leader answers the client once the command's slot is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Phase1b:
    ballot: Ballot
    accepted: Tuple[Tuple[int, Ballot, Any], ...]


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
class Chosen:
    slot: int
    value: Any


@dataclass
class _SlotValue:
    """A value proposed for a slot: the command plus reply routing."""

    command: Any
    request_id: int
    client: str


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

        # Acceptor state.
        self.promised: Ballot = (1, initial_leader)
        self.accepted: Dict[int, Tuple[Ballot, _SlotValue]] = {}

        # Proposer (leader) state.
        self.ballot: Ballot = (1, initial_leader) if pid == initial_leader else BALLOT_ZERO
        self.leading = pid == initial_leader
        self.next_slot = 0
        self._proposals: Dict[int, _SlotValue] = {}
        self._phase2_acks: Dict[int, Set[str]] = {}
        self._phase1_acks: Dict[Ballot, Dict[str, Phase1b]] = {}

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
        self._phase1_acks[self.ballot] = {}
        self._broadcast(Phase1a(ballot=self.ballot))
        return self.ballot

    def on_phase1a(self, msg: Phase1a, sender: str) -> None:
        if msg.ballot < self.promised:
            return
        self.promised = msg.ballot
        self.leader_hint = msg.ballot[1]
        if self.leading and msg.ballot[1] != self.pid:
            self.leading = False
        accepted = tuple(
            (slot, ballot, value) for slot, (ballot, value) in sorted(self.accepted.items())
        )
        self.send(sender, Phase1b(ballot=msg.ballot, accepted=accepted))

    def on_phase1b(self, msg: Phase1b, sender: str) -> None:
        if msg.ballot != self.ballot:
            return
        acks = self._phase1_acks.setdefault(msg.ballot, {})
        acks[sender] = msg
        if len(acks) < self.majority or self.leading:
            return
        # Adopt the highest-ballot accepted value for every slot reported by
        # the quorum, then resume normal operation.
        self.leading = True
        self.leader_hint = self.pid
        adopted: Dict[int, Tuple[Ballot, _SlotValue]] = {}
        for reply in acks.values():
            for slot, ballot, value in reply.accepted:
                current = adopted.get(slot)
                if current is None or ballot > current[0]:
                    adopted[slot] = (ballot, value)
        for slot in sorted(adopted):
            _, value = adopted[slot]
            if slot > self.applied_upto:
                self._proposals[slot] = value
                self._phase2_acks[slot] = set()
            self._broadcast(Phase2a(ballot=self.ballot, slot=slot, value=value))
            self.next_slot = max(self.next_slot, slot + 1)

    # ------------------------------------------------------------------
    # phase 2 and learning
    # ------------------------------------------------------------------
    def on_phase2a(self, msg: Phase2a, sender: str) -> None:
        if msg.ballot < self.promised:
            return
        self.promised = msg.ballot
        self.leader_hint = msg.ballot[1]
        self.accepted[msg.slot] = (msg.ballot, msg.value)
        self.send(sender, Phase2b(ballot=msg.ballot, slot=msg.slot))

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
        while self.applied_upto + 1 in self.chosen:
            slot = self.applied_upto + 1
            value = self.chosen[slot]
            del self.chosen[slot]
            result = self.state_machine.apply(value.command)
            self.applied_upto = slot
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
