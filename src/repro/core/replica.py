"""Shard replica process: the complete Figure 1 protocol.

A :class:`ShardReplica` is a process ``pi`` belonging to a shard ``s0``.  It
plays three roles:

* *certification participant* (this module): leader-side ``PREPARE``
  handling and vote computation, follower-side ``ACCEPT`` handling, and
  ``DECISION`` persistence — Figure 1 lines 4-17, 21-25 and 30-32;
* *transaction coordinator* (:mod:`repro.core.coordinator`) — lines 1-3,
  18-20, 26-29 and 70-73;
* *reconfiguration participant and initiator* (:mod:`repro.core.reconfig`)
  — lines 33-69.

:class:`ReplicaBase` holds what the RDMA protocol of Figures 7-8 keeps
unchanged — the coordinator, the leader's certification, failure detection,
the snapshot-read path and the reconfiguration pipeline
(:class:`repro.core.reconfig.Reconfigurer`) — and
:class:`repro.rdma.replica.RdmaShardReplica` extends it too.  What is
Figure 1 only stays in :class:`ShardReplica`: the per-shard epochs, the
epoch-checked ``ACCEPT`` / ``DECISION`` handlers, the stash of early
messages and the per-shard *scope* of reconfiguration
(:class:`repro.core.reconfig.ReconfigMixin`).
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import is_not, or_
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.batching import BatchPolicy
from repro.core.certification import CertificationScheme
from repro.core.coordinator import CoordinatorMixin
from repro.core.directory import TransactionDirectory
from repro.core.failuredetector import DetectorPolicy, FailureDetector
from repro.core.messages import (
    Accept,
    AcceptAck,
    CsLeaseGrant,
    CsLeaseRequest,
    Heartbeat,
    Prepare,
    PrepareAck,
    ReadReply,
    ReadRequest,
    SlotDecision,
    SuspicionReport,
)
from repro.core.reads import ReadPolicy, ReplicaReadEngine
from repro.core.reconfig import ReconfigMixin, Reconfigurer
from repro.core.votecache import LeaderVoteCache
from repro.core.types import (
    BOTTOM,
    Configuration,
    Decision,
    Phase,
    ProcessId,
    ShardId,
    Status,
    TxnId,
)
from repro.runtime.process import Process


class ReplicaBase(CoordinatorMixin, Reconfigurer, Process):
    """A replica of one shard: coordinator, certifying leader, failure
    detector, snapshot reads and the reconfiguration steps every scope
    shares.  Subclasses add ``epoch`` and ``my_epoch``, the follower side of
    vote and decision persistence, and the scope of reconfiguration.

    Its certification order is Figure 1's slot arrays kept as lists indexed
    by slot (``txn_arr``, ``payload_arr``, ``vote_arr``, ``dec_arr``; None
    where a slot holds nothing) and ``slot_of``.  Only ``store_slot`` /
    ``decide_slot`` and a state transfer write them; other code reads them
    through :meth:`phase` and :meth:`filled_slots`, or by index.
    """

    def __init__(
        self,
        pid: ProcessId,
        shard: ShardId,
        scheme: CertificationScheme,
        directory: TransactionDirectory,
        config_service: ProcessId,
        target_size: Optional[int] = None,
        batch: Optional[BatchPolicy] = None,
        read: Optional[ReadPolicy] = None,
        detector: Optional[DetectorPolicy] = None,
        pipeline: bool = True,
    ) -> None:
        super().__init__(pid)
        self.shard = shard
        self.scheme = scheme
        self.directory = directory
        self.config_service = config_service
        # The membership size a reconfiguration restores (None: the size of
        # the configuration it replaces).
        self.target_size = target_size
        self.batch_policy = batch or BatchPolicy()
        self.read_policy = read or ReadPolicy()
        self.detector_policy = detector or DetectorPolicy()
        # Heartbeat failure detection (inert unless the policy enables it):
        # this replica's view of its co-members' liveness.
        self.detector: Optional[FailureDetector] = (
            FailureDetector(self.detector_policy, pid)
            if self.detector_policy.enabled
            else None
        )

        # Members and leader of every shard, as far as this process knows.
        self.members: Dict[ShardId, Tuple[ProcessId, ...]] = {}
        self.leader: Dict[ShardId, ProcessId] = {}

        self.status: Status = Status.FOLLOWER
        self.new_epoch = 0
        self.initialized = False

        # The shard-local certification order: Figure 1's arrays ``txn``,
        # ``payload``, ``vote`` and ``dec`` as lists indexed by slot (slots
        # start at 1), None where a slot holds nothing.  The four always have
        # the same length: a write past it lengthens all four (``_grow``).
        # Figure 1's fifth array, ``phase``, is not kept: it follows from
        # ``txn`` and ``dec`` (:meth:`phase`).
        self.next = 0
        self.txn_arr: List[Optional[TxnId]] = []
        self.payload_arr: List[Any] = []
        self.vote_arr: List[Optional[Decision]] = []
        self.dec_arr: List[Optional[Decision]] = []
        self.slot_of: Dict[TxnId, int] = {}

        # Incremental conflict index for leader-side voting; replaces the
        # per-PREPARE scan of the whole certification order.  It is derived
        # from the slot arrays, which only ``store_slot`` / ``decide_slot``
        # and a state transfer write, and snapshot reads are served from it.
        self._votes = LeaderVoteCache(self)

        # Snapshot-read fast path (inert under the default certified-only
        # policy): seeds, read lease and counters.
        self.read_engine: Optional[ReplicaReadEngine] = (
            ReplicaReadEngine(self, self.read_policy) if self.read_policy.enabled else None
        )
        self._lease_seq = 0

        self._init_coordinator(self.batch_policy, pipeline)
        self._init_reconfig()

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.status is Status.LEADER

    def phase(self, slot: int) -> Phase:
        """``phase[slot]`` of Figure 1, derived from the arrays: DECIDED once
        the slot holds a decision, PREPARED while it holds only a
        transaction, START while it holds neither."""
        if 0 <= slot < len(self.dec_arr):
            if self.dec_arr[slot] is not None:
                return Phase.DECIDED
            if self.txn_arr[slot] is not None:
                return Phase.PREPARED
        return Phase.START

    def filled_slots(
        self,
    ) -> Iterator[Tuple[int, Optional[TxnId], Any, Optional[Decision], Optional[Decision]]]:
        """``(slot, txn, payload, vote, dec)`` of every slot that holds a
        transaction or a decision, in slot order; ``txn``, ``payload`` and
        ``vote`` are None in a slot decided before its write landed (RDMA).
        Built of C iterators, so a pass costs one call, not one per slot."""
        txns, decs = self.txn_arr, self.dec_arr
        filled = map(or_, map(is_not, txns, repeat(None)), map(is_not, decs, repeat(None)))
        return compress(zip(count(), txns, self.payload_arr, self.vote_arr, decs), filled)

    # ------------------------------------------------------------------
    # the one write path into the certification order
    # ------------------------------------------------------------------
    def store_slot(self, slot: int, txn: TxnId, payload: Any, vote: Decision) -> None:
        """Write ``txn``, its payload and its vote into ``slot`` (Figure 1,
        lines 13-16 and 24; Figure 7, line 95).  The slot becomes PREPARED
        unless it is already DECIDED, which it stays: a one-sided write can
        land after the decision, the follower's CPU cannot refuse it, and
        the decision stays in ``dec_arr``."""
        try:
            fresh = self.txn_arr[slot] is None and self.dec_arr[slot] is None
        except IndexError:
            self._grow(slot)
            fresh = True
        self.txn_arr[slot] = txn
        self.payload_arr[slot] = payload
        self.vote_arr[slot] = vote
        self.slot_of[txn] = slot
        self._votes.note_stored(slot, fresh)

    def decide_slot(self, slot: int, decision: Decision) -> None:
        """Persist ``decision`` for ``slot`` (Figure 1, line 31; Figure 7,
        line 102)."""
        try:
            previous = self.dec_arr[slot]
        except IndexError:
            self._grow(slot)
            previous = None
        self.dec_arr[slot] = decision
        self._votes.note_decided(slot, previous)

    def _grow(self, slot: int) -> None:
        """Lengthen the four slot lists together past ``slot``, by a quarter
        more, so that writes in slot order lengthen them geometrically."""
        pad = [None] * (slot + 1 + (slot >> 2) - len(self.txn_arr))
        self.txn_arr += pad
        self.payload_arr += pad
        self.vote_arr += pad
        self.dec_arr += pad

    # ------------------------------------------------------------------
    # leader: PREPARE (lines 4-17)
    # ------------------------------------------------------------------
    def _certify_prepare(self, msg: Prepare) -> PrepareAck:
        """Place one PREPARE in the certification order (or find it there)
        and return the vote."""
        slot = self.slot_of.get(msg.txn)
        # A transaction already in the certification order (line 6) is
        # answered with the stored vote, for the (possibly new) coordinator.
        if slot is None:
            self.next += 1
            slot = self.next
            if msg.payload is BOTTOM:
                # Coordinator recovery with an unknown payload (lines 14-16).
                self.store_slot(slot, msg.txn, self.scheme.empty_payload(), Decision.ABORT)
            else:
                self.store_slot(slot, msg.txn, msg.payload, self._votes.vote(msg.payload))
        return PrepareAck(
            epoch=self.my_epoch,
            shard=self.shard,
            slot=slot,
            txn=msg.txn,
            payload=self.payload_arr[slot],
            vote=self.vote_arr[slot],
        )

    def on_prepare(self, msg: Prepare, sender: str) -> None:
        """Vote on one PREPARE.  The votes on an envelope of PREPAREs leave
        as one vector (``reply``), and intra-envelope conflict ordering is
        envelope order: each transaction enters the certification order
        before the next one is voted on, exactly as if the PREPAREs had
        arrived back to back."""
        if self.status is not Status.LEADER:
            return
        self.reply(sender, self._certify_prepare(msg))

    # ------------------------------------------------------------------
    # heartbeat failure detection (repro.core.failuredetector)
    # ------------------------------------------------------------------
    def _watch_co_members(self) -> None:
        """(Re)set the detector's monitored set to our current co-members."""
        if self.detector is None:
            return
        peers = (
            self.members.get(self.shard, ())
            if self.pid in self.members.get(self.shard, ())
            else ()
        )
        now = self.now if self.network is not None else 0.0
        self.detector.watch(peers, now)

    def emit_heartbeats(self) -> None:
        """Send one heartbeat to every co-member (called each pump tick)."""
        if self.detector is None or not self.initialized:
            return
        peers = [p for p in self.members.get(self.shard, ()) if p != self.pid]
        if peers:
            self.send_all(peers, Heartbeat(shard=self.shard, epoch=self.my_epoch), weak=True)

    def tick_detector(self) -> None:
        """Score every watched peer; report fresh suspicions to the
        configuration service (which aggregates and proposes view changes)."""
        if self.detector is None or not self.initialized:
            return
        for suspect in self.detector.tick(self.now):
            self.send(
                self.config_service,
                SuspicionReport(shard=self.shard, epoch=self.my_epoch, suspect=suspect),
            )

    def on_heartbeat(self, msg: Heartbeat, sender: str) -> None:
        if self.detector is not None:
            self.detector.record(sender, self.now)

    def _on_configuration_installed(self) -> None:
        """A state transfer made this process leader or replaced its slot
        arrays wholesale (and invalidated the vote index reads are served
        from).  The new leader still has no lease (leases are granted per
        process), so reads refuse until the next grant — and the lease
        epoch advances, so an in-flight grant from the previous epoch is
        refused on arrival."""
        if self.read_engine is not None:
            self.read_engine.note_epoch(self.my_epoch)
        self._watch_co_members()

    # ------------------------------------------------------------------
    # snapshot-read fast path (certification-bypassing; repro.core.reads)
    # ------------------------------------------------------------------
    def request_read_lease(self) -> None:
        """Ask the configuration service for (or to renew) this leader's
        read lease.  Event-driven only — no timers — so an idle cluster lets
        its lease lapse and re-acquires it on the next read."""
        if self.read_engine is None or self.read_engine.lease_pending:
            return
        self.read_engine.lease_pending = True
        self._lease_seq += 1
        self.send(
            self.config_service,
            CsLeaseRequest(
                shard=self.shard,
                duration=self.read_policy.lease,
                request_id=self._lease_seq,
                epoch=self.my_epoch,
            ),
        )

    def on_cs_lease_grant(self, msg: CsLeaseGrant, sender: str) -> None:
        if self.read_engine is not None:
            self.read_engine.note_lease(msg.expires_at, msg.ok, msg.epoch)

    def on_read_request(self, msg: ReadRequest, sender: str) -> None:
        if self.read_engine is None or self.status is not Status.LEADER:
            self.send(sender, ReadReply(txn=msg.txn, ok=False, reason="not-leader"))
            return
        status, reads = self.read_engine.serve(msg.objects, self.now)
        if status == "ok":
            self.send(sender, ReadReply(txn=msg.txn, ok=True, reads=tuple(reads)))
        else:
            self.send(sender, ReadReply(txn=msg.txn, ok=False, reason=status))
        if self.read_engine.lease_wants_renewal(self.now):
            self.request_read_lease()


class ShardReplica(ReconfigMixin, ReplicaBase):
    """A replica process of one shard, implementing the Figure 1 protocol."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Epoch of every shard (Figure 1 preliminaries); the entry for our
        # own shard is the configuration we currently participate in.
        self.epoch: Dict[ShardId, int] = {}
        # Messages whose precondition mentions an epoch we have not reached
        # yet; re-dispatched whenever configuration knowledge advances.
        self._stash: List[Tuple[Any, str]] = []

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def bootstrap(
        self,
        configurations: Dict[ShardId, Configuration],
        initialized: bool = True,
    ) -> None:
        """Install the initial configuration knowledge.

        Members of the initial configuration of their shard start
        ``initialized`` (the initial configuration is active by assumption);
        spare processes start uninitialized and outside any configuration.
        """
        for shard, config in configurations.items():
            self.epoch[shard] = config.epoch
            self.members[shard] = config.members
            self.leader[shard] = config.leader
        own = configurations.get(self.shard)
        if own is not None and self.pid in own.members:
            self.initialized = initialized
            self.new_epoch = own.epoch
            self.status = Status.LEADER if own.leader == self.pid else Status.FOLLOWER
            if self.read_engine is not None:
                self.read_engine.note_epoch(own.epoch)
            self._watch_co_members()
        else:
            # A fresh spare: it knows the current configurations (and can
            # therefore act as a transaction coordinator), but it is not a
            # member of any of them, holds no shard state and counts as
            # uninitialised until it receives a NEW_STATE transfer.
            self.initialized = False
            self.new_epoch = 0
            self.status = Status.FOLLOWER

    @property
    def my_epoch(self) -> int:
        return self.epoch[self.shard]

    # ------------------------------------------------------------------
    # stashing of early messages
    # ------------------------------------------------------------------
    def _stash_message(self, message: Any, sender: str) -> None:
        self._stash.append((message, sender))

    def _unstash(self) -> None:
        if not self._stash:
            return
        stashed, self._stash = self._stash, []
        for message, sender in stashed:
            self.handle(message, sender)

    # ------------------------------------------------------------------
    # follower: ACCEPT (lines 21-25)
    # ------------------------------------------------------------------
    def _apply_accept(self, msg: Accept, sender: str) -> Optional[AcceptAck]:
        """Persist one ACCEPT; returns the ack to send, or None when the
        message was stashed for a future epoch or rejected."""
        if msg.epoch > self.my_epoch:
            self._stash_message(msg, sender)
            return None
        if self.status is not Status.FOLLOWER or self.my_epoch != msg.epoch:
            return None
        # A slot already filled keeps what it holds (inline: a hot path).
        try:
            fresh = self.txn_arr[msg.slot] is None and self.dec_arr[msg.slot] is None
        except IndexError:
            fresh = True
        if fresh:
            self.store_slot(msg.slot, msg.txn, msg.payload, msg.vote)
        return AcceptAck(
            shard=self.shard,
            epoch=msg.epoch,
            slot=msg.slot,
            txn=msg.txn,
            vote=msg.vote,
        )

    def on_accept(self, msg: Accept, sender: str) -> None:
        """Persist one ACCEPT and confirm it.  An envelope of ACCEPTs is
        confirmed with one aggregated ack (``reply``); stashed or rejected
        elements are simply absent from it — the unstash path re-answers
        them individually later."""
        ack = self._apply_accept(msg, sender)
        if ack is not None:
            self.reply(sender, ack)

    # ------------------------------------------------------------------
    # everyone: DECISION (lines 30-32)
    # ------------------------------------------------------------------
    def on_slot_decision(self, msg: SlotDecision, sender: str) -> None:
        if self.status is Status.RECONFIGURING or self.my_epoch < msg.epoch:
            self._stash_message(msg, sender)
            return
        self.decide_slot(msg.slot, msg.decision)
