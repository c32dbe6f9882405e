"""Transaction-coordinator duties of a replica (Figure 1, lines 1-3, 18-29, 70-73).

Any replica process can act as the coordinator of a transaction: it sends
``PREPARE`` to the leaders of the relevant shards, persists each leader's
vote at the shard's followers, computes the final decision with ``⊓`` once
every shard's vote is persisted, reports it to the client and persists it at
the shards.  A replica that is left holding a prepared transaction whose
coordinator seems to have failed can take over with ``retry`` (line 70).

:class:`CoordinatorMixin` is that pipeline, once, for every protocol stack.
What the paper's RDMA protocol (Figure 7) changes is only how a vote and a
decision are *persisted* and which epoch a shard is in; those are the
overridable methods at the end of the class, whose bodies here are the
message-passing protocol's (``ACCEPT`` / ``ACCEPT_ACK`` round, per-shard
epochs).  :mod:`repro.rdma.replica` overrides them with one-sided writes.

Two measurement toggles sit *under* the pipeline and are shared with the
2PC baseline's coordinator (:mod:`repro.baselines.twopc`) rather than
mirrored there.  Batching is the outboxes' business: every send below goes
through a :class:`~repro.core.batching.MessageBatcher`, which coalesces or
passes through, so no handler here knows which.  Stop-and-wait
(``pipeline=False``) is :class:`AdmissionGate`: a coordinator asks it to
admit a transaction's first dispatch, tells it when the transaction starts
occupying the pipeline and when it has decided, and the gate holds and
releases the rest in submission order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Set, Tuple

from repro.core.batching import BatchPolicy, MessageBatcher
from repro.core.messages import (
    Accept,
    AcceptAck,
    CertifyRequest,
    Prepare,
    PrepareAck,
    SlotDecision,
    TxnDecision,
)
from repro.core.types import BOTTOM, Decision, Phase, ShardId, TxnId


@dataclass(slots=True)
class CoordinatorEntry:
    """Book-keeping for one transaction this process coordinates.

    ``votes`` / ``slots`` / ``vote_epochs`` / ``acks`` are the in-flight
    state of the vote rounds.  Once the transaction is decided nothing reads
    them, so the decision drops them (they read ``None`` from then on): a
    decided entry — one whose ``decision`` is set — keeps ``txn``,
    ``shards``, the ``decision`` and its timestamps, which is what
    duplicate requests, the latency breakdown and the admission gate read.  A ``PREPARE_ACK`` arriving after the decision
    is still relayed to the followers; their confirmations are dropped.
    """

    txn: TxnId
    shards: frozenset
    started_at: float
    votes: Optional[Dict[ShardId, Decision]] = field(default_factory=dict)
    slots: Optional[Dict[ShardId, int]] = field(default_factory=dict)
    vote_epochs: Optional[Dict[ShardId, int]] = field(default_factory=dict)
    # Followers known to hold the vote, keyed by ``_ack_key(shard, epoch)``.
    acks: Optional[Dict[Hashable, Set[str]]] = field(default_factory=dict)
    decision: Optional[Decision] = None
    decided_at: Optional[float] = None
    # When the last of this transaction's PREPAREs left the coordinator:
    # the gap started_at -> dispatched_at is the per-transaction queueing
    # delay (batch accumulation, the stop-and-wait gate), reported as the
    # queue_wait phase of the latency breakdown.
    dispatched_at: Optional[float] = None


class AdmissionGate:
    """The stop-and-wait admission gate of one coordinator.

    Vote pipelining is the protocol's normal mode: certification of the next
    transaction overlaps vote persistence of the ones still in flight, and
    the gate admits everything.  ``pipeline=False`` is the stop-and-wait
    measurement baseline: a new transaction's dispatch is held until every
    previously dispatched one is fully persisted and decided.  It models a
    failure-free run (held dispatches are only re-driven by decisions, not
    by fault recovery).
    """

    def __init__(self, pipeline: bool) -> None:
        self.pipeline = pipeline
        # Dispatched and not yet decided.
        self._in_flight: Set[TxnId] = set()
        # Held dispatches in submission order, and their ids.  An entry is
        # either coordinator's book-keeping record: it has ``txn`` and
        # ``decided_at`` (the shape ``collect_phase_samples`` reads too).
        self._held_certifies: Deque[Tuple[Any, Any]] = deque()
        self._held_txns: Set[TxnId] = set()

    def admit(self, entry: Any, payload: Any) -> bool:
        """True when ``entry``'s transaction may dispatch now.  Otherwise
        another transaction is in flight and this one is held until
        :meth:`leave` releases it.  A duplicate request for a transaction
        already in flight or held is admitted: it re-drives, it never
        queues twice."""
        txn = entry.txn
        if (
            self.pipeline
            or not self._in_flight
            or txn in self._in_flight
            or txn in self._held_txns
        ):
            return True
        self._held_txns.add(txn)
        self._held_certifies.append((entry, payload))
        return False

    def enter(self, txn: TxnId) -> None:
        """``txn``'s dispatch is leaving the coordinator."""
        if not self.pipeline:
            self._in_flight.add(txn)

    def leave(self, txn: TxnId, dispatch: Callable[[Any, Any], None]) -> None:
        """``txn`` is decided: hand the held entries that are still
        undecided to ``dispatch``, in submission order, until one of them
        occupies the gate again."""
        if self.pipeline:
            return
        self._in_flight.discard(txn)
        while self._held_certifies and not self._in_flight:
            entry, payload = self._held_certifies.popleft()
            self._held_txns.discard(entry.txn)
            if entry.decided_at is None:
                dispatch(entry, payload)


class CoordinatorMixin:
    """The commit pipeline of a coordinator-capable replica."""

    def _init_coordinator(self, policy: BatchPolicy, pipeline: bool) -> None:
        self._coordinated: Dict[TxnId, CoordinatorEntry] = {}
        # Duplicate CERTIFY requests deduplicated (client retries).
        self.duplicate_certify_requests = 0
        self.gate = AdmissionGate(pipeline)
        # One outbox per message kind (repro.core.batching): the PREPARE
        # fan-out, the vote persistence, the DECISION broadcast and the
        # client replies each accumulate into per-destination batches under
        # an enabled policy and go straight out otherwise.
        self._prepare_batcher = MessageBatcher(
            self, policy, on_flush=self._note_prepares_flushed
        )
        self._accept_batcher = self._make_accept_batcher(policy)
        self._decision_batcher = self._make_decision_batcher(policy)
        self._reply_batcher = MessageBatcher(self, policy)
        self.batchers = [
            self._prepare_batcher,
            self._accept_batcher,
            self._decision_batcher,
            self._reply_batcher,
        ]

    def _note_prepares_flushed(self, dst: str, prepares: tuple) -> None:
        """Stamp queueing delay: a transaction counts as dispatched once the
        last of its per-shard PREPAREs has left the coordinator."""
        now = self.now
        for prepare in prepares:
            entry = self._coordinated.get(prepare.txn)
            if entry is not None:
                entry.dispatched_at = now

    # ------------------------------------------------------------------
    # public API (Figure 1, lines 1-3 and 70-73; Figure 7, lines 74-76)
    # ------------------------------------------------------------------
    def certify(self, txn: TxnId, payload: Any) -> CoordinatorEntry:
        """``certify(t, l)``: act as coordinator for transaction ``txn``."""
        shards = self.directory.shards_of(txn)
        entry = self._coordinated.get(txn)
        if entry is None:
            entry = CoordinatorEntry(txn=txn, shards=frozenset(shards), started_at=self.now)
            self._coordinated[txn] = entry
        if self.gate.admit(entry, payload):
            self._dispatch_prepares(entry, payload)
        return entry

    def _dispatch_prepares(self, entry: CoordinatorEntry, payload: Any) -> None:
        """Fan PREPAREs out to the involved shard leaders."""
        txn = entry.txn
        shards = entry.shards
        if shards:
            self.gate.enter(txn)
        # Sorted: `shards` is a set, and the fan-out order must not depend
        # on the process's hash seed (random latency models draw one delay
        # per send, so iteration order shapes the schedule; under batching
        # it also fixes batch composition).
        for shard in sorted(shards):
            projected = (
                BOTTOM if payload is BOTTOM else self.scheme.project(payload, shard)
            )
            self._prepare_batcher.add(
                self.view[shard].leader, Prepare(txn=txn, payload=projected)
            )
        if not shards:
            # A transaction touching no shard (empty payload) commits
            # trivially: the meet over an empty set of votes is commit.
            self._maybe_decide(entry)

    def retry(self, slot: int) -> Optional[CoordinatorEntry]:
        """``retry(k)``: become a new coordinator for a prepared transaction
        whose original coordinator is suspected to have failed (line 70)."""
        if self.phase(slot) is not Phase.PREPARED:
            return None
        txn = self.txn_arr[slot]
        return self.certify(txn, BOTTOM)

    def coordinated(self, txn: TxnId) -> Optional[CoordinatorEntry]:
        return self._coordinated.get(txn)

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def on_certify_request(self, msg: CertifyRequest, sender: str) -> None:
        """A client picked this replica as the transaction's coordinator.

        The client re-submits on timeout, so the request may be a
        duplicate: a decided transaction is re-answered from the decision
        cache (the coordinator entry, or the replica's own certification
        order) rather than re-certified — duplicates must never produce a
        second, possibly different, decision.  An in-flight duplicate is
        counted but re-driven, which is idempotent at the leaders (they
        re-answer the stored vote for a known transaction).
        """
        entry = self._coordinated.get(msg.txn)
        if entry is not None:
            self.duplicate_certify_requests += 1
            if entry.decision is not None:
                self.send(sender, TxnDecision(txn=msg.txn, decision=entry.decision))
                return
        else:
            slot = self.slot_of.get(msg.txn)
            if slot is not None and self.phase(slot) is Phase.DECIDED:
                # Not coordinated here, but this replica's shard has already
                # persisted the decision: answer from the local decision cache.
                self.duplicate_certify_requests += 1
                self.send(sender, TxnDecision(txn=msg.txn, decision=self.dec_arr[slot]))
                return
        self.certify(msg.txn, msg.payload)

    def on_prepare_ack(self, msg: PrepareAck, sender: str) -> None:
        """Persist the leader's vote at the shard's followers (Figure 1,
        lines 18-20; Figure 7, lines 91-93)."""
        entry = self._coordinated.get(msg.txn)
        if entry is None:
            return
        if self.epoch_of(msg.shard) != msg.epoch:
            self._on_stale_prepare_ack(msg, sender)
            return
        if entry.decision is not None:
            # A late or duplicate vote: still relayed, as an undecided
            # coordinator would, but there is nothing left to record it in.
            self._persist_vote(entry, msg)
            return
        entry.votes[msg.shard] = msg.vote
        entry.slots[msg.shard] = msg.slot
        entry.vote_epochs[msg.shard] = msg.epoch
        self._persist_vote(entry, msg)
        # A shard with no followers (f = 0) is fully persisted by the
        # leader's own vote, so the decision check must run here too.
        self._maybe_decide(entry)

    # ------------------------------------------------------------------
    # decision
    # ------------------------------------------------------------------
    def _maybe_decide(self, entry: CoordinatorEntry) -> None:
        if entry.decision is not None:
            return
        # A shard without a vote cannot be persisted: skip the per-shard
        # checks until every shard has voted.
        if len(entry.votes) < len(entry.shards):
            return
        for shard in entry.shards:
            if not self._shard_persisted(entry, shard):
                return
        decision = Decision.meet_all(entry.votes[s] for s in entry.shards)
        slots = entry.slots
        entry.decision = decision
        entry.decided_at = self.now
        entry.votes = entry.slots = entry.vote_epochs = entry.acks = None
        # Report to the client (line 27) ...
        if self.directory.known(entry.txn):
            client = self.directory.client_of(entry.txn)
            self._reply_batcher.add(client, TxnDecision(txn=entry.txn, decision=decision))
        # ... and persist the decision at every relevant shard (lines 28-29).
        # Sorted for hash-seed-independent send order (see `certify`).
        for shard in sorted(entry.shards):
            self._persist_decision(shard, slots[shard], decision)
        self.gate.leave(entry.txn, self._dispatch_prepares)

    # ------------------------------------------------------------------
    # what a protocol stack supplies; the bodies are Figure 1's
    # ------------------------------------------------------------------
    def epoch_of(self, shard: ShardId) -> int:
        """The epoch this process believes ``shard`` is in (``epoch[s]``)."""
        return self.view[shard].epoch

    def _ack_key(self, shard: ShardId, epoch: int) -> Hashable:
        """What a follower's confirmation counts towards in ``entry.acks``:
        the vote of ``shard`` in ``epoch``."""
        return (shard, epoch)

    def _on_stale_prepare_ack(self, msg: PrepareAck, sender: str) -> None:
        """Precondition ``epoch[s] = e`` failed (line 19).  A newer epoch may
        simply not have reached us yet; stash and retry once it does."""
        if msg.epoch > self.view[msg.shard].epoch:
            self._stash_message(msg, sender)

    def _make_accept_batcher(self, policy: BatchPolicy) -> MessageBatcher:
        return MessageBatcher(self, policy)

    def _make_decision_batcher(self, policy: BatchPolicy) -> MessageBatcher:
        return MessageBatcher(self, policy)

    def _persist_vote(self, entry: CoordinatorEntry, msg: PrepareAck) -> None:
        """Relay the vote to the shard's followers in ``ACCEPT`` messages
        (lines 18-20); they confirm with ``ACCEPT_ACK``."""
        accept = Accept(
            epoch=msg.epoch,
            slot=msg.slot,
            txn=msg.txn,
            payload=msg.payload,
            vote=msg.vote,
        )
        self._accept_batcher.add_all(self.view[msg.shard].followers, accept)

    def on_accept_ack(self, msg: AcceptAck, sender: str) -> None:
        """Count follower confirmations; decide once every shard is persisted
        (lines 26-29)."""
        entry = self._coordinated.get(msg.txn)
        if entry is None or entry.decision is not None:
            return
        entry.acks.setdefault((msg.shard, msg.epoch), set()).add(sender)
        entry.votes.setdefault(msg.shard, msg.vote)
        entry.slots.setdefault(msg.shard, msg.slot)
        entry.vote_epochs.setdefault(msg.shard, msg.epoch)
        self._maybe_decide(entry)

    def _shard_persisted(self, entry: CoordinatorEntry, shard: ShardId) -> bool:
        """True when every follower of ``shard`` — in the coordinator's
        current, possibly stale, view of its configuration — has confirmed
        the vote this entry records for the shard's current epoch
        (``epoch_of``), counted under ``_ack_key``."""
        if shard not in entry.votes:
            return False
        epoch = self.epoch_of(shard)
        if entry.vote_epochs.get(shard) != epoch:
            return False
        acked = entry.acks.get(self._ack_key(shard, epoch), ())
        # With no followers (f = 0) the leader's vote alone persists it.
        for pid in self.view[shard].followers:
            if pid not in acked:
                return False
        return True

    def _persist_decision(self, shard: ShardId, slot: int, decision: Decision) -> None:
        """Send ``DECISION`` to every member of the shard (lines 28-29)."""
        config = self.view[shard]
        message = SlotDecision(epoch=config.epoch, slot=slot, decision=decision)
        self._decision_batcher.add_all(config.members, message)
