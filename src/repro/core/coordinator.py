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

A reconfiguration does not strand the transactions in flight: wherever a
shard's epoch advances at the coordinator (``epoch_of``), the coordinator
re-sends ``PREPARE`` to the shard's new leader for every undecided
transaction that holds no vote of that epoch there
(:meth:`CoordinatorMixin._redrive_prepares`), and a vote of an epoch the
coordinator has not reached waits in the replica's stash until it has.

A transaction's :class:`CoordinatorEntry` lives only until its decision.
Then the coordinator keeps two columns: the decision, by transaction, and
the ``started_at`` / ``dispatched_at`` / ``decided_at`` stamps in one flat
``array('d')``, three per transaction in decision order.  They answer a
duplicate request and feed the latency breakdown
(:func:`repro.analysis.metrics.collect_phase_samples`).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from math import isnan
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

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
from repro.core.types import AS_SENT, BOTTOM, Decision, Phase, ShardId, TxnId


# The ``dispatched_at`` column's value for a transaction whose PREPAREs
# never left (it touches no shard).
UNSTAMPED = float("nan")


@dataclass(slots=True)
class CoordinatorEntry:
    """Book-keeping for one transaction this process coordinates, from its
    first ``certify`` until its decision.

    ``votes`` / ``acks`` are the in-flight state of the vote rounds.
    ``projections`` holds the payload projection ``l | s`` each shard's
    ``PREPARE`` carried (lines 2-3); a ``⊥`` re-dispatch (``retry``, lines
    70-73) adds none and overwrites none.  A leader that places the
    ``PREPARE`` in a fresh slot answers ``PREPARE_ACK`` (lines 7 and 17)
    with the marker ``AS_SENT`` instead of echoing ``l``, and the
    coordinator relays ``projections[s]`` in its ``ACCEPT``.

    The decision sets ``decision``, moves it and the three timestamps into
    the coordinator's columns and drops the entry, projections included;
    only the stop-and-wait gate, which may still hold it, reads it
    afterwards.  A ``PREPARE_ACK`` that carries a payload and arrives
    after the decision is still relayed to the followers; a marker one is
    dropped and counted (``dropped_marker_acks``), since the decision
    already persisted that vote at every follower.  The followers'
    confirmations are dropped.
    """

    txn: TxnId
    shards: frozenset
    started_at: float
    # Per shard, the message that brought its vote (a ``PREPARE_ACK``, or
    # an ``ACCEPT_ACK`` that arrived first): its ``vote``, ``slot`` and
    # ``epoch``.
    votes: Dict[ShardId, Union[PrepareAck, AcceptAck]] = field(default_factory=dict)
    # Followers known to hold the vote, keyed by ``_ack_key(shard, epoch)``.
    acks: Dict[Hashable, Set[str]] = field(default_factory=dict)
    # Per shard, the projection its PREPARE carried (none for ``⊥``).
    projections: Dict[ShardId, Any] = field(default_factory=dict)
    decision: Optional[Decision] = None
    # When the last of this transaction's PREPAREs left the coordinator:
    # the gap started_at -> dispatched_at is the per-transaction queueing
    # delay (batch accumulation, the stop-and-wait gate), reported as the
    # queue_wait phase of the latency breakdown.
    dispatched_at: Optional[float] = None


class DecidedTxn(NamedTuple):
    """A decided transaction as its coordinator's columns hold it, built
    on request (:meth:`CoordinatorMixin.coordinated`,
    :meth:`CoordinatorMixin.decided_records`)."""

    txn: TxnId
    decision: Decision
    started_at: float
    dispatched_at: Optional[float]
    decided_at: float


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
        # ``decision``.
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

    def holds(self, txn: TxnId) -> bool:
        """True while ``txn``'s first dispatch waits in the gate."""
        return txn in self._held_txns

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
            if entry.decision is None:
                dispatch(entry, payload)


class CoordinatorMixin:
    """The commit pipeline of a coordinator-capable replica."""

    def _init_coordinator(self, policy: BatchPolicy, pipeline: bool) -> None:
        # The undecided transactions' entries, and the decided ones'
        # columns (see the module docstring): each decision by transaction,
        # in decision order, and three stamps per decision.
        self._coordinated: Dict[TxnId, CoordinatorEntry] = {}
        self._decisions: Dict[TxnId, Decision] = {}
        self._decided_times = array("d")
        # Duplicate CERTIFY requests deduplicated (client retries).
        self.duplicate_certify_requests = 0
        # AS_SENT PREPARE_ACKs that found no live entry to relay from.
        self.dropped_marker_acks = 0
        # Re-driven PREPAREs still in the outbox, by identity: their flush
        # stamps nothing (``_redrive_prepares``).
        self._redriven: Dict[int, Prepare] = {}
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
        last of its per-shard PREPAREs has left the coordinator.  Only an
        undecided transaction is stamped: a decided one's stamps are
        written once, so a re-dispatch (``retry``) leaves them alone.  A
        re-driven PREPARE stamps nothing."""
        now = self.now
        redriven = self._redriven
        for prepare in prepares:
            if redriven and redriven.pop(id(prepare), None) is prepare:
                continue
            entry = self._coordinated.get(prepare.txn)
            if entry is not None:
                entry.dispatched_at = now

    # ------------------------------------------------------------------
    # public API (Figure 1, lines 1-3 and 70-73; Figure 7, lines 74-76)
    # ------------------------------------------------------------------
    def certify(self, txn: TxnId, payload: Any) -> CoordinatorEntry:
        """``certify(t, l)``: act as coordinator for transaction ``txn``.

        For a transaction this process has already decided (a ``retry``)
        the PREPAREs go out again at once, under an entry that holds the
        decision and is not kept: the leaders re-answer their stored votes,
        which are relayed, the decided transaction's columns stay as they
        were, and the stop-and-wait gate, which only a decision releases,
        is not entered."""
        shards = self.directory.shards_of(txn)
        entry = self._coordinated.get(txn)
        if entry is None:
            entry = CoordinatorEntry(txn=txn, shards=frozenset(shards), started_at=self.now)
            decision = self._decisions.get(txn)
            if decision is not None:
                entry.decision = decision
                self._dispatch_prepares(entry, payload)
                return entry
            self._coordinated[txn] = entry
        if self.gate.admit(entry, payload):
            self._dispatch_prepares(entry, payload)
        return entry

    def _dispatch_prepares(self, entry: CoordinatorEntry, payload: Any) -> None:
        """Fan PREPAREs out to the involved shard leaders, keeping each
        projection on the entry for the relay of a marker ack."""
        txn = entry.txn
        shards = entry.shards
        if shards and entry.decision is None:
            self.gate.enter(txn)
        projections = entry.projections
        # Sorted: `shards` is a set, and the fan-out order must not depend
        # on the process's hash seed (random latency models draw one delay
        # per send, so iteration order shapes the schedule; under batching
        # it also fixes batch composition).
        for shard in sorted(shards):
            if payload is BOTTOM:
                projected = BOTTOM
            else:
                projected = projections[shard] = self.scheme.project(payload, shard)
            self._prepare_batcher.add(
                self.view[shard].leader, Prepare(txn=txn, payload=projected)
            )
        if not shards:
            # A transaction touching no shard (empty payload) commits
            # trivially: the meet over an empty set of votes is commit.
            self._maybe_decide(entry)

    def _redrive_prepares(self, shards: Iterable[ShardId]) -> None:
        """``epoch_of`` has just advanced on ``shards``: re-send ``PREPARE``
        to each of those shards' new leader for every undecided transaction
        that holds no vote of the shard's current epoch there, since
        ``_shard_persisted`` counts only such a vote.  The re-send carries
        the projection the entry keeps, or ``⊥`` where it keeps none (a
        ``retry``).  It is idempotent (lines 1-3 and 6): a leader answers
        a transaction it already holds with its stored vote.  A dispatch
        the stop-and-wait gate still holds is not re-driven, and a
        re-driven PREPARE stamps no ``dispatched_at``."""
        shards = frozenset(shards)
        gate = self.gate
        for entry in self._coordinated.values():
            if gate.holds(entry.txn):
                continue
            # Sorted for hash-seed-independent send order (see `certify`).
            for shard in sorted(entry.shards & shards):
                vote = entry.votes.get(shard)
                if vote is not None and vote.epoch >= self.epoch_of(shard):
                    continue
                prepare = Prepare(txn=entry.txn, payload=entry.projections.get(shard, BOTTOM))
                self._redriven[id(prepare)] = prepare
                self._prepare_batcher.add(self.view[shard].leader, prepare)

    def retry(self, slot: int) -> Optional[CoordinatorEntry]:
        """``retry(k)``: become a new coordinator for a prepared transaction
        whose original coordinator is suspected to have failed (line 70)."""
        if self.phase(slot) is not Phase.PREPARED:
            return None
        txn = self.txn_arr[slot]
        return self.certify(txn, BOTTOM)

    def coordinated(self, txn: TxnId) -> Union[CoordinatorEntry, DecidedTxn, None]:
        """``txn``'s live entry while it is undecided here, its columns'
        record once it is decided here (a scan of the decisions), else
        None."""
        entry = self._coordinated.get(txn)
        if entry is not None or txn not in self._decisions:
            return entry
        index = list(self._decisions).index(txn)
        return self._decided_record(txn, index)

    def decided_records(self) -> Iterator[DecidedTxn]:
        """Every transaction decided here, in decision order."""
        for index, txn in enumerate(self._decisions):
            yield self._decided_record(txn, index)

    def decided_columns(self) -> Tuple[Dict[TxnId, Decision], array]:
        """The decided transactions' columns: each decision by transaction
        and, in the same order, ``started_at`` / ``dispatched_at`` /
        ``decided_at`` as consecutive floats (``dispatched_at`` NaN when the
        PREPAREs never left)."""
        return self._decisions, self._decided_times

    def _decided_record(self, txn: TxnId, index: int) -> DecidedTxn:
        started, dispatched, decided = self._decided_times[3 * index : 3 * index + 3]
        return DecidedTxn(
            txn, self._decisions[txn], started, None if isnan(dispatched) else dispatched, decided
        )

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def on_certify_request(self, msg: CertifyRequest, sender: str) -> None:
        """A client picked this replica as the transaction's coordinator.

        The client re-submits on timeout, so the request may be a
        duplicate: a decided transaction is re-answered from the decision
        cache (the coordinator's decisions, or the replica's own
        certification order) rather than re-certified — duplicates must
        never produce a second, possibly different, decision.  An in-flight
        duplicate is counted but re-driven, which is idempotent at the
        leaders (they re-answer the stored vote for a known transaction).
        """
        txn = msg.txn
        if txn in self._coordinated:
            self.duplicate_certify_requests += 1
        elif txn in self._decisions:
            self.duplicate_certify_requests += 1
            self.send(sender, TxnDecision(txn=txn, decision=self._decisions[txn]))
            return
        else:
            slot = self.slot_of.get(txn)
            if slot is not None and self.phase(slot) is Phase.DECIDED:
                # Not coordinated here, but this replica's shard has already
                # persisted the decision: answer from the local decision cache.
                self.duplicate_certify_requests += 1
                self.send(sender, TxnDecision(txn=txn, decision=self.dec_arr[slot]))
                return
        self.certify(txn, msg.payload)

    def on_prepare_ack(self, msg: PrepareAck, sender: str) -> None:
        """Persist the leader's vote at the shard's followers (Figure 1,
        lines 18-20; Figure 7, lines 91-93), with the payload the ack
        carries or, for ``AS_SENT``, the projection the entry keeps."""
        entry = self._coordinated.get(msg.txn)
        if entry is None and msg.txn not in self._decisions:
            return
        if self.epoch_of(msg.shard) != msg.epoch:
            self._on_stale_prepare_ack(msg, sender)
            return
        payload = msg.payload
        if entry is None:
            if payload is AS_SENT:
                # Decided: every follower already holds this vote.
                self.dropped_marker_acks += 1
                return
            # A late or duplicate vote of a decided transaction: still
            # relayed, as an undecided coordinator would, but there is
            # nothing left to record it in.
            self._persist_vote(None, msg, payload)
            return
        if payload is AS_SENT:
            payload = entry.projections[msg.shard]
        entry.votes[msg.shard] = msg
        self._persist_vote(entry, msg, payload)
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
        txn = entry.txn
        votes = entry.votes
        decision = Decision.meet_all(votes[s].vote for s in entry.shards)
        entry.decision = decision
        # The entry leaves; the columns keep what duplicates and the
        # latency breakdown read.
        del self._coordinated[txn]
        self._decisions[txn] = decision
        dispatched = entry.dispatched_at
        self._decided_times.extend(
            (entry.started_at, UNSTAMPED if dispatched is None else dispatched, self.now)
        )
        # Report to the client (line 27) ...
        if self.directory.known(txn):
            client = self.directory.client_of(txn)
            self._reply_batcher.add(client, TxnDecision(txn=txn, decision=decision))
        # ... and persist the decision at every relevant shard (lines 28-29).
        # Sorted for hash-seed-independent send order (see `certify`).
        for shard in sorted(entry.shards):
            self._persist_decision(shard, votes[shard].slot, decision)
        self.gate.leave(txn, self._dispatch_prepares)

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
        """Precondition ``epoch[s] = e`` failed (Figure 1 line 19, Figure 7
        line 92).  A newer epoch may simply not have reached us yet: stash
        the vote and handle it once it has.  An older one is dropped: the
        epoch's advance re-drove the transaction (``_redrive_prepares``)."""
        if msg.epoch > self.epoch_of(msg.shard):
            self._stash_message(msg, sender)

    def _make_accept_batcher(self, policy: BatchPolicy) -> MessageBatcher:
        return MessageBatcher(self, policy)

    def _make_decision_batcher(self, policy: BatchPolicy) -> MessageBatcher:
        return MessageBatcher(self, policy)

    def _persist_vote(
        self, entry: Optional[CoordinatorEntry], msg: PrepareAck, payload: Any
    ) -> None:
        """Relay the vote to the shard's followers in ``ACCEPT`` messages
        (lines 18-20); they confirm with ``ACCEPT_ACK``.  ``entry`` is the
        transaction's entry, None once it is decided; ``payload`` is what
        the followers store, never ``AS_SENT``."""
        accept = Accept(
            epoch=msg.epoch,
            slot=msg.slot,
            txn=msg.txn,
            payload=payload,
            vote=msg.vote,
        )
        self._accept_batcher.add_all(self.view[msg.shard].followers, accept)

    def on_accept_ack(self, msg: AcceptAck, sender: str) -> None:
        """Count follower confirmations; decide once every shard is persisted
        (lines 26-29)."""
        entry = self._coordinated.get(msg.txn)
        if entry is None:
            return
        entry.acks.setdefault((msg.shard, msg.epoch), set()).add(sender)
        entry.votes.setdefault(msg.shard, msg)
        self._maybe_decide(entry)

    def _shard_persisted(self, entry: CoordinatorEntry, shard: ShardId) -> bool:
        """True when every follower of ``shard`` — in the coordinator's
        current, possibly stale, view of its configuration — has confirmed
        the vote this entry records for the shard's current epoch
        (``epoch_of``), counted under ``_ack_key``."""
        record = entry.votes.get(shard)
        epoch = self.epoch_of(shard)
        if record is None or record.epoch != epoch:
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
