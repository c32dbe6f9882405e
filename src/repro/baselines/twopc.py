"""Vanilla baseline: two-phase commit over Paxos-replicated shards.

Each shard is a Multi-Paxos group of ``2f + 1`` replicas whose replicated
state machine performs the shard-local certification checks.  A transaction
coordinator drives classical 2PC on top:

1. send a ``prepare`` command to the Paxos leader of every relevant shard;
   the command is made durable on a majority before the shard's vote is
   returned (3 message delays per shard: Phase2a, Phase2b, vote reply);
2. combine the votes with ``⊓``;
3. send a ``decide`` command to every relevant shard and wait until it is
   durable before exposing the decision to the client.

This is the design the paper attributes to Spanner/Scatter-style systems and
improves upon: the decision takes 7 message delays to become durable at the
coordinator (versus 5/4 for the paper's protocol) and the Paxos leaders
carry the full replication fan-out for every transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.baselines.paxos import RsmCommand, RsmResponse, StateMachine
from repro.core.batching import BatchPolicy, MessageBatcher
from repro.core.certification import CertificationScheme
from repro.core.coordinator import AdmissionGate
from repro.core.directory import TransactionDirectory
from repro.core.messages import CertifyRequest, TxnDecision
from repro.core.types import Decision, ShardId, TxnId
from repro.runtime.process import Process


@dataclass(frozen=True)
class PrepareCommand:
    """State-machine command: certify a transaction at this shard."""

    txn: TxnId
    payload: Any


@dataclass(frozen=True)
class DecideCommand:
    """State-machine command: record the final decision for a transaction."""

    txn: TxnId
    decision: Decision


@dataclass(frozen=True)
class CommandBatch:
    """A batch of commands replicated as *one* Paxos value.

    Protocol-level batching for the baseline: the whole batch costs a single
    Paxos instance (one Phase2a/Phase2b round instead of one per command),
    the state machine applies the elements in order, and the response
    carries the per-command results as a tuple in the same order.
    """

    commands: Tuple[Any, ...]


class CertificationStateMachine(StateMachine):
    """Shard-local certification as a replicated state machine.

    ``prepare`` computes the vote ``f_s(committed, l) ⊓ g_s(prepared, l)``
    and records the transaction as prepared; ``decide`` adds a prepared
    transaction to the committed summary (or drops it on abort).
    """

    def __init__(self, shard: ShardId, scheme: CertificationScheme) -> None:
        self.shard = shard
        self.scheme = scheme
        self.prepared: Dict[TxnId, Tuple[Any, Decision]] = {}
        # Per-object conflict state summarising the committed payloads and
        # the commit-voted entries of ``prepared``, so a vote costs
        # O(|payload|) instead of a scan over every committed payload.
        # Replicas apply the same command sequence, so every replica's index
        # is identical by construction.
        self._index = scheme.make_vote_index(shard)
        self.decisions: Dict[TxnId, Decision] = {}

    def apply(self, command: Any) -> Any:
        if isinstance(command, PrepareCommand):
            return self._apply_prepare(command)
        if isinstance(command, DecideCommand):
            return self._apply_decide(command)
        if isinstance(command, CommandBatch):
            # Intra-batch ordering is the batch order: each prepare is
            # certified against the transactions the earlier elements
            # prepared or decided, exactly as if the commands had been
            # replicated back to back.
            return tuple(self.apply(each) for each in command.commands)
        raise TypeError(f"unknown command {command!r}")

    def _apply_prepare(self, command: PrepareCommand) -> Decision:
        if command.txn in self.prepared:
            return self.prepared[command.txn][1]
        if command.txn in self.decisions:
            return self.decisions[command.txn]
        payload = command.payload
        vote = self._index.vote(payload)
        if vote is Decision.COMMIT:
            self._index.add_prepared(payload)
        self.prepared[command.txn] = (payload, vote)
        return vote

    def _apply_decide(self, command: DecideCommand) -> Decision:
        if command.txn in self.decisions:
            return self.decisions[command.txn]
        self.decisions[command.txn] = command.decision
        entry = self.prepared.pop(command.txn, None)
        if entry is None:
            return command.decision
        payload, vote = entry
        if vote is Decision.COMMIT:
            self._index.remove_prepared(payload)
        if command.decision is Decision.COMMIT:
            self._index.add_committed(payload)
        return command.decision


@dataclass(slots=True)
class _BaselineTxn:
    """Book-keeping for one transaction: ``votes`` is dropped (reads
    ``None``) once the votes are combined, ``durable_shards`` once the
    decision is durable everywhere."""

    txn: TxnId
    shards: FrozenSet[ShardId]
    started_at: float
    votes: Optional[Dict[ShardId, Decision]] = field(default_factory=dict)
    decision: Optional[Decision] = None
    decided_at: Optional[float] = None
    durable_shards: Optional[Set[ShardId]] = field(default_factory=set)
    durable_at: Optional[float] = None
    # When the last prepare command left the coordinator; started_at ->
    # dispatched_at is the queue_wait phase of the latency breakdown.
    dispatched_at: Optional[float] = None


class TwoPCCoordinator(Process):
    """A 2PC coordinator talking to Paxos-replicated shards."""

    def __init__(
        self,
        pid: str,
        scheme: CertificationScheme,
        directory: TransactionDirectory,
        shard_leaders: Dict[ShardId, str],
        batch: Optional[BatchPolicy] = None,
        pipeline: bool = True,
    ) -> None:
        super().__init__(pid)
        self.scheme = scheme
        self.directory = directory
        self.shard_leaders = dict(shard_leaders)
        self.transactions: Dict[TxnId, _BaselineTxn] = {}
        self._next_request = 0
        # The (txn, shard, kind) descriptors of the commands a request
        # replicated, in command order; and those of the commands handed to
        # the outbox and not yet replicated, per Paxos leader.
        self._requests: Dict[int, List[Tuple[TxnId, ShardId, str]]] = {}
        self._unsent: Dict[str, List[Tuple[TxnId, ShardId, str]]] = {}
        self.duplicate_certify_requests = 0
        # The commit path's two toggles (repro.core.coordinator), shared:
        # stop-and-wait holds prepares for a new transaction until the
        # in-flight one is durable everywhere, and under an enabled batch
        # policy commands to the same Paxos leader accumulate and replicate
        # as one CommandBatch value.
        self.gate = AdmissionGate(pipeline)
        self.batch_policy = batch or BatchPolicy()
        self._command_batcher = MessageBatcher(
            self, self.batch_policy, wrap=CommandBatch, send=self._replicate
        )
        self._reply_batcher = MessageBatcher(self, self.batch_policy)
        self.batchers = [self._command_batcher, self._reply_batcher]

    # ------------------------------------------------------------------
    # client entry point
    # ------------------------------------------------------------------
    def on_certify_request(self, msg: CertifyRequest, sender: str) -> None:
        # Baseline parity with the reconfigurable protocols: client retries
        # are deduplicated on the transaction id.  A decided (and
        # durable) transaction is re-answered from the decision cache; an
        # in-flight duplicate is ignored — the pending Paxos commands will
        # complete it, and the certification state machine itself dedups
        # prepare/decide commands per transaction.
        entry = self.transactions.get(msg.txn)
        if entry is not None:
            self.duplicate_certify_requests += 1
            if entry.decision is not None and entry.durable_at is not None:
                self.send(sender, TxnDecision(txn=msg.txn, decision=entry.decision))
            return
        self.certify(msg.txn, msg.payload)

    def certify(self, txn: TxnId, payload: Any) -> _BaselineTxn:
        shards = self.directory.shards_of(txn)
        entry = _BaselineTxn(txn=txn, shards=frozenset(shards), started_at=self.now)
        self.transactions[txn] = entry
        if self.gate.admit(entry, payload):
            self._dispatch_prepares(entry, payload)
        return entry

    def _dispatch_prepares(self, entry: _BaselineTxn, payload: Any) -> None:
        txn = entry.txn
        shards = entry.shards
        if shards:
            self.gate.enter(txn)
        # Sorted for hash-seed-independent send order (random latency
        # models draw one delay per send, so iteration order matters).
        for shard in sorted(shards):
            command = PrepareCommand(txn=txn, payload=self.scheme.project(payload, shard))
            self._send_command(txn, shard, "prepare", command)
        if not shards:
            # No shard needs to vote: commit trivially and report back.
            entry.decision = Decision.COMMIT
            entry.decided_at = entry.durable_at = self.now
            entry.votes = entry.durable_shards = None
            if self.directory.known(txn):
                self._reply_batcher.add(
                    self.directory.client_of(txn), TxnDecision(txn, Decision.COMMIT)
                )

    def _send_command(self, txn: TxnId, shard: ShardId, kind: str, command: Any) -> None:
        leader = self.shard_leaders[shard]
        self._unsent.setdefault(leader, []).append((txn, shard, kind))
        self._command_batcher.add(leader, command)

    def _replicate(self, leader: str, value: Any) -> None:
        """The command outbox's send: replicate what it releases for
        ``leader`` — one command, or a ``CommandBatch`` of them — as one
        Paxos value, remembering the descriptors for response dispatch."""
        descriptors = self._unsent.pop(leader)
        for txn, _shard, kind in descriptors:
            if kind == "prepare":
                entry = self.transactions.get(txn)
                if entry is not None:
                    entry.dispatched_at = self.now
        self._next_request += 1
        self._requests[self._next_request] = descriptors
        self.send(leader, RsmCommand(command=value, request_id=self._next_request))

    # ------------------------------------------------------------------
    # responses from the shard state machines
    # ------------------------------------------------------------------
    def on_rsm_response(self, msg: RsmResponse, sender: str) -> None:
        request = self._requests.pop(msg.request_id, None)
        if request is None:
            return
        # A CommandBatch answers with its result vector, in batch order.
        results = msg.result if isinstance(msg.result, tuple) else (msg.result,)
        for (txn, shard, kind), result in zip(request, results):
            self._apply_response(txn, shard, kind, result)

    def _apply_response(self, txn: TxnId, shard: ShardId, kind: str, result: Any) -> None:
        entry = self.transactions.get(txn)
        if entry is None:
            return
        if kind == "prepare":
            if entry.decision is None:
                entry.votes[shard] = result
                if entry.votes.keys() == entry.shards:
                    self._decide(entry)
        elif kind == "decide" and entry.durable_at is None:
            entry.durable_shards.add(shard)
            if entry.durable_shards == entry.shards:
                entry.durable_at = self.now
                entry.durable_shards = None
                if self.directory.known(txn):
                    client = self.directory.client_of(txn)
                    self._reply_batcher.add(client, TxnDecision(txn=txn, decision=entry.decision))
                self.gate.leave(txn, self._dispatch_prepares)

    def _decide(self, entry: _BaselineTxn) -> None:
        decision = Decision.meet_all(entry.votes[s] for s in entry.shards)
        entry.decision = decision
        entry.decided_at = self.now
        entry.votes = None
        # Sorted for hash-seed-independent send order (see `certify`).
        for shard in sorted(entry.shards):
            self._send_command(entry.txn, shard, "decide", DecideCommand(entry.txn, decision))
