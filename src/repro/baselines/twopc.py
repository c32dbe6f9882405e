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

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.baselines.paxos import RsmCommand, RsmResponse, StateMachine
from repro.core.batching import BatchPolicy, MessageBatcher
from repro.core.certification import CertificationScheme
from repro.core.directory import TransactionDirectory
from repro.core.messages import (
    CertifyRequest,
    CertifyRequestBatch,
    TxnDecision,
    TxnDecisionBatch,
)
from repro.core.serializability import VERSION_ZERO, Version
from repro.core.types import Decision, ShardId, TxnId
from repro.runtime.process import Process
from repro.store.kv import VersionedKVStore


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
    and records the transaction as prepared; ``decide`` moves a prepared
    transaction to the committed set (or drops it on abort).
    """

    def __init__(
        self,
        shard: ShardId,
        scheme: CertificationScheme,
        applied_store: Optional[VersionedKVStore] = None,
    ) -> None:
        self.shard = shard
        self.scheme = scheme
        self.committed_payloads: List[Any] = []
        self.prepared: Dict[TxnId, Tuple[Any, Decision]] = {}
        # Per-object conflict state mirroring ``committed_payloads`` and the
        # commit-voted entries of ``prepared``, so a vote costs O(|payload|)
        # instead of a scan over every committed payload.  Replicas apply
        # the same command sequence, so every replica's index is identical
        # by construction.
        self._index = scheme.make_vote_index(shard)
        self.decisions: Dict[TxnId, Decision] = {}
        # Closed-timestamp watermark, kept for parity with the snapshot-read
        # replicas so protocol comparisons stay apples-to-apples; the applied
        # store is populated only when the cluster runs a read policy.
        self.applied_store = applied_store
        self.watermark: Version = VERSION_ZERO

    def seed(self, initial: Dict[Any, Any]) -> None:
        """Install initial (version-zero) values into the applied store."""
        for obj, value in initial.items():
            self.applied_store.seed(obj, value)

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
            self.committed_payloads.append(payload)
            self._index.add_committed(payload)
            written = getattr(payload, "written_objects", None)
            if written:
                if self.applied_store is not None:
                    self.applied_store.install_payload(payload)
                if payload.commit_version > self.watermark:
                    self.watermark = payload.commit_version
        return command.decision


@dataclass
class _BaselineTxn:
    txn: TxnId
    payload: Any
    shards: FrozenSet[ShardId]
    started_at: float
    votes: Dict[ShardId, Decision] = field(default_factory=dict)
    decision: Optional[Decision] = None
    vote_complete_at: Optional[float] = None
    decided_at: Optional[float] = None
    durable_shards: Set[ShardId] = field(default_factory=set)
    durable_at: Optional[float] = None
    # When the last prepare command left the coordinator (equals started_at
    # unbatched); the queue_wait phase of the latency breakdown.
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
        # One descriptor triple per single command, a list of them per batch.
        self._requests: Dict[int, Any] = {}
        self.duplicate_certify_requests = 0
        # Vote pipelining toggle (parity with CoordinatorMixin): False is
        # the stop-and-wait measurement baseline — prepares for a new
        # transaction are held until the in-flight one is durable everywhere.
        self.pipeline_commits = pipeline
        self._unpersisted: Set[TxnId] = set()
        self._held_certifies: Deque[Tuple[TxnId, Any]] = deque()
        self._held_txns: Set[TxnId] = set()
        # Protocol-level batching: commands to the same Paxos leader
        # accumulate and replicate as one CommandBatch value.
        self.batch_policy = batch or BatchPolicy()
        self._batching = self.batch_policy.enabled
        self.batchers: List[MessageBatcher] = []
        if self._batching:
            self._command_batcher = MessageBatcher(
                self,
                self.batch_policy,
                wrap=self._wrap_commands,
                on_flush=self._note_commands_flushed,
            )
            self._reply_batcher = MessageBatcher(
                self,
                self.batch_policy,
                wrap=lambda items: TxnDecisionBatch(decisions=items),
            )
            self.batchers = [self._command_batcher, self._reply_batcher]

    # ------------------------------------------------------------------
    # client entry point
    # ------------------------------------------------------------------
    def on_certify_request(self, msg: CertifyRequest, sender: str) -> None:
        # Baseline parity with the reconfigurable protocols: client-session
        # retries are deduplicated on the transaction id.  A decided (and
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

    def on_certify_request_batch(self, msg: CertifyRequestBatch, sender: str) -> None:
        for request in msg.requests:
            self.on_certify_request(request, sender)

    def _reply(self, client: str, reply: TxnDecision) -> None:
        if self._batching:
            self._reply_batcher.add(client, reply)
        else:
            self.send(client, reply)

    def certify(self, txn: TxnId, payload: Any) -> _BaselineTxn:
        shards = self.directory.shards_of(txn)
        entry = _BaselineTxn(
            txn=txn, payload=payload, shards=frozenset(shards), started_at=self.now
        )
        self.transactions[txn] = entry
        if (
            not self.pipeline_commits
            and self._unpersisted
            and txn not in self._unpersisted
            and txn not in self._held_txns
        ):
            # Stop-and-wait: hold prepares until the in-flight transaction
            # is durable on every shard.
            self._held_txns.add(txn)
            self._held_certifies.append((txn, payload))
            return entry
        self._dispatch_prepares(entry, payload)
        return entry

    def _dispatch_prepares(self, entry: _BaselineTxn, payload: Any) -> None:
        txn = entry.txn
        shards = entry.shards
        if not self.pipeline_commits and shards:
            self._unpersisted.add(txn)
        # Sorted for hash-seed-independent send order (random latency
        # models draw one delay per send, so iteration order matters).
        for shard in sorted(shards):
            command = PrepareCommand(txn=txn, payload=self.scheme.project(payload, shard))
            self._send_command(txn, shard, "prepare", command)
        if not shards:
            # No shard needs to vote: commit trivially and report back.
            entry.decision = Decision.COMMIT
            entry.decided_at = entry.durable_at = self.now
            if self.directory.known(txn):
                self._reply(self.directory.client_of(txn), TxnDecision(txn, Decision.COMMIT))

    def _drain_held_certifies(self) -> None:
        while self._held_certifies and not self._unpersisted:
            txn, payload = self._held_certifies.popleft()
            self._held_txns.discard(txn)
            entry = self.transactions.get(txn)
            if entry is None or entry.decision is not None:
                continue
            self._dispatch_prepares(entry, payload)

    def _send_command(self, txn: TxnId, shard: ShardId, kind: str, command: Any) -> None:
        if self._batching:
            self._command_batcher.add(self.shard_leaders[shard], (txn, shard, kind, command))
            return
        if kind == "prepare":
            entry = self.transactions.get(txn)
            if entry is not None:
                entry.dispatched_at = self.now
        self._next_request += 1
        self._requests[self._next_request] = (txn, shard, kind)
        self.send(self.shard_leaders[shard], RsmCommand(command=command, request_id=self._next_request))

    def _wrap_commands(self, items: Tuple[Tuple[TxnId, ShardId, str, Any], ...]) -> RsmCommand:
        """Flush hook: mint one replicated command for the whole batch and
        remember the per-element descriptors for response dispatch."""
        self._next_request += 1
        self._requests[self._next_request] = [item[:3] for item in items]
        return RsmCommand(
            command=CommandBatch(commands=tuple(item[3] for item in items)),
            request_id=self._next_request,
        )

    def _note_commands_flushed(self, dst: str, items: Tuple) -> None:
        for txn, _shard, kind, _command in items:
            if kind != "prepare":
                continue
            entry = self.transactions.get(txn)
            if entry is not None:
                entry.dispatched_at = self.now

    # ------------------------------------------------------------------
    # responses from the shard state machines
    # ------------------------------------------------------------------
    def on_rsm_response(self, msg: RsmResponse, sender: str) -> None:
        request = self._requests.pop(msg.request_id, None)
        if request is None:
            return
        if isinstance(request, list):
            # A batched command: the result vector is in batch order.
            for (txn, shard, kind), result in zip(request, msg.result):
                self._apply_response(txn, shard, kind, result)
            return
        txn, shard, kind = request
        self._apply_response(txn, shard, kind, msg.result)

    def _apply_response(self, txn: TxnId, shard: ShardId, kind: str, result: Any) -> None:
        entry = self.transactions.get(txn)
        if entry is None:
            return
        if kind == "prepare":
            entry.votes[shard] = result
            if entry.decision is None and set(entry.votes) == set(entry.shards):
                self._decide(entry)
        elif kind == "decide":
            entry.durable_shards.add(shard)
            if entry.durable_shards == set(entry.shards) and entry.durable_at is None:
                entry.durable_at = self.now
                if self.directory.known(txn):
                    client = self.directory.client_of(txn)
                    self._reply(client, TxnDecision(txn=txn, decision=entry.decision))
                if not self.pipeline_commits:
                    self._unpersisted.discard(txn)
                    self._drain_held_certifies()

    def _decide(self, entry: _BaselineTxn) -> None:
        entry.vote_complete_at = self.now
        decision = Decision.meet_all(entry.votes[s] for s in entry.shards)
        entry.decision = decision
        entry.decided_at = self.now
        # Sorted for hash-seed-independent send order (see `certify`).
        for shard in sorted(entry.shards):
            self._send_command(entry.txn, shard, "decide", DecideCommand(entry.txn, decision))
