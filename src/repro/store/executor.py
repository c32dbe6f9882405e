"""Optimistic transaction execution on top of the TCS.

The execution model is the one assumed by the paper (Section 2): a
transaction is first executed speculatively against the committed state,
producing a payload ``⟨R, W, Vc⟩``; the payload is submitted to the TCS for
certification; if the TCS commits it, its writes are applied to the store at
the commit version.  Because payloads only ever read committed versions, a
history that is correct with respect to the serializability certification
function yields a serializable store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.serializability import (
    ObjectId,
    TransactionPayload,
    Version,
    version_after,
)
from repro.core.types import Decision, TxnId
from repro.spec.history import HistorySubscription
from repro.store.kv import VersionedKVStore


class TransactionContext:
    """Buffered reads and writes of one speculative transaction execution."""

    def __init__(self, store: VersionedKVStore, name: str = "") -> None:
        self._store = store
        self.name = name
        self._reads: Dict[ObjectId, Version] = {}
        self._read_values: Dict[ObjectId, Any] = {}
        self._writes: Dict[ObjectId, Any] = {}

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, obj: ObjectId) -> Any:
        """Read the latest committed value of ``obj`` (or a buffered write)."""
        if obj in self._writes:
            return self._writes[obj]
        if obj not in self._reads:
            versioned = self._store.read(obj)
            self._reads[obj] = versioned.version
            self._read_values[obj] = versioned.value
        return self._read_values[obj]

    def write(self, obj: ObjectId, value: Any) -> None:
        """Buffer a write; the object is read first if it has not been yet,
        because the payload model requires every written object to be read."""
        if obj not in self._reads:
            self.read(obj)
        self._writes[obj] = value

    def increment(self, obj: ObjectId, delta: float = 1) -> Any:
        current = self.read(obj) or 0
        updated = current + delta
        self.write(obj, updated)
        return updated

    # ------------------------------------------------------------------
    # payload construction
    # ------------------------------------------------------------------
    @property
    def read_set(self) -> Dict[ObjectId, Version]:
        return dict(self._reads)

    @property
    def write_set(self) -> Dict[ObjectId, Any]:
        return dict(self._writes)

    def payload(self, tiebreak: str = "") -> TransactionPayload:
        # Dict keys are distinct, so sorting the items compares object ids
        # only: the payload's canonical tuples.
        reads = tuple(sorted(self._reads.items()))
        writes = tuple(sorted(self._writes.items()))
        commit_version = version_after(self._reads.values(), tiebreak or self.name)
        return TransactionPayload(
            read_set=reads, write_set=writes, commit_version=commit_version
        )


@dataclass(slots=True)
class TransactionOutcome:
    """Result of running one transaction through the store."""

    txn: TxnId
    decision: Decision
    payload: TransactionPayload
    result: Any = None

    @property
    def committed(self) -> bool:
        return self.decision is Decision.COMMIT


class TransactionalStore:
    """Couples a :class:`VersionedKVStore` with a TCS cluster: any binding of
    :class:`repro.cluster.ClusterBase`, whose driver API (``submit`` /
    ``run_until_decided`` / ``decision_of``), read policy and
    ``SNAPSHOT_READS`` constant are all it uses.
    """

    def __init__(
        self,
        cluster,
        initial: Optional[Dict[ObjectId, Any]] = None,
        store: Optional[VersionedKVStore] = None,
    ) -> None:
        self.cluster = cluster
        self.store = store or VersionedKVStore(initial=initial)
        # Decided transactions, counted: the outcomes themselves go back to
        # the caller (``transact`` / ``run_batch`` / ``on_decided``).
        self.committed_count = 0
        self.aborted_count = 0
        self._txn_counter = 0
        # Asynchronously submitted transactions awaiting their decision.
        self._pending: Dict[TxnId, tuple] = {}
        # The history subscription that finalizes them, made on first use.
        self._subscription: Optional[HistorySubscription] = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, obj: ObjectId) -> Any:
        return self.store.value_of(obj)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def _next_name(self) -> str:
        self._txn_counter += 1
        return f"store-txn-{self._txn_counter}"

    def execute(self, body: Callable[[TransactionContext], Any], name: str = "") -> TransactionContext:
        """Run the speculative phase only; returns the populated context."""
        context = TransactionContext(self.store, name=name or self._next_name())
        context.result = body(context)  # type: ignore[attr-defined]
        return context

    def transact(self, body: Callable[[TransactionContext], Any]) -> TransactionOutcome:
        """Execute, certify and (on commit) apply one transaction."""
        context = self.execute(body)
        payload = context.payload()
        txn = self.cluster.submit(payload)
        if not self.cluster.run_until_decided([txn]):
            raise RuntimeError(f"transaction {txn} was not decided")
        return self._finalize(txn, self.cluster.decision_of(txn), context, payload)

    def _finalize(
        self,
        txn: TxnId,
        decision: Decision,
        context: TransactionContext,
        payload: TransactionPayload,
    ) -> TransactionOutcome:
        """Record the outcome of a decided transaction and apply its writes."""
        outcome = TransactionOutcome(
            txn=txn,
            decision=decision,
            payload=payload,
            result=getattr(context, "result", None),
        )
        if decision is Decision.COMMIT:
            self.committed_count += 1
            if payload.write_set:
                self.store.apply_payload(payload)
        else:
            self.aborted_count += 1
        return outcome

    def submit_async(
        self,
        body: Callable[[TransactionContext], Any],
        on_decided: Optional[Callable[[TransactionOutcome], None]] = None,
    ) -> TxnId:
        """Execute speculatively and submit without driving the simulation.

        The transaction is finalized (writes applied, outcome counted,
        ``on_decided`` called) from the history's decide event — the hook
        closed-loop clients use to overlap think times with certification.
        The caller is responsible for running the scheduler.
        """
        context = self.execute(body)
        payload = context.payload()
        txn = self.cluster.submit(payload)
        self._pending[txn] = (context, payload, on_decided)
        if self._subscription is None:
            self._subscription = self.cluster.history.subscribe(
                on_decide=self._on_history_decide
            )
        return txn

    def _on_history_decide(
        self, txn: TxnId, decision: Decision, _payload: Any, _time: float
    ) -> None:
        entry = self._pending.pop(txn, None)
        if entry is None:
            return
        context, payload, on_decided = entry
        outcome = self._finalize(txn, decision, context, payload)
        if on_decided is not None:
            on_decided(outcome)

    def submit_read_async(
        self,
        objects: Sequence[ObjectId],
        on_decided: Optional[Callable[[TransactionOutcome], None]] = None,
    ) -> TxnId:
        """Submit a read-only transaction, taking the snapshot-read fast
        path when the cluster runs an enabled read policy and the objects
        live on a single shard; multi-shard reads (and the baseline, which
        has no fast path) certify a read-only payload like any other
        transaction.  The speculative read against the client store doubles
        as the certified-path fallback payload."""
        objects = sorted(objects)
        context = TransactionContext(self.store, name=self._next_name())
        for obj in objects:
            context.read(obj)
        payload = context.payload()
        cluster = self.cluster
        txn = None
        if cluster.SNAPSHOT_READS and cluster.read.enabled:
            txn = cluster._try_submit_read(objects, payload)
        if txn is None:
            txn = cluster.submit(payload)
        self._pending[txn] = (context, payload, on_decided)
        if self._subscription is None:
            self._subscription = self.cluster.history.subscribe(
                on_decide=self._on_history_decide
            )
        return txn

    def run_batch(
        self,
        bodies: Sequence[Callable[[TransactionContext], Any]],
    ) -> List[TransactionOutcome]:
        """Execute a batch of transactions against the same snapshot and
        certify them concurrently (this is where conflicts arise)."""
        contexts = [self.execute(body) for body in bodies]
        payloads = [context.payload() for context in contexts]
        txns = [self.cluster.submit(payload) for payload in payloads]
        self.cluster.run_until_decided(txns)
        return [
            self._finalize(txn, self.cluster.decision_of(txn), context, payload)
            for context, payload, txn in zip(contexts, payloads, txns)
        ]
