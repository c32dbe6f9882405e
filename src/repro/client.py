"""Client processes and resilient client sessions.

A client owns the ``certify``/``decide`` interface of the TCS (Section 2):
it registers the transaction's static metadata (``client(t)``, ``shards(t)``)
in the :class:`~repro.core.directory.TransactionDirectory`, records the
``certify`` event into the shared :class:`~repro.spec.history.History`,
sends the request to a replica acting as coordinator, and records the
``decide`` event when the decision message arrives.

The paper's protocol keeps certification alive across replica failures and
reconfigurations, but it says nothing about the *client* side: a certify
request in flight to a crashed coordinator is simply lost.  The session
layer here closes that gap the way production distributed-KV clients do:

* a :class:`CoordinatorRouter` is the client-side routing table — members
  and leaders per shard, updated from ``CONFIG_CHANGE`` pushes (clients
  subscribe to the configuration service) and from ``get_last`` re-reads
  triggered by timeouts.  Its :meth:`~CoordinatorRouter.choose` is the one
  rotation-or-sticky rule every submission path of a cluster goes through;
  the 2PC-over-Paxos baseline uses the same class over a single
  pseudo-shard holding its dedicated coordinators;
* a :class:`ClientSession` owns one client's submissions: it picks the
  coordinator, arms a timeout per in-flight transaction, and on expiry
  re-submits — with exponential backoff, failing over to a coordinator it
  has not tried yet — until the decision arrives or
  :attr:`RetryPolicy.max_attempts` is exhausted (the transaction is then
  *orphaned* and counted as such);
* re-submissions reuse the transaction id, so delivery is idempotent:
  coordinators and replicas deduplicate on the id and re-answer from their
  decision caches (see ``on_certify_request`` in the replica modules), which
  preserves the TCS decision-uniqueness property under duplicates.

With protocol-level batching enabled (:mod:`repro.core.batching`) the
session machinery is unchanged but rides a *batched transport*: submissions
to the same coordinator coalesce into one ``Batch`` envelope and decisions
return in envelopes too.  Retry semantics stay
per-transaction — each submission arms its own timeout when it is handed to
the transport (so client-side queueing counts against the timeout, as it
should), and a re-submission simply joins whatever batch its possibly
different coordinator is currently filling, where the id-based dedup
answers it like any other duplicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.batching import BatchPolicy, MessageBatcher
from repro.core.certification import CertificationScheme
from repro.core.directory import TransactionDirectory
from repro.core.messages import (
    CertifyRequest,
    ConfigChange,
    CsGetLast,
    CsReply,
    ReadReply,
    ReadRequest,
    TxnDecision,
)
from repro.core.serializability import SnapshotRead, TransactionPayload
from repro.core.types import Configuration, Decision, ShardId, TxnId
from repro.runtime.process import Process
from repro.spec.history import History


@dataclass(frozen=True)
class RetryPolicy:
    """Client-session re-submission policy — the value a scenario's
    ``retry`` field holds and the cluster receives
    (``repro.scenarios.RetrySpec`` is this class).

    With ``timeout > 0`` every client drives its transactions through a
    session: a transaction still undecided ``timeout`` message delays after
    submission is re-submitted — failing over to a coordinator not yet tried
    and refreshing the client's configuration view from the configuration
    service — with the wait multiplied by ``backoff`` per attempt, up to
    ``max_attempts`` total submissions (then the transaction counts as
    *orphaned*).  Re-submissions reuse the transaction id; coordinators
    deduplicate and re-answer decided transactions from their decision
    caches, so duplicates can never yield two different decisions.

    ``timeout = 0`` (the default) keeps the paper's fire-and-forget client.
    """

    timeout: float = 0.0
    backoff: float = 2.0
    max_attempts: int = 4

    def validate(self) -> None:
        if self.timeout < 0:
            raise ValueError("retry timeout must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("retry backoff must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("retry max_attempts must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.timeout > 0

    def describe(self) -> str:
        """A compact label for sweep tables and result dicts."""
        if not self.enabled:
            return "off"
        return (
            f"timeout={self.timeout:g},backoff={self.backoff:g},"
            f"max_attempts={self.max_attempts}"
        )

    def delay(self, attempt: int) -> float:
        """The timeout armed after submission ``attempt`` (1-based)."""
        return self.timeout * (self.backoff ** (attempt - 1))


class CoordinatorRouter:
    """Client-side view of the cluster topology used to pick coordinators.

    Mirrors the paper's Figure 2 placement: the coordinator of a transaction
    is preferably a member of a shard *not* involved in it.  The router is
    shared by every session of a cluster (one round-robin sequence), knows
    only what a real client could know — the bootstrap configurations plus
    whatever ``CONFIG_CHANGE`` pushes and ``get_last`` replies have taught
    it — and never peeks at live process state.
    """

    def __init__(self, view: Mapping[ShardId, Configuration], sticky: bool = False) -> None:
        # The configuration of every shard, written only by
        # ``note_config_change``.
        self.view: Dict[ShardId, Configuration] = dict(view)
        self.shards: List[ShardId] = list(view)
        # Sticky affinity: pin each involved-shard set to one coordinator so
        # its batches fill deeper; re-pins on failover (exclusion) and drops
        # pins to members removed by a configuration change.
        self.sticky = sticky
        self._pins: Dict[Tuple[ShardId, ...], str] = {}
        self._round_robin = 0
        self.config_updates = 0
        # Sessions register here to learn about accepted configuration
        # changes synchronously (push-driven failover: re-submit to a new
        # coordinator *before* the retry timer fires).
        self._listeners: List[Callable[[ShardId, frozenset, str], None]] = []

    def add_listener(self, fn: Callable[[ShardId, frozenset, str], None]) -> None:
        """Call ``fn(shard, removed_members, new_leader)`` whenever a newer
        configuration of ``shard`` is installed."""
        self._listeners.append(fn)

    def note_config_change(self, shard: ShardId, config: Configuration) -> None:
        """Install a newer configuration of ``shard``; one of an epoch the
        router already holds (a ``get_last`` re-read, a repeated push)
        changes nothing, and is not counted in ``config_updates``."""
        known = self.view[shard]
        if config.epoch <= known.epoch:
            return
        removed = frozenset(known.members) - frozenset(config.members)
        self.view[shard] = config
        if removed and self._pins:
            self._pins = {
                key: pid for key, pid in self._pins.items() if pid not in removed
            }
        self.config_updates += 1
        for listener in self._listeners:
            listener(shard, removed, config.leader)

    def candidates(self, involved: Sequence[ShardId]) -> List[str]:
        """Coordinator candidates for a transaction over ``involved`` shards,
        preferring members of uninvolved shards (Figure 2)."""
        involved = sorted(involved) or self.shards[:1]
        uninvolved = [shard for shard in self.shards if shard not in involved]
        out: List[str] = []
        for shard in uninvolved or involved:
            out.extend(self.view[shard].members)
        return out

    def pick(self, involved: Sequence[ShardId], exclude: Sequence[str] = ()) -> str:
        """Round-robin over the candidates, skipping already-tried ones.

        When every candidate has been tried the exclusion is dropped — with
        nothing fresh left, re-trying a previous coordinator (which may have
        merely been slow) beats giving up.
        """
        candidates = self.candidates(involved)
        fresh = [pid for pid in candidates if pid not in exclude]
        return self.choose(tuple(sorted(involved)), fresh or candidates)

    def choose(self, key: Tuple[ShardId, ...], pool: Sequence[str]) -> str:
        """The cluster's one routing rule: the next of ``pool`` in rotation,
        or under sticky affinity the coordinator pinned to ``key`` (the
        sorted involved-shard set) for as long as it stays in the pool.

        :meth:`pick` applies it to the client-side candidates; the clusters'
        no-retry submission path applies it to its own pool, so both share
        one rotation and one set of pins.
        """
        if self.sticky:
            pinned = self._pins.get(key)
            if pinned is not None and pinned in pool:
                return pinned
            self._round_robin += 1
            pinned = pool[self._round_robin % len(pool)]
            self._pins[key] = pinned
            return pinned
        self._round_robin += 1
        return pool[self._round_robin % len(pool)]


@dataclass
class _SnapshotReadState:
    """Client-side state of one in-flight snapshot read."""

    shard: ShardId
    # Certified-path insurance: the read-only payload to certify if the
    # leader refuses the fast path, and a thunk picking the coordinator to
    # send it to.  The pick is deferred to refusal time — the common case
    # never pays for it, and a late pick sees the current crash state.
    fallback_payload: TransactionPayload
    pick_fallback_coordinator: Callable[[], str]


@dataclass
class _Submission:
    """Per-transaction state machine of one session submission."""

    txn: TxnId
    payload: Any
    involved: Tuple[ShardId, ...]
    attempts: int = 1
    tried: List[str] = field(default_factory=list)
    timer: Any = None


class ClientSession:
    """Owns one client's submissions: coordinator selection, timeout-driven
    re-submission with backoff and failover, and retry accounting.

    With a disabled policy (``timeout == 0``) the session still routes
    submissions through the router but never re-submits — behaviourally the
    old fire-and-forget client, plus the shared round-robin.
    """

    def __init__(
        self,
        client: "Client",
        router: CoordinatorRouter,
        scheme: CertificationScheme,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.client = client
        self.router = router
        self.scheme = scheme
        self.policy = policy or RetryPolicy()
        self._inflight: Dict[TxnId, _Submission] = {}
        self.retries = 0  # re-submissions (any coordinator)
        self.failovers = 0  # re-submissions that switched coordinator
        self.pushed_failovers = 0  # failovers driven by CONFIG_CHANGE pushes
        self.config_refreshes = 0  # get_last re-reads triggered by timeouts
        self.orphaned: List[TxnId] = []  # gave up after max_attempts
        self._last_refresh_at = float("-inf")
        client.router = router
        client.add_decision_callback(self._on_decided)
        if self.policy.enabled:
            router.add_listener(self._on_config_push)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        payload: Any,
        coordinator: Optional[str] = None,
        txn: Optional[TxnId] = None,
    ) -> TxnId:
        involved = tuple(sorted(self.scheme.shards_of(payload)))
        coordinator = coordinator or self.router.pick(involved)
        txn = self.client.submit(payload, coordinator=coordinator, txn=txn)
        if self.policy.enabled:
            state = _Submission(
                txn=txn, payload=payload, involved=involved, tried=[coordinator]
            )
            self._inflight[txn] = state
            self._arm(state)
        return txn

    def _arm(self, state: _Submission) -> None:
        # Scheduled directly (not via Process.set_timer): this is the per-
        # transaction hot path, and _on_timeout is already a no-op once the
        # transaction is decided or the client is gone.
        state.timer = self.client.scheduler.schedule(
            self.policy.delay(state.attempts), self._on_timeout, state.txn
        )

    # ------------------------------------------------------------------
    # timeout-driven re-submission
    # ------------------------------------------------------------------
    def _on_timeout(self, txn: TxnId) -> None:
        state = self._inflight.get(txn)
        if state is None:  # decided (or already orphaned) in the meantime
            return
        if state.attempts >= self.policy.max_attempts:
            del self._inflight[txn]
            self.orphaned.append(txn)
            return
        # The coordinator may be slow *or* the configuration may have moved:
        # refresh the router's whole view from the configuration service
        # (coordinator candidates come from *uninvolved* shards, so involved
        # shards alone would miss them; replies benefit subsequent picks)
        # and fail over to an untried coordinator.  At most one refresh per
        # *current* backoff window — many transactions timing out together
        # must not multiply the config-service traffic, and a late-attempt
        # timeout whose window is `delay(attempts)` long must not re-read
        # more often than once per such window (throttling by the base
        # timeout under-throttled every backed-off attempt).
        now = self.client.now
        if (
            now - self._last_refresh_at >= self.policy.delay(state.attempts)
            and self.client.refresh_configurations(self.router.shards)
        ):
            self._last_refresh_at = now
            self.config_refreshes += 1
        previous = state.tried[-1]
        coordinator = self.router.pick(state.involved, exclude=tuple(state.tried))
        state.attempts += 1
        state.tried.append(coordinator)
        self.retries += 1
        if coordinator != previous:
            self.failovers += 1
        self.client.resubmit(txn, state.payload, coordinator, request_id=state.attempts)
        self._arm(state)

    # ------------------------------------------------------------------
    # push-driven failover (unsolicited view changes)
    # ------------------------------------------------------------------
    def _on_config_push(self, shard: ShardId, removed: frozenset, leader: str) -> None:
        """The router accepted a newer configuration of ``shard``: fail over
        any in-flight transaction whose current coordinator was removed,
        without waiting for its (possibly heavily backed-off) retry timer.

        The deposed process may merely have been partitioned, so the
        transaction id-based dedup still protects against double answers;
        re-submitting immediately just converts the rest of the timeout
        window into saved latency.
        """
        if not removed:
            return
        for txn in list(self._inflight):
            state = self._inflight.get(txn)
            if state is None or not state.tried or state.tried[-1] not in removed:
                continue
            if state.attempts >= self.policy.max_attempts:
                continue  # the armed timer will orphan it on expiry
            if state.timer is not None:
                state.timer.cancel()
            coordinator = self.router.pick(state.involved, exclude=tuple(state.tried))
            state.attempts += 1
            state.tried.append(coordinator)
            self.retries += 1
            self.failovers += 1
            self.pushed_failovers += 1
            self.client.resubmit(
                txn, state.payload, coordinator, request_id=state.attempts
            )
            self._arm(state)

    def _on_decided(self, txn: TxnId, decision: Decision) -> None:
        state = self._inflight.pop(txn, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()
        elif state is None and txn in self.orphaned:
            # The final attempt's decision arrived after the session had
            # already given the transaction up (a heavy-tail straggler):
            # nothing was lost, so it must not count as orphaned.
            self.orphaned.remove(txn)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return len(self._inflight)


class Client(Process):
    """A TCS client."""

    def __init__(
        self,
        pid: str,
        scheme: CertificationScheme,
        directory: TransactionDirectory,
        history: History,
        config_service: Optional[str] = None,
        batch: Optional[BatchPolicy] = None,
    ) -> None:
        super().__init__(pid)
        self.scheme = scheme
        self.directory = directory
        self.history = history
        self.config_service = config_service
        # Batched transport: with an enabled policy, CERTIFY requests to the
        # same coordinator coalesce into one envelope.  The per-transaction
        # session machinery (timeout timers, retry accounting, dedup on the
        # transaction id) is untouched — a retry simply rides whatever batch
        # its (possibly different) coordinator is currently filling.
        self.batch_policy = batch or BatchPolicy()
        self._request_batcher = MessageBatcher(self, self.batch_policy)
        self.batchers = [self._request_batcher]
        # True when the configuration service stores one system-wide record
        # (the RDMA protocol): a single get_last then covers every shard.
        self.global_config_service = False
        self.router: Optional[CoordinatorRouter] = None
        # A transaction's decision is kept once, by the history; its key in
        # ``decide_times`` says that the decision reached this client.
        self.submit_times: Dict[TxnId, float] = {}
        self.decide_times: Dict[TxnId, float] = {}
        self.resubmissions = 0
        self.duplicate_decisions = 0
        # Snapshot-read fast path: in-flight reads and fast-path/fallback
        # accounting.  A served read's values go to the history only, as
        # its decide payload's versions.
        self._read_states: Dict[TxnId, _SnapshotReadState] = {}
        # One certify-time marker per objects tuple, shared by every read of
        # those objects (a client reads few distinct tuples).
        self._read_markers: Dict[Tuple[str, ...], SnapshotRead] = {}
        # Fallback read-only payloads awaiting their certified decision;
        # attached to the decide event when the TxnDecision arrives.
        self._read_payloads: Dict[TxnId, TransactionPayload] = {}
        self.reads_served = 0
        self.read_fallbacks = 0
        self.read_fallback_reasons: Dict[str, int] = {}
        self._txn_counter = 0
        self._cs_request_id = 0
        self._cs_pending: Dict[int, ShardId] = {}
        # Completion callbacks, fired once per transaction when its decision
        # first reaches this client.  (History-wide waiting uses
        # History.subscribe; these per-client hooks are for
        # closed-loop drivers and sessions that react to their own
        # completions.)
        self._decision_callbacks: list = []

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def next_txn_id(self) -> TxnId:
        self._txn_counter += 1
        return f"{self.pid}/t{self._txn_counter}"

    def submit(self, payload: Any, coordinator: str, txn: Optional[TxnId] = None) -> TxnId:
        """``certify(t, l)``: submit a transaction to a coordinator replica."""
        txn = txn or self.next_txn_id()
        shards = self.scheme.shards_of(payload)
        self.directory.register(txn, client=self.pid, shards=shards)
        self.history.record_certify(txn, payload, self.now)
        self.submit_times[txn] = self.now
        self._request_batcher.add(coordinator, CertifyRequest(txn=txn, payload=payload))
        return txn

    def submit_read(
        self,
        objects: Sequence[str],
        shard: ShardId,
        leader: str,
        fallback_payload: TransactionPayload,
        pick_fallback_coordinator: Callable[[], str],
        txn: Optional[TxnId] = None,
    ) -> TxnId:
        """Submit a single-shard read-only transaction on the snapshot-read
        fast path: straight to the shard leader, no coordinator, no
        certification.

        The history records ``certify`` now with a :class:`SnapshotRead`
        marker (pinning the transaction's real-time birth to its
        invocation); the versioned read-only payload is attached to the
        ``decide`` event once it is known.  ``fallback_payload`` (the reads
        at the client's current committed versions) and
        ``pick_fallback_coordinator`` are the certified-path insurance used
        when the leader refuses (lease lapse, pending writer, deposed
        leader); the coordinator pick, and the directory entry the certified
        path reads, only happen on refusal.
        """
        txn = txn or self.next_txn_id()
        objects = tuple(sorted(objects))
        marker = self._read_markers.get(objects)
        if marker is None:
            marker = self._read_markers[objects] = SnapshotRead(objects=objects)
        self.history.record_certify(txn, marker, self.now)
        self.submit_times[txn] = self.now
        self._read_states[txn] = _SnapshotReadState(
            shard=shard,
            fallback_payload=fallback_payload,
            pick_fallback_coordinator=pick_fallback_coordinator,
        )
        self.send(leader, ReadRequest(txn=txn, objects=marker.objects))
        return txn

    def on_read_reply(self, msg: ReadReply, sender: str) -> None:
        state = self._read_states.pop(msg.txn, None)
        if state is None:
            return
        if msg.ok:
            self.reads_served += 1
            payload = TransactionPayload.make(
                reads=((obj, version) for obj, _value, version in msg.reads),
                tiebreak=msg.txn,
            )
            self.history.record_decide(
                msg.txn, Decision.COMMIT, self.now, payload=payload
            )
            if msg.txn not in self.decide_times:
                self.decide_times[msg.txn] = self.now
                for callback in self._decision_callbacks:
                    callback(msg.txn, Decision.COMMIT)
            return
        # Refused fast path: certify the read-only payload instead.  The
        # certify event exists from submit_read, so the directory entry the
        # coordinator reads and the request go out; the decide event will
        # carry the fallback payload.
        self.read_fallbacks += 1
        self.read_fallback_reasons[msg.reason] = (
            self.read_fallback_reasons.get(msg.reason, 0) + 1
        )
        coordinator = state.pick_fallback_coordinator()
        self.directory.register(msg.txn, client=self.pid, shards=(state.shard,))
        self._read_payloads[msg.txn] = state.fallback_payload
        self._request_batcher.add(
            coordinator,
            CertifyRequest(txn=msg.txn, payload=state.fallback_payload),
        )

    def resubmit(
        self, txn: TxnId, payload: Any, coordinator: str, request_id: int
    ) -> None:
        """Re-send an already-certified transaction to a (possibly different)
        coordinator.  The history's certify event and the directory entry
        exist from the first submission; only the request goes out again."""
        self.resubmissions += 1
        self._request_batcher.add(
            coordinator,
            CertifyRequest(txn=txn, payload=payload, request_id=request_id),
        )

    # ------------------------------------------------------------------
    # configuration knowledge (session routing support)
    # ------------------------------------------------------------------
    def refresh_configurations(self, shards: Sequence[ShardId]) -> bool:
        """Re-read the latest configuration of the given shards from the
        configuration service; replies update the router asynchronously.
        Returns False when no configuration service is wired (baseline)."""
        if self.config_service is None:
            return False
        if self.global_config_service:
            # One reply carries every shard's configuration.
            shards = tuple(shards)[:1]
        for shard in shards:
            self._cs_request_id += 1
            self._cs_pending[self._cs_request_id] = shard
            self.send(
                self.config_service,
                CsGetLast(shard=shard, request_id=self._cs_request_id),
            )
        return True

    def on_cs_reply(self, msg: CsReply, sender: str) -> None:
        asked = self._cs_pending.pop(msg.request_id, None)
        if not msg.ok or msg.config is None or self.router is None or asked is None:
            return
        # One shard's record, or a system-wide one covering every shard.
        for shard, config in sorted(msg.config.by_shard(asked).items()):
            self.router.note_config_change(shard, config)

    def on_config_change(self, msg: ConfigChange, sender: str) -> None:
        """``CONFIG_CHANGE`` pushed by the configuration service (clients
        subscribe when sessions are enabled)."""
        if self.router is not None:
            self.router.note_config_change(
                msg.shard, Configuration(msg.epoch, tuple(msg.members), msg.leader)
            )

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def add_decision_callback(self, fn) -> None:
        """Call ``fn(txn, decision)`` when a transaction of this client is
        first decided."""
        self._decision_callbacks.append(fn)

    def on_txn_decision(self, msg: TxnDecision, sender: str) -> None:
        self.history.record_decide(
            msg.txn,
            msg.decision,
            self.now,
            payload=self._read_payloads.pop(msg.txn, None),
        )
        if msg.txn not in self.decide_times:
            self.decide_times[msg.txn] = self.now
            for callback in self._decision_callbacks:
                callback(msg.txn, msg.decision)
        else:
            # A re-answered duplicate (or a second coordinator reporting the
            # same decision); the history has already deduplicated it.
            self.duplicate_decisions += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def decision_of(self, txn: TxnId) -> Optional[Decision]:
        if txn not in self.decide_times:
            return None
        return self.history.decision_of(txn)

    def latency_of(self, txn: TxnId) -> Optional[float]:
        """Client-observed latency: submission to decision receipt."""
        if txn not in self.decide_times:
            return None
        return self.decide_times[txn] - self.submit_times[txn]

    @property
    def pending(self) -> set:
        return set(self.submit_times) - set(self.decide_times)
