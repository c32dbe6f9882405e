"""The cluster's TCS client, with resilient submission.

A client owns the ``certify``/``decide`` interface of the TCS (Section 2):
it registers the transaction's static metadata (``client(t)``, ``shards(t)``)
in the :class:`~repro.core.directory.TransactionDirectory`, records the
``certify`` event into the shared :class:`~repro.spec.history.History`,
sends the request to a replica acting as coordinator, and records the
``decide`` event when the decision message arrives.

The paper's protocol keeps certification alive across replica failures and
reconfigurations, but it says nothing about the *client* side: a certify
request in flight to a crashed coordinator is simply lost.  The client
closes that gap the way production distributed-KV clients do:

* a :class:`CoordinatorRouter` is the client-side routing table — members
  and leaders per shard, updated from ``CONFIG_CHANGE`` pushes (the client
  subscribes to the configuration service) and from ``get_last`` re-reads
  triggered by timeouts.  Its :meth:`~CoordinatorRouter.choose` is the one
  rotation-or-sticky rule every submission path of a cluster goes through;
  the 2PC-over-Paxos baseline uses the same class over a single
  pseudo-shard holding its dedicated coordinators;
* under an enabled :class:`RetryPolicy` the :class:`Client` arms a timeout
  per in-flight transaction, and on expiry re-submits — with exponential
  backoff, failing over to a coordinator it has not tried yet — until the
  decision arrives or :attr:`RetryPolicy.max_attempts` is exhausted (the
  transaction is then *orphaned* and counted as such);
* re-submissions reuse the transaction id, so delivery is idempotent:
  coordinators and replicas deduplicate on the id and re-answer from their
  decision caches (see ``on_certify_request`` in the replica modules), which
  preserves the TCS decision-uniqueness property under duplicates.

With protocol-level batching enabled (:mod:`repro.core.batching`) the
retry machinery is unchanged but rides a *batched transport*: submissions
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
    """Client re-submission policy — the value a scenario's
    ``retry`` field holds and the cluster receives
    (``repro.scenarios.RetrySpec`` is this class).

    With ``timeout > 0`` a transaction still undecided ``timeout`` message
    delays after submission is re-submitted — failing over to a coordinator not yet tried
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
    the cluster's one round-robin sequence, knows
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
        # The client registers here to learn about accepted configuration
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
        live pick (no retry policy) applies it to its own pool, so both
        share one rotation and one set of pins.
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
    # The leader the read was sent to: a pushed configuration of ``shard``
    # that removes it fails the read over at once.
    leader: str
    # Certified-path insurance: the read-only payload to certify if the
    # leader refuses the fast path or, under a retry policy, does not
    # answer in time or is removed.
    fallback_payload: TransactionPayload
    timer: Any = None


@dataclass
class _Submission:
    """Per-transaction retry state machine of one tracked submission."""

    txn: TxnId
    payload: Any
    involved: Any  # the transaction's shards, as ``shards_of`` gave them
    attempts: int = 1
    tried: List[str] = field(default_factory=list)
    timer: Any = None


class Client(Process):
    """The cluster's TCS client: ``certify`` / ``decide`` over the
    transaction directory and the history, coordinator routing through the
    router, timeout-driven re-submission with backoff and failover, and the
    snapshot-read fast path.

    ``pick(involved)`` names the coordinator of a submission over the
    ``involved`` shards; the cluster chooses it once, from the retry
    policy: the router's :meth:`~CoordinatorRouter.pick` under an enabled
    policy, otherwise the binding's live pick.  With a disabled policy
    (``timeout == 0``) nothing is re-submitted: the paper's
    fire-and-forget client.
    """

    def __init__(
        self,
        pid: str,
        scheme: CertificationScheme,
        directory: TransactionDirectory,
        history: History,
        router: CoordinatorRouter,
        pick: Callable[[Any], str],
        retry: Optional[RetryPolicy] = None,
        config_service: Optional[str] = None,
        batch: Optional[BatchPolicy] = None,
    ) -> None:
        super().__init__(pid)
        self.scheme = scheme
        self.directory = directory
        self.history = history
        self.router = router
        self._pick = pick
        self.retry = retry or RetryPolicy()
        self.config_service = config_service
        # Batched transport: with an enabled policy, CERTIFY requests to the
        # same coordinator coalesce into one envelope.  The per-transaction
        # retry machinery (timeout timers, retry accounting, dedup on the
        # transaction id) is untouched — a retry simply rides whatever batch
        # its (possibly different) coordinator is currently filling.
        self.batch_policy = batch or BatchPolicy()
        self._request_batcher = MessageBatcher(self, self.batch_policy)
        self.batchers = [self._request_batcher]
        # True when the configuration service stores one system-wide record
        # (the RDMA protocol): a single get_last then covers every shard.
        self.global_config_service = False
        # A transaction's decision is kept once, by the history; its key in
        # ``decide_times`` says that the decision reached this client.
        self.submit_times: Dict[TxnId, float] = {}
        self.decide_times: Dict[TxnId, float] = {}
        self.duplicate_decisions = 0
        # Retry state: the tracked submissions still undecided, and the
        # accounting ``retry_stats`` reports.
        self._inflight: Dict[TxnId, _Submission] = {}
        self.retries = 0  # re-submissions (any coordinator)
        self.failovers = 0  # re-submissions that switched coordinator
        self.pushed_failovers = 0  # failovers driven by CONFIG_CHANGE pushes
        self.config_refreshes = 0  # get_last re-reads triggered by timeouts
        self.orphaned: List[TxnId] = []  # gave up after max_attempts
        self._last_refresh_at = float("-inf")
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
        if self.retry.enabled:
            router.add_listener(self._on_config_push)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def next_txn_id(self) -> TxnId:
        self._txn_counter += 1
        return f"{self.pid}/t{self._txn_counter}"

    def submit(
        self, payload: Any, coordinator: Optional[str] = None, txn: Optional[TxnId] = None
    ) -> TxnId:
        """``certify(t, l)``: submit a transaction to a coordinator replica
        (``coordinator``, or the one ``pick`` names)."""
        txn = txn or self.next_txn_id()
        self.history.record_certify(txn, payload, self.now)
        self.submit_times[txn] = self.now
        self._certify(txn, payload, self.scheme.shards_of(payload), coordinator)
        return txn

    def _certify(
        self, txn: TxnId, payload: Any, shards: Any, coordinator: Optional[str] = None
    ) -> None:
        """The tracked submission path every certification takes, a
        fallback read's too: register ``shards(t)``, hand the request to
        the outbox and, under a retry policy, arm the transaction's timer.
        ``shards`` is resolved once, by the caller, for both the directory
        entry and the coordinator pick."""
        coordinator = coordinator or self._pick(shards)
        self.directory.register(txn, client=self.pid, shards=shards)
        self._request_batcher.add(coordinator, CertifyRequest(txn=txn, payload=payload))
        if self.retry.enabled:
            state = self._inflight[txn] = _Submission(
                txn=txn, payload=payload, involved=shards, tried=[coordinator]
            )
            self._arm(state)

    def _arm(self, state: _Submission) -> None:
        # Scheduled directly (not via Process.set_timer): this is the per-
        # transaction hot path, and _on_timeout is already a no-op once the
        # transaction is decided or the client is gone.
        state.timer = self.scheduler.schedule(
            self.retry.delay(state.attempts), self._on_timeout, state.txn
        )

    def _resubmit(self, state: _Submission, coordinator: str) -> None:
        """Re-send an already-certified transaction to ``coordinator``.  The
        history's certify event and the directory entry exist from the
        first submission; only the request goes out again, under the same
        transaction id."""
        state.attempts += 1
        state.tried.append(coordinator)
        self.retries += 1
        self._request_batcher.add(
            coordinator,
            CertifyRequest(txn=state.txn, payload=state.payload, request_id=state.attempts),
        )
        self._arm(state)

    # ------------------------------------------------------------------
    # timeout-driven re-submission
    # ------------------------------------------------------------------
    def _on_timeout(self, txn: TxnId) -> None:
        state = self._inflight.get(txn)
        if state is None:  # decided (or already orphaned) in the meantime
            return
        if state.attempts >= self.retry.max_attempts:
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
        now = self.now
        if (
            now - self._last_refresh_at >= self.retry.delay(state.attempts)
            and self.refresh_configurations(self.router.shards)
        ):
            self._last_refresh_at = now
            self.config_refreshes += 1
        coordinator = self.router.pick(state.involved, exclude=tuple(state.tried))
        if coordinator != state.tried[-1]:
            self.failovers += 1
        self._resubmit(state, coordinator)

    # ------------------------------------------------------------------
    # push-driven failover (unsolicited view changes)
    # ------------------------------------------------------------------
    def _on_config_push(self, shard: ShardId, removed: frozenset, leader: str) -> None:
        """The router accepted a newer configuration of ``shard``: fail over
        any in-flight transaction whose current coordinator was removed,
        without waiting for its (possibly heavily backed-off) retry timer,
        and certify any unanswered snapshot read of ``shard`` whose leader
        was removed (reason ``pushed``).

        The deposed process may merely have been partitioned, so the
        transaction id-based dedup still protects against double answers;
        re-submitting immediately just converts the rest of the timeout
        window into saved latency.
        """
        if not removed:
            return
        for txn in list(self._inflight):
            state = self._inflight.get(txn)
            if state is None or state.tried[-1] not in removed:
                continue
            if state.attempts >= self.retry.max_attempts:
                continue  # the armed timer will orphan it on expiry
            state.timer.cancel()
            coordinator = self.router.pick(state.involved, exclude=tuple(state.tried))
            self.failovers += 1
            self.pushed_failovers += 1
            self._resubmit(state, coordinator)
        for txn, read in list(self._read_states.items()):
            if read.shard == shard and read.leader in removed:
                del self._read_states[txn]
                read.timer.cancel()
                self._fall_back(txn, read, "pushed")

    # ------------------------------------------------------------------
    # snapshot-read fast path
    # ------------------------------------------------------------------
    def submit_read(
        self,
        objects: Sequence[str],
        shard: ShardId,
        leader: str,
        fallback_payload: TransactionPayload,
        txn: Optional[TxnId] = None,
    ) -> TxnId:
        """Submit a single-shard read-only transaction on the snapshot-read
        fast path: straight to the shard leader, no coordinator, no
        certification.

        The history records ``certify`` now with a :class:`SnapshotRead`
        marker (pinning the transaction's real-time birth to its
        invocation); the versioned read-only payload is attached to the
        ``decide`` event once it is known.  ``fallback_payload`` (the reads
        at the client's current committed versions) is the certified-path
        insurance used when the leader refuses (lease lapse, pending writer,
        deposed leader) or, under a retry policy, when no reply arrives
        within the policy's first timeout; the coordinator pick, and the
        directory entry the certified path reads, only happen then.
        """
        txn = txn or self.next_txn_id()
        objects = tuple(sorted(objects))
        marker = self._read_markers.get(objects)
        if marker is None:
            marker = self._read_markers[objects] = SnapshotRead(objects=objects)
        self.history.record_certify(txn, marker, self.now)
        self.submit_times[txn] = self.now
        state = self._read_states[txn] = _SnapshotReadState(
            shard=shard, leader=leader, fallback_payload=fallback_payload
        )
        self.send(leader, ReadRequest(txn=txn, objects=marker.objects))
        if self.retry.enabled:
            state.timer = self.scheduler.schedule(
                self.retry.delay(1), self._on_read_timeout, txn
            )
        return txn

    def on_read_reply(self, msg: ReadReply, sender: str) -> None:
        state = self._read_states.pop(msg.txn, None)
        if state is None:  # a reply after the read fell back: certification decides
            return
        if state.timer is not None:
            state.timer.cancel()
        if msg.ok:
            self.reads_served += 1
            payload = TransactionPayload.make(
                reads=((obj, version) for obj, _value, version in msg.reads),
                tiebreak=msg.txn,
            )
            self.history.record_decide(
                msg.txn, Decision.COMMIT, self.now, payload=payload
            )
            self.decide_times[msg.txn] = self.now
            return
        self._fall_back(msg.txn, state, msg.reason)

    def _on_read_timeout(self, txn: TxnId) -> None:
        state = self._read_states.pop(txn, None)
        if state is not None:
            self._fall_back(txn, state, "timeout")

    def _fall_back(self, txn: TxnId, state: _SnapshotReadState, reason: str) -> None:
        """Certify the read-only payload instead of the fast path.  The
        certify event exists from submit_read; the decide event will carry
        the fallback payload."""
        self.read_fallbacks += 1
        self.read_fallback_reasons[reason] = self.read_fallback_reasons.get(reason, 0) + 1
        self._read_payloads[txn] = state.fallback_payload
        self._certify(txn, state.fallback_payload, (state.shard,))

    # ------------------------------------------------------------------
    # configuration knowledge (routing support)
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
        if not msg.ok or msg.config is None or asked is None:
            return
        # One shard's record, or a system-wide one covering every shard.
        for shard, config in sorted(msg.config.by_shard(asked).items()):
            self.router.note_config_change(shard, config)

    def on_config_change(self, msg: ConfigChange, sender: str) -> None:
        """``CONFIG_CHANGE`` pushed by the configuration service (the client
        subscribes under an enabled retry policy)."""
        self.router.note_config_change(
            msg.shard, Configuration(msg.epoch, tuple(msg.members), msg.leader)
        )

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def on_txn_decision(self, msg: TxnDecision, sender: str) -> None:
        txn = msg.txn
        self.history.record_decide(
            txn, msg.decision, self.now, payload=self._read_payloads.pop(txn, None)
        )
        if txn in self.decide_times:
            # A re-answered duplicate (or a second coordinator reporting the
            # same decision); the history has already deduplicated it.
            self.duplicate_decisions += 1
            return
        self.decide_times[txn] = self.now
        state = self._inflight.pop(txn, None)
        if state is not None:
            state.timer.cancel()
        elif self.orphaned and txn in self.orphaned:
            # The final attempt's decision arrived after the client had
            # already given the transaction up (a heavy-tail straggler):
            # nothing was lost, so it must not count as orphaned.
            self.orphaned.remove(txn)
