"""The RDMA-based shard replica (Figures 7 and 8).

The coordinator, the certifying leader, failure detection, snapshot reads
and the reconfiguration pipeline (configuration-service RPC, probing loop,
step-down, membership, CAS, state transfer: :mod:`repro.core.reconfig`) are
the message-passing protocol's, inherited from
:class:`repro.core.replica.ReplicaBase`; this module holds only the
differences from Figure 1:

* ``ACCEPT`` and ``DECISION`` are persisted at shard members with one-sided
  RDMA writes; the coordinator acts on NIC-level acknowledgements
  (``ack-rdma``) rather than on explicit ``ACCEPT_ACK`` messages, and the
  receivers cannot reject the writes (there is no epoch precondition on the
  follower side);
* processes keep a single system-wide ``epoch`` instead of one per shard;
* reconfiguration is *global*: the probing loop runs one round per shard
  under the configuration-service key ``"*"``, each probed process closes
  its RDMA connections, the new configuration is disseminated to all
  members (``CONFIG_PREPARE`` / ``CONFIG_PREPARE_ACK``) before the new
  leaders are activated, new leaders ``flush`` their RDMA buffers before
  sending ``NEW_STATE``, and connections are re-established with
  ``CONNECT`` / ``CONNECT_ACK``.

One deliberate, documented deviation from the pseudocode: on line 153 the
paper has a follower send ``CONNECT`` only to the processes of *other*
shards (the leader's ``CONNECT`` covers leader-follower pairs).  Because in
our setting any replica may coordinate transactions of its own shard — and
therefore needs RDMA access to its co-followers — followers here connect to
every member of the configuration.  The ``pj ∉ connections`` guard of
line 155 makes the extra connection requests harmless.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.batching import BatchPolicy, MessageBatcher
from repro.core.coordinator import CoordinatorEntry
from repro.core.messages import PrepareAck
from repro.core.reconfig import RecStatus
from repro.core.replica import ReplicaBase
from repro.core.types import (
    GLOBAL_SHARD,
    Decision,
    GlobalConfiguration,
    ProcessId,
    ShardId,
    Status,
    TxnId,
)
from repro.rdma.messages import (
    Accept,
    ConfigPrepare,
    ConfigPrepareAck,
    Connect,
    ConnectAck,
    NewConfig,
    NewState,
    SlotDecision,
)
from repro.runtime.rdma import RdmaManager


class RdmaVotePersistence:
    """Vote persistence by one-sided RDMA writes (Figure 7, lines 91-100):
    the transport the coordinator of :mod:`repro.core.coordinator` runs over
    in place of the ``ACCEPT`` / ``ACCEPT_ACK`` round.

    The coordinator writes the vote into each follower's memory and counts
    the NIC's ``ack-rdma``; the follower's CPU is not asked, so the write
    cannot be rejected — there is no epoch or status precondition on the
    receiving side.  Mixed into a replica that has an ``RdmaManager``.
    """

    def _make_accept_batcher(self, policy: BatchPolicy) -> MessageBatcher:
        # The transaction and ack key of every ACCEPT handed to the outbox
        # and not yet written, per follower, in order.  The key is recorded
        # when the accept is enqueued: resolving it from the membership view
        # at flush time would mis-attribute acks if a reconfiguration lands
        # while a batch is pending.
        self._accept_keys: Dict[ProcessId, List[Tuple[TxnId, Hashable]]] = {}
        return MessageBatcher(self, policy, send=self._send_accept_batch)

    def _persist_vote(self, entry: CoordinatorEntry, msg: PrepareAck) -> None:
        key = self._ack_key(msg.shard, msg.epoch)
        accept = Accept(slot=msg.slot, txn=msg.txn, payload=msg.payload, vote=msg.vote)
        leader = self.leader[msg.shard]
        for follower in self.members[msg.shard]:
            if follower == leader:
                continue
            if follower == self.pid:
                # A coordinator that is itself a follower of the shard writes
                # to its own memory directly (no NIC round-trip needed).
                self.on_accept(accept, self.pid)
                if entry.decision is None:
                    entry.acks.setdefault(key, set()).add(self.pid)
            else:
                self._accept_keys.setdefault(follower, []).append((msg.txn, key))
                self._accept_batcher.add(follower, accept)

    def _send_accept_batch(self, dst: ProcessId, message: Any) -> None:
        """Persist what the outbox releases for ``dst`` — one ACCEPT, or an
        envelope of them — with one one-sided write; the single NIC ack
        confirms every transaction it carries."""
        written = self._accept_keys.pop(dst)

        def on_ack(_message: Any, follower: ProcessId) -> None:
            for txn, key in written:
                self._on_accept_acked(txn, key, follower)

        self.rdma.send(dst, message, on_ack=on_ack)

    def _on_accept_acked(self, txn: TxnId, key: Hashable, follower: ProcessId) -> None:
        """ack-rdma received for an ACCEPT written to ``follower`` (line 96)."""
        entry = self._coordinated.get(txn)
        if entry is None or entry.decision is not None:
            return
        entry.acks.setdefault(key, set()).add(follower)
        self._maybe_decide(entry)

    # ------------------------------------------------------------------
    # followers: RDMA-delivered ACCEPT (lines 94-95)
    # ------------------------------------------------------------------
    def on_accept(self, msg: Accept, sender: str) -> None:
        self.store_slot(msg.slot, msg.txn, msg.payload, msg.vote)


class RdmaShardReplica(RdmaVotePersistence, ReplicaBase):
    """A replica of one shard running the RDMA-based protocol."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        RdmaManager.install(self)
        # Single system-wide epoch (Section 5).
        self.epoch = 0
        # The configuration this process won the CAS for and is disseminating
        # (``rec_status`` is ``installing``), and who acknowledged it so far.
        self._installing: Optional[GlobalConfiguration] = None
        self._config_prepare_acks: Set[ProcessId] = set()

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self, config: GlobalConfiguration) -> None:
        """Install the initial global configuration."""
        self.members = {s: tuple(m) for s, m in config.members.items()}
        self.leader = dict(config.leaders)
        own_members = self.members.get(self.shard, ())
        if self.pid in own_members:
            self.epoch = config.epoch
            self.new_epoch = config.epoch
            self.initialized = True
            self.status = (
                Status.LEADER if self.leader[self.shard] == self.pid else Status.FOLLOWER
            )
            for pid in config.all_processes():
                if pid != self.pid:
                    self.rdma.open(pid)
            if self.read_engine is not None:
                self.read_engine.note_epoch(self.epoch)
        else:
            self.epoch = 0
            self.new_epoch = 0
            self.initialized = False
            self.status = Status.FOLLOWER
        self._watch_co_members()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def my_epoch(self) -> int:
        return self.epoch

    # ------------------------------------------------------------------
    # coordinator: what Figure 7 changes in the pipeline of
    # repro.core.coordinator (votes persist through RdmaVotePersistence)
    # ------------------------------------------------------------------
    def epoch_of(self, shard: ShardId) -> int:
        return self.epoch

    def _ack_key(self, shard: ShardId, epoch: int) -> Hashable:
        """NIC acks count towards the shard, whatever the epoch."""
        return shard

    def _on_stale_prepare_ack(self, msg: PrepareAck, sender: str) -> None:
        """Precondition ``e = epoch`` failed (line 92): stale or too-new
        votes are ignored; coordinator recovery handles the transaction."""

    def _make_decision_batcher(self, policy: BatchPolicy) -> MessageBatcher:
        return MessageBatcher(
            self, policy, send=lambda dst, message: self.rdma.send(dst, message)
        )

    def _persist_decision(self, shard: ShardId, slot: int, decision: Decision) -> None:
        """Write ``DECISION`` into every member's memory (lines 101-102)."""
        message = SlotDecision(slot=slot, decision=decision)
        for member in self.members[shard]:
            if member == self.pid:
                # A coordinator that is itself a member persists the
                # decision locally without a network round-trip.
                self.decide_slot(slot, decision)
            else:
                self._decision_batcher.add(member, message)

    # ------------------------------------------------------------------
    # members: RDMA-delivered DECISION (lines 101-102)
    # ------------------------------------------------------------------
    def on_slot_decision(self, msg: SlotDecision, sender: str) -> None:
        self.decide_slot(msg.slot, msg.decision)

    # ------------------------------------------------------------------
    # reconfiguration: what Figure 8 adds to the pipeline of
    # repro.core.reconfig (one probe round per shard, under one key)
    # ------------------------------------------------------------------
    def _reconfiguration_key(self, shard: Optional[ShardId]) -> ShardId:
        """Reconfiguration is global, whichever shard raised the suspicion."""
        return GLOBAL_SHARD

    def _on_probed(self) -> None:
        self.rdma.multiclose(self.rdma.connections)

    def _propose(
        self,
        epoch: int,
        members: Dict[ShardId, Tuple[ProcessId, ...]],
        leaders: Dict[ShardId, ProcessId],
    ) -> None:
        """Lines 120-124: install the new global configuration, then
        disseminate it to every member before any leader is activated."""
        config = GlobalConfiguration(epoch=epoch, members=members, leaders=leaders)

        def on_installed() -> None:
            self.rec_status = RecStatus.INSTALLING
            self._installing = config
            self._config_prepare_acks = set()
            self.send_all(
                config.all_processes(),
                ConfigPrepare(epoch=epoch, members=members, leaders=leaders),
            )

        self._compare_and_swap(GLOBAL_SHARD, config, on_installed)

    def on_config_prepare(self, msg: ConfigPrepare, sender: str) -> None:
        if msg.epoch < self.new_epoch:
            return
        self.members = {s: tuple(m) for s, m in msg.members.items()}
        self.leader = dict(msg.leaders)
        self.new_epoch = msg.epoch
        self.send(sender, ConfigPrepareAck(epoch=msg.epoch))

    def on_config_prepare_ack(self, msg: ConfigPrepareAck, sender: str) -> None:
        config = self._installing
        if self.rec_status is not RecStatus.INSTALLING or msg.epoch != config.epoch:
            return
        self._config_prepare_acks.add(sender)
        if set(config.all_processes()) <= self._config_prepare_acks:
            self.rec_status = RecStatus.READY
            for leader in config.leaders.values():
                self.send(leader, NewConfig(epoch=config.epoch))

    def on_new_config(self, msg: NewConfig, sender: str) -> None:
        if msg.epoch != self.new_epoch:
            return
        # All writes already acknowledged by our NIC must be visible before
        # we snapshot our state for the followers (line 142).
        self.rdma.flush()
        self.epoch = msg.epoch
        state = NewState(epoch=self.epoch, **self._lead_own_slots())
        self._on_configuration_installed()
        for member in self.members.get(self.shard, ()):
            if member != self.pid:
                self.send(member, state)
        self._connect_to_all_members()

    def on_new_state(self, msg: NewState, sender: str) -> None:
        if msg.epoch < self.new_epoch:
            return
        self.epoch = msg.epoch
        self._adopt_state(msg)
        self._on_configuration_installed()
        self._connect_to_all_members()

    def _connect_to_all_members(self) -> None:
        """Lines 147 / 153 (see the module docstring for the deviation)."""
        for pid in dict.fromkeys(p for members in self.members.values() for p in members):
            if pid != self.pid:
                self.send(pid, Connect(epoch=self.epoch))

    def on_connect(self, msg: Connect, sender: str) -> None:
        if self.status is Status.RECONFIGURING or sender in self.rdma.connections:
            return
        self.rdma.open(sender)
        self.send(sender, ConnectAck(epoch=msg.epoch))

    def on_connect_ack(self, msg: ConnectAck, sender: str) -> None:
        if self.status is Status.RECONFIGURING or sender in self.rdma.connections:
            return
        self.rdma.open(sender)
