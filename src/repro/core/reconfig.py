"""Reconfiguration (Figure 1 lines 33-69, Figure 8) and its membership rule.

When a failure is suspected, any process can reconfigure:

1. read the last configuration from the configuration service and *probe*
   its members, asking them to join a higher epoch (which makes them stop
   processing transactions, Invariant 3);
2. traverse epochs downwards past configurations that never became
   operational, until an *initialized* process is found — it becomes the new
   leader and is guaranteed to know every transaction accepted at the shard
   (Invariant 2);
3. compute the new membership (probe responders plus fresh spare
   processes), publish it with a compare-and-swap on the configuration
   service, and activate the new leader, which transfers its state to the
   new followers with ``NEW_STATE``.

The paper runs this pipeline at two scopes, and so does this module.
:class:`Reconfigurer` holds the steps once, written for a *set* of shards
probed under one configuration-service key; every replica inherits it
through :class:`repro.core.replica.ReplicaBase`.

* Figure 1 reconfigures one shard: one probe round under the shard's own
  key, and a proposal that hands ``NEW_CONFIG`` to the new leader.  That
  scope is :class:`ReconfigMixin`, mixed into
  :class:`repro.core.replica.ShardReplica`.
* Figure 8 reconfigures the whole system: one round per shard under the key
  ``"*"``, and a proposal that disseminates ``CONFIG_PREPARE`` before it
  activates every leader.  That scope is in
  :class:`repro.rdma.replica.RdmaShardReplica`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.messages import (
    ConfigChange,
    CsCompareAndSwap,
    CsGet,
    CsGetLast,
    CsReply,
    CsViewChange,
    NewConfig,
    NewState,
    Probe,
    ProbeAck,
)
from repro.core.types import Configuration, Phase, ProcessId, ShardId, Status


class SparePool:
    """Pool of fresh, not-yet-initialized replica processes.

    ``compute_membership`` may add fresh processes to a new configuration to
    restore the desired fault-tolerance level after replacing crashed ones.
    The pool is shared by reference between the reconfigurers of a cluster;
    it models the operator-provided supply of standby machines.
    """

    def __init__(self, pids: Sequence[ProcessId] = ()) -> None:
        self._available: List[ProcessId] = list(pids)
        self.taken: List[ProcessId] = []

    def add(self, pid: ProcessId) -> None:
        self._available.append(pid)

    def take(self, count: int) -> List[ProcessId]:
        taken = self._available[:count]
        self._available = self._available[count:]
        self.taken.extend(taken)
        return taken

    def __len__(self) -> int:
        return len(self._available)


def compute_membership(
    target_size: Optional[int],
    new_leader: ProcessId,
    responders: Set[ProcessId],
    suspected: Set[ProcessId],
    spares: Optional[SparePool],
    previous_size: int,
) -> Tuple[ProcessId, ...]:
    """``compute_membership`` (line 48).

    The paper only requires that the new membership contains the new leader
    and otherwise consists of probe responders or fresh processes.  This
    keeps the responders (minus processes the reconfigurer believes crashed)
    and tops up to ``target_size`` (None: ``previous_size``) from
    ``spares``, if there is a pool.
    """
    target = target_size or previous_size
    members: List[ProcessId] = [new_leader]
    for pid in sorted(responders):
        if pid != new_leader and pid not in suspected and len(members) < target:
            members.append(pid)
    if spares is not None and len(members) < target:
        members.extend(spares.take(target - len(members)))
    return tuple(members)


class RecStatus:
    """Values of the ``rec_status`` variable (Figure 8).  Figure 1 never
    enters ``installing``: its proposal activates the leader in one message."""

    READY = "ready"
    PROBING = "probing"
    INSTALLING = "installing"


@dataclass
class _ProbeRound:
    """The probing loop of one shard within one reconfiguration attempt."""

    shard: ShardId
    recon_epoch: int
    probed_epoch: int
    probed_members: Tuple[ProcessId, ...]
    responders: Set[ProcessId] = field(default_factory=set)
    new_leader: Optional[ProcessId] = None
    stepping_down: bool = False


class Reconfigurer:
    """The reconfiguration steps both scopes share.  A scope supplies
    ``_reconfiguration_key``, ``_propose`` and the ``NEW_CONFIG`` /
    ``NEW_STATE`` handlers (built on the two state-transfer helpers below),
    and may override ``_on_probed``."""

    def _init_reconfig(self) -> None:
        self.rec_status = RecStatus.READY
        self._probe_rounds: Dict[ShardId, _ProbeRound] = {}
        # The rounds whose new leader is known, in the order they were found
        # (which is the shard order of the configuration then proposed).
        self._led_rounds: List[_ProbeRound] = []
        self.suspected: Set[ProcessId] = set()
        # Replacements come from the pool of the shard being recomputed,
        # whichever shard the reconfigurer belongs to; the cluster harness
        # fills this map in.  A shard without a pool gets no replacements.
        self.spare_pools: Dict[ShardId, SparePool] = {}
        self._cs_request_id = 0
        self._cs_callbacks: Dict[int, Callable[[CsReply], None]] = {}
        self.reconfigurations_introduced = 0
        self.unsolicited_reconfigurations = 0

    @property
    def probing(self) -> bool:
        return self.rec_status is RecStatus.PROBING

    # ------------------------------------------------------------------
    # configuration-service RPC plumbing
    # ------------------------------------------------------------------
    def _cs_call(self, build_message, callback: Callable[[CsReply], None]) -> None:
        self._cs_request_id += 1
        request_id = self._cs_request_id
        self._cs_callbacks[request_id] = callback
        self.send(self.config_service, build_message(request_id))

    def on_cs_reply(self, msg: CsReply, sender: str) -> None:
        callback = self._cs_callbacks.pop(msg.request_id, None)
        if callback is not None:
            callback(msg)

    # ------------------------------------------------------------------
    # reconfigure: lines 33-39 / 103-110
    # ------------------------------------------------------------------
    def suspect(self, pid: ProcessId) -> None:
        """Record a failure suspicion (used by compute_membership)."""
        self.suspected.add(pid)

    def reconfigure(self, shard: Optional[ShardId] = None) -> bool:
        """Initiate a reconfiguration of ``shard`` (default: own shard) or,
        where the scope is global, of every shard."""
        if self.rec_status is not RecStatus.READY:
            return False
        self.rec_status = RecStatus.PROBING
        key = self._reconfiguration_key(shard)

        def on_last(reply: CsReply) -> None:
            if not reply.ok or reply.config is None:
                self.rec_status = RecStatus.READY
                return
            recon_epoch = reply.config.epoch + 1
            self._led_rounds = []
            self._probe_rounds = {
                each: _ProbeRound(
                    shard=each,
                    recon_epoch=recon_epoch,
                    probed_epoch=config.epoch,
                    probed_members=config.members,
                )
                for each, config in reply.config.by_shard(key).items()
            }
            rounds = self._probe_rounds.values()
            targets = dict.fromkeys(p for r in rounds for p in r.probed_members)
            self.send_all(targets, Probe(epoch=recon_epoch))

        self._cs_call(lambda rid: CsGetLast(shard=key, request_id=rid), on_last)
        return True

    def on_cs_view_change(self, msg: CsViewChange, sender: str) -> None:
        """The configuration service confirmed failure suspicions and asks
        this process to drive the view change (unsolicited failover).

        Runs through the ordinary probe/CAS path above, so it races safely
        with timeout-driven ``reconfigure`` calls: the ``rec_status`` guard
        deduplicates concurrent attempts on this process, and the service's
        compare-and-swap lets exactly one attempt per epoch win.
        """
        if msg.epoch < self.epoch_of(msg.shard):
            return  # stale: a newer configuration is already installed
        for pid in msg.suspects:
            self.suspect(pid)
        if self.reconfigure(msg.shard):
            self.unsolicited_reconfigurations += 1

    # ------------------------------------------------------------------
    # PROBE / PROBE_ACK: lines 40-55 / 111-130
    # ------------------------------------------------------------------
    def on_probe(self, msg: Probe, sender: str) -> None:
        if msg.epoch < self.new_epoch:
            return
        self.status = Status.RECONFIGURING
        self._on_probed()
        self.new_epoch = msg.epoch
        self.send(sender, ProbeAck(initialized=self.initialized, epoch=msg.epoch, shard=self.shard))

    def _on_probed(self) -> None:
        """Hook: the RDMA scope closes its connections here."""

    def on_probe_ack(self, msg: ProbeAck, sender: str) -> None:
        round_ = self._probe_rounds.get(msg.shard)
        if (
            self.rec_status is not RecStatus.PROBING
            or round_ is None
            or msg.epoch != round_.recon_epoch
        ):
            return
        round_.responders.add(sender)
        if not msg.initialized:
            self._step_down_probing(round_, sender)
            return
        if round_.new_leader is None:
            round_.new_leader = sender
            self._led_rounds.append(round_)
        if len(self._led_rounds) == len(self._probe_rounds):
            # Lines 45 / 117: an initialized process was found for every round.
            self.rec_status = RecStatus.READY
            self._propose(
                round_.recon_epoch,
                {r.shard: self._compute_membership(r) for r in self._led_rounds},
                {r.shard: r.new_leader for r in self._led_rounds},
            )

    def _compute_membership(self, round_: _ProbeRound) -> Tuple[ProcessId, ...]:
        return compute_membership(
            self.target_size,
            new_leader=round_.new_leader,
            responders=round_.responders,
            suspected=self.suspected,
            spares=self.spare_pools.get(round_.shard),
            previous_size=len(round_.probed_members),
        )

    def _step_down_probing(self, round_: _ProbeRound, sender: ProcessId) -> None:
        """Lines 51-55 / 125-130: the probed epoch of this round never became
        operational; probe the preceding one."""
        if sender not in round_.probed_members:
            return
        if round_.new_leader is not None or round_.stepping_down:
            return
        round_.stepping_down = True
        previous_epoch = round_.probed_epoch - 1
        if previous_epoch < 1:
            # Nothing below the initial configuration: reconfiguration is stuck
            # (all shard data lost), matching the paper's liveness caveat.
            self.rec_status = RecStatus.READY
            return

        key = self._reconfiguration_key(round_.shard)

        def on_get(reply: CsReply) -> None:
            if not reply.ok or reply.config is None or not self.probing:
                return
            round_.probed_epoch = previous_epoch
            round_.probed_members = reply.config.by_shard(key)[round_.shard].members
            round_.stepping_down = False
            self.send_all(round_.probed_members, Probe(epoch=round_.recon_epoch))

        self._cs_call(lambda rid: CsGet(shard=key, epoch=previous_epoch, request_id=rid), on_get)

    def _compare_and_swap(
        self, key: ShardId, config: Any, on_installed: Callable[[], None]
    ) -> None:
        """Lines 49 / 121: publish ``config`` as the successor of the epoch
        the attempt started from; only the winner of the race goes on."""

        def on_cas(reply: CsReply) -> None:
            if reply.ok:
                self.reconfigurations_introduced += 1
                on_installed()

        self._cs_call(
            lambda rid: CsCompareAndSwap(
                shard=key, expected_epoch=config.epoch - 1, config=config, request_id=rid
            ),
            on_cas,
        )

    # ------------------------------------------------------------------
    # state transfer: the two halves of NEW_CONFIG / NEW_STATE
    # ------------------------------------------------------------------
    def _lead_own_slots(self) -> Dict[str, Dict[int, Any]]:
        """Become leader over the slots this process holds and snapshot
        them as a ``NEW_STATE`` carries them: a dict per array of its filled
        entries, and the ``phase`` array derived from them (DECIDED on the
        decided slots, PREPARED on the others that hold a transaction)."""
        self.status = Status.LEADER
        self._resume_order()
        state: Dict[str, Dict[int, Any]] = {
            "txn": {}, "payload": {}, "vote": {}, "dec": {}, "phase": {}
        }
        for slot, txn, payload, vote, dec in self.filled_slots():
            if txn is not None:
                state["txn"][slot] = txn
                state["payload"][slot] = payload
                state["vote"][slot] = vote
            if dec is not None:
                state["dec"][slot] = dec
            state["phase"][slot] = Phase.PREPARED if dec is None else Phase.DECIDED
        return state

    def _adopt_state(self, msg: Any) -> None:
        """Become an initialized follower holding the leader's slots, in
        lists as long as its highest filled slot needs (the ``phase`` field
        follows from ``txn`` and ``dec``, so is not kept)."""
        self.initialized = True
        self.status = Status.FOLLOWER
        self.new_epoch = msg.epoch
        size = max(chain(msg.txn, msg.dec), default=0) + 1
        arrays = []
        for entries in (msg.txn, msg.payload, msg.vote, msg.dec):
            array: List[Any] = [None] * size
            for slot, value in entries.items():
                array[slot] = value
            arrays.append(array)
        self.txn_arr, self.payload_arr, self.vote_arr, self.dec_arr = arrays
        self.slot_of = {txn: slot for slot, txn in msg.txn.items()}
        self._resume_order()

    def _resume_order(self) -> None:
        """The slot arrays were filled outside the one write path (ACCEPTs
        while a follower, or a transfer): rebuild the vote index before the
        next vote, and continue the order after the highest filled slot
        (the lists may run past it)."""
        self._votes.invalidate()
        slot = len(self.txn_arr) - 1
        while slot > 0 and self.txn_arr[slot] is None and self.dec_arr[slot] is None:
            slot -= 1
        self.next = max(slot, 0)


class ReconfigMixin(Reconfigurer):
    """Figure 1's scope: one shard, one probe round, under the shard's own
    configuration-service key; mixed into ``ShardReplica``."""

    def _reconfiguration_key(self, shard: Optional[ShardId]) -> ShardId:
        return shard or self.shard

    def _propose(
        self,
        epoch: int,
        members: Dict[ShardId, Tuple[ProcessId, ...]],
        leaders: Dict[ShardId, ProcessId],
    ) -> None:
        """Lines 48-50: install the new configuration, then tell its leader."""
        ((shard, new_members),) = members.items()
        new_leader = leaders[shard]
        self._compare_and_swap(
            shard,
            Configuration(epoch=epoch, members=new_members, leader=new_leader),
            lambda: self.send(new_leader, NewConfig(epoch=epoch, members=new_members)),
        )

    # ------------------------------------------------------------------
    # NEW_CONFIG / NEW_STATE / CONFIG_CHANGE: lines 56-69
    # ------------------------------------------------------------------
    def on_new_config(self, msg: NewConfig, sender: str) -> None:
        if msg.epoch != self.new_epoch:
            # A newer probe has superseded this configuration; refusing to
            # lead it preserves Invariant 3.
            return
        self._install(self.shard, Configuration(msg.epoch, tuple(msg.members), self.pid))
        state = NewState(epoch=msg.epoch, members=tuple(msg.members), **self._lead_own_slots())
        for member in msg.members:
            if member != self.pid:
                self.send(member, state)
        self._on_configuration_installed()
        self._unstash()

    def on_new_state(self, msg: NewState, sender: str) -> None:
        if msg.epoch < self.new_epoch:
            return
        self._adopt_state(msg)
        self._install(self.shard, Configuration(msg.epoch, tuple(msg.members), sender))
        self._on_configuration_installed()
        self._unstash()

    def on_config_change(self, msg: ConfigChange, sender: str) -> None:
        if msg.shard == self.shard:
            return
        if self.view[msg.shard].epoch >= msg.epoch:
            return
        self._install(msg.shard, Configuration(msg.epoch, tuple(msg.members), msg.leader))
        self._unstash()
