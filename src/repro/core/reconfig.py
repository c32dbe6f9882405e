"""Reconfiguration (Figure 1 lines 33-69, Figure 8) and its membership rule.

When a failure is suspected, any process can reconfigure:

1. read the last configuration from the configuration service and *probe*
   its members, asking them to join a higher epoch (which makes them stop
   processing transactions, Invariant 3);
2. traverse epochs downwards past configurations that never became
   operational, until an *initialized* process is found — it becomes the new
   leader and is guaranteed to know every transaction accepted at the shard
   (Invariant 2);
3. once every probed member it does not suspect has answered (or a bounded
   wait has passed), compute the new membership (the live responders, and
   fresh spare processes only where the leader would otherwise be alone),
   publish it with a compare-and-swap on the configuration service, and
   activate the new leader, which transfers its state to the new followers
   with ``NEW_STATE``: to a live follower only what it lacks.

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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.core.types import Configuration, ProcessId, ShardId, Status


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
    live: Iterable[ProcessId],
    fresh: Iterable[ProcessId],
    suspected: Set[ProcessId],
    spares: Optional[SparePool],
    previous_size: int,
) -> Tuple[ProcessId, ...]:
    """``compute_membership`` (line 48).

    Line 48 only requires that the new membership contains the new leader
    and otherwise consists of probe responders or fresh processes.  This
    rule keeps every initialized responder the reconfigurer does not
    suspect (``live``), up to ``target_size`` (None: ``previous_size``).
    Only where that would leave the leader alone does it top up to the
    target: first from ``fresh`` (responders never initialized), then from
    ``spares``, if there is a pool.  Such a joiner holds no state, so the
    shard commits nothing until the leader's whole state has reached it (a
    full ``NEW_STATE``); a one-member configuration tolerates no crash, so
    that stall is worth it there, and not while a live follower remains.
    """
    target = target_size or previous_size
    members: List[ProcessId] = [new_leader]

    def keep(responders: Iterable[ProcessId]) -> None:
        for pid in sorted(responders):
            if pid != new_leader and pid not in suspected and len(members) < target:
                members.append(pid)

    keep(live)
    if len(members) == 1:
        keep(fresh)
        if spares is not None and len(members) < target:
            members.extend(spares.take(target - len(members)))
    return tuple(members)


def _above(entries: Dict[int, Any], base: int) -> Dict[int, Any]:
    """The entries of ``entries`` (keyed by slot) above slot ``base``."""
    return {slot: value for slot, value in entries.items() if slot > base}


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
    probed_leader: ProcessId
    # The initialized responders, each with the decided prefix it reported.
    prefixes: Dict[ProcessId, Optional[int]] = field(default_factory=dict)
    # The responders that were never initialized.
    fresh: Set[ProcessId] = field(default_factory=set)
    # The first initialized responder, until the proposal picks the leader.
    new_leader: Optional[ProcessId] = None
    stepping_down: bool = False

    def leader(self, suspected: Set[ProcessId]) -> ProcessId:
        """The new leader: any initialized responder knows every accepted
        transaction (line 45), so prefer the probed epoch's leader, then
        the first unsuspected responder, then the first one."""
        unsuspected = [pid for pid in self.prefixes if pid not in suspected]
        if self.probed_leader in unsuspected:
            return self.probed_leader
        return unsuspected[0] if unsuspected else self.new_leader

    def answered(self, suspected: Set[ProcessId]) -> bool:
        """Whether every probed member not in ``suspected`` has answered."""
        return all(
            pid in self.prefixes or pid in self.fresh or pid in suspected
            for pid in self.probed_members
        )


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
        # When the last PROBE went out, and the timer that ends the wait
        # for silent members (``_await_members``).
        self._probed_at = 0.0
        self._probe_deadline: Any = None
        self.reconfigurations_introduced = 0
        self.unsolicited_reconfigurations = 0
        # Shard proposals whose membership fell short of the target.
        self.under_target_proposals = 0

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

    def reconfigure(self, shard: Optional[ShardId] = None, last: Any = None) -> bool:
        """Initiate a reconfiguration of ``shard`` (default: own shard) or,
        where the scope is global, of every shard (Figure 1 lines 33-39,
        Figure 8 lines 103-110).

        ``last`` is the configuration to probe from when the caller already
        holds the one ``get_last`` would return (a view-change order carries
        it); otherwise the attempt asks the configuration service first.  A
        start that is stale by the time the proposal is made loses the
        compare-and-swap (lines 48-50)."""
        if self.rec_status is not RecStatus.READY:
            return False
        self.rec_status = RecStatus.PROBING
        key = self._reconfiguration_key(shard)
        if last is not None:
            self._probe_from(key, last)
        else:
            self._cs_call(
                lambda rid: CsGetLast(shard=key, request_id=rid),
                lambda reply: self._probe_from(key, reply.config if reply.ok else None),
            )
        return True

    def _probe_from(self, key: ShardId, last: Any) -> None:
        """Probe every member the record ``last`` names, one round per shard
        it configures, at the epoch after it."""
        if last is None:
            self.rec_status = RecStatus.READY
            return
        recon_epoch = last.epoch + 1
        self._led_rounds = []
        self._probe_rounds = {
            each: _ProbeRound(
                shard=each,
                recon_epoch=recon_epoch,
                probed_epoch=config.epoch,
                probed_members=config.members,
                probed_leader=config.leader,
            )
            for each, config in last.by_shard(key).items()
        }
        rounds = self._probe_rounds.values()
        targets = dict.fromkeys(p for r in rounds for p in r.probed_members)
        self._send_probes(targets, recon_epoch)

    def _send_probes(self, targets: Iterable[ProcessId], epoch: int) -> None:
        self._probed_at = self.now
        self.send_all(targets, Probe(epoch=epoch))

    def on_cs_view_change(self, msg: CsViewChange, sender: str) -> None:
        """The configuration service confirmed failure suspicions and asks
        this process to drive the view change (unsolicited failover).

        The order carries the record the service acted on, so probing starts
        from it (lines 33-39 without their ``get_last``) and goes on through
        the ordinary probe/CAS path above.  That races safely with
        timeout-driven ``reconfigure`` calls: the ``rec_status`` guard
        deduplicates concurrent attempts on this process, and the service's
        compare-and-swap (lines 48-50) lets exactly one attempt per epoch
        win, so a record superseded in flight installs nothing.
        """
        if msg.epoch < self.epoch_of(msg.shard):
            return  # stale: a newer configuration is already installed
        for pid in msg.suspects:
            self.suspect(pid)
        if self.reconfigure(msg.shard, last=msg.config):
            self.unsolicited_reconfigurations += 1

    # ------------------------------------------------------------------
    # PROBE / PROBE_ACK: lines 40-55 / 111-130
    # ------------------------------------------------------------------
    def on_probe(self, msg: Probe, sender: str) -> None:
        if msg.epoch < self.new_epoch:
            return
        if self._active_in(msg.epoch):
            # The epoch is installed, so the service holds it and the
            # prober's compare-and-swap from the epoch before must lose
            # (lines 48-50): answer (so that attempt ends) but stay active.
            # Line 41 would leave the epoch's members RECONFIGURING with
            # nothing left to activate them.
            self.send(sender, ProbeAck(initialized=True, epoch=msg.epoch, shard=self.shard))
            return
        self.status = Status.RECONFIGURING
        self._on_probed()
        self.new_epoch = msg.epoch
        self.send(
            sender,
            ProbeAck(
                initialized=self.initialized,
                epoch=msg.epoch,
                shard=self.shard,
                prefix=self._decided_prefix(),
            ),
        )

    def _decided_prefix(self) -> Optional[int]:
        """The ``p`` for which the slots this process holds decided are
        exactly ``1..p``, each holding its transaction; None when they are
        not, or when it is not initialized.  A RECONFIGURING process writes
        no slot of its own accord (a Figure 1 follower stashes ``DECISION``
        and drops ``ACCEPT``), so this holds until the ``NEW_STATE``."""
        if not self.initialized:
            return None
        decs = self.dec_arr
        prefix = len(decs) - decs.count(None)  # slot 0 is never used
        if None in decs[1 : prefix + 1] or None in self.txn_arr[1 : prefix + 1]:
            return None
        return prefix

    def _active_in(self, epoch: int) -> bool:
        """Whether this process is an active member of its shard in ``epoch``."""
        return (
            self.initialized
            and self.status is not Status.RECONFIGURING
            and self.epoch_of(self.shard) == epoch
        )

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
        if not msg.initialized:
            round_.fresh.add(sender)
            self._step_down_probing(round_, sender)
        else:
            round_.prefixes[sender] = msg.prefix
            if round_.new_leader is None:
                round_.new_leader = sender
                self._led_rounds.append(round_)
        if len(self._led_rounds) == len(self._probe_rounds):
            # Lines 45 / 117: an initialized process was found for every round.
            self._await_members()

    def _await_members(self) -> None:
        """Propose once every probed member not suspected has answered.

        Line 48 keeps only responders, so proposing on the first
        initialized ack would drop a live member whose ack lands at the
        same instant or a moment later.  A member that stays silent may
        have crashed unsuspected, so the wait is bounded by the silence the
        deployment already treats as a failure: with the failure detector
        on, its window (``interval × threshold``), after which a crashed
        member is suspected; with it off, the client retry timeout, after
        which a silent coordinator is given up on (a scripted failover
        names its crashed members as suspects, so this wait covers only
        slow live ones, such as cross-region acks on a WAN).  With neither
        policy on, the wait is as long again as this probe round has taken
        so far: the one delay a live member has been measured to need."""
        if all(r.answered(self.suspected) for r in self._probe_rounds.values()):
            self._propose_rounds()
        elif self._probe_deadline is None:
            detector, retry = self.detector_policy, self.retry_policy
            if detector.enabled:
                wait = detector.interval * detector.threshold
            elif retry is not None and retry.enabled:
                wait = retry.timeout
            else:
                wait = self.now - self._probed_at
            self._probe_deadline = self.set_timer(
                wait, self._on_probe_deadline, self._probe_rounds
            )

    def _on_probe_deadline(self, rounds: Dict[ShardId, _ProbeRound]) -> None:
        self._probe_deadline = None
        if self.probing and rounds is self._probe_rounds:
            self._propose_rounds()

    def _cancel_probe_deadline(self) -> None:
        if self._probe_deadline is not None:
            self._probe_deadline.cancel()
            self._probe_deadline = None

    def _propose_rounds(self) -> None:
        self._cancel_probe_deadline()
        self.rec_status = RecStatus.READY
        members = {}
        prefixes: Dict[ProcessId, Optional[int]] = {}
        for r in self._led_rounds:
            r.new_leader = r.leader(self.suspected)
            members[r.shard] = self._compute_membership(r)
            if len(members[r.shard]) < (self.target_size or len(r.probed_members)):
                self.under_target_proposals += 1
            prefixes.update((pid, r.prefixes.get(pid)) for pid in members[r.shard])
        self._propose(
            self._led_rounds[0].recon_epoch,
            members,
            {r.shard: r.new_leader for r in self._led_rounds},
            prefixes,
        )

    def _compute_membership(self, round_: _ProbeRound) -> Tuple[ProcessId, ...]:
        return compute_membership(
            self.target_size,
            new_leader=round_.new_leader,
            live=round_.prefixes,
            fresh=round_.fresh,
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
            if round_.new_leader is not None:
                return  # an initialized member of the probed epoch answered meanwhile
            previous = reply.config.by_shard(key)[round_.shard]
            round_.probed_epoch = previous_epoch
            round_.probed_members = previous.members
            round_.probed_leader = previous.leader
            round_.stepping_down = False
            self._send_probes(round_.probed_members, round_.recon_epoch)

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
    def _lead_own_slots(self) -> Dict[str, Any]:
        """Become leader over the slots this process holds and snapshot
        them as a full ``NEW_STATE`` carries them: a dict per array of its
        filled entries (payloads only for the undecided slots, the decided
        ones having been folded) and the settled summary of the decided
        slots.

        A ``DECISION`` stashed while this process was RECONFIGURING is
        applied first (line 30's wait holds once it leads, and decisions
        are final), so the snapshot holds it and the followers hold what
        the leader holds; the stashed ``PREPARE`` messages are replayed
        after the snapshot, as slots of the new epoch."""
        self.status = Status.LEADER
        self._apply_stashed_decisions()
        self._resume_order()
        state: Dict[str, Any] = {"txn": {}, "payload": {}, "vote": {}, "dec": {}}
        for slot, txn, payload, vote, dec in self.filled_slots():
            if txn is not None:
                state["txn"][slot] = txn
                state["vote"][slot] = vote
            if dec is None:
                state["payload"][slot] = payload
            else:
                state["dec"][slot] = dec
        state["summary"] = self._votes.settled()
        return state

    def _transfer_state(
        self,
        epoch: int,
        members: Tuple[ProcessId, ...],
        prefixes: Dict[ProcessId, Optional[int]],
    ) -> None:
        """Lead ``members`` in ``epoch`` and send every other member its
        ``NEW_STATE`` (line 60; Figure 8, line 146).

        The delta rule: a member whose decided slots were exactly ``1..p``
        when probed (``prefixes``, from its ``PROBE_ACK``), where this
        leader has decided nothing above ``p``, gets only this leader's
        slots above ``p`` (all undecided) and no summary.  Any other member
        (a fresh one, one with a decided slot above a gap, one behind a
        decision this leader holds) gets the full state.

        Why Invariant 2 still holds: this leader knows every transaction
        accepted at the shard, at its slot.  A slot the member holds decided
        was accepted by every member of its epoch, so this leader holds the
        same transaction there, and the decision is final; the member's
        slots ``1..p`` and the summary folded from them are therefore what
        a full transfer would have given it, plus decisions this leader may
        still lack.  Above ``p`` the member takes exactly this leader's
        slots, as in a full transfer."""
        full = self._lead_own_slots()
        top = max(full["dec"], default=0)
        whole: Optional[NewState] = None
        for member in members:
            if member == self.pid:
                continue
            base = prefixes.get(member)
            if base is None or base < top:
                if whole is None:
                    whole = NewState(epoch=epoch, members=members, **full)
                state = whole
            else:
                above = {k: _above(full[k], base) for k in ("txn", "payload", "vote")}
                state = NewState(
                    epoch=epoch, members=members, dec={}, summary=None, base=base, **above
                )
            self.send(member, state)

    def _adopt_state(self, msg: NewState) -> None:
        """Become an initialized follower holding the leader's slots.

        From a full transfer: lists as long as its highest filled slot
        needs, a copy of its undecided slots' payloads, and the leader's
        settled summary.  From a delta (``msg.base`` = p): keep its own
        slots ``1..p`` and its summary, drop what it holds undecided above
        ``p`` and store the leader's slots above ``p`` through the write
        path; a decision it already holds above ``p`` (a one-sided write
        that landed after the probe) stays, since decisions are final."""
        self.initialized = True
        self.status = Status.FOLLOWER
        self.new_epoch = msg.epoch
        if msg.base is None:
            size = max(chain(msg.txn, msg.dec), default=0) + 1
            arrays = []
            for entries in (msg.txn, msg.vote, msg.dec):
                array: List[Any] = [None] * size
                for slot, value in entries.items():
                    array[slot] = value
                arrays.append(array)
            self.txn_arr, self.vote_arr, self.dec_arr = arrays
            self.payload_arr = dict(msg.payload)
            self.slot_of = {txn: slot for slot, txn in msg.txn.items()}
            self._votes.adopt(msg.summary)
        else:
            self._votes.invalidate()
            txns, decs = self.txn_arr, self.dec_arr
            for slot in range(msg.base + 1, len(txns)):
                txn = txns[slot]
                if txn is not None and decs[slot] is None:
                    if self.slot_of.get(txn) == slot:
                        del self.slot_of[txn]
                    self.payload_arr.pop(slot, None)
                    txns[slot] = self.vote_arr[slot] = None
            for slot, txn in msg.txn.items():
                self.store_slot(slot, txn, msg.payload[slot], msg.vote[slot])
        self._resume_order()

    def _resume_order(self) -> None:
        """The slot arrays were filled while no vote index followed them
        (ACCEPTs while a follower, or a transfer): rebuild the index from
        the settled summary and the undecided slots before the next vote,
        and continue the order after the highest filled slot (the lists
        may run past it)."""
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
        prefixes: Dict[ProcessId, Optional[int]],
    ) -> None:
        """Lines 48-50: install the new configuration, then tell its leader
        (and, for the delta rule, each member's decided prefix)."""
        ((shard, new_members),) = members.items()
        new_leader = leaders[shard]
        new_config = NewConfig(epoch=epoch, members=new_members, prefixes=prefixes)

        def on_installed() -> None:
            if new_leader == self.pid:
                # Its own new leader takes NEW_CONFIG at this instant, as an
                # event of its own rather than over a link.
                self.set_timer(0.0, self.on_new_config, new_config, self.pid)
            else:
                self.send(new_leader, new_config)

        self._compare_and_swap(
            shard,
            Configuration(epoch=epoch, members=new_members, leader=new_leader),
            on_installed,
        )

    # ------------------------------------------------------------------
    # NEW_CONFIG / NEW_STATE / CONFIG_CHANGE: lines 56-69
    # ------------------------------------------------------------------
    def on_new_config(self, msg: NewConfig, sender: str) -> None:
        if msg.epoch != self.new_epoch:
            # A newer probe has superseded this configuration; refusing to
            # lead it preserves Invariant 3.
            return
        members = tuple(msg.members)
        self._install(self.shard, Configuration(msg.epoch, members, self.pid))
        self._transfer_state(msg.epoch, members, msg.prefixes)
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
