"""Reliable single-process configuration service.

Stores sequences of configurations by key and serves the three operations of
the paper on them:

* ``compare_and_swap(s, e, ⟨e', M, pl⟩)`` — succeeds iff the epoch of the
  last stored configuration of ``s`` is ``e`` and ``e' > e``;
* ``get_last(s)`` — the last stored configuration of ``s``;
* ``get(s, e)`` — the configuration of ``s`` at epoch ``e``.

The message-passing protocol keeps one sequence of :class:`Configuration`
records ``⟨e, M, pl⟩`` per shard, keyed by the shard; the RDMA protocol
(Section 5: "a single data structure with the system's sequence of
configurations parameterized by shard") keeps one sequence of
:class:`GlobalConfiguration` records under the key ``"*"``.  Whatever
concerns a single shard — a read lease, a failure suspicion, who leads it —
is answered from the shard's slice (``by_shard``) of the last record that
configures it, so nothing below tells the two kinds of record apart.

A successful compare-and-swap pushes ``CONFIG_CHANGE`` to the subscribers
and to the members of the shards the new record does not configure (Figure
1, line 67: all *other* shards; none for a global record, whose members
learn it from ``CONFIG_PREPARE``), so that coordinators learn about it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    ConfigChange,
    CsCompareAndSwap,
    CsGet,
    CsGetLast,
    CsLeaseGrant,
    CsLeaseRequest,
    CsReply,
    CsViewChange,
    SuspicionReport,
)
from repro.core.types import GLOBAL_SHARD, Configuration, ProcessId, ShardId
from repro.runtime.process import Process


class _SuspicionLedger:
    """Aggregates :class:`SuspicionReport` messages per (shard, epoch).

    A suspicion becomes *confirmed* once ``confirmations`` distinct observers reported it; the
    first confirmation of an epoch triggers exactly one view-change
    proposal (later reports against the same epoch are absorbed — the CAS
    path already serialises racing reconfigurations, this just avoids
    spamming probes).
    """

    def __init__(self) -> None:
        # (shard, epoch, suspect) -> the distinct observers that reported it
        self._votes: Dict[Tuple[ShardId, int, ProcessId], Set[ProcessId]] = {}
        # (shard, epoch) pairs a view change was already proposed for
        self._acted: Set[Tuple[ShardId, int]] = set()

    def add(self, shard: ShardId, epoch: int, suspect: ProcessId, reporter: ProcessId) -> None:
        self._votes.setdefault((shard, epoch, suspect), set()).add(reporter)

    def confirmed(self, shard: ShardId, epoch: int, confirmations: int) -> List[ProcessId]:
        """Every suspect of (shard, epoch) with enough distinct reporters."""
        return sorted(
            suspect
            for (s, e, suspect), voters in self._votes.items()
            if s == shard and e == epoch and len(voters) >= confirmations
        )

    def acted(self, shard: ShardId, epoch: int) -> bool:
        return (shard, epoch) in self._acted

    def mark_acted(self, shard: ShardId, epoch: int) -> None:
        self._acted.add((shard, epoch))


class ConfigurationService(Process):
    """The configuration service of both reconfigurable protocols."""

    def __init__(self, pid: str = "config-service") -> None:
        super().__init__(pid)
        # key -> epoch -> record, and the last epoch of every key.
        self._configs: Dict[ShardId, Dict[int, Any]] = {}
        self._last: Dict[ShardId, int] = {}
        # shard -> its slice of the last record that configures it.
        self._by_shard: Dict[ShardId, Configuration] = {}
        self.cas_attempts = 0
        self.cas_successes = 0
        # Bumped whenever any stored configuration changes; lets callers
        # (e.g. the cluster driver's coordinator routing) cache derived
        # views and invalidate them in O(1).
        self.version = 0
        # Non-member processes (the client) that asked to be told about
        # every new configuration, on top of the Figure 1 line 67 push to the
        # members of the other shards.
        self._subscribers: List[str] = []
        # Failure detection: how many distinct observers must report a
        # suspicion before the service proposes a view change (set by the
        # cluster from the detector policy), the report ledger, and the
        # install log — (time, shard, epoch) per shard of every stored
        # record — from which time-to-recovery is measured.
        self.detector_confirmations = 1
        self._suspicions = _SuspicionLedger()
        self.suspicion_reports = 0
        self.view_changes = 0
        self.install_log: List[Tuple[float, ShardId, int]] = []

    def subscribe(self, pid: str) -> None:
        """Push future ``CONFIG_CHANGE`` notifications to ``pid`` as well."""
        if pid not in self._subscribers:
            self._subscribers.append(pid)

    def _store(self, key: ShardId, config: Any) -> Dict[ShardId, Configuration]:
        """Append ``config`` to the sequence under ``key``; returns the
        per-shard slices it contributes."""
        self._configs.setdefault(key, {})[config.epoch] = config
        self._last[key] = config.epoch
        self.version += 1
        slices = config.by_shard(key)
        self._by_shard.update(slices)
        # install_initial runs during cluster build, before the service is
        # attached to a network; those entries are at virtual time zero.
        now = self.now if self.network is not None else 0.0
        for shard in sorted(slices):
            self.install_log.append((now, shard, config.epoch))
        return slices

    # ------------------------------------------------------------------
    # direct (bootstrap and harness) interface
    # ------------------------------------------------------------------
    def install_initial(self, key: ShardId, config: Any) -> None:
        """Install the initial record of a sequence at bootstrap time."""
        self._store(key, config)

    def last_configuration(self, key: ShardId = GLOBAL_SHARD) -> Optional[Any]:
        epoch = self._last.get(key)
        if epoch is None:
            return None
        return self._configs[key][epoch]

    def shard_configuration(self, shard: ShardId) -> Optional[Configuration]:
        """The current configuration of one shard, whichever kind of record
        holds it."""
        return self._by_shard.get(shard)

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def on_cs_get_last(self, msg: CsGetLast, sender: str) -> None:
        # A client refreshing one shard of a globally configured system is
        # answered with the global record, which covers it.
        config = self.last_configuration(msg.shard) or self.last_configuration()
        self.send(sender, CsReply(msg.request_id, ok=config is not None, config=config))

    def on_cs_get(self, msg: CsGet, sender: str) -> None:
        config = self._configs.get(msg.shard, {}).get(msg.epoch)
        self.send(sender, CsReply(msg.request_id, ok=config is not None, config=config))

    def on_cs_compare_and_swap(self, msg: CsCompareAndSwap, sender: str) -> None:
        self.cas_attempts += 1
        current = self._last.get(msg.shard)
        if current != msg.expected_epoch or msg.config.epoch <= msg.expected_epoch:
            self.send(sender, CsReply(msg.request_id, ok=False, config=None))
            return
        self.cas_successes += 1
        slices = self._store(msg.shard, msg.config)
        self.send(sender, CsReply(msg.request_id, ok=True, config=msg.config))
        for shard in sorted(slices):
            config = slices[shard]
            change = ConfigChange(
                shard=shard, epoch=config.epoch, members=config.members, leader=config.leader
            )
            for other_shard, other_config in self._by_shard.items():
                if other_shard not in slices:
                    for member in other_config.members:
                        self.send(member, change)
            for subscriber in self._subscribers:
                self.send(subscriber, change)

    def on_cs_lease_request(self, msg: CsLeaseRequest, sender: str) -> None:
        """Grant a read lease on ``msg.shard`` iff the requester is the
        shard's leader in the last stored configuration *at the epoch the
        requester believes is current*.  The epoch fence refuses deposed
        leaders outright; the grant is an absolute virtual-time expiry on
        the shared simulation clock, so an already-granted lease of a
        later-deposed leader simply runs out."""
        config = self._by_shard.get(msg.shard)
        ok = (
            config is not None
            and config.leader == sender
            and config.epoch == msg.epoch
        )
        expires_at = self.now + msg.duration if ok else float("-inf")
        self.send(
            sender,
            CsLeaseGrant(
                msg.shard,
                ok=ok,
                expires_at=expires_at,
                request_id=msg.request_id,
                epoch=msg.epoch,
            ),
        )

    def on_suspicion_report(self, msg: SuspicionReport, sender: str) -> None:
        """Aggregate a failure-detector suspicion; once ``suspect`` has been
        reported by ``detector_confirmations`` distinct current members, ask
        the first surviving member of that shard (configuration order) to
        propose a view change through the ordinary CAS path — a global one
        where reconfiguration is global."""
        config = self._by_shard.get(msg.shard)
        if config is None or config.epoch != msg.epoch:
            return  # stale view: the suspect's epoch is already history
        if sender not in config.members or msg.suspect not in config.members:
            return
        self.suspicion_reports += 1
        self._suspicions.add(msg.shard, msg.epoch, msg.suspect, sender)
        confirmed = self._suspicions.confirmed(
            msg.shard, msg.epoch, self.detector_confirmations
        )
        if not confirmed or self._suspicions.acted(msg.shard, msg.epoch):
            return
        survivors = [p for p in config.members if p not in confirmed]
        if not survivors:
            return  # every member suspected: nobody left to drive the change
        self._suspicions.mark_acted(msg.shard, msg.epoch)
        self.view_changes += 1
        self.send(
            survivors[0],
            CsViewChange(shard=msg.shard, epoch=msg.epoch, suspects=tuple(confirmed)),
        )
