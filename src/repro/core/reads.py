"""Lease-guarded snapshot reads: the certification-bypassing read path.

At read-heavy ratios, pushing every read-only transaction through the full
certification pipeline (coordinator round trip, per-shard votes, replicated
decision) is the dominant cost.  This module implements a latest-value
read fast path on top of the TCS:

* a shard leader already keeps, for its vote (Figure 1, line 12), the two
  per-object facts the fast path needs: the newest committed write of each
  object (``f_s``) and whether a prepared-but-undecided slot that voted
  commit writes it (``g_s``).  The read engine asks the leader's vote index
  (``repro.core.votecache``) for both and keeps no copy of its own — only
  the version-zero seed mappings it is given (by reference), the lease and
  its counters;
* a single-shard read-only transaction is served directly from that index —
  no coordinator, no certification — **iff** the leader holds a valid read
  lease and none of the requested objects has a pending writer.  Otherwise
  the leader refuses and the client falls back to the certified path;
* read leases are granted by the configuration service (the membership
  oracle) to the shard's current leader for a bounded duration and renewed
  event-driven — there are no replica-side timers, so the simulation's
  determinism and idle-detection contracts are untouched.

**Why the pending-writer check is sufficient** (the freshness argument):
a transaction decided *anywhere* in the system had its PREPARE arrive at
every involved shard leader strictly earlier in virtual time — the
coordinator cannot decide without that leader's vote.  So when a read
arrives at the leader, every conflicting write that is already decided
(and therefore potentially client-visible) is either still pending here
(the read is refused) or already committed in the leader's order (the read
observes it).  A served read consequently never misses a write that
really-precedes it, which is exactly what strict serializability demands of
the fast path.  A committed write the leader votes against is, by the same
index, a write its reads return.

The ``broken-snapshot`` mode deliberately violates the rule — it serves
reads past lease expiry and ignores pending writers, mirroring the paper's
Figure 4a-style broken-protocol ablations — so the online checker can
demonstrate that the lease/pending discipline is load-bearing.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.core.serializability import VERSION_ZERO, ObjectId, Version


READ_MODES = ("certified", "snapshot", "broken-snapshot")

# Virtual-time lease length (in network delays) generous enough that a
# steady-state run never loses its lease; scenario specs override it (the
# stale-lease ablation uses a short one and blocks renewal).
DEFAULT_LEASE = 500.0


@dataclass(frozen=True)
class ReadPolicy:
    """How a cluster treats read-only transactions — the value a scenario's
    ``read`` field holds and the cluster receives
    (``repro.scenarios.spec.ReadSpec`` is this class).

    * ``certified`` — every read goes through certification (the default;
      no read machinery is instantiated, preserving byte-identical
      histories with pre-read-path builds);
    * ``snapshot`` — shard leaders hold configuration-service read leases
      (``lease`` message delays long) and answer single-shard read-only
      transactions directly from the latest committed values in their
      vote indexes — no coordinator, no certification; reads that hit an
      expired lease or a prepared-but-undecided conflicting write fall back
      to the certified path;
    * ``broken-snapshot`` — the deliberately unsafe ablation: leaders serve
      even when the lease has expired or conflicting writes are pending,
      which the checker must flag as a serializability violation.
    """

    mode: str = "certified"
    lease: float = DEFAULT_LEASE

    def validate(self) -> None:
        if self.mode not in READ_MODES:
            raise ValueError(f"unknown read mode {self.mode!r}; expected one of {READ_MODES}")
        if self.lease <= 0:
            raise ValueError("lease duration must be positive")

    @property
    def enabled(self) -> bool:
        return self.mode != "certified"

    @property
    def broken(self) -> bool:
        return self.mode == "broken-snapshot"

    def describe(self) -> str:
        if not self.enabled:
            return "off"
        return f"{self.mode}(lease={self.lease:g})"


class ReplicaReadEngine:
    """Per-replica snapshot-read state: the version-zero seeds, the read
    lease and the fast path's counters.

    Installed on every shard replica when the cluster's read policy is
    enabled.  What a read observes is the replica's vote index
    (:meth:`repro.core.votecache.LeaderVoteCache.index`): the settled
    summary of its decided slots plus its undecided slots' commit votes,
    which the replica's one write path into the certification order keeps
    current; an object no committed slot wrote reads as its seed at
    ``VERSION_ZERO``.
    """

    def __init__(self, replica, policy: ReadPolicy) -> None:
        self.replica = replica
        self.policy = policy
        # The version-zero seeds: the one mapping seeded, or a ChainMap of
        # several in seeding order.
        self.seeds: Mapping[ObjectId, object] = {}
        # Read lease (absolute virtual-time expiry, granted by the config
        # service); -inf until the first grant arrives.
        self.lease_expires = float("-inf")
        self.lease_pending = False
        # The epoch this engine serves under.  The replica updates it at
        # every configuration install; a grant echoing a different epoch is
        # refused (the deposed-leader fence).
        self.epoch = 0
        # Metrics.
        self.reads_served = 0
        self.reads_refused_lease = 0
        self.reads_refused_pending = 0
        self.stale_serves = 0  # broken mode: serves a valid engine would refuse
        self.stale_grants = 0  # grants refused by the epoch fence

    def seed(self, initial: Mapping[ObjectId, object]) -> None:
        """Take the same initial values the client-side store starts from,
        so served values match certified reads byte for byte.  The mapping
        is kept by reference, not copied; the first seed of an object
        wins."""
        self.seeds = ChainMap(self.seeds, initial) if self.seeds else initial

    # ------------------------------------------------------------------
    # lease
    # ------------------------------------------------------------------
    def lease_valid(self, now: float) -> bool:
        return now < self.lease_expires

    def lease_wants_renewal(self, now: float) -> bool:
        """Renew once less than half the lease duration remains."""
        return (
            not self.lease_pending
            and self.lease_expires - now < self.policy.lease / 2.0
        )

    def note_epoch(self, epoch: int) -> None:
        """The replica installed a configuration: fence the lease epoch."""
        self.epoch = epoch

    def note_lease(self, expires_at: float, granted: bool, epoch: int = 0) -> None:
        """Record the configuration service's answer to a lease request.

        ``epoch`` is the grant's echoed request epoch; a grant that no
        longer matches the engine's current epoch is refused — an in-flight
        grant arriving after the holder was deposed must not re-arm the
        lease (the deposed-leader fence).
        """
        self.lease_pending = False
        if epoch != self.epoch:
            self.stale_grants += 1
            return
        if granted and expires_at > self.lease_expires:
            self.lease_expires = expires_at

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def serve(
        self, objects: Tuple[ObjectId, ...], now: float
    ) -> Tuple[str, Optional[List[Tuple[ObjectId, object, Version]]]]:
        """Attempt to serve a snapshot read.

        Returns ``("ok", reads)`` with one ``(object, value, version)``
        triple per requested object, or ``(reason, None)`` — reason
        ``"lease"`` or ``"pending"`` — when the fast path must refuse and
        the client should fall back to certification.  Broken mode records
        how many serves a correct engine would have refused.
        """
        index = self.replica._votes.index()
        refusal = None
        if not self.lease_valid(now):
            refusal = "lease"
        else:
            for obj in objects:
                if index.write_pending(obj):
                    refusal = "pending"
                    break
        if refusal is not None and not self.policy.broken:
            if refusal == "lease":
                self.reads_refused_lease += 1
            else:
                self.reads_refused_pending += 1
            return refusal, None
        if refusal is not None:
            self.stale_serves += 1
        reads: List[Tuple[ObjectId, object, Version]] = []
        for obj in objects:
            latest = index.latest_write(obj)
            if latest is None:
                reads.append((obj, self.seeds.get(obj), VERSION_ZERO))
            else:
                reads.append((obj, *latest))
        self.reads_served += 1
        return "ok", reads
