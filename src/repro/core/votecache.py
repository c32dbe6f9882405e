"""Incremental vote computation for shard leaders.

Figure 1 (line 12) has a leader vote on each new transaction against the
payloads of every committed and every prepared-to-commit slot in its
certification order.  Scanning the order per ``PREPARE`` costs O(slots),
which makes long simulations quadratic in the transaction count — the
dominant cost in steady-state workloads.

:class:`LeaderVoteCache` wraps a scheme-provided
:class:`~repro.core.certification.VoteIndex` and keeps it equal to a rebuild
from the replica's slot arrays:

* votes for new slots consult the index (O(|payload|));
* the replica's one write path (``store_slot`` / ``decide_slot``) reports
  each write with the slot's state before it, so whether the index already
  counts the slot follows from that state — no per-slot book-keeping;
* a write into a slot that was already filled (the one-sided RDMA writes of
  Figure 4a, a duplicate), a committed slot changing its decision and a
  ``NEW_STATE`` transfer *invalidate* the cache, which is rebuilt from the
  arrays on the next vote or the next snapshot read.

The index is the replica's one summary of its certification order: the
snapshot-read engine (``repro.core.reads``) serves from it and keeps no
copy of committed writes or pending writers of its own.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.certification import VoteIndex
from repro.core.types import Decision, Phase


class LeaderVoteCache:
    """Keeps a :class:`VoteIndex` consistent with a replica's slot arrays."""

    def __init__(self, replica: Any) -> None:
        self._replica = replica
        # None exactly while invalidated: the next vote rebuilds it, and
        # incremental notes are skipped until then.
        self._index: Optional[VoteIndex] = None

    # ------------------------------------------------------------------
    # cache lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the index; it is rebuilt from the arrays on the next vote."""
        self._index = None

    def _rebuild(self) -> None:
        replica = self._replica
        self._index = replica.scheme.make_vote_index(replica.shard)
        for slot, payload in replica.payload_arr.items():
            phase = replica.phase_arr.get(slot)
            if (
                phase is Phase.DECIDED
                and replica.dec_arr.get(slot) is Decision.COMMIT
            ):
                self._index.add_committed(payload)
            elif (
                phase is Phase.PREPARED
                and replica.vote_arr.get(slot) is Decision.COMMIT
            ):
                self._index.add_prepared(payload)

    # ------------------------------------------------------------------
    # voting and reading
    # ------------------------------------------------------------------
    def vote(self, payload: Any) -> Decision:
        """The vote for ``payload`` entering the order.

        Must be called before the payload is stored in ``payload_arr`` (the
        new slot itself must not be certified against).
        """
        if self._index is None:
            self._rebuild()
        return self._index.vote(payload)

    def index(self) -> VoteIndex:
        """The index, equal to a rebuild from the slot arrays (rebuilt here
        if invalidated): what the snapshot-read engine serves from."""
        if self._index is None:
            self._rebuild()
        return self._index

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def note_stored(self, slot: int, phase: Phase) -> None:
        """``slot`` was written with a transaction, payload and vote; it was
        in ``phase`` before."""
        if self._index is None:
            return  # invalidated: the next vote rebuilds from the arrays
        if phase is not Phase.START:
            self.invalidate()
        elif self._replica.vote_arr[slot] is Decision.COMMIT:
            self._index.add_prepared(self._replica.payload_arr[slot])

    def note_decided(self, slot: int, previous: Optional[Decision]) -> None:
        """``slot`` was decided; its decision was ``previous`` before (None
        while it was undecided, so PREPARED if it held a payload)."""
        if self._index is None:
            return  # invalidated: the next vote rebuilds from the arrays
        replica = self._replica
        if slot not in replica.payload_arr:
            return  # no payload stored: counted nowhere, before or after
        payload = replica.payload_arr[slot]
        if previous is None and replica.vote_arr[slot] is Decision.COMMIT:
            self._index.remove_prepared(payload)
        if replica.dec_arr[slot] is Decision.COMMIT:
            if previous is not Decision.COMMIT:
                self._index.add_committed(payload)
        elif previous is Decision.COMMIT:
            # A committed slot changed its decision.  Correct protocols never
            # do this; the broken ablation variant can, so fall back to a
            # rebuild rather than mis-certify.
            self.invalidate()
