"""Incremental vote computation for shard leaders.

Figure 1 (line 12) has a leader vote on each new transaction against the
payloads of every committed and every prepared-to-commit slot in its
certification order.  Scanning the order per ``PREPARE`` costs O(slots),
which makes long simulations quadratic in the transaction count — the
dominant cost in steady-state workloads.

:class:`LeaderVoteCache` wraps a scheme-provided
:class:`~repro.core.certification.VoteIndex` and keeps it in sync with the
replica's slot arrays:

* votes for new slots consult the index (O(|payload|));
* slot phase transitions (prepared -> decided) update it incrementally;
* any bulk state change (``NEW_STATE`` transfer, one-sided RDMA writes into
  the arrays, leadership changes) simply *invalidates* the cache, which is
  rebuilt from the arrays on the next vote — correctness never depends on
  catching every mutation incrementally.
"""

from __future__ import annotations

from typing import Any, Optional, Set

from repro.core.certification import VoteIndex
from repro.core.types import Decision, Phase


class LeaderVoteCache:
    """Keeps a :class:`VoteIndex` consistent with a replica's slot arrays."""

    def __init__(self, replica: Any) -> None:
        self._replica = replica
        # None exactly while invalidated: the next vote rebuilds it, and
        # incremental notes are skipped until then.
        self._index: Optional[VoteIndex] = None
        # Slots whose payload the index currently counts in each set; used
        # to keep incremental updates idempotent.
        self._prepared_slots: Set[int] = set()
        self._committed_slots: Set[int] = set()

    # ------------------------------------------------------------------
    # cache lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the index; it is rebuilt from the arrays on the next vote."""
        self._index = None
        self._prepared_slots.clear()
        self._committed_slots.clear()

    def _rebuild(self) -> None:
        replica = self._replica
        self._index = replica.scheme.make_vote_index(replica.shard)
        self._prepared_slots.clear()
        self._committed_slots.clear()
        for slot, payload in replica.payload_arr.items():
            phase = replica.phase_arr.get(slot)
            if (
                phase is Phase.DECIDED
                and replica.dec_arr.get(slot) is Decision.COMMIT
            ):
                self._index.add_committed(payload)
                self._committed_slots.add(slot)
            elif (
                phase is Phase.PREPARED
                and replica.vote_arr.get(slot) is Decision.COMMIT
            ):
                self._index.add_prepared(payload)
                self._prepared_slots.add(slot)

    # ------------------------------------------------------------------
    # voting
    # ------------------------------------------------------------------
    def vote(self, slot: int, payload: Any) -> Decision:
        """The vote for ``payload`` entering the order at ``slot``.

        Must be called before the payload is stored in ``payload_arr`` (the
        new slot itself must not be certified against).
        """
        if self._index is None:
            self._rebuild()
        return self._index.vote(payload)

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def note_prepared(self, slot: int) -> None:
        """Record that ``slot`` now holds a prepared transaction (call after
        the replica stored its payload and vote)."""
        if self._index is None:
            return  # invalidated: the next vote rebuilds from the arrays
        replica = self._replica
        if (
            slot not in self._prepared_slots
            and replica.phase_arr.get(slot) is Phase.PREPARED
            and replica.vote_arr.get(slot) is Decision.COMMIT
        ):
            self._index.add_prepared(replica.payload_arr[slot])
            self._prepared_slots.add(slot)

    def note_decided(self, slot: int) -> None:
        """Record that ``slot`` transitioned to the decided phase."""
        if self._index is None:
            return  # invalidated: the next vote rebuilds from the arrays
        replica = self._replica
        payload = replica.payload_arr.get(slot)
        if slot in self._prepared_slots:
            self._index.remove_prepared(payload)
            self._prepared_slots.discard(slot)
        decision = replica.dec_arr.get(slot)
        if decision is Decision.COMMIT:
            if slot not in self._committed_slots and payload is not None:
                self._index.add_committed(payload)
                self._committed_slots.add(slot)
        elif slot in self._committed_slots:
            # A previously-committed slot changed its decision.  Correct
            # protocols never do this; the broken ablation variant can, so
            # fall back to a rebuild rather than mis-certify.
            self.invalidate()
