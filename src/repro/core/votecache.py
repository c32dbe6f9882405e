"""Incremental vote computation for shard leaders.

Figure 1 (line 12) has a leader vote on each new transaction against the
payloads of every committed and every prepared-to-commit slot in its
certification order.  Scanning the order per ``PREPARE`` costs O(slots),
which makes long simulations quadratic in the transaction count — the
dominant cost in steady-state workloads.

:class:`LeaderVoteCache` keeps one scheme-provided
:class:`~repro.core.certification.VoteIndex` in two parts:

* its committed state is the *settled summary*, kept at every replica: the
  committed writes of the decided slots.  A slot is *folded* into it the
  first time it holds both a transaction and a decision — when
  ``decide_slot`` decides a slot that holds a payload, or when an RDMA
  ``store_slot`` lands on a slot already decided — and the replica then
  drops the slot's payload, so a replica holds payloads only for its
  undecided slots (FaRM truncates a transaction's log records the same way
  once it is decided).  A commit adds the payload's writes; an abort adds
  nothing;
* its prepared state counts the commit-voted payloads of the undecided
  slots, at a leader.  Votes for new slots consult the whole index
  (O(|payload|)), and the snapshot-read engine (``repro.core.reads``)
  serves from it, keeping no copy of committed writes or pending writers
  of its own.

The replica's one write path (``store_slot`` / ``decide_slot``) reports
each write with the slot's state before it, so what the index and the
summary count follows from that state — no per-slot book-keeping.  A write
over a prepared slot (the one-sided RDMA writes of Figure 4a, a duplicate)
and a ``NEW_STATE`` transfer *invalidate* the prepared state, which is
rebuilt on the next vote or read from a copy of the summary and the slots
that still hold a payload.

A folded slot is counted once, by the transaction and the decision it held
when it was folded: the payload is gone, so it cannot be unfolded.  A later
decision that differs (correct protocols never change a decision; the
broken RDMA ablation can) and a later write over the decided slot update
the slot arrays, which the invariants read, and leave the summary as it is.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.certification import VoteIndex
from repro.core.types import Decision


class LeaderVoteCache:
    """A replica's settled summary, and the leader's vote index over it.

    Both are one :class:`VoteIndex`: its committed state is the summary,
    kept at every replica, and its prepared state counts the undecided
    slots' commit votes while ``_current`` (a leader's, from its first vote
    on).  Invalidation marks the prepared state stale; the rebuild starts
    from a copy of the summary and replays only the slots that still hold
    a payload."""

    def __init__(self, replica: Any) -> None:
        self._replica = replica
        self._index: VoteIndex = replica.scheme.make_vote_index(replica.shard)
        # False exactly while the prepared state is stale: the next vote or
        # read rebuilds it, and incremental notes skip it until then.
        self._current = False

    # ------------------------------------------------------------------
    # cache lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Mark the prepared state stale; the index is rebuilt from the
        summary on the next vote or read."""
        self._current = False

    def _rebuild(self) -> None:
        replica = self._replica
        index = replica.scheme.make_vote_index(replica.shard)
        index.load_settled(self._index.settled())
        # Only an undecided slot holds a payload; it counts by its vote.
        votes = replica.vote_arr
        for slot, payload in replica.payload_arr.items():
            if votes[slot] is Decision.COMMIT:
                index.add_prepared(payload)
        self._index = index
        self._current = True

    def settled(self) -> Any:
        """The settled summary as a ``NEW_STATE`` carries it."""
        return self._index.settled()

    def adopt(self, settled: Any) -> None:
        """Replace the summary with a transferred one (``NEW_STATE``); the
        prepared state is rebuilt on the next vote."""
        self._index.load_settled(settled)
        self._current = False

    # ------------------------------------------------------------------
    # voting and reading
    # ------------------------------------------------------------------
    def vote(self, payload: Any) -> Decision:
        """The vote for ``payload`` entering the order.

        Must be called before the payload is stored in ``payload_arr`` (the
        new slot itself must not be certified against).
        """
        if not self._current:
            self._rebuild()
        return self._index.vote(payload)

    def index(self) -> VoteIndex:
        """The index, equal to the summary plus the undecided slots'
        commit votes (rebuilt here if stale): what the snapshot-read engine
        serves from."""
        if not self._current:
            self._rebuild()
        return self._index

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def note_stored(
        self,
        payload: Any,
        vote: Decision,
        held: Any,
        decision: Optional[Decision],
    ) -> None:
        """A slot was written with ``payload`` and ``vote``; before the
        write it held the transaction ``held`` and the decision
        ``decision`` (None for none)."""
        if decision is not None:
            # The slot is decided: the write folds it if it held no
            # transaction (the decision landed first), else it was folded
            # already.  Either way the replica keeps no payload.
            if held is None and decision is Decision.COMMIT:
                self._index.add_committed(payload)
        elif not self._current:
            return  # stale: the next vote rebuilds
        elif held is not None:
            self._current = False  # a prepared slot overwritten
        elif vote is Decision.COMMIT:
            self._index.add_prepared(payload)

    def note_decided(self, payload: Any, vote: Decision, decision: Decision) -> None:
        """A slot holding ``payload`` and ``vote`` took its first decision,
        ``decision``: fold it into the summary."""
        if vote is Decision.COMMIT and self._current:
            self._index.remove_prepared(payload)
        if decision is Decision.COMMIT:
            self._index.add_committed(payload)
