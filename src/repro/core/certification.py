"""Certification-function framework (paper Section 2).

A TCS is parametric in a *certification function* ``f : 2^L x L -> D`` that
encodes the concurrency-control policy of the desired isolation level.  In a
sharded system the protocol never evaluates ``f`` directly; each shard uses
two *shard-local* functions:

* ``f_s(L, l)`` — certify ``l`` against the shard-relevant payloads of
  previously *committed* transactions;
* ``g_s(L, l)`` — certify ``l`` against transactions *prepared to commit*
  (typically a stricter, lock-style check).

:class:`CertificationScheme` bundles ``f``, ``f_s``, ``g_s``, payload
projection ``l|s``, the empty payload ``ε`` and the ``shards(t)`` function.
The paper's side conditions on them — distributivity (1), matching (3) and
the relations (4)-(5) between ``f_s`` and ``g_s`` — are checked for every
shipped scheme by the hypothesis test-suite.
"""

from __future__ import annotations

from typing import Any, Generic, Iterable, Optional, Sequence, Set, Tuple, TypeVar

from repro.core.types import Decision, ShardId, TxnId


PayloadT = TypeVar("PayloadT")


class VoteIndex(Generic[PayloadT]):
    """The vote of a shard leader (Figure 1, line 12), ``f_s(L1, l) ⊓
    g_s(L2, l)``, kept incremental.

    A shard leader certifies every new transaction against (a) the payloads
    of transactions *committed* in its certification order and (b) the
    payloads of transactions *prepared to commit*.  Recomputing those sets
    per ``PREPARE`` is O(slots); an index maintains per-object conflict
    state so each membership change and each vote is proportional to the
    payload size only.

    Implementations must be exactly equivalent to
    ``shard_certify_committed(shard, committed, l).meet(
    shard_certify_prepared(shard, prepared, l))`` evaluated over the same
    sets — the simulation's determinism (and the Figure 3 invariants)
    depend on it.  That scan form is the reference the indexes are tested
    against, in ``tests/helpers.py``.

    The snapshot-read fast path (``repro.core.reads``) asks a leader's index
    the two per-object questions its vote rests on: is a prepared
    commit-voted payload writing ``obj`` (:meth:`write_pending`), and what
    did the newest committed write of ``obj`` install (:meth:`latest_write`).
    """

    def add_committed(self, payload: PayloadT) -> None:
        raise NotImplementedError

    def add_prepared(self, payload: PayloadT) -> None:
        raise NotImplementedError

    def remove_prepared(self, payload: PayloadT) -> None:
        raise NotImplementedError

    def vote(self, payload: PayloadT) -> Decision:
        raise NotImplementedError

    def settled(self) -> Any:
        """The committed state alone, as a plain value that shares nothing
        mutable with this index: the settled summary a ``NEW_STATE`` and
        the 2PC baseline's Paxos snapshot carry, sized on the wire by what
        it holds."""
        raise NotImplementedError

    def load_settled(self, settled: Any) -> None:
        """Replace the committed state with a copy of ``settled`` (a value
        :meth:`settled` returned)."""
        raise NotImplementedError

    def write_pending(self, obj: Any) -> bool:
        """True iff a prepared-to-commit payload writes ``obj``."""
        raise NotImplementedError

    def latest_write(self, obj: Any) -> Optional[Tuple[Any, Any]]:
        """``(value, version)`` of the committed write of ``obj`` with the
        highest commit version; None when no committed payload writes it."""
        raise NotImplementedError


class _RetiredConflict:
    """Sentinel returned by conflict indexes in place of a transaction that
    has been retired (garbage-collected): the conflict is real, but the
    partner's identity is no longer stored."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<retired>"


RETIRED = _RetiredConflict()


class ConflictIndex(Generic[PayloadT]):
    """Incremental pairwise-conflict queries for the online TCS checker.

    The spec checker's linearization graph needs, for every transaction
    entering the committed projection, the conflict edges between its payload
    and every payload already in the projection: ``f({l_a}, l) = abort``
    means the new transaction must *precede* ``a``, and ``f({l}, l_b) =
    abort`` means ``b`` must precede the new transaction.  Computing those
    sets by scanning all prior payloads is the O(txns^2) sweep that forced
    large scenarios to opt out of validation; an index maintains per-object
    conflict state so each registration costs time proportional to the
    payload size plus the number of edges actually reported.

    Implementations must be exactly equivalent to evaluating
    ``scheme.global_certify([l'], l)`` pairwise over the registered payloads.
    """

    def register(self, txn: TxnId, payload: PayloadT) -> "tuple[list, list]":
        """Add ``(txn, payload)``; return ``(successors, predecessors)``.

        ``successors`` are registered transactions the new one must precede
        (their payload aborts the new one); ``predecessors`` must precede the
        new one (its payload aborts theirs).

        After :meth:`retire` calls, either list may contain the
        :data:`RETIRED` sentinel instead of a transaction id: the new
        payload conflicts with a retired transaction whose identity the
        index no longer stores (the checker maps a RETIRED *successor* to an
        immediate real-time violation; a RETIRED predecessor is consistent
        by construction and ignored).
        """
        raise NotImplementedError

    def retire(self, txn: TxnId, payload: PayloadT) -> None:
        """Forget ``txn``'s per-object entries, keeping only a compact
        per-object horizon sufficient to still *flag* (not identify) future
        conflicts against retired history via :data:`RETIRED`.

        The caller supplies the payload it registered (so indexes need not
        duplicate payload storage for runs that never retire).
        """
        raise NotImplementedError


class CertificationScheme(Generic[PayloadT]):
    """Abstract interface for an isolation level's certification functions.

    Implementations must be *pure*: results may only depend on the
    arguments, so that distributivity and matching can be checked
    mechanically.
    """

    # ------------------------------------------------------------------
    # required interface
    # ------------------------------------------------------------------
    def shards(self) -> Sequence[ShardId]:
        """All shard identifiers in the system."""
        raise NotImplementedError

    def shards_of(self, payload: PayloadT) -> Set[ShardId]:
        """``shards(t)``: the shards that must certify this payload."""
        raise NotImplementedError

    def project(self, payload: PayloadT, shard: ShardId) -> PayloadT:
        """``l | s``: the part of the payload relevant to shard ``s``."""
        raise NotImplementedError

    def empty_payload(self) -> PayloadT:
        """The distinguished empty payload ``ε`` (always certifies commit)."""
        raise NotImplementedError

    def is_empty(self, payload: PayloadT) -> bool:
        """True if the payload equals ``ε``."""
        raise NotImplementedError

    def global_certify(self, committed: Iterable[PayloadT], payload: PayloadT) -> Decision:
        """The global certification function ``f(L, l)``."""
        raise NotImplementedError

    def shard_certify_committed(
        self, shard: ShardId, committed: Iterable[PayloadT], payload: PayloadT
    ) -> Decision:
        """The shard-local function ``f_s(L, l)`` (conflicts with committed txns)."""
        raise NotImplementedError

    def shard_certify_prepared(
        self, shard: ShardId, prepared: Iterable[PayloadT], payload: PayloadT
    ) -> Decision:
        """The shard-local function ``g_s(L, l)`` (conflicts with prepared txns)."""
        raise NotImplementedError

    def make_vote_index(self, shard: ShardId) -> VoteIndex:
        """A fresh incremental :class:`VoteIndex` for ``shard``: per-object
        conflict state that lets a leader vote in O(|payload|) where a scan
        of its certification order (the definition the index must equal)
        costs O(slots) per ``PREPARE``."""
        raise NotImplementedError

    def make_conflict_index(self) -> ConflictIndex:
        """A fresh incremental :class:`ConflictIndex`, from which the online
        spec checker learns linearization-graph conflict edges without the
        all-pairs ``global_certify`` sweep (the definition it must equal)."""
        raise NotImplementedError
