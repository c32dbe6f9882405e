"""Protocol messages for the message-passing protocol (Figure 1).

Every ``when received X(...)`` clause of the pseudocode corresponds to a
frozen dataclass here and an ``on_*`` handler on
:class:`repro.core.replica.ShardReplica`.  Field names follow the paper's
notation (``e`` = epoch, ``k`` = certification-order position, ``t`` =
transaction, ``l`` = payload, ``d`` = vote/decision).

There is no batched variant of any message: a batching deployment carries
these same messages, verbatim and in order, inside the transport's one
envelope (:class:`repro.runtime.process.Batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.types import Configuration, Decision, ProcessId, ShardId, TxnId


# ----------------------------------------------------------------------
# client <-> coordinator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertifyRequest:
    """Client request: ``certify(t, l)`` submitted to a replica that will act
    as the transaction's coordinator (Figure 1, line 1).

    ``request_id`` is the client's attempt number for this
    transaction (1 for the first submission, 2+ for timeout-driven
    re-submissions).  The transaction id alone is the deduplication key —
    a coordinator that already knows the transaction re-answers from its
    decision cache instead of re-certifying, regardless of the attempt —
    so handlers do not need the attempt number for correctness; it is
    carried for tracing, the way production RPC layers tag retries.
    """

    txn: TxnId
    payload: Any
    request_id: int = 1


@dataclass(frozen=True)
class TxnDecision:
    """``DECISION(t, d)`` sent to the client of a transaction (line 27)."""

    txn: TxnId
    decision: Decision


# ----------------------------------------------------------------------
# snapshot-read fast path (client <-> shard leader, no coordinator)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReadRequest:
    """A client's lease-guarded snapshot read of one shard's objects.

    Bypasses certification entirely: the shard leader answers from its vote
    index (each object's newest committed write, else its seed) when its
    read lease is valid and no requested object has a prepared-but-undecided
    writer; otherwise it refuses and the client falls back to the certified
    path.
    """

    txn: TxnId
    objects: Tuple[str, ...]
    request_id: int = 1


@dataclass(frozen=True)
class ReadReply:
    """The leader's answer to a :class:`ReadRequest`.

    ``reads`` carries ``(object, value, version)`` triples when ``ok``;
    ``reason`` explains a refusal (``"lease"``, ``"pending"`` or
    ``"not-leader"``).
    """

    txn: TxnId
    ok: bool
    reads: Tuple[Tuple[str, Any, Tuple[int, str]], ...] = ()
    reason: str = ""


# ----------------------------------------------------------------------
# read leases (shard leader <-> configuration service)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CsLeaseRequest:
    """A shard leader asking the configuration service for a read lease of
    ``duration`` (virtual time); granted only to the current leader.

    ``epoch`` is the epoch the requester believes is current: the service
    grants only when it matches the epoch of the latest configuration, so
    a deposed (or not-yet-caught-up) leader is refused instead of armed
    with a lease it must not hold.
    """

    shard: ShardId
    duration: float
    request_id: int
    epoch: int = 0


@dataclass(frozen=True)
class CsLeaseGrant:
    """The configuration service's answer: the lease is valid until the
    absolute virtual time ``expires_at`` when ``ok``.

    ``epoch`` echoes the request: the recipient refuses grants whose epoch
    no longer matches its own, so an in-flight grant crossing a view
    change cannot let a stale leader serve snapshot reads.
    """

    shard: ShardId
    ok: bool
    expires_at: float
    request_id: int
    epoch: int = 0


# ----------------------------------------------------------------------
# failure detection (replicas <-> configuration service)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness beacon between co-members of a shard."""

    shard: ShardId
    epoch: int


@dataclass(frozen=True)
class SuspicionReport:
    """An observer tells the configuration service it suspects ``suspect``
    (a co-member of ``shard`` at ``epoch``) of having failed."""

    shard: ShardId
    epoch: int
    suspect: ProcessId


@dataclass(frozen=True)
class CsViewChange:
    """The configuration service asks a surviving member to reconfigure
    ``shard`` past the confirmed-suspected ``suspects`` of ``epoch``.

    ``config`` is the record the service acted on: the last one stored
    under the shard's key, or the global record where reconfiguration is
    global.  It is what the ``get_last`` of Figure 1 lines 33-39 (Figure 8
    lines 103-110) would answer, so the receiver probes its members without
    that round trip; if a newer record lands meanwhile, the compare-and-swap
    of lines 48-50 (120-124) rejects the attempt.
    """

    shard: ShardId
    epoch: int
    config: Any
    suspects: Tuple[ProcessId, ...] = ()


# ----------------------------------------------------------------------
# certification (failure-free path)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Prepare:
    """``PREPARE(t, l)`` from a coordinator to a shard leader (line 3).

    ``payload`` is the shard projection ``l | s`` or ``BOTTOM`` when a
    recovering coordinator does not know the payload (line 73).
    """

    txn: TxnId
    payload: Any


@dataclass(frozen=True)
class PrepareAck:
    """``PREPARE_ACK(e, s, k, t, l, d)`` from a leader to the coordinator
    (lines 7 and 17).

    Figure 1 echoes ``l`` so that a coordinator holding only ``⊥`` (a
    ``retry``, lines 70-73) can relay the payload the leader stored.  A
    first-time ``PREPARE(t, l)`` came from a coordinator that already
    holds ``l``, so the leader that places it in a fresh slot answers with
    ``payload = AS_SENT`` (:data:`repro.core.types.AS_SENT`) and the
    coordinator relays its own copy.  Every other answer is Figure 1's: a
    ``⊥`` recovery carries the empty payload it stored, a duplicate of an
    undecided slot the stored payload, and a duplicate of a decided
    (folded) slot None.
    """

    epoch: int
    shard: ShardId
    slot: int
    txn: TxnId
    payload: Any
    vote: Decision


@dataclass(frozen=True)
class Accept:
    """``ACCEPT(e, k, t, l, d)`` from the coordinator to the followers of a
    shard (line 20)."""

    epoch: int
    slot: int
    txn: TxnId
    payload: Any
    vote: Decision


@dataclass(frozen=True)
class AcceptAck:
    """``ACCEPT_ACK(s, e, k, t, d)`` from a follower back to the coordinator
    (line 25)."""

    shard: ShardId
    epoch: int
    slot: int
    txn: TxnId
    vote: Decision


@dataclass(frozen=True)
class SlotDecision:
    """``DECISION(e, k, d)`` from the coordinator to the members of a shard
    (line 29)."""

    epoch: int
    slot: int
    decision: Decision


# ----------------------------------------------------------------------
# reconfiguration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """``PROBE(e)`` asking a member of an old configuration to join epoch
    ``e`` (line 39)."""

    epoch: int


@dataclass(frozen=True)
class ProbeAck:
    """``PROBE_ACK(initialized, e, s)`` (line 44), plus the responder's
    decided prefix: the ``p`` for which the slots it holds decided are
    exactly ``1..p``, each with its transaction (None when they are not,
    or when it is not initialized).  The new leader reads it to send the
    responder only what it lacks (:class:`NewState`)."""

    initialized: bool
    epoch: int
    shard: ShardId
    prefix: Optional[int] = None


@dataclass(frozen=True)
class NewConfig:
    """``NEW_CONFIG(e, M)`` notifying the new leader of a shard (line 50),
    with each member's decided prefix as its ``PROBE_ACK`` reported it
    (absent or None: the member gets the full state)."""

    epoch: int
    members: Tuple[str, ...]
    prefixes: Dict[str, Optional[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class NewState:
    """``NEW_STATE(e, M, txn, payload, vote, dec)``: the new leader's state
    transferred to a follower (line 60; Figure 8, line 146, whose epoch is
    the global one).  Figure 1's ``phase`` array is not sent: it follows
    from ``txn`` and ``dec``.

    A *full* transfer (``base`` None) carries every slot the leader holds:
    ``payload`` for the undecided slots only, and what the decided slots
    committed as ``summary``, the leader's settled summary
    (:meth:`repro.core.votecache.LeaderVoteCache.settled`).  A *delta*
    (``base`` = p) goes to a member whose decided slots were exactly
    ``1..p`` when it was probed, from a leader that has decided nothing
    above ``p``: it carries only the leader's slots above ``p``, all
    undecided, and no summary; the member keeps its own slots ``1..p``
    and its summary (``Reconfigurer._adopt_state``)."""

    epoch: int
    members: Tuple[str, ...]
    txn: Dict[int, TxnId]
    payload: Dict[int, Any]
    vote: Dict[int, Decision]
    dec: Dict[int, Decision]
    summary: Any
    base: Optional[int] = None


@dataclass(frozen=True)
class ConfigChange:
    """``CONFIG_CHANGE(s, e, M, pl)`` pushed by the configuration service to
    the members of shards other than ``s`` (line 67)."""

    shard: ShardId
    epoch: int
    members: Tuple[str, ...]
    leader: str


# ----------------------------------------------------------------------
# configuration service RPC framing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CsGetLast:
    """``get_last(s)``: fetch the last stored configuration of shard ``s``."""

    shard: ShardId
    request_id: int


@dataclass(frozen=True)
class CsGet:
    """``get(s, e)``: fetch the configuration of shard ``s`` at epoch ``e``."""

    shard: ShardId
    epoch: int
    request_id: int


@dataclass(frozen=True)
class CsCompareAndSwap:
    """``compare_and_swap(s, e, ⟨e', M, pl⟩)``: store a new configuration if
    the last stored epoch of ``s`` is still ``e``."""

    shard: ShardId
    expected_epoch: int
    config: Configuration
    request_id: int


@dataclass(frozen=True)
class CsReply:
    """Response to any configuration-service request.

    ``config`` answers ``get_last`` and ``get``; a compare-and-swap is
    answered by ``ok`` alone (lines 49-50 go on only if it succeeded, with
    the configuration the reconfigurer proposed and already holds).
    """

    request_id: int
    ok: bool
    config: Optional[Configuration] = None
