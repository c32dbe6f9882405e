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

from repro.core.types import Configuration, Decision, Phase, ProcessId, ShardId, TxnId


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
    ``shard`` past the confirmed-suspected ``suspects`` of ``epoch``."""

    shard: ShardId
    epoch: int
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
    (lines 7 and 17)."""

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
    """``PROBE_ACK(initialized, e, s)`` (line 44)."""

    initialized: bool
    epoch: int
    shard: ShardId


@dataclass(frozen=True)
class NewConfig:
    """``NEW_CONFIG(e, M)`` notifying the new leader of a shard (line 50)."""

    epoch: int
    members: Tuple[str, ...]


@dataclass(frozen=True)
class NewState:
    """``NEW_STATE(e, M, txn, payload, vote, dec, phase)``: the new leader's
    full state transferred to its followers (line 60)."""

    epoch: int
    members: Tuple[str, ...]
    txn: Dict[int, TxnId]
    payload: Dict[int, Any]
    vote: Dict[int, Decision]
    dec: Dict[int, Decision]
    phase: Dict[int, Phase]


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
    """Response to any configuration-service request."""

    request_id: int
    ok: bool
    config: Optional[Configuration] = None
