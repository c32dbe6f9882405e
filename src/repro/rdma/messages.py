"""Messages of the RDMA-based protocol (Figures 7-8).

``PREPARE``, ``PREPARE_ACK``, ``PROBE``, ``PROBE_ACK``, ``NEW_STATE`` and
the client-facing ``DECISION`` are reused from :mod:`repro.core.messages`.
The messages below differ from their message-passing counterparts:

* ``Accept`` and ``SlotDecision`` carry no epoch — they are written with
  one-sided RDMA and the receiver cannot check a precondition (the paper
  compensates with Invariant 13);
* reconfiguration is global: ``NewConfig`` carries a single system-wide
  epoch (as the shared ``NewState`` does here), and ``ConfigPrepare`` /
  ``ConfigPrepareAck`` / ``Connect`` / ``ConnectAck`` implement the
  dissemination and RDMA connection re-establishment steps of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.types import Decision, ShardId, TxnId


@dataclass(frozen=True)
class Accept:
    """``ACCEPT(k, t, l, d)`` written into follower memory via RDMA (line 93)."""

    slot: int
    txn: TxnId
    payload: Any
    vote: Decision


@dataclass(frozen=True)
class SlotDecision:
    """``DECISION(k, d)`` written into member memory via RDMA (line 100)."""

    slot: int
    decision: Decision


@dataclass(frozen=True)
class ConfigPrepare:
    """``CONFIG_PREPARE(e, M, leaders)`` disseminating the new global
    configuration to every member before activation (line 124)."""

    epoch: int
    members: Dict[ShardId, Tuple[str, ...]]
    leaders: Dict[ShardId, str]


@dataclass(frozen=True)
class ConfigPrepareAck:
    """``CONFIG_PREPARE_ACK(e)`` (line 136)."""

    epoch: int


@dataclass(frozen=True)
class NewConfig:
    """``NEW_CONFIG(e)`` sent to the leaders of the new configuration (line
    139), with the decided prefix each member of the leader's shard
    reported when probed (as the shared ``NewConfig`` carries them)."""

    epoch: int
    prefixes: Dict[str, Optional[int]] = field(default_factory=dict)


@dataclass(frozen=True)
class Connect:
    """``CONNECT(e)`` requesting an RDMA connection in the new epoch (line 147/153)."""

    epoch: int


@dataclass(frozen=True)
class ConnectAck:
    """``CONNECT_ACK(e)`` (line 158)."""

    epoch: int
