"""Fundamental protocol types.

These mirror the vocabulary of the paper: transaction identifiers ``t ∈ T``,
decisions ``d ∈ D = {abort, commit}`` with the meet operator ``⊓``,
per-transaction phases (``start``/``prepared``/``decided``), process
statuses (``leader``/``follower``/``reconfiguring``) and shard
configurations ``⟨e, M, pl⟩``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


TxnId = str
ShardId = str
ProcessId = str

#: Configuration-service key of the one system-wide sequence of
#: :class:`GlobalConfiguration` records (a :class:`Configuration` sequence is
#: keyed by its shard).
GLOBAL_SHARD = "*"


class _Bottom:
    """The undefined payload value ``⊥`` used by coordinator recovery.

    A new coordinator that does not know a transaction's payload retries it
    by sending ``PREPARE(t, ⊥)`` (Figure 1, line 73); a leader that has not
    certified the transaction then prepares it as aborted with the empty
    payload ``ε``.
    """

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOTTOM = _Bottom()


class Decision(enum.Enum):
    """Certification decision; forms a meet semi-lattice under ``⊓``."""

    COMMIT = "commit"
    ABORT = "abort"

    def meet(self, other: "Decision") -> "Decision":
        """The ``⊓`` operator: commit ⊓ commit = commit, anything ⊓ abort = abort."""
        if self is Decision.COMMIT and other is Decision.COMMIT:
            return Decision.COMMIT
        return Decision.ABORT

    def __and__(self, other: "Decision") -> "Decision":
        return self.meet(other)

    @staticmethod
    def meet_all(decisions) -> "Decision":
        """Fold ``⊓`` over an iterable of decisions (commit for empty input)."""
        result = Decision.COMMIT
        for decision in decisions:
            result = result.meet(decision)
        return result


class Phase(enum.Enum):
    """Per-slot transaction status at a replica (Figure 1)."""

    START = "start"
    PREPARED = "prepared"
    DECIDED = "decided"


class Status(enum.Enum):
    """Role of a process within its shard."""

    LEADER = "leader"
    FOLLOWER = "follower"
    RECONFIGURING = "reconfiguring"


@dataclass(frozen=True)
class Configuration:
    """A shard configuration ``⟨e, M, pl⟩``: epoch, members and leader."""

    epoch: int
    members: Tuple[ProcessId, ...]
    leader: ProcessId

    def __post_init__(self) -> None:
        if self.leader not in self.members:
            raise ValueError(
                f"leader {self.leader!r} must be one of the members {self.members!r}"
            )
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in configuration: {self.members!r}")

    @property
    def followers(self) -> Tuple[ProcessId, ...]:
        return tuple(p for p in self.members if p != self.leader)

    def by_shard(self, key: ShardId) -> Dict[ShardId, "Configuration"]:
        """The shards this record configures when stored under ``key``."""
        return {key: self}


@dataclass(frozen=True)
class GlobalConfiguration:
    """A system-wide configuration used by the RDMA protocol (Section 5).

    The RDMA protocol reconfigures the whole system at once, so the
    configuration service stores a single sequence of configurations, each
    fixing the membership and leader of *every* shard.
    """

    epoch: int
    members: Dict[ShardId, Tuple[ProcessId, ...]]
    leaders: Dict[ShardId, ProcessId]

    def __post_init__(self) -> None:
        for shard, leader in self.leaders.items():
            if leader not in self.members.get(shard, ()):
                raise ValueError(
                    f"leader {leader!r} of shard {shard!r} is not among its members"
                )

    def by_shard(self, key: ShardId) -> Dict[ShardId, Configuration]:
        """Every shard's slice of this record (``key`` is always ``"*"``)."""
        return {
            shard: Configuration(self.epoch, tuple(members), self.leaders[shard])
            for shard, members in self.members.items()
        }

    def all_processes(self) -> Tuple[ProcessId, ...]:
        seen = []
        for members in self.members.values():
            for pid in members:
                if pid not in seen:
                    seen.append(pid)
        return tuple(seen)

    def shard_of(self, pid: ProcessId) -> Optional[ShardId]:
        for shard, members in self.members.items():
            if pid in members:
                return shard
        return None

    def followers(self, shard: ShardId) -> Tuple[ProcessId, ...]:
        leader = self.leaders[shard]
        return tuple(p for p in self.members[shard] if p != leader)
