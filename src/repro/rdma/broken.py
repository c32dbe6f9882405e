"""Deliberately *incorrect* RDMA variant used for the Figure 4a ablation.

Section 5 shows that naively combining the RDMA data path with the
per-shard reconfiguration of Figure 1 is unsafe: because followers cannot
reject one-sided writes, a coordinator with a stale view of a shard's
configuration can persist a commit vote at a process that has already been
promoted to leader in a newer epoch, and two contradictory decisions can be
externalised for the same transaction (Figure 4a).  The fixed protocol
(:class:`repro.rdma.replica.RdmaShardReplica`) prevents this by
reconfiguring globally and closing RDMA connections during probing.

:class:`BrokenRdmaShardReplica` reproduces the naive combination, and is
nothing but that combination: the per-shard reconfiguration of the
message-passing protocol (:class:`repro.core.replica.ShardReplica`, whole)
with votes persisted by the RDMA transport of the fixed protocol
(:class:`repro.rdma.replica.RdmaVotePersistence`) — writes the receiver
never rejects — over connections that are never closed.  The coordinator's
``_shard_persisted`` check is Figure 1's, unchanged: it trusts a possibly
stale view of the shard's configuration, which is safe there only because
followers reject a stale ``ACCEPT`` (line 22).  The safety-ablation
benchmark and the corresponding tests drive the exact schedule of Figure 4a
against it and show that the TCS checker detects the violation — and that
the same schedule is harmless for both correct protocols.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.replica import ShardReplica
from repro.core.types import ProcessId
from repro.rdma.replica import RdmaVotePersistence
from repro.runtime.rdma import RdmaManager


class BrokenRdmaShardReplica(RdmaVotePersistence, ShardReplica):
    """Figure 1 reconfiguration + RDMA vote persistence = unsafe."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        RdmaManager.install(self)

    def open_to_all(self, pids: Iterable[ProcessId]) -> None:
        """Every process keeps RDMA access open to every other process
        forever — exactly the omission that breaks safety."""
        for pid in pids:
            if pid != self.pid:
                self.rdma.open(pid)
