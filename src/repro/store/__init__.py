"""Transactional key-value store built on top of the TCS.

This is the "transaction processing system with optimistic concurrency
control" that the paper's introduction motivates: transactions are executed
speculatively against the latest committed versions, their read/write sets
are submitted to the TCS for certification, and the writes of committed
transactions are applied back to the store.

* :mod:`repro.store.kv` — the client-side key-value store of each object's
  latest committed version, which transactions execute against (a shard
  leader serves snapshot reads from its vote index, not from a store);
* :mod:`repro.store.executor` — optimistic transaction execution and the
  :class:`~repro.store.executor.TransactionalStore` facade that couples the
  executor to a :class:`~repro.cluster.Cluster` (or the baseline cluster).
"""

from repro.store.kv import VersionedKVStore, VersionedValue
from repro.store.executor import (
    TransactionContext,
    TransactionOutcome,
    TransactionalStore,
)

__all__ = [
    "VersionedKVStore",
    "VersionedValue",
    "TransactionContext",
    "TransactionOutcome",
    "TransactionalStore",
]
