"""Static transaction metadata: the ``client(t)`` and ``shards(t)`` functions.

The paper's system model assumes two static functions known to every
process: ``client : T -> P`` giving the client that issued a transaction and
``shards : T -> 2^S`` giving the shards that must certify it.  In a running
system these are derivable from the transaction identifier (e.g. encoded in
it); we model them as a :class:`TransactionDirectory` shared *by reference*
between all processes of a cluster.  The directory is append-only and
written exactly once per transaction, by its issuing client, before the
transaction enters the protocol — so sharing it does not constitute a
communication channel between processes.  A snapshot read the shard leader
serves never enters certification, so it gets no entry; one the leader
refuses is registered when its client certifies it instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.core.types import ProcessId, ShardId, TxnId


@dataclass(frozen=True, slots=True)
class TxnInfo:
    """Static per-transaction metadata.  One record stands for every
    transaction of the same client and shard set (the directory's key is
    the transaction)."""

    client: ProcessId
    shards: FrozenSet[ShardId]


class TransactionDirectory:
    """Append-only registry implementing ``client(t)`` and ``shards(t)``."""

    def __init__(self) -> None:
        self._info: Dict[TxnId, TxnInfo] = {}
        # One frozenset per distinct shard set and one record per distinct
        # (client, shard set), shared by every transaction (and coordinator
        # entry) with it: a cluster has few of either.
        self._shard_sets: Dict[FrozenSet[ShardId], FrozenSet[ShardId]] = {}
        self._records: Dict[Tuple[ProcessId, FrozenSet[ShardId]], TxnInfo] = {}

    def register(self, txn: TxnId, client: ProcessId, shards) -> TxnInfo:
        """Record the static metadata for ``txn``.

        Re-registration with identical metadata is idempotent; conflicting
        re-registration raises, because the functions are meant to be static.
        """
        shards = frozenset(shards)
        info = self._records.get((client, shards))
        if info is None:
            shards = self._shard_sets.setdefault(shards, shards)
            info = self._records[client, shards] = TxnInfo(client=client, shards=shards)
        existing = self._info.get(txn)
        if existing is not None:
            if existing is not info:
                raise ValueError(f"conflicting registration for transaction {txn!r}")
            return existing
        self._info[txn] = info
        return info

    def known(self, txn: TxnId) -> bool:
        return txn in self._info

    def client_of(self, txn: TxnId) -> ProcessId:
        """``client(t)``."""
        return self._info[txn].client

    def shards_of(self, txn: TxnId) -> FrozenSet[ShardId]:
        """``shards(t)``."""
        return self._info[txn].shards

    def __len__(self) -> int:
        return len(self._info)
