"""Concrete certification schemes: serializability and snapshot isolation.

This module instantiates the framework of :mod:`repro.core.certification`
with the transaction domain of paper Section 2: a payload is a triple
``⟨R, W, Vc⟩`` of a versioned read set, a write set and a commit version.

* :class:`SerializabilityScheme` implements the classical backward
  optimistic-concurrency-control check of equation (2): a transaction
  commits iff none of the versions it read have been overwritten by a
  committed transaction, and its lock-style ``g_s`` aborts on read-write
  and write-read conflicts with prepared transactions.
* :class:`SnapshotIsolationScheme` implements a write-write-conflict-only
  variant, demonstrating that the protocols are parametric in the isolation
  level.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.certification import RETIRED, CertificationScheme, ConflictIndex, VoteIndex
from repro.core.types import Decision, ShardId, TxnId


ObjectId = str
Value = object

# Versions are totally ordered.  We use (counter, tie-break) pairs so that
# independent clients can mint distinct versions without coordination.
Version = Tuple[int, str]

VERSION_ZERO: Version = (0, "")


def version_after(versions: Iterable[Version], tiebreak: str) -> Version:
    """Mint a version strictly greater than every version in ``versions``."""
    highest = max(versions, default=VERSION_ZERO)
    return (highest[0] + 1, tiebreak)


class _ObjectSets:
    """The object sets ``read_objects`` / ``written_objects`` of a payload,
    kept in slots that are not dataclass fields (so neither ``fields()``
    nor the digest and wire texts see them).

    Payloads are immutable and these membership sets sit on every
    certification hot path (the payload's own sorted tuples answer ``in``
    only by a scan), so each is built on first read: an unset slot raises
    ``AttributeError``, which falls through to ``__getattr__``, which fills
    it.  Every later read is a plain slot load, with no Python frame.
    """

    __slots__ = ("read_objects", "written_objects")

    def __getattr__(self, name: str) -> Set[ObjectId]:
        if name == "read_objects":
            objects = {obj for obj, _ in self.read_set}
        elif name == "written_objects":
            objects = {obj for obj, _ in self.write_set}
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        object.__setattr__(self, name, objects)
        return objects


# Marks a payload field that is a set in the paper and a canonical tuple
# here: the history digest renders it as the set it stands for.
_SET_FIELD = {"canonical": "set"}


# The sort key of a set's canonical tuple.
_OBJECT_ID = itemgetter(0)


def _check_canonical(pairs: Any, kind: str, repeated: str) -> None:
    """Refuse a read or write set that is not a tuple sorted by object id
    with each object once: ``repeated`` is the error for an object that
    appears in two different pairs."""
    if type(pairs) is not tuple:
        raise ValueError(
            f"{kind} set must be a tuple sorted by object id, "
            f"not {type(pairs).__name__}"
        )
    before = pairs[0] if pairs else None
    for after in pairs[1:]:
        if not before[0] < after[0]:
            if before == after:
                raise ValueError(f"{kind} set holds {before!r} twice")
            if before[0] == after[0]:
                raise ValueError(repeated.format(before[0]))
            raise ValueError(
                f"{kind} set is not sorted by object id: "
                f"{before[0]!r} before {after[0]!r}"
            )
        before = after


@dataclass(frozen=True, slots=True)
class TransactionPayload(_ObjectSets):
    """The result of a transaction's optimistic execution: ``⟨R, W, Vc⟩``.

    * ``read_set`` — objects with the versions that were read (one version
      per object);
    * ``write_set`` — objects with the values to be installed on commit;
    * ``commit_version`` — the version assigned to the writes, strictly
      greater than every version read.

    The two sets are stored as tuples of pairs sorted by object id, each
    object once: a tuple of one pair is 48 bytes where a ``frozenset`` of
    any size is at least 216, and the order makes equality, hashing and
    iteration independent of ``PYTHONHASHSEED``.  :meth:`make` builds that
    form from any iterable; the digest still renders each as a set.

    The paper requires every written object to have been read and the commit
    version to dominate all read versions; ``validate`` enforces both, and
    the canonical form.
    """

    read_set: Tuple[Tuple[ObjectId, Version], ...] = field(default=(), metadata=_SET_FIELD)
    write_set: Tuple[Tuple[ObjectId, Value], ...] = field(default=(), metadata=_SET_FIELD)
    commit_version: Version = VERSION_ZERO

    @staticmethod
    def make(
        reads: Iterable[Tuple[ObjectId, Version]] = (),
        writes: Iterable[Tuple[ObjectId, Value]] = (),
        commit_version: Optional[Version] = None,
        tiebreak: str = "",
    ) -> "TransactionPayload":
        # Without repeats, sorted by object id: a well-formed set holds each
        # object once, so the order is total and no value is compared.
        reads = tuple(sorted(dict.fromkeys(reads), key=_OBJECT_ID))
        writes = tuple(sorted(dict.fromkeys(writes), key=_OBJECT_ID))
        if commit_version is None:
            commit_version = version_after((v for _, v in reads), tiebreak)
        payload = TransactionPayload(
            read_set=reads, write_set=writes, commit_version=commit_version
        )
        payload.validate()
        return payload

    def validate(self) -> None:
        """Enforce the well-formedness conditions of Section 2 and the
        canonical form of the two sets."""
        _check_canonical(self.read_set, "read", "object {!r} read at more than one version")
        _check_canonical(self.write_set, "write", "write set contains object {!r} more than once")
        read_versions = dict(self.read_set)
        for obj, _ in self.write_set:
            if obj not in read_versions:
                raise ValueError(f"written object {obj!r} was not read")
        for _, version in self.read_set:
            if not self.commit_version > version:
                raise ValueError(
                    "commit version must be greater than every version read"
                )

    def is_empty(self) -> bool:
        """True for the empty payload ``ε`` (no reads, no writes)."""
        return not self.read_set and not self.write_set

    def read_version(self, obj: ObjectId) -> Optional[Version]:
        for read_obj, version in self.read_set:
            if read_obj == obj:
                return version
        return None


EMPTY_PAYLOAD = TransactionPayload()


@dataclass(frozen=True, slots=True)
class SnapshotRead:
    """The certify-time placeholder payload of a snapshot (lease-guarded)
    read-only transaction.

    A snapshot read bypasses certification, so at invocation time the client
    knows only *which* objects it is asking about — the versions it will
    observe are determined by the serving replica.  The history records this
    marker at certify time (pinning the transaction's real-time birth to its
    invocation, exactly as for certified transactions) and attaches the
    versioned read-only :class:`TransactionPayload` to the decide event once
    the reply arrives (see ``History.record_decide``); the checkers prefer
    the decide-time payload when one is present.
    """

    objects: Tuple[ObjectId, ...] = ()


class ShardingFunction:
    """Maps objects to the shard that manages them (``Objs``)."""

    def shard_of(self, obj: ObjectId) -> ShardId:
        raise NotImplementedError

    def key_for_shard(self, shard: ShardId, hint: str = "key", attempts: int = 10_000) -> ObjectId:
        """Find a key this function maps to ``shard`` (probing ``hint-N``).

        Shared by the test helpers, the benchmark harness and the scenario
        runner for building shard-targeted payloads.
        """
        for i in range(attempts):
            candidate = f"{hint}-{i}"
            if self.shard_of(candidate) == shard:
                return candidate
        raise ValueError(f"no key found for shard {shard!r} after {attempts} attempts")


class KeyHashSharding(ShardingFunction):
    """Deterministic hash partitioning of objects across a fixed shard list."""

    def __init__(self, shards: Sequence[ShardId]) -> None:
        if not shards:
            raise ValueError("at least one shard is required")
        self._shards = tuple(shards)
        # shard_of is a pure function of the key and sits on every hot path
        # (payload projection, vote filtering, coordinator routing), so the
        # digest is computed once per distinct key.
        self._memo: Dict[ObjectId, ShardId] = {}

    @property
    def shards(self) -> Tuple[ShardId, ...]:
        return self._shards

    def shard_of(self, obj: ObjectId) -> ShardId:
        shard = self._memo.get(obj)
        if shard is None:
            # Stable across runs and processes (unlike the built-in ``hash``
            # on strings, which is salted per interpreter).
            digest = 0
            for char in obj:
                digest = (digest * 131 + ord(char)) % (2**31)
            shard = self._memo[obj] = self._shards[digest % len(self._shards)]
        return shard


class _ReadWriteScheme(CertificationScheme[TransactionPayload]):
    """Shared plumbing for schemes over ``⟨R, W, Vc⟩`` payloads."""

    def __init__(self, sharding: ShardingFunction) -> None:
        self.sharding = sharding

    def shards(self) -> Sequence[ShardId]:
        return self.sharding.shards  # type: ignore[attr-defined]

    def shards_of(self, payload: TransactionPayload) -> Set[ShardId]:
        # Read off the payload's own sets: building its cached object sets
        # here would keep two more sets alive for as long as the payload.
        shard_of = self.sharding.shard_of
        return {shard_of(obj) for obj, _ in chain(payload.read_set, payload.write_set)}

    def project(self, payload: TransactionPayload, shard: ShardId) -> TransactionPayload:
        # Filtering a sorted tuple keeps it sorted: no sort, no new set.
        shard_of = self.sharding.shard_of
        reads = tuple(pair for pair in payload.read_set if shard_of(pair[0]) == shard)
        writes = tuple(pair for pair in payload.write_set if shard_of(pair[0]) == shard)
        if len(reads) == len(payload.read_set) and len(writes) == len(payload.write_set):
            # Fully shard-local payload: l|s = l.  Returning the original
            # object (not an equal copy) lets downstream consumers share its
            # cached object-set views.
            return payload
        return TransactionPayload(
            read_set=reads, write_set=writes, commit_version=payload.commit_version
        )

    def empty_payload(self) -> TransactionPayload:
        return EMPTY_PAYLOAD

    def is_empty(self, payload: TransactionPayload) -> bool:
        return payload.is_empty()


class _ReadWriteVoteIndex(VoteIndex[TransactionPayload]):
    """Per-object conflict state shared by both concrete schemes.

    * ``committed_writer[obj]`` — ``(commit_version, value)`` of the
      committed write of ``obj`` with the highest commit version ("exists a
      committed writer with version > v" collapses to one max-version
      comparison, and the snapshot-read path returns the value).  An
      aborted payload writes nothing, and the writer's payload is not kept:
      a replica drops a slot's payload once the slot is decided;
    * ``prepared_readers`` / ``prepared_writers`` — reference counts of
      prepared-to-commit transactions reading / writing each object.

    Payloads arriving at a shard leader are already projected to the shard,
    but ``vote`` still filters the candidate's objects through the sharding
    function, mirroring the scan-based ``f_s`` / ``g_s`` exactly.
    """

    def __init__(self, sharding: ShardingFunction, shard: ShardId) -> None:
        self.sharding = sharding
        self.shard = shard
        self.committed_writer: Dict[ObjectId, Tuple[Version, Value]] = {}
        self.prepared_readers: Dict[ObjectId, int] = {}
        self.prepared_writers: Dict[ObjectId, int] = {}

    def add_committed(self, payload: TransactionPayload) -> None:
        version = payload.commit_version
        committed_writer = self.committed_writer
        for obj, value in payload.write_set:
            current = committed_writer.get(obj)
            if current is None or version > current[0]:
                committed_writer[obj] = (version, value)

    def settled(self) -> Dict[ObjectId, Tuple[Version, Value]]:
        return dict(self.committed_writer)

    def load_settled(self, settled: Dict[ObjectId, Tuple[Version, Value]]) -> None:
        self.committed_writer = dict(settled)

    def write_pending(self, obj: ObjectId) -> bool:
        return obj in self.prepared_writers

    def latest_write(self, obj: ObjectId) -> Optional[Tuple[Value, Version]]:
        writer = self.committed_writer.get(obj)
        if writer is None:
            return None
        version, value = writer
        return value, version

    def add_prepared(self, payload: TransactionPayload) -> None:
        for obj, _ in payload.read_set:
            self.prepared_readers[obj] = self.prepared_readers.get(obj, 0) + 1
        for obj, _ in payload.write_set:
            self.prepared_writers[obj] = self.prepared_writers.get(obj, 0) + 1

    def remove_prepared(self, payload: TransactionPayload) -> None:
        for obj, _ in payload.read_set:
            remaining = self.prepared_readers[obj] - 1
            if remaining:
                self.prepared_readers[obj] = remaining
            else:
                del self.prepared_readers[obj]
        for obj, _ in payload.write_set:
            remaining = self.prepared_writers[obj] - 1
            if remaining:
                self.prepared_writers[obj] = remaining
            else:
                del self.prepared_writers[obj]


class _SerializabilityVoteIndex(_ReadWriteVoteIndex):
    def vote(self, payload: TransactionPayload) -> Decision:
        shard_of = self.sharding.shard_of
        # f_s: no committed transaction overwrote a version we read;
        # g_s (read side): no prepared transaction writes an object we read.
        for obj, version in payload.read_set:
            if shard_of(obj) != self.shard:
                continue
            committed = self.committed_writer.get(obj)
            if committed is not None and committed[0] > version:
                return Decision.ABORT
            if obj in self.prepared_writers:
                return Decision.ABORT
        # g_s (write side): no prepared transaction read an object we write.
        for obj, _ in payload.write_set:
            if shard_of(obj) != self.shard:
                continue
            if obj in self.prepared_readers:
                return Decision.ABORT
        return Decision.COMMIT


class _SnapshotIsolationVoteIndex(_ReadWriteVoteIndex):
    def vote(self, payload: TransactionPayload) -> Decision:
        shard_of = self.sharding.shard_of
        # Write-write conflicts only: f_s compares the version read for each
        # written object against committed writers, g_s checks prepared writers.
        for obj, _ in payload.write_set:
            if shard_of(obj) != self.shard:
                continue
            if obj in self.prepared_writers:
                return Decision.ABORT
            version = payload.read_version(obj)
            if version is None:
                continue
            committed = self.committed_writer.get(obj)
            if committed is not None and committed[0] > version:
                return Decision.ABORT
        return Decision.COMMIT


class _VersionedTxnLists:
    """Per-object sorted ``(version, txn)`` entries with range queries.

    The conflict-index building block: ``below(obj, v)`` / ``above(obj, v)``
    answer "which registered transactions touched ``obj`` at a version
    strictly below/above ``v``" in O(log n + answer) via bisection.
    Entries are kept sorted on version only (insertion order breaks version
    ties), so queries are strict on the version component.

    ``add`` bisects and then ``list.insert``s: O(n) worst case per entry
    when a version lands mid-list (a committed transaction may legally carry
    a read version older than already-indexed ones), but versions mostly
    arrive increasing, so inserts are append-like in practice and the
    memmove constant is tiny compared to a pointer-based ordered map.
    """

    def __init__(self) -> None:
        self._versions: Dict[ObjectId, List[Version]] = {}
        self._txns: Dict[ObjectId, List[TxnId]] = {}

    def add(self, obj: ObjectId, version: Version, txn: TxnId) -> None:
        versions = self._versions.setdefault(obj, [])
        txns = self._txns.setdefault(obj, [])
        at = bisect_right(versions, version)
        versions.insert(at, version)
        txns.insert(at, txn)

    def below(self, obj: ObjectId, version: Version) -> List[TxnId]:
        versions = self._versions.get(obj)
        if not versions:
            return []
        return self._txns[obj][: bisect_left(versions, version)]

    def above(self, obj: ObjectId, version: Version) -> List[TxnId]:
        versions = self._versions.get(obj)
        if not versions:
            return []
        return self._txns[obj][bisect_right(versions, version) :]

    def remove(self, obj: ObjectId, version: Version, txn: TxnId) -> None:
        """Drop one ``(version, txn)`` entry (bisect to the version run, then
        scan it for the transaction; runs are short in practice)."""
        versions = self._versions.get(obj)
        if not versions:
            return
        txns = self._txns[obj]
        for at in range(bisect_left(versions, version), bisect_right(versions, version)):
            if txns[at] == txn:
                del versions[at]
                del txns[at]
                break
        if not versions:
            del self._versions[obj]
            del self._txns[obj]


class _SerializabilityConflictIndex(ConflictIndex[TransactionPayload]):
    """Conflict edges for the serializability ``f`` of equation (2).

    ``f({l_a}, l_b) = abort`` iff ``a`` wrote an object ``b`` read, at a
    commit version above ``b``'s read version.  Indexing committed writers
    by commit version and readers by read version turns the all-pairs sweep
    into per-object version-range lookups.
    """

    def __init__(self) -> None:
        self._writers = _VersionedTxnLists()  # commit version of each write
        self._readers = _VersionedTxnLists()  # version at which each read saw the object
        # Highest retired write version per object: enough to *flag* a new
        # payload that read below a garbage-collected write (a conflict with
        # retired history) without keeping the writer's identity around.
        self._retired_writes: Dict[ObjectId, Version] = {}

    def register(self, txn, payload):
        successors: List[TxnId] = []
        predecessors: List[TxnId] = []
        for obj, version in payload.read_set:
            horizon = self._retired_writes.get(obj)
            if horizon is not None and horizon > version:
                successors.append(RETIRED)
            successors.extend(self._writers.above(obj, version))
        for obj, _ in payload.write_set:
            predecessors.extend(self._readers.below(obj, payload.commit_version))
        for obj, version in payload.read_set:
            self._readers.add(obj, version, txn)
        for obj, _ in payload.write_set:
            self._writers.add(obj, payload.commit_version, txn)
        return successors, predecessors

    def retire(self, txn, payload):
        for obj, version in payload.read_set:
            self._readers.remove(obj, version, txn)
        for obj, _ in payload.write_set:
            self._writers.remove(obj, payload.commit_version, txn)
            horizon = self._retired_writes.get(obj)
            if horizon is None or payload.commit_version > horizon:
                self._retired_writes[obj] = payload.commit_version


class _SnapshotIsolationConflictIndex(ConflictIndex[TransactionPayload]):
    """Conflict edges for the write-write-only snapshot-isolation ``f``.

    Only written objects matter: ``f({l_a}, l_b) = abort`` iff both write
    ``obj`` and ``a``'s commit version is above the version ``b`` read for
    ``obj``.  Writers that did not read the object they write never abort.
    """

    def __init__(self) -> None:
        self._writers = _VersionedTxnLists()  # commit version of each write
        self._writer_reads = _VersionedTxnLists()  # read version of each written object
        self._retired_writes: Dict[ObjectId, Version] = {}

    def register(self, txn, payload):
        successors: List[TxnId] = []
        predecessors: List[TxnId] = []
        for obj, _ in payload.write_set:
            version = payload.read_version(obj)
            if version is not None:
                horizon = self._retired_writes.get(obj)
                if horizon is not None and horizon > version:
                    successors.append(RETIRED)
                successors.extend(self._writers.above(obj, version))
            predecessors.extend(self._writer_reads.below(obj, payload.commit_version))
        for obj, _ in payload.write_set:
            self._writers.add(obj, payload.commit_version, txn)
            version = payload.read_version(obj)
            if version is not None:
                self._writer_reads.add(obj, version, txn)
        return successors, predecessors

    def retire(self, txn, payload):
        for obj, _ in payload.write_set:
            self._writers.remove(obj, payload.commit_version, txn)
            version = payload.read_version(obj)
            if version is not None:
                self._writer_reads.remove(obj, version, txn)
            horizon = self._retired_writes.get(obj)
            if horizon is None or payload.commit_version > horizon:
                self._retired_writes[obj] = payload.commit_version


class SerializabilityScheme(_ReadWriteScheme):
    """The serializability certification functions of Section 2.

    * ``f(L, l) = commit`` iff no version read by ``l`` has been overwritten
      by a transaction in ``L`` (equation (2));
    * ``f_s`` is the same check restricted to the objects of shard ``s``;
    * ``g_s`` aborts ``l`` if it read an object written by a prepared
      transaction, or writes an object read by a prepared transaction
      (lock-acquisition semantics).
    """

    def make_vote_index(self, shard: ShardId) -> _SerializabilityVoteIndex:
        return _SerializabilityVoteIndex(self.sharding, shard)

    def make_conflict_index(self) -> _SerializabilityConflictIndex:
        return _SerializabilityConflictIndex()

    def global_certify(
        self, committed: Iterable[TransactionPayload], payload: TransactionPayload
    ) -> Decision:
        committed = list(committed)
        for obj, version in payload.read_set:
            for other in committed:
                if obj in other.written_objects and other.commit_version > version:
                    return Decision.ABORT
        return Decision.COMMIT

    def shard_certify_committed(
        self,
        shard: ShardId,
        committed: Iterable[TransactionPayload],
        payload: TransactionPayload,
    ) -> Decision:
        committed = list(committed)
        for obj, version in payload.read_set:
            if self.sharding.shard_of(obj) != shard:
                continue
            for other in committed:
                if obj in other.written_objects and other.commit_version > version:
                    return Decision.ABORT
        return Decision.COMMIT

    def shard_certify_prepared(
        self,
        shard: ShardId,
        prepared: Iterable[TransactionPayload],
        payload: TransactionPayload,
    ) -> Decision:
        prepared = list(prepared)
        for obj in payload.read_objects:
            if self.sharding.shard_of(obj) != shard:
                continue
            for other in prepared:
                if obj in other.written_objects:
                    return Decision.ABORT
        for obj in payload.written_objects:
            if self.sharding.shard_of(obj) != shard:
                continue
            for other in prepared:
                if obj in other.read_objects:
                    return Decision.ABORT
        return Decision.COMMIT


class SnapshotIsolationScheme(_ReadWriteScheme):
    """A write-write-conflict-only scheme (snapshot-isolation style).

    Demonstrates that the protocols are parametric in the isolation level:
    ``f`` aborts only when a *written* object has been overwritten since it
    was read (first-committer-wins), and ``g_s`` aborts only on write-write
    conflicts with prepared transactions.
    """

    def make_vote_index(self, shard: ShardId) -> _SnapshotIsolationVoteIndex:
        return _SnapshotIsolationVoteIndex(self.sharding, shard)

    def make_conflict_index(self) -> _SnapshotIsolationConflictIndex:
        return _SnapshotIsolationConflictIndex()

    def global_certify(
        self, committed: Iterable[TransactionPayload], payload: TransactionPayload
    ) -> Decision:
        committed = list(committed)
        for obj in payload.written_objects:
            version = payload.read_version(obj)
            if version is None:
                continue
            for other in committed:
                if obj in other.written_objects and other.commit_version > version:
                    return Decision.ABORT
        return Decision.COMMIT

    def shard_certify_committed(
        self,
        shard: ShardId,
        committed: Iterable[TransactionPayload],
        payload: TransactionPayload,
    ) -> Decision:
        committed = list(committed)
        for obj in payload.written_objects:
            if self.sharding.shard_of(obj) != shard:
                continue
            version = payload.read_version(obj)
            if version is None:
                continue
            for other in committed:
                if obj in other.written_objects and other.commit_version > version:
                    return Decision.ABORT
        return Decision.COMMIT

    def shard_certify_prepared(
        self,
        shard: ShardId,
        prepared: Iterable[TransactionPayload],
        payload: TransactionPayload,
    ) -> Decision:
        prepared = list(prepared)
        for obj in payload.written_objects:
            if self.sharding.shard_of(obj) != shard:
                continue
            for other in prepared:
                if obj in other.written_objects:
                    return Decision.ABORT
        return Decision.COMMIT
