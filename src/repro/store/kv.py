"""Multi-version key-value store.

Objects are associated with a totally ordered set of versions (Section 2).
The store keeps the full version history of each object so that the
optimistic executor can read the latest committed version and so that tests
can inspect how committed payloads were applied.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.serializability import ObjectId, TransactionPayload, Version, VERSION_ZERO


@dataclass(frozen=True, slots=True)
class VersionedValue:
    """One version of one object."""

    value: object
    version: Version


class VersionedKVStore:
    """A multi-version store of committed object values."""

    def __init__(self, initial: Optional[Dict[ObjectId, object]] = None) -> None:
        self._history: Dict[ObjectId, List[VersionedValue]] = {}
        if initial:
            for obj, value in initial.items():
                self._history[obj] = [VersionedValue(value=value, version=VERSION_ZERO)]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, obj: ObjectId) -> VersionedValue:
        """Latest committed version of ``obj`` (missing objects read as None@0)."""
        versions = self._history.get(obj)
        if not versions:
            return VersionedValue(value=None, version=VERSION_ZERO)
        return versions[-1]

    def read_at(self, obj: ObjectId, version: Version) -> Optional[VersionedValue]:
        """The newest version of ``obj`` that is <= ``version``.

        Version lists are kept sorted ascending, so the lookup is a single
        bisection (O(log n)) instead of the old linear scan.  Snapshot reads
        overwhelmingly ask at or above the object's newest version, so that
        case short-circuits without bisecting or slicing at all.
        """
        versions = self._history.get(obj)
        if not versions:
            return None
        newest = versions[-1]
        if newest.version <= version:  # hot path: reading a fresh snapshot
            return newest
        at = bisect_right(versions, version, key=lambda entry: entry.version)
        return versions[at - 1] if at else None

    def version_of(self, obj: ObjectId) -> Version:
        return self.read(obj).version

    def value_of(self, obj: ObjectId, default: object = None) -> object:
        value = self.read(obj).value
        return default if value is None else value

    def history_of(self, obj: ObjectId) -> Tuple[VersionedValue, ...]:
        return tuple(self._history.get(obj, ()))

    def objects(self) -> Iterable[ObjectId]:
        return self._history.keys()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def seed(self, obj: ObjectId, value: object) -> None:
        """Install an initial (version-zero) value for an object."""
        self._history.setdefault(obj, []).insert(
            0, VersionedValue(value=value, version=VERSION_ZERO)
        )

    def install(self, obj: ObjectId, value: object, version: Version) -> bool:
        """Install one committed value at ``version``, tolerating out-of-order
        arrival.

        Replica-side applied stores learn of commits in slot-decision order,
        which per object is not necessarily commit-version order (decisions
        for different slots race across coordinators).  ``install`` therefore
        bisect-inserts into the sorted version list instead of appending, and
        is idempotent on duplicate versions (NEW_STATE rebuilds replay the
        whole log).  Returns True when a new version was actually added.
        """
        versions = self._history.setdefault(obj, [])
        if versions and versions[-1].version < version:  # hot path: in order
            versions.append(VersionedValue(value=value, version=version))
            return True
        at = bisect_right(versions, version, key=lambda entry: entry.version)
        if at and versions[at - 1].version == version:
            return False
        versions.insert(at, VersionedValue(value=value, version=version))
        return True

    def install_payload(self, payload: TransactionPayload) -> None:
        """Install every write of a committed payload (see :meth:`install`)."""
        for obj, value in payload.write_set:
            self.install(obj, value, payload.commit_version)

    def apply_payload(self, payload: TransactionPayload) -> None:
        """Install the writes of a committed transaction at its commit version.

        Versions are installed in order; out-of-order application of an older
        commit version than the object's latest is rejected because the TCS
        guarantees committed transactions admit a serial order consistent
        with their certification.
        """
        for obj, value in payload.write_set:
            versions = self._history.setdefault(obj, [])
            if versions and versions[-1].version >= payload.commit_version:
                raise ValueError(
                    f"out-of-order application for {obj!r}: "
                    f"{payload.commit_version} after {versions[-1].version}"
                )
            versions.append(VersionedValue(value=value, version=payload.commit_version))

    def __len__(self) -> int:
        return len(self._history)
