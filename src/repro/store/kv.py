"""Key-value store of the latest committed version of each object.

Objects are associated with a totally ordered set of versions (Section 2).
A payload ``⟨R, W, Vc⟩`` reads the latest committed versions, so the store
keeps one entry per object, as FaRM keeps one version in each object's
header: its version-zero seed, or the newest version applied.  This is the
client-side store transactions execute against; a shard leader's snapshot
reads are served from its vote index (``repro.core.reads``), not from a
store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.serializability import ObjectId, TransactionPayload, Version, VERSION_ZERO


@dataclass(frozen=True, slots=True)
class VersionedValue:
    """One version of one object."""

    value: object
    version: Version


class VersionedKVStore:
    """The latest committed value of each object.

    ``seeds`` is the version-zero mapping it was given, kept by reference
    (a run's store and read engines share one); applied versions are kept
    apart, and a seed never hides one.
    """

    def __init__(self, initial: Optional[Mapping[ObjectId, object]] = None) -> None:
        self.seeds: Mapping[ObjectId, object] = {} if initial is None else initial
        self._latest: Dict[ObjectId, VersionedValue] = {}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, obj: ObjectId) -> VersionedValue:
        """Latest committed version of ``obj`` (missing objects read as None@0)."""
        latest = self._latest.get(obj)
        if latest is None:
            return VersionedValue(self.seeds.get(obj), VERSION_ZERO)
        return latest

    def version_of(self, obj: ObjectId) -> Version:
        return self.read(obj).version

    def value_of(self, obj: ObjectId, default: object = None) -> object:
        value = self.read(obj).value
        return default if value is None else value

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def apply_payload(self, payload: TransactionPayload) -> None:
        """Install the writes of a committed transaction at its commit version.

        Versions are installed in order; out-of-order application of an older
        commit version than the object's latest is rejected because the TCS
        guarantees committed transactions admit a serial order consistent
        with their certification.
        """
        version = payload.commit_version
        for obj, value in payload.write_set:
            latest = self._latest.get(obj)
            if latest is not None and latest.version >= version:
                raise ValueError(
                    f"out-of-order application for {obj!r}: "
                    f"{version} after {latest.version}"
                )
            self._latest[obj] = VersionedValue(value, version)
