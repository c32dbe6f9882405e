"""Shared test helpers (importable, unlike ``conftest``).

Living in a module with a unique name avoids the classic pytest pitfall
where ``tests/conftest.py`` and ``benchmarks/conftest.py`` both shadow the
module name ``conftest`` and whichever directory pytest touches first wins.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
from typing import Iterable, Optional, Tuple

from repro.core.certification import RETIRED, ConflictIndex, VoteIndex
from repro.core.serializability import (
    SerializabilityScheme,
    TransactionPayload,
    Version,
)
from repro.core.types import Decision
from repro.scenarios import BatchSpec, ExecSpec, NetworkSpec, ScenarioSpec, WorkloadSpec
from repro.scenarios.spec import ReadSpec
from repro.spec.invariants import InvariantViolation


def payload(
    reads: Iterable[Tuple[str, Version]] = (),
    writes: Iterable[Tuple[str, object]] = (),
    commit_version: Optional[Version] = None,
    tiebreak: str = "t",
) -> TransactionPayload:
    """Shorthand for building well-formed payloads in tests."""
    return TransactionPayload.make(
        reads=reads, writes=writes, commit_version=commit_version, tiebreak=tiebreak
    )


def rw_payload(key: str, version: int = 0, value: object = 1, tiebreak: str = "t") -> TransactionPayload:
    """A payload that reads ``key`` at ``version`` and writes it."""
    return payload(
        reads=[(key, (version, ""))], writes=[(key, value)], tiebreak=tiebreak
    )


def read_payload(key: str, version: int = 0) -> TransactionPayload:
    return payload(reads=[(key, (version, ""))])


def shard_key(scheme: SerializabilityScheme, shard: str, hint: str = "key") -> str:
    """Find a key that the scheme maps to the given shard."""
    return scheme.sharding.key_for_shard(shard, hint=hint)


# ----------------------------------------------------------------------
# reference implementations of the two scheme indexes
# ----------------------------------------------------------------------
# Every CertificationScheme must supply a VoteIndex and a ConflictIndex; the
# O(n) scans below are the definitions those indexes must equal.  They used
# to live in ``src/`` as fallbacks for a scheme without an index; no shipped
# scheme ever took them, so they live where they are used — as the oracles
# ``reference_scheme`` plugs into the real leaders, state machines and
# checker in place of the incremental indexes.

class ScanVoteIndex(VoteIndex):
    """Reference :class:`VoteIndex`: keeps the committed and the
    prepared-to-commit payloads as plain lists and votes with
    ``scheme.vote`` over them — Figure 1, line 12, evaluated literally."""

    def __init__(self, scheme, shard) -> None:
        self.scheme, self.shard = scheme, shard
        self.committed: list = []
        self.prepared: list = []

    def add_committed(self, payload) -> None:
        self.committed.append(payload)

    def add_prepared(self, payload) -> None:
        self.prepared.append(payload)

    def remove_prepared(self, payload) -> None:
        self.prepared.remove(payload)

    def vote(self, payload) -> Decision:
        return self.scheme.vote(self.shard, self.committed, self.prepared, payload)


class PairwiseConflictIndex(ConflictIndex):
    """Reference :class:`ConflictIndex`: scans every registered payload per
    registration (O(n) per transaction, matching the batch checker's total
    O(n^2) edge construction), for any :class:`CertificationScheme`.

    Supports :meth:`retire`: retired entries are dropped (identity and all),
    keeping only their distinct payloads as an anonymous retired set.  Only
    the *successor* direction is checked against it — "the new payload must
    precede retired history", which the checker turns into an immediate
    violation via :data:`RETIRED` — because a retired *predecessor* is
    consistent by construction and the checker ignores it.  Without scheme
    knowledge the retired payloads cannot be compacted into per-object
    horizons, so memory is bounded by the number of distinct retired
    payloads (deduplicated when hashable) rather than O(1) per object; the
    live scan, however, shrinks to the unretired entries.
    """

    def __init__(self, scheme) -> None:
        self.scheme = scheme
        self._entries: list = []
        self._retired_payloads: list = []
        self._retired_seen: set = set()

    def register(self, txn, payload):
        successors = [
            other
            for other, existing in self._entries
            if self.scheme.global_certify([existing], payload) is Decision.ABORT
        ]
        predecessors = [
            other
            for other, existing in self._entries
            if self.scheme.global_certify([payload], existing) is Decision.ABORT
        ]
        for existing in self._retired_payloads:
            if self.scheme.global_certify([existing], payload) is Decision.ABORT:
                # One flag suffices: any conflict ordering the new payload
                # before retired history is already a violation.
                successors.append(RETIRED)
                break
        self._entries.append((txn, payload))
        return successors, predecessors

    def retire(self, txn, payload):
        """Returns whether ``txn`` was registered (``payload`` may be None:
        it is then recovered from the entry)."""
        for at, (other, existing) in enumerate(self._entries):
            if other == txn:
                retired = existing if payload is None else payload
                del self._entries[at]
                try:
                    fresh = retired not in self._retired_seen
                    if fresh:
                        self._retired_seen.add(retired)
                except TypeError:  # unhashable payload type: keep every copy
                    fresh = True
                if fresh:
                    self._retired_payloads.append(retired)
                return True
        return False

    @property
    def live_entries(self) -> int:
        return len(self._entries)

    @property
    def retired_payload_count(self) -> int:
        return len(self._retired_payloads)


def reference_scheme(scheme_cls, sharding):
    """``scheme_cls`` with both incremental indexes replaced by the O(n)
    references above: same certification functions, definitional indexes."""

    class _Reference(scheme_cls):
        def make_vote_index(self, shard):
            return ScanVoteIndex(self, shard)

        def make_conflict_index(self):
            return PairwiseConflictIndex(self)

    return _Reference(sharding)


# ----------------------------------------------------------------------
# reference implementations of the decision-agreement checks
# ----------------------------------------------------------------------
# Invariants 4a and 4b as first written: one observation dict per slot and
# per transaction.  ``repro.spec.invariants`` builds those only for the
# slots and transactions that disagree; its violations must equal these.

def oracle_slot_decision_agreement(shard, replicas):
    violations = []
    decisions = {}
    for replica in replicas:
        for slot, decision in replica.dec_arr.items():
            txn = replica.txn_arr.get(slot)
            decisions.setdefault(slot, {})[replica.pid] = (txn, decision)
    for slot, per_replica in decisions.items():
        observed = {decision for _, decision in per_replica.values()}
        if len(observed) > 1:
            violations.append(
                InvariantViolation(
                    invariant="slot-decision-agreement (Inv. 4a)",
                    shard=shard,
                    detail=f"slot {slot}: replicas recorded decisions {per_replica}",
                )
            )
    return violations


def oracle_global_decision_agreement(replicas_by_shard, client_decisions, include_crashed):
    violations = []
    per_txn = {}
    for replicas in replicas_by_shard.values():
        for replica in replicas:
            if replica.crashed and not include_crashed:
                continue
            for slot, decision in replica.dec_arr.items():
                txn = replica.txn_arr.get(slot)
                if txn is None:
                    continue
                per_txn.setdefault(txn, {})[f"{replica.pid}"] = decision
    if client_decisions is not None:
        for txn, decision in client_decisions.items():
            if decision is not None:
                per_txn.setdefault(txn, {})["<client-history>"] = decision
    for txn, observations in per_txn.items():
        if len(set(observations.values())) > 1:
            violations.append(
                InvariantViolation(
                    invariant="global-decision-agreement (Inv. 4b)",
                    shard=None,
                    detail=f"transaction {txn}: {observations}",
                )
            )
    return violations


# ----------------------------------------------------------------------
# work gated by counts, not by the clock (rows of the calls/txn golden)
# ----------------------------------------------------------------------
def calls(function, *args):
    """All calls, Python and builtin, made inside ``function(*args)``.

    Garbage left by earlier work is collected first, so that no finalizer
    or weakref callback of someone else's objects runs inside the count.
    """
    gc.collect()
    profiler = cProfile.Profile()
    profiler.enable()
    function(*args)
    profiler.disable()
    return pstats.Stats(profiler).total_calls


# Five of the benchmark's shapes (bench/tcs_workloads.py) at 1000
# transactions: the three that stress the fingerprint and the payload sizer,
# the 2PC-over-Paxos baseline, and mp-steady under the parallel-shards
# spelling, which the runner ignores.
SHAPES = {
    "mp-steady": dict(workload=WorkloadSpec(txns=1000, batch=50, num_keys=2000)),
    "mp-steady-grouped": dict(
        workload=WorkloadSpec(txns=1000, batch=50, num_keys=2000),
        execution=ExecSpec(mode="parallel-shards", groups=2),
    ),
    "read-mostly-lease": dict(
        workload=WorkloadSpec(txns=1000, batch=50, num_keys=2000, read_ratio=0.9),
        read=ReadSpec(mode="snapshot"),
    ),
    "rdma-batched-bw": dict(
        protocol="rdma",
        workload=WorkloadSpec(
            kind="zipfian", txns=1000, batch=64, num_keys=20000, theta=0.7,
            reads_per_txn=3, writes_per_txn=2,
        ),
        batch=BatchSpec(size=16),
        network=NetworkSpec(bandwidth=1000, overhead=0.1),
    ),
    "baseline-steady": dict(
        protocol="2pc-paxos",
        replicas_per_shard=3,
        workload=WorkloadSpec(txns=1000, batch=50, num_keys=2000),
    ),
}  # fmt: skip


def shape_spec(shape: str) -> ScenarioSpec:
    """The scenario of one benchmark shape: 4 shards, seed 1."""
    settings = dict(num_shards=4, replicas_per_shard=2, seed=1)
    settings.update(SHAPES[shape])
    return ScenarioSpec(name=shape, **settings)
