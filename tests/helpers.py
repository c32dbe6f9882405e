"""Shared test helpers (importable, unlike ``conftest``).

Living in a module with a unique name avoids the classic pytest pitfall
where ``tests/conftest.py`` and ``benchmarks/conftest.py`` both shadow the
module name ``conftest`` and whichever directory pytest touches first wins.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import itertools
import pstats
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.certification import RETIRED, ConflictIndex, VoteIndex
from repro.core.serializability import (
    SerializabilityScheme,
    TransactionPayload,
    Version,
)
from repro.core.types import Decision, TxnId
from repro.scenarios import BatchSpec, ExecSpec, NetworkSpec, ScenarioSpec, WorkloadSpec
from repro.scenarios.spec import ReadSpec
from repro.spec import CheckResult, History
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

def scan_vote(scheme, shard, committed, prepared, payload) -> Decision:
    """The vote computed by a shard leader (Figure 1, line 12):
    ``f_s(L1, l) ⊓ g_s(L2, l)``, scanning both lists."""
    return scheme.shard_certify_committed(shard, committed, payload).meet(
        scheme.shard_certify_prepared(shard, prepared, payload)
    )


# ----------------------------------------------------------------------
# the paper's side conditions on a certification scheme
# ----------------------------------------------------------------------
# Checkers for requirements (1), (3), (4) and (5) of Section 2, which the
# hypothesis suite runs on every shipped scheme.

def check_distributive_global(scheme, payload_sets, payload) -> bool:
    """Check requirement (1): ``f(L1 ∪ L2, l) = f(L1, l) ⊓ f(L2, l)``."""
    for left, right in itertools.combinations(range(len(payload_sets)), 2):
        l1, l2 = list(payload_sets[left]), list(payload_sets[right])
        combined = scheme.global_certify(l1 + l2, payload)
        split = scheme.global_certify(l1, payload).meet(scheme.global_certify(l2, payload))
        if combined is not split:
            return False
    return True


def check_distributive_shard(scheme, shard, payload_sets, payload) -> bool:
    """Check distributivity of ``f_s`` and ``g_s`` on the given sets."""
    for left, right in itertools.combinations(range(len(payload_sets)), 2):
        l1, l2 = list(payload_sets[left]), list(payload_sets[right])
        for fn in (scheme.shard_certify_committed, scheme.shard_certify_prepared):
            combined = fn(shard, l1 + l2, payload)
            split = fn(shard, l1, payload).meet(fn(shard, l2, payload))
            if combined is not split:
                return False
    return True


def check_matching(scheme, committed, payload) -> bool:
    """Check requirement (3): the global decision equals the meet of the
    shard-local ``f_s`` decisions over projected payloads (``L | s`` lifted
    to sets of payloads)."""
    global_decision = scheme.global_certify(committed, payload)
    local_decision = Decision.meet_all(
        scheme.shard_certify_committed(
            shard,
            [scheme.project(each, shard) for each in committed],
            scheme.project(payload, shard),
        )
        for shard in scheme.shards()
    )
    return global_decision is local_decision


def check_prepared_stronger(scheme, shard, prepared, payload) -> bool:
    """Check requirement (4): ``g_s(L, l) = commit ⟹ f_s(L, l) = commit``."""
    if scheme.shard_certify_prepared(shard, prepared, payload) is Decision.COMMIT:
        return scheme.shard_certify_committed(shard, prepared, payload) is Decision.COMMIT
    return True


def check_prepared_commutes(scheme, shard, pending, payload) -> bool:
    """Check requirement (5): if ``l'`` may commit after pending ``l``,
    then ``l`` may commit after committed ``l'``."""
    if scheme.shard_certify_prepared(shard, [pending], payload) is Decision.COMMIT:
        return scheme.shard_certify_committed(shard, [payload], pending) is Decision.COMMIT
    return True


def check_empty_payload_commits(scheme, shard, committed) -> bool:
    """``∀s, L. f_s(L, ε) = commit``."""
    return (
        scheme.shard_certify_committed(shard, committed, scheme.empty_payload())
        is Decision.COMMIT
    )


class ScanVoteIndex(VoteIndex):
    """Reference :class:`VoteIndex`: keeps the committed and the
    prepared-to-commit payloads as plain lists and votes with
    :func:`scan_vote` over them — Figure 1, line 12, evaluated literally.
    The snapshot-read questions are answered by scanning the same lists."""

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
        return scan_vote(self.scheme, self.shard, self.committed, self.prepared, payload)

    def write_pending(self, obj) -> bool:
        return any(obj in other.written_objects for other in self.prepared)

    def latest_write(self, obj):
        writers = [other for other in self.committed if obj in other.written_objects]
        if not writers:
            return None
        # The first of the highest-versioned writers, as the index keeps.
        newest = max(writers, key=lambda other: other.commit_version)
        return newest.written_value(obj), newest.commit_version


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
# readings of the public record that only tests take
# ----------------------------------------------------------------------

def certification_order(replica) -> List[TxnId]:
    """The transactions in ``replica``'s certification order (with holes
    omitted), in slot order."""
    return [txn for _slot, txn, *_rest in replica.filled_slots() if txn is not None]


def committed_of(history: History) -> List[TxnId]:
    """The transactions of ``history`` that committed, in decide order."""
    return [txn for txn, decision in history.decided().items() if decision is Decision.COMMIT]


def effective_payload_of(history: History, txn: TxnId):
    """The payload the checkers certify ``txn`` against: the decide-time
    payload when one was attached (snapshot reads resolve their observed
    versions only at decide time), the certify-time payload otherwise."""
    decided = history.decided_payload_of(txn)
    return decided if decided is not None else history.payload_of(txn)


# ----------------------------------------------------------------------
# the batch TCS checker (the oracle of the online checker)
# ----------------------------------------------------------------------
# Section 2 decided from the recorded history in one pass: all-pairs
# conflict edges plus the all-pairs real-time relation, then Kahn's
# algorithm.  O(txns^2), so it checks test-sized histories only; the package
# ships ``IncrementalTCSChecker``, whose verdicts must equal this one's.

def _real_time_seqs(history: History) -> Tuple[Dict[TxnId, int], Dict[TxnId, int]]:
    """The sequence numbers of each transaction's certify and (first)
    decide event."""
    certified: Dict[TxnId, int] = {}
    decided: Dict[TxnId, int] = {}
    for event in history.events:
        (certified if event.kind == "certify" else decided)[event.txn] = event.seq
    return certified, decided


def real_time_precedes(history: History, first: TxnId, second: TxnId) -> bool:
    """``first ≺rt second``: first was decided before second was certified."""
    certified, decided = _real_time_seqs(history)
    return first in decided and second in certified and decided[first] < certified[second]


def real_time_pairs(
    history: History, txns: Optional[Iterable[TxnId]] = None
) -> List[Tuple[TxnId, TxnId]]:
    """All ``(a, b)`` with ``a ≺rt b`` among the given transactions (default:
    every certified one)."""
    certified, decided = _real_time_seqs(history)
    txns = list(txns) if txns is not None else list(certified)
    return [
        (a, b)
        for a in txns
        for b in txns
        if a != b and a in decided and b in certified and decided[a] < certified[b]
    ]


class TCSChecker:
    """Checks histories for correctness with respect to a certification
    scheme by building the whole linearization graph: a *conflict edge*
    ``b -> a`` whenever ``f({l_a}, l_b) = abort`` and a *real-time edge*
    ``a -> b`` whenever ``decide(a) ≺h certify(b)``.  By distributivity
    (requirement (1)) a legal linearization exists iff the graph is acyclic;
    :meth:`check_exhaustive` searches permutations instead, to validate the
    graph construction itself."""

    def __init__(self, scheme) -> None:
        self.scheme = scheme

    def check(self, history: History) -> CheckResult:
        """Check the committed projection of ``history`` (graph-based)."""
        if history.contradictions:
            txn, first, second = history.contradictions[0]
            return CheckResult(
                ok=False,
                reason=(
                    f"contradictory decisions externalised for {txn}: "
                    f"{first.value} vs {second.value}"
                ),
            )
        committed = committed_of(history)
        # Snapshot reads attach their resolved payload to the decide event;
        # effective_payload_of prefers it over the certify-time marker.
        payloads = {txn: effective_payload_of(history, txn) for txn in committed}
        edges = self._build_edges(history, committed, payloads)
        order, cycle = _topological_order(committed, edges)
        if cycle:
            return CheckResult(
                ok=False,
                reason="no legal linearization: conflict/real-time cycle",
                cycle=cycle,
            )
        # Re-validate the witness: guards against a non-distributive scheme
        # slipping through the graph construction.
        witness_ok, reason = self._legal(order, payloads)
        if not witness_ok:
            return CheckResult(ok=False, reason=reason)
        return CheckResult(ok=True, linearization=order)

    def check_exhaustive(self, history: History, limit: int = 8) -> CheckResult:
        """Brute-force search over permutations (only for small histories)."""
        committed = committed_of(history)
        if len(committed) > limit:
            raise ValueError(
                f"exhaustive check limited to {limit} committed transactions, "
                f"got {len(committed)}"
            )
        payloads = {txn: effective_payload_of(history, txn) for txn in committed}
        rt_pairs = set(real_time_pairs(history, committed))
        for order in itertools.permutations(committed):
            position = {txn: i for i, txn in enumerate(order)}
            if any(position[a] > position[b] for a, b in rt_pairs):
                continue
            ok, _ = self._legal(list(order), payloads)
            if ok:
                return CheckResult(ok=True, linearization=list(order))
        return CheckResult(ok=False, reason="no legal linearization (exhaustive)")

    def check_decisions_unique(self, history: History) -> CheckResult:
        """At most one decision per transaction (enforced while recording,
        re-checked here)."""
        seen: Dict[TxnId, Decision] = {}
        for event in history.events:
            if event.kind != "decide":
                continue
            if event.txn in seen and seen[event.txn] is not event.decision:
                return CheckResult(ok=False, reason=f"two decisions for {event.txn}")
            seen[event.txn] = event.decision
        return CheckResult(ok=True)

    def _build_edges(
        self, history: History, committed: Sequence[TxnId], payloads: Dict[TxnId, object]
    ) -> Dict[TxnId, Set[TxnId]]:
        edges: Dict[TxnId, Set[TxnId]] = {txn: set() for txn in committed}
        # Real-time edges: a must precede b.
        for a, b in real_time_pairs(history, committed):
            edges[a].add(b)
        # Conflict edges: if committing a before b would abort b, then b must
        # precede a in any legal linearization.
        for a in committed:
            for b in committed:
                if a == b:
                    continue
                if self.scheme.global_certify([payloads[a]], payloads[b]) is Decision.ABORT:
                    edges[b].add(a)
        return edges

    def _legal(
        self, order: Sequence[TxnId], payloads: Dict[TxnId, object]
    ) -> Tuple[bool, str]:
        placed: List[object] = []
        for txn in order:
            decision = self.scheme.global_certify(placed, payloads[txn])
            if decision is not Decision.COMMIT:
                return False, f"transaction {txn} cannot commit at its position"
            placed.append(payloads[txn])
        return True, ""


def oracle_check(runner) -> CheckResult:
    """The batch oracle's verdict on the history a finished
    :class:`~repro.scenarios.ScenarioRunner` recorded."""
    cluster = runner.cluster
    return TCSChecker(cluster.scheme).check(cluster.history)


def _topological_order(
    nodes: Sequence[TxnId], edges: Dict[TxnId, Set[TxnId]]
) -> Tuple[List[TxnId], List[TxnId]]:
    """Kahn's algorithm; returns (order, []) or ([], cycle_witness).  Ties
    go to the smallest transaction id (a min-heap of the ready set), so the
    witness linearization is deterministic."""
    indegree: Dict[TxnId, int] = {node: 0 for node in nodes}
    for dsts in edges.values():
        for dst in dsts:
            if dst in indegree:
                indegree[dst] += 1
    ready = [node for node, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: List[TxnId] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for dst in edges.get(node, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                heapq.heappush(ready, dst)
    if len(order) == len(nodes):
        return order, []
    ordered = set(order)
    return [], [node for node in nodes if node not in ordered]


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
        for slot, txn, _payload, _vote, decision in replica.filled_slots():
            if decision is not None:
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
            for _slot, txn, _payload, _vote, decision in replica.filled_slots():
                if txn is None or decision is None:
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
