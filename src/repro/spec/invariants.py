"""Run-time checks of the key protocol invariants (paper Figure 3 / Figure 5).

These checks take a snapshot of the replica states of a cluster (typically
at quiescence) and verify the state-level consequences of the invariants the
correctness proof relies on:

* **log agreement** (from Invariants 1, 2, 6, 9): replicas of the same shard
  that are in the same epoch agree on the transaction, payload and vote of
  every slot they both have filled, and a follower's certification order is
  a hole-y prefix of its leader's;
* **unique slots** (Invariant 10): a replica never places the same
  transaction in two slots;
* **decision agreement** (Invariant 4a): replicas of a shard agree on the
  decision recorded for each slot;
* **system-wide decision agreement** (Invariant 4b): every process — and the
  client-observed history — agrees on the decision of each transaction;
* **commit implies commit-vote** (Invariant 12b): a slot decided commit has
  a commit vote wherever the vote is recorded.

Violations are returned (not raised) so that tests and the safety-ablation
benchmark can assert on their presence or absence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.core.types import Decision, Phase, TxnId
from repro.spec.history import History, HistorySubscription


@dataclass(frozen=True)
class InvariantViolation:
    """One detected violation."""

    invariant: str
    shard: Optional[str]
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        where = f" [shard {self.shard}]" if self.shard else ""
        return f"{self.invariant}{where}: {self.detail}"


class InvariantMonitor:
    """Incremental feed for the history-derived part of the invariant checks.

    Subscribes to a :class:`History`'s contradictory decides and records a
    violation the moment one is externalised — the same event feed the
    online TCS checker runs on, so quiescence-time invariant checking no
    longer rescans the history.  The client-observed decisions (the
    ``<client-history>`` contribution to Invariant 4b) are read from the
    history itself (``history.decided()``), which keeps each once.
    """

    def __init__(self, history: Optional[History] = None) -> None:
        self.history: Optional[History] = None
        self.violations: List[InvariantViolation] = []
        self._subscription: Optional[HistorySubscription] = None
        if history is not None:
            self.attach(history)

    def attach(self, history: History) -> "InvariantMonitor":
        """Subscribe to ``history``, which must not hold an event yet (it
        keeps none to replay: ``RuntimeError`` names the count)."""
        if self._subscription is not None:
            raise RuntimeError("monitor is already attached to a history")
        self._subscription = history.subscribe(
            on_contradiction=self._on_contradiction, every_event=True
        )
        self.history = history
        return self

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None

    def _on_contradiction(self, txn: TxnId, first: Decision, second: Decision) -> None:
        self.violations.append(
            InvariantViolation(
                invariant="global-decision-agreement (Inv. 4b)",
                shard=None,
                detail=(
                    f"transaction {txn}: contradictory client-observed decisions "
                    f"{first.value} vs {second.value}"
                ),
            )
        )


def check_invariants(
    replicas_by_shard: Dict[str, Sequence],
    history: Optional[History] = None,
    include_crashed: bool = False,
    monitor: Optional[InvariantMonitor] = None,
) -> List[InvariantViolation]:
    """Check all state-level invariants; return the list of violations.

    The client-observed decisions for Invariant 4b come from the history
    ``monitor`` is attached to when one is given, from ``history``
    otherwise.
    """
    violations: List[InvariantViolation] = []
    for shard, replicas in replicas_by_shard.items():
        live = [r for r in replicas if include_crashed or not r.crashed]
        violations.extend(_check_unique_slots(shard, live))
        violations.extend(_check_log_agreement(shard, live))
        violations.extend(_check_slot_decision_agreement(shard, live))
        violations.extend(_check_commit_vote(shard, live))
    if monitor is not None:
        history = monitor.history
    client_decisions = history.decided() if history is not None else None
    violations.extend(
        _check_global_decision_agreement(replicas_by_shard, client_decisions, include_crashed)
    )
    if monitor is not None:
        violations.extend(monitor.violations)
    return violations


# ----------------------------------------------------------------------
# per-shard checks
# ----------------------------------------------------------------------
def _check_unique_slots(shard: str, replicas: Iterable) -> List[InvariantViolation]:
    violations = []
    for replica in replicas:
        seen: Dict[str, int] = {}
        for slot, txn, _payload, _vote, _dec in replica.filled_slots():
            if txn is None:
                continue
            if txn in seen:
                violations.append(
                    InvariantViolation(
                        invariant="unique-slots (Inv. 10)",
                        shard=shard,
                        detail=f"{replica.pid}: transaction {txn} in slots {seen[txn]} and {slot}",
                    )
                )
            seen[txn] = slot
    return violations


def _check_log_agreement(shard: str, replicas: Sequence) -> List[InvariantViolation]:
    violations = []
    replicas = list(replicas)
    for i, a in enumerate(replicas):
        for b in replicas[i + 1 :]:
            if a.my_epoch != b.my_epoch:
                continue
            # Slot by slot over the shorter pair of lists: the slots where
            # both hold a transaction.
            for slot, (txn_a, vote_a, txn_b, vote_b) in enumerate(
                zip(a.txn_arr, a.vote_arr, b.txn_arr, b.vote_arr)
            ):
                if txn_a is None or txn_b is None:
                    continue
                if txn_a != txn_b:
                    violations.append(
                        InvariantViolation(
                            invariant="log-agreement (Inv. 1/2/6)",
                            shard=shard,
                            detail=f"slot {slot}: {a.pid} has {txn_a} but {b.pid} has {txn_b}",
                        )
                    )
                    continue
                if vote_a is not None and vote_b is not None and vote_a != vote_b:
                    violations.append(
                        InvariantViolation(
                            invariant="vote-agreement (Inv. 1/2/6)",
                            shard=shard,
                            detail=(
                                f"slot {slot} ({txn_a}): {a.pid} voted "
                                f"{vote_a} but {b.pid} voted {vote_b}"
                            ),
                        )
                    )
    return violations


def _check_slot_decision_agreement(shard: str, replicas: Sequence) -> List[InvariantViolation]:
    # One flat pass records each slot's first decision; only the slots some
    # replica disagrees on get the per-replica observations of the report.
    first: Dict[int, Decision] = {}
    split: Set[int] = set()
    for replica in replicas:
        for slot, _txn, _payload, _vote, decision in replica.filled_slots():
            if decision is not None and first.setdefault(slot, decision) != decision:
                split.add(slot)
    violations: List[InvariantViolation] = []
    if not split:
        return violations
    for slot in first:
        if slot not in split:
            continue
        per_replica = {
            replica.pid: (replica.txn_arr[slot], replica.dec_arr[slot])
            for replica in replicas
            if replica.phase(slot) is Phase.DECIDED
        }
        violations.append(
            InvariantViolation(
                invariant="slot-decision-agreement (Inv. 4a)",
                shard=shard,
                detail=f"slot {slot}: replicas recorded decisions {per_replica}",
            )
        )
    return violations


def _check_commit_vote(shard: str, replicas: Sequence) -> List[InvariantViolation]:
    violations = []
    for replica in replicas:
        for slot, _txn, _payload, vote, decision in replica.filled_slots():
            if decision is not Decision.COMMIT:
                continue
            if vote is not None and vote is not Decision.COMMIT:
                violations.append(
                    InvariantViolation(
                        invariant="commit-implies-commit-vote (Inv. 12b)",
                        shard=shard,
                        detail=f"{replica.pid}: slot {slot} decided commit but voted {vote}",
                    )
                )
    return violations


# ----------------------------------------------------------------------
# system-wide checks
# ----------------------------------------------------------------------
def _check_global_decision_agreement(
    replicas_by_shard: Dict[str, Sequence],
    client_decisions: Optional[Mapping[TxnId, Decision]],
    include_crashed: bool,
) -> List[InvariantViolation]:
    # The two passes of Inv. 4a, per transaction.  A replica holding one
    # transaction in two slots reports the decision of the later slot, so a
    # candidate from the first pass is confirmed on its final observations.
    replicas = [
        replica
        for members in replicas_by_shard.values()
        for replica in members
        if include_crashed or not replica.crashed
    ]
    first: Dict[TxnId, Decision] = {}
    split: Set[TxnId] = set()
    for replica in replicas:
        for _slot, txn, _payload, _vote, decision in replica.filled_slots():
            if (
                txn is not None
                and decision is not None
                and first.setdefault(txn, decision) != decision
            ):
                split.add(txn)
    if client_decisions is not None:
        for txn, decision in client_decisions.items():
            if decision is not None and first.setdefault(txn, decision) != decision:
                split.add(txn)
    if not split:
        return []
    per_txn: Dict[TxnId, Dict[str, Decision]] = {txn: {} for txn in first if txn in split}
    for replica in replicas:
        for _slot, txn, _payload, _vote, decision in replica.filled_slots():
            observations = per_txn.get(txn)
            if observations is not None and decision is not None:
                observations[f"{replica.pid}"] = decision
    if client_decisions is not None:
        for txn, observations in per_txn.items():
            decision = client_decisions.get(txn)
            if decision is not None:
                observations["<client-history>"] = decision
    return [
        InvariantViolation(
            invariant="global-decision-agreement (Inv. 4b)",
            shard=None,
            detail=f"transaction {txn}: {observations}",
        )
        for txn, observations in per_txn.items()
        if len(set(observations.values())) > 1
    ]
