"""Unit tests for the TCS specification: histories, and the batch checker
that is the online checker's oracle (``helpers.TCSChecker``)."""

import pytest

from repro.core.serializability import KeyHashSharding, SerializabilityScheme
from repro.core.types import Decision
from helpers import (
    TCSChecker,
    committed_of,
    events_of,
    payload,
    read_payload,
    real_time_pairs,
    real_time_precedes,
    recorded_history,
    rw_payload,
)


@pytest.fixture
def scheme():
    return SerializabilityScheme(KeyHashSharding(["shard-0", "shard-1"]))


def checker(scheme):
    return TCSChecker(scheme)


# ----------------------------------------------------------------------
# history recording
# ----------------------------------------------------------------------
def test_history_records_events_in_order():
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), time=1.0)
    history.record_decide("t1", Decision.COMMIT, time=5.0)
    assert [e.kind for e in events_of(history)] == ["certify", "decide"]
    assert history.decision_of("t1") is Decision.COMMIT
    assert not history.pending()
    assert committed_of(history) == ["t1"]


@pytest.mark.parametrize("decided", [False, True])
def test_history_rejects_double_certify(decided):
    """Pending or decided, a transaction is certified once."""
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), time=1.0)
    if decided:
        history.record_decide("t1", Decision.COMMIT, time=1.5)
    with pytest.raises(ValueError):
        history.record_certify("t1", rw_payload("x"), time=2.0)


def test_history_rejects_decide_without_certify():
    history = recorded_history()
    with pytest.raises(ValueError):
        history.record_decide("t1", Decision.COMMIT, time=1.0)


def test_history_pending_and_completeness():
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), time=1.0)
    history.record_certify("t2", rw_payload("y"), time=1.0)
    history.record_decide("t1", Decision.ABORT, time=2.0)
    assert history.pending() == {"t2"}
    assert sorted(history.certified()) == ["t1", "t2"]
    assert committed_of(history) == []


def test_history_duplicate_decide_is_idempotent():
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), time=1.0)
    history.record_decide("t1", Decision.COMMIT, time=2.0)
    history.record_decide("t1", Decision.COMMIT, time=3.0)
    assert len([e for e in events_of(history) if e.kind == "decide"]) == 1
    assert history.contradictions == []


def test_history_records_contradictions():
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), time=1.0)
    history.record_decide("t1", Decision.COMMIT, time=2.0)
    history.record_decide("t1", Decision.ABORT, time=3.0)
    assert history.contradictions == [("t1", Decision.COMMIT, Decision.ABORT)]


def test_real_time_order():
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), time=1.0)
    history.record_decide("t1", Decision.COMMIT, time=2.0)
    history.record_certify("t2", rw_payload("y"), time=3.0)
    history.record_decide("t2", Decision.COMMIT, time=4.0)
    assert real_time_precedes(history, "t1", "t2")
    assert not real_time_precedes(history, "t2", "t1")
    assert real_time_pairs(history) == [("t1", "t2")]


def test_concurrent_transactions_have_no_real_time_order():
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), time=1.0)
    history.record_certify("t2", rw_payload("y"), time=1.0)
    history.record_decide("t1", Decision.COMMIT, time=2.0)
    history.record_decide("t2", Decision.COMMIT, time=2.0)
    assert real_time_pairs(history) == []


# ----------------------------------------------------------------------
# checker
# ----------------------------------------------------------------------
def _sequential(scheme, entries):
    """Build a sequential history certify/decide one at a time."""
    history = recorded_history()
    time = 0.0
    for txn, p, decision in entries:
        history.record_certify(txn, p, time)
        time += 1
        history.record_decide(txn, decision, time)
        time += 1
    return history


def test_checker_accepts_conflict_free_history(scheme):
    history = _sequential(
        scheme,
        [
            ("t1", rw_payload("x", tiebreak="a"), Decision.COMMIT),
            ("t2", rw_payload("y", tiebreak="b"), Decision.COMMIT),
        ],
    )
    result = checker(scheme).check(history)
    assert result.ok
    assert set(result.linearization) == {"t1", "t2"}


def test_checker_accepts_version_chain(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    t2 = payload(reads=[("x", t1.commit_version)], writes=[("x", 2)], tiebreak="b")
    history = _sequential(
        scheme, [("t1", t1, Decision.COMMIT), ("t2", t2, Decision.COMMIT)]
    )
    assert checker(scheme).check(history).ok


def test_checker_rejects_two_committed_stale_writers(scheme):
    """Two transactions that both read x@0 and both write x cannot both commit."""
    t1 = rw_payload("x", version=0, tiebreak="a")
    t2 = rw_payload("x", version=0, tiebreak="b")
    history = recorded_history()
    history.record_certify("t1", t1, 0.0)
    history.record_certify("t2", t2, 0.0)
    history.record_decide("t1", Decision.COMMIT, 1.0)
    history.record_decide("t2", Decision.COMMIT, 1.0)
    result = checker(scheme).check(history)
    assert not result.ok
    assert result.cycle


def test_checker_respects_real_time_order(scheme):
    """A committed stale read is fine if concurrent, but not if it started
    after the conflicting writer was already decided."""
    writer = rw_payload("x", version=0, tiebreak="w")
    stale_reader = read_payload("x", version=0)
    # Concurrent: reader certified before the writer's decision -> legal
    # linearization puts the reader first.
    history = recorded_history()
    history.record_certify("w", writer, 0.0)
    history.record_certify("r", stale_reader, 0.0)
    history.record_decide("w", Decision.COMMIT, 1.0)
    history.record_decide("r", Decision.COMMIT, 1.0)
    assert checker(scheme).check(history).ok
    # Real-time ordered: reader certified after the writer decided -> cannot
    # be legally linearized before it -> violation.
    late = recorded_history()
    late.record_certify("w", writer, 0.0)
    late.record_decide("w", Decision.COMMIT, 1.0)
    late.record_certify("r", stale_reader, 2.0)
    late.record_decide("r", Decision.COMMIT, 3.0)
    result = checker(scheme).check(late)
    assert not result.ok


def test_checker_ignores_aborted_transactions(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    t2 = rw_payload("x", version=0, tiebreak="b")
    history = _sequential(
        scheme, [("t1", t1, Decision.COMMIT), ("t2", t2, Decision.ABORT)]
    )
    assert checker(scheme).check(history).ok


def test_checker_flags_contradictory_decisions(scheme):
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), 0.0)
    history.record_decide("t1", Decision.COMMIT, 1.0)
    history.record_decide("t1", Decision.ABORT, 2.0)
    result = checker(scheme).check(history)
    assert not result.ok
    assert "contradictory" in result.reason


def test_checker_empty_history_ok(scheme):
    assert checker(scheme).check(recorded_history()).ok


def test_exhaustive_checker_agrees_with_graph_checker(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    t2 = rw_payload("y", version=0, tiebreak="b")
    t3 = read_payload("x", version=0)
    history = recorded_history()
    for name, p in [("t1", t1), ("t2", t2), ("t3", t3)]:
        history.record_certify(name, p, 0.0)
    for name in ["t1", "t2", "t3"]:
        history.record_decide(name, Decision.COMMIT, 1.0)
    graph = checker(scheme).check(history)
    brute = checker(scheme).check_exhaustive(history)
    assert graph.ok == brute.ok is True


def test_exhaustive_checker_rejects_impossible_history(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    t2 = rw_payload("x", version=0, tiebreak="b")
    history = recorded_history()
    history.record_certify("t1", t1, 0.0)
    history.record_certify("t2", t2, 0.0)
    history.record_decide("t1", Decision.COMMIT, 1.0)
    history.record_decide("t2", Decision.COMMIT, 1.0)
    assert not checker(scheme).check_exhaustive(history).ok


def test_exhaustive_checker_size_limit(scheme):
    history = recorded_history()
    for i in range(9):
        history.record_certify(f"t{i}", rw_payload(f"k{i}", tiebreak=str(i)), 0.0)
        history.record_decide(f"t{i}", Decision.COMMIT, 1.0)
    with pytest.raises(ValueError):
        checker(scheme).check_exhaustive(history, limit=8)


def test_check_decisions_unique(scheme):
    history = recorded_history()
    history.record_certify("t1", rw_payload("x"), 0.0)
    history.record_decide("t1", Decision.COMMIT, 1.0)
    assert checker(scheme).check_decisions_unique(history).ok
