"""Tests for the online TCS checker: differential equivalence with the batch
oracle on randomized histories, the retiring checker against one that keeps
everything, violation detection at the introducing event, the scheme
conflict indexes against their pairwise reference, and the incremental
invariant monitor."""

import random

import pytest

from repro.core.certification import RETIRED
from repro.core.serializability import (
    KeyHashSharding,
    SerializabilityScheme,
    SnapshotIsolationScheme,
    TransactionPayload,
)
from repro.core.types import Decision
from repro.spec.history import History
from repro.spec.incremental import IncrementalTCSChecker
from repro.spec.invariants import InvariantMonitor, check_invariants

from helpers import (
    PairwiseConflictIndex,
    TCSChecker,
    calls,
    committed_of,
    oracle_check,
    payload,
    real_time_pairs,
    reference_scheme,
)


SHARDS = ["shard-0", "shard-1"]


@pytest.fixture
def scheme():
    return SerializabilityScheme(KeyHashSharding(SHARDS))


def _pairwise_scheme(sharding, scheme_cls=SerializabilityScheme):
    """A scheme whose conflict index is the pairwise reference scan (the
    online checker must reach the same verdicts over it as over the
    incremental index)."""
    return reference_scheme(scheme_cls, sharding)


# ----------------------------------------------------------------------
# randomized differential: batch oracle vs online checker
# ----------------------------------------------------------------------
def _random_history(scheme, seed: int, n: int = 20, keys: int = 4) -> History:
    """A random interleaving of certify/decide events.

    Decisions mostly follow the certification function evaluated against the
    transactions committed so far (which yields a correct history — the
    decide order is a legal linearization), but are randomly flipped with
    small probability, so both safe and unsafe histories arise."""
    rng = random.Random(seed)
    history = History()
    versions = {f"k{i}": (0, "") for i in range(keys)}
    committed_payloads = []
    pending = []
    made = 0
    while made < n or pending:
        if made < n and (not pending or rng.random() < 0.55):
            made += 1
            txn = f"t{made}"
            chosen = rng.sample(list(versions), rng.randint(1, 3))
            reads = [
                (k, versions[k] if rng.random() < 0.7 else (max(0, versions[k][0] - 1), ""))
                for k in chosen
            ]
            writes = [(k, made) for k, _ in reads[: rng.randint(0, len(chosen))]]
            try:
                p = TransactionPayload.make(reads=reads, writes=writes, tiebreak=txn)
            except ValueError:
                made -= 1
                continue
            history.record_certify(txn, p, time=float(len(history.events)))
            pending.append((txn, p))
        else:
            txn, p = pending.pop(rng.randrange(len(pending)))
            decision = scheme.global_certify(committed_payloads, p)
            if rng.random() < 0.08:  # inject occasional wrong decisions
                decision = Decision.COMMIT if decision is Decision.ABORT else Decision.ABORT
            history.record_decide(txn, decision, time=float(len(history.events)))
            if decision is Decision.COMMIT:
                committed_payloads.append(p)
                for key, _ in p.write_set:
                    if p.commit_version > versions[key]:
                        versions[key] = p.commit_version
    return history


@pytest.mark.parametrize(
    "scheme_factory",
    [
        lambda: SerializabilityScheme(KeyHashSharding(SHARDS)),
        lambda: SnapshotIsolationScheme(KeyHashSharding(SHARDS)),
        lambda: _pairwise_scheme(KeyHashSharding(SHARDS)),
        lambda: _pairwise_scheme(KeyHashSharding(SHARDS), SnapshotIsolationScheme),
    ],
    ids=["serializability", "snapshot-isolation", "pairwise-reference", "pairwise-reference-si"],
)
def test_differential_batch_vs_incremental(scheme_factory):
    scheme = scheme_factory()
    verdicts = {True: 0, False: 0}
    for seed in range(60):
        history = _random_history(scheme, seed)
        batch = TCSChecker(scheme).check(history)
        # gc=False: the witness below must be the whole linearization.
        online = IncrementalTCSChecker(scheme, history=history, gc=False).result()
        assert batch.ok == online.ok, (
            f"seed {seed}: batch={batch.ok} ({batch.reason}) "
            f"online={online.ok} ({online.reason})"
        )
        verdicts[batch.ok] += 1
        if online.ok:
            # The online witness must itself be a legal linearization.
            payloads = {t: history.payload_of(t) for t in online.linearization}
            legal, reason = TCSChecker(scheme)._legal(online.linearization, payloads)
            assert legal, f"seed {seed}: {reason}"
            position = {t: i for i, t in enumerate(online.linearization)}
            for a, b in real_time_pairs(history, online.linearization):
                assert position[a] < position[b], f"seed {seed}: rt order broken"
    # The random histories genuinely exercised both verdicts.
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_live_subscription_equals_replay(scheme):
    """Attaching before events are recorded (the runner's mode) must reach
    the same verdict as replaying a finished history."""
    for seed in (3, 7, 11):
        recorded = _random_history(scheme, seed)
        live_history = History()
        live = IncrementalTCSChecker(scheme, history=live_history)
        for event in recorded.events:
            if event.kind == "certify":
                live_history.record_certify(event.txn, event.payload, event.time)
            else:
                live_history.record_decide(event.txn, event.decision, event.time)
        replayed = IncrementalTCSChecker(scheme, history=recorded)
        assert live.ok == replayed.ok
        assert live.result().cycle == replayed.result().cycle
        live.detach()
        replayed.detach()
        assert not (
            recorded._certify_listeners
            or recorded._decide_listeners
            or recorded._contradiction_listeners
        )


# ----------------------------------------------------------------------
# violations are reported at the event that introduces them
# ----------------------------------------------------------------------
def test_a_wave_of_decisions_shares_one_frontier(scheme):
    """Three commits decided back to back get one frontier, appended by the
    next certify, with one edge from each of them."""
    checker = IncrementalTCSChecker(scheme, gc=False)
    wave = [f"t{i}" for i in range(3)]
    for txn in wave:
        checker.observe_certify(txn, payload(reads=[(txn, (0, ""))], tiebreak=txn))
    for txn in wave:
        checker.observe_decide(txn, Decision.COMMIT)
    assert checker.stats["nodes"] == 3 and checker.stats["edges"] == 0
    checker.observe_certify("next", payload(reads=[("next", (0, ""))], tiebreak="n"))
    assert checker.stats["nodes"] == 3 + 1 and checker.stats["edges"] == 3
    checker.observe_decide("next", Decision.COMMIT)  # its birth edge
    assert checker.stats["nodes"] == 5 and checker.stats["edges"] == 4
    assert checker.linearization()[-1] == "next"


def test_conflict_cycle_detected_at_introducing_decide(scheme):
    """Two mutually conflicting transactions both commit: the cycle exists
    the moment the second one is decided."""
    checker = IncrementalTCSChecker(scheme)
    a = payload(reads=[("x", (0, ""))], writes=[("x", 1)], tiebreak="a")
    b = payload(reads=[("x", (0, ""))], writes=[("x", 2)], tiebreak="b")
    checker.observe_certify("ta", a)
    checker.observe_certify("tb", b)
    checker.observe_decide("ta", Decision.COMMIT)
    assert checker.ok  # one commit alone is fine
    checker.observe_decide("tb", Decision.COMMIT)
    assert not checker.ok
    assert checker.violation_at_event == 3  # 0-based: the fourth observed event
    assert set(checker.result().cycle) == {"ta", "tb"}
    assert "cycle" in checker.result().reason


def test_real_time_cycle_detected_online(scheme):
    """A transaction that commits after reading a version already overwritten
    by a *decided* transaction closes a real-time/conflict cycle."""
    checker = IncrementalTCSChecker(scheme)
    writer = payload(reads=[("x", (0, ""))], writes=[("x", 1)], tiebreak="w")
    checker.observe_certify("tw", writer)
    checker.observe_decide("tw", Decision.COMMIT)
    # Certified *after* tw decided, but still read x at version 0.
    stale = payload(reads=[("x", (0, ""))], writes=[("x", 9)], tiebreak="s")
    checker.observe_certify("ts", stale)
    assert checker.ok
    checker.observe_decide("ts", Decision.COMMIT)
    assert not checker.ok
    assert "ts" in checker.result().cycle and "tw" in checker.result().cycle
    # Batch oracle agrees on the same history.
    history = History()
    history.record_certify("tw", writer, 0.0)
    history.record_decide("tw", Decision.COMMIT, 1.0)
    history.record_certify("ts", stale, 2.0)
    history.record_decide("ts", Decision.COMMIT, 3.0)
    assert not TCSChecker(scheme).check(history).ok


def test_contradiction_flagged_as_violation(scheme):
    history = History()
    checker = IncrementalTCSChecker(scheme, history=history)
    history.record_certify("t1", payload(reads=[("x", (0, ""))], tiebreak="t"), 0.0)
    history.record_decide("t1", Decision.COMMIT, 1.0)
    assert checker.ok
    history.record_decide("t1", Decision.ABORT, 2.0)
    assert not checker.ok
    assert "contradictory" in checker.violation.reason
    assert checker.violation.cycle == ["t1"]


def test_checker_freezes_after_first_violation(scheme):
    checker = IncrementalTCSChecker(scheme)
    a = payload(reads=[("x", (0, ""))], writes=[("x", 1)], tiebreak="a")
    b = payload(reads=[("x", (0, ""))], writes=[("x", 2)], tiebreak="b")
    checker.observe_certify("ta", a)
    checker.observe_certify("tb", b)
    checker.observe_decide("ta", Decision.COMMIT)
    checker.observe_decide("tb", Decision.COMMIT)
    first = checker.result()
    checker.observe_certify("tc", payload(reads=[("y", (0, ""))], tiebreak="c"))
    checker.observe_decide("tc", Decision.COMMIT)
    assert checker.result() is first


def test_attach_twice_rejected(scheme):
    history = History()
    checker = IncrementalTCSChecker(scheme, history=history)
    with pytest.raises(RuntimeError, match="already attached"):
        checker.attach(history)
    checker.detach()
    checker2 = IncrementalTCSChecker(scheme)
    checker2.attach(history)
    checker2.detach()


def test_pairwise_fallback_index_matches_scheme(scheme):
    index = PairwiseConflictIndex(scheme)
    a = payload(reads=[("x", (0, ""))], writes=[("x", 1)], tiebreak="a")
    stale = payload(reads=[("x", (0, ""))], writes=[("x", 2)], tiebreak="b")
    assert index.register("ta", a) == ([], [])
    successors, predecessors = index.register("tb", stale)
    # ta's payload aborts tb (overwrote x@0) and vice versa: mutual conflict.
    assert successors == ["ta"] and predecessors == ["ta"]


def _random_payloads(seed: int, n: int = 40, keys: int = 4):
    """Committed-looking payloads over a few hot keys: reads at the current
    or a stale version, writes of a subset of the keys read."""
    rng = random.Random(seed)
    versions = {f"k{i}": (0, "") for i in range(keys)}
    made = []
    while len(made) < n:
        chosen = rng.sample(list(versions), rng.randint(1, 3))
        reads = [
            (k, versions[k] if rng.random() < 0.6 else (max(0, versions[k][0] - 1), ""))
            for k in chosen
        ]
        writes = [(k, len(made)) for k, _ in reads[: rng.randint(0, len(chosen))]]
        try:
            p = TransactionPayload.make(reads=reads, writes=writes, tiebreak=f"t{len(made)}")
        except ValueError:
            continue
        made.append(p)
        for key, _ in p.write_set:
            versions[key] = max(versions[key], p.commit_version)
    return made


@pytest.mark.parametrize(
    "scheme_cls", [SerializabilityScheme, SnapshotIsolationScheme],
    ids=["serializability", "snapshot-isolation"],
)
def test_scheme_conflict_index_equals_the_pairwise_reference(scheme_cls):
    """Both shipped conflict indexes report exactly the edges the pairwise
    scan of ``global_certify`` defines — and, after retirements, flag a
    successor conflict against retired history with RETIRED exactly when
    the reference does (the direction the checker turns into a violation;
    a RETIRED predecessor is ignored by the checker and not compared)."""
    scheme = scheme_cls(KeyHashSharding(SHARDS))
    flagged = edges = 0
    for seed in range(25):
        rng = random.Random(1000 + seed)
        index, reference = scheme.make_conflict_index(), PairwiseConflictIndex(scheme)
        live = []
        for i, p in enumerate(_random_payloads(seed)):
            txn = f"t{i}"
            got_succ, got_pred = index.register(txn, p)
            want_succ, want_pred = reference.register(txn, p)
            where = f"seed {seed}, {txn}"
            # Edge *sets*: an index may report a partner once per object.
            assert set(got_succ) == set(want_succ), where
            assert set(got_pred) - {RETIRED} == set(want_pred), where
            flagged += RETIRED in want_succ
            edges += len(want_succ) + len(want_pred)
            live.append((txn, p))
            if len(live) > 6 and rng.random() < 0.5:
                # Retire the oldest live transaction from both, as collect()
                # does (oldest first, always with the registered payload).
                old_txn, old_payload = live.pop(0)
                index.retire(old_txn, old_payload)
                assert reference.retire(old_txn, old_payload)
    # The random payloads genuinely exercised edges and the RETIRED flag.
    assert edges > 0 and flagged > 0


# ----------------------------------------------------------------------
# differential under non-unit latency: the online and batch checkers must
# agree on histories shaped by random delay distributions
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "latency_kwargs",
    [
        dict(model="uniform", low=0.5, high=1.5),
        dict(model="lognormal", mean=1.5, sigma=1.0),
        dict(model="exponential", mean=1.0),
        dict(
            model="regions",
            regions=("eu", "us", "ap"),
            intra=0.5,
            links=(("eu", "us", 3.0), ("eu", "ap", 5.0), ("us", "ap", 4.0)),
            jitter=0.25,
        ),
    ],
    ids=["uniform", "lognormal", "exponential", "regions"],
)
def test_online_and_final_agree_under_non_unit_latency(latency_kwargs):
    """Random delays reorder deliveries (and thus certify/decide events);
    whatever history results, the verdict of either mode (the live checker,
    or the same checker replaying the finished history) must match the
    batch oracle's, and safe protocols must stay safe."""
    from dataclasses import replace

    from repro.scenarios import LatencySpec, ScenarioRunner, get_scenario

    base = get_scenario("steady-state")
    spec = base.with_overrides(
        latency=LatencySpec(**latency_kwargs),
        workload=replace(base.workload, txns=40),
    )
    results = {}
    for mode in ("online", "final"):
        runner = ScenarioRunner(spec.with_overrides(check_mode=mode))
        results[mode] = result = runner.run()
        oracle = oracle_check(runner)
        assert (result.check_ok, result.check_reason) == (oracle.ok, oracle.reason), mode
    online, final = results["online"], results["final"]
    assert online.check_ok == final.check_ok
    assert online.check_ok and online.passed and final.passed
    # The history itself is identical across check modes (same seed, same
    # delay draws), so the verdicts were computed over the same events.
    assert online.txns_submitted == final.txns_submitted
    assert online.committed == final.committed
    assert online.duration == final.duration


def test_online_flags_violation_under_non_unit_latency():
    """The broken-RDMA ablation must still be caught online when the unsafe
    interleaving is driven by explicit channel delays on top of a jittered
    base model (delay-channel extras compose with the LatencySpec)."""
    from repro.scenarios import LatencySpec, ScenarioRunner, get_scenario

    spec = get_scenario("ablation-safety-demo").with_overrides(
        latency=LatencySpec(model="fixed", value=1.0, jitter=0.05),
        check_mode="online",
    )
    result = ScenarioRunner(spec).run()
    assert not result.safety_ok
    assert result.passed  # unsafe was the expectation


# ----------------------------------------------------------------------
# the Figure 4a ablation, caught online
# ----------------------------------------------------------------------
def test_broken_rdma_ablation_flagged_online():
    from repro.scenarios import ScenarioRunner, get_scenario

    spec = get_scenario("ablation-safety-demo").with_overrides(check_mode="online")
    runner = ScenarioRunner(spec)
    result = runner.run()
    assert not result.safety_ok
    assert result.passed  # unsafe was the expectation
    violation = runner.checker.violation
    assert violation is not None
    assert violation.cycle, "the online violation must carry a concrete witness"
    assert runner.checker.violation_at_event is not None
    assert "contradictory" in result.check_reason


# ----------------------------------------------------------------------
# incremental invariant monitor
# ----------------------------------------------------------------------
def test_invariant_monitor_matches_history_scan():
    from repro.cluster import Cluster
    from helpers import shard_key

    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=5)
    monitor = InvariantMonitor(cluster.history)
    payloads = [
        payload(
            reads=[(shard_key(cluster.scheme, "shard-0", hint=f"m{i}"), (0, ""))],
            writes=[(shard_key(cluster.scheme, "shard-0", hint=f"m{i}"), i)],
            tiebreak=f"m{i}",
        )
        for i in range(8)
    ]
    cluster.certify_many(payloads)
    scanned = check_invariants(cluster.member_replicas_by_shard(), cluster.history)
    streamed = check_invariants(cluster.member_replicas_by_shard(), monitor=monitor)
    assert scanned == streamed == []
    assert monitor.history is cluster.history
    monitor.detach()


def test_invariant_monitor_reports_contradiction():
    history = History()
    monitor = InvariantMonitor(history)
    history.record_certify("t1", payload(reads=[("x", (0, ""))], tiebreak="t"), 0.0)
    history.record_decide("t1", Decision.COMMIT, 1.0)
    history.record_decide("t1", Decision.ABORT, 2.0)
    assert len(monitor.violations) == 1
    assert "Inv. 4b" in monitor.violations[0].invariant
    violations = check_invariants({}, monitor=monitor)
    assert monitor.violations[0] in violations


# ----------------------------------------------------------------------
# retirement
# ----------------------------------------------------------------------
def test_gc_bounds_memory_on_streaming_run(scheme):
    """The regression test for unbounded workloads: 100k transactions in a
    closed-loop-style stream (a small in-flight window, everything decided)
    must leave the retiring checker with a bounded graph, while one built
    with gc=False retains every node."""
    checker = IncrementalTCSChecker(scheme, gc_interval=128)
    txns = 100_000
    keys = 64
    window = 8
    versions = {f"k{i}": (0, "") for i in range(keys)}
    pending = []
    for i in range(txns):
        key = f"k{i % keys}"
        txn = f"t{i}"
        read_version = versions[key]
        p = TransactionPayload.make(
            reads=[(key, read_version)], writes=[(key, i)], tiebreak=txn
        )
        checker.observe_certify(txn, p)
        pending.append((txn, p, key))
        if len(pending) >= window:
            done, done_payload, done_key = pending.pop(0)
            checker.observe_decide(done, Decision.COMMIT)
            if done_payload.commit_version > versions[done_key]:
                versions[done_key] = done_payload.commit_version
    for txn, _, _ in pending:
        checker.observe_decide(txn, Decision.COMMIT)
    assert checker.ok, checker.result().reason
    stats = checker.stats
    assert stats["events_processed"] == 2 * txns
    # Without retirement the graph holds every transaction plus a frontier
    # per certify-after-decide; with it, only the recent window plus the
    # interval's worth survives.
    assert stats["txns_pruned"] > 0.95 * txns
    assert stats["nodes"] < 2_000
    assert stats["edges"] < 10_000
    # The witness shrinks with the graph: only live transactions remain.
    assert len(checker.linearization()) < 2_000


def test_gc_prunes_nothing_while_everything_is_concurrent(scheme):
    checker = IncrementalTCSChecker(scheme, gc_interval=10_000)
    p1 = payload(reads=[("a", (0, ""))], writes=[("a", 1)], tiebreak="t1")
    p2 = payload(reads=[("b", (0, ""))], writes=[("b", 1)], tiebreak="t2")
    checker.observe_certify("t1", p1)
    checker.observe_certify("t2", p2)  # concurrent with t1, stays undecided
    checker.observe_decide("t1", Decision.COMMIT)
    assert checker.collect() == 0  # t2 was certified before decide(t1)
    assert checker.txns_pruned == 0
    checker.observe_decide("t2", Decision.COMMIT)
    checker.observe_certify("t3", payload(reads=[("c", (0, ""))], tiebreak="t3"))
    # t3 was certified after both decisions: both become collectable.
    assert checker.collect() > 0
    assert checker.txns_pruned == 2
    assert checker.ok


def test_gc_flags_conflict_with_retired_history(scheme):
    """A committed transaction that certification orders *before* retired
    history is an immediate real-time violation — the per-object horizon
    must keep flagging it after the writer's identity is gone."""
    stale = payload(reads=[("x", (0, ""))], writes=[("x", 0)], tiebreak="stale")
    fresh = payload(reads=[("x", (0, ""))], writes=[("x", 1)], tiebreak="fresh")

    def drive(checker):
        checker.observe_certify("t1", fresh)
        checker.observe_decide("t1", Decision.COMMIT)
        # t2 is certified strictly after decide(t1)...
        checker.observe_certify("t2", stale)
        collected = checker.collect()
        # ... but read the version t1 overwrote: committing it orders it
        # before t1 in the conflict graph — a conflict/real-time cycle.
        checker.observe_decide("t2", Decision.COMMIT)
        return collected

    plain = IncrementalTCSChecker(scheme, gc=False)
    assert drive(plain) == 0
    collected = IncrementalTCSChecker(scheme, gc_interval=10_000)
    pruned = drive(collected)
    assert pruned > 0 and collected.txns_pruned == 1  # t1 really was retired
    assert not plain.ok and not collected.ok
    # The same verdict at the same event; the witness is t2 alone, since
    # t1's identity was retired.
    assert collected.result().reason == plain.result().reason
    assert collected.violation_at_event == plain.violation_at_event
    assert collected.result().cycle == ["t2"]


def _verdict(checker):
    result = checker.result()
    return result.ok, result.reason, checker.violation_at_event


def _frontier_boundaries(history):
    """Certify events that follow at least one commit decided since the
    previous such event: where the frontier chain gains a node."""
    boundaries, fresh = 0, False
    for event in history.events:
        if event.kind == "decide":
            fresh = fresh or event.decision is Decision.COMMIT
        elif fresh:
            boundaries, fresh = boundaries + 1, False
    return boundaries


@pytest.mark.parametrize(
    "scheme_factory",
    [
        lambda: SerializabilityScheme(KeyHashSharding(SHARDS)),
        lambda: SnapshotIsolationScheme(KeyHashSharding(SHARDS)),
        lambda: _pairwise_scheme(KeyHashSharding(SHARDS)),
        lambda: _pairwise_scheme(KeyHashSharding(SHARDS), SnapshotIsolationScheme),
    ],
    ids=["serializability", "snapshot-isolation", "pairwise-reference", "pairwise-reference-si"],
)
def test_gc_differential_matches_unpruned_verdicts(scheme_factory):
    """Retirement — at the default interval and after every commit — must
    never change the verdict, its reason or the event it is reported at,
    against gc=False on the same history, for the indexed schemes and for
    the pairwise reference (which keeps retired payloads instead of
    per-object horizons).  The graph never holds more than one node per
    commit and one frontier per certify-after-decide boundary; without
    retirement, a correct history's graph holds exactly that."""
    scheme = scheme_factory()
    verdicts = {True: 0, False: 0}
    for seed in range(40):
        history = _random_history(scheme, seed)
        plain = IncrementalTCSChecker(scheme, history=history, gc=False)
        bound = len(committed_of(history)) + _frontier_boundaries(history)
        if plain.ok:
            assert plain.stats["nodes"] == bound, f"seed {seed}"
        for checker in (
            IncrementalTCSChecker(scheme, history=history),
            IncrementalTCSChecker(scheme, history=history, gc_interval=1),
        ):
            assert _verdict(checker) == _verdict(plain), f"seed {seed}"
            assert checker.stats["nodes"] <= bound, f"seed {seed}"
        verdicts[plain.ok] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_pairwise_fallback_gc_drops_retired_entries():
    """The pairwise fallback really retires entries now: retired
    transactions leave the live scan (so it stays bounded by the undecided
    window instead of growing with history), the checker's retired-id set
    stays empty, and conflicts against retired history are still flagged
    via the RETIRED sentinel."""
    scheme = _pairwise_scheme(KeyHashSharding(SHARDS))
    checker = IncrementalTCSChecker(scheme, gc_interval=16)
    uncollected = IncrementalTCSChecker(scheme, gc=False)
    for i in range(400):
        p = payload(
            reads=[(f"k{i}", (0, ""))], writes=[(f"k{i}", i)], tiebreak=f"t{i}"
        )
        for each in (checker, uncollected):
            each.observe_certify(f"t{i}", p)
            each.observe_decide(f"t{i}", Decision.COMMIT)
    checker.collect()
    assert checker.ok and uncollected.ok  # differential: same verdict
    index = checker._conflicts
    assert isinstance(index, PairwiseConflictIndex)
    assert checker.txns_pruned >= 350
    # The un-collected index keeps all 400 entries; the collected one keeps
    # only the unretired tail (id entries are gone, distinct payloads stay
    # as the anonymous retired set used for RETIRED flagging).
    assert uncollected._conflicts.live_entries == 400
    assert index.live_entries <= 400 - checker.txns_pruned
    assert index.retired_payload_count == checker.txns_pruned
    # The checker itself keeps nothing per retired transaction either: the
    # payloads it held for retire() calls are released with the entries.
    assert len(checker._gc_payloads) <= 400 - checker.txns_pruned
    # A late transaction ordered before retired history must still fail.
    stale = payload(reads=[("k0", (0, ""))], writes=[("k0", -1)], tiebreak="stale")
    checker.observe_certify("stale", stale)
    checker.observe_decide("stale", Decision.COMMIT)
    assert not checker.ok
    assert "cycle" in checker.result().reason
    assert checker.result().cycle == ["stale"]


def test_pairwise_fallback_retire_unknown_txn_returns_false(scheme):
    index = PairwiseConflictIndex(scheme)
    a = payload(reads=[("x", (0, ""))], writes=[("x", 1)], tiebreak="a")
    index.register("ta", a)
    assert not index.retire("unknown", None)
    assert index.retire("ta", None)  # payload recovered from the entry
    assert index.live_entries == 0 and index.retired_payload_count == 1
    # Retiring deduplicates identical payloads (hashable frozen dataclass).
    index.register("tb", a)
    assert index.retire("tb", a)
    assert index.retired_payload_count == 1


def test_gc_through_scenario_runner():
    """The runner's checker always retires: after a run it holds the
    in-flight tail, and the retired prefix plus that tail is every commit."""
    from repro.scenarios import ScenarioRunner, get_scenario

    runner = ScenarioRunner(get_scenario("steady-state"))
    result = runner.run()
    assert result.passed
    runner.checker.collect()  # final sweep regardless of the interval
    stats = runner.checker.stats
    assert stats["txns_pruned"] > 0
    assert stats["txns_pruned"] + len(runner.checker.linearization()) == result.committed
    assert stats["nodes"] < result.committed


def test_gc_stalls_visibly_behind_a_never_decided_transaction(scheme):
    """Exactness requires retaining everything a stuck (never-decided)
    transaction could still order against: collection must stop at its
    certify point — and the stats must make the stall observable."""
    checker = IncrementalTCSChecker(scheme, gc_interval=10_000)
    stuck = payload(reads=[("s", (0, ""))], tiebreak="stuck")
    checker.observe_certify("stuck", stuck)  # certified before any commit
    versions = {"k": (0, "")}
    for i in range(50):
        p = TransactionPayload.make(
            reads=[("k", versions["k"])], writes=[("k", i)], tiebreak=f"t{i}"
        )
        checker.observe_certify(f"t{i}", p)
        checker.observe_decide(f"t{i}", Decision.COMMIT)
        versions["k"] = p.commit_version
    assert checker.collect() == 0  # pinned: "stuck" predates every decision
    # A pass whose watermark has not advanced costs a scan of the undecided
    # transactions, not of the 100 nodes the stuck one pins.
    assert calls(checker.collect) < 10
    stats = checker.stats
    assert stats["watermark"] == -1 and stats["undecided"] == 1
    assert stats["txns_pruned"] == 0
    # Once the stuck transaction decides, collection resumes in full.
    checker.observe_decide("stuck", Decision.ABORT)
    checker.observe_certify("t-after", payload(reads=[("z", (0, ""))], tiebreak="a"))
    assert checker.collect() > 0
    assert checker.stats["watermark"] > 0 and checker.stats["undecided"] == 1
    assert checker.txns_pruned == 50
    assert checker.ok
