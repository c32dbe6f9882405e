"""Tests for the protocol-level batching pipeline.

Covers the policy/batcher building blocks, the one ``Batch`` envelope and
its unpacking in ``Process`` (toy processes, then the two batched protocol
paths nothing else drives), the passthrough outbox, structural guards
against per-kind batch copies returning, end-to-end equivalence of the
batched and unbatched protocols (all three coordinator variants, validated
online and against the batch checker oracle), the retry/dedup interaction
(a retried transaction arriving while batching is active must be deduped
and re-answered from the decision caches), the batching scenario pack and
the ``sweep --batch`` driver/CLI.
"""

import importlib
import json
import pkgutil
import re
from dataclasses import dataclass, replace

import pytest

import repro
from repro.baselines.twopc import TwoPCCoordinator

from repro.baselines.cluster import BaselineCluster
from repro.client import RetryPolicy
from repro.cluster import Cluster
from repro.core.batching import BatchPolicy, MessageBatcher
from repro.core import messages as core_messages
from repro.core.coordinator import AdmissionGate, CoordinatorMixin
from repro.core.messages import Accept, AcceptAck, CertifyRequest, Prepare
from repro.core.types import Decision
from repro.rdma import messages as rdma_messages
from repro.runtime.events import Scheduler
from repro.runtime.network import Network
from repro.runtime.process import Batch, Process
from repro.scenarios import (
    BATCH,
    BatchSpec,
    ScenarioError,
    ScenarioRunner,
    get_scenario,
    parse_batch,
    run_axis_sweep,
    run_scenario,
    scenario_names,
)
from repro.scenarios.__main__ import main as scenarios_main

from helpers import TCSChecker, pending_messages, run_recorded, rw_payload, shard_key, sweep_point


ADAPTIVE = BatchPolicy(size=8)
LINGER = BatchPolicy(size=8, linger=2.0, adaptive=False)


def distinct_payloads(n, prefix="k"):
    return [rw_payload(f"{prefix}{i}", value=i, tiebreak=f"t{i}") for i in range(n)]


# ----------------------------------------------------------------------
# policy validation
# ----------------------------------------------------------------------
def test_policy_disabled_by_default():
    assert not BatchPolicy().enabled
    assert not BatchPolicy(size=1).enabled
    assert BatchPolicy().describe() == "off"
    assert BatchPolicy(size=8).describe() == "size=8,adaptive"
    assert BatchPolicy(size=8, linger=1.5, adaptive=False).describe() == "size=8,linger=1.5"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(size=-1),
        dict(size=8, linger=-1.0, adaptive=False),
        dict(size=8, linger=2.0, adaptive=True),  # adaptive excludes linger
        dict(size=8, linger=0.0, adaptive=False),  # no liveness without a cap
    ],
)
def test_policy_rejects_invalid_combinations(kwargs):
    with pytest.raises(ValueError):
        BatchPolicy(**kwargs).validate()


def test_batch_spec_validation_maps_to_scenario_error():
    spec = get_scenario("steady-state")
    with pytest.raises(ScenarioError):
        spec.with_overrides(batch=BatchSpec(size=8, linger=2.0, adaptive=True))
    with pytest.raises(ScenarioError):
        spec.with_overrides(batch=BatchSpec(size=-3))


# ----------------------------------------------------------------------
# batcher unit behaviour
# ----------------------------------------------------------------------
class _Recorder(Process):
    """Records every delivered message with its arrival time."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def handle(self, message, sender):  # bypass on_<type> dispatch
        self.received.append((self.now, message))


def _harness():
    scheduler = Scheduler()
    network = Network(scheduler)
    sender, receiver = _Recorder("src"), _Recorder("dst")
    network.register(sender)
    network.register(receiver)
    return scheduler, sender, receiver


def test_size_cap_flushes_immediately():
    scheduler, sender, receiver = _harness()
    batcher = MessageBatcher(sender, BatchPolicy(size=3))
    for i in range(3):
        batcher.add("dst", i)
    assert pending_messages(batcher) == 0  # size cap flushed synchronously
    scheduler.run()
    assert receiver.received == [(1.0, Batch((0, 1, 2)))]
    assert batcher.batches_sent == 1 and batcher.messages_batched == 3
    assert batcher.size_counts == {3: 1}


def test_adaptive_flush_coalesces_the_instant():
    scheduler, sender, receiver = _harness()
    batcher = MessageBatcher(sender, BatchPolicy(size=100))
    batcher.add("dst", "a")
    batcher.add("dst", "b")
    assert pending_messages(batcher, "dst") == 2  # below cap: waits for the flush
    scheduler.run()
    # One batch, flushed at the end of instant 0, delivered one delay later.
    assert receiver.received == [(1.0, Batch(("a", "b")))]


def test_linger_delays_the_flush():
    scheduler, sender, receiver = _harness()
    batcher = MessageBatcher(sender, BatchPolicy(size=100, linger=2.0, adaptive=False))
    batcher.add("dst", "a")
    batcher.add("dst", "b")
    scheduler.run()
    # Armed at t=0 by the first add, flushed at t=2, delivered at t=3.
    assert receiver.received == [(3.0, Batch(("a", "b")))]


def test_first_message_sets_the_deadline_and_a_size_cap_flush_cancels_it():
    """A batch's first message schedules its flush and later messages leave
    that deadline alone; a size-cap flush cancels it, so no stray flush
    cuts the next batch short."""
    scheduler, sender, receiver = _harness()
    batcher = MessageBatcher(sender, BatchPolicy(size=3, linger=5.0, adaptive=False))
    batcher.add("dst", "a")
    assert scheduler.pending == 1  # the deadline, t=5
    scheduler.schedule(2.0, batcher.add, "dst", "b")  # leaves it at t=5
    for item in "cde":  # the third fills the batch at t=6: t=11 is cancelled
        scheduler.schedule(6.0, batcher.add, "dst", item)
    scheduler.schedule(7.0, batcher.add, "dst", "f")  # a new deadline, t=12
    scheduler.run()
    assert receiver.received == [
        (6.0, Batch(("a", "b"))),
        (7.0, Batch(("c", "d", "e"))),
        (13.0, Batch(("f",))),
    ]
    assert scheduler.pending == 0


def test_on_flush_hook_sees_the_batch_before_send():
    scheduler, sender, receiver = _harness()
    seen = []
    batcher = MessageBatcher(
        sender,
        BatchPolicy(size=2),
        on_flush=lambda dst, items: seen.append((dst, items)),
    )
    batcher.add("dst", 1)
    batcher.add("dst", 2)
    assert seen == [("dst", (1, 2))]


def test_disabled_policy_passes_straight_through():
    """Policy off: ``add`` is ``send`` (hook included), ``add_all`` is one
    multicast, nothing is wrapped and nothing is counted."""
    scheduler, sender, receiver = _harness()
    seen = []
    hooked = MessageBatcher(
        sender, BatchPolicy(), on_flush=lambda dst, items: seen.append((dst, items))
    )
    plain = MessageBatcher(sender, BatchPolicy())
    hooked.add("dst", "a")
    assert seen == [("dst", ("a",))] and pending_messages(hooked) == 0
    fired = scheduler.events_fired
    plain.add_all(["dst", "src"], "b")
    scheduler.run()
    assert receiver.received == [(1.0, "a"), (1.0, "b")]
    assert sender.received == [(1.0, "b")]
    # "a" alone, then both copies of "b" in one scheduler event.
    assert scheduler.events_fired - fired == 2
    for batcher in (hooked, plain):
        assert (batcher.batches_sent, batcher.messages_batched, batcher.size_counts) == (0, 0, {})


def test_passthrough_sends_through_the_process_send_of_the_moment():
    """The recorder idiom of test_stop_and_wait: ``send`` patched on the
    instance after the outbox was built must still see its traffic."""
    _scheduler, sender, _receiver = _harness()
    batcher = MessageBatcher(sender, BatchPolicy())
    recorded = []
    sender.send = lambda dst, message: recorded.append((dst, message))
    batcher.add("dst", "a")
    assert recorded == [("dst", "a")]


# ----------------------------------------------------------------------
# the envelope: Process.on_batch and Process.reply
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Ask:
    n: int


@dataclass(frozen=True)
class Tell:
    n: int
    to: str


@dataclass(frozen=True)
class Answer:
    n: int


@dataclass(frozen=True)
class Unknown:
    pass


class _Responder(Process):
    """Answers ``Ask`` through ``reply``; ``Tell`` replies to a third
    party and plainly ``send``s to the sender; odd ``Ask``s only."""

    def __init__(self, pid):
        super().__init__(pid)
        self.handled = []

    def on_ask(self, msg, sender):
        self.handled.append((msg.n, sender))
        if msg.n % 2:
            self.reply(sender, Answer(msg.n))

    def on_tell(self, msg, sender):
        self.handled.append((msg.n, sender))
        self.reply(msg.to, Answer(msg.n))
        self.send(sender, Answer(-msg.n))


def _envelope_harness():
    scheduler = Scheduler()
    network = Network(scheduler)
    asker, other, responder = _Recorder("asker"), _Recorder("other"), _Responder("resp")
    for process in (asker, other, responder):
        network.register(process)
    return scheduler, network, asker, other, responder


def test_envelope_items_run_in_order_and_replies_leave_as_one_envelope():
    scheduler, network, asker, other, responder = _envelope_harness()
    asker.send("resp", Batch((Ask(1), Ask(2), Ask(3), Tell(4, "other"), Ask(5))))
    scheduler.run()
    assert responder.handled == [(n, "asker") for n in (1, 2, 3, 4, 5)]
    # To the envelope's sender: the plain send at once, then exactly one
    # envelope with every reply (the even ask answered nothing).
    assert asker.received == [
        (2.0, Answer(-4)),
        (2.0, Batch((Answer(1), Answer(3), Answer(5)))),
    ]
    # A reply to anyone else is an ordinary send.
    assert other.received == [(2.0, Answer(4))]
    assert network.stats.total_sent == 4


def test_envelope_without_replies_sends_nothing():
    scheduler, network, asker, _other, responder = _envelope_harness()
    asker.send("resp", Batch((Ask(2), Ask(4))))
    scheduler.run()
    assert responder.handled == [(2, "asker"), (4, "asker")]
    assert asker.received == [] and network.stats.total_sent == 1


def test_reply_outside_an_envelope_is_send():
    scheduler, _network, asker, _other, responder = _envelope_harness()
    asker.send("resp", Ask(7))
    scheduler.run()
    assert asker.received == [(2.0, Answer(7))]
    # ... and after an envelope has been unpacked, too.
    asker.send("resp", Batch((Ask(9),)))
    asker.send("resp", Ask(11))
    scheduler.run()
    assert [message for _, message in asker.received[1:]] == [
        Batch((Answer(9),)),
        Answer(11),
    ]


def test_envelope_item_without_a_handler_raises_naming_the_item():
    _scheduler, _network, asker, _other, responder = _envelope_harness()
    with pytest.raises(NotImplementedError, match="no handler for Unknown"):
        responder.deliver(Batch((Ask(1), Unknown())), "asker")
    # The half-unpacked envelope is abandoned: later replies are sends again.
    responder.reply("asker", Answer(0))
    asker.scheduler.run()
    assert asker.received == [(1.0, Answer(0))]


def _recorded_sends(process):
    sent = []
    send = process.send

    def recording_send(dst, message, **kwargs):
        sent.append((dst, message))
        return send(dst, message, **kwargs)

    process.send = recording_send
    return sent


def test_prepare_envelope_at_a_non_leader_is_dropped_whole():
    cluster = Cluster(num_shards=2, replicas_per_shard=2, batch=ADAPTIVE)
    follower = cluster.replica(cluster.followers_of("shard-0")[0])
    coordinator = cluster.members_of("shard-1")[0]
    sent = _recorded_sends(follower)
    prepares = tuple(
        Prepare(txn=f"t{i}", payload=rw_payload(shard_key(cluster.scheme, "shard-0", hint=f"k{i}")))
        for i in range(3)
    )
    follower.deliver(Batch(prepares), coordinator)
    cluster.run()
    assert sent == [] and follower.slot_of == {} and follower.next == 0


def test_accept_envelope_with_an_early_element():
    """ACCEPTs of an envelope are for an epoch the follower has not
    reached: the aggregate ack omits them, the unstash path re-answers each
    singly, and the transactions decide.  One of them is the re-drive of a
    transaction whose vote the epoch change left behind."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        batch=BatchPolicy(size=64, linger=20.0, adaptive=False),
    )
    leader = cluster.replica(cluster.leader_of("shard-0"))
    follower = cluster.replica(cluster.followers_of("shard-0")[0])
    coordinator = cluster.replica(cluster.members_of("shard-1")[0])
    client = cluster.client
    epoch = follower.my_epoch

    def accept_reaches_the_outbox(payload, prepares, pending):
        """Submit and hurry the request and the PREPAREs along, so that only
        the ACCEPT outbox lingers."""
        txn = cluster.submit(payload, coordinator=coordinator.pid)
        client._request_batcher.flush()
        while pending_messages(coordinator._prepare_batcher) < prepares:
            assert cluster.scheduler.step()
        coordinator._prepare_batcher.flush()
        while pending_messages(coordinator._accept_batcher, follower.pid) < pending:
            assert cluster.scheduler.step()
        return txn

    first_payload = rw_payload(shard_key(cluster.scheme, "shard-0", hint="a"), tiebreak="a")
    first = accept_reaches_the_outbox(first_payload, prepares=1, pending=1)
    # Shard-0 moves to the next epoch (same members); the new epoch has
    # reached its leader and the coordinator, the follower's is in flight.
    # The coordinator re-drives the first transaction, whose vote is of the
    # old epoch.
    for process in (leader, coordinator):
        process._install("shard-0", replace(process.view["shard-0"], epoch=epoch + 1))
    assert pending_messages(coordinator._prepare_batcher) == 1
    early = accept_reaches_the_outbox(
        rw_payload(shard_key(cluster.scheme, "shard-0", hint="b"), tiebreak="b"),
        prepares=2,
        pending=3,
    )

    sent = _recorded_sends(follower)
    coordinator._accept_batcher.flush(follower.pid)
    cluster.run(max_time=cluster.scheduler.now + 1.5)
    [(dst, ack)] = sent
    assert dst == coordinator.pid and type(ack) is Batch
    assert [(type(a), a.txn, a.epoch) for a in ack.items] == [(AcceptAck, first, epoch)]
    assert [(type(m), m.txn) for m, _ in follower._stash] == [(Accept, first), (Accept, early)]

    # The epoch arrives, and its install replays the stash: each early
    # element is re-answered on its own.
    del sent[:]
    follower._install("shard-0", replace(follower.view["shard-0"], epoch=epoch + 1))
    assert [(dst, type(ack), ack.txn, ack.epoch) for dst, ack in sent] == [
        (coordinator.pid, AcceptAck, first, epoch + 1),
        (coordinator.pid, AcceptAck, early, epoch + 1),
    ]
    cluster.run()
    assert cluster.history.decision_of(early) is Decision.COMMIT
    # The on-time element's vote is from the old epoch; its re-drive in the
    # new one decides it, with no session retry.
    assert cluster.history.decision_of(first) is Decision.COMMIT
    assert cluster.retry_stats().retries == 0
    client.send(coordinator.pid, CertifyRequest(txn=first, payload=first_payload, request_id=2))
    cluster.run()
    assert cluster.history.decision_of(first) is Decision.COMMIT
    check, violations = cluster.check()
    assert check.ok and not violations


# ----------------------------------------------------------------------
# structure: one envelope, one outbox, one gate — so the copies cannot
# come back (the idiom of test_rdma_stack_reuses_the_figure_1_pipeline)
# ----------------------------------------------------------------------
def _process_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Process):
                yield value


def test_no_process_has_a_per_kind_batch_handler():
    classes = set(_process_classes())
    assert len(classes) >= 8
    offenders = sorted(
        f"{cls.__name__}.{name}"
        for cls in classes
        for name in dir(cls)
        if re.fullmatch(r"on_\w+_batch", name)
    )
    assert offenders == []


def test_message_modules_define_no_batch_class():
    for module in (core_messages, rdma_messages):
        assert [name for name in vars(module) if name.endswith("Batch")] == []


def test_no_coordinator_or_client_forks_on_batching():
    clusters = [
        Cluster(num_shards=2, replicas_per_shard=2),
        Cluster(num_shards=2, replicas_per_shard=2, protocol="rdma", batch=ADAPTIVE),
        BaselineCluster(num_shards=2, batch=ADAPTIVE),
        BaselineCluster(num_shards=2),
    ]
    for cluster in clusters:
        processes = [*cluster._coordinator_processes(), cluster.client]
        assert processes and all(not hasattr(p, "_batching") for p in processes)
        # Outboxes exist whatever the policy (the passthrough is theirs).
        assert all(process.batchers for process in processes)


def test_both_coordinator_classes_hold_the_one_gate():
    replica = Cluster(num_shards=2, replicas_per_shard=2).replica("shard-0/r0")
    baseline = BaselineCluster(num_shards=2).coordinators[0]
    assert isinstance(replica, CoordinatorMixin) and isinstance(baseline, TwoPCCoordinator)
    assert type(replica.gate) is type(baseline.gate) is AdmissionGate
    for cls in (CoordinatorMixin, TwoPCCoordinator):
        assert not hasattr(cls, "_drain_held_certifies")
        assert not hasattr(cls, "pipeline_commits")


# ----------------------------------------------------------------------
# end-to-end equivalence: batching must be invisible to correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", [ADAPTIVE, LINGER], ids=["adaptive", "linger"])
@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_batched_cluster_decides_everything_and_checks(protocol, policy):
    unbatched = Cluster(num_shards=3, replicas_per_shard=2, protocol=protocol)
    batched = Cluster(num_shards=3, replicas_per_shard=2, protocol=protocol, batch=policy)
    payloads = distinct_payloads(40)
    plain = unbatched.certify_many(list(payloads))
    decided = batched.certify_many(list(payloads))
    # Conflict-free workload: batching may not change a single decision.
    assert set(decided.values()) == {Decision.COMMIT}
    assert len(decided) == len(plain) == 40
    for cluster in (unbatched, batched):
        check, violations = cluster.check()
        assert check.ok and not violations
    assert batched.message_stats.total_sent < unbatched.message_stats.total_sent
    stats = batched.batch_stats()
    assert stats.batches > 0 and stats.mean_size > 1.0
    assert unbatched.batch_stats().batches == 0


@pytest.mark.parametrize("policy", [ADAPTIVE, LINGER], ids=["adaptive", "linger"])
def test_batched_baseline_decides_everything_and_checks(policy):
    unbatched = BaselineCluster(num_shards=2, failures_tolerated=1)
    batched = BaselineCluster(num_shards=2, failures_tolerated=1, batch=policy)
    payloads = distinct_payloads(40)
    plain = unbatched.certify_many(list(payloads))
    decided = batched.certify_many(list(payloads))
    assert set(decided.values()) == {Decision.COMMIT}
    assert len(decided) == len(plain) == 40
    check, _ = batched.check()
    assert check.ok
    assert batched.message_stats.total_sent < unbatched.message_stats.total_sent
    assert batched.batch_stats().batches > 0


@pytest.mark.parametrize(
    "batch",
    [BatchSpec(size=16), BatchSpec(size=16, linger=1.0, adaptive=False)],
    ids=["adaptive", "linger"],
)
def test_differential_batched_vs_unbatched_scenario_histories(batch):
    """The same contended scenario, batched and unbatched: both histories
    must pass the online checker *and* the batch-checker oracle — batching
    may reshape the schedule, never the semantics."""
    base = get_scenario("hot-key-contention")
    base = base.with_overrides(workload=replace(base.workload, txns=80))
    results = {}
    for label, spec in (("off", base), ("on", base.with_overrides(batch=batch))):
        runner, result = run_recorded(spec)
        assert result.passed and result.undecided == 0, label
        oracle = TCSChecker(runner.cluster.scheme).check(runner.cluster.history)
        assert oracle.ok, (label, oracle.reason)
        results[label] = result
    assert results["on"].messages_sent < results["off"].messages_sent
    assert results["on"].batches > 0


def test_adaptive_batching_adds_no_virtual_latency():
    """Flush-on-idle coalesces same-instant messages only, so the commit
    path stays the paper's message-delay count: client latency under unit
    delays is identical with and without batching."""
    base = get_scenario("steady-state")
    base = base.with_overrides(workload=replace(base.workload, txns=60))
    off = ScenarioRunner(base).run()
    on = ScenarioRunner(base.with_overrides(batch=BatchSpec(size=32))).run()
    assert on.latency.mean == off.latency.mean
    assert on.latency.p99 == off.latency.p99
    assert on.messages_sent < off.messages_sent
    assert on.phases.queue_wait is not None and on.phases.queue_wait.maximum == 0.0


def test_linger_batching_shows_up_as_queue_wait():
    base = get_scenario("steady-state")
    base = base.with_overrides(
        workload=replace(base.workload, txns=60),
        batch=BatchSpec(size=32, linger=2.0, adaptive=False),
    )
    result = ScenarioRunner(base).run()
    assert result.passed
    queue = result.phases.queue_wait
    assert queue is not None and 0.0 < queue.mean <= 2.0
    # The prepare-stage linger is accounted separately as queue_wait; the
    # certify phase keeps the 4-delay protocol path plus the ACCEPT relay's
    # own linger (every batching stage pays the time cap).
    assert 4.0 <= result.phases.certify_to_decide.mean <= 4.0 + 2.0
    # The client edges pay their own linger too: requests queue in the
    # client's batcher before the one-delay hop, replies in the
    # coordinator's.
    assert 1.0 <= result.phases.submit_to_certify.mean <= 1.0 + 2.0
    assert 1.0 <= result.phases.decide_to_client.mean <= 1.0 + 2.0


# ----------------------------------------------------------------------
# retry/dedup x batching: all three coordinator paths
# ----------------------------------------------------------------------
def _decided_duplicate_case(cluster, coordinator_pid, key):
    payload = rw_payload(key, tiebreak="dup")
    txn = cluster.submit(payload, coordinator=coordinator_pid)
    assert cluster.run_until_decided([txn])
    cluster.run()
    client = cluster.client
    client.send(coordinator_pid, CertifyRequest(txn=txn, payload=payload, request_id=2))
    cluster.run()
    return txn, client


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_batched_duplicate_reanswered_from_decision_cache(protocol):
    cluster = Cluster(
        num_shards=2, replicas_per_shard=2, protocol=protocol, seed=3, batch=ADAPTIVE
    )
    coordinator_pid = cluster.members_of("shard-1")[0]
    key = shard_key(cluster.scheme, "shard-0")
    leader = cluster.replicas[cluster.leader_of("shard-0")]
    txn, client = _decided_duplicate_case(cluster, coordinator_pid, key)
    slots_before = dict(leader.slot_of)
    coordinator = cluster.replicas[coordinator_pid]
    assert coordinator.duplicate_certify_requests == 1
    assert client.duplicate_decisions >= 1
    assert cluster.history.contradictions == []
    assert dict(leader.slot_of) == slots_before  # no re-certification
    check, _ = cluster.check()
    assert check.ok


def test_batched_duplicate_reanswered_by_baseline_coordinator():
    cluster = BaselineCluster(num_shards=2, failures_tolerated=1, seed=19, batch=ADAPTIVE)
    coordinator = cluster.coordinators[0]
    payload = rw_payload("k", tiebreak="k")
    txn = cluster.submit(payload)
    assert cluster.run_until_decided([txn])
    cluster.run()
    cluster.client.send(
        coordinator.pid, CertifyRequest(txn=txn, payload=payload, request_id=2)
    )
    cluster.run()
    assert coordinator.duplicate_certify_requests == 1
    assert cluster.client.duplicate_decisions >= 1
    assert cluster.history.contradictions == []


def test_duplicate_landing_inside_a_pending_batch_is_safe():
    """A retried request that arrives while the original still sits in the
    coordinator's un-flushed batch must not yield a second decision."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=5,
        batch=BatchPolicy(size=64, linger=50.0, adaptive=False),
    )
    coordinator_pid = cluster.members_of("shard-1")[0]
    key = shard_key(cluster.scheme, "shard-0")
    payload = rw_payload(key, tiebreak="dup")
    txn = cluster.submit(payload, coordinator=coordinator_pid)
    coordinator = cluster.replicas[coordinator_pid]
    # Run past the client batcher's linger (flush at t=50, delivery at
    # t=51) but stop before the coordinator's own linger expires: the
    # PREPARE is still queued in its batcher.
    cluster.run(max_time=51.5)
    assert pending_messages(coordinator._prepare_batcher) > 0
    cluster.client.send(
        coordinator_pid, CertifyRequest(txn=txn, payload=payload, request_id=2)
    )
    cluster.run()
    assert coordinator.duplicate_certify_requests == 1
    assert cluster.history.decision_of(txn) is not None
    assert cluster.history.contradictions == []
    check, violations = cluster.check()
    assert check.ok and not violations


def test_rdma_accept_batch_ack_keeps_enqueue_time_shard():
    """NIC acks for a pending ACCEPT batch must be attributed to the shard
    recorded when the accepts were enqueued (mirroring the unbatched
    per-send closure) — a reconfiguration mutating the coordinator's
    membership view while the batch lingers must not orphan the acks."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        protocol="rdma",
        batch=BatchPolicy(size=64, linger=10.0, adaptive=False),
    )
    coordinator_pid = cluster.members_of("shard-1")[0]
    key = shard_key(cluster.scheme, "shard-0")
    txn = cluster.submit(rw_payload(key, tiebreak="t"), coordinator=coordinator_pid)
    coordinator = cluster.replicas[coordinator_pid]
    while pending_messages(coordinator._accept_batcher) == 0:
        assert cluster.scheduler.step(), "accept never reached the batcher"
    # A membership change lands while the batch is still pending: the
    # coordinator's view no longer lists the follower the batch targets.
    follower = cluster.followers_of("shard-0")[0]
    config = coordinator.view["shard-0"]
    coordinator._install(
        "shard-0", replace(config, members=tuple(p for p in config.members if p != follower))
    )
    # The decision drops the entry and its acks, so look at them on every
    # decision check that still finds the transaction undecided.
    entry = coordinator.coordinated(txn)
    seen_acks = []
    maybe_decide = coordinator._maybe_decide

    def recording_maybe_decide(checked):
        if checked is entry and entry.decision is None:
            seen_acks.append({key: set(pids) for key, pids in entry.acks.items()})
        maybe_decide(checked)

    coordinator._maybe_decide = recording_maybe_decide
    cluster.run()
    assert cluster.history.decision_of(txn) is Decision.COMMIT
    assert entry.decision is not None and coordinator.coordinated(txn) is not entry
    assert seen_acks and all(None not in acks for acks in seen_acks)
    assert follower in seen_acks[-1].get("shard-0", set())


def test_session_retries_with_batching_stay_exactly_once_decided():
    """Sub-RTT session timeouts under linger batching: nearly every
    transaction is re-submitted to several coordinators while batches are
    still queued, and certification must stay exactly-once-decided."""
    cluster = Cluster(
        num_shards=2,
        replicas_per_shard=2,
        seed=11,
        retry=RetryPolicy(timeout=3.0, backoff=1.0, max_attempts=6),
        batch=BatchPolicy(size=4, linger=2.0, adaptive=False),
    )
    txns = [cluster.submit(p) for p in distinct_payloads(30)]
    assert cluster.run_until_decided(txns)
    cluster.run()
    assert all(cluster.history.decision_of(t) is not None for t in txns)
    assert cluster.history.contradictions == []
    stats = cluster.retry_stats()
    assert stats.retries > 0 and stats.orphaned == 0
    check, _ = cluster.check()
    assert check.ok


@pytest.mark.parametrize(
    "name",
    [
        "duplicate-delivery-fuzz",
        "coordinator-crash-storm",
        "failover-under-wan-tail",
        "wan-leader-crash",
    ],
)
def test_resilience_pack_still_drains_under_batching(name):
    """The resilience pack's zero-undecided guarantee must survive
    batching: pending batches die with a crashed coordinator, sessions
    re-submit, and dedup keeps duplicates single-decision."""
    result = run_scenario(get_scenario(name), batch=BatchSpec(size=8))
    assert result.passed
    assert result.undecided == 0 and result.orphaned == 0
    assert result.batches > 0


# ----------------------------------------------------------------------
# scenario pack, sweep driver and CLI
# ----------------------------------------------------------------------
def test_batch_scenarios_registered():
    assert {"batch-saturation", "batch-vs-unbatched-wan"} <= set(scenario_names())


def test_batch_saturation_scenario_passes_online_checked():
    result = run_scenario(get_scenario("batch-saturation"))
    assert result.passed and result.check_mode == "online"
    assert result.undecided == 0
    assert result.batches > 0 and result.mean_batch_size > 1.5
    assert result.batch_model == "size=32,adaptive"


def test_batch_vs_unbatched_wan_pair():
    spec = get_scenario("batch-vs-unbatched-wan")
    batched = run_scenario(spec)
    unbatched = run_scenario(spec, batch=BatchSpec())
    assert batched.passed and unbatched.passed
    assert batched.messages_sent < unbatched.messages_sent
    assert batched.phases.queue_wait.mean > 0.0


def test_result_dict_carries_batch_columns():
    result = run_scenario(
        get_scenario("steady-state"),
        batch=BatchSpec(size=8),
        workload=replace(get_scenario("steady-state").workload, txns=30),
    )
    data = result.as_dict()
    assert data["batch_model"] == "size=8,adaptive"
    assert data["batches"] == result.batches > 0
    assert data["mean_batch_size"] > 0
    assert sum(data["batch_sizes"].values()) == result.batches
    json.dumps(data)  # JSON-serialisable, batch histogram included


def test_parse_batch_points():
    assert not parse_batch("off").enabled
    assert parse_batch("32") == BatchSpec(size=32)
    assert parse_batch("16:linger=2") == BatchSpec(size=16, linger=2.0, adaptive=False)
    assert parse_batch("8:adaptive=true") == BatchSpec(size=8, adaptive=True)
    assert BATCH.parse(["default"]) == BATCH.stock
    for bad in ("eight", "8:linger=x", "8:foo=1", "8:adaptive=maybe", "8:linger"):
        with pytest.raises(ScenarioError):
            parse_batch(bad)


def test_batch_sweep_driver_and_determinism():
    base = get_scenario("steady-state")
    spec = base.with_overrides(workload=replace(base.workload, txns=40))
    grid = (BatchSpec(), BatchSpec(size=8), BatchSpec(size=8, linger=2.0, adaptive=False))
    sweep = run_axis_sweep(spec, BATCH, grid)
    assert sweep.passed
    assert [label for label, _ in sweep.points] == [
        "off",
        "size=8,adaptive",
        "size=8,linger=2",
    ]
    curve = sweep.curve()
    assert curve[0]["messages_sent"] > curve[1]["messages_sent"]
    assert sweep_point(sweep, "size=8,adaptive").batches > 0
    again = run_axis_sweep(spec, BATCH, grid)
    assert json.dumps(sweep.as_dict(), sort_keys=True) == json.dumps(
        again.as_dict(), sort_keys=True
    )
    assert "batch sweep" in sweep.render()


def test_cli_run_batch_override(capsys):
    assert (
        scenarios_main(
            ["run", "steady-state", "--txns", "20", "--batch", "8", "--json"]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["batch_model"] == "size=8,adaptive"
    assert data["batches"] > 0


def test_cli_batch_sweep(capsys):
    assert (
        scenarios_main(
            [
                "sweep",
                "steady-state",
                "--protocols",
                "message-passing",
                "--batch",
                "off",
                "--batch",
                "8",
                "--txns",
                "30",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "batch sweep" in out and "size=8,adaptive" in out


def test_cli_batch_and_latency_sweeps_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        scenarios_main(
            [
                "sweep",
                "steady-state",
                "--latency",
                "unit",
                "--batch",
                "8",
            ]
        )
