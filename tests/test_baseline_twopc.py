"""Tests for the 2PC-over-Paxos baseline cluster."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cluster import BaselineCluster
from repro.baselines.paxos import PaxosGroup, RsmCommand
from repro.baselines.twopc import (
    CertificationStateMachine,
    DecideCommand,
    PrepareCommand,
)
from repro.core.serializability import KeyHashSharding, SerializabilityScheme
from repro.core.types import Decision
from repro.runtime import wire
from repro.runtime.events import Scheduler
from repro.runtime.network import Network
from repro.runtime.process import Batch, Process

from helpers import (
    ScanVoteIndex,
    durable_decision_latencies,
    payload,
    reference_scheme,
    rw_payload,
    scan_vote,
    shard_key,
)
from test_properties import SER, SHARDS, SI, payloads


@pytest.fixture
def cluster():
    return BaselineCluster(num_shards=2, failures_tolerated=1, seed=61)


def test_uses_2f_plus_1_replicas_per_shard(cluster):
    assert cluster.replicas_per_shard == 3
    assert len(cluster.groups["shard-0"].pids) == 3


def test_single_shard_commit(cluster):
    assert cluster.certify(rw_payload("x", tiebreak="a")) is Decision.COMMIT


def test_multi_shard_commit_and_conflict_abort(cluster):
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    multi = payload(
        reads=[(key0, (0, "")), (key1, (0, ""))],
        writes=[(key0, 1), (key1, 1)],
        tiebreak="m",
    )
    assert cluster.certify(multi) is Decision.COMMIT
    stale = rw_payload(key0, version=0, tiebreak="stale")
    assert cluster.certify(stale) is Decision.ABORT


def test_history_correct(cluster):
    payloads = [rw_payload(f"k{i}", tiebreak=str(i)) for i in range(6)]
    payloads.append(rw_payload("k0", version=0, tiebreak="stale"))
    decisions = cluster.certify_many(payloads)
    assert sum(1 for d in decisions.values() if d is Decision.ABORT) == 1
    assert cluster.check()[0].ok


def test_latency_is_higher_than_reconfigurable_protocol(cluster):
    """The baseline needs 7 delays before the decision is durable (plus one
    more for the coordinator to hear about it), versus 5/4 for the paper's
    protocol."""
    cluster.certify(rw_payload("x", tiebreak="a"))
    assert cluster.colocated_latencies() == [4.0]
    assert durable_decision_latencies(cluster) == [8.0]
    assert min(durable_decision_latencies(cluster)) >= 7.0


def test_concurrent_conflicting_transactions_only_one_commits(cluster):
    conflicting = [rw_payload("hot", version=0, tiebreak=str(i)) for i in range(4)]
    decisions = cluster.certify_many(conflicting)
    assert sum(1 for d in decisions.values() if d is Decision.COMMIT) == 1
    assert cluster.check()[0].ok


def test_paxos_leaders_carry_replication_load(cluster):
    """Every 2PC action is replicated through the shard leader, so leaders
    handle many more messages per transaction than in the paper's design."""
    for i in range(5):
        cluster.certify(rw_payload(f"k{i}", tiebreak=str(i)))
    stats = cluster.message_stats
    leader_messages = stats.handled_by(cluster.leader_of("shard-0"))
    assert leader_messages > 0
    # In the reconfigurable protocol the leader handles 3 messages per
    # transaction; here it is strictly more than that.
    shard0_txns = sum(
        1
        for txn in cluster.history.certified()
        if "shard-0" in cluster.directory.shards_of(txn)
    )
    if shard0_txns:
        assert leader_messages / shard0_txns > 3


def test_abort_rate_metric(cluster):
    cluster.certify(rw_payload("x", version=0, tiebreak="a"))
    cluster.certify(rw_payload("x", version=0, tiebreak="b"))
    assert cluster.abort_rate() == pytest.approx(0.5)


def test_a_durable_transaction_keeps_only_the_decision_and_its_timestamps(cluster):
    """Once the decision is durable everywhere, the coordinator's record
    holds no vote or durability container, no payload and no ``__dict__``."""
    for i in range(3):
        cluster.certify(rw_payload(f"k{i}", tiebreak=str(i)))
    cluster.certify(payload())  # touches no shard: commits trivially
    cluster.run()
    (coordinator,) = cluster.coordinators
    entries = list(coordinator.transactions.values())
    assert len(entries) == 4
    for entry in entries:
        assert entry.decision is Decision.COMMIT and entry.durable_at is not None
        assert entry.votes is None and entry.durable_shards is None
        assert not hasattr(entry, "payload") and not hasattr(entry, "__dict__")
    assert cluster.colocated_latencies().count(4.0) == 3


# ----------------------------------------------------------------------
# indexed certification state machine vs. the scan it replaced
# ----------------------------------------------------------------------

class _ScanMachine:
    """Reference: the state machine as it was before the vote index — every
    prepare rebuilds the prepared list and calls :func:`scan_vote` over
    every committed payload."""

    def __init__(self, shard, scheme):
        self.shard, self.scheme = shard, scheme
        self.committed, self.prepared, self.decisions = [], {}, {}

    def apply(self, command):
        if isinstance(command, Batch):
            return tuple(self.apply(each) for each in command.items)
        if isinstance(command, PrepareCommand):
            if command.txn in self.prepared:
                return self.prepared[command.txn][1]
            if command.txn in self.decisions:
                return self.decisions[command.txn]
            prepared = [p for p, vote in self.prepared.values() if vote is Decision.COMMIT]
            vote = scan_vote(self.scheme, self.shard, self.committed, prepared, command.payload)
            self.prepared[command.txn] = (command.payload, vote)
            return vote
        if command.txn in self.decisions:
            return self.decisions[command.txn]
        self.decisions[command.txn] = command.decision
        entry = self.prepared.pop(command.txn, None)
        if command.decision is Decision.COMMIT and entry is not None:
            self.committed.append(entry[0])
        return command.decision


class _ScanForbiddenScheme(SerializabilityScheme):
    def shard_certify_committed(self, shard, committed, payload):
        raise AssertionError("the O(committed) scan ran although an index exists")


@st.composite
def command_sequences(draw):
    """Prepare/decide commands over a few transactions, in any order, with
    duplicates, aborts, decides that precede (or lack) their prepare, and
    some of the sequence wrapped into a Batch."""
    population = draw(st.lists(payloads(), min_size=1, max_size=6))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(population) - 1),
                st.sampled_from(["prepare", "prepare", Decision.COMMIT, Decision.ABORT]),
            ),
            min_size=1,
            max_size=24,
        )
    )
    batch_from = draw(st.integers(0, len(steps)))
    return population, steps, batch_from


def _commands(scheme, shard, population, steps):
    for index, kind in steps:
        txn = f"t{index}"
        if kind == "prepare":
            # What a coordinator sends: the payload projected on the shard.
            yield PrepareCommand(txn=txn, payload=scheme.project(population[index], shard))
        else:
            yield DecideCommand(txn=txn, decision=kind)


@pytest.mark.parametrize("scheme", [SER, SI], ids=["serializability", "snapshot-isolation"])
@given(sequence=command_sequences())
@settings(max_examples=150, deadline=None)
def test_indexed_state_machine_votes_like_the_scan(scheme, sequence):
    population, steps, batch_from = sequence
    for shard in SHARDS:
        indexed = CertificationStateMachine(shard, scheme)
        assert indexed._index is not None
        reference = _ScanMachine(shard, scheme)
        commands = list(_commands(scheme, shard, population, steps))
        sequence = commands[:batch_from]
        if commands[batch_from:]:
            sequence.append(Batch(tuple(commands[batch_from:])))
        for command in sequence:
            assert indexed.apply(command) == reference.apply(command)
        assert indexed.prepared == reference.prepared
        assert indexed.decisions == reference.decisions


@pytest.mark.parametrize("scheme", [SER, SI], ids=["serializability", "snapshot-isolation"])
@given(sequence=command_sequences())
@settings(max_examples=60, deadline=None)
def test_state_machine_over_the_scan_index_votes_like_the_scan(scheme, sequence):
    """The state machine tells its index about every prepare and decide:
    handed the reference index (plain lists, ``scan_vote`` per prepare) it
    must vote exactly like the pre-index state machine."""
    population, steps, _ = sequence
    machine = CertificationStateMachine(
        "shard-0", reference_scheme(type(scheme), KeyHashSharding(SHARDS))
    )
    assert isinstance(machine._index, ScanVoteIndex)
    reference = _ScanMachine("shard-0", scheme)
    for command in _commands(scheme, "shard-0", population, steps):
        assert machine.apply(command) == reference.apply(command)
    assert machine._index.committed == reference.committed


@pytest.mark.parametrize("scheme", [SER, SI], ids=["serializability", "snapshot-isolation"])
@given(sequence=command_sequences(), split=st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_a_restored_state_machine_votes_like_its_source_and_shares_nothing(
    scheme, sequence, split
):
    """A replica that fell behind installs a snapshot of another's state
    machine (``repro.baselines.paxos``): it must vote like the source from
    there on, and a copy restored from the same snapshot after both ran on
    must vote like a replay of the prefix, so neither ``snapshot`` nor
    ``restore`` shares a container."""
    population, steps, _ = sequence
    for shard in SHARDS:
        commands = list(_commands(scheme, shard, population, steps))
        source, replay = (CertificationStateMachine(shard, scheme) for _ in range(2))
        for command in commands[:split]:
            source.apply(command)
            replay.apply(command)
        snapshot = source.snapshot()
        restored = CertificationStateMachine(shard, scheme)
        restored.restore(snapshot)
        for command in commands[split:]:
            assert restored.apply(command) == source.apply(command)
        assert restored.prepared == source.prepared
        assert restored.decisions == source.decisions
        late = CertificationStateMachine(shard, scheme)
        late.restore(snapshot)
        for command in commands[split:]:
            assert late.apply(command) == replay.apply(command)
        assert late.prepared == replay.prepared and late.decisions == replay.decisions


def test_a_snapshot_costs_the_same_whatever_the_sharding_memo_holds():
    """A snapshot carries the state machine's state, not its scheme: the
    sharding function's memo of the keys it has seen stays off the wire."""
    sharding = KeyHashSharding(SHARDS)
    machine = CertificationStateMachine("shard-0", SerializabilityScheme(sharding))
    fresh = wire._field_size(machine.snapshot())
    for i in range(1000):
        sharding.shard_of(f"key-{i}")
    assert wire._field_size(machine.snapshot()) == fresh


class _Submitter(Process):
    """Replicates commands through a Paxos leader and keeps the results."""

    def __init__(self):
        super().__init__("submitter")
        self.results = {}

    def submit(self, leader, command):
        request_id = len(self.results) + 1
        self.results[request_id] = None
        self.send(leader, RsmCommand(command=command, request_id=request_id))

    def on_rsm_response(self, msg, sender):
        self.results[msg.request_id] = msg.result


@pytest.mark.parametrize("scheme", [SER, SI], ids=["serializability", "snapshot-isolation"])
@given(sequence=command_sequences(), split=st.integers(1, 24))
@settings(max_examples=40, deadline=None)
def test_a_phase_1_leader_installs_the_summary_and_votes_as_if_it_kept_its_state(
    scheme, sequence, split
):
    """A replica partitioned away while a prefix of the commands was chosen
    wins phase 1: it installs its quorum's snapshot — the settled summary,
    the prepared tail and the decisions — and from there answers every
    command as a state machine that applied the prefix itself."""
    population, steps, _ = sequence
    shard = "shard-0"
    commands = list(_commands(scheme, shard, population, steps))
    scheduler = Scheduler()
    network = Network(scheduler)
    group = PaxosGroup(network, "g", 3, lambda: CertificationStateMachine(shard, scheme))
    submitter = _Submitter()
    network.register(submitter)
    lagging = group.replicas[-1]
    network.partition([lagging.pid], list(group.pids[:-1]))
    for command in commands[:split]:
        submitter.submit(group.leader, command)
    scheduler.run()
    network.heal()
    kept = CertificationStateMachine(shard, scheme)
    for command in commands[:split]:
        kept.apply(command)
    installed = []
    restore = lagging.state_machine.restore

    def recording_restore(snapshot):
        installed.append(snapshot)
        restore(snapshot)

    lagging.state_machine.restore = recording_restore
    lagging.become_leader()
    assert scheduler.run_until(lambda: lagging.leading)
    (snapshot,) = installed
    assert snapshot.settled == kept._index.settled()
    assert lagging.state_machine.prepared == kept.prepared
    assert lagging.state_machine.decisions == kept.decisions
    answered = len(submitter.results)
    for command in commands[split:]:
        submitter.submit(lagging.pid, command)
    scheduler.run()
    assert list(submitter.results.values())[answered:] == [
        kept.apply(command) for command in commands[split:]
    ]
    for replica in group.replicas:
        assert replica.state_machine.prepared == kept.prepared
        assert replica.state_machine.decisions == kept.decisions


def test_a_scheme_must_supply_both_indexes():
    """No production path falls back to a scan: a scheme without a vote or
    conflict index is rejected where it is first asked for one."""
    from repro.core.certification import CertificationScheme
    from repro.spec.incremental import IncrementalTCSChecker

    class _Bare(CertificationScheme):
        pass

    with pytest.raises(NotImplementedError):
        CertificationStateMachine("shard-0", _Bare())
    with pytest.raises(NotImplementedError):
        IncrementalTCSChecker(_Bare())


def test_indexed_prepare_never_scans_the_committed_payloads():
    """The quadratic path cannot come back unnoticed: with an index, a
    prepare must not reach ``shard_certify_committed`` at all."""
    scheme = _ScanForbiddenScheme(KeyHashSharding(SHARDS))
    machine = CertificationStateMachine("shard-0", scheme)
    keys = [shard_key(scheme, "shard-0", hint=f"k{i}") for i in range(3)]
    for i, key in enumerate(keys):
        txn = f"t{i}"
        assert machine.apply(PrepareCommand(txn, rw_payload(key, tiebreak=txn))) is Decision.COMMIT
        machine.apply(DecideCommand(txn, Decision.COMMIT))
    stale = PrepareCommand("stale", rw_payload(keys[0], version=0, tiebreak="s"))
    assert machine.apply(stale) is Decision.ABORT
    with pytest.raises(AssertionError, match="scan ran"):
        _ScanMachine("shard-0", scheme).apply(stale)
