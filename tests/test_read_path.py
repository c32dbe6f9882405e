"""Tests for the snapshot-read fast path (``repro.core.reads``).

Three layers:

* what a leader serves: its vote index's latest committed write of each
  object — the newest commit wins whatever the decision order, a repeated
  or older decision changes nothing — or the object's seed at version zero
  (the first seed wins, and a seed never hides a committed write);
* the :class:`ReplicaReadEngine` on a replica driven through its one write
  path (``store_slot`` / ``decide_slot``) — pending-writer refusal, commits
  served, the seeds served again after a state transfer, lease
  bookkeeping, broken-mode accounting;
* the end-to-end path on a live cluster — leader serves, certified-path
  fallback (the only path that registers a read in the directory), one
  shared certify-time marker per objects tuple, the read-heavy scenario's
  safety, the stale-lease ablation's checker-visible cycle, and the
  reference vote index's served reads;
* the key space's seed mapping, which answers as the dict it replaces.
"""

import gc
import itertools

import pytest

from repro.cluster import Cluster
from repro.core.directory import TransactionDirectory
from repro.core.messages import NewState
from repro.core.reads import DEFAULT_LEASE, ReadPolicy
from repro.core.replica import ShardReplica
from repro.core.serializability import (
    VERSION_ZERO,
    KeyHashSharding,
    SerializabilityScheme,
    SnapshotRead,
)
from repro.core.types import Decision
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import ReadSpec
from repro.store.kv import VersionedKVStore
from repro.workload.generators import KeySpaceSeeds

from helpers import (
    TCSChecker,
    assert_settled_matches,
    capture_payloads,
    effective_payload_of,
    events_of,
    payload,
    record,
    record_served_reads,
    reference_scheme,
    run_recorded,
    rw_payload,
    shard_key,
)


# ----------------------------------------------------------------------
# ReplicaReadEngine on a replica's write path
# ----------------------------------------------------------------------

def _engine(mode="snapshot", lease=DEFAULT_LEASE):
    """A lone shard replica (every object is its shard's) and its engine,
    holding a lease."""
    scheme = SerializabilityScheme(KeyHashSharding(["shard-0"]))
    replica = ShardReplica(
        "shard-0/r0", "shard-0", scheme, TransactionDirectory(), "config",
        read=ReadPolicy(mode=mode, lease=lease),
    )
    engine = replica.read_engine
    engine.note_lease(expires_at=1_000.0, granted=True)
    return replica, engine


def _commit(replica, slot, p):
    """Store ``p`` in ``slot`` voted commit, then decide it commit."""
    replica.store_slot(slot, f"t{slot}", p, Decision.COMMIT)
    replica.decide_slot(slot, Decision.COMMIT)


def _served(engine, *objects):
    status, reads = engine.serve(objects, now=1.0)
    assert status == "ok", status
    return [(value, version) for _, value, version in reads]


VERSIONS = (("v1", (1, "a")), ("v2", (2, "b")), ("v3", (3, "c")))


def _write(obj, value, version):
    return payload(reads=[(obj, VERSION_ZERO)], writes=[(obj, value)], commit_version=version)


@pytest.mark.parametrize("order", list(itertools.permutations(range(len(VERSIONS)))))
def test_the_newest_commit_is_served_whatever_the_decision_order(order):
    replica, engine = _engine()
    engine.seed({"x": "v0"})
    for slot, (value, version) in enumerate(VERSIONS, start=1):
        replica.store_slot(slot, f"t{slot}", _write("x", value, version), Decision.COMMIT)
    for index in order:
        replica.decide_slot(index + 1, Decision.COMMIT)
    assert _served(engine, "x") == [("v3", (3, "c"))]


def test_a_repeated_or_older_decision_changes_nothing():
    replica, engine = _engine()
    _commit(replica, 2, _write("x", "v2", (2, "b")))
    replica.decide_slot(2, Decision.COMMIT)  # a repeated decision
    _commit(replica, 1, _write("x", "v1", (1, "a")))  # a late one
    assert _served(engine, "x") == [("v2", (2, "b"))]


def test_the_first_seed_wins_and_a_seed_never_hides_a_committed_write():
    replica, engine = _engine()
    engine.seed({"x": "first"})
    engine.seed({"x": "second"})
    assert _served(engine, "x") == [("first", VERSION_ZERO)]
    _commit(replica, 1, _write("x", "v1", (1, "a")))
    engine.seed({"x": "late"})
    _commit(replica, 2, _write("y", "v1", (1, "a")))
    engine.seed({"y": "after"})
    assert _served(engine, "x", "y", "ghost") == [
        ("v1", (1, "a")), ("v1", (1, "a")), (None, VERSION_ZERO),
    ]
    assert engine.seeds == {"x": "first", "y": "after"}


def test_engine_refuses_reads_with_pending_writer_then_serves():
    replica, engine = _engine()
    engine.seed({"x": "init"})
    p = rw_payload("x", value="new", tiebreak="w")
    replica.store_slot(3, "t3", p, Decision.COMMIT)
    status, reads = engine.serve(("x",), now=1.0)
    assert (status, reads) == ("pending", None)
    assert engine.reads_refused_pending == 1
    # The decision commits the write and clears the pending count.
    replica.decide_slot(3, Decision.COMMIT)
    assert replica._votes.index().prepared_writers == {}
    status, reads = engine.serve(("x",), now=2.0)
    assert status == "ok"
    assert reads == [("x", "new", p.commit_version)]
    assert engine.reads_served == 1


def test_engine_abort_decisions_release_pending_without_committing():
    replica, engine = _engine()
    engine.seed({"x": "init"})
    replica.store_slot(1, "t1", rw_payload("x", value="doomed", tiebreak="a"), Decision.COMMIT)
    replica.decide_slot(1, Decision.ABORT)
    assert replica._votes.index().prepared_writers == {}
    status, reads = engine.serve(("x",), now=1.0)
    assert status == "ok"
    assert reads == [("x", "init", VERSION_ZERO)]


def test_engine_reads_its_seeds_again_after_a_state_transfer():
    replica, engine = _engine()
    engine.seed({"x": "init", "y": "other"})
    p = rw_payload("x", value="new", tiebreak="w")
    _commit(replica, 1, p)
    assert _served(engine, "x", "y") == [("new", p.commit_version), ("other", VERSION_ZERO)]
    # A state transfer replaces the slot arrays with a log that never
    # decided slot 1; the engine serves its seeds again.
    replica._adopt_state(
        NewState(
            epoch=2, members=(replica.pid,), txn={}, payload={}, vote={}, dec={}, summary={},
        )
    )
    assert _served(engine, "x", "y") == [("init", VERSION_ZERO), ("other", VERSION_ZERO)]


@pytest.mark.parametrize("holder", ("store", "engine"))
def test_seeding_adds_no_gc_tracked_object_per_key(holder):
    initial = {f"key-{index}": index for index in range(1000)}
    engine = _engine()[1] if holder == "engine" else None
    gc.collect()
    before = len(gc.get_objects())
    if engine is None:
        seeded = VersionedKVStore(initial)
    else:
        engine.seed(initial)
    assert len(gc.get_objects()) - before < 10  # the holder's own objects
    if engine is None:
        assert seeded.read("key-7").value == 7
    else:
        assert _served(engine, "key-7") == [(7, VERSION_ZERO)]


# ----------------------------------------------------------------------
# the key space's seed mapping
# ----------------------------------------------------------------------

# Names ``int()`` reads after the prefix that no ``f"key-{i}"`` spells.
_MISSPELT = ("key-07", "key-+7", "key- 7", "key-1_0", "key-\u0667")


@pytest.mark.parametrize("num_keys", [1, 8, 50])
def test_the_key_space_mapping_answers_as_the_dict_it_replaces(num_keys):
    seeds = KeySpaceSeeds(num_keys)
    built = {f"key-{index}": 0 for index in range(num_keys)}
    for name in _MISSPELT:
        int(name[len("key-"):])
    names = [
        *built,
        *(f"key-{index}" for index in (num_keys, num_keys + 1, 10 * num_keys, -1)),
        *_MISSPELT,
        "key-", "key-00", "key-7 ", "key-7\n", "key-" + "7" * 5000,
        "Key-7", "key7", "key_7", "kez-1", "xkey-1", "account-1", "",
    ]
    for name in names:
        assert (name in seeds) == (name in built), name
        assert seeds.get(name) == built.get(name), name
        assert seeds.get(name, "absent") == built.get(name, "absent"), name
    assert 7 not in seeds and seeds.get(None) is None
    with pytest.raises(KeyError):
        seeds["key-07"]
    assert seeds["key-0"] == 0
    assert len(seeds) == num_keys and seeds == built


@pytest.mark.parametrize("holder", ("store", "engine"))
def test_seeds_are_kept_by_reference(holder):
    seeds = KeySpaceSeeds(1_000_000)
    if holder == "store":
        assert VersionedKVStore(seeds).seeds is seeds
        return
    replica, engine = _engine()
    engine.seed(seeds)
    assert engine.seeds is seeds
    assert _served(engine, "key-999999", "key-1000000") == [(0, VERSION_ZERO), (None, VERSION_ZERO)]


def test_engine_refuses_on_expired_lease_and_wants_renewal():
    replica, engine = _engine(lease=10.0)
    engine.lease_expires = 5.0
    assert engine.serve(("x",), now=5.0) == ("lease", None)
    assert engine.reads_refused_lease == 1
    assert engine.lease_wants_renewal(now=5.0)
    engine.note_lease(expires_at=50.0, granted=True)
    assert not engine.lease_wants_renewal(now=5.0)


def test_deposed_leader_stale_epoch_grant_is_fenced():
    replica, engine = _engine(lease=10.0)
    engine.lease_expires = float("-inf")
    engine.note_epoch(2)  # a view change deposed and re-elected around us
    # An in-flight grant echoing the old epoch arrives after the fence: it
    # must not re-arm the lease (the deposed leader would serve snapshot
    # reads against a configuration that no longer exists).
    engine.note_lease(expires_at=2_000.0, granted=True, epoch=1)
    assert engine.stale_grants == 1
    assert engine.lease_expires == float("-inf")
    assert engine.serve(("x",), now=0.0) == ("lease", None)
    # A grant echoing the current epoch is accepted as usual.
    engine.note_lease(expires_at=2_000.0, granted=True, epoch=2)
    assert engine.stale_grants == 1
    assert engine.lease_expires == 2_000.0


def test_broken_engine_serves_anyway_and_counts_stale():
    replica, engine = _engine(mode="broken-snapshot")
    engine.seed({"x": "old"})
    engine.lease_expires = float("-inf")  # no valid lease
    status, reads = engine.serve(("x",), now=7.0)
    assert status == "ok"
    assert reads == [("x", "old", VERSION_ZERO)]
    assert engine.stale_serves == 1
    assert engine.reads_refused_lease == 0


def test_read_policy_validation():
    with pytest.raises(ValueError):
        ReadPolicy(mode="psychic").validate()
    with pytest.raises(ValueError):
        ReadPolicy(mode="snapshot", lease=0.0).validate()
    assert not ReadPolicy().enabled  # certified default stays inert


# ----------------------------------------------------------------------
# end to end on a live cluster
# ----------------------------------------------------------------------

@pytest.fixture
def read_cluster():
    cluster = Cluster(num_shards=2, seed=11, read=ReadPolicy(mode="snapshot"))
    record(cluster.history)
    cluster.run()  # deliver the bootstrap lease grants
    return cluster


def test_fast_path_serves_committed_write(read_cluster):
    cluster = read_cluster
    key = shard_key(cluster.scheme, "shard-0")
    cluster.seed_read_stores({key: "seeded"})
    write = rw_payload(key, value="fresh", tiebreak="w")
    assert cluster.certify(write) is Decision.COMMIT
    client = cluster.client
    served = record_served_reads(client)
    txn = cluster.submit_read((key,), fallback_payload=payload(reads=[(key, write.commit_version)]))
    cluster.run_until_decided([txn])
    assert cluster.decision_of(txn) is Decision.COMMIT
    assert client.reads_served == 1 and client.read_fallbacks == 0
    (obj, value, version) = served[txn][0]
    assert (obj, value, version) == (key, "fresh", write.commit_version)
    # The decide event carries the versioned read, so the checker sees it.
    decided = effective_payload_of(cluster.history, txn)
    assert dict(decided.read_set)[key] == write.commit_version
    assert cluster.check()[0].ok


def test_read_before_lease_grant_falls_back_to_certification():
    cluster = Cluster(num_shards=2, seed=12, read=ReadPolicy(mode="snapshot"))
    key = shard_key(cluster.scheme, "shard-0")
    # No cluster.run(): the lease grants are still in flight when the read
    # arrives, so the leader must refuse and the client must certify.
    txn = cluster.submit_read((key,), fallback_payload=payload(reads=[(key, VERSION_ZERO)]))
    cluster.run_until_decided([txn])
    client = cluster.client
    assert cluster.decision_of(txn) is Decision.COMMIT
    assert client.reads_served == 0
    assert client.read_fallbacks == 1
    assert client.read_fallback_reasons == {"lease": 1}
    assert cluster.check()[0].ok


def test_a_served_read_adds_no_directory_entry(read_cluster):
    cluster = read_cluster
    key = shard_key(cluster.scheme, "shard-0")
    txn = cluster.submit_read((key,), fallback_payload=payload(reads=[(key, VERSION_ZERO)]))
    cluster.run_until_decided([txn])
    assert cluster.client.reads_served == 1
    assert not cluster.directory.known(txn) and len(cluster.directory) == 0


def _log_registrations_and_requests(cluster):
    """Log, in order, every directory registration and every request the
    client hands its transport."""
    log = []
    directory, transport = cluster.directory, cluster.client._request_batcher
    register, add = directory.register, transport.add

    def logged_register(txn, **info):
        log.append(("register", txn))
        return register(txn, **info)

    def logged_add(dst, message):
        log.append(("request", message.txn))
        add(dst, message)

    directory.register, transport.add = logged_register, logged_add
    return log


@pytest.mark.parametrize("reason", ["lease", "pending"])
def test_a_refused_read_registers_once_before_its_certify_request(reason):
    cluster = Cluster(num_shards=2, seed=12, read=ReadPolicy(mode="snapshot"))
    key = shard_key(cluster.scheme, "shard-0")
    if reason == "pending":
        cluster.run()  # deliver the bootstrap lease grants
        writer = cluster.submit(rw_payload(key, value="new", tiebreak="w"))
        cluster.run(max_time=cluster.scheduler.now + 2.5)  # prepared, undecided
        assert cluster.decision_of(writer) is None
    # else: no cluster.run(), so the lease grants are still in flight.
    log = _log_registrations_and_requests(cluster)
    txn = cluster.submit_read((key,), fallback_payload=payload(reads=[(key, VERSION_ZERO)]))
    assert log == []
    cluster.run_until_decided([txn])
    assert cluster.client.read_fallback_reasons == {reason: 1}
    assert [entry for entry in log if entry[1] == txn] == [("register", txn), ("request", txn)]
    assert cluster.directory.shards_of(txn) == frozenset({"shard-0"})
    assert cluster.check()[0].ok


def test_reads_of_one_objects_tuple_record_one_marker(read_cluster):
    cluster = read_cluster
    key, other = (shard_key(cluster.scheme, "shard-0", hint=hint) for hint in ("a", "b"))
    txns = [
        cluster.submit_read(objects, fallback_payload=payload(reads=[(obj, VERSION_ZERO) for obj in objects]))
        for objects in ((key,), [key], (other,))
    ]
    assert cluster.run_until_decided(txns)
    markers = {e.txn: e.payload for e in events_of(cluster.history) if e.kind == "certify"}
    first, second, third = (markers[txn] for txn in txns)
    assert first is second and first == SnapshotRead(objects=(key,))
    assert third == SnapshotRead(objects=(other,))


def test_multi_shard_objects_are_rejected_by_submit_read(read_cluster):
    cluster = read_cluster
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    with pytest.raises(ValueError):
        cluster.submit_read(
            (key0, key1),
            fallback_payload=payload(reads=[(key0, VERSION_ZERO), (key1, VERSION_ZERO)]),
        )


def test_the_leader_serves_the_latest_commit(read_cluster):
    cluster = read_cluster
    key = shard_key(cluster.scheme, "shard-0")
    first = rw_payload(key, value=1, tiebreak="w1")
    assert cluster.certify(first) is Decision.COMMIT
    second = payload(reads=[(key, first.commit_version)], writes=[(key, 2)], tiebreak="w2")
    assert cluster.certify(second) is Decision.COMMIT
    cluster.run()  # drain the slot decisions
    leader = cluster.replicas[cluster.leader_of("shard-0")]
    assert leader.read_engine.serve((key,), leader.now) == (
        "ok", [(key, 2, second.commit_version)]
    )


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_reads_over_the_reference_index_equal_reads_over_the_incremental_one(protocol):
    """Served reads come from the leader's vote index.  Over the reference
    index (plain lists, every read question a scan) a mixed read/write run
    — with a reconfiguration that rebuilds the index — must record the
    history and read counters it records over the incremental index, and
    every replica's settled summary must hold what its decided slots
    committed, by the payloads the history handed over."""

    def drive(scheme):
        cluster = Cluster(
            num_shards=2, replicas_per_shard=2, protocol=protocol,
            scheme=scheme, seed=5, read=ReadPolicy(mode="snapshot"),
        )
        payloads = capture_payloads(cluster.history)
        cluster.run()  # deliver the bootstrap lease grants
        served = record_served_reads(cluster.client)
        keys = [shard_key(scheme, shard, hint=f"hot{i}") for shard in cluster.shards for i in range(2)]
        cluster.seed_read_stores({key: f"seed-{key}" for key in keys})
        txns = []
        for wave in range(6):
            if wave == 3:
                cluster.crash_follower("shard-0")
                cluster.reconfigure("shard-0")  # new epoch: the index is rebuilt
            for i in range(4):
                txns.append(cluster.submit(rw_payload(
                    keys[(wave + i) % len(keys)], version=wave // 2 if i % 2 else 0,
                    value=wave, tiebreak=f"w{wave}.{i}",
                )))
            # The reads arrive while the writes are prepared at the leaders.
            cluster.run(max_time=cluster.scheduler.now + 2.5)
            for key in keys:
                txns.append(cluster.submit_read(
                    (key,), fallback_payload=payload(reads=[(key, VERSION_ZERO)]),
                ))
            assert cluster.run_until_decided(txns)
        assert cluster.check()[0].ok
        for replica in cluster.replicas.values():
            assert_settled_matches(replica, payloads)
        return (
            cluster.history.digest(),
            cluster.read_stats(),
            [read for reads in served.values() for read in reads],
        )

    sharding = KeyHashSharding(["shard-0", "shard-1"])
    indexed = drive(SerializabilityScheme(sharding))
    scanned = drive(reference_scheme(SerializabilityScheme, sharding))
    assert indexed == scanned
    _, stats, served = indexed
    assert stats.reads_served and stats.refused_pending
    assert any(version != VERSION_ZERO for _, _, version in served)  # a committed write


# ----------------------------------------------------------------------
# scenarios: the safe fast path and the broken-lease ablation
# ----------------------------------------------------------------------

def test_read_heavy_scenario_is_safe_and_mostly_fast_path():
    result = ScenarioRunner(get_scenario("read-heavy-steady-state")).run()
    assert result.passed
    assert result.read_model.startswith("snapshot")
    assert result.reads_served > result.read_fallbacks
    assert result.read_stale_serves == 0


def test_stale_lease_ablation_is_flagged_with_a_cycle_witness():
    runner, result = run_recorded(get_scenario("stale-lease-ablation"))
    assert result.passed  # expect_safe=False and the checker fired
    assert not result.safety_ok
    assert "cycle" in result.check_reason
    assert result.read_stale_serves > 0
    # The offline checker agrees and can name the transactions on the cycle.
    check = TCSChecker(runner.cluster.scheme).check(runner.cluster.history)
    assert not check.ok
    assert len(check.cycle) >= 2


def test_same_fault_schedule_is_safe_with_the_guards_on():
    """Flipping only the read mode from broken-snapshot to snapshot (lease
    and pending guards enforced) turns every would-be stale serve into a
    certified-path fallback and the history is serializable again."""
    broken = get_scenario("stale-lease-ablation")
    fixed = broken.with_overrides(
        read=ReadSpec(mode="snapshot", lease=10.0), expect_safe=True
    )
    result = ScenarioRunner(fixed).run()
    assert result.passed
    assert result.safety_ok
    assert result.reads_served == 0  # the blocked lease refuses everything
    assert result.read_fallbacks > 0
    assert result.read_stale_serves == 0
