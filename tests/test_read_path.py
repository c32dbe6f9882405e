"""Tests for the snapshot-read fast path (``repro.core.reads``).

Three layers:

* the store rules that back every replica's applied store, which keeps the
  latest version of each object: the newest version wins whatever the
  arrival order, an equal or older one changes nothing, a seed never hides
  an installed version and the first seed wins;
* the :class:`ReplicaReadEngine` state machine in isolation — pending-writer
  refusal, installs on commit, a rebuild starting from the seeds, lease
  bookkeeping, broken-mode accounting;
* the end-to-end path on a live cluster — leader serves, certified-path
  fallback, the read-heavy scenario's safety, the stale-lease ablation's
  checker-visible cycle, and the baseline's applied-store parity.
"""

import gc
import itertools

import pytest

from repro.baselines.cluster import BaselineCluster
from repro.cluster import Cluster
from repro.core.reads import DEFAULT_LEASE, ReadPolicy, ReplicaReadEngine
from repro.core.serializability import VERSION_ZERO
from repro.core.types import Decision, Phase
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import ReadSpec
from repro.store.kv import VersionedKVStore, VersionedValue

from helpers import TCSChecker, payload, rw_payload, shard_key


# ----------------------------------------------------------------------
# store primitives
# ----------------------------------------------------------------------

VERSIONS = (("v1", (1, "a")), ("v2", (2, "b")), ("v3", (3, "c")))


@pytest.mark.parametrize("order", list(itertools.permutations(range(len(VERSIONS)))))
def test_install_keeps_the_newest_version_whatever_the_arrival_order(order):
    store = VersionedKVStore({"x": "v0"})
    for index in order:
        store.install("x", *VERSIONS[index])
    assert store.read("x") == VersionedValue("v3", (3, "c"))


def test_installing_an_equal_or_older_version_changes_nothing():
    store = VersionedKVStore()
    store.install("x", "v2", (2, "b"))
    store.install("x", "again", (2, "b"))  # a repeated decision
    store.install("x", "v1", (1, "a"))  # a late one
    assert store.read("x") == VersionedValue("v2", (2, "b"))


def test_a_seed_never_hides_an_installed_version_and_the_first_seed_wins():
    store = VersionedKVStore()
    store.seed("x", "first")
    store.seed("x", "second")
    assert store.read("x") == VersionedValue("first", VERSION_ZERO)
    store.install("x", "v1", (1, "a"))
    store.seed("x", "late")
    store.install("y", "v1", (1, "a"))
    store.seed("y", "after")
    assert store.read("x") == VersionedValue("v1", (1, "a"))
    assert store.read("y") == VersionedValue("v1", (1, "a"))
    assert store.seeds == {"x": "first", "y": "after"}
    assert store.read("ghost") == VersionedValue(None, VERSION_ZERO)


# ----------------------------------------------------------------------
# ReplicaReadEngine in isolation
# ----------------------------------------------------------------------

class _StubReplica:
    def __init__(self):
        self.vote_arr = {}
        self.payload_arr = {}
        self.dec_arr = {}
        self.phase_arr = {}
        self.now = 0.0
        self.pid = "stub/r0"


def _engine(mode="snapshot", lease=DEFAULT_LEASE):
    replica = _StubReplica()
    engine = ReplicaReadEngine(replica, ReadPolicy(mode=mode, lease=lease))
    engine.note_lease(expires_at=1_000.0, granted=True)
    return replica, engine


def _store(replica, engine, slot, p):
    """What ``ReplicaBase.store_slot`` does to a fresh slot voted commit."""
    replica.payload_arr[slot] = p
    replica.vote_arr[slot] = Decision.COMMIT
    replica.phase_arr[slot] = Phase.PREPARED
    engine.note_stored(slot, Phase.START)


def _decide(replica, engine, slot, decision):
    """What ``ReplicaBase.decide_slot`` does."""
    previous = replica.dec_arr.get(slot)
    replica.dec_arr[slot] = decision
    replica.phase_arr[slot] = Phase.DECIDED
    engine.note_decided(slot, previous)


def test_engine_refuses_reads_with_pending_writer_then_serves():
    replica, engine = _engine()
    engine.seed({"x": "init"})
    p = rw_payload("x", value="new", tiebreak="w")
    _store(replica, engine, 3, p)
    status, reads = engine.serve(("x",), now=1.0)
    assert (status, reads) == ("pending", None)
    assert engine.reads_refused_pending == 1
    # The decision installs the write and clears the pending count.
    _decide(replica, engine, 3, Decision.COMMIT)
    assert engine.pending_writers == {}
    status, reads = engine.serve(("x",), now=2.0)
    assert status == "ok"
    assert reads == [("x", "new", p.commit_version)]
    assert engine.reads_served == 1


def test_engine_abort_decisions_release_pending_without_installing():
    replica, engine = _engine()
    engine.seed({"x": "init"})
    _store(replica, engine, 1, rw_payload("x", value="doomed", tiebreak="a"))
    _decide(replica, engine, 1, Decision.ABORT)
    assert engine.pending_writers == {}
    status, reads = engine.serve(("x",), now=1.0)
    assert status == "ok"
    assert reads == [("x", "init", VERSION_ZERO)]


def test_engine_reads_its_seeds_again_after_a_rebuild():
    replica, engine = _engine()
    engine.seed({"x": "init", "y": "other"})
    p = rw_payload("x", value="new", tiebreak="w")
    _store(replica, engine, 1, p)
    _decide(replica, engine, 1, Decision.COMMIT)
    assert engine.serve(("x", "y"), now=1.0)[1] == [
        ("x", "new", p.commit_version),
        ("y", "other", VERSION_ZERO),
    ]
    # A state transfer replaces the slot arrays with a log that never
    # decided slot 1; the rebuilt engine starts from its seeds.
    for array in (replica.payload_arr, replica.vote_arr, replica.dec_arr, replica.phase_arr):
        array.clear()
    live = engine.store
    engine.rebuild()
    assert engine.store is not live  # a shallow copy's rebuild leaves its original alone
    assert engine.serve(("x", "y"), now=2.0)[1] == [
        ("x", "init", VERSION_ZERO),
        ("y", "other", VERSION_ZERO),
    ]


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
    assert (seeded if engine is None else engine.store).read("key-7").value == 7


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
    cluster = Cluster(num_shards=2, num_clients=1, seed=11, read=ReadPolicy(mode="snapshot"))
    cluster.run()  # deliver the bootstrap lease grants
    return cluster


def test_fast_path_serves_committed_write(read_cluster):
    cluster = read_cluster
    key = shard_key(cluster.scheme, "shard-0")
    cluster.seed_read_stores({key: "seeded"})
    write = rw_payload(key, value="fresh", tiebreak="w")
    assert cluster.certify(write) is Decision.COMMIT
    txn = cluster.submit_read((key,), fallback_payload=payload(reads=[(key, write.commit_version)]))
    cluster.run_until_decided([txn])
    assert cluster.decision_of(txn) is Decision.COMMIT
    client = cluster.clients[0]
    assert client.reads_served == 1 and client.read_fallbacks == 0
    (obj, value, version) = client.read_results[txn][0]
    assert (obj, value, version) == (key, "fresh", write.commit_version)
    # The decide event carries the versioned read, so the checker sees it.
    decided = cluster.history.effective_payload_of(txn)
    assert dict(decided.read_set)[key] == write.commit_version
    assert cluster.check()[0].ok


def test_read_before_lease_grant_falls_back_to_certification():
    cluster = Cluster(num_shards=2, num_clients=1, seed=12, read=ReadPolicy(mode="snapshot"))
    key = shard_key(cluster.scheme, "shard-0")
    # No cluster.run(): the lease grants are still in flight when the read
    # arrives, so the leader must refuse and the client must certify.
    txn = cluster.submit_read((key,), fallback_payload=payload(reads=[(key, VERSION_ZERO)]))
    cluster.run_until_decided([txn])
    client = cluster.clients[0]
    assert cluster.decision_of(txn) is Decision.COMMIT
    assert client.reads_served == 0
    assert client.read_fallbacks == 1
    assert client.read_fallback_reasons == {"lease": 1}
    assert cluster.check()[0].ok


def test_multi_shard_objects_are_rejected_by_submit_read(read_cluster):
    cluster = read_cluster
    key0 = shard_key(cluster.scheme, "shard-0")
    key1 = shard_key(cluster.scheme, "shard-1")
    with pytest.raises(ValueError):
        cluster.submit_read(
            (key0, key1),
            fallback_payload=payload(reads=[(key0, VERSION_ZERO), (key1, VERSION_ZERO)]),
        )


def test_applied_store_keeps_the_latest_commit(read_cluster):
    cluster = read_cluster
    key = shard_key(cluster.scheme, "shard-0")
    first = rw_payload(key, value=1, tiebreak="w1")
    assert cluster.certify(first) is Decision.COMMIT
    second = payload(reads=[(key, first.commit_version)], writes=[(key, 2)], tiebreak="w2")
    assert cluster.certify(second) is Decision.COMMIT
    cluster.run()  # drain the slot-decision installs
    leader = cluster.replicas[cluster.leader_of("shard-0")]
    assert leader.read_engine.store.read(key) == VersionedValue(2, second.commit_version)


def test_baseline_applied_store_parity():
    """The 2PC-over-Paxos baseline keeps the same applied store, so
    read-ratio comparisons against it are apples to apples."""
    cluster = BaselineCluster(
        num_shards=2, failures_tolerated=1, seed=13, read=ReadPolicy(mode="snapshot")
    )
    key = shard_key(cluster.scheme, "shard-0")
    other = shard_key(cluster.scheme, "shard-0", hint="other")
    cluster.seed_read_stores({key: "seeded", other: "kept"})
    write = rw_payload(key, value="fresh", tiebreak="w")
    assert cluster.certify(write) is Decision.COMMIT
    store = cluster.groups["shard-0"].leader_replica.state_machine.applied_store
    assert store.read(key) == VersionedValue("fresh", write.commit_version)
    assert store.read(other) == VersionedValue("kept", VERSION_ZERO)


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
    runner = ScenarioRunner(get_scenario("stale-lease-ablation"))
    result = runner.run()
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
