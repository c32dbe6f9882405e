"""Tests for the snapshot-read fast path (``repro.core.reads``).

Three layers:

* the MVCC store primitives (``read_at`` bisection, out-of-order
  ``install``) that back every replica's applied store;
* the :class:`ReplicaReadEngine` state machine in isolation — pending-writer
  refusal, watermark advance, lease bookkeeping, broken-mode accounting;
* the end-to-end path on a live cluster — leader serves, certified-path
  fallback, the read-heavy scenario's safety, the stale-lease ablation's
  checker-visible cycle, and the baseline's watermark parity.
"""

import pytest

from repro.baselines.cluster import BaselineCluster
from repro.cluster import Cluster
from repro.core.reads import DEFAULT_LEASE, ReadPolicy, ReplicaReadEngine
from repro.core.serializability import VERSION_ZERO
from repro.core.types import Decision, Phase
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import ReadSpec
from repro.store.kv import VersionedKVStore

from helpers import TCSChecker, payload, rw_payload, shard_key


# ----------------------------------------------------------------------
# store primitives
# ----------------------------------------------------------------------

def test_read_at_returns_newest_version_at_or_below():
    store = VersionedKVStore()
    store.seed("x", "v0")
    store.install("x", "v1", (1, "a"))
    store.install("x", "v3", (3, "c"))
    assert store.read_at("x", (0, "")).value == "v0"
    assert store.read_at("x", (1, "a")).value == "v1"
    assert store.read_at("x", (2, "b")).value == "v1"  # between versions
    assert store.read_at("x", (3, "c")).value == "v3"
    assert store.read_at("x", (9, "z")).value == "v3"  # latest fast path


def test_read_at_missing_object_and_below_first_version():
    store = VersionedKVStore()
    assert store.read_at("ghost", (5, "x")) is None
    store.install("x", "v2", (2, "b"))  # no version-zero seed
    assert store.read_at("x", (1, "a")) is None
    assert store.read_at("x", (2, "b")).value == "v2"


def test_install_tolerates_out_of_order_and_duplicate_versions():
    store = VersionedKVStore()
    assert store.install("x", "v3", (3, "c"))
    assert store.install("x", "v1", (1, "a"))  # arrives late, sorts first
    assert not store.install("x", "v3", (3, "c"))  # duplicate is a no-op
    assert [v.version for v in store.history_of("x")] == [(1, "a"), (3, "c")]
    assert store.read("x").value == "v3"
    assert store.read_at("x", (2, "b")).value == "v1"


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
    # The decision installs the write, clears the pending count and
    # advances the closed-timestamp watermark.
    _decide(replica, engine, 3, Decision.COMMIT)
    assert engine.watermark == p.commit_version
    status, reads = engine.serve(("x",), now=2.0)
    assert status == "ok"
    assert reads == [("x", "new", p.commit_version)]
    assert engine.reads_served == 1


def test_engine_abort_decisions_release_pending_without_installing():
    replica, engine = _engine()
    engine.seed({"x": "init"})
    _store(replica, engine, 1, rw_payload("x", value="doomed", tiebreak="a"))
    _decide(replica, engine, 1, Decision.ABORT)
    assert engine.watermark == VERSION_ZERO
    status, reads = engine.serve(("x",), now=1.0)
    assert status == "ok"
    assert reads == [("x", "init", VERSION_ZERO)]


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


def test_watermark_tracks_highest_applied_commit(read_cluster):
    cluster = read_cluster
    key = shard_key(cluster.scheme, "shard-0")
    first = rw_payload(key, value=1, tiebreak="w1")
    assert cluster.certify(first) is Decision.COMMIT
    second = payload(reads=[(key, first.commit_version)], writes=[(key, 2)], tiebreak="w2")
    assert cluster.certify(second) is Decision.COMMIT
    cluster.run()  # drain the slot-decision installs
    leader = cluster.replicas[cluster.leader_of("shard-0")]
    assert leader.read_engine.watermark == second.commit_version
    assert leader.read_engine.store.read(key).value == 2


def test_baseline_watermark_parity():
    """The 2PC-over-Paxos baseline keeps the same applied store and
    closed-timestamp watermark, so read-ratio comparisons against it are
    apples to apples."""
    cluster = BaselineCluster(
        num_shards=2, failures_tolerated=1, seed=13, read=ReadPolicy(mode="snapshot")
    )
    key = shard_key(cluster.scheme, "shard-0")
    cluster.seed_read_stores({key: "seeded"})
    write = rw_payload(key, value="fresh", tiebreak="w")
    assert cluster.certify(write) is Decision.COMMIT
    assert cluster.watermark_of("shard-0") == write.commit_version


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
