"""Unit tests for the certification framework and its concrete schemes."""

import pytest

from repro.core.serializability import (
    EMPTY_PAYLOAD,
    KeyHashSharding,
    SerializabilityScheme,
    SnapshotIsolationScheme,
    TransactionPayload,
    version_after,
    VERSION_ZERO,
)
from repro.core.types import Decision

from helpers import (
    check_empty_payload_commits,
    check_matching,
    payload,
    read_payload,
    rw_payload,
    scan_vote,
    shard_key,
)


# ----------------------------------------------------------------------
# payload well-formedness
# ----------------------------------------------------------------------
def test_payload_requires_written_objects_to_be_read():
    with pytest.raises(ValueError):
        TransactionPayload.make(reads=[], writes=[("x", 1)])


def test_payload_requires_commit_version_above_reads():
    with pytest.raises(ValueError):
        TransactionPayload.make(
            reads=[("x", (5, ""))], writes=[("x", 1)], commit_version=(5, "")
        )


def test_payload_rejects_two_versions_of_same_object():
    with pytest.raises(ValueError):
        TransactionPayload.make(reads=[("x", (1, "")), ("x", (2, ""))])


def test_payload_rejects_duplicate_writes():
    with pytest.raises(ValueError, match="write set contains object 'x' more than once"):
        TransactionPayload(
            read_set=(("x", (0, "")),),
            write_set=(("x", 1), ("x", 2)),
            commit_version=(1, ""),
        ).validate()


# A frozenset dropped a repeated pair without a word; the canonical tuple
# keeps it, so validate() must refuse it, and any tuple out of order.
@pytest.mark.parametrize(
    "reads, writes, message",
    [
        ((("x", (0, "")), ("x", (0, ""))), (), r"read set holds \('x', \(0, ''\)\) twice"),
        ((("x", (0, "")),), (("x", 1), ("x", 1)), r"write set holds \('x', 1\) twice"),
        ((("y", (0, "")), ("x", (0, ""))), (), "read set is not sorted by object id: 'y' before 'x'"),
        (
            (("x", (0, "")), ("y", (0, ""))),
            (("y", 1), ("x", 1)),
            "write set is not sorted by object id",
        ),
        (frozenset({("x", (0, ""))}), (), "read set must be a tuple sorted by object id, not frozenset"),
        ((("x", (0, "")),), [("x", 1)], "write set must be a tuple sorted by object id, not list"),
    ],
    ids=["repeated-read", "repeated-write", "unsorted-reads", "unsorted-writes", "frozenset", "list"],
)
def test_payload_rejects_sets_not_in_canonical_form(reads, writes, message):
    payload = TransactionPayload(read_set=reads, write_set=writes, commit_version=(1, ""))
    with pytest.raises(ValueError, match=message):
        payload.validate()


def test_payload_make_stores_sorted_tuples_without_repeats():
    p = TransactionPayload.make(
        reads=[("y", (1, "")), ("x", (0, "")), ("y", (1, ""))],
        writes=iter([("y", 5), ("x", 4), ("y", 5)]),
        tiebreak="t",
    )
    assert p.read_set == (("x", (0, "")), ("y", (1, "")))
    assert p.write_set == (("x", 4), ("y", 5))
    assert TransactionPayload.make().read_set == () == EMPTY_PAYLOAD.write_set
    p.validate()


def test_payload_make_auto_versions():
    p = TransactionPayload.make(reads=[("x", (3, "a")), ("y", (1, "b"))], writes=[("x", 9)], tiebreak="me")
    assert p.commit_version == (4, "me")
    assert p.read_version("x") == (3, "a")
    assert p.read_version("zzz") is None
    assert p.read_objects == {"x", "y"}
    assert p.written_objects == {"x"}


def test_empty_payload_properties():
    assert EMPTY_PAYLOAD.is_empty()
    assert not rw_payload("x").is_empty()


def test_version_after():
    assert version_after([], "t") == (1, "t")
    assert version_after([(3, "a"), (7, "b")], "t") == (8, "t")
    assert VERSION_ZERO < version_after([], "t")


# ----------------------------------------------------------------------
# sharding functions
# ----------------------------------------------------------------------
def test_key_hash_sharding_is_deterministic_and_total():
    sharding = KeyHashSharding(["s0", "s1", "s2"])
    for key in ["a", "b", "account-7", "key-123"]:
        assert sharding.shard_of(key) == sharding.shard_of(key)
        assert sharding.shard_of(key) in {"s0", "s1", "s2"}


def test_key_hash_sharding_requires_shards():
    with pytest.raises(ValueError):
        KeyHashSharding([])


# ----------------------------------------------------------------------
# serializability scheme: global f
# ----------------------------------------------------------------------
@pytest.fixture
def scheme():
    return SerializabilityScheme(KeyHashSharding(["shard-0", "shard-1"]))


def test_global_commit_when_no_conflicts(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    t2 = rw_payload("y", version=0, tiebreak="b")
    assert scheme.global_certify([t1], t2) is Decision.COMMIT


def test_global_abort_when_read_overwritten(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")  # writes x at version (1, a)
    t2 = rw_payload("x", version=0, tiebreak="b")  # read x at version 0 -> stale
    assert scheme.global_certify([t1], t2) is Decision.ABORT


def test_global_commit_when_read_version_is_current(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    t2 = payload(reads=[("x", t1.commit_version)], writes=[("x", 2)], tiebreak="b")
    assert scheme.global_certify([t1], t2) is Decision.COMMIT


def test_global_read_only_transaction_aborts_on_stale_read(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    stale_reader = read_payload("x", version=0)
    assert scheme.global_certify([t1], stale_reader) is Decision.ABORT


def test_global_empty_history_commits_everything(scheme):
    assert scheme.global_certify([], rw_payload("x")) is Decision.COMMIT


def test_empty_payload_always_commits(scheme):
    t1 = rw_payload("x", version=0, tiebreak="a")
    assert scheme.global_certify([t1], scheme.empty_payload()) is Decision.COMMIT
    for shard in scheme.shards():
        assert check_empty_payload_commits(scheme, shard, [t1])


# ----------------------------------------------------------------------
# serializability scheme: shard-local f_s and g_s
# ----------------------------------------------------------------------
def test_shard_local_check_ignores_other_shards(scheme):
    key0 = shard_key(scheme, "shard-0")
    key1 = shard_key(scheme, "shard-1")
    writer = rw_payload(key1, version=0, tiebreak="w")
    reader = read_payload(key1, version=0)
    # Shard 0 does not manage key1, so it sees no conflict.
    assert scheme.shard_certify_committed("shard-0", [writer], reader) is Decision.COMMIT
    assert scheme.shard_certify_committed("shard-1", [writer], reader) is Decision.ABORT


def test_prepared_check_aborts_read_write_conflict(scheme):
    key = shard_key(scheme, "shard-0")
    prepared_writer = rw_payload(key, version=0, tiebreak="p")
    reader = read_payload(key, version=0)
    assert scheme.shard_certify_prepared("shard-0", [prepared_writer], reader) is Decision.ABORT


def test_prepared_check_aborts_write_read_conflict(scheme):
    key = shard_key(scheme, "shard-0")
    prepared_reader = read_payload(key, version=0)
    writer = rw_payload(key, version=0, tiebreak="w")
    assert scheme.shard_certify_prepared("shard-0", [prepared_reader], writer) is Decision.ABORT


def test_prepared_check_commits_disjoint_transactions(scheme):
    key_a = shard_key(scheme, "shard-0", hint="alpha")
    key_b = shard_key(scheme, "shard-0", hint="beta")
    assert key_a != key_b
    prepared = rw_payload(key_a, version=0, tiebreak="p")
    other = rw_payload(key_b, version=0, tiebreak="o")
    assert scheme.shard_certify_prepared("shard-0", [prepared], other) is Decision.COMMIT


def test_vote_combines_committed_and_prepared_checks(scheme):
    key = shard_key(scheme, "shard-0")
    committed = [rw_payload(key, version=0, tiebreak="c")]
    fresh = payload(reads=[(key, committed[0].commit_version)], writes=[(key, 3)], tiebreak="f")
    assert scan_vote(scheme, "shard-0", committed, [], fresh) is Decision.COMMIT
    # A prepared conflicting transaction flips the vote to abort.
    prepared = [payload(reads=[(key, committed[0].commit_version)], writes=[(key, 9)], tiebreak="p")]
    assert scan_vote(scheme, "shard-0", committed, prepared, fresh) is Decision.ABORT


def test_projection_splits_payload_by_shard(scheme):
    key0 = shard_key(scheme, "shard-0")
    key1 = shard_key(scheme, "shard-1")
    combined = payload(
        reads=[(key0, (0, "")), (key1, (0, ""))],
        writes=[(key0, 1), (key1, 2)],
        tiebreak="c",
    )
    proj0 = scheme.project(combined, "shard-0")
    proj1 = scheme.project(combined, "shard-1")
    assert proj0.read_objects == {key0} and proj0.written_objects == {key0}
    assert proj1.read_objects == {key1} and proj1.written_objects == {key1}
    assert proj0.commit_version == proj1.commit_version == combined.commit_version
    # A projection filters the parent's sorted tuples: still canonical.
    for projection in (proj0, proj1):
        projection.validate()
    reads_only = payload(reads=[(key0, (0, "")), (key1, (0, ""))], writes=[(key0, 1)])
    assert scheme.project(reads_only, "shard-1").write_set == ()
    assert scheme.project(combined, "shard-9") == TransactionPayload(
        commit_version=combined.commit_version
    )


def test_shards_of_uses_read_and_write_sets(scheme):
    key0 = shard_key(scheme, "shard-0")
    key1 = shard_key(scheme, "shard-1")
    assert scheme.shards_of(rw_payload(key0)) == {"shard-0"}
    multi = payload(reads=[(key0, (0, "")), (key1, (0, ""))], writes=[(key0, 1)])
    assert scheme.shards_of(multi) == {"shard-0", "shard-1"}
    assert scheme.shards_of(scheme.empty_payload()) == set()


def test_matching_condition_on_examples(scheme):
    key0 = shard_key(scheme, "shard-0")
    key1 = shard_key(scheme, "shard-1")
    committed = [rw_payload(key0, tiebreak="a"), rw_payload(key1, tiebreak="b")]
    for candidate in [
        read_payload(key0, version=0),
        rw_payload(key1, version=0, tiebreak="x"),
        payload(reads=[(key0, committed[0].commit_version)], writes=[(key0, 5)], tiebreak="y"),
    ]:
        assert check_matching(scheme, committed, candidate)


# ----------------------------------------------------------------------
# snapshot isolation scheme
# ----------------------------------------------------------------------
@pytest.fixture
def si_scheme():
    return SnapshotIsolationScheme(KeyHashSharding(["shard-0", "shard-1"]))


def test_si_allows_stale_reads_but_not_stale_writes(si_scheme):
    writer = rw_payload("x", version=0, tiebreak="w")
    stale_reader = read_payload("x", version=0)
    stale_writer = rw_payload("x", version=0, tiebreak="s")
    assert si_scheme.global_certify([writer], stale_reader) is Decision.COMMIT
    assert si_scheme.global_certify([writer], stale_writer) is Decision.ABORT


def test_si_prepared_check_only_write_write(si_scheme):
    key = "x"
    prepared_writer = rw_payload(key, version=0, tiebreak="p")
    shard = si_scheme.sharding.shard_of(key)
    reader = read_payload(key, version=0)
    other_writer = rw_payload(key, version=0, tiebreak="o")
    assert si_scheme.shard_certify_prepared(shard, [prepared_writer], reader) is Decision.COMMIT
    assert si_scheme.shard_certify_prepared(shard, [prepared_writer], other_writer) is Decision.ABORT


def test_si_weaker_than_serializability(scheme, si_scheme):
    """Everything serializability commits, snapshot isolation commits too."""
    writer = rw_payload("x", version=0, tiebreak="w")
    candidates = [
        read_payload("x", version=0),
        rw_payload("y", version=0, tiebreak="y"),
        payload(reads=[("x", writer.commit_version)], writes=[("x", 2)], tiebreak="z"),
    ]
    for candidate in candidates:
        if scheme.global_certify([writer], candidate) is Decision.COMMIT:
            assert si_scheme.global_certify([writer], candidate) is Decision.COMMIT


# ----------------------------------------------------------------------
# the leaders' vote cache: incremental index vs the Figure 1 scan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
@pytest.mark.parametrize(
    "scheme_cls", [SerializabilityScheme, SnapshotIsolationScheme],
    ids=["serializability", "snapshot-isolation"],
)
def test_leaders_vote_over_the_index_as_over_the_scan(protocol, scheme_cls):
    """``LeaderVoteCache`` drives whatever ``VoteIndex`` the scheme hands it.
    Over the reference index (plain lists, ``scan_vote`` per PREPARE — the
    Figure 1 line 12 scan) every leader must cast the votes it casts over
    the incremental index: same decisions, same history, also across the
    rebuild a reconfiguration forces.  Over either index every replica's
    settled summary must hold what its decided slots committed, by the
    payloads the history's certify listener handed over."""
    from repro.cluster import Cluster

    from helpers import assert_settled_matches, capture_payloads, reference_scheme

    def drive(scheme):
        cluster = Cluster(
            num_shards=2, replicas_per_shard=2, protocol=protocol, scheme=scheme, seed=5
        )
        payloads = capture_payloads(cluster.history)
        keys = [shard_key(scheme, shard, hint=f"hot{i}") for shard in cluster.shards for i in range(2)]
        decisions = []
        for wave in range(6):
            if wave == 3:
                cluster.crash_follower("shard-0")
                cluster.reconfigure("shard-0")  # new epoch: the cache is rebuilt
            wave_payloads = [
                # Half the wave reads a stale version of a hot key: conflicts
                # with committed writers and with each other's prepares.
                rw_payload(keys[(wave + i) % len(keys)], version=wave // 2 if i % 2 else 0,
                           value=wave, tiebreak=f"w{wave}.{i}")
                for i in range(6)
            ]
            decisions.extend(cluster.certify_many(wave_payloads).values())
        assert cluster.check()[0].ok
        # Every replica's summary holds what its decided slots committed,
        # over the payloads the history handed over.
        for replica in cluster.replicas.values():
            assert_settled_matches(replica, payloads)
        return decisions, cluster.history.digest()

    sharding = KeyHashSharding(["shard-0", "shard-1"])
    indexed = drive(scheme_cls(sharding))
    scanned = drive(reference_scheme(scheme_cls, sharding))
    assert indexed == scanned
    assert {Decision.COMMIT, Decision.ABORT} <= set(indexed[0])
