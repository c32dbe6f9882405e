"""Property-based tests (hypothesis).

Three families:

* the certification-scheme side conditions the paper requires (1), (3), (4),
  (5) hold for arbitrary payload populations;
* the batch TCS checker's graph construction (the oracle of the shipped
  online checker) and the online checker itself agree with the
  brute-force linearization search on small histories;
* end-to-end: for arbitrary small workloads (with contention) driven through
  either protocol, the recorded history is always correct and the replica
  invariants always hold.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.serializability import (
    KeyHashSharding,
    SerializabilityScheme,
    SnapshotIsolationScheme,
    TransactionPayload,
)
from repro.core.types import Decision
from repro.spec.incremental import IncrementalTCSChecker

from helpers import (
    TCSChecker,
    check_distributive_global,
    check_distributive_shard,
    check_empty_payload_commits,
    check_matching,
    check_prepared_commutes,
    check_prepared_stronger,
    recorded_history,
    replay,
)


SHARDS = ["shard-0", "shard-1"]
KEYS = ["alpha", "beta", "gamma", "delta"]

SER = SerializabilityScheme(KeyHashSharding(SHARDS))
SI = SnapshotIsolationScheme(KeyHashSharding(SHARDS))


@st.composite
def payloads(draw, max_version=3):
    """Random well-formed payloads over a small key space."""
    read_keys = draw(st.sets(st.sampled_from(KEYS), min_size=1, max_size=3))
    reads = []
    for key in sorted(read_keys):
        version = draw(st.integers(min_value=0, max_value=max_version))
        reads.append((key, (version, "")))
    write_keys = draw(st.sets(st.sampled_from(sorted(read_keys)), max_size=len(read_keys)))
    writes = [(key, draw(st.integers(0, 100))) for key in sorted(write_keys)]
    tiebreak = draw(st.text(alphabet="abcdef", min_size=1, max_size=3))
    return TransactionPayload.make(reads=reads, writes=writes, tiebreak=tiebreak)


@st.composite
def payload_sets(draw):
    return draw(st.lists(payloads(), min_size=0, max_size=4))


# ----------------------------------------------------------------------
# scheme side conditions
# ----------------------------------------------------------------------
@given(left=payload_sets(), right=payload_sets(), candidate=payloads())
@settings(max_examples=60, deadline=None)
def test_global_certification_is_distributive(left, right, candidate):
    for scheme in (SER, SI):
        assert check_distributive_global(scheme, [left, right], candidate)


@given(left=payload_sets(), right=payload_sets(), candidate=payloads())
@settings(max_examples=60, deadline=None)
def test_shard_local_functions_are_distributive(left, right, candidate):
    for scheme in (SER, SI):
        for shard in SHARDS:
            assert check_distributive_shard(scheme, shard, [left, right], candidate)


@given(committed=payload_sets(), candidate=payloads())
@settings(max_examples=60, deadline=None)
def test_global_and_shard_local_functions_match(committed, candidate):
    for scheme in (SER, SI):
        assert check_matching(scheme, committed, candidate)


@given(prepared=payload_sets(), candidate=payloads())
@settings(max_examples=60, deadline=None)
def test_prepared_check_is_no_weaker_than_committed_check(prepared, candidate):
    for scheme in (SER, SI):
        for shard in SHARDS:
            assert check_prepared_stronger(scheme, shard, prepared, candidate)


@given(pending=payloads(), candidate=payloads())
@settings(max_examples=60, deadline=None)
def test_prepared_check_commutativity(pending, candidate):
    for scheme in (SER, SI):
        for shard in SHARDS:
            assert check_prepared_commutes(scheme, shard, pending, candidate)


@given(committed=payload_sets())
@settings(max_examples=30, deadline=None)
def test_empty_payload_always_certifies(committed):
    for scheme in (SER, SI):
        for shard in SHARDS:
            assert check_empty_payload_commits(scheme, shard, committed)


# ----------------------------------------------------------------------
# checker: graph construction vs exhaustive search
# ----------------------------------------------------------------------
@given(population=st.lists(payloads(max_version=1), min_size=1, max_size=5), data=st.data())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_graph_checker_agrees_with_exhaustive_search(population, data):
    history = recorded_history()
    for index, payload in enumerate(population):
        history.record_certify(f"t{index}", payload, float(index))
    for index in range(len(population)):
        decision = data.draw(st.sampled_from([Decision.COMMIT, Decision.ABORT]))
        history.record_decide(f"t{index}", decision, float(len(population) + index))
    checker = TCSChecker(SER)
    exhaustive = checker.check_exhaustive(history).ok
    assert checker.check(history).ok == exhaustive
    assert replay(history, IncrementalTCSChecker(SER)).ok == exhaustive


# ----------------------------------------------------------------------
# end-to-end protocol properties
# ----------------------------------------------------------------------
@st.composite
def workloads(draw):
    """A small batch of possibly-conflicting payloads."""
    count = draw(st.integers(min_value=1, max_value=6))
    result = []
    for index in range(count):
        key = draw(st.sampled_from(KEYS))
        result.append(
            TransactionPayload.make(
                reads=[(key, (0, ""))], writes=[(key, index)], tiebreak=f"w{index}"
            )
        )
    return result


@given(batch=workloads(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_message_passing_protocol_always_correct(batch, seed):
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=seed)
    decisions = cluster.certify_many(batch)
    cluster.run()
    result, violations = cluster.check()
    assert result.ok, result.reason
    assert violations == []
    # Conflicting transactions on the same key: exactly one commits per key.
    by_key = {}
    for txn, payload in zip(decisions, batch):
        key = next(iter(payload.written_objects))
        if cluster.history.decision_of(txn) is Decision.COMMIT:
            by_key.setdefault(key, []).append(txn)
    for key, committed in by_key.items():
        assert len(committed) == 1


@given(batch=workloads(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rdma_protocol_always_correct(batch, seed):
    cluster = Cluster(num_shards=2, replicas_per_shard=2, protocol="rdma", seed=seed)
    cluster.certify_many(batch)
    cluster.run()
    result, violations = cluster.check()
    assert result.ok, result.reason
    assert violations == []


@given(
    batch=workloads(),
    seed=st.integers(min_value=0, max_value=10_000),
    crash_follower=st.booleans(),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_protocol_correct_across_reconfiguration(batch, seed, crash_follower):
    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=seed)
    half = max(1, len(batch) // 2)
    cluster.certify_many(batch[:half])
    crashed = (
        cluster.crash_follower("shard-0") if crash_follower else cluster.crash_leader("shard-0")
    )
    cluster.reconfigure("shard-0", suspects=[crashed])
    cluster.certify_many(batch[half:])
    cluster.run()
    result, violations = cluster.check()
    assert result.ok, result.reason
    assert violations == []
