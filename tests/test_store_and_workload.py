"""Tests for the transactional store, the OCC executor and the workload generators."""

import pytest

from repro.cluster import Cluster
from repro.core.serializability import VERSION_ZERO
from repro.core.types import Decision
from repro.store.executor import TransactionContext, TransactionalStore
from repro.store.kv import VersionedKVStore
from repro.workload.generators import (
    BankWorkload,
    ClosedLoopDriver,
    ReadWriteWorkload,
    TransactionSpec,
    UniformKeyGenerator,
    ZipfianKeyGenerator,
)

from helpers import rw_payload


# ----------------------------------------------------------------------
# versioned KV store
# ----------------------------------------------------------------------
def test_store_reads_default_to_version_zero():
    store = VersionedKVStore()
    assert store.read("missing").version == VERSION_ZERO
    assert store.value_of("missing", default=42) == 42


def test_store_seed_and_read():
    store = VersionedKVStore(initial={"x": 10})
    assert store.value_of("x") == 10
    assert store.version_of("x") == VERSION_ZERO


def test_apply_payload_installs_new_version():
    store = VersionedKVStore(initial={"x": 1})
    p = rw_payload("x", version=0, value=2, tiebreak="a")
    store.apply_payload(p)
    assert store.value_of("x") == 2
    assert store.version_of("x") == p.commit_version
    assert store.seeds == {"x": 1}


def test_apply_payload_rejects_out_of_order_versions():
    store = VersionedKVStore(initial={"x": 1})
    newer = rw_payload("x", version=5, value=3, tiebreak="b")
    older = rw_payload("x", version=0, value=2, tiebreak="a")
    store.apply_payload(newer)
    with pytest.raises(ValueError):
        store.apply_payload(older)


def test_apply_payload_rejects_a_repeated_commit_version():
    store = VersionedKVStore(initial={"x": 1})
    p = rw_payload("x", version=0, value=2, tiebreak="a")
    store.apply_payload(p)
    with pytest.raises(ValueError, match="out-of-order"):
        store.apply_payload(p)
    assert store.value_of("x") == 2


# ----------------------------------------------------------------------
# transaction context
# ----------------------------------------------------------------------
def test_context_buffers_reads_and_writes():
    store = VersionedKVStore(initial={"x": 7})
    ctx = TransactionContext(store, name="t")
    assert ctx.read("x") == 7
    ctx.write("x", 8)
    assert ctx.read("x") == 8  # read-your-writes
    p = ctx.payload()
    assert p.read_objects == {"x"} and p.written_objects == {"x"}
    assert p.commit_version > VERSION_ZERO


def test_context_payload_holds_sorted_tuples():
    store = VersionedKVStore(initial={"b": 1, "a": 2, "c": 3})
    ctx = TransactionContext(store, name="t")
    for key in ("c", "a", "b"):
        ctx.read(key)
    ctx.write("c", 4)
    ctx.write("a", 5)
    p = ctx.payload()
    assert [obj for obj, _ in p.read_set] == ["a", "b", "c"]
    assert p.write_set == (("a", 5), ("c", 4))
    p.validate()


def test_context_write_auto_reads():
    store = VersionedKVStore(initial={"x": 7})
    ctx = TransactionContext(store, name="t")
    ctx.write("x", 9)
    assert "x" in ctx.read_set


def test_context_increment():
    store = VersionedKVStore(initial={"x": 2})
    ctx = TransactionContext(store, name="t")
    assert ctx.increment("x", 3) == 5
    assert ctx.write_set == {"x": 5}


# ----------------------------------------------------------------------
# transactional store on a cluster
# ----------------------------------------------------------------------
@pytest.fixture(params=["message-passing", "rdma"])
def store(request):
    cluster = Cluster(num_shards=2, replicas_per_shard=2, protocol=request.param, seed=71)
    return TransactionalStore(cluster, initial={"x": 0, "y": 0})


def test_transact_commits_and_applies(store):
    outcome = store.transact(lambda ctx: ctx.write("x", ctx.read("x") + 1))
    assert outcome.committed
    assert store.read("x") == 1


def test_sequential_transactions_see_each_other(store):
    for expected in range(1, 4):
        outcome = store.transact(lambda ctx: ctx.increment("x"))
        assert outcome.committed
        assert store.read("x") == expected


def test_conflicting_batch_commits_exactly_one(store):
    outcomes = store.run_batch([lambda ctx: ctx.increment("x") for _ in range(4)])
    assert sum(o.committed for o in outcomes) == 1
    assert store.read("x") == 1
    assert store.committed_count == 1 and store.aborted_count == 3


def test_disjoint_batch_all_commit(store):
    outcomes = store.run_batch(
        [lambda ctx: ctx.increment("x"), lambda ctx: ctx.increment("y")]
    )
    assert all(o.committed for o in outcomes)
    assert store.read("x") == 1 and store.read("y") == 1


def test_bank_transfers_conserve_money(store):
    bank = BankWorkload(num_accounts=6, initial_balance=50, seed=5)
    bank_store = TransactionalStore(store.cluster, initial=bank.initial_state())
    total_before = bank.total_balance(bank_store.store)
    for _ in range(5):
        bank_store.run_batch(bank.batch(4))
    assert bank.total_balance(bank_store.store) == total_before
    result, violations = store.cluster.check()
    assert result.ok and violations == []


def test_closed_loop_driver_pulls_each_body_when_a_session_submits_it(store, monkeypatch):
    """Fed a generator, the driver decides every body, and priming the
    sessions draws one body per session, not the stream."""
    drawn = []

    def bodies():
        for index in range(12):
            drawn.append(index)
            yield lambda ctx, key=f"k{index}": ctx.increment(key)

    primed = []
    run = store.cluster.run
    monkeypatch.setattr(
        store.cluster, "run", lambda **kwargs: (primed.append(len(drawn)), run(**kwargs))[1]
    )
    driver = ClosedLoopDriver(store, bodies(), sessions=3, think_time=2.0, seed=4)
    assert drawn == []
    assert driver.run() == 12
    assert primed == [3] and len(drawn) == 12
    assert store.committed_count == 12
    assert all(store.read(f"k{index}") == 1 for index in range(12))


# ----------------------------------------------------------------------
# workload generators
# ----------------------------------------------------------------------
def test_uniform_generator_deterministic_and_in_range():
    g1 = UniformKeyGenerator(num_keys=10, seed=3)
    g2 = UniformKeyGenerator(num_keys=10, seed=3)
    assert [g1.key() for _ in range(20)] == [g2.key() for _ in range(20)]
    assert all(k.startswith("key-") for k in g1.keys(5))
    assert len(set(g1.keys(5))) == 5


@pytest.mark.parametrize("generator", [UniformKeyGenerator, ZipfianKeyGenerator])
def test_generators_share_one_string_per_key(generator):
    """Every draw of a key hands out the same string object, so a run keeps
    one copy per key, not one per transaction that touched it."""
    keys = generator(num_keys=5, seed=3)
    drawn = [keys.key() for _ in range(200)]
    by_text = {}
    for key in drawn:
        assert by_text.setdefault(key, key) is key
    assert set(by_text) <= {f"key-{index}" for index in range(5)}


def test_uniform_generator_validation():
    with pytest.raises(ValueError):
        UniformKeyGenerator(num_keys=0)


def test_zipfian_generator_skews_towards_hot_keys():
    skewed = ZipfianKeyGenerator(num_keys=100, theta=1.2, seed=3)
    counts = {}
    for _ in range(2000):
        key = skewed.key()
        counts[key] = counts.get(key, 0) + 1
    hottest = max(counts.values())
    assert counts.get("key-0", 0) == hottest
    uniform_like = ZipfianKeyGenerator(num_keys=100, theta=0.0, seed=3)
    counts_uniform = {}
    for _ in range(2000):
        key = uniform_like.key()
        counts_uniform[key] = counts_uniform.get(key, 0) + 1
    assert max(counts_uniform.values()) < hottest


def test_zipfian_validation():
    with pytest.raises(ValueError):
        ZipfianKeyGenerator(num_keys=0)
    with pytest.raises(ValueError):
        ZipfianKeyGenerator(num_keys=10, theta=-1)


def test_read_write_workload_specs():
    workload = ReadWriteWorkload(UniformKeyGenerator(50, seed=1), reads_per_txn=3, writes_per_txn=1, seed=1)
    specs = [workload.next() for _ in range(5)]
    assert len(specs) == 5
    for spec in specs:
        assert len(spec.reads) == 3
        assert len(spec.writes) == 1
        assert spec.writes[0][0] in spec.reads


def test_read_write_workload_bodies_draw_what_its_specs_draw():
    """Waves of bodies draw the same transactions as specs drawn one by one
    from the same seed, so generating each wave when it is submitted leaves
    a run's transactions as they were."""
    def workload():
        return ReadWriteWorkload(UniformKeyGenerator(50, seed=2), seed=2, read_ratio=0.3)

    drawn = workload()
    specs = [drawn.next() for _ in range(20)]
    generator = workload()
    bodies = generator.bodies(8) + generator.bodies(12)
    kv = VersionedKVStore(initial={f"key-{index}": 0 for index in range(50)})
    for spec, body in zip(specs, bodies, strict=True):
        ran = TransactionContext(kv, name="t")
        assert body(ran) == spec.label
        assert tuple(ran.read_set) == spec.reads
        assert tuple(ran.write_set.items()) == spec.writes


def test_read_write_workload_validation():
    with pytest.raises(ValueError):
        ReadWriteWorkload(UniformKeyGenerator(10), reads_per_txn=1, writes_per_txn=2)


def test_transaction_spec_body_executes_operations():
    store = VersionedKVStore(initial={"a": 1, "b": 2})
    spec = TransactionSpec(reads=("a", "b"), writes=(("a", 9),), label="s")
    ctx = TransactionContext(store, name="t")
    spec.body()(ctx)
    assert ctx.read_set.keys() == {"a", "b"}
    assert ctx.write_set == {"a": 9}


def test_bank_workload_properties():
    bank = BankWorkload(num_accounts=4, initial_balance=10, seed=1)
    assert len(bank.initial_state()) == 4
    body = bank.next_transfer(amount=5)
    store = VersionedKVStore(initial=bank.initial_state())
    ctx = TransactionContext(store, name="t")
    moved = body(ctx)
    assert 0 <= moved <= 5
    with pytest.raises(ValueError):
        BankWorkload(num_accounts=1)
