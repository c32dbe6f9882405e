"""The two trackers derived from a replica's certification order.

A replica's slot arrays (``txn`` / ``payload`` / ``vote`` / ``dec`` /
``phase``) are written by ``store_slot`` / ``decide_slot`` and replaced
wholesale by a state transfer; the leader vote cache
(``repro.core.votecache``) and the snapshot-read engine
(``repro.core.reads``) follow those writes incrementally.  Each must equal
what a fresh rebuild from the arrays gives:

* the vote index: ``committed_version``, ``prepared_readers`` and
  ``prepared_writers`` (an invalidated cache rebuilds on its next vote, so
  it is equal by definition);
* the read engine: ``pending_writers`` and the applied store (each
  object's latest value and version, and the seeds).

The oracle runs at quiescence of every library scenario on the three
replica stacks, and after each transition the trackers handle by rule
rather than by the common path: a write over a prepared slot, a repeated
decision and a decision that flips.
"""

import copy

import pytest

from repro.cluster import Cluster
from repro.core import messages as mp_messages
from repro.core.messages import Prepare
from repro.core.reads import ReadPolicy
from repro.core.types import Decision
from repro.core.votecache import LeaderVoteCache
from repro.rdma import messages as rdma_messages
from repro.scenarios import ScenarioError, ScenarioRunner, get_scenario
from repro.scenarios.library import SCENARIOS

from helpers import rw_payload, shard_key


STACKS = ("message-passing", "rdma", "broken-rdma")


def _index_state(index):
    return (
        dict(index.committed_version),
        dict(index.prepared_readers),
        dict(index.prepared_writers),
    )


def votes_match_rebuild(replica) -> bool:
    """Assert the live vote index equals a rebuild from the arrays; False
    when the cache is invalidated (nothing to compare)."""
    live = replica._votes._index
    if live is None:
        return False
    fresh = LeaderVoteCache(replica)
    fresh._rebuild()
    assert _index_state(live) == _index_state(fresh._index), replica.pid
    return True


def _engine_state(engine):
    store = engine.store
    return (
        dict(engine.pending_writers),
        {obj: store.read(obj) for obj in store.objects()},
        dict(store.seeds),
    )


def reads_match_rebuild(replica) -> None:
    engine = replica.read_engine
    if engine is None:
        return
    fresh = copy.copy(engine)  # rebuild() replaces every derived field
    fresh.rebuild()
    assert _engine_state(engine) == _engine_state(fresh), replica.pid


def _library_specs():
    for name in SCENARIOS:
        for protocol in STACKS:
            try:
                spec = get_scenario(name).with_overrides(protocol=protocol)
            except ScenarioError:
                continue
            yield pytest.param(spec, id=f"{name}|{protocol}")


@pytest.mark.parametrize("spec", _library_specs())
def test_trackers_equal_a_rebuild_at_quiescence(spec):
    runner = ScenarioRunner(spec)
    runner.run()
    compared = 0
    for replica in runner.cluster.replicas.values():
        compared += votes_match_rebuild(replica)
        reads_match_rebuild(replica)
    # Some leader voted since its last invalidation: the check is not empty.
    assert compared


# ----------------------------------------------------------------------
# transitions
# ----------------------------------------------------------------------

def _cluster(protocol):
    cluster = Cluster(
        num_shards=1, replicas_per_shard=3, protocol=protocol, seed=11,
        read=ReadPolicy(mode="snapshot"),
    )
    cluster.run()  # deliver the bootstrap lease grants
    return cluster


def _leader_with_history(cluster):
    """The shard leader, after one committed write to ``a`` and one
    prepared write to ``b`` that it voted commit on."""
    scheme = cluster.scheme
    a, b = (shard_key(scheme, "shard-0", hint) for hint in ("a", "b"))
    assert cluster.certify(rw_payload(a, tiebreak="c")) is Decision.COMMIT
    cluster.run()  # the decision reaches every member
    leader = cluster.replica(cluster.leader_of("shard-0"))
    ack = leader._certify_prepare(Prepare(txn="t-prepared", payload=rw_payload(b, tiebreak="p")))
    assert ack.vote is Decision.COMMIT
    assert leader.read_engine.pending_writers == {b: 1}
    return leader, ack.slot, a, b


def _slot_decision(leader, slot, decision):
    if leader.__class__.__module__.startswith("repro.rdma"):
        return rdma_messages.SlotDecision(slot=slot, decision=decision)
    return mp_messages.SlotDecision(epoch=leader.my_epoch, slot=slot, decision=decision)


def _assert_consistent(leader):
    votes_match_rebuild(leader)
    reads_match_rebuild(leader)


def test_an_rdma_accept_over_a_prepared_slot_at_a_leader():
    """Figure 4a's write: a stale coordinator's one-sided ACCEPT lands in a
    slot the (new) leader already filled with another transaction."""
    cluster = _cluster("rdma")
    leader, slot, a, b = _leader_with_history(cluster)
    c = shard_key(cluster.scheme, "shard-0", "c")
    leader.on_accept(
        rdma_messages.Accept(slot=slot, txn="t-stale", payload=rw_payload(c, tiebreak="s"), vote=Decision.COMMIT),
        "stale-coordinator",
    )
    _assert_consistent(leader)
    assert leader.read_engine.pending_writers == {c: 1}
    # The leader now certifies against the write that landed, not the one
    # it overwrote.
    assert leader._votes.vote(rw_payload(b, tiebreak="x")) is Decision.COMMIT
    assert leader._votes.vote(rw_payload(c, tiebreak="x")) is Decision.ABORT
    _assert_consistent(leader)


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_a_repeated_slot_decision(protocol):
    cluster = _cluster(protocol)
    leader, slot, a, b = _leader_with_history(cluster)
    for _ in range(2):
        leader.on_slot_decision(_slot_decision(leader, slot, Decision.COMMIT), "coordinator")
        _assert_consistent(leader)
    # Counted once, and incrementally: the cache was never invalidated.
    assert votes_match_rebuild(leader)
    assert leader.read_engine.pending_writers == {}
    assert leader.read_engine.store.read(b).version == leader.payload_arr[slot].commit_version


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
@pytest.mark.parametrize(
    "first, then", [(Decision.COMMIT, Decision.ABORT), (Decision.ABORT, Decision.COMMIT)]
)
def test_a_decision_that_flips(protocol, first, then):
    """Correct protocols never change a slot's decision; the broken ablation
    can, and the trackers must still match the arrays."""
    cluster = _cluster(protocol)
    leader, slot, a, b = _leader_with_history(cluster)
    for decision in (first, then):
        leader.on_slot_decision(_slot_decision(leader, slot, decision), "coordinator")
        _assert_consistent(leader)
    installed = leader.read_engine.store.read(b).version == leader.payload_arr[slot].commit_version
    assert installed is (then is Decision.COMMIT)
