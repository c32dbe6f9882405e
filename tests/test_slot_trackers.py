"""The one tracker derived from a replica's certification order.

A replica's slot arrays (``txn`` / ``payload`` / ``vote`` / ``dec`` /
``phase``) are written by ``store_slot`` / ``decide_slot`` and replaced
wholesale by a state transfer; the leader vote cache
(``repro.core.votecache``) follows those writes incrementally, and its vote
index — ``committed_writer``, ``prepared_readers`` and ``prepared_writers``
— must equal what a fresh rebuild from the arrays gives (an invalidated
cache rebuilds on its next vote or read, so it is equal by definition).
The snapshot-read engine (``repro.core.reads``) keeps no second copy: it
serves from that index, so what a leader votes against is what its reads
return.

The oracle runs at quiescence of every library scenario on the three
replica stacks, and after each transition the tracker handles by rule
rather than by the common path: a write over a prepared slot, a repeated
decision, a decision that flips and a decision that lands before its
write.
"""

import pytest

from repro.cluster import Cluster
from repro.core import messages as mp_messages
from repro.core.messages import Prepare
from repro.core.reads import ReadPolicy
from repro.core.serializability import VERSION_ZERO
from repro.core.types import Decision
from repro.core.votecache import LeaderVoteCache
from repro.rdma import messages as rdma_messages
from repro.scenarios import ScenarioError, ScenarioRunner, get_scenario
from repro.scenarios.library import SCENARIOS

from helpers import rw_payload, shard_key


STACKS = ("message-passing", "rdma", "broken-rdma")


def _index_state(index):
    return (
        dict(index.committed_writer),
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


def _library_specs():
    for name in SCENARIOS:
        for protocol in STACKS:
            try:
                spec = get_scenario(name).with_overrides(protocol=protocol)
            except ScenarioError:
                continue
            yield pytest.param(spec, id=f"{name}|{protocol}")


@pytest.mark.parametrize("spec", _library_specs())
def test_the_vote_index_equals_a_rebuild_at_quiescence(spec):
    runner = ScenarioRunner(spec)
    runner.run()
    compared = 0
    for replica in runner.cluster.replicas.values():
        compared += votes_match_rebuild(replica)
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
    assert leader._votes.index().prepared_writers == {b: 1}
    return leader, ack.slot, a, b


def _slot_decision(leader, slot, decision):
    if leader.__class__.__module__.startswith("repro.rdma"):
        return rdma_messages.SlotDecision(slot=slot, decision=decision)
    return mp_messages.SlotDecision(epoch=leader.my_epoch, slot=slot, decision=decision)


def _served(leader, obj):
    """What a snapshot read of ``obj`` at the leader returns."""
    status, reads = leader.read_engine.serve((obj,), leader.now)
    assert status == "ok", status
    ((_, value, version),) = reads
    return value, version


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
    votes_match_rebuild(leader)
    assert leader._votes.index().prepared_writers == {c: 1}
    # The leader now certifies against the write that landed, not the one
    # it overwrote.
    assert leader._votes.vote(rw_payload(b, tiebreak="x")) is Decision.COMMIT
    assert leader._votes.vote(rw_payload(c, tiebreak="x")) is Decision.ABORT
    votes_match_rebuild(leader)


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_a_repeated_slot_decision(protocol):
    cluster = _cluster(protocol)
    leader, slot, a, b = _leader_with_history(cluster)
    for _ in range(2):
        leader.on_slot_decision(_slot_decision(leader, slot, Decision.COMMIT), "coordinator")
        votes_match_rebuild(leader)
    # Counted once, and incrementally: the cache was never invalidated.
    assert votes_match_rebuild(leader)
    assert leader._votes.index().prepared_writers == {}
    assert _served(leader, b) == (1, leader.payload_arr[slot].commit_version)


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
        votes_match_rebuild(leader)
    committed = _served(leader, b)[1] == leader.payload_arr[slot].commit_version
    assert committed is (then is Decision.COMMIT)


def test_a_slot_decision_before_its_write_at_an_rdma_leader():
    """Two coordinators' one-sided writes race: the COMMIT decision for a
    slot lands at the leader before the ACCEPT that carries the slot's
    write.  The leader then votes as if the write committed, and a snapshot
    read must return that write, not the seed."""
    cluster = _cluster("rdma")
    key = shard_key(cluster.scheme, "shard-0")
    cluster.seed_read_stores({key: "seeded"})
    leader = cluster.replica(cluster.leader_of("shard-0"))
    assert _served(leader, key) == ("seeded", VERSION_ZERO)
    slot = leader.next + 1
    write = rw_payload(key, value="late", tiebreak="w")
    leader.on_slot_decision(_slot_decision(leader, slot, Decision.COMMIT), "coordinator-a")
    leader.on_accept(
        rdma_messages.Accept(slot=slot, txn="t-late", payload=write, vote=Decision.COMMIT),
        "coordinator-b",
    )
    # A reader of the seed's version conflicts with the committed write.
    assert leader._votes.vote(rw_payload(key, tiebreak="r")) is Decision.ABORT
    assert _served(leader, key) == ("late", write.commit_version)
    assert votes_match_rebuild(leader)
