"""The one tracker derived from a replica's certification order.

A replica's four slot arrays (``txn`` / ``payload`` / ``vote`` / ``dec``)
are written by ``store_slot`` / ``decide_slot`` and replaced wholesale by a
state transfer.  Figure 1's fifth array, ``phase``, is not kept: it follows
from ``txn`` and ``dec`` (``ReplicaBase.phase``), and a ``NEW_STATE`` carries
it derived the same way.  The leader vote cache
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
write.  The derived phase is checked on every state transfer of the golden
cases that reconfigure, and on a decision that lands before its write.

The four arrays are lists indexed by slot, None where a slot holds nothing.
Their filled entries and the phase they give must equal a rebuild as
int-keyed dicts from every write the replica made (the record they
replaced): at quiescence of every golden case on the two replica stacks,
and across a hole — a decision no write ever joined, or one that landed
before its write — carried through a state transfer.
"""

import pytest

from repro.cluster import Cluster
from repro.core import messages as mp_messages
from repro.core.messages import Prepare
from repro.core.reads import ReadPolicy
from repro.core.serializability import VERSION_ZERO
from repro.core.reconfig import Reconfigurer
from repro.core.replica import ReplicaBase
from repro.core.types import Decision, Phase
from repro.core.votecache import LeaderVoteCache
from repro.rdma import messages as rdma_messages
from repro.scenarios import ScenarioError, ScenarioRunner, get_scenario
from repro.scenarios.library import SCENARIOS

from helpers import rw_payload, shard_key
from test_golden_digests import GOLDEN, _spec_for


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


# ----------------------------------------------------------------------
# the derived phase
# ----------------------------------------------------------------------

# The library scenarios whose golden runs transfer state (NEW_STATE).
RECONFIGURING = (
    "cascading-crashes",
    "coordinator-crash-storm",
    "detector-leader-crash",
    "failover-under-wan-tail",
    "follower-partition",
    "gray-failure-slow-leader",
    "leader-crash-under-load",
    "rolling-reconfiguration",
    "timeout-failover-leader-crash",
    "wan-leader-crash",
)


def _assert_phase_field(replica, state):
    """``state``'s ``phase`` covers exactly the slots holding a transaction
    or a decision, DECIDED exactly on the decided ones, and ``replica``
    derives the same phase for every slot."""
    assert set(state["phase"]) == set(state["txn"]) | set(state["dec"]), replica.pid
    decided = {slot for slot, phase in state["phase"].items() if phase is Phase.DECIDED}
    assert decided == set(state["dec"]), replica.pid
    assert set(state["phase"].values()) <= {Phase.PREPARED, Phase.DECIDED}
    for slot, phase in state["phase"].items():
        assert replica.phase(slot) is phase, (replica.pid, slot)
    assert replica.phase(max(state["phase"], default=0) + 1) is Phase.START
    assert replica.next == max(state["phase"], default=0)


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
@pytest.mark.parametrize("name", RECONFIGURING)
def test_every_new_state_carries_the_derived_phase(name, protocol, monkeypatch):
    led, adopted = [], []
    lead_own_slots = Reconfigurer._lead_own_slots
    adopt_state = Reconfigurer._adopt_state

    def leading(replica):
        state = lead_own_slots(replica)
        _assert_phase_field(replica, state)
        led.append(replica.pid)
        return state

    def adopting(replica, msg):
        adopt_state(replica, msg)
        _assert_phase_field(replica, vars(msg))
        adopted.append(replica.pid)

    monkeypatch.setattr(Reconfigurer, "_lead_own_slots", leading)
    monkeypatch.setattr(Reconfigurer, "_adopt_state", adopting)
    ScenarioRunner(_spec_for(f"{name}|{protocol}|serial")).run()
    assert led and adopted


def test_a_decision_before_its_one_sided_accept_stays_decided():
    """The RDMA case ``store_slot`` names: the DECISION write for a slot
    reaches a follower before the ACCEPT write that carries its
    transaction.  The slot stays DECIDED, with the decision it had, and
    coordinator recovery leaves it alone."""
    cluster = _cluster("rdma")
    follower = cluster.replica(cluster.followers_of("shard-0")[0])
    slot = follower.next + 1
    assert follower.phase(slot) is Phase.START
    follower.on_slot_decision(rdma_messages.SlotDecision(slot=slot, decision=Decision.ABORT), "c")
    assert follower.phase(slot) is Phase.DECIDED
    write = rw_payload(shard_key(cluster.scheme, "shard-0"), tiebreak="w")
    follower.on_accept(
        rdma_messages.Accept(slot=slot, txn="t-late", payload=write, vote=Decision.COMMIT), "c"
    )
    assert follower.phase(slot) is Phase.DECIDED
    assert follower.dec_arr[slot] is Decision.ABORT
    assert follower.txn_arr[slot] == "t-late" and follower.slot_of["t-late"] == slot
    assert follower.retry(slot) is None


# ----------------------------------------------------------------------
# the slot lists against a dict rebuild
# ----------------------------------------------------------------------

class _DictRebuild:
    """A replica's four arrays and ``slot_of`` as int-keyed dicts, written
    by every ``store_slot``, ``decide_slot`` and ``_adopt_state`` the
    replica ran."""

    def __init__(self):
        self.txn, self.payload, self.vote, self.dec, self.slot_of = {}, {}, {}, {}, {}

    def phase(self, slot):
        if slot in self.dec:
            return Phase.DECIDED
        return Phase.PREPARED if slot in self.txn else Phase.START


@pytest.fixture
def rebuilds(monkeypatch):
    """Replica pid -> its :class:`_DictRebuild`, kept from here on."""
    by_pid = {}
    store_slot, decide_slot = ReplicaBase.store_slot, ReplicaBase.decide_slot
    adopt_state = Reconfigurer._adopt_state

    def storing(replica, slot, txn, payload, vote):
        rebuild = by_pid.setdefault(replica.pid, _DictRebuild())
        rebuild.txn[slot], rebuild.payload[slot], rebuild.vote[slot] = txn, payload, vote
        rebuild.slot_of[txn] = slot
        store_slot(replica, slot, txn, payload, vote)

    def deciding(replica, slot, decision):
        by_pid.setdefault(replica.pid, _DictRebuild()).dec[slot] = decision
        decide_slot(replica, slot, decision)

    def adopting(replica, msg):
        rebuild = by_pid[replica.pid] = _DictRebuild()
        rebuild.txn, rebuild.payload = dict(msg.txn), dict(msg.payload)
        rebuild.vote, rebuild.dec = dict(msg.vote), dict(msg.dec)
        rebuild.slot_of = {txn: slot for slot, txn in msg.txn.items()}
        adopt_state(replica, msg)

    monkeypatch.setattr(ReplicaBase, "store_slot", storing)
    monkeypatch.setattr(ReplicaBase, "decide_slot", deciding)
    monkeypatch.setattr(Reconfigurer, "_adopt_state", adopting)
    return by_pid


def assert_lists_equal_their_rebuild(replica, rebuild):
    """The filled entries of ``replica``'s lists, its ``slot_of`` and the
    phase of every slot up to past the lists' end are the rebuild's."""
    arrays = (replica.txn_arr, replica.payload_arr, replica.vote_arr, replica.dec_arr)
    assert len({len(array) for array in arrays}) == 1, replica.pid
    filled = {slot: entry for slot, *entry in replica.filled_slots()}
    assert filled == {
        slot: [
            rebuild.txn.get(slot),
            rebuild.payload.get(slot),
            rebuild.vote.get(slot),
            rebuild.dec.get(slot),
        ]
        for slot in rebuild.txn.keys() | rebuild.dec.keys()
    }, replica.pid
    assert replica.slot_of == rebuild.slot_of, replica.pid
    for slot in range(-1, len(replica.txn_arr) + 2):
        assert replica.phase(slot) is rebuild.phase(slot), (replica.pid, slot)


# The golden cases whose replicas run the Figure 1 / Figure 7 slot arrays
# (the 2PC-over-Paxos baseline keeps its own per-slot state).
SLOT_ARRAY_CASES = sorted(key for key in GOLDEN if "|2pc-paxos|" not in key)


@pytest.mark.parametrize("key", SLOT_ARRAY_CASES)
def test_the_slot_lists_equal_a_dict_rebuild_at_quiescence(key, rebuilds):
    runner = ScenarioRunner(_spec_for(key))
    runner.run()
    for replica in runner.cluster.replicas.values():
        assert_lists_equal_their_rebuild(replica, rebuilds.get(replica.pid, _DictRebuild()))
    assert rebuilds


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_holes_equal_a_dict_rebuild_through_a_state_transfer(protocol, rebuilds):
    """Past the last slot the leader filled, every member holds a decision
    no write joins (a hole); under RDMA a follower also takes a decision
    before the one-sided write that carries its transaction.  The leader
    is crashed: the next one transfers both in ``NEW_STATE``, and every
    member of the new configuration continues the order after the hole,
    the highest filled slot, whatever its lists' length."""
    cluster = _cluster(protocol)
    leader, slot, _a, _b = _leader_with_history(cluster)
    hole = slot + 3
    members = cluster.members_of("shard-0")
    for pid in members:
        cluster.replica(pid).decide_slot(hole, Decision.ABORT)
    if protocol == "rdma":
        late = slot + 1
        follower = cluster.replica(cluster.followers_of("shard-0")[0])
        follower.on_slot_decision(_slot_decision(follower, late, Decision.COMMIT), "c")
        follower.on_accept(
            rdma_messages.Accept(
                slot=late,
                txn="t-late",
                payload=rw_payload(shard_key(cluster.scheme, "shard-0", "l"), tiebreak="l"),
                vote=Decision.COMMIT,
            ),
            "c",
        )
        assert follower.phase(late) is Phase.DECIDED
        assert_lists_equal_their_rebuild(follower, rebuilds[follower.pid])
    for pid in members:
        assert_lists_equal_their_rebuild(cluster.replica(pid), rebuilds[pid])
    crashed = cluster.crash_leader("shard-0")
    cluster.reconfigure("shard-0", suspects=[crashed])
    config = cluster.current_configuration("shard-0")
    assert config.epoch == 2 and set(config.members) - set(members)
    for pid in config.members:
        replica = cluster.replica(pid)
        assert_lists_equal_their_rebuild(replica, rebuilds[pid])
        assert replica.phase(hole) is Phase.DECIDED and replica.txn_arr[hole] is None
        assert replica.next == hole
