"""The one tracker derived from a replica's certification order.

A replica's four slot arrays (``txn`` / ``payload`` / ``vote`` / ``dec``)
are written by ``store_slot`` / ``decide_slot`` and by a state transfer,
which replaces them wholesale (a full ``NEW_STATE``) or above a decided
prefix the follower keeps (a delta).  Figure 1's fifth array, ``phase``, is
not kept or sent: it follows from ``txn`` and ``dec``
(``ReplicaBase.phase``).  A decided slot keeps no payload: it is folded into
the replica's settled summary (``repro.core.votecache``), which keeps what
the decided slots committed.  The leader's vote index is that summary plus
the prepared slots' commit votes — ``committed_writer``,
``prepared_readers`` and ``prepared_writers`` — and must equal the index a
reference builds from the ``txn`` / ``vote`` / ``dec`` arrays and the
payloads the history's certify listener handed over, projected to the
replica's shard; at every replica the summary must equal that reference's
committed part.  The reference never reads the summary under test, nor a
payload from the arrays.  The snapshot-read engine (``repro.core.reads``)
keeps no second copy: it serves from that index, so what a leader votes
against is what its reads return.

The oracle runs at quiescence of every library scenario on the three
replica stacks, and after each transition the tracker handles by rule
rather than by the common path: a write over a prepared slot, a repeated
decision, a decision that flips (the summary keeps the decision the slot
was folded with) and a decision that lands before its write.  After every
state transfer of the golden cases that reconfigure, the follower derives
the leader's phase on every slot the leader held (DECIDED on a prefix a
delta left it); the derived phase is also checked on a decision that
lands before its write.  No slot write
at any replica of any library scenario carries the ``AS_SENT`` marker of a
``PREPARE_ACK``: the coordinator relays its own copy of the payload.

The four arrays are lists indexed by slot, None where a slot holds nothing.
Their filled entries and the phase they give must equal a rebuild as
int-keyed dicts from every write the replica made (the record they
replaced), with a payload only on the undecided slots: at quiescence of
every golden case on the two replica stacks, and across a hole — a
decision no write ever joined, or one that landed before its write —
carried through a state transfer.
"""

import pytest

from repro.cluster import Cluster
from repro.core import messages as mp_messages
from repro.core.messages import Prepare
from repro.core.reads import ReadPolicy
from repro.core.serializability import VERSION_ZERO
from repro.core.reconfig import Reconfigurer
from repro.core.replica import ReplicaBase
from repro.core.types import AS_SENT, Decision, Phase, Status
from repro.rdma import messages as rdma_messages
from repro.rdma.replica import RdmaVotePersistence
from repro.scenarios import ScenarioError, ScenarioRunner, get_scenario
from repro.scenarios.library import SCENARIOS

from helpers import capture_payloads, reference_index, rw_payload, shard_key
from test_golden_digests import GOLDEN, _spec_for


STACKS = ("message-passing", "rdma", "broken-rdma")


def _index_state(index):
    return (
        dict(index.committed_writer),
        dict(index.prepared_readers),
        dict(index.prepared_writers),
    )


def votes_match_rebuild(replica, payloads, folded_with=None) -> bool:
    """Assert the replica's settled summary equals the reference's committed
    part and, where its index is current (a leader that voted since its
    last invalidation), the whole index equals the reference; False when
    only the summary was compared."""
    reference = reference_index(replica, payloads, folded_with)
    assert replica._votes.settled() == reference.settled(), replica.pid
    if not replica._votes._current:
        return False
    assert _index_state(replica._votes.index()) == _index_state(reference), replica.pid
    return True


def _library_specs():
    for name in SCENARIOS:
        for protocol in STACKS:
            try:
                spec = get_scenario(name).with_overrides(protocol=protocol)
            except ScenarioError:
                continue
            yield pytest.param(spec, id=f"{name}|{protocol}")


@pytest.fixture
def folded_with(monkeypatch):
    """(replica pid, slot) -> the decision the slot was folded with, for
    every slot that held a transaction when its decision changed: a
    decision that flips leaves the summary as it was folded."""
    kept = {}
    decide_slot = ReplicaBase.decide_slot

    def deciding(replica, slot, decision):
        if slot < len(replica.dec_arr) and replica.txn_arr[slot] is not None:
            previous = replica.dec_arr[slot]
            if previous not in (None, decision):
                kept.setdefault((replica.pid, slot), previous)
        decide_slot(replica, slot, decision)

    monkeypatch.setattr(ReplicaBase, "decide_slot", deciding)
    return kept


@pytest.fixture
def marker_writes(monkeypatch):
    """(replica pid, slot) of every slot write whose payload is the
    ``AS_SENT`` marker a coordinator must resolve before relaying."""
    writes = []
    store_slot = ReplicaBase.store_slot

    def storing(replica, slot, txn, payload, vote):
        if payload is AS_SENT:
            writes.append((replica.pid, slot))
        store_slot(replica, slot, txn, payload, vote)

    monkeypatch.setattr(ReplicaBase, "store_slot", storing)
    return writes


@pytest.fixture
def payloadless_writes(monkeypatch):
    """(replica pid, slot, transaction written, transaction held) of every
    ``ACCEPT`` without a payload that reached an undecided slot."""
    writes = []
    store_slot = ReplicaBase.store_slot

    def storing(replica, slot, txn, payload, vote):
        if payload is None and replica.phase(slot) is not Phase.DECIDED:
            held = replica.txn_arr[slot] if slot < len(replica.txn_arr) else None
            writes.append((replica.pid, slot, txn, held))
        store_slot(replica, slot, txn, payload, vote)

    monkeypatch.setattr(ReplicaBase, "store_slot", storing)
    return writes


@pytest.fixture
def stale_rdma_writes(monkeypatch):
    """The transactions whose vote a one-sided ``ACCEPT`` wrote onto a
    replica already probed into a newer epoch (RECONFIGURING): the Figure 4a
    write.  Message passing rejects it (line 22) and the fixed RDMA stack
    closes its connections while probing; only the broken ablation makes
    it."""
    txns = set()
    on_accept = RdmaVotePersistence.on_accept

    def accepting(replica, msg, sender):
        if replica.status is Status.RECONFIGURING:
            txns.add(msg.txn)
        on_accept(replica, msg, sender)

    monkeypatch.setattr(RdmaVotePersistence, "on_accept", accepting)
    return txns


@pytest.mark.parametrize("spec", _library_specs())
def test_the_vote_index_equals_a_rebuild_at_quiescence(
    spec, folded_with, marker_writes, payloadless_writes, stale_rdma_writes
):
    runner = ScenarioRunner(spec)
    payloads = capture_payloads(runner.build().history)
    runner.run()
    compared = 0
    for replica in runner.cluster.replicas.values():
        compared += votes_match_rebuild(replica, payloads, folded_with)
    if spec.protocol == "broken-rdma":
        # A coordinator with a stale view decides a transaction on a vote it
        # wrote onto the new epoch's leader-elect; the decision reaches only
        # the old members, so the leader folds a slot its NEW_STATE sent
        # undecided, and a later coordinator's ACCEPT relayed from it
        # carries no payload.  Such a write is of that transaction only,
        # over a slot that already holds it: the dropped write loses
        # nothing.
        for pid, slot, txn, held in payloadless_writes:
            assert txn in stale_rdma_writes and held == txn, (pid, slot, txn, held)
        assert len(payloadless_writes) == sum(
            replica.payloadless_writes for replica in runner.cluster.replicas.values()
        )
    else:
        for replica in runner.cluster.replicas.values():
            # No ACCEPT without a payload reached an undecided slot.
            assert replica.payloadless_writes == 0, replica.pid
    # No replica ever stored the marker in place of a payload.
    assert marker_writes == []
    # Some leader voted since its last invalidation: the check is not empty.
    assert compared
    # Only the broken ablation changes a decision.
    assert not folded_with or spec.name == "ablation-safety-demo", folded_with


# ----------------------------------------------------------------------
# transitions
# ----------------------------------------------------------------------

def _cluster(protocol):
    cluster = Cluster(
        num_shards=1, replicas_per_shard=3, protocol=protocol, seed=11,
        read=ReadPolicy(mode="snapshot"),
    )
    cluster.payloads = capture_payloads(cluster.history)
    cluster.run()  # deliver the bootstrap lease grants
    return cluster


def _leader_with_history(cluster):
    """The shard leader, after one committed write to ``a`` and one
    prepared write to ``b`` that it voted commit on (whose payload is
    recorded in ``cluster.payloads``)."""
    scheme = cluster.scheme
    a, b = (shard_key(scheme, "shard-0", hint) for hint in ("a", "b"))
    assert cluster.certify(rw_payload(a, tiebreak="c")) is Decision.COMMIT
    cluster.run()  # the decision reaches every member
    leader = cluster.replica(cluster.leader_of("shard-0"))
    prepared = cluster.payloads["t-prepared"] = rw_payload(b, tiebreak="p")
    ack = leader._certify_prepare(Prepare(txn="t-prepared", payload=prepared))
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
    stale = cluster.payloads["t-stale"] = rw_payload(c, tiebreak="s")
    leader.on_accept(
        rdma_messages.Accept(slot=slot, txn="t-stale", payload=stale, vote=Decision.COMMIT),
        "stale-coordinator",
    )
    votes_match_rebuild(leader, cluster.payloads)
    assert leader._votes.index().prepared_writers == {c: 1}
    # The leader now certifies against the write that landed, not the one
    # it overwrote.
    assert leader._votes.vote(rw_payload(b, tiebreak="x")) is Decision.COMMIT
    assert leader._votes.vote(rw_payload(c, tiebreak="x")) is Decision.ABORT
    assert votes_match_rebuild(leader, cluster.payloads)


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_a_repeated_slot_decision(protocol):
    cluster = _cluster(protocol)
    leader, slot, a, b = _leader_with_history(cluster)
    for _ in range(2):
        leader.on_slot_decision(_slot_decision(leader, slot, Decision.COMMIT), "coordinator")
        assert slot not in leader.payload_arr  # folded
        votes_match_rebuild(leader, cluster.payloads)
    # Counted once, and incrementally: the cache was never invalidated.
    assert votes_match_rebuild(leader, cluster.payloads)
    assert leader._votes.index().prepared_writers == {}
    assert _served(leader, b) == (1, cluster.payloads["t-prepared"].commit_version)


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
@pytest.mark.parametrize(
    "first, then", [(Decision.COMMIT, Decision.ABORT), (Decision.ABORT, Decision.COMMIT)]
)
def test_a_decision_that_flips(protocol, first, then):
    """Correct protocols never change a slot's decision; the broken ablation
    can.  The first decision folds the slot and drops its payload, so a
    later one cannot unfold it: ``dec_arr`` takes the new decision (the
    invariants read it) and the summary, the index and the reads keep the
    decision the slot was folded with."""
    cluster = _cluster(protocol)
    leader, slot, a, b = _leader_with_history(cluster)
    leader.on_slot_decision(_slot_decision(leader, slot, first), "coordinator")
    assert votes_match_rebuild(leader, cluster.payloads)
    folded = leader._votes.settled(), _index_state(leader._votes.index()), _served(leader, b)
    leader.on_slot_decision(_slot_decision(leader, slot, then), "coordinator")
    assert leader.dec_arr[slot] is then and slot not in leader.payload_arr
    assert leader._votes._current  # not invalidated: there is nothing to rebuild from
    assert (
        leader._votes.settled(), _index_state(leader._votes.index()), _served(leader, b)
    ) == folded
    committed = folded[2][1] == cluster.payloads["t-prepared"].commit_version
    assert committed is (first is Decision.COMMIT)


def test_a_slot_decision_before_its_write_at_an_rdma_leader():
    """Two coordinators' one-sided writes race: the COMMIT decision for a
    slot lands at the leader before the ACCEPT that carries the slot's
    write.  The write folds the slot at once (the leader keeps no payload
    for it), the leader then votes as if the write committed, and a
    snapshot read must return that write, not the seed."""
    cluster = _cluster("rdma")
    key = shard_key(cluster.scheme, "shard-0")
    cluster.seed_read_stores({key: "seeded"})
    leader = cluster.replica(cluster.leader_of("shard-0"))
    assert _served(leader, key) == ("seeded", VERSION_ZERO)
    slot = leader.next + 1
    write = cluster.payloads["t-late"] = rw_payload(key, value="late", tiebreak="w")
    leader.on_slot_decision(_slot_decision(leader, slot, Decision.COMMIT), "coordinator-a")
    leader.on_accept(
        rdma_messages.Accept(slot=slot, txn="t-late", payload=write, vote=Decision.COMMIT),
        "coordinator-b",
    )
    assert leader.txn_arr[slot] == "t-late" and slot not in leader.payload_arr
    # A reader of the seed's version conflicts with the committed write.
    assert leader._votes.vote(rw_payload(key, tiebreak="r")) is Decision.ABORT
    assert _served(leader, key) == ("late", write.commit_version)
    assert votes_match_rebuild(leader, cluster.payloads)


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_an_accept_without_a_payload(protocol):
    """The answer to a duplicate PREPARE of a folded slot carries no
    payload, and so do the ACCEPTs relayed from it.  Over a decided slot
    such a write is a no-op; over an undecided one it is dropped and
    counted."""
    cluster = _cluster(protocol)
    leader, slot, a, b = _leader_with_history(cluster)
    done = leader.slot_of[next(t for t in cluster.payloads if t != "t-prepared")]
    assert leader._certify_prepare(Prepare(txn=leader.txn_arr[done], payload=None)).payload is None
    follower = cluster.replica(cluster.followers_of("shard-0")[0])
    before = follower.txn_arr[done], follower.vote_arr[done], follower._votes.settled()
    for target, expected in ((done, 0), (slot + 1, 1)):
        if protocol == "rdma":
            accept = rdma_messages.Accept(slot=target, txn="t-dup", payload=None, vote=Decision.COMMIT)
        else:
            accept = mp_messages.Accept(
                epoch=follower.my_epoch, slot=target, txn="t-dup", payload=None, vote=Decision.COMMIT
            )
        follower.on_accept(accept, "coordinator")
        assert follower.payloadless_writes == expected
    assert (follower.txn_arr[done], follower.vote_arr[done], follower._votes.settled()) == before
    assert follower.phase(slot + 1) is Phase.START and "t-dup" not in follower.slot_of


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


def _leader_phases(replica, state):
    """The phase ``replica`` derives for every slot its snapshot ``state``
    holds; the snapshot covers exactly those slots, with a payload on the
    undecided ones."""
    slots = set(state["txn"]) | set(state["dec"])
    assert set(state["payload"]) == slots - set(state["dec"]), replica.pid
    phases = {slot: replica.phase(slot) for slot in slots}
    assert set(phases.values()) <= {Phase.PREPARED, Phase.DECIDED}
    assert replica.next == max(slots, default=0)
    return phases


def _assert_follows_leader(replica, msg, phases):
    """After ``msg``, ``replica`` derives the leader's phase on every slot
    the leader held, and DECIDED on the prefix a delta left it."""
    base = msg.base or 0
    if msg.base is not None:
        assert msg.dec == {} and msg.summary is None
        assert set(msg.txn) == {slot for slot in phases if slot > base}
        assert all(phases[slot] is Phase.PREPARED for slot in msg.txn)
    for slot in range(1, base + 1):
        assert replica.phase(slot) is Phase.DECIDED, (replica.pid, slot)
    for slot, phase in phases.items():
        if slot > base:
            assert replica.phase(slot) is phase, (replica.pid, slot)
    assert replica.next == max([base, *phases])


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
@pytest.mark.parametrize("name", RECONFIGURING)
def test_every_new_state_leaves_the_follower_with_the_leaders_phase(
    name, protocol, monkeypatch
):
    led, adopted = {}, []
    lead_own_slots = Reconfigurer._lead_own_slots
    adopt_state = Reconfigurer._adopt_state

    def leading(replica):
        state = lead_own_slots(replica)
        led[replica.shard, replica.new_epoch] = _leader_phases(replica, state)
        return state

    def adopting(replica, msg):
        adopt_state(replica, msg)
        _assert_follows_leader(replica, msg, led[replica.shard, msg.epoch])
        adopted.append(msg.base)

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
    replica ran (a delta ``NEW_STATE`` drops the undecided slots above its
    base, then stores the leader's)."""

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
        if payload is not None:  # a write without a payload stores nothing
            rebuild = by_pid.setdefault(replica.pid, _DictRebuild())
            rebuild.txn[slot], rebuild.payload[slot], rebuild.vote[slot] = txn, payload, vote
            rebuild.slot_of[txn] = slot
        store_slot(replica, slot, txn, payload, vote)

    def deciding(replica, slot, decision):
        by_pid.setdefault(replica.pid, _DictRebuild()).dec[slot] = decision
        decide_slot(replica, slot, decision)

    def adopting(replica, msg):
        if msg.base is None:
            rebuild = by_pid[replica.pid] = _DictRebuild()
            rebuild.txn, rebuild.payload = dict(msg.txn), dict(msg.payload)
            rebuild.vote, rebuild.dec = dict(msg.vote), dict(msg.dec)
            rebuild.slot_of = {txn: slot for slot, txn in msg.txn.items()}
        else:
            # A delta: the undecided slots above the kept prefix go, and the
            # leader's slots above it come through ``store_slot`` (above).
            rebuild = by_pid.setdefault(replica.pid, _DictRebuild())
            for slot in [s for s in rebuild.txn if s > msg.base and s not in rebuild.dec]:
                txn = rebuild.txn.pop(slot)
                rebuild.payload.pop(slot, None)
                rebuild.vote.pop(slot, None)
                if rebuild.slot_of.get(txn) == slot:
                    del rebuild.slot_of[txn]
        adopt_state(replica, msg)

    monkeypatch.setattr(ReplicaBase, "store_slot", storing)
    monkeypatch.setattr(ReplicaBase, "decide_slot", deciding)
    monkeypatch.setattr(Reconfigurer, "_adopt_state", adopting)
    return by_pid


def assert_lists_equal_their_rebuild(replica, rebuild):
    """The filled entries of ``replica``'s lists, its ``slot_of`` and the
    phase of every slot up to past the lists' end are the rebuild's; a
    decided slot holds no payload (it is folded), and the payload dict
    holds the undecided slots' payloads only."""
    arrays = (replica.txn_arr, replica.vote_arr, replica.dec_arr)
    assert len({len(array) for array in arrays}) == 1, replica.pid
    assert replica.payload_arr == {
        slot: payload
        for slot, payload in rebuild.payload.items()
        if slot not in rebuild.dec
    }, replica.pid
    filled = {slot: entry for slot, *entry in replica.filled_slots()}
    assert filled == {
        slot: [
            rebuild.txn.get(slot),
            None if slot in rebuild.dec else rebuild.payload.get(slot),
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
    is crashed: the next one keeps the live follower and transfers both in
    a full ``NEW_STATE`` (the hole is a decided slot above a gap, so no
    delta applies), and every member of the new configuration continues
    the order after the hole, the highest filled slot, whatever its
    lists' length."""
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
    assert config.epoch == 2 and set(config.members) == set(members) - {crashed}
    for pid in config.members:
        replica = cluster.replica(pid)
        assert_lists_equal_their_rebuild(replica, rebuilds[pid])
        assert replica.phase(hole) is Phase.DECIDED and replica.txn_arr[hole] is None
        assert replica.next == hole
