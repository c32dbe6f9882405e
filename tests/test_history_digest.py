"""The history fingerprint against its recursive definition.

``History`` folds the canonical text of every event into a running SHA-256
as the event is recorded, through renderers compiled per exact value type
(``repro/spec/history.py``).  The definition it replaced — build a
canonical tuple tree with ``_stable``, ``repr`` it — lives on here as
``_oracle_digest`` (the twin of ``_oracle_wire_size`` in
``test_network_model.py``), applied to the events a recorder
(``helpers.record``) rebuilt from the history's listener calls, and the two
must agree bit for bit: on generated payload values, on the history of
every library scenario on every stack, mid-run as at the end, and across
``PYTHONHASHSEED`` values (CI runs this file under two).  The work itself
is gated by call counts under ``cProfile``, which repeat exactly, never by
seconds.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import tracemalloc
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serializability import (
    KeyHashSharding,
    SerializabilityScheme,
    SnapshotRead,
    TransactionPayload,
)
from repro.core.types import BOTTOM, Decision
from repro.runtime import wire
from repro.scenarios import ScenarioRunner
from repro.spec import history as history_module
from repro.spec.history import History
from repro.spec.incremental import IncrementalTCSChecker
from repro.spec.invariants import InvariantMonitor

from helpers import (
    SHAPES,
    Event,
    calls,
    events_of,
    record,
    recorded_history,
    replay,
    run_recorded,
    shape_spec,
)
from test_golden_digests import GOLDEN, _case_keys, _spec_for


# ----------------------------------------------------------------------
# the oracle: the reflective definition, as src/ had it
# ----------------------------------------------------------------------
def _oracle_stable(value):
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(repr(_oracle_stable(v)) for v in value))
    if isinstance(value, dict):
        return ("dict", sorted((repr(k), repr(_oracle_stable(v))) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_oracle_stable(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, _oracle_stable(_oracle_field(field, getattr(value, field.name))))
                for field in dataclasses.fields(value)
            ),
        )
    return value


def _oracle_field(field, value):
    """A field declared as a set in canonical form (a payload's read and
    write sets, sorted tuples) stands for the frozenset of its elements."""
    if field.metadata.get("canonical") == "set":
        return frozenset(value)
    return value


def _oracle_digest(events):
    """The fingerprint of an event sequence (a recorder's, or a prefix of
    one), by the recursive definition."""
    fingerprint = hashlib.sha256()
    for event in events:
        fingerprint.update(
            repr(
                (
                    event.kind,
                    event.txn,
                    event.time,
                    event.seq,
                    _oracle_stable(event.payload),
                    None if event.decision is None else event.decision.name,
                )
            ).encode()
        )
    return fingerprint.hexdigest()


def _history_of(payloads):
    """Each payload once on a certify event and once on a decide event."""
    history = recorded_history()
    for index, payload in enumerate(payloads):
        txn = f"t{index}"
        history.record_certify(txn, payload, float(index))
        decision = Decision.ABORT if index % 3 == 0 else Decision.COMMIT
        history.record_decide(txn, decision, index + 0.5, payload=payload)
    return history


# ----------------------------------------------------------------------
# (a) generated payload values
# ----------------------------------------------------------------------
class _Color(Enum):
    RED = "red"
    TWO = 2


class _Label(str, Enum):  # a leaf, though also a str
    LONG = "a-long-label"
    QUOTED = "it's"


class _Level(IntEnum):  # a leaf, though also an int
    LOW = 1


class _Point(NamedTuple):  # a sequence: renders as the plain tuple (x, y)
    x: Any
    y: Any


class _Unit(NamedTuple):  # ... and as () when empty
    pass


@dataclass(frozen=True)
class _Box:
    content: Any
    label: Any = None


@dataclass(frozen=True)
class _Single:  # one field: the trailing comma of a 1-tuple
    only: Any


@dataclass(frozen=True)
class _Blank:  # no field: ('_Blank', ())
    pass


@dataclass
class _Bag:  # not hashable: lives outside sets
    items: Any


_AWKWARD_TEXT = (
    "", "it's", 'say "hi"', "'\"", "back\\slash", "tab\tnew\nline", "naïve-ключ-鍵-🔑", "%s %d %%",
)  # fmt: skip

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((-0.0, 0.0, 1.0, float("nan"), float("inf"), float("-inf"))),
    st.text(max_size=6),
    st.sampled_from(_AWKWARD_TEXT),
    st.sampled_from(list(_Color) + list(_Label) + list(_Level) + list(Decision)),
    st.just(BOTTOM),
)

# Values that may sit inside a set or key a dict.
_hashable = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),  # 0- and 1-tuples included
        st.frozensets(inner, max_size=3),
        st.builds(_Point, inner, inner),
        st.just(_Unit()),
        st.builds(_Box, inner, inner),
        st.builds(_Single, inner),
        st.just(_Blank()),
    ),
    max_leaves=6,
)

_versions = st.one_of(
    st.tuples(st.integers(0, 9), st.sampled_from(("", "c0", "c'1"))), _hashable
)


def _pair_sets(values):
    """A payload's read or write set: the tuple sorted by object id that
    ``make`` stores, or a frozenset built directly, which must render the
    same text."""
    pairs = st.frozensets(st.tuples(st.text(max_size=4), values), max_size=3)
    return pairs | pairs.map(lambda found: tuple(sorted(found, key=lambda pair: pair[0])))


_transaction_payloads = st.builds(
    TransactionPayload,
    read_set=_pair_sets(_versions),
    # Write values are whatever the client wrote, not only plain ones.
    write_set=_pair_sets(_hashable),
    commit_version=_versions,
)

_snapshot_reads = st.builds(SnapshotRead, st.lists(st.text(max_size=4), max_size=3).map(tuple))

_values = st.recursive(
    st.one_of(_hashable, _transaction_payloads, _snapshot_reads),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.sets(_hashable, max_size=3),
        st.dictionaries(_hashable, inner, max_size=3),
        st.builds(_Point, inner, inner),
        st.builds(_Box, inner, inner),
        st.builds(_Bag, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_values, min_size=1, max_size=3))
def test_digest_equals_the_recursive_definition_on_generated_payloads(payloads):
    history = _history_of(payloads)
    digest = history.digest()
    assert digest == _oracle_digest(events_of(history))
    # A copy of the running hash: the same answer on every call.
    assert history.digest() == digest


@settings(max_examples=200, deadline=None)
@given(st.one_of(_transaction_payloads, _snapshot_reads))
def test_the_direct_payload_renderers_equal_the_field_walk(value):
    """``TransactionPayload`` and ``SnapshotRead`` render without the
    generic field walk, from the fields they are known to have: the text is
    the walk's."""
    direct = history_module._RENDERERS[type(value)]
    assert direct in (
        history_module._render_transaction_payload,
        history_module._render_snapshot_read,
    )
    assert direct(value) == history_module._dataclass_renderer(type(value))(value)


@st.composite
def _well_formed_pairs(draw):
    """The reads and writes of a well-formed payload: each object read once
    at an ``(int, str)`` version, a subset of them written."""
    objects = draw(st.lists(st.text(max_size=4), unique=True, max_size=5))
    reads = [
        (obj, draw(st.tuples(st.integers(0, 9), st.sampled_from(("", "c0", "c'1")))))
        for obj in objects
    ]
    written = draw(st.lists(st.sampled_from(objects), unique=True)) if objects else []
    writes = [(obj, draw(_hashable)) for obj in written]
    return reads, writes


@settings(max_examples=200, deadline=None)
@given(_well_formed_pairs(), st.randoms(use_true_random=False))
def test_make_is_canonical_whatever_the_order_or_container(pairs, rng):
    """``make`` on a shuffled list (with repeats) and on a frozenset of the
    same pairs stores the same sorted tuples: the payloads are equal, hash
    equal, and render the digest text and wire size of the frozenset form
    the payload had before its sets became tuples."""
    reads, writes = pairs
    shuffled_reads, shuffled_writes = reads + reads[:1], writes + writes[-1:]
    rng.shuffle(shuffled_reads)
    rng.shuffle(shuffled_writes)
    from_list = TransactionPayload.make(reads=shuffled_reads, writes=shuffled_writes, tiebreak="c")
    from_set = TransactionPayload.make(
        reads=frozenset(reads), writes=frozenset(writes), tiebreak="c"
    )
    as_sets = TransactionPayload(
        read_set=frozenset(reads),
        write_set=frozenset(writes),
        commit_version=from_set.commit_version,
    )
    assert from_list == from_set and hash(from_list) == hash(from_set)
    assert type(from_list.read_set) is type(from_list.write_set) is tuple
    assert [obj for obj, _ in from_list.read_set] == sorted(obj for obj, _ in reads)
    texts = {_history_of([payload]).digest() for payload in (from_list, from_set, as_sets)}
    assert len(texts) == 1 and texts == {_oracle_digest(events_of(_history_of([as_sets])))}
    sizes = {wire._field_size(payload) for payload in (from_list, from_set, as_sets)}
    assert len(sizes) == 1


def test_digest_equals_the_recursive_definition_on_the_corner_cases():
    """The cases the generator may not reach in a given run, by name."""
    nan = float("nan")
    payloads = [
        (),
        (1,),
        [1],
        [],
        ((),),
        (True, 1, 1.0, -0.0, nan, float("inf"), None),
        (1, [2, (3, {4})]),  # a list inside an otherwise plain tuple
        (_Level.LOW, _Label.LONG),  # enum leaves inside a tuple
        _Point(1, (2, "x")),
        _Unit(),
        {"b": {1, 2}, "a": [_Color.RED], 3: None},
        {_AWKWARD_TEXT, frozenset(_AWKWARD_TEXT)},
        _Blank(),
        _Single(_Single(())),
        _Bag([_Box({"k": nan}, frozenset({(1, (2, (3,)))}))]),
        type("Per%cent", (), {"__repr__": lambda self: "<%s>"})(),
        dataclasses.make_dataclass("Per%cent", [("a", Any)])("%s"),
        TransactionPayload,  # a dataclass *class* is a leaf
        TransactionPayload(
            read_set=frozenset({("k", (1, "c")), ("k2", _Point(0, "")), (2, None)}),
            write_set=frozenset({("k", frozenset({("nested", (1, "c"))})), ("k2", _Color.TWO)}),
            commit_version=[2, "c"],
        ),
        SnapshotRead(objects=("k1", "k2")),
        BOTTOM,
    ]
    history = _history_of(payloads)
    assert history.digest() == _oracle_digest(events_of(history))


def test_digest_does_not_depend_on_the_hash_seed():
    """Sets of strings iterate in ``PYTHONHASHSEED`` order; the digest of a
    history full of them is pinned here as a literal, so running this file
    under two seeds (as CI does) compares the two processes."""
    keys = [f"key-{index}" for index in range(40)]
    history = _history_of(
        [
            set(keys),
            frozenset((key, (index, "c")) for index, key in enumerate(keys)),
            {key: {key, key.upper()} for key in keys},
            TransactionPayload.make(
                reads=[(key, (0, "")) for key in keys],
                writes=[(key, frozenset(keys[:5])) for key in keys[:9]],
                tiebreak="c1",
            ),
        ]
    )
    assert history.digest() == _oracle_digest(events_of(history))
    # Recorded on the parent commit, from the reflective definition.
    assert history.digest() == "c77090461e6f5b8af40478a2cdcf08a9c93107f75fa370003bf07608eb9162a5"


def test_history_digest_is_payload_order_independent():
    from repro.core.serializability import TransactionPayload

    def build(reads):
        history = History()
        payload = TransactionPayload.make(
            reads=reads, writes=[(k, 1) for k, _ in reads], tiebreak="t"
        )
        history.record_certify("t1", payload, 1.0)
        return history

    reads = [(f"key-{i}", (0, "")) for i in range(6)]
    assert build(reads).digest() == build(list(reversed(reads))).digest()

    other = History()
    other.record_certify("t2", None, 1.0)
    assert other.digest() != build(reads).digest()


# ----------------------------------------------------------------------
# (b) the histories real runs record, on all three stacks
# ----------------------------------------------------------------------
def _small(spec, txns=40):
    return spec.with_overrides(workload=replace(spec.workload, txns=min(spec.workload.txns, txns)))


@pytest.mark.parametrize("key", [key for key in _case_keys() if key.endswith("|serial")])
def test_digest_equals_the_recursive_definition_on_every_library_scenario(key):
    runner, result = run_recorded(_small(_spec_for(key)))
    history = runner.cluster.history
    assert len(history) > 0
    assert result.history_digest == history.digest() == _oracle_digest(events_of(history))


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_snapshot_read_histories_carry_both_payload_kinds(protocol):
    """Snapshot reads certify a ``SnapshotRead`` marker and attach the
    versioned ``TransactionPayload`` to the decide event: both reach the
    fingerprint (the 2PC baseline certifies its reads, so it records
    neither)."""
    spec = _small(_spec_for(f"read-heavy-steady-state|{protocol}|serial"), txns=80)
    runner, _result = run_recorded(spec)
    history = runner.cluster.history
    kinds = {(event.kind, type(event.payload)) for event in events_of(history)}
    assert ("certify", SnapshotRead) in kinds and ("decide", TransactionPayload) in kinds
    assert history.digest() == _oracle_digest(events_of(history))


@pytest.mark.parametrize("protocol", ["message-passing", "rdma"])
def test_a_digest_read_mid_run_is_the_digest_of_that_prefix(protocol):
    """The digest is folded in as events arrive: read while the run is
    under way, it is the recursive definition over the events recorded so
    far, and the run goes on to the digest of all of them."""
    spec = _small(_spec_for(f"read-heavy-steady-state|{protocol}|serial"), txns=80)
    runner = ScenarioRunner(spec)
    cluster = runner.build()
    events = record(cluster.history).events
    readings = []

    def read_digest():
        readings.append((len(cluster.history), cluster.history.digest()))

    for at in (5.0, 20.0):
        cluster.scheduler.schedule_at(at, read_digest)
    result = runner.run()
    assert [count for count, _digest in readings] == sorted(
        {count for count, _digest in readings}
    ) and 0 < readings[0][0] < len(events)
    for count, digest in readings:
        assert digest == _oracle_digest(events[:count])
    assert result.history_digest == _oracle_digest(events)


# ----------------------------------------------------------------------
# (c) the recorder against what was recorded, and the one checker
# ----------------------------------------------------------------------
@pytest.fixture
def recorded(monkeypatch):
    """Every event a history accepted, as its ``record_*`` call saw it:
    the caller's kind, transaction, time, payload and decision, with the
    count of accepted events before it as ``seq``.  A repeated decide
    records no event."""
    seen = []
    decided = set()
    record_certify, record_decide = History.record_certify, History.record_decide

    def certifying(history, txn, payload, time):
        record_certify(history, txn, payload, time)
        seen.append(Event("certify", txn, time, len(seen), payload))

    def deciding(history, txn, decision, time, payload=None):
        record_decide(history, txn, decision, time, payload)
        if txn not in decided:
            decided.add(txn)
            seen.append(Event("decide", txn, time, len(seen), payload, decision))

    monkeypatch.setattr(History, "record_certify", certifying)
    monkeypatch.setattr(History, "record_decide", deciding)
    return seen


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_listeners_see_what_was_recorded_and_the_checker_gives_the_verdict(key, recorded):
    """The listener calls carry each event whole: the recorder's events
    must equal the events as recorded, field by field, on every golden
    case.  ``Cluster.check()`` reads the checker attached at build time,
    whose verdict is the run's, and a fresh checker fed the recorded events
    reaches it too."""
    runner, result = run_recorded(_spec_for(key))
    history = runner.cluster.history
    assert events_of(history) == recorded and len(history) == len(recorded) > 0
    if key.startswith("read-heavy-steady-state|") and "|2pc-paxos|" not in key:
        assert any(e.kind == "decide" and e.payload is not None for e in recorded)
    checked, _violations = runner.cluster.check(include_invariants=False)
    assert (checked.ok, checked.reason) == (result.check_ok, result.check_reason)
    replayed = replay(history, IncrementalTCSChecker(runner.cluster.scheme)).result()
    assert (replayed.ok, replayed.reason) == (result.check_ok, result.check_reason)


_SCHEME = SerializabilityScheme(KeyHashSharding(["shard-0"]))


@pytest.mark.parametrize(
    "attach",
    [
        lambda history: IncrementalTCSChecker(_SCHEME, history),
        lambda history: IncrementalTCSChecker(_SCHEME).attach(history),
        InvariantMonitor,
        record,
    ],
    ids=["checker", "checker-attach", "monitor", "recorder"],
)
def test_attaching_after_the_first_event_is_refused_with_the_count(attach):
    """A history keeps no events to replay: a consumer of every event
    attached late raises, naming how many it would have missed."""
    history = History()
    attach(history)  # before the first event: accepted
    history.record_certify("t1", TransactionPayload(), 0.0)
    history.record_decide("t1", Decision.COMMIT, 1.0)
    with pytest.raises(RuntimeError, match=r"already holds 2 event\(s\)"):
        attach(history)


# ----------------------------------------------------------------------
# leaves that print an address are refused
# ----------------------------------------------------------------------
class _NoRepr:
    __slots__ = ()


class _OwnRepr(_NoRepr):
    def __repr__(self):
        return "own"


@pytest.mark.parametrize(
    "wrap",
    [lambda leaf: leaf, lambda leaf: (1, leaf), lambda leaf: {"k": [leaf]}, _Box],
    ids=["bare", "in-tuple", "in-dict", "in-dataclass"],
)
def test_a_leaf_that_inherits_object_repr_is_refused_by_name(wrap):
    history = History()
    for txn in ("t1", "t2"):  # every event, not only the one that met the type first
        with pytest.raises(TypeError, match=r"test_history_digest\._NoRepr.*object\.__repr__"):
            history.record_certify(txn, wrap(_NoRepr()), 0.0)
    # A refused event is not recorded.
    assert len(history) == 0 and history.certified() == []
    assert history.digest() == History().digest()
    accepted = _history_of([wrap(_OwnRepr())])
    assert accepted.digest() == _oracle_digest(events_of(accepted))


# ----------------------------------------------------------------------
# the work is gated by counts (first rows of the calls/txn golden)
# ----------------------------------------------------------------------
# Recording an event renders its text and folds it into the running hash,
# so the fingerprint's work is on the record path: calls per event made by
# ``record_certify`` / ``record_decide`` (the call itself included, no
# listener attached) when a shape's events are recorded into a fresh
# history.  The walk ``digest()`` made over a finished history was bounded
# by 20 per event (the reflective walk before it made 81.5 / 64.4 / 111.5).
# With the payload and marker rendered without the field walk and two
# levels of tuples checked in place, the record path reads 9.5 on four
# shapes and 10.8 on read-mostly-lease (15.0-16.5 with the field walk and
# a frame per tuple) under PYTHONHASHSEED=0 and 4242; the bound is the
# highest plus 1%, rounded up.  ``digest()`` copies the hash: four calls.
DIGEST_CALLS_PER_EVENT = 11
DIGEST_CALLS = 4
PAYLOAD_SIZING_CALLS = 30  # the field walk made 91


def _record_all(history, events):
    for event in events:
        if event.kind == "certify":
            history.record_certify(event.txn, event.payload, event.time)
        else:
            history.record_decide(event.txn, event.decision, event.time, event.payload)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_digest_call_count_per_event(shape):
    runner, result = run_recorded(shape_spec(shape))
    assert result.safety_ok
    history = runner.cluster.history
    events = events_of(history)
    assert len(history) == len(events) == 2000
    fresh = History()
    per_event = calls(_record_all, fresh, events) / len(events)
    assert fresh.digest() == history.digest()
    assert per_event <= DIGEST_CALLS_PER_EVENT
    assert calls(history.digest) <= DIGEST_CALLS


def test_sizing_a_fresh_payload_call_count():
    wire._field_size(TransactionPayload())  # compiles the memo, off the count
    fresh = TransactionPayload.make(
        reads=[("key-1", (3, "c0")), ("key-22", (0, "")), ("key-3", (1, "c2"))],
        writes=[("key-1", 17), ("key-3", 4)],
        tiebreak="c1",
    )
    assert calls(wire._field_size, fresh) <= PAYLOAD_SIZING_CALLS


# Whole-run calls per transaction: what the transports under the commit
# pipeline (the batching outbox, the stop-and-wait gate) cost when off — the
# three unbatched shapes — and when on.  The bounds come from the parent of
# PR 24 (7f2083a), which read 727.6-731.0 / 347.3-347.6 / 1270.2 /
# 1150.6-1151.3 under the default hash seed, PYTHONHASHSEED=0 and 4242.  PR 24
# read 732.5-734.7 / 348.2-348.4 / 1268.7 / 1154.5-1154.8 under the same three
# seeds.  Since the online checker retires settled history and shares one
# frontier per wave of decisions (PR 29), the readings are 711.9-715.9 /
# 343.6-344.0 / 1276.6 / 1133.9-1134.7 (PYTHONHASHSEED unset, 0, 1, 4242).
# Decided transactions then shed their vote book-keeping, payloads moved
# their object sets into slots and a payload's shards came to be read off
# its own sets: the readings fell to 704.1-706.3 / 341.8-342.0 / 1255.9 /
# 1132.9-1133.7 (PYTHONHASHSEED unset, 0, 4242), and the bounds are those
# plus 1%.  Payload sets as sorted tuples cost a ``sorted`` per set a
# transaction context builds, and the workload's keys come from a list
# indexed by key, at no call: the readings are 704.6-706.3 / 341.7-341.8 /
# 1256.9 / 1131.7-1132.4 (PYTHONHASHSEED unset, 0, 1, 4242), under the same
# bounds.  Generating each wave's bodies when the wave is submitted costs
# two calls a wave (the workload's ``bodies`` and its list comprehension)
# where the whole run's bodies were two comprehensions: the readings are
# 704.6-705.7 / 341.7-341.8 / 1257.0 / 1131.8-1132.5 (PYTHONHASHSEED 0, 1,
# 4242), under the same bounds.  One ``Link`` per directed channel (a send
# is one lookup and attribute work on the link, the delivery event calls the
# link, a crashed sender is stopped by ``Process.send``) and a batch outbox
# that arms its flush timer once per batch, not once per message, took the
# readings from 704.6 / 341.7-341.8 / 1257.0 / 1131.7-1131.8 (PYTHONHASHSEED
# 0 and 4242) to 637.6-641.5 / 322.8-323.1 / 1077.8 / 1087.0-1087.9
# (PYTHONHASHSEED 0, 1, 2, 3, 7, 99, 4242; 637.6 / 322.8-322.9 / 1077.8 /
# 1087.2 under 0 and 4242); the bounds are the highest readings plus 1%,
# rounded up.  One write path into the slot arrays (``store_slot`` /
# ``decide_slot``) whose trackers keep no per-slot sets, and one
# ``_shard_persisted`` that reads the epoch and the ack key through
# ``epoch_of`` / ``_ack_key``, took mp-steady / read-mostly-lease /
# rdma-batched-bw from 638.6-642.4 / 322.8-323.1 / 1086.0-1087.0 to
# 635.3-642.0 / 321.2-321.7 / 1079.2-1080.8 (PYTHONHASHSEED unset, 0, 1, 2,
# 3, 7, 99, 4242; the parent measured under 0, 1, 3, 7, 99, 4242);
# baseline-steady runs none of it and reads 1077.8.  The read-mostly-lease
# and rdma-batched-bw bounds are the highest readings plus 1%, rounded up;
# mp-steady's reading under PYTHONHASHSEED=7 leaves its bound where it was.
# Since snapshot reads are served from the leader's vote index (the read
# engines keep no second copy of the slot arrays) and the Paxos replicas
# and 2PC state machines keep only the per-slot state they read,
# read-mostly-lease and baseline-steady read 303.9-304.1 and 1056.5
# (314.9-315.1 and 1075.5 before) under PYTHONHASHSEED 0 and 4242; their
# bounds are those plus 1%, rounded up, and the other shapes read as before.
# Since the network folds its link-queue samples into running sums and keeps
# no byte sum per message class, rdma-batched-bw reads 1076.8-1078.5
# (1080.8-1082.5 before) in a fresh process under PYTHONHASHSEED 0, 1, 2, 3,
# 7, 99 and 4242; its bound is the highest plus 1%, rounded up.
# Since the slot arrays are lists read by C iterators, the history keeps no
# ``Event`` objects and walks its record through C iterators, and the
# invariant monitor no longer copies each decision, mp-steady /
# read-mostly-lease / baseline-steady / rdma-batched-bw read 620.5-628.2 /
# 301.1-301.7 / 1054.5 / 1057.9-1060.6 (635.0 / 303.6-303.8 / 1054.5 /
# 1076.6-1076.7 before, under 0 and 4242) under PYTHONHASHSEED unset, 0, 1,
# 2, 3, 7, 99 and 4242; the bounds are the highest readings plus 1%,
# rounded up.
# Since the coordinator skips its per-shard decision check until every shard
# has voted, and checks the followers' acks with a loop instead of building
# a set, mp-steady / read-mostly-lease / rdma-batched-bw read 610.9-613.8 /
# 299.9-300.1 / 1026.1-1026.8 in a fresh process under PYTHONHASHSEED
# unset, 0, 1, 2, 3, 7, 99 and 4242; the bounds are the highest plus 1%,
# rounded up.  baseline-steady reads 1054.5, or 1059.3 when the run itself
# imports the baseline's stack (nothing else imports it first since the
# stacks load on first use), and keeps its bound.
# Since ``calls`` sums the profiler's own entries (one per code object)
# instead of ``pstats``' (one per file, line and name, which kept one of
# the dataclass ``__init__`` entries and dropped the rest), the same code
# reads mp-steady / read-mostly-lease / baseline-steady / rdma-batched-bw
# 640.5-642.1 / 314.5-314.6 / 1123.7-1128.8 / 1059.8-1064.1, where the
# old count read 610.9-611.0 / 300.0-300.1 / 1085.7 / 1026.2 in a fresh
# process (PYTHONHASHSEED unset, 0, 1 and 4242, the file alone and the whole
# suite; baseline-steady's higher reading is the file alone, whose run
# imports the baseline's stack).  The bounds re-based on those readings
# plus 1%, rounded up, were 649 / 318 / 1141 / 1075: the measure was
# corrected, the gate not loosened.  Since each process keeps one
# configuration record per shard, whose followers are computed once,
# mp-steady and read-mostly-lease read 633.3-634.5 and 313.6-313.7 and
# their bounds are those plus 1%, rounded up; the other two read as before.
# Since a served snapshot read registers in no directory and shares its
# objects' certify-time marker, and the zipfian table is filled in place
# (no append per key), read-mostly-lease and rdma-batched-bw read
# 291.7-291.9 and 1048.9-1049.2 (313.6 and 1063.2 before) in a fresh process
# under PYTHONHASHSEED unset, 0 and 4242, and their bounds are those plus
# 1%, rounded up; a read of an unwritten key asks the key space's seed
# mapping, a Python ``get``, so mp-steady and baseline-steady read
# 634.0-635.3 and 1130.3 under their old bounds.
# Since the cluster has one client, which resolves a submission's shards
# once (no session frame, no decision callback, no second ``shards_of``),
# mp-steady / read-mostly-lease / rdma-batched-bw read 624.2-626.7 /
# 282.8-283.1 / 1033.8-1034.5 (635.0 / 291.3-291.4 / 1048.6-1048.7 before)
# in a fresh process under PYTHONHASHSEED unset, 0, 1, 2, 3, 7, 99 and
# 4242; their bounds are the highest plus 1%, rounded up (mp-steady-grouped
# must cost mp-steady's calls, and shares its bound).  baseline-steady
# reads 1127.3 (1130.0 before) and keeps its bound, which covers a run
# that imports the baseline's stack itself.
# Since the history renders each event once when it records it (a payload
# and a marker without the field walk) and the checker takes the payload
# from the listener call instead of reading it back, mp-steady /
# read-mostly-lease / rdma-batched-bw / baseline-steady read 604.2-604.8 /
# 263.7 / 955.8-958.9 / 1102.5-1107.7 (624.4 / 282.8 / 978.9 / 1122.5 on
# the parent in this file) under PYTHONHASHSEED unset, 0 and 4242, the
# file alone and the whole suite (1107.7 is a run that imports the
# baseline's stack itself); the bounds are the highest plus 1%, rounded up.
# A change that makes the path cheaper should tighten these to its own
# readings.  The parallel-shards spelling of mp-steady is the serial run
# (the runner ignores the mode): it must cost mp-steady's calls exactly.
RUN_CALLS_PER_TXN = {
    "mp-steady": 611,
    "mp-steady-grouped": 611,
    "read-mostly-lease": 267,
    "baseline-steady": 1119,
    "rdma-batched-bw": 969,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_whole_run_call_count_per_transaction(shape):
    grouped = shape == "mp-steady-grouped"
    if grouped:
        # A process's first run also fills per-type caches (~64 calls): warm
        # them, so that the two runs compared below are both warm.
        spec = shape_spec(shape)
        ScenarioRunner(replace(spec, workload=replace(spec.workload, txns=50))).run()
    runner = ScenarioRunner(shape_spec(shape))
    per_txn = calls(runner.run) / 1000
    assert per_txn <= RUN_CALLS_PER_TXN[shape]
    assert len(runner.cluster.history) == 2000
    if grouped:
        assert per_txn == calls(ScenarioRunner(shape_spec("mp-steady")).run) / 1000


# GC-tracked objects a finished run leaves per transaction: what the cluster,
# its history, the online checker and the invariant monitor still hold, which
# every cyclic-collector pass walks.  Counted after a 50-transaction warm-up
# of the same shape has filled the per-type caches (``_warmed_up``), the
# figure repeats exactly across test order and hash seeds.  With the checker
# retiring settled history the readings were 27.248 / 35.482 / 48.971 /
# 77.567 (mp-steady / read-mostly-lease / baseline-steady / rdma-batched-bw,
# the last with the payload-size memo emptied first), and 34.678 / 41.274 /
# 56.401 / 86.641 before, when it kept every transaction and a frontier per
# commit.  They are 18.513 / 29.871 / 39.136 / 59.120 since a decided
# coordinator entry drops its vote and ack containers and payloads, events
# and directory records lost their instance ``__dict__``.  They are 13.537 /
# 27.625 / 34.160 / 52.578 since a payload's read and write sets are sorted
# tuples and a key is one shared string; the bounds are those plus 2%.  They
# read the same since a run generates each wave when it submits it: the
# workload's bodies are garbage by the end of a run either way.  A link per
# directed channel took them to 13.646 / 27.736 / 34.191 / 52.717; since the
# vote cache and the read engine keep no per-slot sets they are 13.598 /
# 27.656 / 34.191 / 52.669; each plus 2% is above its bound, so the bounds
# stay.  Since an applied store keeps one entry per object (a seed is a dict
# entry, not a list and a ``VersionedValue``) they are 9.415 / 7.645 /
# 30.008 / 12.410 under PYTHONHASHSEED=0 and 4242; the bounds are those plus
# 2%, rounded.  Since snapshot reads are served from the vote index and the
# 2PC baseline keeps no applied store, committed list or applied slot's
# Paxos state, they are 9.419 / 7.196 / 26.488 / 12.414 (a vote index now
# holds payloads, so its committed-writer dict is tracked: one object per
# leader); the read-mostly-lease and baseline-steady bounds are those plus
# 2%, rounded, and the others stay.  Since the history keeps no ``Event``
# objects (two per transaction) they are 7.448 / 5.210 / 24.488 / 10.443
# (9.412 / 7.190 / 26.490 / 12.407 before) under PYTHONHASHSEED=0 and 4242;
# the bounds are those plus 2%, rounded.  Since a served snapshot read
# leaves no directory entry and no marker of its own, read-mostly-lease
# reads 4.190 (5.227 before) under PYTHONHASHSEED unset, 0 and 4242, and
# its bound is that plus 2%, rounded; the others read as before.  Since
# the history keeps no payload (a snapshot read's versioned payload, or a
# payload the checker has retired, is garbage once its events are
# recorded), they read 6.868 / 3.499 / 23.893 / 9.806 (7.464 / 4.187 /
# 24.489 / 10.463 before) under PYTHONHASHSEED unset, 0 and 4242; the
# bounds are those plus 2%, rounded up.  Since a Paxos replica keeps no
# state for a slot it has applied (its acceptor drops the slot's accepted
# value, and with it the command and its projected payload),
# baseline-steady reads 5.476 (23.893 before) under PYTHONHASHSEED=0 and
# 4242, and its bound is that plus 2%, rounded up.
RETAINED_OBJECTS_PER_TXN = {
    "mp-steady": 7.01,
    "mp-steady-grouped": 7.01,
    "read-mostly-lease": 3.57,
    "baseline-steady": 5.59,
    "rdma-batched-bw": 10.01,
}


def _warmed_up(shape):
    """The shape's spec, once a 50-transaction run of it has filled the
    per-type caches.  The bounded payload-size memo is emptied, so that what
    the measured run leaves in it does not depend on what ran before."""
    spec = shape_spec(shape)
    ScenarioRunner(replace(spec, workload=replace(spec.workload, txns=50))).run()
    wire._FIELD_SIZERS[TransactionPayload].cache_clear()
    gc.collect()
    return spec


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_whole_run_retained_objects_per_transaction(shape):
    spec = _warmed_up(shape)
    before = len(gc.get_objects())
    runner = ScenarioRunner(spec)
    runner.run()
    gc.collect()
    per_txn = (len(gc.get_objects()) - before) / 1000
    assert per_txn <= RETAINED_OBJECTS_PER_TXN[shape]
    # The checker holds the in-flight tail, not 1000 transactions and their
    # frontiers (1738-2000 nodes before it retired by default).
    assert runner.checker.stats["nodes"] <= 300


# Bytes a finished run leaves per transaction, by ``tracemalloc``: the same
# retained state as above weighed in bytes, so that a container swapped for
# a smaller one (or an instance ``__dict__`` for slots) shows even where the
# object count does not move.  Counted after the same warm-up, the figure
# repeats across hash seeds (CI runs this file under two) and moves by under
# two bytes per transaction with test order.  The readings are 3511.1 /
# 3690.9 / 6658.7 / 8177.2 (mp-steady / read-mostly-lease / baseline-steady
# / rdma-batched-bw) since a payload's read and write sets are sorted tuples
# (a frozenset is at least 216 bytes, a tuple of one pair 48) and the
# workload hands out one string per key; 4536.9 / 4150.7 / 7684.8 / 9576.9
# before, and 7210.5 / 5997.7 / 10153.1 / 13846.7 while decided
# transactions kept their vote book-keeping and payloads their ``__dict__``.
# The bounds were the readings plus 2%; generating each wave when it is
# submitted leaves the readings as they were, and a link per directed channel
# took them to 3536.7 / 3719.8 / 6669.7 / 8204.5.  Since the leader vote
# cache keeps no set of committed and prepared slots and the read engine no
# set of applied ones, they are 3390.4 / 3678.9 / 6669.7 / 8055.1; the
# bounds are those plus 2%, except baseline-steady's (the 2PC baseline runs
# no shard replica), which stays.  Since an applied store keeps the latest
# version of each object, and its seeds in one dict, they are 3115.4 /
# 2135.7 / 6394.1 / 5745.4 under PYTHONHASHSEED=0 and 4242 (3391.8 /
# 3678.9 / 6670.5 / 8055.0 before); the bounds are those plus 2%.  Since
# snapshot reads are served from the vote index and the 2PC baseline keeps
# only the per-slot state it reads, read-mostly-lease and baseline-steady
# read 2063.2 / 4185.4 (2135.7 / 6390.9 before) under PYTHONHASHSEED=0 and
# 4242, and their bounds are those plus 2%; the others read as before.
# Since the network folds its link-queue samples into running sums, where it
# kept two floats per sized message, rdma-batched-bw reads 5549.9 (5745.6
# before) under PYTHONHASHSEED=0 and 4242, and its bound is that plus 2%.
# Since a replica derives each slot's phase from its transaction and
# decision arrays, where it kept a fifth per-slot dict, mp-steady /
# read-mostly-lease / rdma-batched-bw read 2960.3 / 2043.9 / 5393.7
# (3117.2 / 2063.8 / 5550.6 before) under PYTHONHASHSEED=0 and 4242, and
# their bounds are those plus 2%; baseline-steady reads 4190.7 as before.
# Since the slot arrays are lists indexed by slot, the history keeps a
# payload and a decision per transaction and a byte and a time per event,
# and neither the client nor the invariant monitor copies the decisions,
# mp-steady / read-mostly-lease / baseline-steady / rdma-batched-bw read
# 2223.7 / 1757.3 / 3954.3 / 4716.5 (2957.8 / 2043.3 / 4188.2 / 5392.5
# before) under PYTHONHASHSEED=0 and 4242; the bounds are those plus 2%.
# Since the store shares the key space's seed mapping, where it copied a
# dict of every key, and a served snapshot read leaves no client record,
# directory entry or marker of its own, they read 2058.5 / 1192.5 / 3793.1
# / 3158.3 (2223.2 / 1759.6 / 3957.8 / 4722.2 before) under PYTHONHASHSEED
# unset, 0 and 4242, and the bounds are those plus 2%, rounded up.  Since
# the history keeps no payload, time or per-event byte (it folds each event
# into its digest as it is recorded), they read 1932.8 / 984.6 / 3670.7 /
# 3007.3 (2055.7 / 1185.1 / 3793.7 / 3151.3 before) under PYTHONHASHSEED=0
# and 4242, and the bounds are those plus 2%, rounded up.  Since a Paxos
# replica keeps no state for a slot it has applied, baseline-steady reads
# 1622.1 (3667.8 before) under PYTHONHASHSEED=0 and 4242, and its bound is
# that plus 2%, rounded up.
RETAINED_BYTES_PER_TXN = {
    "mp-steady": 1972,
    "mp-steady-grouped": 1972,
    "read-mostly-lease": 1005,
    "baseline-steady": 1655,
    "rdma-batched-bw": 3068,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_whole_run_retained_bytes_per_transaction(shape):
    spec = _warmed_up(shape)
    tracemalloc.start()
    try:
        runner = ScenarioRunner(spec)
        runner.run()
        gc.collect()
        per_txn = tracemalloc.get_traced_memory()[0] / 1000
    finally:
        tracemalloc.stop()
    assert per_txn <= RETAINED_BYTES_PER_TXN[shape]


# Peak ``tracemalloc`` bytes per transaction over a whole run, after the same
# warm-up: what the run keeps plus its largest transient, so that state a
# run builds up front and drops at its end (every transaction's body, say)
# shows although the retained figure above cannot see it.  The figure
# repeats across hash seeds.  The readings are 3791.1 / 3822.9 / 6975.9 /
# 9619.7 (mp-steady / read-mostly-lease / baseline-steady / rdma-batched-bw)
# since a run generates each wave's transactions when it submits the wave;
# 4235.6 / 4025.4 / 7405.5 / 10232.4 while it built every transaction's spec
# and body before the first wave.  The bounds are the readings plus 2%.
# Since an applied store keeps the latest version of each object the
# readings are 3390.0 / 2265.0 / 6701.7 / 7184.9 under PYTHONHASHSEED=0 and
# 4242 (3666.4 / 3808.3 / 6978.2 / 9494.4 before), and the bounds are
# those plus 2%.  Since snapshot reads are served from the vote index and
# the 2PC baseline keeps only the per-slot state it reads, read-mostly-lease
# and baseline-steady read 2192.4 / 4492.2 (2264.9 / 6697.7 before) under
# PYTHONHASHSEED=0 and 4242, and their bounds are those plus 2%.  Since the
# network folds its link-queue samples into running sums, rdma-batched-bw
# reads 6989.7 (7185.4 before), and its bound is that plus 2%.  Since a
# replica derives each slot's phase, mp-steady / read-mostly-lease /
# rdma-batched-bw read 3234.5 / 2173.2 / 6833.4 (3391.6 / 2193.4 / 6990.2
# before) under PYTHONHASHSEED=0 and 4242, and their bounds are those plus
# 2%; baseline-steady reads 4497.6 as before.  Since slot arrays are lists
# and the history record is flat, they read 2472.5 / 1877.8 / 4236.2 /
# 6156.1 (3232.2 / 2172.5 / 4495.9 / 6832.1 before) under PYTHONHASHSEED=0
# and 4242, and the bounds are those plus 2%.  Since the key space's seeds
# are one shared mapping that builds no key and the zipfian table one
# double per key, and a served snapshot read leaves no trail, they read
# 2308.9 / 1300.5 / 4076.2 / 3689.3 (2473.6 / 1879.8 / 4240.9 / 6161.3
# before) under PYTHONHASHSEED unset, 0 and 4242, and the bounds are those
# plus 2%, rounded up.  Since the history is a stream (no payload, time or
# per-event byte kept), they read 2210.1 / 1091.4 / 3979.7 / 3544.8
# (2304.4 / 1291.9 / 4074.3 / 3682.9 before) under PYTHONHASHSEED=0 and
# 4242, and the bounds are those plus 2%, rounded up.  Since a Paxos
# replica keeps no state for a slot it has applied, baseline-steady reads
# 1989.6 (3978.3 before) under PYTHONHASHSEED=0 and 4242, and its bound is
# that plus 2%, rounded up.
PEAK_BYTES_PER_TXN = {
    "mp-steady": 2255,
    "mp-steady-grouped": 2255,
    "read-mostly-lease": 1114,
    "baseline-steady": 2030,
    "rdma-batched-bw": 3616,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_whole_run_peak_bytes_per_transaction(shape):
    spec = _warmed_up(shape)
    tracemalloc.start()
    try:
        ScenarioRunner(spec).run()
        per_txn = tracemalloc.get_traced_memory()[1] / 1000
    finally:
        tracemalloc.stop()
    assert per_txn <= PEAK_BYTES_PER_TXN[shape]


# The key-space gate (run memory follows what a run touches, not the size of
# its key space): the ``tracemalloc`` peak of a 20,000-key run minus that of
# a 2,000-key run of the same 500 warmed transactions, per added key, on the
# uniform shape (mp-steady) and the zipfian one (rdma-batched-bw).  The
# store and the read engines share one seed mapping that answers
# ``key-i -> 0`` by parsing the name, and the zipfian table is one double
# per key: 6.3 / 9.6 B per added key, where the runner's dict of key
# strings, the store's copy, the per-shard split and the engines' copies of
# it, and a list of weights and one of Python floats took 105.1 / 132.3.
# What is left is the key generators' name slot (8 B per key) and the
# zipfian table; the readings are the same under PYTHONHASHSEED 0 and 4242,
# and the bound is 10 (24 before).
KEY_SPACE_PEAK_BYTES_PER_KEY = 10


@pytest.mark.parametrize("shape", ["mp-steady", "rdma-batched-bw"])
def test_key_space_peak_bytes_per_added_key(shape):
    spec = _warmed_up(shape)
    peaks = []
    for num_keys in (2000, 20000):
        tracemalloc.start()
        try:
            ScenarioRunner(
                replace(spec, workload=replace(spec.workload, txns=500, num_keys=num_keys))
            ).run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_key = (peaks[1] - peaks[0]) / 18000
    assert per_key <= KEY_SPACE_PEAK_BYTES_PER_KEY, peaks


# The slope gates (run memory follows in-flight work, not run length): what
# one file keeps allocated, by ``tracemalloc`` filtered to it, after a warmed
# 4N-transaction run minus after an N-transaction one, per added unit of
# what the file keeps per transaction.  N is 500, and the shape is
# mp-steady's, or baseline-steady's for the Paxos replicas.  A replica
# keeps Figure 1's four slot arrays as lists indexed by slot and ``slot_of``
# as one dict: 79.3 B per added replica-slot (a slot holding a transaction
# or a decision at one replica) under PYTHONHASHSEED=0, where four int-keyed
# dicts kept 213.1.  The history keeps a certified marker and a decision per
# transaction in two dicts and folds each event into its running digest:
# 25.9 B per added event under PYTHONHASHSEED=0 and 4242, where a payload
# per transaction, a byte and a time per event kept 35.0, and two ``Event``
# objects per transaction, their list and two txn -> ``Event`` dicts 141.9.
# The replica's lists grow by a quarter at a time, so where the 4N run's
# capacity lands moves its reading by up to about ten bytes; its bound
# leaves room for that and fails the old record.  The history's bound is
# its reading plus 2%.  A Paxos replica keeps a slot's accepted value,
# chosen value, proposal and acks only until it applies the slot: 1.2 B
# per added transaction under PYTHONHASHSEED=0 and 4242, where acceptors
# that kept every accepted slot (and through it every command and
# projected payload) kept 1478.5; the bound leaves room for a few dicts
# resized at other capacities and fails the old record by two orders of
# magnitude.
REPLICA_BYTES_PER_SLOT = 100
HISTORY_BYTES_PER_EVENT = 26.4
PAXOS_BYTES_PER_TXN = 8


def _retained_slope(filename, shape, count):
    """Bytes ``filename`` keeps after a warmed 4N- minus an N-transaction
    run of ``shape``, and ``count(cluster)`` of the two runs' clusters, both
    as 4N minus N."""
    spec = _warmed_up(shape)
    only = [tracemalloc.Filter(True, f"*/repro/{filename}")]
    readings = []
    for txns in (500, 2000):
        tracemalloc.start()
        try:
            runner = ScenarioRunner(replace(spec, workload=replace(spec.workload, txns=txns)))
            runner.run()
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(only)
        finally:
            tracemalloc.stop()
        readings.append(
            (sum(stat.size for stat in snapshot.statistics("filename")), count(runner.cluster))
        )
    (bytes_n, units_n), (bytes_4n, units_4n) = readings
    return bytes_4n - bytes_n, units_4n - units_n


def _filled_slots(cluster):
    return sum(sum(1 for _ in replica.filled_slots()) for replica in cluster.replicas.values())


def test_replica_retained_bytes_per_added_slot():
    added_bytes, added_slots = _retained_slope("core/replica.py", "mp-steady", _filled_slots)
    assert added_slots > 5000
    assert added_bytes / added_slots <= REPLICA_BYTES_PER_SLOT, (added_bytes, added_slots)


def test_history_retained_bytes_per_added_event():
    added_bytes, added_events = _retained_slope(
        "spec/history.py", "mp-steady", lambda cluster: len(cluster.history)
    )
    assert added_events == 3000
    assert added_bytes / added_events <= HISTORY_BYTES_PER_EVENT, (added_bytes, added_events)


def test_paxos_retained_bytes_per_added_transaction():
    added_bytes, added_txns = _retained_slope(
        "baselines/paxos.py", "baseline-steady", lambda cluster: len(cluster.history.certified())
    )
    assert added_txns == 1500
    assert added_bytes / added_txns <= PAXOS_BYTES_PER_TXN, (added_bytes, added_txns)


# Cyclic-collector passes per generation over a warmed mp-steady-shape run,
# from ``gc.get_stats()``: the collector reclaims nothing in a run
# (``test_a_run_leaves_nothing_for_the_cyclic_collector``), so every pass is
# spent walking live state, and the count falls as a run allocates fewer
# tracked objects.  Counted from the ``gc.collect()`` that ends the warm-up,
# the figures repeat exactly across test order and hash seeds.  The readings
# are 44 / 4 / 0 since a run generates each wave's transactions when it
# submits the wave (51 / 4 / 0 while it built them all up front, and
# 53 / 4 / 0 while payload sets were frozensets).  Since an applied store
# keeps one entry per object, and seeding it makes no object per key, they
# are 39 / 3 / 0 under PYTHONHASHSEED=0 and 4242; the bounds are those plus
# 2%, rounded.  A history without ``Event`` objects reads 39 / 3 / 0 too.
GC_COLLECTIONS = (40, 3, 0)


def test_whole_run_gc_collections():
    spec = _warmed_up("mp-steady")
    before = [generation["collections"] for generation in gc.get_stats()]
    ScenarioRunner(spec).run()
    after = [generation["collections"] for generation in gc.get_stats()]
    passes = tuple(now - then for now, then in zip(after, before))
    assert all(count <= bound for count, bound in zip(passes, GC_COLLECTIONS)), passes
