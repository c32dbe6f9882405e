"""Tests for the bandwidth/queueing network model and its commit-path knobs.

Four layers:

* ``repro.runtime.wire`` — every message class in every protocol module,
  and one it has never seen, is sized by its class; batches cost the sum
  of their parts plus one header, and a message that is not a dataclass
  fails loudly (only when the link model is actually on);
* ``repro.runtime.network`` — FIFO queueing semantics: serialization and
  queue wait are added on top of propagation, per-channel order is
  preserved, and the byte/queue statistics come out exactly as the closed
  form predicts;
* ``repro.scenarios.spec.NetworkSpec`` — parsing, validation, description
  strings and the CLI grid grammar;
* end-to-end — the saturated link really queues, the default network is
  inert, sticky affinity pins coordinators, and the non-pipelined baseline
  still commits everything.
"""

import dataclasses
import importlib
import math
import pickle
import statistics
import tracemalloc
from dataclasses import replace
from enum import Enum
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import collect_link_stats
from repro.baselines import paxos, twopc
from repro.baselines.cluster import BaselineCluster
from repro.client import CoordinatorRouter
from repro.core import messages as core_messages
from repro.core.serializability import TransactionPayload
from repro.core.types import AS_SENT, Configuration, Decision
from repro.rdma import messages as rdma_messages
from repro.runtime import process as process_runtime
from repro.runtime import rdma as rdma_runtime
from repro.runtime import wire
from repro.runtime.events import Scheduler
from repro.runtime import network as network_module
from repro.runtime.network import _FOLD, Network
from repro.runtime.process import Batch, Process
from repro.runtime.wire import HEADER_BYTES, SCALAR_BYTES, wire_size
from repro.scenarios import (
    BANDWIDTH,
    NetworkSpec,
    ScenarioError,
    ScenarioRunner,
    get_scenario,
    parse_bandwidth,
    run_axis_sweep,
)
from repro.spec.history import History


# ----------------------------------------------------------------------
# wire sizes: every message class, everywhere
# ----------------------------------------------------------------------

MESSAGE_MODULES = (core_messages, rdma_messages, paxos, twopc, rdma_runtime, process_runtime)


def _message_classes(module):
    """Every public frozen-dataclass message type defined in ``module``."""
    found = []
    for name in dir(module):
        if name.startswith("_"):
            continue
        cls = getattr(module, name)
        if (
            isinstance(cls, type)
            and cls.__module__ == module.__name__
            and dataclasses.is_dataclass(cls)
            and cls.__dataclass_params__.frozen
        ):
            found.append(cls)
    return found


@pytest.mark.parametrize("module", MESSAGE_MODULES, ids=lambda m: m.__name__)
def test_every_message_class_has_a_wire_size(module):
    """Every message class of every protocol module compiles a sizer."""
    classes = _message_classes(module)
    assert classes, f"no message classes found in {module.__name__}"
    for cls in classes:
        assert callable(wire._SIZERS[cls]), cls


def test_wire_size_is_positive_and_deterministic():
    message = core_messages.Prepare(txn="t1", payload=("k1", "k2"))
    assert wire_size(message) > HEADER_BYTES
    assert wire_size(message) == wire_size(message)


def test_batch_wire_size_is_sum_of_parts_plus_one_header():
    parts = tuple(
        core_messages.Prepare(txn=f"t{i}", payload=(f"key-{i}",)) for i in range(5)
    )
    batch = Batch(parts)
    payloads = sum(wire_size(p) - HEADER_BYTES for p in parts)
    assert wire_size(batch) == HEADER_BYTES + payloads
    # Coalescing saves headers, never payload bytes: the batch is strictly
    # cheaper than its parts sent individually.
    assert wire_size(batch) < sum(wire_size(p) for p in parts)


def test_a_batch_nested_in_a_message_is_sized_as_a_field():
    """Only a top-level ``Batch`` is an envelope.  Nested — the 2PC baseline
    replicates one as a Paxos value — it is a field like any dataclass: one
    scalar plus its items' tuple, no header anywhere."""
    commands = (
        twopc.PrepareCommand(txn="t1", payload=("key-1",)),
        twopc.DecideCommand(txn="t1", decision=Decision.COMMIT),
    )
    batch = Batch(commands)
    assert wire._field_size(batch) == 2 * SCALAR_BYTES + sum(map(wire._field_size, commands))
    value = paxos.RsmCommand(command=batch, request_id=7)
    assert wire_size(value) == HEADER_BYTES + wire._field_size(batch) + SCALAR_BYTES


def test_rdma_write_charges_frame_plus_payload():
    inner = rdma_messages.Accept(slot=3, txn="t1", payload=None, vote=None)
    frame = rdma_runtime.RdmaWrite(write_id=1, payload=inner)
    assert wire_size(frame) > wire_size(inner)


def test_a_marker_prepare_ack_costs_its_fixed_fields_and_no_payload():
    """``PREPARE_ACK(e, s, k, t, AS_SENT, d)``: a header, the epoch, the
    shard and transaction ids, the slot, the vote and one scalar for the
    marker, whatever the payload its coordinator sent."""
    sent = TransactionPayload.make(
        reads=[("key-1", (0, ""))], writes=[("key-1", 1)], tiebreak="t"
    )
    echo = core_messages.PrepareAck(
        epoch=1, shard="shard-0", slot=7, txn="t1", payload=sent, vote=Decision.COMMIT
    )
    marker = replace(echo, payload=AS_SENT)
    fixed = 4 * SCALAR_BYTES + len("shard-0") + len("t1")
    assert wire_size(marker) == HEADER_BYTES + fixed
    assert wire_size(echo) - wire_size(marker) == wire._field_size(sent) - SCALAR_BYTES > 0


def test_a_message_class_never_seen_is_sized_by_its_fields():
    """No list names the message classes: a dataclass defined here, and a
    subclass of a protocol message, cost a header plus their fields, alone
    and inside the transport envelope."""

    @dataclasses.dataclass(frozen=True)
    class UnseenRequest:
        txn: str
        keys: tuple
        payload: TransactionPayload

    class SneakyPrepare(core_messages.Prepare):
        pass

    for message in (
        UnseenRequest(txn="t9", keys=("k1", 2), payload=_TXN_PAYLOAD),
        SneakyPrepare(txn="t1", payload=("k1",)),
    ):
        assert wire_size(message) == _oracle_wire_size(message) > HEADER_BYTES
        batch = Batch((core_messages.Prepare(txn="t1", payload=("k1",)), message))
        assert wire_size(batch) == _oracle_wire_size(batch)


def test_wire_size_rejects_a_message_that_is_not_a_dataclass():
    class NotAMessage:
        pass

    with pytest.raises(TypeError, match=r"NotAMessage has no wire size"):
        wire_size(NotAMessage())
    # ... and no cover inside the transport envelope either.
    sized = core_messages.Prepare(txn="t1", payload=("k1",))
    with pytest.raises(TypeError, match=r"NotAMessage has no wire size"):
        wire_size(Batch((sized, NotAMessage())))


@pytest.mark.parametrize("name", [*wire._MESSAGE_RULES, wire._PAYLOAD])
def test_every_class_named_by_the_wire_module_exists(name):
    """The special rules and the payload memo find their classes by
    qualified name: a rename must fail here, not fall back to the field
    rule without a word."""
    module, _, qualname = name.rpartition(".")
    cls = getattr(importlib.import_module(module), qualname)
    assert dataclasses.is_dataclass(cls) and wire._qualified_name(cls) == name


# ----------------------------------------------------------------------
# the compiled sizers against the recursive definition they replaced
# ----------------------------------------------------------------------

_BATCH_PARTS = {
    Batch: "items",
}


def _oracle_field_size(value):
    """``wire._field_size`` as first written: an ``isinstance`` ladder and
    ``dataclasses.fields`` per value.  Test-only reference."""
    if value is None:
        return 0.0
    if isinstance(value, Enum):
        return SCALAR_BYTES
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return SCALAR_BYTES
    if isinstance(value, (str, bytes)):
        return float(len(value))
    if isinstance(value, dict):
        return SCALAR_BYTES + sum(
            _oracle_field_size(k) + _oracle_field_size(v) for k, v in value.items()
        )
    if isinstance(value, (tuple, list, set, frozenset)):
        return SCALAR_BYTES + sum(_oracle_field_size(item) for item in value)
    if dataclasses.is_dataclass(value):
        return SCALAR_BYTES + sum(
            _oracle_field_size(_oracle_field(f, getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if hasattr(value, "__dict__"):
        return SCALAR_BYTES + sum(_oracle_field_size(v) for v in vars(value).values())
    return SCALAR_BYTES


def _oracle_field(field, value):
    """A field declared as a set in canonical form (a payload's read and
    write sets, sorted tuples) is sized as the frozenset it stands for."""
    if field.metadata.get("canonical") == "set":
        return frozenset(value)
    return value


def _oracle_wire_size(message):
    cls = type(message)
    if cls in _BATCH_PARTS:
        return HEADER_BYTES + sum(
            _oracle_wire_size(part) - HEADER_BYTES
            for part in getattr(message, _BATCH_PARTS[cls])
        )
    if cls is rdma_runtime.RdmaWrite:
        return HEADER_BYTES + SCALAR_BYTES + _oracle_wire_size(message.payload)
    return HEADER_BYTES + sum(
        _oracle_field_size(getattr(message, f.name)) for f in dataclasses.fields(message)
    )


class _Color(Enum):
    RED = "red"


class _Label(str, Enum):  # an Enum first, a string second: one scalar
    LONG = "a-long-label"


class _Point(NamedTuple):  # a tuple, not an object with attributes
    x: int
    y: float


class _Bag:
    def __init__(self):
        self.items = [1, "two", 3.0]
        self.flag = True


class _Opaque:
    __slots__ = ()


_TXN_PAYLOAD = TransactionPayload.make(
    reads=[("key-1", (3, "c0")), ("key-22", (0, ""))], writes=[("key-1", 17)], tiebreak="c1"
)

# Payloads that leave the shapes ``wire._size_transaction_payload`` costs by
# arithmetic — reads ``(str, (int, str))``, writes ``(str, int)``, an
# ``(int, str)`` commit version — one way each; built directly, since
# ``make`` would refuse some.
_OFF_SHAPE_PAYLOADS = (
    # object ids that are not exactly str (and do not sort: a frozenset)
    TransactionPayload(
        read_set=frozenset({(7, (1, "c")), (_Label.LONG, (1, "c")), (b"key", (0, ""))}),
        write_set=frozenset({(7, 1), (_Label.LONG, 2), (None, 3)}),
        commit_version=(2, "c"),
    ),
    # write values that are not exactly int
    TransactionPayload(
        read_set=(("key-1", (3, "c0")),),
        write_set=(
            ("a", "v17"), ("b", 2.5), ("c", None), ("d", True), ("e", ("t", 1)),
            ("f", frozenset({1, "x"})), ("g", _Color.RED), ("h", _TXN_PAYLOAD),
        ),
        commit_version=(4, "c1"),
    ),
    # versions that are not exactly (int, str)
    TransactionPayload(
        read_set=(
            ("a", (1,)), ("b", (1, "c", 2)), ("c", (True, "c")), ("d", ("c", 1)),
            ("e", None), ("f", _Point(1, 2.0)), ("g", (1, _Label.LONG)), ("h", 5),
        ),
        commit_version=_Point(1, 2.0),
    ),
    # elements that are not pairs at all
    TransactionPayload(
        read_set=frozenset({("a",), ("b", (1, "c"), "x"), "cd", _Point("e", (1, "c")), 9}),
        write_set=frozenset({("a",), ("b", 1, 2), "cd", _Point("e", 1), None}),
        commit_version=None,
    ),
    TransactionPayload(commit_version=(1,)),
    TransactionPayload(commit_version="c1"),
    TransactionPayload(commit_version=(True, "c")),
    # a frozenset where the sorted tuple is declared
    TransactionPayload(
        read_set=frozenset({("a", (1, "c")), ("b", (0, ""))}),
        write_set=frozenset({("a", 1)}),
        commit_version=(2, "c"),
    ),
)  # fmt: skip

# One value per rule of the sizing ladder (and the corner cases between
# rules); every field of every message class is filled from this pool.
_FIELD_VALUES = (
    None, _Color.RED, _Label.LONG, True, 7, 2.5, "shard-0/r1", b"\x00\x01\x02",
    {"k": (1, "v"), 2: None}, ("t1", 4, (5, "x")), ["a", "bc"], {"s"}, frozenset({("o", 1)}),
    _Point(1, 2.0), _TXN_PAYLOAD, _Bag(), _Opaque(), (), {},
) + _OFF_SHAPE_PAYLOADS


def _filled(cls, offset):
    names = [f.name for f in dataclasses.fields(cls)]
    return cls(**{
        name: _FIELD_VALUES[(offset + index) % len(_FIELD_VALUES)]
        for index, name in enumerate(names)
    })


def _sample_messages(cls):
    """Instances of ``cls`` whose fields, between them, take every value of
    the pool; batches and RDMA frames carry sampled messages instead."""
    flat = [
        c for module in MESSAGE_MODULES for c in _message_classes(module)
        if c not in _BATCH_PARTS and c is not rdma_runtime.RdmaWrite
    ]
    if cls in _BATCH_PARTS:
        parts = tuple(_filled(c, i) for i, c in enumerate(flat))
        return [cls(**{_BATCH_PARTS[cls]: parts}), cls(**{_BATCH_PARTS[cls]: ()})]
    if cls is rdma_runtime.RdmaWrite:
        nested = Batch(tuple(_filled(c, 3) for c in flat[:4]))
        return [cls(write_id=9, payload=inner) for inner in (_filled(flat[0], 0), nested)]
    return [_filled(cls, offset) for offset in range(len(_FIELD_VALUES))]


@pytest.mark.parametrize("module", MESSAGE_MODULES, ids=lambda m: m.__name__)
def test_wire_size_equals_the_recursive_definition_bit_for_bit(module):
    for cls in _message_classes(module):
        for message in _sample_messages(cls):
            assert wire_size(message) == _oracle_wire_size(message), message
            # Memoised payload sizes must not drift on a second sizing.
            assert wire_size(message) == _oracle_wire_size(message), message


def test_a_payloads_cached_object_sets_are_not_fields():
    """``read_objects`` / ``written_objects`` are cached in slots that are
    not dataclass fields: reading them changes neither the fields, nor the
    wire size, nor the digest text, nor what a pickle carries."""
    assert [f.name for f in dataclasses.fields(TransactionPayload)] == [
        "read_set",
        "write_set",
        "commit_version",
    ]
    fresh = TransactionPayload.make(
        reads=[("key-1", (3, "c0")), ("key-22", (0, ""))], writes=[("key-1", 5)], tiebreak="c9"
    )
    assert not hasattr(fresh, "__dict__")
    history = History()
    history.record_certify("t", fresh, 0.0)
    digest = history.digest()
    size = _oracle_field_size(fresh)
    assert fresh.read_objects == {"key-1", "key-22"}
    assert fresh.written_objects == {"key-1"}
    assert fresh.read_objects is fresh.read_objects  # cached, not rebuilt
    assert _oracle_field_size(fresh) == size == wire._field_size(fresh)
    again = History()
    again.record_certify("t", fresh, 0.0)
    assert again.digest() == digest
    assert pickle.loads(pickle.dumps(fresh)) == fresh
    assert getattr(fresh, "no_such_attribute", None) is None
    with pytest.raises(AttributeError, match="no_such_attribute"):
        fresh.no_such_attribute


@pytest.mark.parametrize("name", ["bandwidth-knee", "saturated-link"])
@pytest.mark.parametrize("protocol", ["message-passing", "rdma", "2pc-paxos"])
def test_every_message_sized_in_a_run_matches_the_recursive_definition(
    monkeypatch, name, protocol
):
    """Real traffic on all three stacks under an enabled link: every size the
    network charges equals the reference (payload memo included: the same
    payloads recur inside CertifyRequest, Prepare, Accept, RdmaWrite)."""
    import repro.runtime.network as network_module

    sized = []

    def checked(message):
        size = wire_size(message)
        assert size == _oracle_wire_size(message), message
        sized.append(type(message))
        if type(message) is Batch:  # one envelope type: count the kinds it carries
            sized.extend(map(type, message.items))
        return size

    monkeypatch.setattr(network_module, "wire_size", checked)
    spec = _small(name, txns=60)
    overrides = {"protocol": protocol}
    if protocol == "2pc-paxos" and spec.replicas_per_shard % 2 == 0:
        overrides["replicas_per_shard"] = spec.replicas_per_shard + 1
    assert ScenarioRunner(spec.with_overrides(**overrides)).run().safety_ok
    assert len(set(sized)) >= 4


def test_send_many_sizes_the_message_once(monkeypatch):
    calls = []

    def counting(message):
        calls.append(message)
        return wire_size(message)

    monkeypatch.setattr(network_module, "wire_size", counting)
    link = NetworkSpec(bandwidth=50.0, overhead=0.25)
    message = core_messages.Prepare(txn="t1", payload=_TXN_PAYLOAD)

    def deliveries(multicast):
        scheduler = Scheduler()
        network = Network(scheduler, seed=0, link=link)
        sinks = [_Sink(pid) for pid in "abcd"]
        for sink in sinks:
            network.register(sink)
        if multicast:
            network.send_many("a", ["b", "c", "d", "nobody"], message)
        else:
            for dst in ["b", "c", "d", "nobody"]:
                network.send("a", dst, message)
        scheduler.run()
        stats = network.stats
        return (
            [sink.deliveries for sink in sinks],
            (stats.total_sent, stats.dropped, stats.bytes_sent, dict(stats.sent_by_type)),
            (network.queue_wait_count, network.queue_wait_total, network.queue_wait_max,
             network.link_busy_time),
        )

    multicast = deliveries(multicast=True)
    assert len(calls) == 1
    assert multicast == deliveries(multicast=False)
    assert len(calls) == 1 + 4
    assert multicast[1][:3] == (4, 1, 4 * wire_size(message))


# ----------------------------------------------------------------------
# FIFO queueing semantics on the link
# ----------------------------------------------------------------------

class _Sink(Process):
    """Records (time, message) pairs in delivery order."""

    def __init__(self, pid):
        super().__init__(pid)
        self.deliveries = []

    def deliver(self, message, src):
        self.deliveries.append((self.now, message))


class _Note:
    """A foreign message type that is not a dataclass (a bare payload string)."""

    def __init__(self, text):
        self.text = text


def _two_node_net(link=None):
    scheduler = Scheduler()
    network = Network(scheduler, seed=0, link=link)
    a, b = _Sink("a"), _Sink("b")
    network.register(a)
    network.register(b)
    return scheduler, network, a, b


def test_disabled_link_keeps_the_pure_delay_path():
    """No link model: messages are never sized, so ad-hoc types that are not
    dataclasses stay legal and the byte counters stay at zero."""
    scheduler, network, a, b = _two_node_net(link=None)
    network.send("a", "b", _Note("hello"))
    scheduler.run()
    assert [t for t, _ in b.deliveries] == [1.0]
    assert network.stats.bytes_sent == 0.0
    assert network.queue_wait_count == 0
    assert network.link_busy_time == 0.0
    assert collect_link_stats(network) is None
    assert NetworkSpec().enabled is False  # bandwidth=0 disables explicitly


def test_enabled_link_sizes_messages_and_rejects_foreign_types():
    scheduler, network, a, b = _two_node_net(link=NetworkSpec(bandwidth=100.0))
    with pytest.raises(TypeError, match="_Note has no wire size"):
        network.send("a", "b", _Note("hello"))


def test_queueing_matches_the_closed_form():
    """Two back-to-back sends on one channel: the second serializes only
    after the first finishes, and every statistic is exactly predictable."""
    link = NetworkSpec(bandwidth=100.0, overhead=0.5)
    scheduler, network, a, b = _two_node_net(link=link)
    m1 = core_messages.Prepare(txn="t1", payload=("k1",))
    m2 = core_messages.Prepare(txn="t2", payload=("k2",))
    ser1 = link.overhead + wire_size(m1) / link.bandwidth
    ser2 = link.overhead + wire_size(m2) / link.bandwidth
    network.send("a", "b", m1)
    network.send("a", "b", m2)
    scheduler.run()
    times = [t for t, _ in b.deliveries]
    assert times == pytest.approx([1.0 + ser1, 1.0 + ser1 + ser2])
    # FIFO: delivery order is send order.
    assert [m.txn for _, m in b.deliveries] == ["t1", "t2"]
    # m1 finds an idle channel (wait 0); m2 queues behind m1's serialization.
    wait = collect_link_stats(network).queue_wait
    assert wait.count == 2
    assert wait.mean == pytest.approx(ser1 / 2)
    assert wait.maximum == pytest.approx(ser1)
    assert network.link_busy_time == pytest.approx(ser1 + ser2)
    assert network.link_max_depth == 2
    assert network.stats.bytes_sent == pytest.approx(wire_size(m1) + wire_size(m2))
    assert network.stats.sent_by_type == {"Prepare": 2}


def test_queueing_is_per_directed_channel():
    """The reverse channel b->a is idle, so a message there sees no queue
    even while a->b is saturated."""
    link = NetworkSpec(bandwidth=10.0, overhead=0.0)
    scheduler, network, a, b = _two_node_net(link=link)
    message = core_messages.Prepare(txn="t", payload=("k",))
    for _ in range(4):
        network.send("a", "b", message)
    network.send("b", "a", message)
    scheduler.run()
    # a->b's four waits are 0, 1, 2 and 3 serializations; the lone
    # reverse-channel message never waited (queued behind a->b, it would
    # have waited 4 and moved the mean).
    ser = wire_size(message) / link.bandwidth
    wait = collect_link_stats(network).queue_wait
    assert wait.count == 5
    assert wait.mean == pytest.approx(6 * ser / 5)
    assert wait.maximum == pytest.approx(3 * ser)
    assert [t for t, _ in a.deliveries] == pytest.approx([1.0 + ser])


def test_serialization_only_adds_to_propagation():
    """With the link enabled, no delivery can land before the
    pure-propagation delivery time."""
    scheduler, network, a, b = _two_node_net(link=NetworkSpec(bandwidth=50.0, overhead=0.1))
    message = core_messages.Prepare(txn="t", payload=("k",))
    waits = _send_bursts(network, scheduler, b, [[message] * 6])
    assert all(t >= 1.0 for t, _ in b.deliveries)
    assert all(wait >= 0.0 for wait in waits)
    assert network.queue_wait_count == len(waits)
    assert network.queue_wait_max == max(waits)
    assert network.queue_wait_total == math.fsum(waits)


def _send_bursts(network, scheduler, sink, bursts):
    """Send each burst ``a -> sink`` at one virtual instant, run the
    scheduler dry after each, and return every message's queue wait,
    recomputed from the delivery times: a message waits from its arrival
    (send time plus the unit delay) until the channel's previous delivery."""
    waits, clock = [], 0.0
    for burst in bursts:
        arrival = scheduler.now + 1.0
        first = len(sink.deliveries)
        for message in burst:
            network.send("a", sink.pid, message)
        scheduler.run()
        for delivered_at, _ in sink.deliveries[first:]:
            waits.append(max(arrival, clock) - arrival)
            clock = delivered_at
    return waits


def _assert_link_sums(network, waits, serializations):
    """The network's link-queue aggregates equal the exact statistics of
    the per-message samples, bit for bit."""
    wait = collect_link_stats(network).queue_wait
    assert (wait.count, wait.maximum) == (len(waits), max(waits))
    assert wait.mean == statistics.fmean(waits)
    assert network.queue_wait_total == math.fsum(waits)
    assert network.link_busy_time == math.fsum(serializations)


# Mixed magnitudes: zeros, subnormals, tiny, unit-scale and huge values,
# all finite and non-negative (bounded so a run's sums stay finite).
_SIZES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e250),
)


@settings(max_examples=200, deadline=None)
@given(
    bursts=st.lists(st.lists(_SIZES, min_size=1, max_size=9), min_size=1, max_size=12),
    fold=st.integers(min_value=1, max_value=6),
)
def test_link_sums_fold_exactly_on_generated_samples(bursts, fold):
    """Whatever the samples and however often the buffers fold, the count,
    maximum, mean and sum equal ``len``, ``max``, ``statistics.fmean`` and
    ``math.fsum`` over every sample.  A message here is its own size, and a
    link of bandwidth 1 without overhead serializes it in exactly that
    time, so the serialization samples are the sizes themselves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "_FOLD", fold)
        patch.setattr(network_module, "wire_size", lambda size: size)
        scheduler, network, a, b = _two_node_net(link=NetworkSpec(bandwidth=1.0))
        waits = _send_bursts(network, scheduler, b, bursts)
    sizes = [size for burst in bursts for size in burst]
    _assert_link_sums(network, waits, sizes)


def test_link_sums_fold_exactly_over_several_buffers():
    """More than three buffer lengths of real sized sends on one network,
    in bursts that queue, so the fold runs at its shipped size."""
    link = NetworkSpec(bandwidth=50.0, overhead=0.1)
    scheduler, network, a, b = _two_node_net(link=link)
    messages = [
        core_messages.Prepare(txn=f"t{i}", payload=tuple(f"k{j}" for j in range(i % 5)))
        for i in range(7)
    ]
    bursts = [messages[: 1 + i % 7] for i in range(3 * _FOLD // 4 + 50)]
    waits = _send_bursts(network, scheduler, b, bursts)
    assert len(waits) > 3 * _FOLD
    serializations = [
        link.overhead + wire_size(message) / link.bandwidth
        for burst in bursts for message in burst
    ]
    _assert_link_sums(network, waits, serializations)


class _CountingSink(Process):
    """Counts deliveries and keeps nothing of them."""

    def __init__(self, pid):
        super().__init__(pid)
        self.count = 0

    def deliver(self, message, src):
        self.count += 1


def test_network_retained_bytes_do_not_grow_with_sized_sends():
    """The slope gate: the bytes ``runtime/network.py`` keeps allocated,
    by ``tracemalloc``, after 10N sized sends on a two-node link network
    minus those after N, per added send, is at most one byte.  N is two
    buffer lengths, and each send is delivered before the next."""
    scheduler = Scheduler()
    network = Network(scheduler, seed=0, link=NetworkSpec(bandwidth=100.0, overhead=0.5))
    network.register(_CountingSink("a"))
    network.register(_CountingSink("b"))
    message = core_messages.Prepare(txn="t", payload=("k",))
    n = 2 * _FOLD
    only_network = [tracemalloc.Filter(True, "*/repro/runtime/network.py")]

    def retained_after(sends):
        for _ in range(sends):
            network.send("a", "b", message)
            scheduler.run()
        snapshot = tracemalloc.take_snapshot().filter_traces(only_network)
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        at_n = retained_after(n)
        at_10n = retained_after(9 * n)
    finally:
        tracemalloc.stop()
    assert network.queue_wait_count == 10 * n
    assert (at_10n - at_n) / (9 * n) <= 1.0, (at_n, at_10n)


# ----------------------------------------------------------------------
# NetworkSpec: validation, description, CLI grammar
# ----------------------------------------------------------------------

def test_network_spec_validation():
    """The link model raises plain ValueError, as the network and the
    cluster see it; a scenario reports the same text as a ScenarioError."""
    NetworkSpec().validate()
    NetworkSpec(bandwidth=100.0, overhead=0.5).validate()
    with pytest.raises(ValueError, match="bandwidth must be >= 0"):
        NetworkSpec(bandwidth=-1.0).validate()
    with pytest.raises(ValueError, match="overhead must be >= 0"):
        NetworkSpec(overhead=-0.5, bandwidth=10.0).validate()
    with pytest.raises(ValueError, match="requires a positive bandwidth"):
        Network(Scheduler(), link=NetworkSpec(overhead=0.5))
    with pytest.raises(ScenarioError, match="requires a positive bandwidth"):
        get_scenario("steady-state").with_overrides(network=NetworkSpec(overhead=0.5))


def test_network_spec_describe():
    assert NetworkSpec().describe() == "off"
    assert NetworkSpec(bandwidth=100.0, overhead=0.5).describe() == "bw=100,ovh=0.5"
    assert "nopipe" in NetworkSpec(pipeline=False).describe()
    assert "sticky" in NetworkSpec(sticky=True).describe()


def test_parse_bandwidth_grammar():
    assert parse_bandwidth("off") == NetworkSpec()
    assert parse_bandwidth("500") == NetworkSpec(bandwidth=500.0)
    point = parse_bandwidth("500:overhead=0.2,pipeline=false,sticky=true")
    assert point == NetworkSpec(
        bandwidth=500.0, overhead=0.2, pipeline=False, sticky=True
    )
    with pytest.raises(ScenarioError):
        parse_bandwidth("fast")
    with pytest.raises(ScenarioError):
        parse_bandwidth("500:warp=9")
    assert BANDWIDTH.parse(["default"]) == BANDWIDTH.stock


def test_bandwidth_grid_sorts_off_first_then_descending_bandwidth():
    grid = (
        NetworkSpec(bandwidth=500.0),
        NetworkSpec(),
        NetworkSpec(bandwidth=8000.0),
        NetworkSpec(bandwidth=2000.0),
    )
    assert [p.bandwidth for p in BANDWIDTH.sort(grid)] == [
        0.0, 8000.0, 2000.0, 500.0,
    ]


def test_default_bandwidth_grid_is_canonical():
    assert BANDWIDTH.sort(BANDWIDTH.stock) == BANDWIDTH.stock


# ----------------------------------------------------------------------
# sticky routing
# ----------------------------------------------------------------------

def _router(sticky):
    view = {
        shard: Configuration(1, (f"member:{shard}:0", f"member:{shard}:1"), f"member:{shard}:0")
        for shard in ("shard-0", "shard-1")
    }
    return CoordinatorRouter(view, sticky=sticky)


def test_round_robin_router_rotates_by_default():
    router = _router(sticky=False)
    picks = {router.pick(["shard-0"]) for _ in range(4)}
    assert len(picks) > 1


def test_sticky_router_pins_per_shard_set():
    router = _router(sticky=True)
    first = router.pick(["shard-0"])
    assert all(router.pick(["shard-0"]) == first for _ in range(5))
    # Key is the sorted involved set, so permutations share a pin.
    both = router.pick(["shard-1", "shard-0"])
    assert router.pick(["shard-0", "shard-1"]) == both


def test_sticky_router_repins_on_failover_and_config_change():
    router = _router(sticky=True)
    first = router.pick(["shard-0"])
    failover = router.pick(["shard-0"], exclude=[first])
    assert failover != first
    assert router.pick(["shard-0"]) == failover  # the new pin sticks
    # A config change removing the pinned member drops the pin.
    shard = "shard-0" if "shard-0" in failover else "shard-1"
    remaining = tuple(p for p in router.view[shard].members if p != failover)
    router.note_config_change(
        shard, Configuration(2, remaining + ("member:new:0",), remaining[0])
    )
    assert failover not in router._pins.values()


def test_static_router_sticky_pins():
    router = BaselineCluster(num_coordinators=3, network=NetworkSpec(sticky=True)).router
    first = router.pick(["shard-0"])
    assert all(router.pick(["shard-0"]) == first for _ in range(5))
    other = router.pick(["shard-1"])
    assert router.pick(["shard-1"]) == other


# ----------------------------------------------------------------------
# end-to-end: scenarios, determinism, pipelining
# ----------------------------------------------------------------------

def _small(name, txns=40, **overrides):
    spec = get_scenario(name)
    return spec.with_overrides(workload=replace(spec.workload, txns=txns), **overrides)


def test_saturated_link_scenario_reports_real_queueing():
    result = ScenarioRunner(_small("saturated-link")).run()
    assert result.network_model == "bw=120,ovh=0.1"
    assert result.bytes_sent > 0
    assert result.link_queue_wait_max > 0
    assert result.link_busy_time > 0
    assert result.link_max_depth >= 2
    assert result.safety_ok


def test_default_network_leaves_results_byte_identical():
    """NetworkSpec() must be inert: a run with the default network equals a
    run of the identical spec from before the network model existed (same
    digest, same metrics, zero byte accounting)."""
    base = _small("steady-state")
    assert base.network == NetworkSpec()
    result = ScenarioRunner(base).run()
    assert result.network_model == "off"
    assert result.bytes_sent == 0.0
    assert result.link_max_depth == 0


def test_bandwidth_sweep_runs_and_throughput_degrades():
    spec = _small("bandwidth-knee", txns=60)
    sweep = run_axis_sweep(spec, BANDWIDTH)
    assert sweep.passed
    rows = sweep.curve()
    assert [row["network_model"] for row in rows] == [
        p.describe() for p in BANDWIDTH.stock
    ]
    by_network = {row["network_model"]: row for row in rows}
    # A constrained link can only slow things down.
    assert by_network["bw=500"]["throughput"] < by_network["off"]["throughput"]
    assert by_network["bw=500"]["link_queue_wait_max"] > 0


def test_non_pipelined_run_commits_everything_and_is_slower():
    """pipeline=False is the stop-and-wait measurement baseline: same
    transactions decided, strictly more virtual time under load."""
    fast = ScenarioRunner(_small("bandwidth-knee")).run()
    slow = ScenarioRunner(
        _small(
            "bandwidth-knee",
            network=replace(get_scenario("bandwidth-knee").network, pipeline=False),
        )
    ).run()
    assert slow.safety_ok
    assert slow.committed + slow.aborted == fast.committed + fast.aborted
    assert slow.duration > fast.duration


def test_sticky_affinity_is_safe_and_decides_everything():
    result = ScenarioRunner(
        _small(
            "bandwidth-knee",
            network=replace(get_scenario("bandwidth-knee").network, sticky=True),
        )
    ).run()
    assert result.safety_ok
    assert result.committed + result.aborted == 40
    assert result.committed > 0


def test_a_cas_success_reply_is_sized_without_a_configuration():
    """The reconfigurer holds the configuration it proposed, so the service
    answers a winning compare-and-swap with ``ok`` alone: a request id and a
    flag, not the configuration echoed back."""
    from repro.cluster import Cluster

    cluster = Cluster(num_shards=2, replicas_per_shard=2, seed=3)
    service = cluster.config_service
    replies = []
    send = service.send

    def recording(dst, message, weak=False):
        if type(message) is core_messages.CsReply:
            replies.append(message)
        send(dst, message, weak)

    service.send = recording
    cluster.crash_follower("shard-0")
    assert cluster.reconfigure("shard-0")
    cluster.run()
    assert service.cas_successes == 1
    (cas_reply,) = [r for r in replies if r.ok and r.request_id == 2]
    assert cas_reply == core_messages.CsReply(request_id=2, ok=True)
    # A header, the request id and the flag (an absent field costs nothing).
    assert wire_size(cas_reply) == HEADER_BYTES + 2 * SCALAR_BYTES == 36.0
    echoed = replace(cas_reply, config=service.last_configuration("shard-0"))
    assert wire_size(echoed) == 94.0
