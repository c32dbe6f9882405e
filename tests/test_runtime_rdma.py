"""Unit tests for the simulated RDMA primitive (Section 5 interface)."""

from dataclasses import dataclass

from repro.runtime.events import Scheduler
from repro.runtime.network import Network
from repro.runtime.process import Process
from repro.runtime.rdma import RdmaManager


@dataclass(frozen=True)
class Note:
    text: str


class Node(Process):
    def __init__(self, pid):
        super().__init__(pid)
        RdmaManager.install(self)
        self.delivered = []
        self.acked = []

    def on_note(self, msg, sender):
        self.delivered.append((msg.text, sender, self.now))

    def write(self, dst, text):
        self.rdma.send(dst, Note(text), on_ack=lambda m, d: self.acked.append((m.text, d, self.now)))


def build():
    scheduler = Scheduler()
    network = Network(scheduler)
    a, b = Node("a"), Node("b")
    network.register(a)
    network.register(b)
    return scheduler, a, b


def test_write_requires_open_connection():
    scheduler, a, b = build()
    a.write("b", "hello")
    scheduler.run()
    assert b.delivered == []
    assert a.acked == []
    assert b.rdma.writes_rejected_remotely == 1


def test_write_delivered_and_acked_when_open():
    scheduler, a, b = build()
    b.rdma.open("a")
    a.write("b", "hello")
    scheduler.run()
    assert [(t, s) for t, s, _ in b.delivered] == [("hello", "a")]
    assert [(t, d) for t, d, _ in a.acked] == [("hello", "b")]


def test_ack_takes_one_round_trip_without_receiver_cpu():
    scheduler, a, b = build()
    b.rdma.open("a")
    a.write("b", "x")
    scheduler.run()
    # Write lands at t=1, NIC ack arrives back at t=2.
    assert a.acked[0][2] == 2.0


def test_close_revokes_access():
    scheduler, a, b = build()
    b.rdma.open("a")
    a.write("b", "first")
    scheduler.run()
    b.rdma.close("a")
    a.write("b", "second")
    scheduler.run()
    assert [t for t, _, _ in b.delivered] == ["first"]
    assert [t for t, _, _ in a.acked] == ["first"]


def test_multiclose_revokes_all():
    scheduler, a, b = build()
    b.rdma.open("a")
    b.rdma.multiclose(b.rdma.connections)
    a.write("b", "x")
    scheduler.run()
    assert b.delivered == []


def test_connections_property_tracks_open_peers():
    scheduler, a, b = build()
    assert b.rdma.connections == set()
    b.rdma.open("a")
    assert b.rdma.connections == {"a"}
    b.rdma.close("a")
    assert b.rdma.connections == set()


def test_acked_write_survives_sender_crash():
    """The key guarantee of ack-rdma: once acked, the receiver will deliver
    the message even if the sender crashes."""
    scheduler, a, b = build()
    b.rdma.poll_delay = 5.0  # the application polls late
    b.rdma.open("a")
    a.write("b", "durable")
    scheduler.run(max_time=2.5)  # write landed and was acked
    assert a.acked
    a.crash()
    scheduler.run()
    assert [t for t, _, _ in b.delivered] == ["durable"]


def test_flush_delivers_pending_acked_messages_immediately():
    scheduler, a, b = build()
    b.rdma.poll_delay = 100.0
    b.rdma.open("a")
    a.write("b", "m1")
    a.write("b", "m2")
    scheduler.run(max_time=3.0)
    assert b.delivered == []  # acked but not yet polled
    b.rdma.flush()
    assert [t for t, _, _ in b.delivered] == ["m1", "m2"]
    # The late poll events must not deliver duplicates.
    scheduler.run()
    assert len(b.delivered) == 2


def test_bounded_buffer_rejects_overflow():
    scheduler, a, b = build()
    b.rdma.buffer_capacity = 2
    b.rdma.poll_delay = 100.0
    b.rdma.open("a")
    for i in range(4):
        a.write("b", f"m{i}")
    scheduler.run(max_time=5.0)
    assert len(a.acked) == 2
    assert b.rdma.writes_rejected_remotely == 2


def test_polled_writes_leave_the_buffer():
    """A poll releases the write it delivers, so the buffer's capacity bounds
    the writes not yet polled, not every write ever received: ten spaced
    writes through a two-entry buffer are all delivered and acked."""
    scheduler, a, b = build()
    b.rdma.buffer_capacity = 2
    b.rdma.poll_delay = 0.0
    b.rdma.open("a")
    for i in range(10):
        a.write("b", f"m{i}")
        scheduler.run()
        assert not b.rdma.buffers["a"]
    assert [t for t, _, _ in b.delivered] == [f"m{i}" for i in range(10)]
    assert len(a.acked) == 10
    assert b.rdma.writes_rejected_remotely == 0


def test_a_poll_releases_only_the_delivered_head():
    """Writes are released in order: a polled write stays buffered behind
    an earlier one that has not been polled yet."""
    scheduler, a, b = build()
    b.rdma.poll_delay = 5.0
    b.rdma.open("a")
    a.write("b", "early")
    scheduler.run(max_time=1.5)  # "early" landed; its poll is due at 6
    b.rdma.poll_delay = 0.0
    a.write("b", "late")
    scheduler.run(max_time=3.0)  # "late" landed and was polled at once
    assert [t for t, _, _ in b.delivered] == ["late"]
    assert [p.payload.text for p in b.rdma.buffers["a"]] == ["early", "late"]
    scheduler.run()
    assert [t for t, _, _ in b.delivered] == ["late", "early"]
    assert not b.rdma.buffers["a"]


def test_crashed_receiver_never_acks():
    scheduler, a, b = build()
    b.rdma.open("a")
    b.crash()
    a.write("b", "x")
    scheduler.run()
    assert a.acked == []
    assert b.delivered == []


def test_writes_to_distinct_receivers_tracked_independently():
    scheduler = Scheduler()
    network = Network(scheduler)
    a, b, c = Node("a"), Node("b"), Node("c")
    for node in (a, b, c):
        network.register(node)
    b.rdma.open("a")
    c.rdma.open("a")
    a.write("b", "to-b")
    a.write("c", "to-c")
    scheduler.run()
    assert [t for t, _, _ in b.delivered] == ["to-b"]
    assert [t for t, _, _ in c.delivered] == ["to-c"]
    assert sorted(d for _, d, _ in a.acked) == ["b", "c"]
