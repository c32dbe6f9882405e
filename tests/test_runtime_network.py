"""Unit tests for the simulated network and the process/actor model."""

from dataclasses import dataclass

import pytest

from repro.runtime.events import Scheduler
from repro.runtime.network import LatencySpec, Network
from repro.runtime.process import Process, handler_name


@dataclass(frozen=True)
class Ping:
    value: int


@dataclass(frozen=True)
class Pong:
    value: int


class Echo(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_ping(self, msg, sender):
        self.received.append((msg.value, sender, self.now))
        self.send(sender, Pong(msg.value))

    def on_pong(self, msg, sender):
        self.received.append((msg.value, sender, self.now))


def build(latency=None, seed=0):
    scheduler = Scheduler()
    network = Network(scheduler, latency=latency, seed=seed)
    a, b = Echo("a"), Echo("b")
    network.register(a)
    network.register(b)
    return scheduler, network, a, b


def test_handler_name_derivation():
    assert handler_name(Ping(1)) == "on_ping"
    assert handler_name(Pong(1)) == "on_pong"


def test_unknown_message_raises_even_after_earlier_dispatches():
    scheduler, network, a, b = build()
    a.send("b", Ping(1))
    scheduler.run()

    @dataclass(frozen=True)
    class Mystery:
        pass

    for _ in range(2):  # the memoised handler *name* must not hide the miss
        with pytest.raises(NotImplementedError, match="Echo.b. has no handler for Mystery"):
            b.handle(Mystery(), "a")


def test_handler_patched_onto_an_instance_is_honoured_after_a_first_dispatch():
    """Dispatch memoises the handler name per message class, never the bound
    method: a later per-instance patch (or subclass override) still wins."""
    scheduler, network, a, b = build()
    a.send("b", Ping(1))
    scheduler.run()
    assert [value for value, _, _ in b.received] == [1]

    patched = []
    b.on_ping = lambda msg, sender: patched.append(msg.value)
    a.send("b", Ping(2))
    scheduler.run()
    assert patched == [2]
    assert [value for value, _, _ in b.received] == [1]

    class LoudEcho(Echo):
        def on_ping(self, msg, sender):
            self.received.append(("loud", msg.value))

    c = LoudEcho("c")
    network.register(c)
    a.send("c", Ping(3))
    scheduler.run()
    assert c.received == [("loud", 3)]


def test_message_round_trip_takes_two_delays():
    scheduler, network, a, b = build()
    a.send("b", Ping(7))
    scheduler.run()
    assert b.received == [(7, "a", 1.0)]
    assert a.received == [(7, "b", 2.0)]


def test_fifo_order_per_channel():
    latency = LatencySpec(model="uniform", low=0.1, high=2.0)
    scheduler, network, a, b = build(latency=latency, seed=42)
    for i in range(20):
        a.send("b", Ping(i))
    scheduler.run()
    values = [v for v, _, _ in b.received]
    assert values == list(range(20))


def test_fifo_delivery_times_monotone():
    latency = LatencySpec(model="uniform", low=0.1, high=2.0)
    scheduler, network, a, b = build(latency=latency, seed=7)
    for i in range(10):
        a.send("b", Ping(i))
    scheduler.run()
    times = [t for _, _, t in b.received]
    assert times == sorted(times)


def test_messages_to_crashed_process_are_dropped():
    scheduler, network, a, b = build()
    network.crash("b")
    a.send("b", Ping(1))
    scheduler.run()
    assert b.received == []
    assert network.stats.dropped == 1


def test_crashed_process_does_not_send():
    scheduler, network, a, b = build()
    network.crash("a")
    a.send("b", Ping(1))
    scheduler.run()
    assert b.received == []


def test_crash_mid_flight_drops_delivery():
    scheduler, network, a, b = build()
    a.send("b", Ping(1))
    network.scheduler.schedule(0.5, lambda: network.crash("b"))
    scheduler.run()
    assert b.received == []


def test_blocked_channel_drops_messages_one_direction():
    scheduler, network, a, b = build()
    network.block("a", "b")
    a.send("b", Ping(1))
    b.send("a", Ping(2))
    scheduler.run()
    assert b.received == []
    assert any(v == 2 for v, _, _ in a.received)


def test_partition_and_heal():
    scheduler, network, a, b = build()
    network.partition(["a"], ["b"])
    network.add_extra_delay("a", "b", 5.0)
    a.send("b", Ping(1))
    scheduler.run()
    assert b.received == []
    network.heal()  # lifts the block and the extra delay alike
    sent_at = scheduler.now
    a.send("b", Ping(2))
    scheduler.run()
    assert [v for v, _, _ in b.received] == [2]
    assert b.received[0][2] == sent_at + 1.0


def test_message_to_unknown_destination_is_counted_dropped():
    scheduler, network, a, b = build()
    a.send("nobody", Ping(1))
    scheduler.run()
    assert network.stats.dropped == 1


def test_channel_made_before_its_destination_registers_delivers_after():
    """A send to a pid not yet registered makes its link and is dropped;
    once the pid registers, the same link delivers, in FIFO order."""
    scheduler = Scheduler()
    network = Network(scheduler, latency=LatencySpec(model="uniform", low=0.1, high=2.0), seed=5)
    a = Echo("a")
    network.register(a)
    a.send("late", Ping(0))
    scheduler.run()
    assert network.stats.total_sent == 1
    assert network.stats.dropped == 1
    late = Echo("late")
    network.register(late)
    for i in range(1, 11):
        a.send("late", Ping(i))
    scheduler.run()
    assert [v for v, _, _ in late.received] == list(range(1, 11))
    assert network.stats.sent_by_process_and_type[("a", "Ping")] == 11
    assert network.stats.received_by_process["late"] == 10
    assert network.stats.dropped == 1


def test_duplicate_registration_rejected():
    scheduler = Scheduler()
    network = Network(scheduler)
    network.register(Echo("a"))
    with pytest.raises(ValueError):
        network.register(Echo("a"))


def test_stats_count_sends_and_deliveries_by_type_and_process():
    scheduler, network, a, b = build()
    a.send("b", Ping(1))
    scheduler.run()
    stats = network.stats
    assert stats.sent_by_process["a"] == 1
    assert stats.sent_by_process["b"] == 1  # the Pong reply
    assert stats.sent_by_type["Ping"] == 1
    assert stats.sent_by_type["Pong"] == 1
    assert stats.received_by_process["b"] == 1
    assert stats.handled_by("a") == 2
    assert stats.handled_by("a") == stats.sent_by_process["a"] + stats.received_by_process["a"]
    assert stats.handled_by("nobody") == 0
    assert stats.total_sent == 2
    assert stats.total_delivered == 2
    # The views are snapshots: changing one changes nothing in the stats.
    stats.sent_by_process["a"] += 5
    assert stats.sent_by_process["a"] == 1


def test_unhandled_message_type_raises():
    @dataclass(frozen=True)
    class Mystery:
        pass

    scheduler, network, a, b = build()
    a.send("b", Mystery())
    with pytest.raises(NotImplementedError):
        scheduler.run()


def test_timers_suppressed_after_crash():
    scheduler, network, a, b = build()
    fired = []
    a.set_timer(1.0, lambda: fired.append("x"))
    a.crash()
    scheduler.run()
    assert fired == []


def test_uniform_latency_bounds_respected():
    latency = LatencySpec(model="uniform", low=0.5, high=1.5)
    scheduler, network, a, b = build(latency=latency, seed=3)
    a.send("b", Ping(1))
    scheduler.run()
    assert 0.5 <= b.received[0][2] <= 1.5


def test_uniform_latency_validation():
    """The network validates its delay model when it binds it."""
    with pytest.raises(ValueError, match="low <= high"):
        Network(Scheduler(), latency=LatencySpec(model="uniform", low=2.0, high=1.0))
    with pytest.raises(ValueError, match="non-negative"):
        Network(Scheduler(), latency=LatencySpec(model="uniform", low=-1.0, high=1.0))


