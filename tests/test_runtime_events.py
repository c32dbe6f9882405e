"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.runtime.events import Scheduler


def test_schedule_and_run_fires_in_time_order():
    scheduler = Scheduler()
    fired = []
    scheduler.schedule(2.0, lambda: fired.append("b"))
    scheduler.schedule(1.0, lambda: fired.append("a"))
    scheduler.schedule(3.0, lambda: fired.append("c"))
    scheduler.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    scheduler = Scheduler()
    fired = []
    for name in ["first", "second", "third"]:
        scheduler.schedule(1.0, lambda n=name: fired.append(n))
    scheduler.run()
    assert fired == ["first", "second", "third"]


def test_now_advances_to_event_time():
    scheduler = Scheduler()
    times = []
    scheduler.schedule(5.0, lambda: times.append(scheduler.now))
    scheduler.run()
    assert times == [5.0]
    assert scheduler.now == 5.0


def test_negative_delay_rejected():
    scheduler = Scheduler()
    with pytest.raises(ValueError):
        scheduler.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    scheduler = Scheduler()
    scheduler.schedule(5.0, lambda: None)
    scheduler.run()
    with pytest.raises(ValueError):
        scheduler.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    scheduler = Scheduler()
    fired = []
    event = scheduler.schedule(1.0, lambda: fired.append("cancelled"))
    scheduler.schedule(2.0, lambda: fired.append("kept"))
    event.cancel()
    scheduler.run()
    assert fired == ["kept"]


def test_run_respects_max_time():
    scheduler = Scheduler()
    fired = []
    scheduler.schedule(1.0, lambda: fired.append(1))
    scheduler.schedule(10.0, lambda: fired.append(10))
    scheduler.run(max_time=5.0)
    assert fired == [1]
    # The late event is still pending and fires on the next unbounded run.
    scheduler.run()
    assert fired == [1, 10]


def test_run_respects_max_events():
    scheduler = Scheduler()
    fired = []
    for i in range(10):
        scheduler.schedule(float(i + 1), lambda i=i: fired.append(i))
    scheduler.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_can_schedule_more_events():
    scheduler = Scheduler()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            scheduler.schedule(1.0, chain, n + 1)

    scheduler.schedule(1.0, chain, 1)
    scheduler.run()
    assert fired == [1, 2, 3, 4, 5]
    assert scheduler.now == 5.0


def test_run_until_predicate():
    scheduler = Scheduler()
    fired = []
    for i in range(10):
        scheduler.schedule(float(i + 1), lambda i=i: fired.append(i))
    satisfied = scheduler.run_until(lambda: len(fired) >= 4)
    assert satisfied
    assert len(fired) == 4


def test_run_until_returns_false_when_exhausted():
    scheduler = Scheduler()
    scheduler.schedule(1.0, lambda: None)
    assert not scheduler.run_until(lambda: False)


def test_idle_and_pending():
    scheduler = Scheduler()
    assert scheduler.idle
    event = scheduler.schedule(1.0, lambda: None)
    assert not scheduler.idle
    assert scheduler.pending == 1
    event.cancel()
    assert scheduler.idle
    # Cancelled events no longer count as pending work.
    assert scheduler.pending == 0


def test_pending_tracks_live_events_only():
    scheduler = Scheduler()
    events = [scheduler.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert scheduler.pending == 10
    for event in events[:4]:
        event.cancel()
    assert scheduler.pending == 6
    scheduler.run(max_events=2)
    assert scheduler.pending == 4


def test_cancel_after_fire_does_not_corrupt_live_count():
    scheduler = Scheduler()
    fired = scheduler.schedule(1.0, lambda: None)
    keeper = scheduler.schedule(2.0, lambda: None)
    assert scheduler.step()
    # Cancelling an event that already fired must be a no-op.
    fired.cancel()
    assert scheduler.pending == 1
    assert not scheduler.idle
    scheduler.run()
    assert scheduler.pending == 0


def test_double_cancel_counts_once():
    scheduler = Scheduler()
    event = scheduler.schedule(1.0, lambda: None)
    other = scheduler.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert scheduler.pending == 1
    scheduler.run()
    assert scheduler.pending == 0


def test_heap_compaction_drops_cancelled_events():
    scheduler = Scheduler()
    keeper_fired = []
    keeper = scheduler.schedule(1000.0, lambda: keeper_fired.append(True))
    events = [scheduler.schedule(float(i + 1), lambda: None) for i in range(500)]
    for event in events:
        event.cancel()
    # Far more cancelled than live events: the heap must have been compacted.
    assert len(scheduler._queue) < 100
    assert scheduler.pending == 1
    scheduler.run()
    assert keeper_fired == [True]


def test_run_advances_now_to_max_time_when_queue_empty():
    scheduler = Scheduler()
    scheduler.run(max_time=42.0)
    assert scheduler.now == 42.0


# ----------------------------------------------------------------------
# the (time, seq, event) heap entry
# ----------------------------------------------------------------------

def test_heap_entries_are_ordered_by_their_keys_not_by_the_event():
    scheduler = Scheduler()
    event = scheduler.schedule(2.0, lambda: None)
    [(time, seq, queued)] = scheduler._queue
    assert (time, seq) == (2.0, event.seq) and queued is event
    # Events define no ordering: heapq decides on (time, seq) alone, in C.
    with pytest.raises(TypeError):
        event < event


def test_every_fired_event_counts_once():
    scheduler = Scheduler()
    fired = []
    for name in ["first", "second", "third"]:
        scheduler.schedule(1.0, fired.append, name)
    scheduler.schedule(0.5, fired.append, "earlier")
    scheduler.run()
    assert fired == ["earlier", "first", "second", "third"]
    assert scheduler.events_fired == 4


def test_cancel_is_idempotent_under_compaction():
    scheduler = Scheduler()
    keeper_fired = []
    scheduler.schedule(1000.0, keeper_fired.append, True)
    events = [scheduler.schedule(float(i + 1), lambda: None) for i in range(500)]
    for event in events:
        event.cancel()
        event.cancel()  # idempotent
    assert len(scheduler._queue) < 100
    assert scheduler.pending == 1
    scheduler.run()
    assert keeper_fired == [True]
    assert scheduler.pending == 0 and scheduler.idle


def test_step_skips_cancelled_heads():
    scheduler = Scheduler()
    first = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(3.0, lambda: None)
    assert scheduler.pending == 2
    first.cancel()
    assert scheduler.pending == 1
    assert scheduler.step()
    assert scheduler.now == 3.0
    assert scheduler.pending == 0
    assert not scheduler.step()


def test_weak_events_do_not_keep_the_scheduler_alive():
    scheduler = Scheduler()
    fired = []

    def tick():
        fired.append(scheduler.now)
        scheduler.schedule_weak(2.0, tick)

    scheduler.schedule_weak(2.0, tick)
    assert scheduler.run() == 0  # only weak work: immediately quiescent
    scheduler.schedule(5.0, lambda: None)
    scheduler.run()
    assert fired == [2.0, 4.0]
    # The re-armed weak tick stays queued but is no strong work.
    assert scheduler.pending == 1 and scheduler.run() == 0 and fired == [2.0, 4.0]
