"""Deterministic discrete-event scheduler.

All protocol code runs on virtual time managed by :class:`Scheduler`.
Events scheduled for the same virtual time fire in the order they were
scheduled, which, combined with seeded randomness in the latency models,
makes every simulation run fully reproducible.  So a zero-delay event fires
behind every event already queued for the current instant: the batching
layer's adaptive flush (:mod:`repro.core.batching`) is one.

The scheduler is the innermost loop of every simulation, so its operations
are kept O(log n) or better: a live-event counter makes :attr:`idle` and
:attr:`pending` O(1) (no queue scans), and cancelled events are compacted
away lazily once they dominate the heap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


# Compact the heap only when it is mostly garbage and large enough for the
# rebuild to pay for itself.
_COMPACT_MIN_CANCELLED = 64


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback.

    Events fire in ``(time, seq)`` order; ``seq`` is a monotonically
    increasing counter so that ties in virtual time are broken by
    scheduling order.  The heap holds ``(time, seq, event)`` entries, so
    ``heapq`` orders them by comparing the two leading keys in C and never
    compares events themselves (``seq`` is unique per heap).
    """

    time: float
    seq: int
    fn: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False
    scheduler: Optional["Scheduler"] = field(default=None, repr=False)
    # Weak events never keep the simulation alive: `run`/`run_until` stop
    # once only weak events remain queued.  Background periodic activity
    # (heartbeat ticks) is scheduled weak so a recurring timer cannot turn
    # run-to-quiescence into an infinite loop.
    weak: bool = False

    def cancel(self) -> None:
        """Prevent the event from firing when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self.scheduler is not None:
                self.scheduler._note_cancelled(self)


class Scheduler:
    """A virtual-time event loop.

    The scheduler is the only source of time in the simulation.  Processes
    never block; they schedule callbacks (message deliveries, timers) and
    the scheduler fires them in timestamp order.
    """

    def __init__(self) -> None:
        self._queue: list[tuple] = []  # (time, seq, event) heap entries
        self._seq = 0
        self._now = 0.0
        self._live = 0  # queued events that are not cancelled
        self._live_weak = 0  # live events that are weak (background ticks)
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: {time} < {self._now}")
        # Creation order breaks ties in virtual time.
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, False, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def schedule_weak(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a *weak* (background) event ``delay`` units from now.

        Weak events fire like any other while strong work is pending, but
        they do not count towards quiescence: ``run``/``run_until`` stop as
        soon as only weak events remain, leaving them queued.  They resume
        if strong work returns (queued weak events always sit at or beyond
        the current time, so time never rewinds).  A weak event that
        re-schedules itself weakly is the deterministic recurring-timer
        idiom — e.g. heartbeat ticks.
        """
        return self.schedule_weak_at(self._now + delay, fn, *args)

    def schedule_weak_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Absolute-time variant of :meth:`schedule_weak` (the form network
        deliveries use): background *traffic* — heartbeats in flight — must
        be weak like the ticks that emit it, or a link slower than the
        heartbeat interval keeps one delivery permanently pending and the
        pump can never go quiescent."""
        event = self.schedule_at(time, fn, *args)
        event.weak = True
        self._live_weak += 1
        return event

    def _note_cancelled(self, event: Event) -> None:
        """Called by :meth:`Event.cancel`; keeps the live counts exact and
        compacts the heap once cancelled entries dominate it."""
        self._live -= 1
        if event.weak:
            self._live_weak -= 1
        cancelled = len(self._queue) - self._live
        if cancelled >= _COMPACT_MIN_CANCELLED and cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        self._queue = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)

    @property
    def pending(self) -> int:
        """Number of live (not cancelled) events still queued."""
        return self._live

    @property
    def idle(self) -> bool:
        """True when no live events remain."""
        return self._live == 0

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
            if event.cancelled:
                continue
            self._live -= 1
            if event.weak:
                self._live_weak -= 1
            # Detach so a later cancel() of the fired event (a common
            # defensive pattern for timeout timers) cannot double-decrement
            # the live counter.
            event.scheduler = None
            self._now = event.time
            self.events_fired += 1
            event.fn(*event.args)
            return True
        return False

    def _next_live(self) -> Optional[Event]:
        """The next event that will fire, discarding cancelled heap heads."""
        queue = self._queue
        while queue:
            event = queue[0][2]
            if not event.cancelled:
                return event
            heapq.heappop(queue)
        return None

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the queue drains, ``max_time`` passes or ``max_events`` fire.

        Returns the number of events fired by this call.
        """
        fired = 0
        while True:
            if self._live_weak and self._live == self._live_weak:
                # Only weak (background) events remain: the simulation is
                # quiescent.  Leave them queued — they resume if strong
                # work returns.
                break
            event = self._next_live()
            if event is None:
                break
            if max_time is not None and event.time > max_time:
                break
            if max_events is not None and fired >= max_events:
                break
            if self.step():
                fired += 1
        if max_time is not None and self._now < max_time and not self._queue:
            # Advance time to the requested horizon even if we ran dry, so
            # that callers can reason about elapsed virtual time.
            self._now = max_time
        return fired

    def run_until(self, predicate: Callable[[], bool], max_events: int = 1_000_000) -> bool:
        """Run until ``predicate()`` becomes true; it is checked before
        every event, so the run stops exactly at the satisfying event.

        Returns True if the predicate was satisfied, False if the simulation
        ran out of events or budget first.
        """
        fired = 0
        while not predicate():
            if self._live_weak and self._live == self._live_weak:
                # Quiescent modulo background (weak) events.
                return predicate()
            if fired >= max_events:
                return False
            if not self.step():
                return predicate()
            fired += 1
        return True
