"""Multi-core simulation: process fan-out and conservative parallel DES.

Two independent tiers, matching the two ways the workload is parallel:

**Tier A — :class:`ParallelExecutor`.**  Whole simulation runs (sweep grid
points, scenario packs, benchmark repetitions) are embarrassingly parallel:
each is a pure function of its spec.  The executor fans tasks out over a
spawn-based process pool and returns results in *input* order (never
completion order), so merged output is deterministic and diffable.  Worker
failures surface as :class:`WorkerError` carrying the child's formatted
traceback instead of a hang or an opaque ``BrokenProcessPool``.

**Tier B — :class:`GroupedScheduler`.**  Within one run, replicas partition
into weakly-coupled shard groups.  Each group owns a private event heap; a
controller advances all groups window by window, where a window is
``[T, T + lookahead)`` with ``T`` the global minimum event time and the
lookahead the minimum cross-group network delay (the classic conservative
time-barrier design; see the ``ClusterScheduler`` controller-loop exemplar
in SNIPPETS.md: independent clusters advance, the controller blocks the
fastest until the laggards catch up).  No message sent inside a window can
cross a group boundary inside it, so groups cannot affect each other until
the next barrier, and each group's window slice can be processed
independently of the others.

Byte-identical replay — the order-tag design.  The serial engine fires
events in ``(time, seq)`` order, where the integer ``seq`` records creation
order.  A grouped run fires events in a different *wall* order (group by
group within each window), so integer creation counters would diverge.
Instead, every grouped event gets an *order tag* in the ``seq`` slot — a
nested tuple encoding its creation lineage:

* a callback scheduled from driver context before anything fired (fault
  arming, workload priming) gets ``(0, j)`` with ``j`` the call counter;
* the ``k``-th effect of firing event ``E`` gets
  ``(1, (E.time, E.seq), k)``;
* a driver-context call after a mid-run stop continues the effect run of
  the last fired event (that is exactly the serial creation point:
  ``run_until`` stops at the satisfying event, so serially everything up
  to it has fired and nothing after it has).

Lexicographic order on ``(time, tag)`` then *equals* serial ``(time, seq)``
order by induction on lineage depth: events fire in creation order at each
instant, and effects order by (creator firing order, per-creator counter) —
the nested creator tag compares recursively before the counter can.  Each
per-group heap therefore pops its events in exactly the serial engine's
per-group order, whatever order groups execute in, and the recorded
history is byte-identical.  There is no barrier merge bookkeeping at all:
cross-group effects are inserted into the destination heap at creation,
correctly tagged — the lookahead windows only ensure no group has already
advanced past an effect another group may still send it.

Only deterministic latency models qualify: a random model would consume the
shared network RNG in per-group execution order and diverge from the serial
draw order.  :meth:`GroupedScheduler.install` enforces both that and a
strictly positive lookahead.
"""

from __future__ import annotations

import heapq
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.events import Event, Scheduler


# ----------------------------------------------------------------------
# Tier A: multiprocess run executor
# ----------------------------------------------------------------------

def derive_seed(seed: int, index: int) -> int:
    """A per-task seed for repetition ``index`` of a base ``seed``.

    Deterministic, collision-scattered (golden-ratio increment), and stable
    across platforms — repetition 3 gets the same seed whether it runs
    inline, in a pool of 2, or in a pool of 16.
    """
    if index < 0:
        raise ValueError("repetition index must be >= 0")
    return (seed + 0x9E3779B1 * (index + 1)) & 0x7FFF_FFFF


class WorkerError(RuntimeError):
    """A task raised in a worker process.

    The message embeds the child's formatted traceback, so the failure
    reads like a local one instead of a bare ``BrokenProcessPool``.
    """

    def __init__(self, index: int, child_traceback: str) -> None:
        self.index = index
        self.child_traceback = child_traceback
        super().__init__(
            f"parallel task #{index} failed in worker; child traceback:\n"
            f"{child_traceback}"
        )


def _guarded_call(fn: Callable[[Any], Any], item: Any) -> Tuple[bool, Any]:
    """Run one task in the worker; never let an exception cross the pickle
    boundary raw (tracebacks do not survive pickling)."""
    try:
        return True, fn(item)
    except BaseException:
        return False, traceback.format_exc()


def resolve_jobs(jobs: int) -> int:
    """``jobs=0`` means one worker per core; otherwise the value itself."""
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per core)")
    return jobs or (os.cpu_count() or 1)


class ParallelExecutor:
    """A spawn-safe process pool with deterministic result ordering.

    ``map(fn, items)`` runs ``fn`` over ``items`` on ``jobs`` workers and
    returns results in item order.  ``fn`` and every item/result must be
    picklable top-level objects (the pool uses the spawn start method, the
    only one that is fork-safe under threads and identical across
    platforms; the parent's ``sys.path`` propagates to children, so
    ``PYTHONPATH=src`` invocations keep working).  With ``jobs == 1`` tasks
    run inline in this process — no pool, no pickling, exceptions propagate
    natively — which is also the reference ordering the parallel path must
    reproduce.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = resolve_jobs(jobs)

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        items = list(items)
        if not items:
            return []
        if self.jobs == 1 or len(items) == 1:
            return [fn(item) for item in items]
        workers = min(self.jobs, len(items))
        context = get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_guarded_call, fn, item) for item in items]
            results: List[Any] = []
            for index, future in enumerate(futures):
                ok, value = future.result()
                if not ok:
                    for pending in futures[index + 1:]:
                        pending.cancel()
                    raise WorkerError(index, value)
                results.append(value)
        return results


# ----------------------------------------------------------------------
# Tier B: conservative parallel-DES shard groups
# ----------------------------------------------------------------------

#: Routing sentinel for the control scheduler (fault schedule and other
#: driver-context timers).
CONTROL_GROUP = -1


def partition_contiguous(items: Sequence[Any], groups: int) -> Dict[Any, int]:
    """Assign ``items`` to ``groups`` contiguous, balanced blocks.

    ``partition_contiguous(shards, 2)`` keeps shard neighbourhoods intact,
    which matters because intra-shard traffic (leader <-> followers) is the
    dense part of the communication graph and should stay intra-group.
    """
    if groups < 1:
        raise ValueError("need at least one group")
    if groups > len(items):
        raise ValueError(
            f"cannot partition {len(items)} item(s) into {groups} groups"
        )
    return {
        item: index * groups // len(items)
        for index, item in enumerate(items)
    }


class LookaheadViolation(RuntimeError):
    """A cross-group delivery landed inside the current lookahead window:
    the engine's assumption (every cross-group delay is at least the
    lookahead) does not hold, and the run can no longer replay the serial
    order."""


class _GroupScheduler(Scheduler):
    """One group's private event heap inside a :class:`GroupedScheduler`.

    Identical to the serial scheduler except that firing an event publishes
    it as the engine's execution context (the source of effect order tags)
    and keeps the engine's global clock in sync.
    """

    def __init__(self, engine: "GroupedScheduler", index: int) -> None:
        super().__init__()
        self._engine = engine
        self._index = index

    def step(self) -> bool:
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
            if event.cancelled:
                continue
            self._live -= 1
            if event.weak:
                self._live_weak -= 1
            event.scheduler = None
            self._now = event.time
            self.events_fired += event.weight
            engine = self._engine
            engine._executing = (self._index, event)
            engine._effect_counter = 0
            try:
                event.fn(*event.args)
            finally:
                engine._executing = None
                engine._last_fired = event
                if event.time > engine._now:
                    engine._now = event.time
            return True
        return False


class GroupedScheduler:
    """The conservative parallel-DES engine (drop-in for :class:`Scheduler`).

    Drives ``num_groups`` group schedulers plus a control scheduler (the
    armed fault schedule) through lookahead windows; see the module
    docstring for the design and the order-tag serial-equivalence argument.
    The public surface mirrors :class:`Scheduler` — ``now`` / ``schedule``
    / ``schedule_at`` / ``call_at_instant_end`` / ``run`` / ``run_until``
    / ``step`` / ``pending`` / ``idle`` / ``events_fired`` — so clusters,
    runners and drivers work unchanged on either engine.
    """

    def __init__(self, num_groups: int) -> None:
        if num_groups < 2:
            raise ValueError("grouped execution needs at least two groups")
        self.num_groups = num_groups
        self._control = _GroupScheduler(self, CONTROL_GROUP)
        self._groups: List[_GroupScheduler] = [
            _GroupScheduler(self, index) for index in range(num_groups)
        ]
        self._now = 0.0
        self._lookahead = 0.0
        self._installed = False
        # (group index, firing event) while an event executes, else None —
        # the lineage context new order tags derive from.
        self._executing: Optional[Tuple[int, Event]] = None
        self._effect_counter = 0
        # The most recently fired event: driver-context effects continue
        # its effect run (the effect counter is deliberately not reset
        # between the event and those calls), because that is where the
        # serial engine's creation point sits — after every event fired so
        # far, before every event still to fire.
        self._last_fired: Optional[Event] = None
        self._driver_counter = 0
        # Current window: [start, end, slot] with slot in CONTROL_GROUP..G-1,
        # or None between windows.
        self._window: Optional[List] = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, network, group_of: Dict[str, int]) -> None:
        """Bind the engine to a built network and process partition.

        Validates the two eligibility rules (deterministic latency model,
        strictly positive cross-group lookahead), derives the lookahead
        bound, and routes the network's deliveries through the engine.
        """
        if self._installed:
            raise RuntimeError("grouped scheduler is already installed")
        if not getattr(network.latency, "deterministic", False):
            raise ValueError(
                "parallel-shards requires a deterministic latency model "
                "(unit, fixed or regions without jitter): random per-message "
                "draws would leave the serial RNG order"
            )
        unknown = set(group_of.values()) - set(range(self.num_groups))
        if unknown:
            raise ValueError(f"partition names unknown groups: {sorted(unknown)}")
        lookahead = network.min_cross_group_delay(group_of)
        if lookahead <= 0.0:
            raise ValueError(
                "parallel-shards requires a strictly positive minimum "
                "cross-group delay (the lookahead window would be empty)"
            )
        self._lookahead = lookahead
        network.install_groups(group_of)
        self._installed = True

    @property
    def lookahead(self) -> float:
        return self._lookahead

    # ------------------------------------------------------------------
    # Scheduler surface: time and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._executing is not None:
            index, _ = self._executing
            sub = self._control if index == CONTROL_GROUP else self._groups[index]
            return sub.now
        return self._now

    @property
    def pending(self) -> int:
        return self._control.pending + sum(g.pending for g in self._groups)

    @property
    def strong_pending(self) -> int:
        return self._control.strong_pending + sum(
            g.strong_pending for g in self._groups
        )

    @property
    def _weak_pending(self) -> int:
        # Checked before every event by `run`/`run_until`: one pass over
        # the groups' own counters, not `pending - strong_pending`.
        weak = self._control._live_weak
        for group in self._groups:
            weak += group._live_weak
        return weak

    @property
    def idle(self) -> bool:
        return self.pending == 0

    @property
    def events_fired(self) -> int:
        return self._control.events_fired + sum(g.events_fired for g in self._groups)

    # ------------------------------------------------------------------
    # order tags
    # ------------------------------------------------------------------
    def _next_tag(self) -> Tuple:
        """The order tag for the event being created right now.

        See the module docstring: ``(0, j)`` for pre-run driver calls,
        ``(1, (creator.time, creator.tag), k)`` for effects of a fired
        event — with driver calls after a stop continuing the last fired
        event's effect run.
        """
        if self._executing is not None:
            _, parent = self._executing
        else:
            parent = self._last_fired
        if parent is None:
            tag = (0, self._driver_counter)
            self._driver_counter += 1
            return tag
        tag = (1, (parent.time, parent.seq), self._effect_counter)
        self._effect_counter += 1
        return tag

    # ------------------------------------------------------------------
    # Scheduler surface: scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a local timer (or a driver-context callback).

        Timers set while a group event executes belong to that event's
        group (process state is group-local); driver- and control-context
        timers go to the control scheduler, which only fires at window
        starts — fault injections mutate cross-group state in place, so
        they must execute when every group has caught up to their time.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        if self._executing is not None and self._executing[0] != CONTROL_GROUP:
            target = self._groups[self._executing[0]]
        else:
            target = self._control
        return self._insert(target, time, fn, args, 1)

    def schedule_weak(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule a weak (background) event; see the serial engine.

        The stop-on-weak-only decision depends only on the global count of
        pending strong events — a pure function of the set of events fired
        so far, which the grouped engine replays exactly — so both engines
        stop at equivalent points and fire the same total event set.
        """
        event = self.schedule(delay, fn, *args)
        event.weak = True
        sub = event.scheduler
        assert isinstance(sub, _GroupScheduler)
        sub._live_weak += 1
        return event

    def call_at_instant_end(self, fn: Callable[..., Any], *args: Any) -> Event:
        return self.schedule(0.0, fn, *args)

    def schedule_delivery(
        self,
        time: float,
        group: int,
        fn: Callable[..., Any],
        *args: Any,
        weight: int = 1,
        weak: bool = False,
    ) -> Event:
        """Schedule a network delivery owned by destination ``group``.

        The network routes every delivery through here once installed.
        Cross-group deliveries land at or beyond the current window's end
        (the lookahead bound), so inserting them immediately is safe: the
        destination group cannot have advanced past them.  ``weak`` marks
        background traffic (heartbeats) that must not keep the run alive.
        """
        if self._executing is not None and self._window is not None:
            sender = self._executing[0]
            if sender != CONTROL_GROUP and sender != group and time < self._window[1]:
                # The conservative-parallel correctness invariant: a delivery
                # crossing group boundaries may never land inside the current
                # window, or the destination group could already have fired
                # past it.  Queueing and serialization delays only ever ADD
                # to propagation, so an enabled LinkSpec cannot break this.
                raise LookaheadViolation(
                    f"cross-group delivery at t={time} lands before the "
                    f"lookahead bound t={self._window[1]} "
                    f"(window start {self._window[0]}, sender group {sender}, "
                    f"destination group {group})"
                )
        return self._insert(self._groups[group], time, fn, args, weight, weak)

    def _insert(
        self,
        target: _GroupScheduler,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        weight: int,
        weak: bool = False,
    ) -> Event:
        tag = self._next_tag()
        event = Event(time, tag, fn, args, False, target, weight, weak)
        heapq.heappush(target._queue, (time, tag, event))
        target._live += 1
        if weak:
            target._live_weak += 1
        return event

    # ------------------------------------------------------------------
    # the controller loop
    # ------------------------------------------------------------------
    def _global_min(self) -> Optional[float]:
        times = [t for t in (
            self._control.peek_time(),
            *[group.peek_time() for group in self._groups],
        ) if t is not None]
        return min(times) if times else None

    def _position(self) -> Optional[Tuple[_GroupScheduler, float]]:
        """Advance the cursor to the next fireable event without firing it.

        Idempotent: calling it repeatedly (peeks, budget checks) returns
        the same event until :meth:`step` fires it.  Window transitions
        happen here; within a window, groups run in slot order (control
        first, then group 0..G-1), each draining its events strictly below
        the window end.
        """
        while True:
            if self._window is None:
                start = self._global_min()
                if start is None:
                    return None
                self._window = [start, start + self._lookahead, CONTROL_GROUP]
            start, end, slot = self._window
            # A control event strictly inside the window closes it early:
            # control fires only at window starts (fault injections mutate
            # cross-group state in place), so the event becomes the next
            # window's start instead.
            control_at = self._control.peek_time()
            if control_at is not None and start < control_at < end:
                end = control_at
                self._window[1] = end
            while slot < self.num_groups:
                if slot == CONTROL_GROUP:
                    if control_at is not None and control_at < end:
                        return self._control, control_at
                else:
                    group = self._groups[slot]
                    at = group.peek_time()
                    if at is not None and at < end:
                        self._window[2] = slot
                        return group, at
                slot += 1
                self._window[2] = slot
            self._window = None

    def step(self) -> bool:
        """Fire the next event in grouped order; False when fully drained."""
        position = self._position()
        if position is None:
            return False
        sub, _ = position
        return sub.step()

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next event :meth:`step` would fire."""
        position = self._position()
        return position[1] if position is not None else None

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until drained / ``max_time`` / ``max_events`` (serial parity)."""
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            if self._weak_pending and self.strong_pending == 0:
                # Quiescent modulo background (weak) events; serial parity.
                break
            head = self.peek_time()
            if head is None:
                break
            if max_time is not None and head > max_time:
                break
            if not self.step():
                break
            fired += 1
        if max_time is not None and self._now < max_time and self.peek_time() is None:
            self._now = max_time
        return fired

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_time: Optional[float] = None,
        max_events: int = 1_000_000,
        check_interval: int = 1,
    ) -> bool:
        """Run until ``predicate()`` holds (same contract as the serial
        engine, including stopping *exactly* at the satisfying event — the
        grouped cursor freezes mid-window and resumes on the next call).

        One caveat: at the stopping point the *set* of already-fired events
        can differ from the serial engine's (a window executes group by
        group, the serial engine interleaves groups by time), so counters
        such as ``events_fired`` agree only once the schedule drains.  The
        observable protocol state — the recorded history, every process's
        view — is nevertheless identical: the events the serial engine
        would have fired by now and this engine has not (or vice versa)
        are exactly the ones with no causal path to the satisfying event.
        """
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        fired = 0
        while not predicate():
            for _ in range(check_interval):
                if self._weak_pending and self.strong_pending == 0:
                    return predicate()
                if max_time is not None:
                    head = self.peek_time()
                    if head is not None and head > max_time:
                        return False
                if fired >= max_events:
                    return False
                if not self.step():
                    return predicate()
                fired += 1
        return True
