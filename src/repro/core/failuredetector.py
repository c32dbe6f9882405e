"""Heartbeat-based failure detection driving unsolicited view changes.

The paper assumes an external membership oracle that notices failures and
drives reconfiguration; until now the reproduction approximated it with
client-side retry timeouts (a failover burns a full retry window, and a
slow-but-alive leader is invisible).  This module supplies the oracle:

* every live replica sends a ``HEARTBEAT`` to its co-members once per
  ``interval`` (driven by one cluster-level :class:`HeartbeatPump` tick);
* each replica runs a per-observer :class:`FailureDetector` that scores
  the silence of every watched peer — either as whole missed heartbeat
  windows (``mode="bounded"``) or as a phi-accrual-style suspicion score
  (``mode="phi"``: elapsed silence over the smoothed inter-arrival mean);
* a peer whose score crosses the threshold is *suspected*; the observer
  reports the suspicion to the configuration service, which aggregates
  reports per (shard, epoch, suspect) and — once ``confirmations``
  distinct observers agree — asks a surviving member to propose a view
  change through the ordinary CAS path (``CS_VIEW_CHANGE``);
* a heartbeat arriving from a suspected peer refutes the suspicion
  (``false_suspicions``), which is what the flapping scenarios measure.

Determinism: heartbeat deliveries are ordinary network messages, and the
pump tick is a *weak* scheduler event (:meth:`Scheduler.schedule_weak`), so
a recurring heartbeat timer cannot keep run-to-quiescence alive — the
scheduler stops once only weak events remain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set

from repro.core.types import ProcessId


DETECTOR_MODES = (
    "bounded",  # suspect after `threshold` whole heartbeat windows of silence
    "phi",  # suspect when silence / smoothed inter-arrival mean >= phi_threshold
)

#: Weight of the newest inter-arrival gap in the phi-mode smoothed mean.
_PHI_SMOOTHING = 0.2


@dataclass(frozen=True)
class DetectorPolicy:
    """Heartbeat failure-detector policy, shared by all three stacks — the
    value a scenario's ``detector`` field holds and the cluster receives
    (``repro.scenarios.spec.DetectorSpec`` is this class).

    With ``interval > 0`` every replica heartbeats its co-members once per
    ``interval`` message delays and scores their silence — ``bounded`` mode
    suspects after ``threshold`` whole missed windows, ``phi`` mode when the
    silence over the smoothed inter-arrival mean reaches ``phi_threshold``.
    Suspicions go to the configuration service, which aggregates them per
    (shard, epoch, suspect) and — once ``confirmations`` distinct observers
    agree — asks a surviving member to reconfigure through the ordinary CAS
    path, then pushes ``CONFIG_CHANGE`` to subscribed clients so sessions
    fail over before their retry timers fire.

    ``interval = 0`` (the default) disables the detector entirely — no
    heartbeats, no pump, no detector state — preserving the paper's
    oracle-free, timeout-driven failover.
    """

    mode: str = "bounded"
    interval: float = 0.0  # heartbeat period in message delays; 0 = off
    threshold: int = 3  # bounded: missed windows before suspicion
    phi_threshold: float = 4.0  # phi: suspicion score cutoff
    confirmations: int = 1  # distinct observers required for a view change

    def validate(self) -> None:
        if self.mode not in DETECTOR_MODES:
            raise ValueError(
                f"unknown detector mode {self.mode!r}; expected one of {DETECTOR_MODES}"
            )
        if self.interval < 0:
            raise ValueError("heartbeat interval must be >= 0 (0 = detector off)")
        if self.threshold < 1:
            raise ValueError("suspicion threshold must be >= 1 missed window")
        if self.phi_threshold <= 0:
            raise ValueError("phi threshold must be positive")
        if self.confirmations < 1:
            raise ValueError("confirmations must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.interval > 0

    def describe(self) -> str:
        if not self.enabled:
            return "off"
        if self.mode == "phi":
            score = f"phi_threshold={self.phi_threshold:g}"
        else:
            score = f"threshold={self.threshold}"
        return (
            f"{self.mode}(interval={self.interval:g},{score},"
            f"confirmations={self.confirmations})"
        )


class FailureDetector:
    """One observer's view of its peers' liveness.

    The detector holds no timers of its own: :meth:`record` is called on
    every heartbeat arrival and :meth:`tick` once per pump interval, and
    suspicion derives purely from timestamps — ``misses = silence /
    interval`` — so there is no per-tick counter state to desynchronise.
    """

    def __init__(self, policy: DetectorPolicy, owner: ProcessId) -> None:
        self.policy = policy
        self.owner = owner
        self._last_arrival: Dict[ProcessId, float] = {}
        self._mean_gap: Dict[ProcessId, float] = {}
        self._suspected: Set[ProcessId] = set()
        self.suspicions = 0
        self.false_suspicions = 0

    def watch(self, peers: Iterable[ProcessId], now: float) -> None:
        """Reset the monitored set (bootstrap or configuration change).

        Retained peers keep their arrival history; new peers start with the
        benefit of the doubt (an implied arrival at ``now``), so a freshly
        installed configuration cannot instantly suspect a member that has
        simply not had a chance to heartbeat yet.
        """
        kept = [p for p in peers if p != self.owner]
        self._last_arrival = {p: self._last_arrival.get(p, now) for p in kept}
        self._mean_gap = {
            p: self._mean_gap.get(p, self.policy.interval) for p in kept
        }
        self._suspected &= set(kept)

    def record(self, peer: ProcessId, now: float) -> None:
        """A heartbeat from ``peer`` arrived; refutes any live suspicion."""
        last = self._last_arrival.get(peer)
        if last is None:
            return  # not a watched peer (stale sender after a view change)
        gap = now - last
        self._last_arrival[peer] = now
        self._mean_gap[peer] = (
            (1.0 - _PHI_SMOOTHING) * self._mean_gap[peer] + _PHI_SMOOTHING * gap
        )
        if peer in self._suspected:
            self._suspected.discard(peer)
            self.false_suspicions += 1

    def score(self, peer: ProcessId, now: float) -> float:
        """The suspicion score of ``peer``: missed windows (bounded) or the
        phi-style silence / mean-inter-arrival ratio."""
        silence = now - self._last_arrival[peer]
        if self.policy.mode == "phi":
            return silence / max(self._mean_gap[peer], 1e-9)
        return silence / self.policy.interval

    def tick(self, now: float) -> List[ProcessId]:
        """Evaluate every watched peer; returns the *newly* suspected ones
        (in sorted order, for deterministic report emission)."""
        cutoff = (
            self.policy.phi_threshold
            if self.policy.mode == "phi"
            else float(self.policy.threshold)
        )
        fresh: List[ProcessId] = []
        for peer in sorted(self._last_arrival):
            if peer in self._suspected:
                continue
            if self.score(peer, now) >= cutoff:
                self._suspected.add(peer)
                self.suspicions += 1
                fresh.append(peer)
        return fresh

    @property
    def suspected(self) -> frozenset:
        return frozenset(self._suspected)


class HeartbeatPump:
    """One cluster-level recurring tick driving heartbeats and detectors.

    A single weak self-re-arming timer (rather than one per replica) keeps
    the event count low and the per-tick replica order fixed (dict
    insertion order — the build order).  Each tick asks every live replica
    to emit its heartbeats and then to evaluate its detector; emission and
    evaluation happen at the same virtual instant, but the heartbeats sent
    this tick only *arrive* a network delay later, so ordering within the
    tick is immaterial.

    The pump is armed exactly once, from driver context at cluster build
    time, and re-arms itself from inside the tick thereafter.
    """

    def __init__(self, scheduler, replicas: Callable[[], Iterable], policy: DetectorPolicy) -> None:
        self.scheduler = scheduler
        self.replicas = replicas
        self.policy = policy
        self.started = False
        self.ticks = 0

    def start(self) -> None:
        if self.started or not self.policy.enabled:
            return
        self.started = True
        self.scheduler.schedule_weak(self.policy.interval, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        for replica in self.replicas():
            if replica.crashed:
                continue
            replica.emit_heartbeats()
            replica.tick_detector()
        self.scheduler.schedule_weak(self.policy.interval, self._tick)
