"""The scenario engine: build a cluster, inject faults, drive a workload.

``ScenarioRunner`` is the single driving loop shared by the examples, the
benchmark harness, the CLI and the tests.  It

1. builds the cluster described by a :class:`ScenarioSpec` — either binding
   of :class:`repro.cluster.ClusterBase`: any registered protocol variant,
   or the 2PC-over-Paxos baseline (chosen in :meth:`ScenarioRunner.build`,
   the only place that tells them apart);
2. applies setup fault steps (``at <= 0``) and schedules the timed ones on
   the simulation clock, resolving role targets (``"leader:shard-0"``)
   against the live cluster at execution time;
3. drives the workload in closed-loop batches through the transactional
   store (or submits explicit spanning payloads), waiting on decision
   watchers rather than polling the history;
4. drains the simulation and distils a structured :class:`ScenarioResult`
   (throughput, latency, abort rate, message and event counts, safety
   verdict) plus one :class:`Section` per optional subsystem.

The five optional subsystems travel spec -> cluster -> result along one
table, :data:`SECTIONS`, whose rows are ``(name, title, collect)``:
``spec.<name>`` is the policy the cluster is built with (for the network,
the :class:`NetworkSpec` around the link model), ``collect(cluster)``
returns the subsystem's stats type from :mod:`repro.analysis.metrics`, and
``result.<name>`` stores label and stats as a :class:`Section` — the label
under the JSON key ``<name>_model`` and, in the report, in the row headed
``title``.  The stats type owns its JSON keys and its report row, so
nothing here names a counter.

Everything is deterministic in the spec's seed: two runs of the same spec
produce identical results (modulo wall-clock time).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from operator import methodcaller
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.metrics import (
    LatencySummary,
    LinkStats,
    PhaseBreakdown,
    collect_link_stats,
    format_table,
    phase_breakdown,
    summarize,
)
from repro.cluster import Cluster, ClusterBase
from repro.core.serializability import TransactionPayload
from repro.core.types import Decision
from repro.scenarios.spec import (
    PROTOCOL_BASELINE,
    SHARD_ROLES,
    FaultStep,
    ScenarioError,
    ScenarioSpec,
)
from repro.spec.incremental import IncrementalTCSChecker
from repro.spec.invariants import InvariantMonitor, check_invariants
from repro.store.executor import TransactionalStore
from repro.workload.generators import (
    BankWorkload,
    ClosedLoopDriver,
    KeySpaceSeeds,
    ReadWriteWorkload,
    UniformKeyGenerator,
    ZipfianKeyGenerator,
)


@dataclass(frozen=True)
class Section:
    """One optional subsystem's share of a result: the label of the policy
    the run used (``policy.describe()``; ``"off"`` when disabled) and the
    subsystem's stats (one of the types in :mod:`repro.analysis.metrics`)."""

    model: str
    stats: Any


#: The optional subsystems in report order (see the module docstring).
#: _collect, as_dict() and render() walk this table: a sixth subsystem is a
#: row here, a stats type and the two fields the row names.
SECTIONS: Tuple[Tuple[str, str, Callable[[ClusterBase], Any]], ...] = (
    ("retry", "retry policy", methodcaller("retry_stats")),
    ("batch", "batch policy", methodcaller("batch_stats")),
    ("read", "read policy", methodcaller("read_stats")),
    # The pure-delay network keeps no link state: report zeros.
    ("network", "network model", lambda c: collect_link_stats(c.network) or LinkStats()),
    ("detector", "failure detector", methodcaller("detector_stats")),
)


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run: the run-level measurements
    as fields, plus one :class:`Section` per optional subsystem.

    The subsystems' labels and counters are read by their flat JSON names —
    ``result.retries``, ``result.mean_batch_size``, ``result.network_model``
    — which resolve through the sections (see :meth:`__getattr__`), so
    Python callers, sweep curves, the JSON and the CLI share one vocabulary.
    """

    scenario: str
    protocol: str
    seed: int
    txns_submitted: int
    committed: int
    aborted: int
    undecided: int
    abort_rate: float
    throughput: float  # committed transactions per 1000 message delays
    duration: float  # virtual time elapsed
    events_fired: int
    messages_sent: int
    messages_delivered: int
    latency: Optional[LatencySummary]
    check_ok: bool
    invariant_violations: int
    contradictions: int
    expect_safe: bool
    retry: Section  # client retries: re-submission and failover
    batch: Section  # protocol-level batching
    read: Section  # snapshot-read fast path
    network: Section  # bandwidth/queueing link model
    detector: Section  # heartbeat failure detector
    check_mode: str = "online"
    check_reason: str = ""  # why the checker failed ("" when it passed)
    latency_model: str = "unit"  # LatencySpec.describe() of the network model
    recovery_times: List[float] = field(default_factory=list)  # crash -> next install
    phases: Optional[PhaseBreakdown] = None  # submit/certify/decide split
    faults_executed: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    history_digest: str = ""  # History.digest(): fingerprint of the event sequence

    def _subsystems(self) -> Dict[str, Any]:
        """Every section as its flat JSON keys: the label, then the counters.
        Reads ``__dict__``, never ``self.<field>``: ``__getattr__`` lands
        here for the blank instance that ``copy`` and pickle probe for
        ``__setstate__`` before any field exists."""
        flat: Dict[str, Any] = {}
        for name, _title, _collect in SECTIONS:
            section = self.__dict__.get(name)
            if section is not None:
                flat[f"{name}_model"] = section.model
                flat.update(section.stats.as_dict())
        return flat

    def __getattr__(self, name: str) -> Any:
        """Resolve a flat subsystem name (``retries``, ``batch_model``, ...)
        through the sections; Python only calls this for non-fields."""
        try:
            return self._subsystems()[name]
        except KeyError:
            raise AttributeError(f"ScenarioResult has no attribute {name!r}") from None

    @property
    def safety_ok(self) -> bool:
        """True when the run produced a correct history (checker passed, no
        invariant violations, no contradictory decisions)."""
        return self.check_ok and self.invariant_violations == 0 and self.contradictions == 0

    @property
    def passed(self) -> bool:
        """The run matched the scenario's safety expectation: correct
        protocols must be safe, ablation scenarios must expose their bug."""
        return self.safety_ok == self.expect_safe

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "seed": self.seed,
            "txns_submitted": self.txns_submitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "undecided": self.undecided,
            "abort_rate": self.abort_rate,
            "throughput": self.throughput,
            "duration": self.duration,
            "events_fired": self.events_fired,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "latency": self.latency.as_dict() if self.latency else None,
            "latency_model": self.latency_model,
            **self._subsystems(),
            "recovery_times": list(self.recovery_times),
            "phases": self.phases.as_dict() if self.phases else None,
            "check_ok": self.check_ok,
            "check_mode": self.check_mode,
            "check_reason": self.check_reason,
            "invariant_violations": self.invariant_violations,
            "contradictions": self.contradictions,
            "safety_ok": self.safety_ok,
            "expect_safe": self.expect_safe,
            "passed": self.passed,
            "faults_executed": list(self.faults_executed),
            "history_digest": self.history_digest,
        }

    def render(self) -> str:
        rows = [
            ("protocol", self.protocol),
            ("transactions", f"{self.committed} committed / {self.aborted} aborted"
                             + (f" / {self.undecided} undecided" if self.undecided else "")),
            ("abort rate", f"{self.abort_rate:.3f}"),
            ("throughput", f"{self.throughput:.1f} committed txns / 1000 delays"),
            ("virtual duration", f"{self.duration:.1f} delays"),
            ("events fired", self.events_fired),
            ("messages", f"{self.messages_sent} sent / {self.messages_delivered} delivered"),
        ]
        if self.latency_model != "unit":
            rows.append(("latency model", self.latency_model))
        for name, title, _collect in SECTIONS:
            section: Section = getattr(self, name)
            if section.model != "off":
                rows.append((title, section.model))
                rows.append(section.stats.render())
        if self.recovery_times:
            ttr = ", ".join(f"{t:.1f}" for t in self.recovery_times)
            rows.append(("time to recovery", f"{ttr} delays (crash -> install)"))
        if self.latency is not None:
            rows.append(
                ("client latency", f"mean {self.latency.mean:.2f} / p99 {self.latency.p99:.2f} delays")
            )
        if self.phases is not None:
            for label, summary in (
                ("submit -> certify", self.phases.submit_to_certify),
                ("queue wait", self.phases.queue_wait),
                ("certify -> decide", self.phases.certify_to_decide),
                ("decide -> client", self.phases.decide_to_client),
            ):
                if summary is None:
                    continue
                if label == "queue wait" and summary.maximum == 0.0:
                    continue  # all-zero queueing (unbatched / adaptive) is noise
                rows.append(
                    (f"phase {label}", f"mean {summary.mean:.2f} / p99 {summary.p99:.2f} delays")
                )
        verdict = "SAFE" if self.safety_ok else "UNSAFE"
        expectation = "as expected" if self.passed else "UNEXPECTED"
        rows.append(("safety", f"{verdict} ({expectation}, check_mode={self.check_mode})"))
        if self.check_reason:
            rows.append(("violation", self.check_reason))
        for note in self.faults_executed:
            rows.append(("fault", note))
        body = format_table(["metric", "value"], rows)
        return f"=== scenario: {self.scenario} ===\n{body}"


class ScenarioRunner:
    """Builds and drives one scenario; see the module docstring."""

    def __init__(self, spec: ScenarioSpec) -> None:
        spec.validate()
        self.spec = spec
        self.cluster: Any = None
        self.store: Optional[TransactionalStore] = None
        self.faults_executed: List[str] = []
        self._crashed: List[str] = []
        # (virtual time, shard) of every crash this runner injected, matched
        # against the configuration service's install log to compute
        # time-to-recovery (crash -> next configuration install).
        self._crash_times: List[Tuple[float, Optional[str]]] = []
        # The cluster's online checker and invariant monitor (None when the
        # spec's check_mode is "off", the monitor also without invariants).
        self.checker: Optional[IncrementalTCSChecker] = None
        self.monitor: Optional[InvariantMonitor] = None

    # ------------------------------------------------------------------
    # construction and fault wiring
    # ------------------------------------------------------------------
    def build(self) -> Any:
        """Construct the cluster and arm the fault schedule (idempotent)."""
        if self.cluster is not None:
            return self.cluster
        spec = self.spec
        # What every cluster takes, whatever the protocol.
        shared = dict(
            num_shards=spec.num_shards,
            latency=spec.latency,
            seed=spec.seed,
            # The spec's policy and model fields are the values the cluster takes.
            retry=spec.retry,
            batch=spec.batch,
            read=spec.read,
            detector=spec.detector,
            network=spec.network,
        )
        if spec.protocol == PROTOCOL_BASELINE:
            # Imported here: a run of the paper's protocols never loads the
            # baseline's stack.
            from repro.baselines.cluster import BaselineCluster

            self.cluster = BaselineCluster(
                failures_tolerated=(spec.replicas_per_shard - 1) // 2, **shared
            )
        else:
            self.cluster = Cluster(
                replicas_per_shard=spec.replicas_per_shard,
                protocol=spec.protocol,
                isolation=spec.isolation,
                spares_per_shard=spec.spares_per_shard,
                **shared,
            )
        if spec.check_mode == "off":
            self.cluster.stop_checking()
        else:
            self.checker = self.cluster.checker
            if spec.check_invariants:
                self.monitor = self.cluster.monitor
        for step in spec.fault_schedule:
            if step.at <= 0:
                self._execute_fault(step)
            else:
                self.cluster.scheduler.schedule_at(step.at, self._execute_fault, step)
        return self.cluster

    def resolve(self, role: Optional[str]) -> Optional[str]:
        """Resolve a role description to a process id (see spec module)."""
        if role is None:
            return None
        cluster = self.cluster
        if role == "config-service":
            return cluster.config_service.pid
        kind, _, rest = role.partition(":")
        if kind in SHARD_ROLES and rest:
            shard, _, index_text = rest.partition(":")
            index = int(index_text) if index_text else 0
            if kind == "leader":
                return cluster.leader_of(shard)
            if kind == "follower":
                followers = cluster.followers_of(shard)
                if not followers:
                    raise ScenarioError(
                        f"role {role!r}: shard {shard!r} has no followers"
                    )
                return followers[index % len(followers)]
            members = cluster.members_of(shard)
            if not members:
                raise ScenarioError(f"role {role!r}: shard {shard!r} has no members")
            return members[index % len(members)]
        if role not in cluster.network.processes:
            raise ScenarioError(f"role {role!r} names no process of this cluster")
        return role

    def _note_fault(self, text: str) -> None:
        self.faults_executed.append(f"t={self.cluster.scheduler.now:g}: {text}")

    def _execute_fault(self, step: FaultStep) -> None:
        cluster = self.cluster
        if step.action == "crash":
            pid = self.resolve(step.target)
            cluster.crash(pid)
            self._crashed.append(pid)
            self._note_crash(pid)
            self._note_fault(f"crash {pid}")
        elif step.action == "crash-leader":
            pid = cluster.crash_leader(step.shard)
            self._crashed.append(pid)
            self._note_crash(pid, step.shard)
            self._note_fault(f"crash leader {pid} of {step.shard}")
        elif step.action == "crash-follower":
            pid = cluster.crash_follower(step.shard)
            self._crashed.append(pid)
            self._note_crash(pid, step.shard)
            self._note_fault(f"crash follower {pid} of {step.shard}")
        elif step.action == "reconfigure":
            initiator = self.resolve(step.target)
            suspects = [self.resolve(role) for role in step.suspects]
            if not suspects:
                # Default suspicion: everything this runner crashed so far.
                suspects = list(self._crashed)
            cluster.reconfigure(
                step.shard, initiator=initiator, run=False, suspects=suspects
            )
            self._note_fault(f"reconfigure {step.shard} (suspects: {suspects or 'none'})")
        elif step.action == "retry-stalled":
            retried = self._retry_stalled(self.resolve(step.target))
            self._note_fault(f"retry {retried} stalled slot(s)")
        elif step.action == "delay-channel":
            src, dst = self.resolve(step.src), self.resolve(step.dst)
            cluster.network.add_extra_delay(src, dst, step.delay)
            self._note_fault(f"delay {src} -> {dst} by {step.delay:g}")
        elif step.action == "block-channel":
            src, dst = self.resolve(step.src), self.resolve(step.dst)
            cluster.network.block(src, dst)
            self._note_fault(f"block {src} -> {dst}")
        elif step.action == "partition":
            pid = self.resolve(step.target)
            others = [p for p in cluster.network.processes if p != pid]
            cluster.network.partition([pid], others)
            self._note_fault(f"partition {pid}")
        elif step.action == "heal":
            cluster.network.heal()
            self._note_fault("heal all channels")
        else:  # pragma: no cover - spec.validate() rejects unknown actions
            raise ScenarioError(f"unknown fault action {step.action!r}")

    def _note_crash(self, pid: str, shard: Optional[str] = None) -> None:
        """Record a crash for time-to-recovery accounting."""
        if shard is None:
            replica = self.cluster.replicas.get(pid)  # None: not a shard replica
            shard = replica.shard if replica is not None else None
        self._crash_times.append((self.cluster.scheduler.now, shard))

    def _recovery_times(self) -> List[float]:
        """Crash-to-install delays: for every injected crash, the time until
        the configuration service installed the next configuration of the
        crashed process's shard (empty when no recovery happened)."""
        if not self._crash_times:
            return []  # also every baseline run: it accepts no fault schedule
        log = self.cluster.config_service.install_log
        times: List[float] = []
        for crashed_at, shard in self._crash_times:
            for installed_at, installed_shard, _epoch in log:
                if installed_at > crashed_at and (
                    shard is None or installed_shard == shard
                ):
                    times.append(installed_at - crashed_at)
                    break
        return times

    def _retry_stalled(self, target: Optional[str]) -> int:
        """Re-drive prepared-but-undecided slots through their leaders (the
        paper's coordinator-recovery path, lines 70-73)."""
        if target is not None:
            replicas = [self.cluster.replicas[target]]
        else:
            replicas = [
                replica
                for replica in self.cluster.replicas.values()
                if replica.is_leader and not replica.crashed
            ]
        retried = 0
        for replica in replicas:
            prepared = [
                slot
                for slot, txn, _payload, _vote, dec in replica.filled_slots()
                if txn is not None and dec is None
            ]
            for slot in prepared:
                if replica.retry(slot) is not None:
                    retried += 1
        return retried

    # ------------------------------------------------------------------
    # workload driving
    # ------------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Build (if needed), drive the workload, drain, and summarise."""
        spec = self.spec
        cluster = self.build()
        wall_start = _time.perf_counter()
        start_time = cluster.scheduler.now
        if spec.workload.kind == "spanning":
            self._drive_spanning()
        else:
            self._drive_store()
        # Drain everything still in flight: trailing decision deliveries,
        # scheduled faults, reconfigurations and their recovery traffic.
        cluster.run(max_events=spec.max_events)
        wall = _time.perf_counter() - wall_start
        return self._collect(start_time, wall)

    def _waves(self) -> List[range]:
        """The transaction indexes of each closed-loop wave, ``batch`` at a
        time.  A wave's transactions are generated when it is submitted, so
        a run holds one wave of bodies, never the whole run's."""
        indexes, batch = range(self.spec.workload.txns), self.spec.workload.batch
        return [indexes[offset : offset + batch] for offset in indexes[::batch]]

    def _drive_store(self) -> None:
        spec = self.spec
        workload = spec.workload
        if workload.kind == "bank":
            bank = BankWorkload(
                num_accounts=workload.num_accounts,
                initial_balance=workload.initial_balance,
                seed=spec.seed,
                hot_fraction=workload.hot_fraction,
            )
            initial = bank.initial_state()
            self.store = TransactionalStore(self.cluster, initial=initial)
            self.cluster.seed_read_stores(initial)
            draw = bank.batch
        else:
            if workload.kind == "zipfian":
                keys = ZipfianKeyGenerator(
                    num_keys=workload.num_keys, theta=workload.theta, seed=spec.seed
                )
            else:
                keys = UniformKeyGenerator(num_keys=workload.num_keys, seed=spec.seed)
            generator = ReadWriteWorkload(
                keys,
                reads_per_txn=workload.reads_per_txn,
                writes_per_txn=workload.writes_per_txn,
                seed=spec.seed,
                read_ratio=workload.read_ratio,
            )
            # One seed mapping for the whole key space, shared by the store
            # and every read engine, and built key by key by none of them.
            initial = KeySpaceSeeds(workload.num_keys)
            self.store = TransactionalStore(self.cluster, initial=initial)
            self.cluster.seed_read_stores(initial)
            if workload.read_ratio > 0 and workload.think_time <= 0:
                # Mixed waves: read-only transactions take the snapshot-read
                # fast path (when the cluster runs one), everything else is
                # certified.  Each wave executes against the same committed
                # snapshot, exactly like run_batch.
                self._drive_mixed(generator)
                return
            draw = generator.bodies
        # Every workload draws from its own seeded RNG, so when a body is
        # generated does not change what it draws.
        if workload.think_time > 0:
            ClosedLoopDriver(
                self.store,
                (draw(1)[0] for _ in range(workload.txns)),
                sessions=workload.sessions or workload.batch,
                think_time=workload.think_time,
                seed=spec.seed,
            ).run(max_events=spec.max_events)
        else:
            for wave in self._waves():
                self.store.run_batch(draw(len(wave)))

    def _drive_mixed(self, generator: ReadWriteWorkload) -> None:
        """Closed-loop waves of a read/write mix: writes go through the
        certified path, read-only specs through :meth:`submit_read_async`
        (which itself falls back to certification when the cluster has no
        fast path or the read spans shards)."""
        spec = self.spec
        for wave in self._waves():
            txns = []
            for _ in wave:
                txn_spec = generator.next()
                if txn_spec.writes:
                    txns.append(self.store.submit_async(txn_spec.body()))
                else:
                    txns.append(self.store.submit_read_async(txn_spec.reads))
            self.cluster.run_until_decided(txns, max_events=spec.max_events)

    def _drive_spanning(self) -> None:
        spec = self.spec
        coordinator = self.resolve(spec.workload.coordinator)
        for wave in self._waves():
            txns = [
                self.cluster.submit(self._spanning_payload(index), coordinator=coordinator)
                for index in wave
            ]
            self.cluster.run_until_decided(txns, max_events=spec.max_events)

    def _spanning_payload(self, index: int) -> TransactionPayload:
        """A payload touching one key on each of two adjacent shards."""
        shards = self.cluster.shards
        first = shards[index % len(shards)]
        second = shards[(index + 1) % len(shards)]
        keys = [
            self._key_on_shard(first, f"span{index}a"),
            self._key_on_shard(second, f"span{index}b"),
        ]
        return TransactionPayload.make(
            reads=[(key, (0, "")) for key in keys],
            writes=[(key, index) for key in keys],
            tiebreak=f"span{index}",
        )

    def _key_on_shard(self, shard: str, hint: str) -> str:
        return self.cluster.scheme.sharding.key_for_shard(shard, hint=hint)

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------
    def _collect(self, start_time: float, wall: float) -> ScenarioResult:
        spec = self.spec
        cluster = self.cluster
        history = cluster.history
        decided = history.decided()
        submitted = len(history.certified())
        committed = sum(1 for d in decided.values() if d is Decision.COMMIT)
        aborted = sum(1 for d in decided.values() if d is Decision.ABORT)
        undecided = submitted - len(decided)
        duration = max(cluster.scheduler.now - start_time, 1e-9)
        latencies = cluster.client_latencies()
        check_ok, check_reason, violations = self._verdict()
        stats = cluster.message_stats
        sections = {
            name: Section(getattr(spec, name).describe(), collect(cluster))
            for name, _title, collect in SECTIONS
        }
        return ScenarioResult(
            scenario=spec.name,
            protocol=spec.protocol,
            seed=spec.seed,
            txns_submitted=submitted,
            committed=committed,
            aborted=aborted,
            undecided=undecided,
            abort_rate=(aborted / len(decided)) if decided else 0.0,
            throughput=committed / duration * 1000.0,
            duration=cluster.scheduler.now - start_time,
            events_fired=cluster.scheduler.events_fired,
            messages_sent=stats.total_sent,
            messages_delivered=stats.total_delivered,
            latency=summarize(latencies) if latencies else None,
            latency_model=spec.latency.describe(),
            recovery_times=self._recovery_times(),
            phases=phase_breakdown(cluster.phase_samples()),
            check_ok=check_ok,
            invariant_violations=len(violations),
            contradictions=len(history.contradictions),
            expect_safe=spec.expect_safe,
            check_mode=spec.check_mode,
            check_reason=check_reason,
            faults_executed=list(self.faults_executed),
            wall_seconds=wall,
            history_digest=history.digest(),
            **sections,
        )

    def _verdict(self) -> Tuple[bool, str, List[Any]]:
        """The safety verdict under the spec's ``check_mode``."""
        cluster = self.cluster
        if self.checker is None:  # check_mode "off"
            return True, "", []
        check = self.checker.result()
        violations: List[Any] = []
        if self.monitor is not None:
            violations = check_invariants(
                cluster.member_replicas_by_shard(), monitor=self.monitor
            )
        return check.ok, check.reason, violations


def run_scenario(spec: ScenarioSpec, **overrides) -> ScenarioResult:
    """Run one scenario (optionally overriding spec fields first)."""
    if overrides:
        spec = spec.with_overrides(**overrides)
    return ScenarioRunner(spec).run()

