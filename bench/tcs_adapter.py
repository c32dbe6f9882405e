"""The benchmark's only contact with ``repro``.

Everything the benchmark knows about the program is here, and it is all
public (non-underscore) surface, listed in README.md so that refactors
know what the measurement depends on.  One repetition is what a user of
the scenario engine pays for: build the cluster, drive the workload,
drain, collect, reach the safety verdict and fingerprint the history.
All host timing is taken around those calls with ``time.perf_counter()``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import collect_link_stats, percentile
from repro.core import Decision
from repro.scenarios import (
    BatchSpec,
    ExecSpec,
    FaultStep,
    NetworkSpec,
    RetrySpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios.spec import DetectorSpec, ReadSpec
from repro.spec import check_invariants
from repro.store import TransactionalStore
from repro.workload import TransactionSpec

from tcs_workloads import OpenLoopInputs, Workload, crash_time, open_loop_inputs

CRASHED_SHARD = "shard-0"


def scenario_spec(workload: Workload, seed: int, txns: int, rate: float = 0.0) -> ScenarioSpec:
    """The scenario a workload describes.  ``rate`` > 0 overrides the
    arrival rate and drops the fault (a pass of the load curve)."""
    faults = ()
    if workload.crash_leader_at and not rate:
        faults = (
            FaultStep(at=crash_time(workload, txns), action="crash-leader", shard=CRASHED_SHARD),
        )
    timeout, backoff, attempts = workload.retry or (0.0, 2.0, 4)
    interval, threshold = workload.detector or (0.0, 3)
    return ScenarioSpec(
        name=workload.name,
        protocol=workload.protocol,
        num_shards=4,
        replicas_per_shard=workload.replicas,
        seed=seed,
        workload=WorkloadSpec(
            kind=workload.keys,
            txns=txns,
            batch=workload.wave,
            num_keys=workload.num_keys,
            theta=workload.theta,
            reads_per_txn=workload.reads,
            writes_per_txn=workload.writes,
            read_ratio=workload.read_ratio,
        ),
        batch=BatchSpec(size=workload.batch_size),
        network=NetworkSpec(bandwidth=workload.bandwidth, overhead=workload.overhead),
        read=ReadSpec(mode="snapshot" if workload.snapshot_reads else "certified"),
        retry=RetrySpec(timeout=timeout, backoff=backoff, max_attempts=attempts),
        detector=DetectorSpec(interval=interval, threshold=threshold),
        execution=(
            ExecSpec(mode="parallel-shards", groups=workload.groups)
            if workload.groups
            else ExecSpec()
        ),
        faults=faults,
    )


@dataclass
class Repetition:
    """One repetition: its host cost and everything read from the
    simulation's public counters afterwards."""

    wall_s: float  # build + drive + drain + collect + verdict + digest
    build_s: float
    collect_s: float  # collect + verdict + digest
    digest: str
    counts: Dict[str, float]
    problems: List[str]  # failed correctness gates


def run_repetition(
    workload: Workload, seed: int, txns: int, rate: float = 0.0, profiler=None
) -> Repetition:
    """Run one repetition of ``workload`` from ``seed``.  Inputs are
    generated before the clock starts; a ``cProfile.Profile`` passed as
    ``profiler`` records exactly the timed region."""
    spec = scenario_spec(workload, seed, txns, rate)
    inputs = bodies = None
    if workload.open_rate:
        inputs = open_loop_inputs(workload, seed, txns, rate or workload.open_rate)
        bodies = [
            TransactionSpec(reads=reads, writes=writes).body()
            for reads, writes in zip(inputs.reads, inputs.writes)
        ]

    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    runner = ScenarioRunner(spec)
    cluster = runner.build()
    built = time.perf_counter()
    if inputs is None:
        # The runner drives closed-loop waves, collects, reaches the verdict
        # and digests; the counters are read again below, off the clock.
        result = runner.run()
        wall = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        collect_s = wall - (built - start) - result.wall_seconds
        digest, counts, problems = _read_outcome(runner, None)
        if digest != result.history_digest:
            problems.append("history digest differs from the runner's")
        if not result.safety_ok:
            problems.append(f"runner verdict unsafe: {result.check_reason}")
    else:
        driver = OpenLoopDriver(cluster, inputs, bodies)
        driver.run(spec.max_events)
        driven = time.perf_counter()
        digest, counts, problems = _read_outcome(runner, driver)
        wall = time.perf_counter() - start
        if profiler is not None:
            profiler.disable()
        collect_s = wall - (driven - start)
    return Repetition(
        wall_s=wall,
        build_s=built - start,
        collect_s=collect_s,
        digest=digest,
        counts=counts,
        problems=problems,
    )


class OpenLoopDriver:
    """Feeds requests on a schedule whatever the system's progress (the
    request-feeder idiom): every arrival is an event on the simulation's
    own scheduler, executed against the committed state at that instant.
    Latency is timed from when a request was due, so a stall is charged to
    every request due during it."""

    def __init__(self, cluster, inputs: OpenLoopInputs, bodies: List[Callable]) -> None:
        self.cluster = cluster
        self.inputs = inputs
        self.bodies = bodies
        initial = {f"key-{index}": 0 for index in range(inputs.num_keys)}
        self.store = TransactionalStore(cluster, initial=initial)
        self.due_of: Dict[object, float] = {}  # transaction id -> due time
        self.lateness = 0.0  # worst (fired - due); a DES fires exactly on schedule

    def _arrive(self, index: int) -> None:
        due = self.inputs.due[index]
        self.lateness = max(self.lateness, self.cluster.scheduler.now - due)
        self.due_of[self.store.submit_async(self.bodies[index])] = due

    def run(self, max_events: int) -> None:
        schedule_at = self.cluster.scheduler.schedule_at
        for index, due in enumerate(self.inputs.due):
            schedule_at(due, self._arrive, index)
        self.cluster.run(max_events=max_events)


def _read_outcome(
    runner: ScenarioRunner, driver: Optional["OpenLoopDriver"]
) -> Tuple[str, Dict[str, float], List[str]]:
    """Read a finished run: the history digest, the virtual-time latencies
    and the layers' public counters as one flat dict, and the correctness
    gates that failed."""
    cluster = runner.cluster
    history = cluster.history
    problems: List[str] = []

    decided = history.decided()
    submitted = len(history.certified())
    committed = sum(1 for decision in decided.values() if decision is Decision.COMMIT)
    retry = cluster.retry_stats()
    undecided = submitted - len(decided)

    verdict = runner.checker.result()
    if not verdict.ok:
        problems.append(f"online checker: {verdict.reason}")
    if runner.monitor is not None:
        violations = check_invariants(
            cluster.member_replicas_by_shard(), monitor=runner.monitor
        )
        if violations:
            problems.append(f"{len(violations)} invariant violation(s)")
    if history.contradictions:
        problems.append(f"{len(history.contradictions)} contradictory decision(s)")
    if undecided or retry.orphaned:
        problems.append(f"{undecided} undecided, {retry.orphaned} orphaned")

    digest_start = time.perf_counter()
    digest = history.digest()
    digest_s = time.perf_counter() - digest_start

    due_of = driver.due_of if driver else {}
    timed = [
        (due, decided_at - due)
        for client in cluster.clients
        for txn, decided_at in client.decide_times.items()
        for due in (due_of.get(txn, client.submit_times[txn]),)
    ]
    if not timed:
        problems.append("no transaction was decided")
        timed = [(0.0, 0.0)]
    latencies = sorted(latency for _due, latency in timed)
    # The last quarter of arrivals: a backlog that grows shows here first.
    cutoff = sorted(due for due, _latency in timed)[len(timed) * 3 // 4]
    tail = sorted(latency for due, latency in timed if due >= cutoff)
    duration = cluster.scheduler.now
    messages = cluster.message_stats
    link = collect_link_stats(cluster.network)
    queue_wait = link.queue_wait if link else None
    batches = cluster.batch_stats()
    reads = cluster.read_stats() if hasattr(cluster, "read_stats") else {}
    served = reads.get("reads_served", 0)
    detector = cluster.detector_stats()
    phases = cluster.phase_samples()
    checker = runner.checker.stats

    counts: Dict[str, float] = {
        "submitted": submitted,
        "committed": committed,
        "decided": len(decided),
        "failed": undecided + retry.orphaned,
        "duration_delays": duration,
        "commit_p50_delays": percentile(latencies, 0.5),
        "commit_p99_delays": percentile(latencies, 0.99),
        "commit_max_delays": latencies[-1],
        "last_quarter_p99_delays": percentile(tail, 0.99),
        "events_fired": cluster.scheduler.events_fired,
        "msgs_sent": messages.total_sent,
        "msgs_dropped": messages.dropped,
        "bytes_sent": messages.bytes_sent,
        "queue_wait_mean_delays": queue_wait.mean if queue_wait else 0.0,
        "queue_wait_max_delays": queue_wait.maximum if queue_wait else 0.0,
        "link_max_depth": link.max_depth if link else 0,
        "link_busy_delays": link.busy_time if link else 0.0,
        "batches": batches.batches,
        "mean_batch_size": batches.mean_size,
        "max_batch_size": batches.max_size,
        "coordinator_queue_wait_mean_delays": _mean(phases.get("queue_wait")),
        "certify_to_decide_p50_delays": _median(phases.get("certify_to_decide")),
        "duplicate_requests": retry.duplicate_requests,
        "certified_commit_frac": (committed - served) / max(1, len(decided) - served),
        "reads_served": served,
        "read_fallbacks": reads.get("read_fallbacks", 0),
        "view_changes": detector["view_changes"],
        "suspicions": detector["suspicions"],
        "false_suspicions": detector["false_suspicions"],
        "recovery_delays": 0.0,
        "retries": retry.retries,
        "failovers": retry.failovers,
        "pushed_failovers": retry.pushed_failovers,
        "orphaned": retry.orphaned,
        "generator_lateness_delays": driver.lateness if driver else 0.0,
        "history_events": len(history),
        "digest_s": digest_s,
        "graph_nodes": checker["nodes"],
        "graph_edges": checker["edges"],
        "checker_events": checker["events_processed"],
    }
    if driver and driver.lateness != 0.0:
        problems.append(f"open-loop generator ran {driver.lateness} delays late")
    if runner.spec.faults:
        # Crash -> next configuration install of the crashed shard.
        crashed_at = runner.spec.faults[0].at
        if len(runner.faults_executed) != 1:
            problems.append("the leader crash was not injected")
        installs = [
            at
            for at, shard, _epoch in cluster.config_service.install_log
            if shard == CRASHED_SHARD and at > crashed_at
        ]
        if installs:
            counts["recovery_delays"] = installs[0] - crashed_at
        else:
            problems.append("no configuration was installed after the crash")
    return digest, counts, problems


def _mean(sample: Optional[Sequence[float]]) -> float:
    return statistics.fmean(sample) if sample else 0.0


def _median(sample: Optional[Sequence[float]]) -> float:
    return statistics.median(sample) if sample else 0.0

