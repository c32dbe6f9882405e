"""Measurement helpers used by the benchmark harness.

The paper's quantitative claims are expressed in *message delays* and in
*messages handled per transaction by a shard leader*; the helpers here turn
the raw simulation output (virtual-time latencies and per-process message
counters) into those units and format the comparison tables that
EXPERIMENTS.md records.

It is also where each optional subsystem (client retries, batching,
snapshot reads, link model, failure detector) declares what it reports, in
one frozen stats type: :class:`RetryStats`, :class:`BatchStats`,
:class:`ReadStats`, :class:`LinkStats`, :class:`DetectorStats`.  Its fields
are what the cluster's collector counts; ``as_dict()`` is the subsystem's
flat JSON vocabulary (the keys ``ScenarioResult.as_dict()``, sweep curves
and the CLI use — a key appears in exactly one stats type); ``render()`` is
its row of the plain-text report.  A new counter is a field plus a key in
``as_dict()``: the scenario runner, the JSON and the sweeps pick it up from
``repro.scenarios.runner.SECTIONS`` without being told its name.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of a latency sample (in message delays)."""

    count: int
    mean: float
    median: float
    p99: float
    minimum: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> LatencySummary:
    """Summarise a latency sample; raises on an empty sample."""
    sample = sorted(values)
    if not sample:
        raise ValueError("cannot summarise an empty sample")
    return LatencySummary(
        count=len(sample),
        mean=statistics.fmean(sample),
        median=statistics.median(sample),
        p99=percentile(sample, 0.99),
        minimum=sample[0],
        maximum=sample[-1],
    )


def percentile(sorted_sample: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_sample:
        raise ValueError("empty sample")
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    rank = max(0, min(len(sorted_sample) - 1, round(fraction * (len(sorted_sample) - 1))))
    return sorted_sample[rank]


# The phases of one transaction's client-observed latency; each name keys
# the per-phase sample lists produced by ``Cluster.phase_samples()``.
PHASES = ("submit_to_certify", "queue_wait", "certify_to_decide", "decide_to_client")


@dataclass(frozen=True)
class PhaseBreakdown:
    """Client latency split along the commit path.

    * ``submit_to_certify`` — the client's request travelling to the
      coordinator (pure network cost: one message delay under the unit
      model, a distribution draw otherwise);
    * ``queue_wait`` — the request sitting in the coordinator's pending
      batch before the PREPARE fan-out is flushed (0 on the unbatched path
      and under adaptive batching, which flushes within the instant; up to
      the linger under time-cap batching);
    * ``certify_to_decide`` — the coordinator driving certification to a
      decision (the protocol's critical path — the paper's 3-delay claim
      lives here);
    * ``decide_to_client`` — the decision travelling back to the client.

    Separating the phases lets latency and batch sweeps tell protocol cost
    from network and queueing cost: a model that doubles mean link delay
    should double the network phases but scale the certify phase by the
    critical path's message-delay count, while a longer batch linger shows
    up in ``queue_wait`` alone.
    """

    submit_to_certify: Optional[LatencySummary]
    certify_to_decide: Optional[LatencySummary]
    decide_to_client: Optional[LatencySummary]
    queue_wait: Optional[LatencySummary] = None

    def as_dict(self) -> Dict[str, Optional[Dict[str, float]]]:
        return {
            name: summary.as_dict() if summary is not None else None
            for name in PHASES
            for summary in (getattr(self, name),)
        }


def phase_breakdown(samples: Mapping[str, Sequence[float]]) -> PhaseBreakdown:
    """Summarise per-phase latency samples (missing/empty phases are None)."""
    return PhaseBreakdown(
        **{
            name: summarize(samples[name]) if samples.get(name) else None
            for name in PHASES
        }
    )


def collect_phase_samples(client, entries: Mapping) -> Dict[str, List[float]]:
    """Split client-observed latencies into the :data:`PHASES`.

    ``client`` exposes ``submit_times`` / ``decide_times`` per transaction;
    ``entries`` maps transactions to coordinator entries with ``started_at``
    / ``decided_at`` — the shape both the reconfigurable cluster and the
    2PC-over-Paxos baseline provide, so the phase definitions live in one
    place and cannot drift between them.  Entries carrying a
    ``dispatched_at`` stamp (set when the batching layer flushed the
    transaction's last PREPARE) additionally yield a ``queue_wait`` sample;
    their certify phase starts at the flush, keeping queueing delay out of
    the protocol-cost phase.
    """
    samples: Dict[str, List[float]] = {name: [] for name in PHASES}
    for txn, decide_time in client.decide_times.items():
        entry = entries.get(txn)
        if entry is None or entry.decided_at is None:
            continue
        samples["submit_to_certify"].append(entry.started_at - client.submit_times[txn])
        dispatched = entry.dispatched_at
        certify_start = entry.started_at
        if dispatched is not None:
            samples["queue_wait"].append(dispatched - entry.started_at)
            certify_start = dispatched
        samples["certify_to_decide"].append(entry.decided_at - certify_start)
        samples["decide_to_client"].append(decide_time - entry.decided_at)
    return samples


# ----------------------------------------------------------------------
# per-subsystem stats (the contract is in the module docstring)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryStats:
    """Client retry counters for one run.

    * ``retries`` — timeout-driven re-submissions (any coordinator);
    * ``failovers`` — re-submissions that switched to a different
      coordinator (``retries - failovers`` re-tried the same one);
    * ``pushed_failovers`` — failovers triggered by a pushed
      ``CONFIG_CHANGE`` (the client learned its coordinator was removed
      before the retry timer fired);
    * ``orphaned`` — transactions abandoned after ``max_attempts`` without a
      decision (a resilient deployment should keep this at 0);
    * ``duplicate_requests`` — duplicate ``CERTIFY`` deliveries the
      coordinators deduplicated (re-answered from decision caches instead of
      re-certifying).
    """

    retries: int = 0
    failovers: int = 0
    pushed_failovers: int = 0
    orphaned: int = 0
    duplicate_requests: int = 0

    def as_dict(self) -> Dict[str, int]:
        # pushed_failovers is reported by DetectorStats, beside the view
        # changes whose CONFIG_CHANGE pushes cause them.
        return {
            "retries": self.retries,
            "failovers": self.failovers,
            "orphaned": self.orphaned,
            "duplicate_requests": self.duplicate_requests,
        }

    def render(self) -> Tuple[str, str]:
        return (
            "client retries",
            f"{self.retries} retries / {self.failovers} failovers / "
            f"{self.orphaned} orphaned / {self.duplicate_requests} dups deduped",
        )


@dataclass(frozen=True)
class BatchStats:
    """Protocol-batching counters for one run.

    * ``batches`` — batch messages flushed (PREPARE, ACCEPT and DECISION
      batches alike, across every batching process);
    * ``messages`` — protocol messages those batches carried;
    * ``sizes`` — the batch-size distribution (size -> batch count), the
      saturation signal a batch sweep plots: a size histogram pinned at 1
      means the flush policy never found anything to coalesce.
    """

    batches: int = 0
    messages: int = 0
    sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def mean_size(self) -> float:
        return self.messages / self.batches if self.batches else 0.0

    @property
    def max_size(self) -> int:
        return max(self.sizes, default=0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "batches": self.batches,
            "batched_messages": self.messages,
            "mean_batch_size": self.mean_size,
            "max_batch_size": self.max_size,
            "batch_sizes": {str(size): count for size, count in sorted(self.sizes.items())},
        }

    def render(self) -> Tuple[str, str]:
        return (
            "batching",
            f"{self.batches} batches / {self.messages} messages / "
            f"mean {self.mean_size:.2f} / max {self.max_size}",
        )


@dataclass(frozen=True)
class QueueWaitSummary:
    """Count, mean and maximum of a run's per-message link queue waits."""

    count: int
    mean: float
    maximum: float


@dataclass(frozen=True)
class LinkStats:
    """Link-queue counters for one run under a bandwidth-aware link model
    (a :class:`repro.runtime.network.NetworkSpec` with ``bandwidth > 0``).

    * ``bytes_sent`` — total wire bytes offered to the network (sized
      sends, including dropped ones — the offered load);
    * ``queue_wait`` — count, mean and maximum of the per-message queue
      waits (time spent behind earlier messages on the same directed
      channel): the congestion signal a bandwidth sweep plots; None when
      no message was sized;
    * ``busy_time`` — total serialization time accumulated across all
      links (overhead + bytes/bandwidth per message);
    * ``max_depth`` — the deepest any single link queue ever got.
    """

    bytes_sent: float = 0.0
    queue_wait: Optional[QueueWaitSummary] = None
    busy_time: float = 0.0
    max_depth: int = 0

    @property
    def _wait_mean_max(self) -> Tuple[float, float]:
        """Mean and worst queue wait; zeros when nothing was ever sent."""
        wait = self.queue_wait
        return (wait.mean, wait.maximum) if wait else (0.0, 0.0)

    def as_dict(self) -> Dict[str, object]:
        mean, worst = self._wait_mean_max
        return {
            "bytes_sent": self.bytes_sent,
            "link_queue_wait_mean": mean,
            "link_queue_wait_max": worst,
            "link_busy_time": self.busy_time,
            "link_max_depth": self.max_depth,
        }

    def render(self) -> Tuple[str, str]:
        mean, worst = self._wait_mean_max
        return (
            "link",
            f"{self.bytes_sent:.0f} bytes / busy {self.busy_time:.1f} / "
            f"queue wait mean {mean:.2f} max {worst:.2f} / depth {self.max_depth}",
        )


def collect_link_stats(network) -> Optional[LinkStats]:
    """Summarise a :class:`~repro.runtime.network.Network`'s link-queue
    accounting; None when its link model is off (``bandwidth == 0``: the
    pure-delay network keeps no byte or queue state at all).  The mean is
    the correctly rounded sum over the count, as ``statistics.fmean``
    computes it."""
    if not network.link.enabled:
        return None
    count = network.queue_wait_count
    return LinkStats(
        bytes_sent=network.stats.bytes_sent,
        queue_wait=QueueWaitSummary(
            count, network.queue_wait_total / count, network.queue_wait_max
        ) if count else None,
        busy_time=network.link_busy_time,
        max_depth=network.link_max_depth,
    )


class _CounterMapping(Mapping):
    """Lets a stats dataclass also answer ``stats[name]`` / ``.get(name)``
    over its own fields — how ``read_stats()`` and ``detector_stats()``
    were read while they returned literal dicts, and how the benchmark
    adapter (``bench/``) still reads them."""

    def __getitem__(self, name: str) -> object:
        if name not in self.__dataclass_fields__:
            raise KeyError(name)
        return getattr(self, name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.__dataclass_fields__)

    def __len__(self) -> int:
        return len(self.__dataclass_fields__)


@dataclass(frozen=True)
class ReadStats(_CounterMapping):
    """Snapshot-read fast-path counters for one run (all zero where the
    deployment has no fast path).

    * ``reads_served`` — reads a leader answered from its vote index;
    * ``read_fallbacks`` / ``fallback_reasons`` — fast-path reads that fell
      back to certification, and why (``lease``, ``pending``, ...);
    * ``refused_lease`` / ``refused_pending`` — the leaders' side of those
      refusals (a refusal and the client's fallback are counted where each
      happens; not reported in the JSON);
    * ``stale_serves`` — broken-snapshot mode: reads served although the
      lease had expired or a conflicting write was pending.
    """

    reads_served: int = 0
    read_fallbacks: int = 0
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    refused_lease: int = 0
    refused_pending: int = 0
    stale_serves: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "reads_served": self.reads_served,
            "read_fallbacks": self.read_fallbacks,
            "read_fallback_reasons": dict(sorted(self.fallback_reasons.items())),
            "read_stale_serves": self.stale_serves,
        }

    def render(self) -> Tuple[str, str]:
        detail = f"{self.reads_served} served / {self.read_fallbacks} fallbacks"
        if self.fallback_reasons:
            reasons = ", ".join(
                f"{reason}: {count}" for reason, count in sorted(self.fallback_reasons.items())
            )
            detail += f" ({reasons})"
        if self.stale_serves:
            detail += f" / {self.stale_serves} STALE"
        return ("snapshot reads", detail)


@dataclass(frozen=True)
class DetectorStats(_CounterMapping):
    """Failure-detector counters for one run (all zero when the detector is
    off; the reconfiguration counters stay zero where there is no
    configuration service to drive).

    * ``heartbeat_ticks`` — pump ticks (not reported in the JSON);
    * ``suspicions`` / ``false_suspicions`` — peers newly suspected by any
      observer, and suspicions a later heartbeat refuted;
    * ``suspicion_reports`` — reports the configuration service received
      (not reported in the JSON);
    * ``view_changes`` — ``CS_VIEW_CHANGE`` requests the service issued;
    * ``unsolicited_reconfigurations`` — reconfigurations those started;
    * ``pushed_failovers`` — client failovers driven by the resulting
      ``CONFIG_CHANGE`` pushes rather than by a retry timeout.
    """

    heartbeat_ticks: int = 0
    suspicions: int = 0
    false_suspicions: int = 0
    suspicion_reports: int = 0
    view_changes: int = 0
    unsolicited_reconfigurations: int = 0
    pushed_failovers: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "suspicions": self.suspicions,
            "false_suspicions": self.false_suspicions,
            "view_changes": self.view_changes,
            "unsolicited_reconfigurations": self.unsolicited_reconfigurations,
            "pushed_failovers": self.pushed_failovers,
        }

    def render(self) -> Tuple[str, str]:
        return (
            "detector",
            f"{self.suspicions} suspicions / {self.false_suspicions} false / "
            f"{self.view_changes} view changes / "
            f"{self.unsolicited_reconfigurations} unsolicited reconfigs / "
            f"{self.pushed_failovers} pushed failovers",
        )


def leader_load(stats, leaders: Sequence[str], num_transactions: int) -> float:
    """Average messages handled (sent + received) per transaction per leader."""
    if num_transactions <= 0 or not leaders:
        return 0.0
    total = sum(stats.handled_by(pid) for pid in leaders)
    return total / (num_transactions * len(leaders))


def messages_per_transaction(stats, num_transactions: int) -> float:
    """Total messages sent in the system per transaction."""
    if num_transactions <= 0:
        return 0.0
    return stats.total_sent / num_transactions


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table used by benchmarks to print paper-style rows."""
    columns = [str(h) for h in headers]
    text_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in columns]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(column.ljust(widths[i]) for i, column in enumerate(columns)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in text_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


@dataclass
class ExperimentReport:
    """A named table of results, printable by the benchmark harness."""

    experiment: str
    claim: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def render(self) -> str:
        body = format_table(self.headers, self.rows)
        return f"\n=== {self.experiment} ===\nClaim: {self.claim}\n{body}\n"

    def print(self) -> None:  # pragma: no cover - console output
        print(self.render())
