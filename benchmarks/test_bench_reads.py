"""Perf guard for the snapshot-read fast path.

Three layers, all emitted into ``BENCH_reads.json``:

* **Deterministic**: at a 90% read mix on a replication-factor-5 cluster,
  the fast path must cut messages sent by >= 4x and events fired by >= 3x
  versus certifying every read, with the online checker attached and every
  transaction decided.  A certified single-shard read pays the coordinator
  round trip, the ACCEPT/ACK fan-out and the decision replication to all
  five members; a snapshot read is two messages to the shard leader and
  back, independent of the replication factor.  Exact (seeded), so any
  regression fails regardless of machine speed.

* **Wall-clock** (marked ``wallclock``, so left out of the default run;
  ``python -m pytest -m wallclock benchmarks/`` runs it): on the same
  workload, the snapshot-read configuration
  must sustain >= 2.4x the txns/s of the all-certified configuration
  (best paired round measures 2.7-3.0x on the development container; it
  was 3.2x, guarded at 3x, before the per-message path, which the
  all-certified side is bound by, got 1.5x cheaper —
  ``SNAPSHOT_READ_SPEEDUP_FLOOR``).
  Each configuration is validated once with the online checker attached,
  in the default run — the timed rounds run unchecked so the guard
  measures the protocol, not the checker.

* **Crossover**: the read-ratio curve certified-vs-snapshot on the stock
  ``read-heavy-steady-state`` topology — per point: virtual throughput,
  messages, fast-path serves.  The message savings must appear from the
  first non-zero read ratio and grow monotonically with the read mix.

The floors and how they were measured are in ``benchmarks/_helpers.py``
(ratios of interleaved runs on the same machine are far less
noise-sensitive than absolute txns/s).
"""

import gc
import random
import time

import pytest

from repro.cluster import Cluster
from repro.core.reads import ReadPolicy
from repro.core.serializability import TransactionPayload, VERSION_ZERO
from repro.scenarios import READ_RATIO as READ_RATIO_AXIS, get_scenario, run_axis_sweep
from repro.scenarios.spec import ReadSpec
from repro.spec.incremental import IncrementalTCSChecker

from _helpers import SNAPSHOT_READ_SPEEDUP_FLOOR, write_bench_artifact

TXNS = 4_000
WAVE = 128
READ_RATIO = 0.9
REPLICAS = 5  # f=4: the certified read's fan-out the fast path sidesteps
ROUNDS = 4  # certified/snapshot pairs; the guard takes the best pair ratio

_artifact = {}


def _operations():
    """The 90%-read operation mix, payloads prebuilt so the timed loop
    measures the protocol rather than payload construction.  Writes touch
    distinct keys (no aborts), reads hit a shared key pool."""
    rng = random.Random(7)
    keys = [f"key-{i}" for i in range(512)]
    operations = []
    for i in range(TXNS):
        if rng.random() < READ_RATIO:
            key = rng.choice(keys)
            operations.append(
                ("read", key, TransactionPayload.make(reads=[(key, VERSION_ZERO)], tiebreak=f"f{i}"))
            )
        else:
            key = f"wkey-{i}"
            operations.append(
                (
                    "write",
                    key,
                    TransactionPayload.make(
                        reads=[(key, VERSION_ZERO)], writes=[(key, 1)], tiebreak=f"t{i}"
                    ),
                )
            )
    return operations


_OPERATIONS = _operations()


def _drive(snapshot: bool, check: bool):
    """One full run; returns (wall seconds, messages sent, events fired)."""
    policy = ReadPolicy(mode="snapshot") if snapshot else ReadPolicy()
    cluster = Cluster(num_shards=2, replicas_per_shard=REPLICAS, seed=0, read=policy)
    checker = IncrementalTCSChecker(cluster.scheme, cluster.history) if check else None
    cluster.run()  # deliver the bootstrap lease grants before driving
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for offset in range(0, len(_OPERATIONS), WAVE):
            txns = []
            for kind, key, payload in _OPERATIONS[offset : offset + WAVE]:
                if kind == "read" and policy.enabled:
                    txns.append(cluster.submit_read((key,), fallback_payload=payload))
                else:
                    txns.append(cluster.submit(payload))
            assert cluster.run_until_decided(txns)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    if checker is not None:
        assert checker.ok, checker.result().reason
    if snapshot:
        stats = cluster.read_stats()
        assert stats["reads_served"] > 0.9 * READ_RATIO * TXNS  # really on the fast path
    return wall, cluster.message_stats.total_sent, cluster.scheduler.events_fired


def test_read_path_message_and_event_reduction_is_deterministic(benchmark):
    def run_pair():
        certified = _drive(snapshot=False, check=True)
        fast = _drive(snapshot=True, check=True)
        return certified, fast

    certified, fast = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    message_ratio = certified[1] / fast[1]
    event_ratio = certified[2] / fast[2]
    print(
        f"\nreads guard: messages {certified[1]} -> {fast[1]} ({message_ratio:.2f}x), "
        f"events {certified[2]} -> {fast[2]} ({event_ratio:.2f}x) "
        f"at {READ_RATIO:.0%} reads, {REPLICAS} replicas/shard"
    )
    assert message_ratio >= 4.0
    assert event_ratio >= 3.0
    _artifact["deterministic"] = {
        "txns": TXNS,
        "read_ratio": READ_RATIO,
        "replicas_per_shard": REPLICAS,
        "messages_certified": certified[1],
        "messages_snapshot": fast[1],
        "message_ratio": message_ratio,
        "events_certified": certified[2],
        "events_snapshot": fast[2],
        "event_ratio": event_ratio,
    }
    write_bench_artifact("reads", _artifact)


def test_read_path_throughput_guard(benchmark):
    """The timed workload's checked validation runs: both configurations
    decide every transaction with the online checker attached, and the
    snapshot configuration serves its reads on the fast path."""

    def validate():
        _drive(snapshot=False, check=True)
        _drive(snapshot=True, check=True)

    benchmark.pedantic(validate, rounds=1, iterations=1)


@pytest.mark.wallclock
def test_read_path_throughput_wallclock_guard(benchmark):
    def run_rounds():
        # Paired rounds: each round runs certified then snapshot back to
        # back and the guard takes the best per-round ratio, so a noisy
        # machine epoch hits both sides of a pair instead of inflating one.
        pairs = []
        for _ in range(ROUNDS):
            certified_wall, _m, _e = _drive(snapshot=False, check=False)
            snapshot_wall, _m, _e = _drive(snapshot=True, check=False)
            pairs.append((certified_wall, snapshot_wall))
        return pairs

    pairs = benchmark.pedantic(run_rounds, rounds=1, iterations=1)
    ratios = [certified / snapshot for certified, snapshot in pairs]
    speedup = max(ratios)
    certified_wall, snapshot_wall = pairs[ratios.index(speedup)]
    certified_tps = TXNS / certified_wall
    snapshot_tps = TXNS / snapshot_wall
    print(
        f"\nreads guard: all-certified {certified_tps:,.0f} txns/s, "
        f"snapshot-read {snapshot_tps:,.0f} txns/s -> {speedup:.2f}x "
        f"(floor {SNAPSHOT_READ_SPEEDUP_FLOOR:.2f}x at {READ_RATIO:.0%} reads; "
        f"round ratios {', '.join(f'{r:.2f}' for r in ratios)})"
    )
    _artifact["wall_clock"] = {
        "txns": TXNS,
        "wave": WAVE,
        "read_ratio": READ_RATIO,
        "replicas_per_shard": REPLICAS,
        "certified_txns_per_sec": certified_tps,
        "snapshot_txns_per_sec": snapshot_tps,
        "speedup": speedup,
        "round_speedups": ratios,
        "floor_speedup": SNAPSHOT_READ_SPEEDUP_FLOOR,
    }
    write_bench_artifact("reads", _artifact)
    assert speedup >= SNAPSHOT_READ_SPEEDUP_FLOOR


def test_read_ratio_crossover_curve(benchmark):
    """Where the fast path starts paying: certified vs snapshot across the
    read-ratio grid on the stock read-heavy topology."""
    base = get_scenario("read-heavy-steady-state")

    def run_grid():
        sweeps = {
            label: run_axis_sweep(base, READ_RATIO_AXIS, read=read)
            for label, read in (("certified", ReadSpec()), ("snapshot", ReadSpec(mode="snapshot")))
        }
        for label, sweep in sweeps.items():
            for ratio, result in sweep.points:
                assert result.passed, (label, ratio, result.check_reason)
        return sweeps

    sweeps = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = []
    previous_saving = 0.0
    crossover = None
    # Both sweeps ran the same sorted grid, so their points pair up.
    for (label, certified), (_, fast) in zip(
        sweeps["certified"].points, sweeps["snapshot"].points
    ):
        ratio = float(label)
        saving = certified.messages_sent / fast.messages_sent
        if crossover is None and saving > 1.0:
            crossover = ratio
        rows.append(
            {
                "read_ratio": ratio,
                "certified_messages": certified.messages_sent,
                "snapshot_messages": fast.messages_sent,
                "message_saving": saving,
                "certified_throughput": certified.throughput,
                "snapshot_throughput": fast.throughput,
                "reads_served": fast.reads_served,
                "read_fallbacks": fast.read_fallbacks,
            }
        )
        # The saving must grow monotonically with the read mix.
        assert saving >= previous_saving - 1e-9, rows
        previous_saving = saving
    print("\nread-ratio crossover:")
    for row in rows:
        print(
            f"  ratio {row['read_ratio']:.2f}: messages {row['certified_messages']} -> "
            f"{row['snapshot_messages']} ({row['message_saving']:.2f}x), "
            f"{row['reads_served']} fast reads"
        )
    assert crossover is not None and crossover <= 0.25
    _artifact["crossover"] = {"curve": rows, "crossover_ratio": crossover}
    write_bench_artifact("reads", _artifact)
