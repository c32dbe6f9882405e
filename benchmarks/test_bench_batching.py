"""Perf guard for the protocol-level batching pipeline.

Two layers of protection:

* **Deterministic**: on the scenario engine's steady-state workload,
  batching at size 32 must cut messages sent by >= 4x and events fired by
  >= 3x while deciding every transaction with the online checker attached,
  and — under the adaptive policy — without adding a single message delay
  of client latency.  These assertions are exact (the simulation is
  seeded), so any regression in the batching layer fails regardless of
  machine speed.

* **Wall-clock** (marked ``wallclock``, so left out of the default run;
  ``python -m pytest -m wallclock benchmarks/`` runs it): on a saturated
  cross-shard workload driven directly through the cluster (no store
  execution diluting the measurement), batched certification must sustain
  >= 1.4x the unbatched steady-state txns/s, with the online checker
  enabled on both sides.  The same workload, untimed, stays in the default
  run: both variants decide every wave, the checker passes, and batching
  sends fewer messages.  Measured
  1.53-1.63x on the development container (interleaved best-of runs with
  the collector paused keep the ratio stable against noisy neighbours); it
  was ~2.3x, guarded at 2x, before the per-message path got 1.6x cheaper —
  see ``BATCHING_SPEEDUP_FLOOR`` in ``_helpers.py``.

Both guards emit their measurements as ``BENCH_batching.json`` for the CI
artifact trail.
"""

import gc
import time

import pytest

from repro.cluster import Cluster
from repro.core.batching import BatchPolicy
from repro.core.serializability import TransactionPayload
from repro.scenarios import BatchSpec, ScenarioRunner, ScenarioSpec, WorkloadSpec
from repro.spec.incremental import IncrementalTCSChecker

from _helpers import BATCHING_SPEEDUP_FLOOR, write_bench_artifact


TXNS = 3_000
WAVE = 128
BATCH_SIZE = 32
ROUNDS = 4  # interleaved off/on rounds; best-of wall time per side

_artifact = {}


def _scenario_spec(batch: BatchSpec) -> ScenarioSpec:
    return ScenarioSpec(
        name="batching-guard-steady-state",
        protocol="message-passing",
        num_shards=2,
        seed=0,
        workload=WorkloadSpec(kind="uniform", txns=TXNS, batch=WAVE, num_keys=4 * TXNS),
        check_mode="online",
        batch=batch,
        max_events=50_000_000,
    )


def test_batching_message_and_event_reduction_is_deterministic(benchmark):
    def run_pair():
        off = ScenarioRunner(_scenario_spec(BatchSpec())).run()
        on = ScenarioRunner(_scenario_spec(BatchSpec(size=BATCH_SIZE))).run()
        return off, on

    off, on = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    for label, result in (("off", off), ("on", on)):
        assert result.passed and result.undecided == 0, (label, result.check_reason)
        assert result.check_mode == "online"
    message_ratio = off.messages_sent / on.messages_sent
    event_ratio = off.events_fired / on.events_fired
    print(
        f"\nbatching guard: messages {off.messages_sent} -> {on.messages_sent} "
        f"({message_ratio:.1f}x), events {off.events_fired} -> {on.events_fired} "
        f"({event_ratio:.1f}x), mean batch {on.mean_batch_size:.1f}"
    )
    assert message_ratio >= 4.0
    assert event_ratio >= 3.0
    assert on.mean_batch_size >= 5.0
    # Adaptive flush-on-idle adds zero virtual latency: the commit path is
    # byte-identical in message delays.
    assert on.latency.mean == off.latency.mean
    assert on.latency.p99 == off.latency.p99
    _artifact["deterministic"] = {
        "txns": TXNS,
        "messages_off": off.messages_sent,
        "messages_on": on.messages_sent,
        "message_ratio": message_ratio,
        "events_off": off.events_fired,
        "events_on": on.events_fired,
        "event_ratio": event_ratio,
        "mean_batch_size": on.mean_batch_size,
        "max_batch_size": on.max_batch_size,
    }
    write_bench_artifact("batching", _artifact)


def _cross_shard_payloads(cluster, n):
    """Every transaction spans both shards, so certification pays the full
    cross-shard fan-out that batching amortises."""
    first = cluster.scheme.sharding.key_for_shard(cluster.shards[0], hint="a")
    second = cluster.scheme.sharding.key_for_shard(cluster.shards[1], hint="b")
    payloads = []
    for i in range(n):
        keys = [f"{first}-{i}", f"{second}-{i}"]
        payloads.append(
            TransactionPayload.make(
                reads=[(key, (0, "")) for key in keys],
                writes=[(key, i) for key in keys],
                tiebreak=f"t{i}",
            )
        )
    return payloads


def _drive(batch: BatchPolicy, payloads) -> tuple:
    """Run ``payloads`` wave by wave; the wall time and the messages sent."""
    cluster = Cluster(num_shards=2, replicas_per_shard=2, batch=batch)
    checker = IncrementalTCSChecker(cluster.scheme, cluster.history)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for offset in range(0, len(payloads), WAVE):
            txns = [cluster.submit(p) for p in payloads[offset : offset + WAVE]]
            assert cluster.run_until_decided(txns)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    assert checker.ok, checker.result().reason
    return wall, cluster.message_stats.total_sent


def _payloads():
    # Payload keys depend only on the sharding function, so one prebuilt
    # list serves every round of both variants.
    return _cross_shard_payloads(Cluster(num_shards=2, replicas_per_shard=2), TXNS)


def test_batched_throughput_guard(benchmark):
    payloads = _payloads()

    def run_pair():
        policies = (BatchPolicy(), BatchPolicy(size=BATCH_SIZE))
        return [_drive(policy, payloads)[1] for policy in policies]

    messages_off, messages_on = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert messages_on < messages_off


@pytest.mark.wallclock
def test_batched_throughput_wallclock_guard(benchmark):
    payloads = _payloads()

    def run_rounds():
        best = {"off": None, "on": None}
        for _ in range(ROUNDS):
            for label, policy in (
                ("off", BatchPolicy()),
                ("on", BatchPolicy(size=BATCH_SIZE)),
            ):
                wall, _ = _drive(policy, payloads)
                if best[label] is None or wall < best[label]:
                    best[label] = wall
        return best

    best = benchmark.pedantic(run_rounds, rounds=1, iterations=1)
    off_tps = TXNS / best["off"]
    on_tps = TXNS / best["on"]
    speedup = best["off"] / best["on"]
    print(
        f"\nbatching guard: unbatched {off_tps:,.0f} txns/s, "
        f"batched(size={BATCH_SIZE}) {on_tps:,.0f} txns/s -> {speedup:.2f}x "
        f"(floor {BATCHING_SPEEDUP_FLOOR:.2f}x, online checker on)"
    )
    _artifact["wall_clock"] = {
        "txns": TXNS,
        "wave": WAVE,
        "batch_size": BATCH_SIZE,
        "unbatched_txns_per_sec": off_tps,
        "batched_txns_per_sec": on_tps,
        "speedup": speedup,
        "floor_speedup": BATCHING_SPEEDUP_FLOOR,
    }
    write_bench_artifact("batching", _artifact)
    assert speedup >= BATCHING_SPEEDUP_FLOOR
